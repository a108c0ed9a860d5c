"""Per-node load ledger: who absorbs the traffic, and how unevenly.

The run-level metrics (``repro.sim.metrics``) aggregate per *run*; this
module keys the same accounting by *node* so hotspot questions — which
stationary nodes serve the discovery detours, who holds the location
records, who fans an LDT wave out — become answerable from a manifest.
"Rendezvous Regions"-style location services live or die by load
concentration at responsible nodes, so the ledger also derives the
imbalance statistics a load-balance argument needs: max/mean ratio, Gini
coefficient, and a top-k hotspot table.

A charge is one append to each of three pending columns (key, kind,
amount).  Every read first folds them into one grow-by-doubling
``int64`` NumPy matrix (rows = nodes in first-touch order, columns =
:data:`KINDS`), so counting is integer arithmetic — deterministic,
RNG-free, and exactly mergeable across ``sweep_map`` workers (addition
commutes with recording order).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, cast

import numpy as np

__all__ = [
    "KINDS",
    "NodeLoadLedger",
    "gini",
    "imbalance_stats",
    "top_hotspots",
]

#: The per-node load kinds the ledger tracks:
#:
#: ``routed``
#:     messages a node forwarded (every application-level hop's source);
#: ``terminated``
#:     routed messages delivered *at* the node (the final hop's target);
#: ``registrations``
#:     location-record publish messages the node absorbed as a
#:     stationary holder (§2.3.1 update fan-in);
#: ``ldt_fanout``
#:     LDT advertisement copies the node forwarded to its children when a
#:     dissemination tree was built over it (Fig 4 fan-out served);
#: ``detour``
#:     discovery detours the node served as the resolving record holder
#:     (Fig 2's Z — the Table-1 "infrastructure load").
KINDS: Tuple[str, ...] = (
    "routed",
    "terminated",
    "registrations",
    "ldt_fanout",
    "detour",
)

_KIND_INDEX: Dict[str, int] = {k: i for i, k in enumerate(KINDS)}

#: Pending charges are folded into the matrix once this many queue up,
#: so their memory stays fixed however long a run records without reading.
_PENDING_MAX = 1 << 14


def gini(counts: np.ndarray) -> float:
    """Gini coefficient of a non-negative count vector (0 = perfectly
    balanced, → 1 = one node absorbs everything).

    Uses the sorted-rank identity ``G = 2·Σ i·x_(i) / (n·Σ x) − (n+1)/n``
    (O(n log n), vectorised).  Empty or all-zero vectors return 0.0.
    """
    arr = np.asarray(counts, dtype=np.float64).ravel()
    n = int(arr.size)
    total = float(arr.sum())
    if n == 0 or total <= 0.0:
        return 0.0
    ordered = np.sort(arr)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * np.dot(ranks, ordered) / (n * total) - (n + 1) / n)


def imbalance_stats(counts: np.ndarray) -> Dict[str, float]:
    """Imbalance summary of a per-node count vector.

    Returns ``nodes`` (population size), ``total``, ``mean``, ``max``,
    ``max_mean`` (the hotspot ratio; 0 when the mean is 0) and ``gini``.
    """
    arr = np.asarray(counts, dtype=np.float64).ravel()
    n = int(arr.size)
    total = float(arr.sum()) if n else 0.0
    mean = total / n if n else 0.0
    peak = float(arr.max()) if n else 0.0
    return {
        "nodes": float(n),
        "total": total,
        "mean": mean,
        "max": peak,
        "max_mean": (peak / mean) if mean > 0.0 else 0.0,
        "gini": gini(arr),
    }


def top_hotspots(loads: Mapping[int, int], k: int = 10) -> List[Tuple[int, int]]:
    """The ``k`` most-loaded ``(node_key, count)`` pairs, deterministic.

    Sorted by descending count, ties broken by ascending key, zero-load
    nodes omitted — the same ordering whatever the mapping's insertion
    order was.
    """
    ranked = sorted(
        ((key, count) for key, count in loads.items() if count > 0),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return ranked[: max(int(k), 0)]


class NodeLoadLedger:
    """Vectorised per-node counters for every :data:`KINDS` load kind.

    A charge appends to the pending columns; reads fold them first, with
    node keys registering in first-touch order.  Counts for all kinds
    share one ``(nodes, kinds)`` int64 matrix that doubles as it grows,
    and a fold is a single ``np.add.at`` scatter.  Recording is pure
    integer counting — no RNG draws, no oracle reads — so turning the
    ledger on cannot perturb simulation results.
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self._keys: List[int] = []
        self._counts: np.ndarray = np.zeros((0, len(KINDS)), dtype=np.int64)
        # Charges not yet folded, as three parallel columns.
        self._keys_in: List[int] = []
        self._cols_in: List[int] = []
        self._amounts_in: List[int] = []

    def __len__(self) -> int:
        self._fold()
        return len(self._keys)

    def _rows(self, keys: Sequence[int]) -> np.ndarray:
        """Matrix rows for ``keys``, registering new ones in first-touch
        order (and growing the matrix) on demand."""
        index = self._index
        fresh = [k for k in dict.fromkeys(keys) if k not in index]
        if fresh:
            start, end = len(self._keys), len(self._keys) + len(fresh)
            if end > self._counts.shape[0]:
                size = max(16, 1 << (end - 1).bit_length())  # doubling from 16
                grown = np.zeros((size, len(KINDS)), dtype=np.int64)
                grown[:start] = self._counts[:start]
                self._counts = grown
            index.update(zip(fresh, range(start, end)))
            self._keys.extend(fresh)
        return np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))

    def _fold(self) -> None:
        """Add every pending charge into the matrix."""
        if self._keys_in:
            cells = self._rows(self._keys_in) * len(KINDS)
            cells += np.asarray(self._cols_in, dtype=np.intp)
            amounts = np.asarray(self._amounts_in, dtype=np.int64)
            np.add.at(self._counts.reshape(-1), cells, amounts)
            self._keys_in, self._cols_in, self._amounts_in = [], [], []

    def _matrix(self) -> np.ndarray:
        """The folded ``(registered nodes, kinds)`` counts (a view)."""
        self._fold()
        return self._counts[: len(self._keys)]

    @staticmethod
    def _col(kind: str) -> int:
        try:
            return _KIND_INDEX[kind]
        except KeyError:
            raise ValueError(f"unknown load kind {kind!r}; expected one of {KINDS}")

    def register_nodes(self, keys: Iterable[int]) -> None:
        """Pre-register nodes at zero load, so imbalance statistics range
        over the whole population instead of only the nodes ever hit."""
        self._fold()
        self._rows(list(map(int, keys)))

    def add(self, kind: str, key: int, amount: int = 1) -> None:
        """Charge ``amount`` load of ``kind`` to node ``key``."""
        col, key, amount = self._col(kind), int(key), int(amount)
        self._keys_in.append(key)
        self._cols_in.append(col)
        self._amounts_in.append(amount)
        if len(self._keys_in) >= _PENDING_MAX:
            self._fold()

    def add_many(
        self, kind: str, keys: Iterable[int], amounts: Optional[Sequence[int]] = None
    ) -> None:
        """Charge ``kind`` to every entry of ``keys`` (repeats accumulate)
        — one unit each, or ``amounts[i]`` to ``keys[i]``."""
        key_list = list(map(int, keys))
        if key_list:
            col, n = self._col(kind), len(key_list)
            amount_list = [1] * n if amounts is None else list(map(int, amounts))
            if len(amount_list) != n:
                raise ValueError(f"{n} keys but {len(amount_list)} amounts")
            self._keys_in += key_list
            self._cols_in += [col] * n
            self._amounts_in += amount_list
            if len(self._keys_in) >= _PENDING_MAX:
                self._fold()

    def total(self, kind: str) -> int:
        """Total load of ``kind`` across every node."""
        return int(self._matrix()[:, self._col(kind)].sum())

    def counts(self, kind: str) -> Dict[int, int]:
        """``node key → count`` for ``kind`` (registered nodes only)."""
        column = self._matrix()[:, self._col(kind)].tolist()
        return dict(zip(self._keys, column))

    def counts_array(self, kind: str) -> np.ndarray:
        """Count vector for ``kind`` over registered nodes (a copy,
        aligned with :attr:`keys`)."""
        return self._matrix()[:, self._col(kind)].copy()

    @property
    def keys(self) -> List[int]:
        """Registered node keys, in registration order (a copy)."""
        self._fold()
        return list(self._keys)

    def imbalance(self, kind: str) -> Dict[str, float]:
        """:func:`imbalance_stats` over the registered population."""
        return imbalance_stats(self.counts_array(kind))

    def hotspots(self, kind: str, k: int = 10) -> List[Tuple[int, int]]:
        """Top-``k`` ``(node key, count)`` hotspots for ``kind``."""
        return top_hotspots(self.counts(kind), k)

    def manifest_section(self, top: int = 5) -> Dict[str, Dict[str, object]]:
        """The manifest's ``node_load`` section: per active kind, the
        imbalance stats plus a ``top`` hotspot table (``[key, count]``
        pairs).  Kinds with zero recorded load are omitted so quiet runs
        stay compact."""
        section: Dict[str, Dict[str, object]] = {}
        for kind in KINDS:
            arr = self.counts_array(kind)
            if arr.size == 0 or int(arr.sum()) == 0:
                continue
            stats = imbalance_stats(arr)
            entry: Dict[str, object] = {k: round(v, 9) for k, v in stats.items()}
            entry["top"] = [
                [int(key), int(count)] for key, count in self.hotspots(kind, top)
            ]
            section[kind] = entry
        return section

    # ------------------------------------------------------------------
    # Cross-process merge (sweep workers → parent session)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Picklable snapshot (keys + per-kind counts) for worker→parent
        merges.  Merging exported states in any grouping yields the same
        ledger as recording everything in one process — counts are
        integers and addition is associative."""
        counts = self._matrix().tolist()
        return {"keys": list(self._keys), "counts": counts}

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Fold a worker's :meth:`export_state` into this ledger."""
        self._fold()
        keys = [int(k) for k in cast(List[int], state.get("keys", []))]
        rows = self._rows(keys)  # may grow the matrix: resolve it first
        counts = np.asarray(state.get("counts", []), dtype=np.int64)
        np.add.at(self._counts, rows, counts.reshape(len(keys), len(KINDS)))
