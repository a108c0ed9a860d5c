"""Per-node load ledger: who absorbs the traffic, and how unevenly.

The run-level metrics (``repro.sim.metrics``) aggregate per *run*; this
module keys the same accounting by *node* so hotspot questions — which
stationary nodes serve the discovery detours, who holds the location
records, who fans an LDT wave out — become answerable from a manifest.
"Rendezvous Regions"-style location services live or die by load
concentration at responsible nodes, so the ledger also derives the
imbalance statistics a load-balance argument needs: max/mean ratio, Gini
coefficient, and a top-k hotspot table.

Counts live in one grow-by-doubling ``int64`` NumPy matrix (rows =
nodes, columns = :data:`KINDS`), so recording is integer arithmetic —
deterministic, RNG-free, and exactly mergeable across ``sweep_map``
workers (bucket addition commutes with recording order).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

#: Batch size from which :meth:`NodeLoadLedger.add_many` scatters with
#: ``np.add.at`` instead of looping.  Measured on this ledger (9000
#: registered nodes): the loop costs ~0.27 µs a key, the scatter ~2 µs
#: plus ~0.1 µs a key — level at 13, the scatter ahead from 16 (3.7 vs
#: 4.2 µs).  A route charges about a dozen forwarders, below the line.
_SCATTER_MIN = 16


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

    Node keys register lazily on first touch; counts for all kinds share
    one ``(nodes, kinds)`` int64 matrix that doubles as it grows, so a
    bulk :meth:`add_many` is a single ``np.add.at`` scatter.  Recording
    is pure integer counting — no RNG draws, no oracle reads — so turning
    the ledger on cannot perturb simulation results.
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self._keys: List[int] = []
        self._counts: np.ndarray = np.zeros((0, len(KINDS)), dtype=np.int64)

    def __len__(self) -> int:
        return len(self._keys)

    def _row(self, key: int) -> int:
        """Matrix row for ``key``, registering (and growing) on demand."""
        row = self._index.get(key)
        if row is not None:
            return row
        row = len(self._keys)
        if row >= self._counts.shape[0]:
            grown = np.zeros(
                (max(16, 2 * self._counts.shape[0]), len(KINDS)), dtype=np.int64
            )
            grown[: self._counts.shape[0]] = self._counts
            self._counts = grown
        self._index[key] = row
        self._keys.append(int(key))
        return row

    @staticmethod
    def _col(kind: str) -> int:
        try:
            return _KIND_INDEX[kind]
        except KeyError:
            raise ValueError(f"unknown load kind {kind!r}; expected one of {KINDS}")

    def register_nodes(self, keys: Iterable[int]) -> None:
        """Pre-register nodes at zero load, so imbalance statistics range
        over the whole population instead of only the nodes ever hit."""
        for key in keys:
            self._row(int(key))

    def add(self, kind: str, key: int, amount: int = 1) -> None:
        """Charge ``amount`` load of ``kind`` to node ``key``."""
        # Resolve the row before subscripting: _row may reallocate the
        # matrix while growing it.
        row = self._row(int(key))
        self._counts[row, self._col(kind)] += int(amount)

    def add_many(
        self, kind: str, keys: Iterable[int], amounts: Optional[Sequence[int]] = None
    ) -> None:
        """Charge ``kind`` to every entry of ``keys`` (repeats accumulate)
        — one unit each, or ``amounts[i]`` to ``keys[i]`` — as a single
        vectorised scatter-add."""
        key_list = [int(k) for k in keys]
        if not key_list:
            return
        col = self._col(kind)
        if len(key_list) < _SCATTER_MIN:
            for k, amount in zip(key_list, repeat(1) if amounts is None else amounts):
                row = self._row(k)
                self._counts[row, col] += amount
            return
        rows = np.fromiter(
            (self._row(k) for k in key_list), dtype=np.intp, count=len(key_list)
        )
        np.add.at(self._counts[:, col], rows, 1 if amounts is None else amounts)

    def total(self, kind: str) -> int:
        """Total load of ``kind`` across every node."""
        n = len(self._keys)
        return int(self._counts[:n, self._col(kind)].sum())

    def counts(self, kind: str) -> Dict[int, int]:
        """``node key → count`` for ``kind`` (registered nodes only)."""
        col = self._col(kind)
        return {k: int(self._counts[i, col]) for i, k in enumerate(self._keys)}

    def counts_array(self, kind: str) -> np.ndarray:
        """Count vector for ``kind`` over registered nodes (a copy,
        aligned with :attr:`keys`)."""
        n = len(self._keys)
        return self._counts[:n, self._col(kind)].copy()

    @property
    def keys(self) -> List[int]:
        """Registered node keys, in registration order (a copy)."""
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
        n = len(self._keys)
        return {
            "keys": list(self._keys),
            "counts": self._counts[:n].tolist(),
        }

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Fold a worker's :meth:`export_state` into this ledger."""
        keys = state.get("keys", [])
        counts = state.get("counts", [])
        assert isinstance(keys, list) and isinstance(counts, list)
        for key, row in zip(keys, counts):
            r = self._row(int(key))
            self._counts[r] += np.asarray(row, dtype=np.int64)
