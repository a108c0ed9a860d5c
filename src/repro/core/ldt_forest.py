"""Columnar LDT forest — batch construction of Fig-4 trees as flat arrays.

:func:`repro.core.ldt.build_ldt` schedules one registry per call.  At the
scales of the columnar state engine (§ "Columnar state & million-node
scale" in docs/performance.md) the network advertises thousands of trees
per round, so this module builds them as a struct-of-arrays **forest**:
every registry in the batch is one slice of flat numpy columns, sorted by
one ``np.lexsort``, and the whole batch advances level by level with array
kernels.  It rests on the identity :mod:`repro.core.ldt`'s docstring
proves — after the one stable sort, every pending set is an arithmetic
progression of sort positions — so a "task" is three integers plus the
sender's availability, and one level of the whole forest is a handful of
``repeat``/``cumsum`` operations over the task arrays, no per-member
Python.

Column layout
-------------
``tree_offsets`` (``T+1`` CSR offsets) slices every member column by
tree; member columns are stored in **capacity-sort order** (the single
``np.lexsort`` over the whole batch):

========== ======= ====================================================
column     dtype   meaning
========== ======= ====================================================
tree_id    int64   owning tree index (non-decreasing)
key        int64   member key
capacity   float64 member ``C``
used       float64 member ``Used`` (``Avail = C − Used``)
parent     int64   parent *key* (the tree root for first-tier members)
parent_row int64   global row of the parent member, ``-1`` for the root
level      int64   tree level (members start at 1; the root is level 0)
assigned   int64   partition size handed to this member (≥ 1)
========== ======= ====================================================

Canonical edge order
--------------------
:meth:`LDTForest.edge_arrays` emits edges **level-major**: grouped by
tree, then by child level, then by the child's capacity-sort position —
the order the level-synchronous kernel produces them in.
:meth:`LDTForest.tree` renumbers one tree's rows into the recursion's
send order (DFS pre-order), so the :class:`~repro.core.ldt.LDTree` it
returns equals ``build_ldt``'s on the same spec (the parity guarantee
the test suite enforces).
"""

from __future__ import annotations

import dataclasses
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .ldt import LDTMember, LDTree

__all__ = [
    "ForestSpec",
    "LDTForest",
    "build_ldt_forest",
    "build_forest_columns",
    "forest_depths",
    "forest_from_columns",
]

_I64 = np.int64
_F64 = np.float64


@dataclasses.dataclass(frozen=True)
class ForestSpec:
    """One tree's worth of input: the Fig-4 arguments of ``build_ldt``."""

    root: LDTMember
    registry: Sequence[LDTMember]
    unit_cost: float = 1.0
    tie_break: Optional[Callable[[LDTMember], float]] = None


def build_forest_columns(
    tree_offsets: np.ndarray,
    avail: np.ndarray,
    root_avail: np.ndarray,
    unit_cost: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level-synchronous Fig-4 kernel over pre-sorted member columns.

    ``avail`` holds member availabilities in capacity-sort order (the
    caller owns the lexsort); ``root_avail``/``unit_cost`` are per-tree.
    Returns ``(level, assigned, parent_row)`` — ``parent_row`` is the
    global row of the parent member, ``-1`` when the parent is the root.

    This entry point is what the scale engine uses directly: it never
    touches member objects, so a 10⁶-member forest costs a few array
    passes per tree level.
    """
    tree_offsets = np.asarray(tree_offsets, dtype=_I64)
    avail = np.asarray(avail, dtype=_F64)
    root_avail = np.asarray(root_avail, dtype=_F64)
    unit_cost = np.asarray(unit_cost, dtype=_F64)
    if np.any(unit_cost <= 0):
        raise ValueError("unit_cost must be positive")

    n_members = int(avail.size)
    sizes = np.diff(tree_offsets)
    level = np.zeros(n_members, dtype=_I64)
    assigned = np.zeros(n_members, dtype=_I64)
    parent_row = np.full(n_members, -1, dtype=_I64)

    live = sizes > 0
    # One task per non-empty tree: the root advertises the whole registry,
    # which after the sort is the progression (start=offset, stride=1).
    t_start = tree_offsets[:-1][live]
    t_stride = np.ones(int(live.sum()), dtype=_I64)
    t_count = sizes[live]
    t_avail = root_avail[live]
    t_cost = unit_cost[live]
    t_sender = np.full(t_start.size, -1, dtype=_I64)

    lvl = 0
    while t_start.size:
        lvl += 1
        # Fan-out per task: the overloaded branch (Avail − v ≤ 0) delegates
        # to a single head — structurally the k = 1 partition case.
        k = np.floor(t_avail / t_cost).astype(_I64)
        np.clip(k, 1, t_count, out=k)
        k = np.where(t_avail - t_cost <= 0.0, np.ones_like(k), k)

        total = int(k.sum())
        task_of = np.repeat(np.arange(k.size, dtype=_I64), k)
        j = np.arange(total, dtype=_I64) - np.repeat(np.cumsum(k) - k, k)

        stride = t_stride[task_of]
        child = t_start[task_of] + j * stride
        # Partition j of an arithmetic progression split k ways has
        # ⌊(c − j − 1)/k⌋ + 1 elements (head included).
        child_assigned = (t_count[task_of] - j - 1) // k[task_of] + 1

        level[child] = lvl
        assigned[child] = child_assigned
        parent_row[child] = t_sender[task_of]

        # Each head recurses on its partition minus itself: the progression
        # (child + k·s, k·s, assigned − 1).
        rest = child_assigned - 1
        keep = rest > 0
        new_stride = k[task_of] * stride
        t_start = child[keep] + new_stride[keep]
        t_stride = new_stride[keep]
        t_count = rest[keep]
        t_avail = avail[child[keep]]
        t_cost = t_cost[task_of][keep]
        t_sender = child[keep]
    return level, assigned, parent_row


def forest_depths(tree_offsets: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Per-tree depth (max member level; 0 for empty trees)."""
    tree_offsets = np.asarray(tree_offsets, dtype=_I64)
    level = np.asarray(level, dtype=_I64)
    sizes = np.diff(tree_offsets)
    depths = np.zeros(sizes.size, dtype=_I64)
    live = sizes > 0
    if level.size and bool(live.any()):
        depths[live] = np.maximum.reduceat(level, tree_offsets[:-1][live])
    return depths


def forest_from_columns(
    tree_offsets: np.ndarray,
    avail: np.ndarray,
    root_avail: np.ndarray,
    unit_cost: np.ndarray,
    level: Optional[np.ndarray] = None,
    assigned: Optional[np.ndarray] = None,
    parent_row: Optional[np.ndarray] = None,
    *,
    key: Optional[np.ndarray] = None,
    root_key: Optional[np.ndarray] = None,
) -> "LDTForest":
    """Assemble an :class:`LDTForest` from pure availability columns.

    The scale engine builds trees without member objects or even member
    keys; this helper synthesises keys (global row index; roots get
    ``-(tree+1)`` so they never collide) unless the caller provides real
    ones, and runs :func:`build_forest_columns` when the level columns
    are not already built.  ``capacity`` is set to ``avail`` with
    ``used = 0`` — equivalent for every Fig-4 decision.
    """
    tree_offsets = np.asarray(tree_offsets, dtype=_I64)
    avail = np.asarray(avail, dtype=_F64)
    root_avail = np.asarray(root_avail, dtype=_F64)
    unit_cost = np.asarray(unit_cost, dtype=_F64)
    if level is None or assigned is None or parent_row is None:
        level, assigned, parent_row = build_forest_columns(
            tree_offsets, avail, root_avail, unit_cost
        )
    n_trees = int(tree_offsets.size - 1)
    n_members = int(avail.size)
    if key is None:
        key = np.arange(n_members, dtype=_I64)
    else:
        key = np.asarray(key).astype(_I64)
    if root_key is None:
        root_key = -(np.arange(n_trees, dtype=_I64) + 1)
    else:
        root_key = np.asarray(root_key).astype(_I64)
    tree_id = np.repeat(np.arange(n_trees, dtype=_I64), np.diff(tree_offsets))
    parent = np.where(
        parent_row >= 0, key[np.maximum(parent_row, 0)], root_key[tree_id]
    ).astype(_I64)
    return LDTForest(
        tree_offsets=tree_offsets,
        tree_id=tree_id,
        key=key,
        capacity=avail,
        used=np.zeros(n_members, dtype=_F64),
        parent=parent,
        parent_row=np.asarray(parent_row, dtype=_I64),
        level=np.asarray(level, dtype=_I64),
        assigned=np.asarray(assigned, dtype=_I64),
        root_key=root_key,
        root_capacity=root_avail,
        root_used=np.zeros(n_trees, dtype=_F64),
        unit_cost=unit_cost,
    )


@dataclasses.dataclass
class LDTForest:
    """A batch of materialised advertisement trees in flat columns.

    See the module docstring for the column layout and the canonical
    edge-order contract.  Forests are immutable after construction.
    """

    tree_offsets: np.ndarray
    tree_id: np.ndarray
    key: np.ndarray
    capacity: np.ndarray
    used: np.ndarray
    parent: np.ndarray
    parent_row: np.ndarray
    level: np.ndarray
    assigned: np.ndarray
    root_key: np.ndarray
    root_capacity: np.ndarray
    root_used: np.ndarray
    unit_cost: np.ndarray

    @property
    def num_trees(self) -> int:
        return int(self.tree_offsets.size - 1)

    @property
    def num_members(self) -> int:
        return int(self.key.size)

    def sizes(self) -> np.ndarray:
        """Members per tree."""
        return np.diff(self.tree_offsets)

    def message_counts(self) -> np.ndarray:
        """Advertisement messages per tree — one per member (§2.3)."""
        return self.sizes()

    def depths(self) -> np.ndarray:
        """Per-tree depth (max member level)."""
        return forest_depths(self.tree_offsets, self.level)

    def level_histogram(self) -> np.ndarray:
        """Member count per level across the whole forest (index = level;
        entry 0 is always 0 — roots are not member rows)."""
        if self.level.size == 0:
            return np.zeros(1, dtype=_I64)
        return np.bincount(self.level)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All edges as ``(parent_keys, child_keys)`` in canonical order.

        Canonical columnar order is **level-major**: by tree, then child
        level, then the child's capacity-sort position — the order the
        level-synchronous kernel discovers them.  (``tree(i).edges``
        instead replays the sequential DFS pre-order.)
        """
        order = np.lexsort(
            (np.arange(self.level.size, dtype=_I64), self.level, self.tree_id)
        )
        return self.parent[order], self.key[order]

    def tree(self, index: int) -> LDTree:
        """Tree ``index`` as an :class:`~repro.core.ldt.LDTree`, equal to
        ``build_ldt`` on the same spec: the tree's column slices, handed
        to the one pre-order pass both builders share."""
        lo, hi = self.tree_offsets[index : index + 2].tolist()
        # Global parent rows → indices local to the tree, root at 0.
        parents = np.maximum(self.parent_row[lo:hi] - (lo - 1), 0)
        return LDTree.from_sorted(
            [int(self.root_key[index])] + self.key[lo:hi].tolist(),
            [-1] + parents.tolist(),
            [0] + self.level[lo:hi].tolist(),
            [0] + self.assigned[lo:hi].tolist(),
            [float(self.root_capacity[index])] + self.capacity[lo:hi].tolist(),
            [float(self.root_used[index])] + self.used[lo:hi].tolist(),
        )

    def trees(self) -> Iterator[LDTree]:
        """Materialise every tree in batch order."""
        return (self.tree(t) for t in range(self.num_trees))

    def validate(self) -> None:
        """Vectorised structural invariants over the whole forest.

        The forest-column counterpart of :meth:`LDTree.validate` plus the
        Fig-4 capacity bound — used by ``repro.sanitize.check_ldt_forest``.
        """
        n = self.num_members
        offsets = self.tree_offsets
        assert offsets[0] == 0 and offsets[-1] == n, "tree_offsets must cover columns"
        assert bool((np.diff(offsets) >= 0).all()), "tree_offsets must be monotonic"
        expected_tree = np.repeat(np.arange(self.num_trees, dtype=_I64), self.sizes())
        assert bool((self.tree_id == expected_tree).all()), "tree_id disagrees with offsets"
        if n == 0:
            return
        assert bool((self.level >= 1).all()), "members start at level 1"
        assert bool((self.assigned >= 1).all()), "every member heads a partition"

        has_parent = self.parent_row >= 0
        roots = ~has_parent
        assert bool((self.level[roots] == 1).all()), "root children must be level 1"
        root_of_tree = self.root_key[self.tree_id]
        assert bool(
            (self.parent[roots] == root_of_tree[roots]).all()
        ), "first-tier parents must be the tree root"
        prow = self.parent_row[has_parent]
        assert bool(
            (self.tree_id[prow] == self.tree_id[has_parent]).all()
        ), "parents must live in the same tree"
        assert bool(
            (self.level[has_parent] == self.level[prow] + 1).all()
        ), "edges must not skip levels"
        assert bool(
            (self.parent[has_parent] == self.key[prow]).all()
        ), "parent key column disagrees with parent_row"

        # Fig-4 fan-out bound per sender.
        per_cost = self.unit_cost[self.tree_id]
        child_count = np.bincount(prow, minlength=n)
        avail = self.capacity - self.used
        allowed = np.where(
            avail - per_cost <= 0.0,
            1,
            np.maximum(np.floor(avail / per_cost).astype(_I64), 1),
        )
        assert bool((child_count <= allowed).all()), "member fan-out exceeds Avail/v"
        root_children = np.bincount(
            self.tree_id[roots], minlength=self.num_trees
        )
        root_avail = self.root_capacity - self.root_used
        root_allowed = np.where(
            root_avail - self.unit_cost <= 0.0,
            1,
            np.maximum(np.floor(root_avail / self.unit_cost).astype(_I64), 1),
        )
        np.minimum(root_allowed, np.maximum(self.sizes(), 1), out=root_allowed)
        assert bool((root_children <= root_allowed).all()), "root fan-out exceeds Avail/v"

        # Conservation: a head's partition is itself plus its children's
        # partitions; the root's partitions cover the registry exactly.
        child_sum = np.bincount(prow, weights=self.assigned[has_parent], minlength=n)
        assert bool(
            (child_sum.astype(_I64) == self.assigned - 1).all()
        ), "partition sizes must telescope"
        root_sum = np.bincount(
            self.tree_id[roots], weights=self.assigned[roots], minlength=self.num_trees
        )
        assert bool(
            (root_sum.astype(_I64) == self.sizes()).all()
        ), "root partitions must cover the registry"


def build_ldt_forest(specs: Sequence[ForestSpec]) -> LDTForest:
    """Build the Fig-4 trees for every spec in one vectorised pass.

    Bit-identical to running ``build_ldt(spec.root, spec.registry,
    spec.unit_cost, tie_break=spec.tie_break)`` per spec and is the
    batched construction path used by ``BristleNetwork``; materialise
    individual trees with :meth:`LDTForest.tree`.
    """
    n_trees = len(specs)
    sizes = np.fromiter((len(s.registry) for s in specs), dtype=_I64, count=n_trees)
    tree_offsets = np.zeros(n_trees + 1, dtype=_I64)
    np.cumsum(sizes, out=tree_offsets[1:])
    n_members = int(tree_offsets[-1])

    root_key = np.fromiter((s.root.key for s in specs), dtype=_I64, count=n_trees)
    root_capacity = np.fromiter(
        (s.root.capacity for s in specs), dtype=_F64, count=n_trees
    )
    root_used = np.fromiter((s.root.used for s in specs), dtype=_F64, count=n_trees)
    unit_cost = np.fromiter((s.unit_cost for s in specs), dtype=_F64, count=n_trees)
    if np.any(unit_cost <= 0):
        raise ValueError("unit_cost must be positive")

    # Object-model ingestion bridge: three chained attribute passes turn
    # the LDTMember rows into columns; everything after is array kernels.
    def _column(attr: str, dtype) -> np.ndarray:
        rows = chain.from_iterable(s.registry for s in specs)
        return np.fromiter(map(attrgetter(attr), rows), dtype=dtype, count=n_members)

    key = _column("key", _I64)
    capacity = _column("capacity", _F64)
    used = _column("used", _F64)
    # The default secondary sort key is float(member.key) — vectorised;
    # only specs with a custom tie_break pay a per-member Python call.
    secondary = key.astype(_F64)
    for t, spec in enumerate(specs):
        if spec.tie_break is None:
            continue
        lo = int(tree_offsets[t])
        hi = int(tree_offsets[t + 1])
        tb = spec.tie_break
        secondary[lo:hi] = np.fromiter(
            (tb(m) for m in spec.registry), dtype=_F64, count=hi - lo
        )

    tree_id = np.repeat(np.arange(n_trees, dtype=_I64), sizes)

    # build_ldt's input validation, vectorised across the batch.  Fast
    # path: node keys are normally globally unique, so a plain key sort
    # proves per-tree uniqueness without the heavier (tree, key) lexsort.
    if n_members:
        sorted_keys = np.sort(key)
        if bool((sorted_keys[1:] == sorted_keys[:-1]).any()):
            dup_order = np.lexsort((key, tree_id))
            sk = key[dup_order]
            st = tree_id[dup_order]
            if bool(((sk[1:] == sk[:-1]) & (st[1:] == st[:-1])).any()):
                raise ValueError("registry contains duplicate keys")
        if bool((key == root_key[tree_id]).any()):
            raise ValueError("the root must not appear in its own registry")

    # The one capacity sort for the whole batch.  np.lexsort is stable, so
    # full ties keep registry order — exactly Python's sorted() semantics,
    # and every recursive re-sort inside Fig 4 is then the identity.
    order = np.lexsort((secondary, -capacity, tree_id))
    key = key[order]
    capacity = capacity[order]
    used = used[order]

    level, assigned, parent_row = build_forest_columns(
        tree_offsets, capacity - used, root_capacity - root_used, unit_cost
    )
    parent = np.where(
        parent_row >= 0,
        key[np.maximum(parent_row, 0)],
        root_key[tree_id] if n_members else np.empty(0, dtype=_I64),
    )
    return LDTForest(
        tree_offsets=tree_offsets,
        tree_id=tree_id,
        key=key,
        capacity=capacity,
        used=used,
        parent=parent.astype(_I64),
        parent_row=parent_row,
        level=level,
        assigned=assigned,
        root_key=root_key,
        root_capacity=root_capacity,
        root_used=root_used,
        unit_cost=unit_cost,
    )
