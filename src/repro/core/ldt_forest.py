"""A batch of Fig-4 trees — one :func:`~repro.core.ldt.build_ldt` per spec.

:class:`ForestSpec` carries one advertisement's Fig-4 arguments and
:func:`build_ldt_forest` builds one tree per spec with the scalar kernel,
so ``forest.tree(i)`` is exactly ``build_ldt`` on spec ``i``.  There is
one Fig-4 kernel; this module only names a batch of its results.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional, Sequence

from .ldt import LDTree, Member, build_ldt

__all__ = ["ForestSpec", "LDTForest", "build_ldt_forest"]


@dataclasses.dataclass(frozen=True)
class ForestSpec:
    """One tree's worth of input: the Fig-4 arguments of ``build_ldt``."""

    root: Member
    registry: Sequence[Member]
    unit_cost: float = 1.0
    tie_break: Optional[Callable[[Member], float]] = None


class LDTForest:
    """The trees of one batch, in spec order; a plain class, since
    bench_e2e's spans rebind ``tree`` on the instance."""

    def __init__(self, trees: List[LDTree]) -> None:
        self._trees = trees

    @property
    def num_trees(self) -> int:
        return len(self._trees)

    @property
    def num_members(self) -> int:
        """Registry members over every tree (roots excluded)."""
        return sum(t.num_members for t in self._trees)

    def tree(self, index: int) -> LDTree:
        """Tree ``index`` — ``build_ldt`` on spec ``index``."""
        return self._trees[index]

    def trees(self) -> Iterator[LDTree]:
        """Every tree in batch order."""
        return iter(self._trees)


def build_ldt_forest(specs: Sequence[ForestSpec]) -> LDTForest:
    """Build the Fig-4 tree of every spec with ``build_ldt``."""
    return LDTForest([
        build_ldt(s.root, s.registry, s.unit_cost, tie_break=s.tie_break)
        for s in specs
    ])
