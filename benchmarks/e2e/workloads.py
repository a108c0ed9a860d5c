"""Workload definitions and the seeded op generator for bench_e2e.

A workload is a network size plus a per-block operation mix.  Every
workload issues all six public operation classes, so every end-to-end
metric is defined (and non-zero) on every workload; what differs is which
class — and therefore which layer — does nearly all the work.  The mixes
and the reasons for them are in README.md.

Ops are plain tuples the driver dispatches on:

``("move", key)`` · ``("move_many", keys)`` · ``("discover", src, target)``
· ``("route", src, target)`` · ``("leave", key)`` · ``("join", key,
capacity)`` · ``("tick", dt)``
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Sequence

import numpy as np

__all__ = ["Workload", "WORKLOADS", "GROUP_SIZE", "OpStream", "smoke"]

#: co-hosted keys moved by one ``move_many`` (the K-resource host movement)
GROUP_SIZE = 16


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: population, set-up and the per-block mix."""

    name: str
    index: int  # second word of the op generator's seed
    stationary: int
    mobile: int
    prewarm: bool  # batch-compute oracle rows during set-up
    tick: float  # virtual seconds advanced at the end of each block
    moves: int
    move_groups: int
    discovers: int
    routes: int
    churn_pairs: int  # leave + join of a fresh key, back to back
    #: blocks an untraced run measures; 0 = one per second of ``--seconds``
    #: (a steady-state block is sized to about a second at the seed commit)
    blocks: int = 0


# ``build`` measures what a fresh network pays, which does not repeat, so
# its length is fixed; the other three share one 9000-node network and
# differ only in the mix.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("build", 0, 20000, 10000, False, 1.0,
                 moves=1000, move_groups=100, discovers=1000, routes=200,
                 churn_pairs=40, blocks=5),
        Workload("mobility", 1, 6000, 3000, True, 19.0,
                 moves=2500, move_groups=150, discovers=200, routes=300,
                 churn_pairs=20),
        Workload("lookup", 2, 6000, 3000, True, 1.0,
                 moves=200, move_groups=30, discovers=3000, routes=3000,
                 churn_pairs=20),
        Workload("churn", 3, 6000, 3000, True, 19.0,
                 moves=300, move_groups=40, discovers=300, routes=100,
                 churn_pairs=300),
    )
}


def smoke(w: Workload) -> Workload:
    """The self-test size: 300 + 150 nodes, 2 blocks of a twentieth of the mix."""
    def cut(n: int) -> int:
        return max(2, n // 20)

    return dataclasses.replace(
        w, stationary=300, mobile=150, moves=cut(w.moves),
        move_groups=cut(w.move_groups), discovers=cut(w.discovers),
        routes=cut(w.routes), churn_pairs=cut(w.churn_pairs), blocks=2,
    )


class OpStream:
    """Deterministic op generator: same ``(seed, workload)`` → same ops.

    Tracks mobile membership itself (it never looks at the network), so
    sources are always current members and targets always live mobile
    keys.  Within a block the op classes are shuffled together — mixed
    traffic, not phases — and the block ends with its ``tick``.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        stationary_keys: Sequence[int],
        mobile_keys: Sequence[int],
    ) -> None:
        self.workload = workload
        self._rng = np.random.default_rng([seed, workload.index])
        self._uniform = self._uniforms()
        self._stationary: List[int] = [int(k) for k in stationary_keys]
        self._live: List[int] = [int(k) for k in mobile_keys]
        self._used = set(self._stationary) | set(self._live)
        self._routes = 0
        w = workload
        self._kinds = np.repeat(
            np.arange(5),
            [w.moves, w.move_groups, w.discovers, w.routes, w.churn_pairs],
        )

    def _uniforms(self) -> Iterator[float]:
        while True:
            yield from self._rng.random(4096).tolist()

    def _member(self) -> int:
        """A uniformly drawn current member (stationary or live mobile)."""
        i = int(next(self._uniform) * (len(self._stationary) + len(self._live)))
        ns = len(self._stationary)
        return self._stationary[i] if i < ns else self._live[i - ns]

    def _mobile(self) -> int:
        return self._live[int(next(self._uniform) * len(self._live))]

    def _fresh_key(self) -> int:
        while True:
            key = int(next(self._uniform) * 2**32)
            if key not in self._used:
                self._used.add(key)
                return key

    def block(self) -> List[tuple]:
        """The next block of ops."""
        ops: List[tuple] = []
        live = self._live
        for kind in self._rng.permutation(self._kinds).tolist():
            if kind == 0:
                ops.append(("move", self._mobile()))
            elif kind == 1:
                picks = self._rng.choice(len(live), GROUP_SIZE, replace=False)
                ops.append(("move_many", tuple(live[i] for i in picks.tolist())))
            elif kind == 2:
                ops.append(("discover", self._member(), self._mobile()))
            elif kind == 3:
                # Odd routes target a live mobile node, even ones a fresh
                # uniformly drawn data key (an owner-memo miss).
                self._routes += 1
                target = (
                    self._mobile() if self._routes % 2
                    else int(next(self._uniform) * 2**32)
                )
                ops.append(("route", self._member(), target))
            else:
                i = int(next(self._uniform) * len(live))
                leaver = live[i]
                live[i] = live[-1]
                live.pop()
                ops.append(("leave", leaver))
                joiner = self._fresh_key()
                live.append(joiner)
                ops.append(("join", joiner, float(1 + int(next(self._uniform) * 15))))
        ops.append(("tick", self.workload.tick))
        return ops
