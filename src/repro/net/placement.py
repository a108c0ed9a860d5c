"""Host placement: attaching overlay nodes to underlay routers.

"Each Bristle node is randomly placed to the network" (§4).  The
:class:`Placement` tracks which router each host currently sits on, mints
:class:`~repro.net.address.NetworkAddress` values, and performs moves
(random re-attachment, the mobility primitive of §2).
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence

from ..sim.rng import RngStreams
from .address import NetworkAddress
from .shortest_path import PathOracle
from .transit_stub import TransitStubTopology

__all__ = ["Placement"]


class Placement:
    """Assigns hosts to attachment points and tracks their movement.

    Parameters
    ----------
    topology:
        The underlay; hosts attach to its stub routers.
    rng:
        Random streams (stream name ``"placement"`` for initial placement,
        ``"mobility"`` for moves).
    """

    def __init__(self, topology: TransitStubTopology, rng: RngStreams) -> None:
        self.topology = topology
        self._rng = rng
        self._points: List[int] = topology.attachment_points()
        if not self._points:
            raise ValueError("topology offers no attachment points")
        self._current: Dict[int, NetworkAddress] = {}
        self._next_port = 1
        self.move_count = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, host_id: int, router: Optional[int] = None) -> NetworkAddress:
        """Attach ``host_id`` to ``router`` (random stub router if omitted).

        Re-attaching an already-attached host raises; use :meth:`move`.
        """
        return self.attach_many([host_id], None if router is None else [router])[0]

    def attach_many(
        self, host_ids: Sequence[int], routers: Optional[Sequence[int]] = None
    ) -> List[NetworkAddress]:
        """Attach ``host_ids[i]`` to ``routers[i]``, on consecutive ports.

        Without ``routers`` every host gets a random stub router, all drawn
        in one call on stream ``"placement"`` — the draws one :meth:`attach`
        per host makes.  A host that is attached already, or listed twice,
        raises before anything is attached; use :meth:`move`.  So does a
        router that is not one of the topology's.
        """
        hosts = list(host_ids)
        if len(set(hosts)) < len(hosts) or not self._current.keys().isdisjoint(hosts):
            raise ValueError(f"hosts {hosts} repeat or include an attached one; use move()")
        if routers is None:
            gen, count, k = self._rng.stream("placement"), len(self._points), len(hosts)
            # One host draws a scalar: the value ``size=1`` draws, minus the array.
            draws = [gen.integers(0, count)] if k == 1 else gen.integers(0, count, size=k).tolist()
            routers = [self._points[i] for i in draws]
        elif len(routers) != len(hosts):
            raise ValueError("need one router per host")
        else:
            routers = [self._checked(r) for r in routers]
        port = self._next_port
        addrs = [NetworkAddress(router=r, port=port + i, epoch=0) for i, r in enumerate(routers)]
        self._next_port += len(hosts)
        self._current.update(zip(hosts, addrs))
        return addrs

    def move(self, host_id: int, router: Optional[int] = None) -> NetworkAddress:
        """Move ``host_id`` to a new attachment point, bumping its epoch.

        When ``router`` is omitted a random stub router *different from the
        current one* is chosen (when more than one exists), modelling a real
        change of attachment point.  A ``router`` that is not one of the
        topology's raises before anything changes.
        """
        addr = self._current.get(host_id)
        if addr is None:
            raise KeyError(f"host {host_id} is not attached")
        new_addr = addr.moved(self._destination(router, addr.router))
        self._current[host_id] = new_addr
        self.move_count += 1
        return new_addr

    def move_group(
        self, host_ids: List[int], router: Optional[int] = None
    ) -> Dict[int, NetworkAddress]:
        """Move co-hosted hosts to one shared new attachment point.

        A mobile host carrying several resource keys changes attachment
        point *once*; every key it owns lands on the same router.  One
        router draw (stream ``"mobility"``) serves the whole group — when
        ``router`` is omitted a random stub router different from the
        first host's current one is chosen, mirroring :meth:`move`.
        Returns host id → new address; every epoch is bumped.
        """
        if not host_ids:
            raise ValueError("move_group needs at least one host")
        missing = [h for h in host_ids if h not in self._current]
        if missing:
            raise KeyError(f"hosts not attached: {missing}")
        router = self._destination(router, self._current[host_ids[0]].router)
        out: Dict[int, NetworkAddress] = {}
        for host_id in host_ids:
            new_addr = self._current[host_id].moved(router)
            self._current[host_id] = new_addr
            out[host_id] = new_addr
            self.move_count += 1
        return out

    def _destination(self, router: Optional[int], current: int) -> int:
        """Where a move goes: ``router`` if given (checked), else a random
        stub router other than ``current`` when more than one exists."""
        if router is not None:
            return self._checked(router)
        if len(self._points) == 1:
            return self._points[0]
        while True:
            router = self._points[self._rng.randint("mobility", 0, len(self._points))]
            if router != current:
                return router

    def _checked(self, router: object) -> int:
        """``router`` as an ``int``, or ``ValueError`` unless it is an
        integer naming one of the topology's routers."""
        try:
            r = operator.index(router)
        except TypeError:
            raise ValueError(f"router must be an integer, got {router!r}") from None
        if not 0 <= r < self.topology.num_routers:
            raise ValueError(f"router {r} is outside [0, {self.topology.num_routers})")
        return r

    def detach(self, host_id: int) -> None:
        """Remove ``host_id`` from the placement (host left the system)."""
        if host_id not in self._current:
            raise KeyError(f"host {host_id} is not attached")
        del self._current[host_id]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def address_of(self, host_id: int) -> NetworkAddress:
        """Current address of ``host_id`` (KeyError when unattached)."""
        return self._current[host_id]

    def is_attached(self, host_id: int) -> bool:
        """True when ``host_id`` currently has an attachment point."""
        return host_id in self._current

    def is_current(self, host_id: int, addr: NetworkAddress) -> bool:
        """True when ``addr`` matches the host's *current* address exactly.

        This is the staleness oracle: a cached address whose epoch lags the
        host's current epoch is invalid (the paper's "p.addr is invalid").
        """
        cur = self._current.get(host_id)
        return cur is not None and cur == addr

    def router_of(self, host_id: int) -> int:
        """Current attachment router of ``host_id``."""
        return self._current[host_id].router

    def hosts(self) -> List[int]:
        """All attached host ids."""
        return list(self._current)

    def network_distance(self, oracle: PathOracle, a: int, b: int) -> float:
        """Shortest-path weight between hosts ``a`` and ``b`` right now."""
        return oracle.distance(self.router_of(a), self.router_of(b))
