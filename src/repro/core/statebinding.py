"""Early and late state binding over TTL leases (§2.3.2).

Every state a mobile-layer node caches is leased.  Under **early
binding** both sides refresh proactively: the mobile node periodically
publishes its state to its registry nodes, and each registry node
periodically re-registers.  Under **late binding** a registry node that
missed the periodic advertisement (because it was itself moving) resolves
the address reactively with a discovery message.

:class:`BindingPolicy` drives both behaviours against a simulation engine
and records how many refreshes/discoveries each policy costs — the
trade-off the Table-1 "performance vs reliability" row captures.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Set

from ..sim.engine import Engine
from .bristle import BristleNetwork, cohosted_group
from .ldt import LDTree
from .location import shared_multicast_hops

__all__ = ["BindingPolicy", "EarlyBinding", "LateBinding", "BindingStats"]


@dataclasses.dataclass
class BindingStats:
    """Message accounting for a binding policy run."""

    advertisements: int = 0
    registrations: int = 0
    discoveries: int = 0
    publishes: int = 0

    @property
    def total_messages(self) -> int:
        return (
            self.advertisements
            + self.registrations
            + self.discoveries
            + self.publishes
        )


class BindingPolicy:
    """Base: owns the stats and the refresh plumbing."""

    def __init__(self, net: BristleNetwork, engine: Engine) -> None:
        self.net = net
        self.engine = engine
        self.stats = BindingStats()
        self._cancels: List[Callable[[], None]] = []

    def start(self) -> None:
        """Install the policy's periodic behaviour on the engine."""
        raise NotImplementedError

    def stop(self) -> None:
        """Cancel the policy's periodic work."""
        for cancel in self._cancels:
            cancel()
        self._cancels.clear()

    def lookup(self, registrant: int, mobile_key: int) -> bool:
        """A registry node needs the mobile node's address *now*.

        Returns True when the locally-cached state suffices, False when
        the policy had to (or could not) take remedial action.
        """
        raise NotImplementedError


class EarlyBinding(BindingPolicy):
    """Proactive refresh on both sides.

    "Each mobile periodically publishes its state to the registry nodes
    and each registry node also periodically registers itself to the
    mobile node it interested in." (§2.3.2)

    ``host_groups`` optionally declares sets of co-hosted mobile keys (the
    resources one physical host carries).  A group refreshes with one
    :meth:`LocationDirectory.publish_many` (one message per distinct
    holder), one wave down its kept union tree and one re-registration
    message per distinct registrant — O(K + log N) per period instead of
    O(K · log N).  An ungrouped key is a group of one: the same wave and
    renewals after a plain ``publish``, its tree kept the same way.

    ``shared_multicast`` switches the *accounting* of each grouped refresh
    from one message per distinct holder to the hops of one shared ring
    multicast (:func:`repro.core.location.shared_multicast_hops`): the
    batch enters the stationary layer once and travels holder-to-holder.
    Directory state is identical either way — only the message model
    changes.
    """

    def __init__(
        self,
        net: BristleNetwork,
        engine: Engine,
        *,
        host_groups: Optional[Sequence[Sequence[int]]] = None,
        shared_multicast: bool = False,
    ) -> None:
        super().__init__(net, engine)
        self.shared_multicast = bool(shared_multicast)
        self.host_groups: List[List[int]] = [
            list(cohosted_group(g)) for g in host_groups or ()
        ]
        grouped: Set[int] = set()
        for g in self.host_groups:
            dup = grouped.intersection(g)
            if dup:
                raise ValueError(f"keys in more than one host group: {sorted(dup)}")
            grouped.update(g)
        self._grouped = grouped

    def start(self) -> None:
        """Install the periodic two-sided refresh."""
        period = self.net.config.refresh_period
        self._cancels.append(
            self.engine.schedule_every(period, self._refresh_all, label="early-binding")
        )

    def _refresh_all(self) -> None:
        net = self.net
        net.now = self.engine.now
        for group in self.host_groups:
            # Departed members (leave_mobile_node) drop out of the group.
            live = [k for k in group if k in net.nodes]
            if live:
                self._refresh_group(live)
        for mk in net.mobile_keys:
            if mk not in self._grouped:
                self._refresh_one(mk)

    def _refresh_one(self, mk: int) -> None:
        net = self.net
        node = net.nodes[mk]
        # §2.3.1 note (2): besides the LDT advertisement, the node
        # "also publishes its state to the location management layer"
        # so reactive discovery never sees an expired record.
        holders = net.directory.publish(
            mk, node.address, now=self.engine.now, ttl=net.config.state_ttl
        )
        self.stats.publishes += len(holders)
        if node.registry:
            self._advertise((mk,), net.ldt_for(mk))

    def _refresh_group(self, live: List[int]) -> None:
        net = self.net
        result = net.directory.publish_many(
            {k: net.nodes[k].address for k in live},
            now=self.engine.now,
            ttl=net.config.state_ttl,
        )
        if self.shared_multicast:
            # One shared ring multicast: entry traversal + holder legs.
            self.stats.publishes += shared_multicast_hops(
                net.stationary_layer,
                result.holder_batches,
                entry=net.stationary_layer.owner_of(live[0]),
            )
        else:
            # Batched publish: one message per distinct stationary holder.
            self.stats.publishes += result.message_count
        if any(net.nodes[k].registry for k in live):
            # One coalesced wave over the union of the group's registries.
            self._advertise(live, net.ldt_for_group(live)[1])

    def _advertise(self, live: Sequence[int], tree: LDTree) -> None:
        """One wave down the (kept) ``tree`` of the co-hosted keys ``live``
        — a single key is a group of one — renews every registrant's cached
        state-pairs, and each registrant re-registers."""
        net = self.net
        now, ttl = self.engine.now, net.config.state_ttl
        self.stats.advertisements += tree.message_count
        refreshers: Set[int] = set()
        for mk in live:
            node = net.nodes[mk]
            for entry in node.registry_entries():
                registrant = net.nodes.get(entry.key)
                if registrant is not None:
                    registrant.state.renew(mk, node.address, now, ttl)
                    refreshers.add(entry.key)
        # One message per registrant and period renews all of its
        # co-hosted subscriptions; co-hosted registrants renew locally.
        self.stats.registrations += len(refreshers.difference(live))

    def lookup(self, registrant: int, mobile_key: int) -> bool:
        """True when the proactively-refreshed cache is usable."""
        st = self.net.nodes[registrant].state.get(mobile_key)
        return st is not None and st.is_resolved(self.engine.now)


class LateBinding(BindingPolicy):
    """Reactive resolution: no periodic advertisement; a registry node
    that finds its cached state expired issues a discovery (§2.3.2:
    "The registry node can thus issue a discovery message to the location
    management layer to resolve the network address of the mobile
    node.")."""

    def start(self) -> None:
        """Late binding installs no periodic work."""

    def lookup(self, registrant: int, mobile_key: int) -> bool:
        """Serve from cache, else resolve reactively via discovery."""
        net = self.net
        node = net.nodes[registrant]
        st = node.state.get(mobile_key)
        if st is not None and st.is_resolved(self.engine.now):
            return True
        disc = net.discover(registrant, mobile_key)
        self.stats.discoveries += 1
        if disc.found:
            node.state.renew(
                mobile_key, disc.address, self.engine.now, net.config.state_ttl
            )
        return False
