"""The Bristle network facade — the paper's two-layer architecture (§2.1).

:class:`BristleNetwork` wires every substrate together:

* an underlay (transit-stub topology + placement + shortest-path oracle);
* the **stationary layer** — an HS-P2P over the stationary nodes, acting
  as the location-information repository;
* the **mobile layer** — an HS-P2P over *all* nodes, whose cached
  addresses for mobile peers may go stale;
* naming (clustered or scrambled key assignment, §3);
* the location directory, registrations and LDTs of §2.3.

The facade exposes the paper's operations: :meth:`move` (a mobile node
changes attachment point, publishes its new address and advertises down
its LDT), :meth:`discover` (reactive state discovery through the
stationary layer) and — via :mod:`repro.core.routing` — Figure-2 routing
with address resolution.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from bisect import bisect_left, insort
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import sanitize as _sanitize
from ..net.address import NetworkAddress
from ..net.placement import Placement
from ..net.shortest_path import PathOracle
from ..net.transit_stub import (
    TransitStubTopology,
    generate_transit_stub,
    params_for_router_count,
)
from ..net.underlay import UnderlayBundle
from ..overlay.base import Overlay
from ..overlay.factory import make_overlay
from ..overlay.keyspace import KeySpace
from ..sim.engine import Engine
from ..sim.rng import RngStreams
from ..sim.telemetry import Telemetry, active_telemetry
from .config import BristleConfig
from .ldt import LDTree, Member, build_ldt, check_finite
from .ldt_forest import ForestSpec, build_ldt_forest
from .location import (
    BatchPublishResult,
    LocationDirectory,
    RegistrationManager,
    shared_multicast_hops,
)
from .naming import make_naming
from .node import BristleNode

__all__ = ["BristleNetwork", "MoveReport", "BatchMoveReport", "cohosted_group"]

#: One read of a wave's Fig-4 inputs (:meth:`BristleNetwork._gather`):
#: registrant keys, then capacities and workloads of group + registrants.
_Gather = Tuple[List[int], List[float], List[float]]


@dataclasses.dataclass
class MoveReport:
    """Accounting for one mobile-node move.

    Attributes
    ----------
    key:
        The node that moved.
    new_address:
        Its address after the move.
    publish_holders:
        Stationary nodes that received the location update.
    publish_hops:
        Overlay hops taken to publish into the stationary layer.
    ldt:
        The advertisement tree used to notify registered nodes (``None``
        when the node has no registrants or advertisement was disabled).
    """

    key: int
    new_address: NetworkAddress
    publish_holders: List[int]
    publish_hops: int
    ldt: Optional[LDTree]

    @property
    def ldt_messages(self) -> int:
        return self.ldt.message_count if self.ldt is not None else 0

    @property
    def ldt_depth(self) -> int:
        return self.ldt.depth if self.ldt is not None else 0

    @property
    def total_messages(self) -> int:
        """Publish messages (one per holder) plus LDT advertisements."""
        return len(self.publish_holders) + self.ldt_messages


@dataclasses.dataclass
class BatchMoveReport:
    """Accounting for one batched multi-resource movement (§2.3.1 update,
    amortised across a mobile host's co-hosted keys).

    Attributes
    ----------
    keys:
        The co-hosted mobile keys that moved together.
    new_addresses:
        key → address after the move (same router, per-key ports/epochs).
    publish:
        The batched directory update (``None`` when publishing was
        disabled); one message per *distinct* stationary holder.
    publish_hops:
        Overlay hops for the single batched publish into the stationary
        layer (the per-key baseline pays this once per key).
    multicast_hops:
        Overlay hops of the shared ring multicast that delivers the batch
        to its distinct holders — one traversal into the layer plus
        holder-to-holder legs (``shared_multicast_hops``), versus one full
        traversal per distinct holder on the per-holder path.
    ldt_root:
        The representative key that ran the coalesced advertisement.
    ldt:
        The single union dissemination tree (``None`` when no key has
        registrants or advertisement was disabled).
    """

    keys: List[int]
    new_addresses: Dict[int, NetworkAddress]
    publish: Optional[BatchPublishResult]
    publish_hops: int
    ldt_root: Optional[int]
    ldt: Optional[LDTree]
    multicast_hops: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.keys)

    @property
    def publish_messages(self) -> int:
        """Directory update messages (one per distinct holder)."""
        return self.publish.message_count if self.publish is not None else 0

    @property
    def ldt_messages(self) -> int:
        return self.ldt.message_count if self.ldt is not None else 0

    @property
    def ldt_depth(self) -> int:
        return self.ldt.depth if self.ldt is not None else 0

    @property
    def total_messages(self) -> int:
        """Batched publish messages plus the single LDT wave —
        O(K + log N) where the per-key baseline pays O(K · log N)."""
        return self.publish_messages + self.ldt_messages


def cohosted_group(keys: Iterable[int]) -> Tuple[int, ...]:
    """``keys`` as a co-hosted group: distinct, sorted, at least one."""
    group = tuple(sorted({_integral_key(k) for k in keys}))
    if not group:
        raise ValueError("a co-hosted group needs at least one key")
    return group


def _integral_key(key: int) -> int:
    """``key`` as a plain ``int``; ``ValueError`` unless it is integral."""
    try:
        return operator.index(key)
    except TypeError:
        raise ValueError(f"key must be an integer, got {key!r}") from None


class BristleNetwork:
    """A fully-built Bristle deployment.

    Parameters
    ----------
    config:
        All protocol tunables.
    num_stationary / num_mobile:
        Population sizes (N = sum; M = num_mobile).
    topology:
        An existing underlay, or ``None`` to generate one.
    underlay:
        A prebuilt :class:`~repro.net.underlay.UnderlayBundle` whose
        topology *and* path oracle this network shares (sweep drivers use
        this so many points reuse one Dijkstra cache).  Mutually exclusive
        with ``topology``/``router_count``; placement stays per-network.
    router_count:
        When generating, approximate underlay size (default scales with
        the population).
    capacities:
        Optional explicit capacity per node key; default draws uniform
        integer capacities in ``[1, max_capacity]``.
    max_capacity:
        Upper bound for the default capacity draw (Fig 8's ``MAX``).
    """

    def __init__(
        self,
        config: BristleConfig,
        num_stationary: int,
        num_mobile: int,
        *,
        topology: Optional[TransitStubTopology] = None,
        underlay: Optional[UnderlayBundle] = None,
        router_count: Optional[int] = None,
        capacities: Optional[Dict[int, float]] = None,
        max_capacity: int = 15,
        naming_scheme=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if num_stationary < 2:
            raise ValueError("need at least two stationary nodes")
        if num_mobile < 0:
            raise ValueError("num_mobile must be non-negative")
        self.config = config
        self.rng = RngStreams(config.seed)
        # Telemetry: an explicit bundle, else the ambient session (opened
        # by the CLI's --trace/--metrics/--profile flags), else a private
        # tracing-disabled bundle so call sites never need a None check.
        tel = telemetry if telemetry is not None else active_telemetry()
        self.telemetry = tel if tel is not None else Telemetry()
        self.space = KeySpace(bits=config.key_bits, digit_bits=config.digit_bits)
        self.num_stationary = num_stationary
        self.num_mobile = num_mobile
        # The one clock: leases age against it and every event-world
        # component (mobility, binding, protocol, failure detection)
        # schedules on it.  ``now`` reads it; ``advance_to`` and
        # ``advance_time`` move it, dispatching what falls due on the way.
        self.engine = Engine()

        # --- naming -------------------------------------------------------
        # ``naming_scheme`` overrides the config-selected scheme (used by
        # the band-placement ablation, which positions [L, U] explicitly).
        self.naming = (
            naming_scheme
            if naming_scheme is not None
            else make_naming(config.naming, self.space, num_stationary, num_mobile)
        )
        assignment = self.naming.assign(num_stationary, num_mobile, self.rng)
        self.stationary_keys: List[int] = sorted(assignment.stationary_keys)
        self.mobile_keys: List[int] = sorted(assignment.mobile_keys)

        # --- underlay -----------------------------------------------------
        if underlay is not None:
            if topology is not None or router_count is not None:
                raise ValueError(
                    "underlay= is mutually exclusive with topology=/router_count="
                )
            topology = underlay.topology
            self.oracle = underlay.oracle  # shared, stays warm across points
        else:
            if topology is None:
                total = num_stationary + num_mobile
                routers = (
                    router_count if router_count is not None else max(100, total // 4)
                )
                topology = generate_transit_stub(
                    params_for_router_count(routers), self.rng
                )
            self.oracle = PathOracle(topology.graph, domain_of=topology.router_domain)
        self.topology = topology
        self.underlay = underlay
        self.placement = Placement(topology, self.rng)

        # --- nodes ----------------------------------------------------------
        # One capacity draw for every key ``capacities`` leaves out and one
        # placement draw for every key, stationary keys first.
        self._mobile_set = set(self.mobile_keys)
        keys = self.stationary_keys + self.mobile_keys
        given = capacities if capacities is not None else {}
        missing = sum(k not in given for k in keys)
        drawn = iter(self.rng.stream("capacities").integers(1, max_capacity + 1, missing).tolist())
        self.nodes: Dict[int, BristleNode] = {}
        for key, addr in zip(keys, self.placement.attach_many(keys)):
            cap = float(given[key] if key in given else next(drawn))
            node = BristleNode(key, key in self._mobile_set, cap, self.space)
            node.address = addr
            self.nodes[key] = node

        # --- overlays -------------------------------------------------------
        proximity = self.network_distance_between_keys
        capacity_fn = lambda k: self.nodes[k].capacity  # noqa: E731
        tracer = self.telemetry.tracer
        self.stationary_layer: Overlay = make_overlay(
            config.stationary_layer_overlay,
            self.space,
            proximity=None,  # stationary-layer tables are key-determined
            capacity=capacity_fn,
        )
        with tracer.span("overlay.build", layer="stationary", members=num_stationary):
            self.stationary_layer.build(self.stationary_keys)
        self.mobile_layer: Overlay = make_overlay(
            config.mobile_layer_overlay,
            self.space,
            proximity=None,
            capacity=capacity_fn,
        )
        with tracer.span(
            "overlay.build", layer="mobile", members=num_stationary + num_mobile
        ):
            self.mobile_layer.build(self.stationary_keys + self.mobile_keys)
        # Churn repairs report overlay.repairs / overlay.repaired_nodes here.
        self.stationary_layer.bind_metrics(self.telemetry.metrics)
        self.mobile_layer.bind_metrics(self.telemetry.metrics)
        if _sanitize.ACTIVE:
            _sanitize.check_overlay_consistency(self.stationary_layer)
            _sanitize.check_overlay_consistency(self.mobile_layer)
        self._proximity = proximity

        # --- location management ---------------------------------------------
        self.directory = LocationDirectory(
            self.space,
            self.stationary_layer,
            replication=config.replication,
            ledger=self.telemetry.nodeload,
        )
        self.registrations = RegistrationManager(
            self.nodes, metrics=self.telemetry.metrics
        )
        # Pre-register the stationary population at zero load so the
        # ledger's imbalance statistics (Gini, max/mean) range over every
        # candidate holder, not just the nodes traffic happened to hit.
        self.telemetry.nodeload.register_nodes(self.stationary_keys)
        #: discovery relays served per stationary holder — the Table-1
        #: "infrastructure load" counter (comparable to Type B's per-agent
        #: packet counts).
        self.resolution_load: Dict[int, int] = {}
        # Dissemination trees kept across waves (see :meth:`_current_ldt`):
        # sorted co-hosted key group — a single key is the group ``(k,)`` —
        # to the gather the tree was built from plus the tree; a gather
        # that differs triggers a rebuild.  Moves never invalidate:
        # trees depend on registries, capacities and workloads, not addresses.
        self._ldt_cache: Dict[Tuple[int, ...], Tuple[_Gather, LDTree]] = {}
        #: member key → cached groups containing it, so a leave evicts its
        #: groups without scanning the whole cache.
        self._groups_of: Dict[int, List[Tuple[int, ...]]] = {}
        # Every node (mobile ones included) starts published so discovery
        # succeeds from time zero.
        for key in self.mobile_keys:
            self.directory.publish(
                key, self.nodes[key].address, now=0.0, ttl=config.state_ttl
            )
        # Provenance note for the run manifest (seed, sizes, config).
        note = {
            "seed": config.seed,
            "num_stationary": num_stationary,
            "num_mobile": num_mobile,
            "naming": config.naming,
            "config": dataclasses.asdict(config),
        }
        if underlay is not None:
            note["underlay"] = {
                "seed": underlay.seed,
                "router_count": underlay.router_count,
            }
        self.telemetry.note_network(note)

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.num_stationary + self.num_mobile

    def is_mobile(self, key: int) -> bool:
        """True when ``key`` belongs to a mobile-layer-only node."""
        return key in self._mobile_set

    def node(self, key: int) -> BristleNode:
        """The node object for ``key`` (KeyError when absent)."""
        return self.nodes[key]

    def network_distance_between_keys(self, a: int, b: int) -> float:
        """Current underlay shortest-path weight between two nodes."""
        if a == b:
            return 0.0
        return self.oracle.distance(
            self.placement.router_of(a), self.placement.router_of(b)
        )

    def route_costs_between_keys(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Underlay shortest-path weight for every ``(a, b)`` key pair.

        Vectorised counterpart of :meth:`network_distance_between_keys`:
        the pairs are mapped to attachment routers and charged through
        :meth:`PathOracle.route_costs` in one batched gather.
        """
        router = self.placement.router_of
        return self.oracle.route_costs(
            [(router(a), router(b)) for a, b in pairs]
        )

    @property
    def ldt_cost_oracle(self) -> "_KeyCostOracle":
        """Batched edge-cost oracle for :meth:`LDTree.edge_costs`.

        Duck-types both ``distance`` forms the tree accepts: calling it
        prices one key pair, while its ``route_costs`` prices a whole
        edge list through :meth:`route_costs_between_keys` in one
        batched oracle gather.
        """
        return _KeyCostOracle(self)

    def prewarm_oracle(self, keys: Optional[Sequence[int]] = None) -> int:
        """Batch-compute oracle rows for the attachment routers of ``keys``
        (default: every node) in one :meth:`PathOracle.prewarm` pass, not
        one cold row per source.  A sweep whose hop endpoints are all
        members then only ever reads the cache; returns the rows computed.
        """
        targets = keys if keys is not None else list(self.nodes)
        return self.oracle.prewarm(
            sorted({self.placement.router_of(k) for k in targets})
        )

    def registry_size_for(self, key: int) -> int:
        """Configured LDT registry size (⌈log₂ N⌉ by default)."""
        return self.config.effective_registry_size(self.num_nodes)

    # ------------------------------------------------------------------
    # Registration setup
    # ------------------------------------------------------------------
    def setup_registrations_from_overlay(self) -> int:
        """Populate every mobile node's ``R(i)`` from mobile-layer state
        replication (the §2.3.1 default interest relation)."""
        return self.registrations.register_from_overlay(self.mobile_layer)

    def _all_keys_index(self, key: int) -> int:
        """Index of member ``key`` in ``stationary_keys + mobile_keys``
        (both sorted), the candidate order the registration setups share."""
        if self.nodes[key].mobile:
            return len(self.stationary_keys) + bisect_left(self.mobile_keys, key)
        return bisect_left(self.stationary_keys, key)

    def setup_random_registrations(
        self,
        registry_size: Optional[int] = None,
        *,
        only_keys: Optional[Sequence[int]] = None,
    ) -> None:
        """Give every mobile node ``registry_size`` random registrants —
        the Figure-8 experimental setup (⌈log₂ N⌉ interested nodes).

        ``only_keys`` restricts the setup to those mobile nodes (used by
        experiments that sample a subset of trees).
        """
        size = registry_size if registry_size is not None else self.registry_size_for(0)
        all_keys = self.stationary_keys + self.mobile_keys
        targets = list(only_keys) if only_keys is not None else self.mobile_keys
        # Sampling ``size`` of the other N-1 members: draw indices into
        # ``all_keys`` with the target's own slot skipped, instead of
        # materialising the N-1 element pool per target.
        others = len(all_keys) - 1
        draws = min(size, others)
        gen = self.rng.stream("registrations")
        register_many = self.registrations.register_many
        for mk in targets:
            picks = gen.choice(others, size=draws, replace=False)
            picks += picks >= self._all_keys_index(mk)
            register_many([all_keys[i] for i in picks.tolist()], mk, now=self.now)

    def setup_local_registrations(
        self,
        registry_size: Optional[int] = None,
        *,
        only_keys: Optional[Sequence[int]] = None,
    ) -> None:
        """Locality-aware registration (§4.3): each mobile node's
        registrants are the *network-closest* candidates, modelling the
        steady state after nodes "periodically re-perform joining
        operations to refresh ... registrations to those nodes it is
        likely interested in"."""
        size = registry_size if registry_size is not None else self.registry_size_for(0)
        all_keys = self.stationary_keys + self.mobile_keys
        routers = np.asarray([self.placement.router_of(k) for k in all_keys])
        targets = list(only_keys) if only_keys is not None else self.mobile_keys
        register_many = self.registrations.register_many
        for mk in targets:
            own = self._all_keys_index(mk)
            dists = self.oracle.distances_from(self.placement.router_of(mk))[routers]
            order = np.argsort(dists, kind="stable")
            # ``size < 1`` still registers the closest candidate, as it always has.
            closest = order[order != own][: max(size, 1)].tolist()
            register_many([all_keys[i] for i in closest], mk, now=self.now)

    # ------------------------------------------------------------------
    # Mobility (update operation, §2.3.1)
    # ------------------------------------------------------------------
    def move(
        self,
        key: int,
        router: Optional[int] = None,
        *,
        advertise: bool = True,
        publish: bool = True,
    ) -> MoveReport:
        """Move mobile node ``key`` to a new attachment point.

        The node updates the stationary layer ("publish") and multicasts
        the new address down its LDT ("advertise"), per §2.1/§2.3.1.
        """
        key = _integral_key(key)
        node = self.nodes[key]
        if not node.mobile:
            raise ValueError(f"node {key} is stationary; only mobile nodes move")
        # The wave's inputs are read, and checked, before anything is written.
        gathered = self._gather((key,)) if advertise and node.registry else None
        tel = self.telemetry
        sid = (
            tel.tracer.span_begin(self.now, "op.update", key=key)
            if tel.tracer.enabled
            else 0
        )
        new_addr = self.placement.move(key, router)
        node.address = new_addr
        node.moves += 1

        publish_holders: List[int] = []
        publish_hops = 0
        if publish:
            publish_holders = self.directory.publish(
                key, new_addr, now=self.now, ttl=self.config.state_ttl
            )
            # Publishing sends one message to the mover's stationary entry
            # point — which, being the stationary node closest to the
            # mover's key, is itself the record owner — plus the replica
            # fan-out counted in ``total_messages``.
            publish_hops = 1

        ldt: Optional[LDTree] = None
        if gathered is not None:
            # The address never enters Fig 4: the wave reuses the node's
            # tree while its inputs stand, and is counted all the same.
            ldt = self._current_ldt((key,), gathered)[0]
            self._ldt_metrics(ldt)
        report = MoveReport(
            key=key,
            new_address=new_addr,
            publish_holders=publish_holders,
            publish_hops=publish_hops,
            ldt=ldt,
        )
        m = tel.metrics
        m.counter("op.update.count").inc()
        m.counter("op.update.publish_messages").inc(len(publish_holders))
        m.histogram("op.update.total_messages").observe(report.total_messages)
        if ldt is not None:
            m.histogram("op.update.ldt_messages").observe(report.ldt_messages)
            m.histogram("op.update.ldt_depth").observe(report.ldt_depth)
        if sid:
            # Detailed accounting (tracing only — it costs oracle reads):
            # underlay cost of pushing the update to every record holder.
            publish_cost = sum(
                self.network_distance_between_keys(key, h) for h in publish_holders
            )
            m.histogram("op.update.path_cost").observe(publish_cost)
            tel.tracer.span_end(
                self.now,
                sid,
                holders=len(publish_holders),
                ldt_messages=report.ldt_messages,
                total_messages=report.total_messages,
                publish_cost=publish_cost,
            )
        return report

    def build_ldt_for(
        self, key: int, *, locality_tie_break: bool = False
    ) -> LDTree:
        """Construct the advertisement tree for mobile node ``key`` from
        its current registry (Fig 4) and count it as one wave.

        Always a fresh derivation by the scalar kernel; :meth:`move` and
        :meth:`ldt_for` keep the tree while its inputs stand.
        """
        root, registry, unit_cost, tie = self._ldt_spec(
            (key,), locality_tie_break=locality_tie_break
        )
        tree = build_ldt(root, registry, unit_cost, tie_break=tie)
        self._ldt_metrics(tree)
        return tree

    def build_ldt_for_group(
        self,
        keys: Sequence[int],
        *,
        locality_tie_break: bool = False,
        gathered: Optional[_Gather] = None,
    ) -> Tuple[int, LDTree]:
        """One coalesced advertisement tree for co-hosted mobile keys,
        freshly derived and counted as one wave.

        The batched update multicasts the host's new address once: from
        the member with the most available capacity, over the union of the
        group's registries (see :meth:`_ldt_spec`, handed ``gathered``
        when the caller has read it already).  Returns ``(root_key, tree)``.
        """
        group = cohosted_group(keys)
        # A forest of one is build_ldt on the same inputs; the name is
        # what bench_e2e's core.ldt_forest.* spans measure on this path.
        spec = ForestSpec(
            *self._ldt_spec(group, gathered, locality_tie_break=locality_tie_break)
        )
        tree = build_ldt_forest([spec]).tree(0)
        self._ldt_metrics(tree)
        return tree.root_key, tree

    def _gather(self, group: Tuple[int, ...]) -> _Gather:
        """One read of everything ``group``'s Fig-4 tree is derived from:
        the group's registries concatenated in dict order, then capacity
        and workload of every member and registrant.  Not addresses or
        leases, so a move or a refresh leaves it equal; and the values,
        not a change counter that a direct attribute write would miss.
        A NaN or infinite value raises here, before the wave is sent.
        """
        nodes = self.nodes
        audience: List[int] = []
        for k in group:
            audience += nodes[k].registry
        members = [nodes[k] for k in chain(group, audience)]
        capacities = [n.capacity for n in members]
        used = [n.used for n in members]
        # Any NaN or infinity among the inputs makes the sum non-finite.
        if not math.isfinite(sum(capacities) + sum(used)):
            for k, c, u in zip(chain(group, audience), capacities, used):
                check_finite(k, c, u)
        return audience, capacities, used

    def _ldt_spec(
        self,
        group: Tuple[int, ...],
        gathered: Optional[_Gather] = None,
        *,
        locality_tie_break: bool = False,
    ) -> Tuple[Member, List[Member], float, Optional[Callable[[Member], float]]]:
        """The Fig-4 inputs of one wave for the co-hosted keys ``group`` —
        a single key is the group ``(k,)`` — as :class:`ForestSpec`'s
        fields, participants as ``(key, capacity, used)`` rows of one
        gather (read now unless given).

        The root is the member with the most available capacity (ties
        broken by key, deterministically).  The audience is the union of
        the group's registries, key-sorted: a registrant interested in
        several co-hosted resources is visited once, and the group's own
        members are left out since they share the host.
        """
        audience, capacities, used = gathered or self._gather(group)
        rows = list(zip(chain(group, audience), capacities, used))
        size = len(group)
        root = max(rows[:size], key=lambda m: (m[1] - m[2], -m[0]))
        unique = dict(zip(audience, rows[size:]))
        for k in group:
            unique.pop(k, None)
        registry = sorted(unique.values(), key=itemgetter(0))
        tie = None
        if locality_tie_break:
            tie = lambda m: self.network_distance_between_keys(root[0], m[0])  # noqa: E731
        return root, registry, self.config.unit_advertise_cost, tie

    def _ldt_metrics(self, tree: LDTree) -> None:
        """Account one advertisement wave over ``tree`` — depth, messages,
        and the copies each interior node serves (Fig 4 fan-out, charged
        to the ledger) — from the summary the tree computed once."""
        m = self.telemetry.metrics
        m.counter("ldt.built").inc()
        m.histogram("ldt.depth").observe(tree.depth)
        m.histogram("ldt.messages").observe(tree.message_count)
        m.histogram("ldt.fanout").observe_many(tree.fanouts)
        ledger = self.telemetry.nodeload
        ledger.add_many("ldt_fanout", tree.interior_keys, tree.fanouts)
        if _sanitize.ACTIVE:
            _sanitize.check_ldt(tree, self.config.unit_advertise_cost)

    # -- trees kept across waves ----------------------------------------
    def _current_ldt(
        self, group: Tuple[int, ...], gathered: _Gather
    ) -> Tuple[LDTree, bool]:
        """``group``'s tree, re-derived only when its inputs moved; returns
        ``(tree, rebuilt)``.  The group's gather is both the fingerprint the
        kept tree is checked against and, on a miss, the rebuild's input."""
        kept = self._ldt_cache.get(group)
        if kept is not None and kept[0] == gathered:
            return kept[1], False
        root, registry, unit_cost, _ = self._ldt_spec(group, gathered)
        tree = build_ldt(root, registry, unit_cost)
        if kept is None:
            for k in group:
                self._groups_of.setdefault(k, []).append(group)
        self._ldt_cache[group] = (gathered, tree)
        return tree, True

    def ldt_for_group(self, keys: Sequence[int]) -> Tuple[int, LDTree]:
        """``(root_key, tree)`` of the co-hosted ``keys`` for a periodic
        refresher, counted once per derivation:
        :class:`~repro.core.statebinding.EarlyBinding` re-advertises every
        period over a tree that rarely changes, so unlike :meth:`move` —
        which shares the cache but accounts every wave — a hit here only
        bumps ``ldt.cache_hits``."""
        group = cohosted_group(keys)
        tree, rebuilt = self._current_ldt(group, self._gather(group))
        if rebuilt:
            self.telemetry.metrics.counter("ldt.cache_misses").inc()
            self._ldt_metrics(tree)
        else:
            self.telemetry.metrics.counter("ldt.cache_hits").inc()
        return tree.root_key, tree

    def ldt_for(self, key: int) -> LDTree:
        """``key``'s tree — :meth:`ldt_for_group` of the group ``(key,)``."""
        return self.ldt_for_group((key,))[1]

    # ------------------------------------------------------------------
    # Batched mobility (update_many)
    # ------------------------------------------------------------------
    def move_many(
        self,
        keys: Sequence[int],
        router: Optional[int] = None,
        *,
        advertise: bool = True,
        publish: bool = True,
    ) -> BatchMoveReport:
        """Move a mobile host carrying ``keys`` co-hosted resource keys.

        The host changes attachment point once; all of its keys land on
        the same router.  The location update is batched: one
        :meth:`LocationDirectory.publish_many` (one message per *distinct*
        stationary holder, with co-hosted keys grouped by responsible
        holder) and one coalesced advertisement wave over the union of the
        group's registries.  A K-resource movement therefore costs
        O(K + log N) messages where K per-key :meth:`move` calls cost
        O(K · log N).  Directory state afterwards is identical to K
        sequential publishes at the same virtual time.  A repeated key
        counts once (:func:`cohosted_group`): ``move_many([k, k])`` is
        ``move_many([k])``.
        """
        group = list(cohosted_group(keys))
        for k in group:
            if not self.nodes[k].mobile:
                raise ValueError(f"node {k} is stationary; only mobile nodes move")
        # The wave's inputs are read, and checked, before anything is written.
        gathered = None
        if advertise and any(self.nodes[k].registry for k in group):
            gathered = self._gather(tuple(group))
        tel = self.telemetry
        sid = (
            tel.tracer.span_begin(self.now, "op.update_many", batch=len(group))
            if tel.tracer.enabled
            else 0
        )
        new_addresses = self.placement.move_group(group, router)
        for k, addr in new_addresses.items():
            node = self.nodes[k]
            node.address = addr
            node.moves += 1

        result: Optional[BatchPublishResult] = None
        publish_hops = 0
        multicast_hops = 0
        if publish:
            result = self.directory.publish_many(
                new_addresses, now=self.now, ttl=self.config.state_ttl
            )
            # One routed entry into the stationary layer carries the whole
            # batch; the per-holder fan-out is counted in publish_messages.
            publish_hops = 1
            # Shared ring multicast: the batch enters the layer once (at
            # the first key's owner) and travels holder-to-holder instead
            # of one full traversal per distinct holder.
            multicast_hops = shared_multicast_hops(
                self.stationary_layer,
                result.holder_batches,
                entry=self.stationary_layer.owner_of(group[0]),
            )

        ldt_root: Optional[int] = None
        ldt: Optional[LDTree] = None
        if gathered is not None:
            ldt_root, ldt = self.build_ldt_for_group(group, gathered=gathered)
        report = BatchMoveReport(
            keys=group,
            new_addresses=new_addresses,
            publish=result,
            publish_hops=publish_hops,
            ldt_root=ldt_root,
            ldt=ldt,
            multicast_hops=multicast_hops,
        )
        m = tel.metrics
        m.counter("op.update_many.count").inc()
        m.histogram("op.update_many.batch_size").observe(report.batch_size)
        m.counter("op.update_many.publish_messages").inc(report.publish_messages)
        m.counter("op.update_many.multicast_hops").inc(report.multicast_hops)
        m.histogram("op.update_many.total_messages").observe(report.total_messages)
        if ldt is not None:
            m.histogram("op.update_many.ldt_messages").observe(report.ldt_messages)
            m.histogram("op.update_many.ldt_depth").observe(report.ldt_depth)
        if sid:
            tel.tracer.span_end(
                self.now,
                sid,
                holders=report.publish_messages,
                ldt_messages=report.ldt_messages,
                total_messages=report.total_messages,
            )
        return report

    # ------------------------------------------------------------------
    # Discovery (reactive state resolution, §2.3.2)
    # ------------------------------------------------------------------
    def stationary_entry(self, key: int) -> int:
        """Where node ``key`` enters the stationary layer (Fig 2): at
        itself, or at the stationary owner of its own key if it is mobile."""
        if key in self._mobile_set:
            return self.stationary_layer.owner_of(key)
        return key

    def discover(self, from_key: int, target_key: int) -> "DiscoveryResult":
        """Resolve ``target_key``'s address through the stationary layer.

        The requester injects a discovery message into the stationary
        layer; it routes to the stationary node closest to the target key
        (the record holder Z), which returns the registered address.
        """
        entry = self.stationary_entry(from_key)
        stat_route = self.stationary_layer.route(entry, target_key)
        holder = stat_route.terminus
        self.resolution_load[holder] = self.resolution_load.get(holder, 0) + 1
        self.telemetry.nodeload.add("detour", holder)
        addr = self.directory.resolve_at(holder, target_key, now=self.now)
        if addr is None:
            # Replica fallback (§2.3.2 availability).
            addr = self.directory.resolve(target_key, now=self.now)
        hops = [from_key] if entry == from_key else [from_key, entry]
        hops.extend(stat_route.hops[1:])
        result = DiscoveryResult(
            target=target_key, hops=hops, address=addr, holder=holder
        )
        m = self.telemetry.metrics
        m.counter("op.discover.count").inc()
        m.histogram("discovery.hops").observe(result.hop_count)
        if addr is None:
            m.counter("discovery.misses").inc()
        if self.telemetry.tracer.enabled:
            self.telemetry.tracer.emit(
                self.now,
                "discovery",
                requester=from_key,
                target=target_key,
                holder=holder,
                hops=result.hop_count,
                found=result.found,
            )
        return result

    # ------------------------------------------------------------------
    # Join / leave (§2.3.3) — mobile-layer membership churn
    # ------------------------------------------------------------------
    def join_mobile_node(self, key: int, capacity: float = 1.0) -> BristleNode:
        """Admit a new mobile node: place it, add it to the mobile layer,
        publish its location, and register it to its new neighbours'
        mobile peers (Fig 5's reciprocal registrations)."""
        key = self.space.validate(_integral_key(key))
        if key in self.nodes:
            raise ValueError(f"key {key} already present")
        tel = self.telemetry
        sid = tel.tracer.span_begin(self.now, "op.join", key=key) if tel.tracer.enabled else 0
        node = BristleNode(key=key, mobile=True, capacity=capacity, space=self.space)
        node.address = self.placement.attach(key)
        self.nodes[key] = node
        insort(self.mobile_keys, key)
        self._mobile_set.add(key)
        self.num_mobile += 1
        self.mobile_layer.add_node(key)
        tel.metrics.counter("overlay.mobile.add_node").inc()
        self.directory.publish(key, node.address, now=self.now, ttl=self.config.state_ttl)
        # Reciprocal registrations with the new neighbourhood (Fig 5).
        neighbours = self.mobile_layer.neighbors_of(key)
        mobile = [nb for nb in neighbours if nb in self._mobile_set]
        self.registrations.subscribe(key, mobile, now=self.now)
        self.registrations.register_many(neighbours, key, now=self.now)
        issued = len(neighbours) + len(mobile)
        tel.metrics.counter("op.join.count").inc()
        tel.metrics.histogram("op.join.registrations").observe(issued)
        if sid:
            tel.tracer.span_end(self.now, sid, registrations=issued)
        return node

    def leave_mobile_node(self, key: int) -> None:
        """Remove a mobile node: withdraw its records, unregister it
        everywhere, drop it from the mobile layer and the underlay."""
        key = _integral_key(key)
        node = self.nodes.get(key)
        if node is None or not node.mobile:
            raise ValueError(f"{key} is not a mobile member")
        tel = self.telemetry
        sid = tel.tracer.span_begin(self.now, "op.leave", key=key) if tel.tracer.enabled else 0
        self.directory.withdraw(key)
        withdrawn = self.registrations.unregister_all(key)
        for g in self._groups_of.pop(key, ()):
            del self._ldt_cache[g]
            for other in g:
                if other != key:
                    self._groups_of[other].remove(g)
        self.mobile_layer.remove_node(key)
        self.placement.detach(key)
        del self.mobile_keys[bisect_left(self.mobile_keys, key)]
        self._mobile_set.discard(key)
        self.num_mobile -= 1
        del self.nodes[key]
        tel.metrics.counter("op.leave.count").inc()
        tel.metrics.counter("overlay.mobile.remove_node").inc()
        tel.metrics.histogram("op.leave.unregistrations").observe(withdrawn)
        if sid:
            tel.tracer.span_end(self.now, sid, unregistrations=withdrawn)

    @property
    def now(self) -> float:
        """Virtual time of the one clock (``engine.now``)."""
        return self.engine.now

    def advance_to(self, t: float) -> None:
        """Move the clock to ``t``, dispatching every event due by then."""
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        if t < self.now:
            raise ValueError("time cannot go backwards")
        self.engine.run(until=t)

    def advance_time(self, dt: float) -> None:
        """Advance the lease clock (directory records age against it)."""
        if not math.isfinite(dt):
            raise ValueError(f"dt must be finite, got {dt}")
        if dt < 0:
            raise ValueError("time cannot go backwards")
        self.advance_to(self.now + dt)


@dataclasses.dataclass
class DiscoveryResult:
    """Outcome of a reactive state discovery.

    ``hops`` is the full node-key path the discovery message travelled
    (requester, optional stationary entry point, stationary route to the
    holder).  ``address`` is ``None`` when no fresh record existed.
    """

    target: int
    hops: List[int]
    address: Optional[NetworkAddress]
    holder: int

    @property
    def hop_count(self) -> int:
        return max(len(self.hops) - 1, 0)

    @property
    def found(self) -> bool:
        return self.address is not None


__all__.append("DiscoveryResult")


class _KeyCostOracle:
    """Key-level edge-cost adapter over the network's path oracle.

    Passed to :meth:`LDTree.edge_costs`/:meth:`LDTree.total_cost` as the
    ``distance`` argument: the batched ``route_costs`` form prices every
    tree edge in one oracle gather, and the scalar call form keeps the
    plain-callable contract for code that prices one pair at a time.
    """

    __slots__ = ("_net",)

    def __init__(self, net: BristleNetwork) -> None:
        self._net = net

    def __call__(self, a: int, b: int) -> float:
        return self._net.network_distance_between_keys(a, b)

    def route_costs(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        return self._net.route_costs_between_keys(pairs)


__all__.append("_KeyCostOracle")
