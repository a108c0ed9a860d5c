"""Bristle core — the paper's primary contribution.

The two-layer mobile HS-P2P architecture: configuration, naming schemes,
nodes, the network facade, Figure-2 routing with address resolution,
location management (register/update/join/leave), location dissemination
trees, lease-based state binding, mobility workloads and the paper's
analytic models.
"""

from .analysis import (
    advertisement_hops,
    clustered_route_is_stationary,
    expected_route_hops,
    ldt_size_member_only,
    ldt_size_non_member_only,
    nabla,
    registrations_per_node,
    responsibility_curves,
    responsibility_member_only,
    responsibility_non_member_only,
    total_registrations,
)
from .bristle import BristleNetwork, DiscoveryResult, MoveReport
from .config import BristleConfig
from .failure import FailureDetector, Suspicion
from .join import JoinReport, figure5_join
from .ldt import LDTMember, LDTNode, LDTree, build_ldt, ldt_depth_bound
from .ldt_forest import (
    ForestSpec,
    LDTForest,
    build_forest_columns,
    build_ldt_forest,
    forest_depths,
)
from .ldt_nonmember import NonMemberTree, build_non_member_tree
from .location import LocationDirectory, LocationRecord, RegistrationManager
from .mobility import MobilityProcess, shuffle_all_mobile
from .naming import ClusteredNaming, NameAssignment, ScrambledNaming, make_naming
from .node import BristleNode, RegistryEntry
from .protocol import AdvertisementWave, BristleProtocol, DiscoveryExchange
from .routing import HopRecord, RouteTrace, route_preferring_resolved, route_with_resolution
from .storage import DataStore, GetResult, StoredItem
from .statebinding import BindingPolicy, BindingStats, EarlyBinding, LateBinding

__all__ = [
    "advertisement_hops",
    "clustered_route_is_stationary",
    "expected_route_hops",
    "ldt_size_member_only",
    "ldt_size_non_member_only",
    "nabla",
    "registrations_per_node",
    "responsibility_curves",
    "responsibility_member_only",
    "responsibility_non_member_only",
    "total_registrations",
    "BristleNetwork",
    "DiscoveryResult",
    "MoveReport",
    "BristleConfig",
    "FailureDetector",
    "Suspicion",
    "JoinReport",
    "figure5_join",
    "LDTMember",
    "LDTNode",
    "LDTree",
    "build_ldt",
    "ldt_depth_bound",
    "ForestSpec",
    "LDTForest",
    "build_forest_columns",
    "build_ldt_forest",
    "forest_depths",
    "NonMemberTree",
    "build_non_member_tree",
    "LocationDirectory",
    "LocationRecord",
    "RegistrationManager",
    "MobilityProcess",
    "shuffle_all_mobile",
    "ClusteredNaming",
    "NameAssignment",
    "ScrambledNaming",
    "make_naming",
    "BristleNode",
    "RegistryEntry",
    "AdvertisementWave",
    "BristleProtocol",
    "DiscoveryExchange",
    "HopRecord",
    "RouteTrace",
    "DataStore",
    "GetResult",
    "StoredItem",
    "route_preferring_resolved",
    "route_with_resolution",
    "BindingPolicy",
    "BindingStats",
    "EarlyBinding",
    "LateBinding",
]
