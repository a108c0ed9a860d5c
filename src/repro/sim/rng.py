"""Deterministic random-number streams for reproducible simulations.

Every source of randomness in the library flows through :class:`RngStreams`.
A single master seed derives an independent, *named* child stream per
subsystem ("topology", "keys", "capacities", "mobility", ...), so adding a
new consumer of randomness never perturbs the draws seen by existing ones —
a property the regression tests rely on.

The streams are :class:`numpy.random.Generator` instances (PCG64), which
supports both fast vectorised draws (used in the hot key-generation and
placement paths, per the hpc-parallel guidance to vectorise) and scalar
convenience helpers.
"""

from __future__ import annotations

import dataclasses

from typing import Dict, Iterable, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = ["RngStreams", "derive_seed", "StreamSpec", "STREAMS"]

# A fixed 64-bit mixing constant (splitmix64 increment) used to fold stream
# names into the master seed.  Any odd constant works; this one is standard.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stream ``name``.

    The derivation hashes the name with a splitmix64-style mix so that
    distinct names yield statistically independent seeds, and the same
    (seed, name) pair always yields the same child seed on every platform
    (``hash()`` is deliberately avoided: it is salted per-process).
    """
    h = master_seed & 0xFFFFFFFFFFFFFFFF
    for ch in name.encode("utf-8"):
        h = (h ^ ch) * _GOLDEN_GAMMA & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
    # Final avalanche (splitmix64 finaliser).
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return (h ^ (h >> 31)) & 0xFFFFFFFFFFFFFFFF


class RngStreams:
    """A registry of named, independently-seeded random generators.

    Parameters
    ----------
    master_seed:
        Seed from which all named streams are derived.  Two ``RngStreams``
        built with the same master seed produce identical draw sequences
        stream-by-stream.

    Examples
    --------
    >>> rng = RngStreams(42)
    >>> keys = rng.stream("keys")
    >>> int(keys.integers(0, 100))  # doctest: +SKIP
    17
    >>> rng2 = RngStreams(42)
    >>> int(rng2.stream("keys").integers(0, 100)) == int(
    ...     RngStreams(42).stream("keys").integers(0, 100))
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        if not isinstance(master_seed, (int, np.integer)):
            raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object
        (its internal state advances across calls), which is what simulation
        code wants: one logical stream per subsystem.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(derive_seed(self.master_seed, name)))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *fresh* generator for ``name`` with pristine state.

        Unlike :meth:`stream`, this does not share state with previous
        callers — useful for tests that want to replay a stream from the
        start.
        """
        return np.random.Generator(np.random.PCG64(derive_seed(self.master_seed, name)))

    # ------------------------------------------------------------------
    # Convenience scalar/sequence helpers (thin wrappers, but they keep
    # call sites short and make the stream name explicit).
    # ------------------------------------------------------------------
    def randint(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)`` from stream ``name``."""
        return int(self.stream(name).integers(low, high))

    def random(self, name: str) -> float:
        """Uniform float in ``[0, 1)`` from stream ``name``."""
        return float(self.stream(name).random())

    def choice(self, name: str, seq: Sequence[T]) -> T:
        """Uniformly choose one element of ``seq``."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self.stream(name).integers(0, len(seq)))]

    def sample(self, name: str, seq: Sequence[T], k: int) -> List[T]:
        """Choose ``k`` distinct elements of ``seq`` (order randomised)."""
        if k > len(seq):
            raise ValueError(f"sample size {k} exceeds population size {len(seq)}")
        idx = self.stream(name).choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffled(self, name: str, seq: Iterable[T]) -> List[T]:
        """Return a new list with the elements of ``seq`` shuffled."""
        items = list(seq)
        self.stream(name).shuffle(items)  # type: ignore[arg-type]
        return items

    def spawn(self, name: str) -> "RngStreams":
        """Create an independent child ``RngStreams`` namespace.

        Used when an experiment runs several trials: each trial gets its own
        namespace so trials are independent yet individually reproducible.
        """
        return RngStreams(derive_seed(self.master_seed, "spawn:" + name))


@dataclasses.dataclass(frozen=True)
class StreamSpec:
    """Provenance record for one named RNG stream (or ``prefix.*`` family).

    Lint rule BRS010 (:mod:`repro.lint.rules`) checks every stream-name
    literal in ``repro`` against :data:`STREAMS`: an unregistered name is
    a provenance hole, and a draw from a subsystem outside
    ``{owner} | shared`` is a collision — two unrelated subsystems
    advancing one seeded stream silently correlate their draws.  Streams
    genuinely shared by design list the extra subsystems in ``shared``
    with a mandatory ``reason``; that every entry gives one and still has
    a draw site is checked by ``tests/test_rng.py::TestStreamRegistry``.
    """

    owner: str  #: owning subsystem ("repro.net", "repro.core", ...)
    purpose: str = ""  #: what the stream randomises
    shared: Tuple[str, ...] = ()  #: additional subsystems allowed to draw
    reason: str = ""  #: why sharing is by design (mandatory when shared)


#: Central registry of every named RNG stream in the project, keyed by
#: literal name or ``prefix.*`` wildcard (dynamic tails such as
#: ``f"churn.{rate}"``).  Entries are data only — registration does not
#: touch seed derivation, so adding one can never perturb existing draws.
STREAMS: Dict[str, StreamSpec] = {
    # -- network substrate (repro.net) ---------------------------------
    "topology": StreamSpec(
        owner="repro.net",
        purpose="transit-stub underlay construction (domain sizes, edges, latencies)",
    ),
    "placement": StreamSpec(
        owner="repro.net",
        purpose="initial attachment router for every host",
    ),
    "mobility": StreamSpec(
        owner="repro.net",
        purpose="re-attachment router draws when hosts move",
    ),
    # -- core protocol (repro.core) ------------------------------------
    "naming": StreamSpec(
        owner="repro.core",
        purpose="uniform key assignment for the baseline naming scheme",
    ),
    "naming.stationary": StreamSpec(
        owner="repro.core",
        purpose="stationary-band keys for the clustered naming scheme (§3)",
    ),
    "naming.mobile": StreamSpec(
        owner="repro.core",
        purpose="mobile-region keys for the clustered naming scheme (§3)",
    ),
    "registrations": StreamSpec(
        owner="repro.core",
        purpose="which stationary keys each mobile host registers under",
    ),
    "mobility.timing": StreamSpec(
        owner="repro.core",
        purpose="exponential inter-move delays for the mobility process",
    ),
    "join.bootstrap": StreamSpec(
        owner="repro.core",
        purpose="bootstrap-member choice for mobile joins",
    ),
    "routing.stale": StreamSpec(
        owner="repro.core",
        purpose="fractional stale-binding coin flips in route_preferring_resolved",
    ),
    # -- workload generators (repro.workloads) -------------------------
    "type_a": StreamSpec(
        owner="repro.workloads",
        purpose="independent RngStreams namespace for the Type-A baseline scenario",
    ),
    "type_b": StreamSpec(
        owner="repro.workloads",
        purpose="independent RngStreams namespace for the Type-B baseline scenario",
    ),
    "churn": StreamSpec(
        owner="repro.workloads",
        purpose="Poisson churn schedules (move/leave/join interarrivals)",
    ),
    "routes": StreamSpec(
        owner="repro.workloads",
        purpose="stationary (source, destination) route workload pairs",
        shared=("repro.experiments",),
        reason="drivers that synthesise their own route endpoints draw the "
        "same logical route-workload stream the sample helpers use, so "
        "route workloads stay comparable across experiments",
    ),
    "lookups": StreamSpec(
        owner="repro.workloads",
        purpose="(member, data key) lookup workload pairs",
    ),
    "capacities": StreamSpec(
        owner="repro.workloads",
        purpose="per-node capacity draws (uniform and Pareto variants)",
        shared=("repro.core",),
        reason="BristleNetwork draws default node capacities itself with the "
        "same logical workload stream so that explicit capacity workloads "
        "and the built-in default are interchangeable seed-for-seed",
    ),
    # -- baselines (repro.baselines) -----------------------------------
    "type_a.keys": StreamSpec(
        owner="repro.baselines",
        purpose="random key draws inside the Type-A home-agent baseline",
    ),
    # -- experiment drivers (repro.experiments) ------------------------
    "keys": StreamSpec(
        owner="repro.experiments",
        purpose="uniform node-key populations drawn by sweep drivers",
    ),
    "data": StreamSpec(
        owner="repro.experiments",
        purpose="data-item keys for the data-access workload",
    ),
    "table1.lookups": StreamSpec(
        owner="repro.experiments",
        purpose="lookup endpoints for the Table-1 comparison",
    ),
    "table1.failures": StreamSpec(
        owner="repro.experiments",
        purpose="failed-holder draws for the Table-1 comparison",
    ),
    "churn.*": StreamSpec(
        owner="repro.experiments",
        purpose="per-move-rate child namespaces of the churn comparison",
    ),
    "churn.lookups": StreamSpec(
        owner="repro.experiments",
        purpose="lookup endpoints interleaved with churn events",
    ),
    "membership.schedule": StreamSpec(
        owner="repro.experiments",
        purpose="join/leave ordering for the membership-churn experiment",
    ),
    "membership.initial": StreamSpec(
        owner="repro.experiments",
        purpose="initial member keys for the membership-churn experiment",
    ),
    "membership.joiners": StreamSpec(
        owner="repro.experiments",
        purpose="joiner keys for the membership-churn experiment",
    ),
    "scale.mix": StreamSpec(
        owner="repro.experiments",
        purpose="popularity ranks, movers, churners and lookups of the "
        "scale-mix experiments",
    ),
    "binding.lookups": StreamSpec(
        owner="repro.experiments",
        purpose="lookup endpoints for the early-binding experiment",
    ),
    "batch.shared": StreamSpec(
        owner="repro.experiments",
        purpose="shared-audience sampling for the batch-update experiment",
    ),
    "fig9.trees": StreamSpec(
        owner="repro.experiments",
        purpose="which mobile nodes' dissemination trees Fig-9 samples",
    ),
    "reliability.failures": StreamSpec(
        owner="repro.experiments",
        purpose="failed-holder draws for the reliability experiment",
    ),
    "failed.*": StreamSpec(
        owner="repro.experiments",
        purpose="per-fraction failed-node draws for the reliability sweep",
    ),
    "routes.*": StreamSpec(
        owner="repro.experiments",
        purpose="per-fraction route draws for the reliability sweep",
    ),
    "ipv6.lookups": StreamSpec(
        owner="repro.experiments",
        purpose="lookup endpoints for the IPv6-style Type-B comparison",
    ),
    "stale.*": StreamSpec(
        owner="repro.experiments",
        purpose="per-p_stale coin-flip streams for the staleness sweep "
        "(one stream per point, so points stay order-independent)",
    ),
    "fig8": StreamSpec(
        owner="repro.experiments",
        purpose="default capacity draws for a single random LDT build",
    ),
    "fig8a.*": StreamSpec(
        owner="repro.experiments",
        purpose="per-registry-size capacity draws for Fig-8a",
    ),
    "fig8b.*": StreamSpec(
        owner="repro.experiments",
        purpose="per-max-capacity capacity draws for Fig-8b",
    ),
    "fig8w.*": StreamSpec(
        owner="repro.experiments",
        purpose="per-workload-fraction capacity draws for the Fig-8 "
        "used-capacity extension",
    ),
}
