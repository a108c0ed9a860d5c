"""Runtime sanitizer: cheap invariant assertions at operation boundaries.

Enabled via ``REPRO_SANITIZE=1`` in the environment or ``--sanitize`` on
the CLI (``repro run``/``all``), the sanitizer verifies the protocol
invariants the paper's results rest on, right where they can break:

* **ring/prefix-table consistency** after every mobile-layer join/leave
  (:func:`check_overlay_consistency` — sorted unique membership, the
  changed key's ownership and neighbour closure);
* **LDT well-formedness** after every build (:func:`check_ldt` —
  single-parent acyclicity plus the Fig-4 capacity bound
  ``children ≤ max(1, ⌊Avail/v⌋)``);
* **TTL-lease monotonicity** on every state-pair refresh
  (:func:`check_lease_refresh` — leases never refresh into the past);
* **manifest round-trips** before a run manifest is written
  (:func:`check_manifest_roundtrip` — strict-JSON stability);
* **columnar-store column coherence** after every batch mutation
  (:func:`check_columnar_store` — strictly sorted keys, ``expiry ==
  published + ttl``, holder counts within the replica width and a
  correctly sorted expiry ordering).

Checks are read-only — they never draw from an RNG stream or mutate
protocol state — so a sanitized run is bit-identical to an unsanitized
one.  Every check increments the ``sanitize.checks`` counter in the
ambient telemetry session (sweep workers' counts merge back to the
parent), and a failed invariant raises :class:`SanitizerViolation`
immediately.  When the sanitizer is off, each hook costs a single module
attribute read (``ACTIVE``).
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .core.ldt import LDTree
    from .core.ldt_forest import LDTForest
    from .overlay.base import Overlay
    from .overlay.state import StatePair

__all__ = [
    "ACTIVE",
    "SanitizerViolation",
    "enabled",
    "set_enabled",
    "counts",
    "reset_counts",
    "summary_line",
    "check_overlay_consistency",
    "check_ldt",
    "check_ldt_forest",
    "check_lease_refresh",
    "check_manifest_roundtrip",
    "check_columnar_store",
]


class SanitizerViolation(AssertionError):
    """A protocol invariant failed under ``REPRO_SANITIZE``."""


#: Hot-path gate: hook sites read this module attribute and skip the call
#: entirely when the sanitizer is off.
ACTIVE: bool = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")

#: Per-check counts for this process (workers' counts additionally merge
#: into the parent via the telemetry ``sanitize.*`` counters).
_COUNTS: Dict[str, int] = {}


def enabled() -> bool:
    """True when invariant checks run (env ``REPRO_SANITIZE`` or CLI)."""
    return ACTIVE


def set_enabled(flag: bool) -> None:
    """Turn the sanitizer on/off for this process (the CLI's ``--sanitize``)."""
    global ACTIVE
    ACTIVE = bool(flag)


def counts() -> Dict[str, int]:
    """Per-check invocation counts for this process."""
    return dict(_COUNTS)


def reset_counts() -> None:
    """Zero the per-process counters (test isolation)."""
    _COUNTS.clear()


def _record(check: str) -> None:
    _COUNTS[check] = _COUNTS.get(check, 0) + 1
    from .sim.telemetry import active_telemetry

    tel = active_telemetry()
    if tel is not None:
        tel.metrics.counter("sanitize.checks").inc()
        tel.metrics.counter(f"sanitize.checks.{check}").inc()


def _violation(message: str) -> "SanitizerViolation":
    _COUNTS["violations"] = _COUNTS.get("violations", 0) + 1
    from .sim.telemetry import active_telemetry

    tel = active_telemetry()
    if tel is not None:
        tel.metrics.counter("sanitize.violations").inc()
    return SanitizerViolation(message)


def summary_line(
    total_checks: Optional[int] = None, violations: Optional[int] = None
) -> str:
    """The ``[sanitize] N invariant checks, V violations`` report line.

    Callers with a telemetry session pass the merged ``sanitize.checks`` /
    ``sanitize.violations`` counter values (covering fork workers too);
    with no arguments the line reports this process's own counts.
    """
    if total_checks is None:
        total_checks = sum(
            n for k, n in _COUNTS.items() if k != "violations"
        )
    if violations is None:
        violations = _COUNTS.get("violations", 0)
    return f"[sanitize] {total_checks} invariant checks, {violations} violations"


# ----------------------------------------------------------------------
# Overlay ring/prefix-table consistency (after join/leave)
# ----------------------------------------------------------------------
def check_overlay_consistency(
    overlay: "Overlay", key: Optional[int] = None
) -> None:
    """Membership/routing-state invariants after a membership change.

    Bounded work: O(N) sortedness over the member array plus the changed
    key's own routing state (a departed key's two ring neighbours') —
    churn loops stay usable under the sanitizer.
    """
    _record("overlay")
    keys = overlay.keys
    if keys.size != len(overlay._member_set):
        raise _violation(
            f"overlay member array ({keys.size}) and member set "
            f"({len(overlay._member_set)}) disagree"
        )
    if keys.size > 1 and not bool((keys[1:] > keys[:-1]).all()):
        raise _violation("overlay member array is not strictly sorted")
    if key is None:
        return
    if overlay.is_member(key):
        owner = overlay.owner_of(key)
        if owner != key:
            raise _violation(
                f"member {key} is not the owner of its own key "
                f"(owner_of returned {owner})"
            )
        checked = {key}
    else:
        # After a leave the key must be fully forgotten: by the member
        # array, and by its ring predecessor and successor (the ring
        # overlays' surest holders of it).
        if key in set(int(k) for k in keys):
            raise _violation(
                f"departed key {key} still present in the member array"
            )
        idx = int(keys.searchsorted(keys.dtype.type(key)))
        checked = {int(keys[idx - 1]), int(keys[idx % keys.size])}
    for member in checked:
        for nb in overlay.neighbors_of(member):
            if not overlay.is_member(nb):
                raise _violation(
                    f"member {member} routes to non-member neighbour {nb}"
                )


# ----------------------------------------------------------------------
# LDT acyclicity + capacity bounds (after builds)
# ----------------------------------------------------------------------
def check_ldt(tree: "LDTree", unit_cost: float = 1.0) -> None:
    """Structural invariants of one advertisement tree (Fig 4).

    Single-parent acyclicity via a parent-pointer walk from every member,
    plus the capacity bound: a sender with ``Avail − v ≤ 0`` delegates to
    exactly one head, otherwise fans out to at most ``⌊Avail/v⌋`` heads.
    """
    _record("ldt")
    try:
        tree.validate()
    except AssertionError as exc:
        raise _violation(f"LDT structure invalid: {exc}") from None
    keys, senders = tree.keys, tree.parent_rows
    for row in range(1, len(keys)):
        steps = 0
        cursor = row
        while senders[cursor] >= 0:
            cursor = senders[cursor]
            steps += 1
            if steps > len(keys):
                raise _violation(
                    f"LDT parent chain from {keys[row]} exceeds tree size: "
                    "cycle in parent pointers"
                )
        if cursor != 0:
            raise _violation(
                f"LDT parent chain from {keys[row]} terminates at "
                f"{keys[cursor]}, not the root"
            )
    for row, fanout in Counter(senders[1:]).items():
        avail = tree.capacities[row] - tree.used[row]
        allowed = (
            1
            if avail - unit_cost <= 0
            else max(1, int(math.floor(avail / unit_cost)))
        )
        if fanout > allowed:
            raise _violation(
                f"LDT node {keys[row]} fans out to {fanout} "
                f"children but Avail={avail} permits {allowed} "
                f"(unit cost {unit_cost})"
            )


def check_ldt_forest(forest: "LDTForest") -> None:
    """Structural invariants of a whole columnar tree batch.

    The forest-column variant of :func:`check_ldt`: one vectorised
    :meth:`LDTForest.validate` pass covers level linkage, single-parent
    acyclicity (levels strictly decrease along parent rows), the Fig-4
    ``Avail/v`` fan-out bound and partition-size conservation for every
    tree in the batch — O(M log M) in total members, so million-member
    scale rounds stay usable under the sanitizer.
    """
    _record("ldt_forest")
    try:
        forest.validate()
    except AssertionError as exc:
        raise _violation(f"LDT forest invalid: {exc}") from None


# ----------------------------------------------------------------------
# TTL-lease monotonicity (state binding)
# ----------------------------------------------------------------------
def check_lease_refresh(
    pair: "StatePair", now: float, ttl: Optional[float] = None
) -> None:
    """A lease refresh must not move ``refreshed_at`` backwards and must
    grant a non-negative, non-NaN TTL (``ttl`` is the incoming grant;
    ``None`` keeps the pair's current one).  Called *before* the pair is
    mutated so the pre-refresh timestamp is still observable."""
    _record("lease")
    if now < pair.refreshed_at:
        raise _violation(
            f"lease for key {pair.key} refreshed backwards in time: "
            f"{pair.refreshed_at} -> {now}"
        )
    granted = pair.ttl if ttl is None else ttl
    if granted < 0 or (granted != granted):  # negative or NaN
        raise _violation(f"lease for key {pair.key} granted invalid TTL {granted}")


# ----------------------------------------------------------------------
# Manifest round-trip (experiment provenance)
# ----------------------------------------------------------------------
def check_manifest_roundtrip(payload: Mapping[str, Any]) -> None:
    """A run manifest must survive a strict-JSON round-trip unchanged and
    still validate against the schema afterwards."""
    _record("manifest")
    from .experiments.manifest import ManifestError, validate_manifest

    try:
        text = json.dumps(dict(payload), allow_nan=False, default=_jsonify)
    except (TypeError, ValueError) as exc:
        raise _violation(f"manifest is not strict JSON: {exc}") from None
    restored = json.loads(text)
    original = json.loads(
        json.dumps(dict(payload), allow_nan=False, default=_jsonify)
    )
    if restored != original:
        raise _violation("manifest does not round-trip through JSON")
    try:
        validate_manifest(restored)
    except ManifestError as exc:
        raise _violation(
            f"manifest fails schema validation after round-trip: {exc}"
        ) from None


# ----------------------------------------------------------------------
# Columnar-store column coherence (after batch mutations)
# ----------------------------------------------------------------------
def check_columnar_store(store: Any) -> None:
    """Cross-column invariants of a ``repro.sim.columnar.ColumnarStore``.

    Runs after every batch rebuild (``_set``): the key column must be
    strictly sorted and unique, every row's ``expiry`` must equal
    ``published + ttl``, holder counts must fit the replica width, and the
    precomputed expiry ordering must actually sort the expiry column —
    the invariant the one-pass TTL sweep's prefix slice rests on.
    """
    _record("columnar")
    import numpy as np

    keys = store.keys
    n = int(keys.size)
    for name in ("router", "port", "epoch", "published", "ttl", "expiry",
                 "holder_count"):
        col = getattr(store, name)
        if int(col.shape[0]) != n:
            raise _violation(
                f"columnar column {name!r} has {int(col.shape[0])} rows, "
                f"key column has {n}"
            )
    if store.holders.shape != (n, store.replication):
        raise _violation(
            f"columnar holder matrix shape {store.holders.shape} != "
            f"({n}, {store.replication})"
        )
    if n == 0:
        return
    if n > 1 and not bool((keys[1:] > keys[:-1]).all()):
        raise _violation("columnar key column is not strictly sorted/unique")
    if not bool(np.all(store.expiry == store.published + store.ttl)):
        raise _violation("columnar expiry column diverged from published + ttl")
    if not bool(
        np.all((store.holder_count >= 1) & (store.holder_count <= store.replication))
    ):
        raise _violation(
            f"columnar holder counts outside [1, {store.replication}]"
        )
    ordered = store.expiry[store._exp_order]
    if n > 1 and not bool((ordered[1:] >= ordered[:-1]).all()):
        raise _violation("columnar expiry ordering does not sort the expiry column")


def _jsonify(value: Any) -> Any:
    try:
        return value.item()  # NumPy scalars
    except AttributeError:
        raise TypeError(f"cannot serialise {type(value).__name__}") from None
