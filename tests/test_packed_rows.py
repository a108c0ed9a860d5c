"""Routing state as packed rows (issue 24): the ``SlotRow`` container
against a plain dict, the bytes a member costs, the rows a join or a
leave edits against a fresh build's, and Pastry's step 3 reading only the
suffix of a row against the full scan of ``tests/oracles/routing.py``."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import KeySpace, make_overlay
from repro.overlay.rows import SlotRow

from .oracles.build import reference_build
from .oracles.routing import reference_next_hop
from .oracles.rows import clear_slot, prefix_state, set_leaves, slot_table

PREFIX_OVERLAYS = ("pastry", "tornado", "tapestry")
WIDTHS = [(32, 4), (60, 4), (63, 7)]


def _capacity(key: int) -> float:
    return float(1 + key % 5)


# ----------------------------------------------------------------------
# (a) bytes per member — ratchet these down, never up
# ----------------------------------------------------------------------
#: traced bytes per member after ``build()`` of 5 000 uniform keys
#: (issue 24 asked for 1 200 / 450 against the parent's 4 390 / 811 and
#: measured 815 / 334 on CPython 3.11; the slack is for other versions)
BYTES_PER_MEMBER_BUDGET = {"pastry": 1000, "tornado": 1000, "tapestry": 1000, "chord": 400}


@pytest.mark.parametrize("bits", [32, 60])
@pytest.mark.parametrize("name", sorted(BYTES_PER_MEMBER_BUDGET))
def test_bytes_per_member_budget(name, bits):
    space = KeySpace(bits=bits, digit_bits=4)
    keys = np.random.default_rng(1).integers(0, space.size, 5000, dtype=np.uint64).tolist()
    ov = make_overlay(name, space)
    gc.collect()
    tracemalloc.start()
    try:
        ov.build(keys)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / ov.num_nodes <= BYTES_PER_MEMBER_BUDGET[name], (name, bits, held)
    if name != "chord":  # the level-wise writer: transient below 3x steady
        assert peak <= 3 * held, (name, bits, peak, held)


# ----------------------------------------------------------------------
# (b) the packed row is a dict
# ----------------------------------------------------------------------
_SLOTS = st.one_of(st.integers(0, 63), st.integers(64, 127), st.integers(128, 260))
_OPS = st.lists(
    st.tuples(st.sampled_from(["set", "del", "get"]), _SLOTS, st.integers(0, 2**64 - 1)),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_slot_row_is_a_dict(ops):
    row, model = SlotRow(), {}
    for op, slot, member in ops:
        if op == "set":  # a fresh slot or an overwrite
            row[slot] = model[slot] = member
        elif op == "del" and slot in model:
            del row[slot], model[slot]
        elif op == "del":
            with pytest.raises(KeyError):
                del row[slot]
        assert row.get(slot) == model.get(slot)
        assert list(row.items()) == sorted(model.items())
        assert list(row.members) == [model[s] for s in sorted(model)]
        assert row.bitmap == sum(1 << s for s in model)


# ----------------------------------------------------------------------
# Rows after a join or a leave equal a fresh build's, slot for slot
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits,digit_bits", WIDTHS + [(8, 2)])
@pytest.mark.parametrize("name", PREFIX_OVERLAYS)
def test_block_range_repair_equals_fresh_and_scalar_builds(name, bits, digit_bits):
    space = KeySpace(bits=bits, digit_bits=digit_bits)
    gen = np.random.default_rng([bits, 24])
    size = 20 if bits == 8 else 120
    pool = sorted({int(k) for k in gen.integers(0, space.size, 2 * size, dtype=np.uint64)})
    # half the spare keys sit next to a member: deep rows and leaf sets move
    pool += [k + 1 for k in pool[::4] if k + 1 < space.size and k + 1 not in pool]
    gen.shuffle(pool)
    members, spare = set(pool[:size]), pool[size:]
    ov = make_overlay(name, space, capacity=_capacity)
    ov.build(members)
    for event in range(60):
        if event % 2 == 0 and spare:
            key = spare.pop()
            ov.add_node(key)
        else:
            key = sorted(members)[int(gen.integers(len(members)))]
            ov.remove_node(key)
            spare.insert(0, key)
        members ^= {key}
        fresh = make_overlay(name, space, capacity=_capacity)
        fresh.build(members)
        assert prefix_state(ov) == prefix_state(fresh), (event, key)
        if event % 10 == 0:  # ... which is the scalar reference rule's
            scalar = reference_build(make_overlay(name, space, capacity=_capacity), members)
            assert prefix_state(fresh) == prefix_state(scalar)


# ----------------------------------------------------------------------
# (c) step 3 scans leaves + the suffix of the row; the oracle scans it all
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits,digit_bits", WIDTHS)
@pytest.mark.parametrize("name", ["pastry", "tornado"])
def test_suffix_scan_equals_full_scan_on_stale_state(name, bits, digit_bits):
    space = KeySpace(bits=bits, digit_bits=digit_bits)
    gen = np.random.default_rng([bits, 3])
    founders = sorted({int(k) for k in gen.integers(0, space.size, 140, dtype=np.uint64)})
    ov = make_overlay(name, space, capacity=_capacity)
    ov.build(founders)
    stale_leaves = {k: ov.leaf_set(k) for k in founders}
    for key in gen.integers(0, space.size, 40, dtype=np.uint64).tolist():
        if not ov.is_member(key):
            ov.add_node(key)
    for k in founders:  # leaf sets that predate the joins ...
        set_leaves(ov, k, stale_leaves[k][: int(gen.integers(1, 9))])
        for slot in list(slot_table(ov, k)):  # ... and tables with holes
            if gen.random() < 0.4:
                clear_slot(ov, k, slot)
    members = ov.keys.tolist()
    step3 = 0
    for target in gen.integers(0, space.size, 400, dtype=np.uint64).tolist() + members[::3]:
        source = founders[int(gen.integers(len(founders)))]
        owner = ov.owner_of(target)
        if source == owner:
            continue
        assert ov.next_hop(source, target) == reference_next_hop(ov, source, target)
        step3 += (
            owner not in ov.leaf_set(source)
            and ov._slot_toward(source, target) not in slot_table(ov, source)
        )
    assert step3 >= 100
