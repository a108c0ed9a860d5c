"""Tests for repro.overlay.factory and repro.core.config."""

import math

import pytest

from repro.core import BristleConfig
from repro.overlay import ChordOverlay, PastryOverlay, TornadoOverlay, make_overlay


class TestFactory:
    def test_names(self, space):
        assert isinstance(make_overlay("chord", space), ChordOverlay)
        assert isinstance(make_overlay("pastry", space), PastryOverlay)
        assert isinstance(make_overlay("tornado", space), TornadoOverlay)

    def test_case_insensitive(self, space):
        assert isinstance(make_overlay("Chord", space), ChordOverlay)

    def test_unknown_rejected(self, space):
        with pytest.raises(ValueError, match="unknown overlay"):
            make_overlay("kademlia", space)

    def test_parameters_forwarded(self, space):
        ov = make_overlay("pastry", space, leaf_set_size=12)
        assert ov.leaf_set_size == 12
        ch = make_overlay("chord", space, successor_list_size=7)
        assert ch.successor_list_size == 7

    def test_capacity_forwarded_to_tornado(self, space):
        ov = make_overlay("tornado", space, capacity=lambda k: 42.0)
        assert ov.capacity(0) == 42.0


class TestBristleConfig:
    def test_defaults_valid(self):
        cfg = BristleConfig()
        assert cfg.naming == "clustered"
        assert cfg.refresh_period < cfg.state_ttl

    def test_unknown_naming_rejected(self):
        with pytest.raises(ValueError):
            BristleConfig(naming="random")

    def test_refresh_must_beat_ttl(self):
        with pytest.raises(ValueError):
            BristleConfig(state_ttl=10.0, refresh_period=10.0)

    def test_non_positive_ttl_rejected(self):
        with pytest.raises(ValueError):
            BristleConfig(state_ttl=0.0)

    def test_unit_cost_positive(self):
        with pytest.raises(ValueError):
            BristleConfig(unit_advertise_cost=0.0)

    @pytest.mark.parametrize("field", ["state_ttl", "refresh_period", "unit_advertise_cost"])
    def test_nan_rejected(self, field):
        """Regression: every comparison with NaN is false, so ``nan`` passed
        the ``<= 0`` checks and a network was built on NaN leases and
        Fig-4 fan-outs."""
        with pytest.raises(ValueError):
            BristleConfig(**{field: float("nan")})

    def test_infinite_ttl_is_a_lease_that_never_lapses(self):
        assert BristleConfig(state_ttl=float("inf")).state_ttl == float("inf")

    def test_p_stale_bounds(self):
        with pytest.raises(ValueError):
            BristleConfig(p_stale=1.5)
        BristleConfig(p_stale=0.0)
        BristleConfig(p_stale=1.0)

    def test_key_bits_above_64_rejected(self):
        """Regression: ``key_bits=128`` passed validation and the network
        constructor died inside numpy ("high is out of bounds for uint64")."""
        with pytest.raises(ValueError, match="key_bits must be <= 64"):
            BristleConfig(key_bits=128)
        BristleConfig(key_bits=64)

    def test_replication_bounds(self):
        with pytest.raises(ValueError):
            BristleConfig(replication=0)

    def test_registry_size_explicit(self):
        cfg = BristleConfig(registry_size=20)
        assert cfg.effective_registry_size(10**6) == 20
        with pytest.raises(ValueError):
            BristleConfig(registry_size=0)

    def test_registry_size_default_log(self):
        cfg = BristleConfig()
        assert cfg.effective_registry_size(25000) == math.ceil(math.log2(25000)) == 15
        assert cfg.effective_registry_size(2) == 1

    def test_frozen(self):
        cfg = BristleConfig()
        with pytest.raises(Exception):
            cfg.seed = 2  # type: ignore[misc]
