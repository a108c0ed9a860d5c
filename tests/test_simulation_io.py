"""Tests for a directly wired live simulation and table serialization."""

import json

import pytest

from repro.core import (
    BristleConfig,
    BristleNetwork,
    BristleProtocol,
    EarlyBinding,
    MobilityProcess,
)
from repro.experiments import (
    ResultTable,
    table_from_json,
    table_to_csv,
    table_to_json,
    write_table,
)
from repro.sim import Tracer


def live(num_stationary, num_mobile, *, move_rate, early=True, tracer=None, seed=1):
    """Network, timed protocol, mobility advertising through the protocol
    and (optionally) early binding, all on the network's clock."""
    net = BristleNetwork(
        BristleConfig(seed=seed, naming="scrambled"),
        num_stationary,
        num_mobile,
        router_count=100,
    )
    net.setup_random_registrations(registry_size=4)
    protocol = BristleProtocol(net, latency_scale=1e-3, tracer=tracer)
    binding = EarlyBinding(net) if early else None
    if binding is not None:
        binding.start()
    mobility = MobilityProcess(
        net=net,
        rate=move_rate,
        advertise=False,
        on_move=lambda rep: protocol.advertise(rep.key),
    )
    mobility.start()
    return net, mobility, binding


class TestLiveSimulation:
    @pytest.fixture
    def sim(self):
        return live(30, 20, move_rate=0.05, seed=44)

    def test_moves_happen_and_caches_stay_warm(self, sim):
        net, mobility, _ = sim
        net.advance_to(60.0)
        assert mobility.moves_performed > 10
        pairs = [
            (net.nodes[entry.key].state.get(mk), net.nodes[mk].address)
            for mk in net.mobile_keys
            for entry in net.nodes[mk].registry_entries()
        ]
        warm = sum(1 for st, addr in pairs if st is not None and st.addr == addr)
        assert warm / len(pairs) > 0.8

    def test_stop_silences_processes(self, sim):
        net, mobility, binding = sim
        net.advance_to(10.0)
        mobility.stop()
        binding.stop()
        moves, messages = mobility.moves_performed, binding.stats.total_messages
        net.advance_to(100.0)
        assert mobility.moves_performed == moves
        assert binding.stats.total_messages == messages

    def test_trace_enabled(self):
        tracer = Tracer()
        net, _, _ = live(20, 10, move_rate=0.2, early=False, tracer=tracer)
        net.advance_to(30.0)
        assert len(tracer) > 0


class TestTableIO:
    def make(self) -> ResultTable:
        t = ResultTable(title="T", columns=["a", "b"], notes=["note"])
        t.add_row(a=1, b=2.5)
        t.add_row(a=3, b=4.5)
        return t

    def test_csv_round(self):
        csv_text = table_to_csv(self.make())
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert len(lines) == 3

    def test_csv_missing_cells(self):
        t = ResultTable(title="T", columns=["a", "b"])
        t.add_row(a=1)
        assert "1," in table_to_csv(t)

    def test_json_roundtrip(self):
        original = self.make()
        restored = table_from_json(table_to_json(original))
        assert restored.title == original.title
        assert restored.columns == original.columns
        assert restored.rows == original.rows
        assert restored.notes == original.notes

    def test_json_handles_numpy_scalars(self):
        import numpy as np

        t = ResultTable(title="T", columns=["x"])
        t.add_row(x=np.float64(1.5))
        payload = json.loads(table_to_json(t))
        assert payload["rows"][0]["x"] == 1.5

    def test_from_json_validates(self):
        with pytest.raises(ValueError):
            table_from_json(json.dumps({"title": "T"}))

    @pytest.mark.parametrize(
        "name,expected",
        [("out.csv", "a,b"), ("out.json", '"title"'), ("out.txt", "== T ==")],
    )
    def test_write_table_auto_format(self, tmp_path, name, expected):
        path = tmp_path / name
        write_table(self.make(), str(path))
        assert expected in path.read_text()

    def test_write_table_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(self.make(), str(tmp_path / "x"), fmt="xml")
