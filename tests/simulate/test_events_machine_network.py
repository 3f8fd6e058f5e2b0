"""Node model and network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulate.machine import MachineModel, NodeModel
from repro.simulate.network import NetworkModel


class TestNodeModel:
    def test_in_cache_factor_one(self):
        node = NodeModel(cache_bytes=1 << 20)
        assert node.cost_factor(1 << 19) == 1.0

    def test_factor_monotone(self):
        node = NodeModel()
        sizes = [2 ** k for k in range(10, 30)]
        factors = [node.cost_factor(s) for s in sizes]
        assert all(a <= b for a, b in zip(factors, factors[1:]))

    @given(ws=st.integers(1, 1 << 30))
    @settings(max_examples=50, deadline=None)
    def test_property_factor_at_least_one(self, ws):
        assert NodeModel().cost_factor(ws) >= 1.0

    def test_knee_raises_cost(self):
        node = NodeModel(knee_bytes=1 << 20)
        below = node.cost_factor((1 << 20) - 1)
        above = node.cost_factor(1 << 22)
        assert above > below + 0.3

    def test_oom_detection(self):
        node = NodeModel(mem_bytes=1 << 20)
        assert node.is_oom(1 << 21)
        assert not node.is_oom(1 << 19)
        assert node.cost_factor(1 << 21) > node.cost_factor(1 << 20) + 10

    def test_op_time_scales(self):
        node = NodeModel(flop_time=2e-8)
        assert node.op_time(0) == 2e-8


class TestNetworkModel:
    def test_message_time(self):
        net = NetworkModel(latency=1e-3, bandwidth=1e6)
        assert net.message_time(1000) == pytest.approx(2e-3)

    def test_injection_no_latency(self):
        net = NetworkModel(latency=1e-3, bandwidth=1e6)
        assert net.injection_time(1000) == pytest.approx(1e-3)

    def test_wire_time(self):
        net = NetworkModel(bandwidth=2e6)
        assert net.wire_time(2_000_000) == pytest.approx(1.0)

    def test_machine_value_bytes(self):
        assert MachineModel().value_bytes == 4
