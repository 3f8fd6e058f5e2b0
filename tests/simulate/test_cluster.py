"""Cluster simulation: scaling behavior and model effects."""

import pytest

from repro.core import AutoCFD
from repro.errors import SimulationError
from repro.simulate import ClusterSim, MachineModel, NodeModel, NetworkModel
from repro.simulate.cluster import WARMUP_FRAMES

from tests.conftest import JACOBI_SRC, SEIDEL_SRC

FAST_NET = NetworkModel(latency=1e-6, bandwidth=1e12, shared_medium=False)
SLOW_NET = NetworkModel(latency=5e-3, bandwidth=1e5, shared_medium=True)
CPU = MachineModel(NodeModel(flop_time=1e-7, cache_bytes=1 << 30))


def sim_for(src, dims, machine=CPU, net=FAST_NET, chunks=8, **kw):
    plan = AutoCFD.from_source(src).compile(partition=dims).plan
    return ClusterSim(plan, machine=machine, network=net, chunks=chunks,
                      **kw)


class TestScalingSanity:
    def test_jacobi_near_linear_on_fast_network(self):
        t1 = sim_for(JACOBI_SRC, (1, 1)).run(50).total_time
        t2 = sim_for(JACOBI_SRC, (2, 1)).run(50).total_time
        t4 = sim_for(JACOBI_SRC, (2, 2)).run(50).total_time
        assert t1 / t2 == pytest.approx(2.0, rel=0.2)
        assert t1 / t4 == pytest.approx(4.0, rel=0.3)

    def test_slow_network_hurts(self):
        fast = sim_for(JACOBI_SRC, (2, 2), net=FAST_NET).run(50)
        slow = sim_for(JACOBI_SRC, (2, 2), net=SLOW_NET).run(50)
        assert slow.total_time > fast.total_time
        assert max(slow.comm_time) > max(fast.comm_time)

    def test_pipelined_seidel_serializes_with_barriers(self):
        # whole-face pipelining + barrier syncs: the self-dependent sweep
        # gives almost no speedup
        t1 = sim_for(SEIDEL_SRC, (1, 1), chunks=1).run(50).total_time
        t4 = sim_for(SEIDEL_SRC, (4, 1), chunks=1).run(50).total_time
        assert t1 / t4 < 2.0  # far below the 4x a Jacobi loop would get

    def test_chunking_improves_pipeline(self):
        coarse = sim_for(SEIDEL_SRC, (4, 1), chunks=1).run(50).total_time
        fine = sim_for(SEIDEL_SRC, (4, 1), chunks=8).run(50).total_time
        assert fine <= coarse

    def test_pipe_wait_attributed(self):
        s = sim_for(SEIDEL_SRC, (4, 1), chunks=1).run(20)
        assert max(s.pipe_wait) > 0.0


class TestMemoryEffects:
    def test_cache_superlinearity(self):
        machine = MachineModel(NodeModel(flop_time=1e-7,
                                         cache_bytes=1 << 10,
                                         knee_bytes=2 << 10,
                                         knee_penalty=3.0))
        t1 = sim_for(JACOBI_SRC, (1, 1), machine=machine).run(40).total_time
        t4 = sim_for(JACOBI_SRC, (2, 2), machine=machine).run(40).total_time
        assert t1 / t4 > 4.0  # superlinear

    def test_oom_reported(self):
        machine = MachineModel(NodeModel(mem_bytes=1 << 10))
        s = sim_for(JACOBI_SRC, (1, 1), machine=machine).run(5)
        assert s.any_oom
        assert s.oom_ranks == [0]

    def test_working_set_shrinks_with_ranks(self):
        s1 = sim_for(JACOBI_SRC, (1, 1)).run(2)
        s4 = sim_for(JACOBI_SRC, (2, 2)).run(2)
        assert max(s4.working_set) < s1.working_set[0]


class TestExtrapolation:
    def test_long_runs_extrapolated_consistently(self):
        sim = sim_for(JACOBI_SRC, (2, 1))
        t100 = sim_for(JACOBI_SRC, (2, 1)).run(100).total_time
        t200 = sim_for(JACOBI_SRC, (2, 1)).run(200).total_time
        # steady state: doubling frames roughly doubles time
        assert t200 / t100 == pytest.approx(2.0, rel=0.05)

    def test_zero_frames_rejected(self):
        with pytest.raises(SimulationError):
            sim_for(JACOBI_SRC, (2, 1)).run(0)

    def test_breakdown_sums_to_total(self):
        s = sim_for(JACOBI_SRC, (2, 1), net=SLOW_NET).run(60)
        for r in range(2):
            parts = s.compute_time[r] + s.comm_time[r] + s.pipe_wait[r]
            assert parts == pytest.approx(s.per_rank[r], rel=0.05)


class TestResultHelpers:
    def test_speedup_and_efficiency(self):
        s = sim_for(JACOBI_SRC, (2, 1)).run(30)
        assert s.speedup(s.total_time * 2) == pytest.approx(2.0)
        assert s.efficiency(s.total_time * 2, 2) == pytest.approx(1.0)


class TestSimHealthSamples:
    def test_traffic_counters_scale_with_frames(self):
        # both runs simulate every frame
        assert WARMUP_FRAMES >= 8
        short = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(4)
        long = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(8)
        assert sum(long.sent_bytes) == 2 * sum(short.sent_bytes)
        assert sum(long.recv_bytes) == sum(long.sent_bytes)
        assert all(n > 0 for n in long.sent_msgs)

    def test_extrapolated_frames_scale_traffic_exactly(self):
        # the second half of run(48) is extrapolated from the first
        explicit = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(WARMUP_FRAMES)
        extrap = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(2 * WARMUP_FRAMES)
        assert extrap.sent_bytes == [2 * b for b in explicit.sent_bytes]
        assert extrap.recv_msgs == [2 * n for n in explicit.recv_msgs]

