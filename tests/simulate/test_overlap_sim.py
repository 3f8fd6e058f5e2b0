"""Cluster model of overlapped exchanges: hidden latency, never slower.

The simulator must predict the same *direction* the runtime shows
(``acfd profile``'s drift table sets the two side by side): an
overlapped exchange fused with its split consumer loop pays the same
injection cost, hides flight time under interior work, and only stalls
for the residual — so total time is never worse than blocking, and the
hidden time lands in the roll-up's ``overlap`` column.
"""

import pytest

from repro.codegen.schedule import CommPhase, extract_schedule
from repro.core import AutoCFD
from repro.simulate import ClusterSim, MachineModel, NodeModel, NetworkModel

# plain JACOBI_SRC's stencil sync is entry-only on a 2x1 cut (never
# split, not on the periodic schedule); the boundary refresh keeps it
from tests.conftest import JACOBI_BC_SRC as JACOBI_SRC

#: latency-heavy network: plenty of flight time to hide
LAGGY_NET = NetworkModel(latency=2e-3, bandwidth=1e8, shared_medium=False)
CPU = MachineModel(NodeModel(flop_time=1e-7, cache_bytes=1 << 30))


def plans(dims):
    acfd = AutoCFD.from_source(JACOBI_SRC)
    return (acfd.compile(partition=dims, overlap="off").plan,
            acfd.compile(partition=dims, overlap="on").plan)


class TestSchedule:
    def test_comm_phase_carries_the_overlap_flag(self):
        blocking, overlapped = plans((2, 1))
        off = [p for p in extract_schedule(blocking).phases
               if isinstance(p, CommPhase)]
        on = [p for p in extract_schedule(overlapped).phases
              if isinstance(p, CommPhase)]
        assert all(not p.overlap for p in off)
        assert any(p.overlap for p in on)
        # the copy-loop sync stays blocking in both
        assert not all(p.overlap for p in on)


class TestOverlapModel:
    def test_overlap_never_slower_and_hides_latency(self):
        blocking, overlapped = plans((2, 2))
        t_block = ClusterSim(blocking, machine=CPU,
                             network=LAGGY_NET).run(50)
        t_over = ClusterSim(overlapped, machine=CPU,
                            network=LAGGY_NET).run(50)
        assert t_over.total_time <= t_block.total_time
        assert sum(t_over.overlap_time) > 0.0
        assert sum(t_block.overlap_time) == 0.0

    def test_hidden_time_lands_in_the_rollup(self):
        _, overlapped = plans((2, 2))
        out = ClusterSim(overlapped, machine=CPU,
                         network=LAGGY_NET).run(50)
        roll = out.rollup()
        assert sum(r.overlap for r in roll.ranks) == \
            pytest.approx(sum(out.overlap_time))
        assert roll.hidden_halo_fraction > 0.0
        assert "hidden halo fraction" in roll.table()

    def test_overlap_time_extrapolates_with_frames(self):
        _, overlapped = plans((2, 2))
        sim = ClusterSim(overlapped, machine=CPU, network=LAGGY_NET)
        short = sim.run(50)
        long = ClusterSim(overlapped, machine=CPU,
                          network=LAGGY_NET).run(5000)
        assert sum(long.overlap_time) > 10 * sum(short.overlap_time)

    def test_breakdown_still_sums_to_total(self):
        # overlap is hidden time, not wall time: compute+comm+pipe_wait
        # must still cover each rank's clock
        _, overlapped = plans((2, 2))
        out = ClusterSim(overlapped, machine=CPU,
                         network=LAGGY_NET).run(30)
        for r in range(len(out.per_rank)):
            parts = (out.compute_time[r] + out.comm_time[r]
                     + out.pipe_wait[r])
            assert parts == pytest.approx(out.per_rank[r], rel=1e-6)

    def test_timeline_spans_mark_overlap(self):
        _, overlapped = plans((2, 2))
        sim = ClusterSim(overlapped, machine=CPU, network=LAGGY_NET,
                         record_timeline=True)
        out = sim.run(10)
        cats = {s.cat for s in out.spans}
        assert "overlap" in cats
