"""Generated MPI-Fortran artifact and schedule extraction."""

from repro.codegen.mpi_fortran import print_mpi_fortran
from repro.codegen.schedule import (
    CommPhase,
    ComputePhase,
    ReducePhase,
    extract_schedule,
)
from repro.core import AutoCFD

from tests.conftest import JACOBI_BC_SRC, JACOBI_SRC, SEIDEL_SRC


def compile_src(src, partition):
    return AutoCFD.from_source(src).compile(partition=partition)


class TestMpiFortran:
    def test_contains_program_and_runtime(self):
        res = compile_src(JACOBI_SRC, (2, 1))
        text = res.mpi_source()
        assert "program jacobi" in text
        assert "mpi_init" in text
        assert "mpi_sendrecv" in text
        assert "mpi_allreduce" in text

    def test_exchange_wrapper_per_sync(self):
        res = compile_src(JACOBI_SRC, (2, 1))
        text = res.mpi_source()
        for sync in res.plan.syncs:
            if res.plan.overlap_enabled(sync.sync_id):
                assert f"acfd_exchange_begin_{sync.sync_id}" in text
                assert f"acfd_exchange_finish_{sync.sync_id}" in text
            else:
                assert f"acfd_exchange_{sync.sync_id}" in text

    def test_pipeline_wrappers_for_seidel(self):
        res = compile_src(SEIDEL_SRC, (2, 1))
        text = res.mpi_source()
        assert "acfd_pipe_recv_1" in text
        assert "acfd_pipe_send_1" in text
        assert "mirror-image decomposition" in text

    def test_entry_only_sync_returns_after_the_first_frame(self):
        res = compile_src(JACOBI_SRC, (2, 1))
        text = res.mpi_source()
        one = text.split("subroutine acfd_exchange_1(v)")[1] \
            .split("end subroutine")[0]
        assert ("c  entry-only: v (still fresh from sync 2), sent on the "
                "first frame only") in one
        # the guard sits ahead of every face transfer
        assert one.index("if (acfd_trip .gt. 1) return") \
            < one.index("mpi_sendrecv")
        two = text.split("subroutine acfd_exchange_2(v)")[1] \
            .split("end subroutine")[0]
        assert "acfd_trip" not in two and "entry-only" not in two
        # the frame hook counts the trips the guard reads
        hook = text.split("integer function acfd_frame(")[1]
        assert "acfd_trip = acfd_trip + 1" in hook

    def test_partly_entry_only_sync_switches_member_set(self):
        from repro.apps.sprayer import sprayer_source
        res = compile_src(sprayer_source(n=48, m=20, iters=4), (2, 1))
        sync = res.plan.syncs[0]
        assert list(sync.entry_only) == ["pr"]
        assert [name for name, _d in sync.steady] == ["sw", "vx"]
        begin = res.mpi_source().split(
            "subroutine acfd_exchange_begin_1(pr, sw, vx)")[1] \
            .split("end subroutine")[0]
        assert "c  entry-only: pr (still fresh from sync 7)" in begin
        assert "c  acfd_members: 0 = every array, 1 = sw, vx" in begin
        assert begin.index("if (acfd_trip .le. 1) acfd_members(1) = 0") \
            < begin.index("mpi_irecv")

    def test_nothing_demoted_prints_no_guard(self):
        text = compile_src(JACOBI_BC_SRC, (2, 1)).mpi_source()
        assert "entry-only" not in text
        assert "acfd_members" not in text

    def test_header_mentions_partition(self):
        res = compile_src(JACOBI_SRC, (2, 2))
        assert "partition: 2x2" in res.mpi_source()


class TestScheduleExtraction:
    def test_jacobi_phases(self):
        res = compile_src(JACOBI_SRC, (2, 1))
        sched = extract_schedule(res.plan)
        kinds = [type(p).__name__ for p in sched.phases]
        assert "ComputePhase" in kinds
        assert "CommPhase" in kinds
        assert "ReducePhase" in kinds

    def test_only_frame_phases(self):
        res = compile_src(JACOBI_SRC, (2, 1))
        sched = extract_schedule(res.plan)
        # the three init loops are outside the frame loop
        names = [p.name for p in sched.compute_phases]
        assert len(names) == 2  # stencil loop + copy loop

    def test_pipeline_dims_recorded(self):
        res = compile_src(SEIDEL_SRC, (2, 1))
        sched = extract_schedule(res.plan)
        pipelined = [p for p in sched.compute_phases if p.pipeline_dims]
        assert len(pipelined) == 1
        assert pipelined[0].pipeline_dims == (0,)

    def test_ops_per_point_positive(self):
        res = compile_src(JACOBI_SRC, (2, 2))
        sched = extract_schedule(res.plan)
        for p in sched.compute_phases:
            assert p.ops_per_point >= 1

    def test_comm_phases_match_plan_syncs_in_frame(self):
        res = compile_src(JACOBI_SRC, (2, 1))
        sched = extract_schedule(res.plan)
        assert len(sched.comm_phases) <= len(res.plan.syncs)
        for phase in sched.comm_phases:
            assert phase.arrays

    def test_schedule_carries_the_steady_members_only(self):
        # frame-periodic: the entry-only sync 1 is no phase at all
        res = compile_src(JACOBI_SRC, (2, 1))
        assert [p.sync_id for p in extract_schedule(res.plan).comm_phases] \
            == [2]
        # at 2x2 the pass refuses (two cut dimensions): both stay
        res = compile_src(JACOBI_SRC, (2, 2))
        assert [p.sync_id for p in extract_schedule(res.plan).comm_phases] \
            == [1, 2]
