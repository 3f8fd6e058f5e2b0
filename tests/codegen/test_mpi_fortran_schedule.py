"""Generated MPI-Fortran artifact and schedule extraction."""

import re

import pytest

from repro.codegen.mpi_fortran import print_mpi_fortran
from repro.codegen.schedule import (
    CommPhase,
    ComputePhase,
    ReducePhase,
    extract_schedule,
)
from repro.core import AutoCFD
from repro.errors import CodegenError
from repro.fortran import ast as A
from repro.fortran.intrinsics_table import is_intrinsic
from repro.fortran.parser import parse_source

from tests.conftest import JACOBI_BC_SRC, JACOBI_SRC, SEIDEL_SRC


#: Jacobi whose exit test reads an integer max of the scaled change
INTEGER_MAX_SRC = JACOBI_SRC.replace(
    "real v(n, m), vnew(n, m), err, eps",
    "real v(n, m), vnew(n, m), err, eps\n  integer kmax").replace(
    "    err = 0.0\n", "    err = 0.0\n    kmax = 0\n").replace(
    "        err = amax1(err, abs(vnew(i, j) - v(i, j)))\n",
    "        err = amax1(err, abs(vnew(i, j) - v(i, j)))\n"
    "        kmax = max0(kmax, int(1.0e6 * abs(vnew(i, j) - v(i, j))))\n"
    ).replace("if (err .lt. eps) exit", "if (kmax .lt. 100) exit")


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
            assert f"subroutine acfd_exchange_{sync.sync_id}(" in text

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
        two = text.split("subroutine acfd_exchange_2(v, err)")[1] \
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
        one = res.mpi_source().split(
            "subroutine acfd_exchange_1(pr, sw, vx)")[1] \
            .split("end subroutine")[0]
        assert "c  entry-only: pr (still fresh from sync 7)" in one
        assert "c  acfd_members: 0 = every array, 1 = sw, vx" in one
        assert one.index("if (acfd_trip .le. 1) acfd_members(1) = 0") \
            < one.index("mpi_sendrecv")

    def test_a_riding_reduction_is_packed_sent_and_folded(self):
        text = compile_src(JACOBI_SRC, (2, 1)).mpi_source()
        assert "call acfd_exchange(2, v, err)" in text
        two = text.split("subroutine acfd_exchange_2(v, err)")[1] \
            .split("end subroutine")[0]
        assert "  real err\n" in two
        # per neighbor: the partial goes behind the packed faces, travels
        # in the same mpi_sendrecv and folds, lower coordinate on the left
        for direction, fold in (
                (-1, "err = max(acfd_recvbuf(acfd_len + 1), err)"),
                (1, "err = max(err, acfd_recvbuf(acfd_len + 1))")):
            face = two.split(f"if (acfd_nbr(1, {direction}) .ge. 0)")[1] \
                .split("end if")[0]
            steps = [f"call acfd_pack_faces(2, 1, {direction}, acfd_sendbuf)",
                     "acfd_sendbuf(acfd_len + 1) = err",
                     "call mpi_sendrecv(acfd_sendbuf, acfd_len + 1, ",
                     f"call acfd_unpack_faces(2, 1, {direction}, "
                     "acfd_recvbuf)", fold]
            at = [face.index(step) for step in steps]
            assert at == sorted(at)
        assert "mpi_allreduce" not in two

    def test_more_than_two_ranks_on_a_cut_dim_fold_in_an_allreduce(self):
        text = compile_src(JACOBI_SRC, (4, 1)).mpi_source()
        assert "call acfd_exchange(2, v, err)" in text
        two = text.split("subroutine acfd_exchange_2(v, err)")[1] \
            .split("end subroutine")[0]
        assert "acfd_len" not in two
        assert two.index("call acfd_unpack_faces(2, 1, 1, acfd_recvbuf)") \
            < two.index("  err = acfd_allreduce_max(err)\n")

    def test_the_library_prints_the_allreduce_of_each_op_used(self):
        def ops(text):
            return [op for op in ("max", "min", "sum")
                    if f"real function acfd_allreduce_{op}(x)" in text]
        assert ops(compile_src(JACOBI_SRC, (4, 1)).mpi_source()) == ["max"]
        src = JACOBI_SRC.replace("err = amax1(", "err = amin1(")
        res = compile_src(src, (4, 1))
        assert [r.op for r in res.plan.reductions[0].reductions] == ["min"]
        text = res.mpi_source()
        assert ops(text) == ["max", "min"]
        assert ("call mpi_allreduce(x, y, 1, mpi_real, mpi_min, "
                "mpi_comm_world, ierr)") in text
        assert "  err = acfd_allreduce_min(err)\n" in text

    def test_an_entry_only_sync_still_reduces_what_rides_it(self):
        import dataclasses

        from repro.codegen.mpi_fortran import _exchange_subroutine
        res = compile_src(JACOBI_SRC, (2, 1))
        # sync 1 sends v on the first frame only; give it err to carry
        sync = dataclasses.replace(res.plan.syncs[0],
                                   reductions=[("err", "max")])
        assert sync.steady == []
        one = _exchange_subroutine(res.plan, sync)
        assert ("  if (acfd_trip .gt. 1) then\n"
                "    err = acfd_allreduce_max(err)\n"
                "    return\n"
                "  end if\n") in one
        assert "  real err\n" in one
        assert one.index("end if") < one.index("mpi_sendrecv")

    def test_the_sprayer_broadcasts_its_fan_position_as_an_integer(self):
        from repro.apps.sprayer import sprayer_source
        res = compile_src(sprayer_source(n=48, m=20, iters=4), (2, 1))
        text = res.mpi_source()
        assert "  integer fanpos\n" in text
        assert "  fanspd = acfd_bcast(fanspd)\n" in text
        assert "  fanpos = acfd_bcast_int(fanpos)\n" in text
        fn = text.split("integer function acfd_bcast_int(x)\n")[1] \
            .split("end function")[0]
        assert "  integer x\n" in fn
        assert ("call mpi_bcast(x, 1, mpi_integer, 0, mpi_comm_world, "
                "ierr)") in fn
        # the real broadcast stays, over mpi_real
        assert "real function acfd_bcast(x)" in text
        # only the printed artifact names the typed function
        assert "fanpos = acfd_bcast(fanpos)" in res.parallel_source()

    def test_an_integer_max_rides_the_faces_exactly(self):
        src = INTEGER_MAX_SRC
        res = compile_src(src, (2, 1))
        assert [(r.var, r.op) for r in res.plan.reductions[0].reductions] \
            == [("err", "max"), ("kmax", "max")]
        two = res.mpi_source().split(
            "subroutine acfd_exchange_2(v, err, kmax)")[1] \
            .split("end subroutine")[0]
        assert "  integer kmax\n" in two
        # the integer's bits travel in the real buffer, behind err
        assert ("    acfd_sendbuf(acfd_len + 2) = transfer(kmax, "
                "acfd_sendbuf(1))\n") in two
        assert "call mpi_sendrecv(acfd_sendbuf, acfd_len + 2, " in two
        assert ("    kmax = max(transfer(acfd_recvbuf(acfd_len + 2), kmax), "
                "kmax)\n") in two
        assert ("    kmax = max(kmax, transfer(acfd_recvbuf(acfd_len + 2), "
                "kmax))\n") in two
        # and the Python runtime folds it exactly as well
        par = res.run_parallel(timeout=30.0)
        seq = AutoCFD.from_source(src).run_sequential()
        assert par.scalar("kmax") == seq.scalar("kmax") > 0

    def test_a_double_precision_partial_rides_in_two_slots(self):
        src = JACOBI_SRC.replace(
            "real v(n, m), vnew(n, m), err, eps",
            "real v(n, m), vnew(n, m), eps\n  double precision err").replace(
            "err = amax1(", "err = dmax1(")
        two = compile_src(src, (2, 1)).mpi_source()
        assert "doubleprecision function acfd_allreduce_max_dble(x)" in two
        two = two.split("subroutine acfd_exchange_2(v, err)")[1] \
            .split("end subroutine")[0]
        assert ("    acfd_sendbuf(acfd_len + 1:acfd_len + 2) = transfer(err, "
                "acfd_sendbuf(1:2))\n") in two
        assert "call mpi_sendrecv(acfd_sendbuf, acfd_len + 2, " in two
        assert ("    err = max(transfer(acfd_recvbuf(acfd_len + 1:acfd_len + "
                "2), err), err)\n") in two

    def test_an_integer_max_after_a_round_calls_the_integer_allreduce(self):
        text = compile_src(INTEGER_MAX_SRC, (4, 1)).mpi_source()
        two = text.split("subroutine acfd_exchange_2(v, err, kmax)")[1] \
            .split("end subroutine")[0]
        assert "  err = acfd_allreduce_max(err)\n" in two
        assert "  kmax = acfd_allreduce_max_int(kmax)\n" in two
        fn = text.split("integer function acfd_allreduce_max_int(x)\n")[1] \
            .split("end function")[0]
        assert ("call mpi_allreduce(x, y, 1, mpi_integer, mpi_max, "
                "mpi_comm_world, ierr)") in fn

    def test_nothing_demoted_prints_no_guard(self):
        text = compile_src(JACOBI_BC_SRC, (2, 1)).mpi_source()
        assert "entry-only" not in text
        assert "acfd_members" not in text

    def test_header_mentions_partition(self):
        res = compile_src(JACOBI_SRC, (2, 2))
        assert "partition: 2x2" in res.mpi_source()


#: a probe WRITE of a real and an integer array: two acfd_get types
PROBE_SRC = """\
!$acfd status v
!$acfd grid 8 6
!$acfd frame it
program probe
  implicit none
  integer i, j, n, m, it
  parameter (n = 8, m = 6)
  real v(n, m)
  integer k(n, m)
  do it = 1, 2
    do i = 1, n
      do j = 1, m
        v(i, j) = 0.5 * i
        k(i, j) = i + j
      end do
    end do
  end do
  write (6, *) v(n, 1), k(n, m)
end
"""


#: an integer status array riding both syncs beside a real one
INT_SYNC_SRC = """\
!$acfd status v, k
!$acfd grid 8 6
!$acfd frame it
program intsync
  implicit none
  integer i, j, n, m, it
  parameter (n = 8, m = 6)
  real v(n, m)
  integer k(n, m)
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.0
      k(i, j) = i + j
    end do
  end do
  do it = 1, 3
    do i = 2, n - 1
      do j = 2, m - 1
        v(i, j) = v(i - 1, j) + v(i + 1, j) + k(i - 1, j) + k(i + 1, j)
      end do
    end do
    do i = 2, n - 1
      do j = 2, m - 1
        k(i, j) = k(i, j) + 1
      end do
    end do
  end do
  write (6, *) v(2, 2)
end
"""


def _printed_units(text: str) -> list[list[str]]:
    """The lines of each program unit of the artifact's program part."""
    program = text.split("generated MPI runtime")[0]
    return [unit.splitlines() for unit in re.split(r"\nend \w+ \w+\n",
                                                   program)[:-1]]


def _declared(line: str) -> set[str]:
    """The names a type declaration line declares (empty: not one)."""
    m = re.match(r"\s*(?:integer|real|double precision|logical) (.*)$",
                 line)
    if m is None or " function " in line:
        return set()
    entities = m.group(1)
    while "(" in entities:  # drop array bounds, innermost first
        entities = re.sub(r"\([^()]*\)", "", entities)
    return {name.strip() for name in entities.split(",")}


class TestLibraryDeclarations:
    @pytest.mark.parametrize("name", ["sprayer", "jacobi_5pt_sub", "probe"])
    def test_each_unit_declares_the_library_functions_it_calls(self, name):
        from repro.apps import kernels
        from repro.apps.sprayer import sprayer_source
        src = {"sprayer": lambda: sprayer_source(n=60, m=40, iters=4),
               "jacobi_5pt_sub": lambda: kernels.jacobi_5pt_sub(
                   n=16, m=8, iters=2),
               "probe": lambda: PROBE_SRC}[name]()
        text = compile_src(src, (2, 2)).mpi_source()
        seen = set()
        for lines in _printed_units(text):
            calls = {m.group(1) for line in lines[1:]
                     for m in re.finditer(r"(?<!call )\b(acfd_\w+)\(",
                                          line)}
            declared = set().union(*map(_declared, lines))
            assert calls <= declared, (lines[0], calls - declared)
            seen |= calls
        # the functions each program is known to call, typed
        assert {"acfd_rank", "acfd_lo", "acfd_lb", "acfd_frame"} <= seen
        if name == "sprayer":
            assert "  integer acfd_bcast_int, acfd_frame, acfd_hi, " \
                "acfd_lb, acfd_lo, acfd_rank, acfd_ub\n" in text
            assert "  real acfd_bcast\n" in text
        elif name == "jacobi_5pt_sub":
            assert "  logical acfd_owns\n" in text
        else:
            assert "  real acfd_get\n" in text
            assert "acfd_get_int(k, n, m)" in text

    @pytest.mark.parametrize("name", ["sprayer", "jacobi_5pt_sub", "probe"])
    @pytest.mark.parametrize("dims", [(2, 1), (2, 2)])
    def test_each_unit_declares_every_name_it_uses(self, name, dims):
        from repro.apps import kernels
        from repro.apps.sprayer import sprayer_source
        src = {"sprayer": lambda: sprayer_source(n=60, m=40, iters=4),
               "jacobi_5pt_sub": lambda: kernels.jacobi_5pt_sub(
                   n=16, m=8, iters=2),
               "probe": lambda: PROBE_SRC}[name]()
        text = compile_src(src, dims).mpi_source()
        program = "\n".join(
            line for line in text.split("generated MPI runtime")[0]
            .splitlines() if not re.match(r"c( |$)", line))
        for unit in parse_source(program, form="free",
                                 resolve=False).units:
            used = {node.name for node in A.walk(unit)
                    if isinstance(node, (A.Var, A.Apply))}
            declared = {entity for decl in unit.decls
                        if isinstance(decl, A.Declaration)
                        for entity, _dims in decl.entities}
            undeclared = {n for n in used - declared - set(unit.args)
                          if not is_intrinsic(n)}
            assert not undeclared, (unit.name, sorted(undeclared))
        if name == "probe":
            # the library prints each probe fetch the program calls
            assert "  real acfd_probe1\n  integer acfd_probe2\n" in text
            assert "real function acfd_get(a, i1, i2)\n" in text
            assert "integer function acfd_get_int(a, i1, i2)\n" in text

    def test_exchange_wrappers_declare_each_array_with_its_type(self):
        compiled = compile_src(INT_SYNC_SRC, (2, 1))
        assert all("k" in dict(sync.arrays) for sync in compiled.plan.syncs)
        text = compiled.mpi_source()
        wrappers = text.split("subroutine acfd_exchange_")[1:]
        assert len(wrappers) == 2 * len(compiled.plan.syncs)  # start, end
        for body in wrappers[::2]:
            assert "\n  integer k(acfd_lb1:acfd_ub1, acfd_lb2:acfd_ub2)\n" \
                in body
            assert "\n  real v(acfd_lb1:acfd_ub1, acfd_lb2:acfd_ub2)\n" in body

    def test_probes_of_two_shapes_cannot_share_one_fetch(self):
        # Fortran 77 has no generic functions: one acfd_get takes one
        # dummy shape, and a packed array's third dimension is another
        src = PROBE_SRC.replace("  real v(n, m)\n",
                                "  real v(n, m), q(n, m, 2)\n").replace(
            "        k(i, j) = i + j\n",
            "        k(i, j) = i + j\n        q(i, j, 2) = 1.0\n").replace(
            "write (6, *) v(n, 1), k(n, m)", "write (6, *) v(n, 1), q(n, 1, 2)")
        result = compile_src(src, (2, 1))
        assert "q" in result.plan.arrays
        with pytest.raises(CodegenError, match="share acfd_get"):
            result.mpi_source()


class TestScheduleExtraction:
    def test_jacobi_phases(self):
        res = compile_src(JACOBI_SRC, (2, 1))
        sched = extract_schedule(res.plan)
        kinds = [type(p).__name__ for p in sched.phases]
        assert "ComputePhase" in kinds
        assert "CommPhase" in kinds
        # at 2x1 the residual folds on the faces; at 4x1 an allreduce
        # follows the same round
        assert "ReducePhase" not in kinds
        assert [p.reductions for p in sched.comm_phases] == [1]
        sched = extract_schedule(compile_src(JACOBI_SRC, (4, 1)).plan)
        assert [type(p).__name__ for p in sched.phases][-2:] \
            == ["CommPhase", "ReducePhase"]
        assert [p.reductions for p in sched.comm_phases] == [0]

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
