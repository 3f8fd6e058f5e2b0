"""Interior/boundary loop splitting around nonblocking exchanges.

The tentpole contract: a halo-synchronized consumer nest is rewritten to

    call acfd_exchange_begin(k, ...)
    do <interior>            ! no ghost reads, runs while messages fly
    call acfd_exchange_finish(k, ...)
    do <boundary strips>     ! the peeled rim that reads ghosts

exactly when safety is provable, and refuses — with a recorded reason —
otherwise, keeping the blocking exchange (the vectorizer's ``Fallback``
discipline).
"""

import functools

import pytest

from repro.apps import kernels
from repro.codegen.normalize import normalize_compilation_unit
from repro.codegen.plan import build_plan
from repro.codegen.restructure import restructure
from repro.core.pipeline import AutoCFD
from repro.errors import CodegenError
from repro.fortran.parser import parse_source
from repro.fortran.printer import print_compilation_unit
from repro.partition.grid import GridGeometry
from repro.partition.partitioner import Partition

from tests.conftest import (JACOBI_BC_SRC, JACOBI_SRC, SEIDEL_SRC,
                            with_boundary_refresh)


def compiled(src: str, dims, overlap="auto"):
    cu = normalize_compilation_unit(parse_source(src))
    plan = build_plan(cu, Partition(GridGeometry(cu.directives.grid_shape),
                                    dims), overlap=overlap)
    text = print_compilation_unit(restructure(plan))
    return plan, text


def decision(plan, sync_id):
    return next(d for d in plan.overlap_decisions if d.sync_id == sync_id)


class TestSplitStructure:
    def test_jacobi_splits_into_begin_interior_finish_strips(self):
        plan, text = compiled(JACOBI_BC_SRC, (2, 1))
        assert decision(plan, 1).enabled
        assert "call acfd_exchange_begin(1, v)" in text
        assert "call acfd_exchange_finish(1, v)" in text
        assert "acfd_exchange(1," not in text
        # interior is clamped one layer inside the owned block; the two
        # strips cover the peeled rim
        begin_at = text.index("acfd_exchange_begin(1")
        finish_at = text.index("acfd_exchange_finish(1")
        interior = text[begin_at:finish_at]
        assert "acfd_lo(1) + 1" in interior
        assert "acfd_hi(1) - 1" in interior

    def test_2x2_splits_both_dimensions(self):
        plan, text = compiled(JACOBI_SRC, (2, 2))
        assert decision(plan, 1).enabled
        # dim 1 and dim 2 both get interior margins
        begin_at = text.index("acfd_exchange_begin(1")
        finish_at = text.index("acfd_exchange_finish(1")
        interior = text[begin_at:finish_at]
        assert "acfd_lo(1) + 1" in interior
        assert "acfd_lo(2) + 1" in interior
        # four boundary strips after finish (low/high per split dim)
        tail = text[finish_at:]
        assert tail.count("do ") >= 8  # 4 strips x 2-level nests

    def test_mode_off_keeps_blocking_exchange(self):
        plan, text = compiled(JACOBI_SRC, (2, 1), overlap="off")
        assert "acfd_exchange_begin" not in text
        assert "call acfd_exchange(1, v)" in text
        assert all(not d.enabled for d in plan.overlap_decisions)
        assert decision(plan, 1).reason == "overlap disabled (mode off)"

    def test_invalid_mode_rejected(self):
        with pytest.raises(CodegenError, match="overlap mode"):
            compiled(JACOBI_SRC, (2, 1), overlap="maybe")

    def test_reduction_still_allreduced_after_strips(self):
        # err accumulates across interior + strips; the allreduce must
        # come after every partial nest
        _plan, text = compiled(JACOBI_BC_SRC, (2, 1))
        finish_at = text.index("acfd_exchange_finish(1")
        red_at = text.index("acfd_allreduce_max")
        assert red_at > finish_at


class TestRefusals:
    def test_entry_only_sync_is_not_split(self):
        # plain Jacobi: v is still fresh from the bottom-of-frame sync,
        # so sync 1 sends on the first trip only and its consumer nest
        # runs whole behind the blocking call
        plan, text = compiled(JACOBI_SRC, (2, 1))
        assert plan.syncs[0].steady == []
        d = decision(plan, 1)
        assert not d.enabled
        assert d.reason == "nothing to send after the first frame"
        assert "call acfd_exchange(1, v)" in text
        assert "acfd_exchange_begin" not in text

    def test_pipelined_consumer_refused(self):
        plan, text = compiled(with_boundary_refresh(SEIDEL_SRC), (2, 1))
        d = decision(plan, 1)
        assert not d.enabled
        assert "pipelined" in d.reason
        assert "acfd_exchange_begin" not in text

    def test_diagonal_reader_refused_on_two_cut_dims(self):
        acfd = AutoCFD.from_source(kernels.jacobi_9pt())
        plan = acfd.compile(partition=(2, 2)).plan
        d = decision(plan, 1)
        assert not d.enabled
        assert "corner" in d.reason or "diagonal" in d.reason

    def test_diagonal_reader_allowed_on_one_cut_dim(self):
        # with a single cut dimension there are no corner transfers, so
        # the nine-point stencil overlaps safely
        acfd = AutoCFD.from_source(with_boundary_refresh(kernels.jacobi_9pt()))
        plan = acfd.compile(partition=(2, 1)).plan
        assert decision(plan, 1).enabled

    def test_scalar_read_after_nest_refused(self):
        # i's exit value changes when the nest is split; reading it
        # right after the nest must refuse the overlap
        src = JACOBI_BC_SRC.replace(
            "    end do\n"
            "    do i = 2, n - 1\n"
            "      do j = 2, m - 1\n"
            "        v(i, j) = vnew(i, j)",
            "    end do\n"
            "    err = err + i\n"
            "    do i = 2, n - 1\n"
            "      do j = 2, m - 1\n"
            "        v(i, j) = vnew(i, j)")
        assert "err = err + i" in src
        plan, text = compiled(src, (2, 1))
        d = decision(plan, 1)
        assert not d.enabled
        assert "'i'" in d.reason
        assert "acfd_exchange_begin" not in text

    def test_scalar_killed_by_later_loop_is_not_live(self):
        # the copy nest reassigns i/j before this read — the kill
        # semantics must not false-positive on it
        src = JACOBI_BC_SRC.replace("    if (err .lt. eps) exit",
                                 "    err = err + i\n"
                                 "    if (err .lt. eps) exit")
        plan, _ = compiled(src, (2, 1))
        assert decision(plan, 1).enabled

    def test_every_sync_gets_a_decision(self):
        plan, _ = compiled(JACOBI_SRC, (2, 1))
        assert {d.sync_id for d in plan.overlap_decisions} \
            == {s.sync_id for s in plan.syncs}
        for d in plan.overlap_decisions:
            assert d.enabled or d.reason


class TestReportAndPlan:
    def test_report_counts_and_refusals(self):
        acfd = AutoCFD.from_source(JACOBI_BC_SRC)
        report = acfd.compile(partition=(2, 1)).report
        assert report.overlap_syncs == 1
        assert all(reason for _sid, reason in report.overlap_refusals)
        d = report.to_dict()
        assert d["overlap_syncs"] == 1
        assert d["overlap_refusals"][0]["reason"]

    def test_plan_overlap_enabled_query(self):
        acfd = AutoCFD.from_source(JACOBI_BC_SRC)
        plan = acfd.compile(partition=(2, 1)).plan
        assert plan.overlap_enabled(1)
        assert not plan.overlap_enabled(2)
        assert not plan.overlap_enabled(999)


class TestMpiFortranArtifact:
    def test_overlapped_sync_prints_nonblocking_wrappers(self):
        acfd = AutoCFD.from_source(JACOBI_BC_SRC)
        result = acfd.compile(partition=(2, 1))
        text = result.mpi_source()
        assert "subroutine acfd_exchange_begin_1(v)" in text
        assert "subroutine acfd_exchange_finish_1(v)" in text
        assert "mpi_irecv" in text
        assert "mpi_isend" in text
        assert "mpi_waitall" in text
        # the non-overlapped sync keeps the blocking sendrecv wrapper
        assert "subroutine acfd_exchange_2(" in text
        assert "mpi_sendrecv" in text

    def test_blocking_mode_prints_only_sendrecv(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        result = acfd.compile(partition=(2, 1), overlap="off")
        text = result.mpi_source()
        assert "mpi_isend" not in text
        assert "mpi_waitall" not in text


def sub_src():
    return kernels.jacobi_5pt_sub(n=12, m=8, iters=6)


def unit_text(text: str, name: str) -> str:
    """Body of subroutine *name* in printed program *text*."""
    return text.split(f"subroutine {name}(", 1)[1] \
        .split("end subroutine", 1)[0]


class TestInterprocedural:
    """Exchange before a call: sunk into the callee, which is split in
    place and still called once."""

    def test_exchange_sinks_into_the_callee(self):
        plan, text = compiled(sub_src(), (2, 2))
        d = decision(plan, 1)
        assert d.enabled and d.callee == "relaxx"
        main = text.split("subroutine relaxx(", 1)[0]
        assert "acfd_exchange(1," not in text
        assert "acfd_exchange_begin(1," not in main
        assert "acfd_exchange_finish(1," not in main
        assert main.count("call relaxx()") == 1
        relaxx = unit_text(text, "relaxx")
        at = [relaxx.index(s) for s in (
            "call acfd_exchange_begin(1, v)",
            "acfd_lo(1) + 1",                  # interior margins
            "call acfd_exchange_finish(1, v)",
            "min0(n - 1, acfd_hi(1)), acfd_lo(1))")]  # low strip, dim 1
        assert at == sorted(at)
        assert "_acfd_" not in text

    def test_reduction_init_runs_once_and_allreduce_lands_in_boundary(self):
        # err = 0.0 stays ahead of begin (one execution per call); the
        # allreduce finalization must wait for the last boundary strip
        _plan, text = compiled(sub_src(), (2, 2))
        relaxx = unit_text(text, "relaxx")
        assert text.count("err = 0.0") == 1
        assert relaxx.index("err = 0.0") \
            < relaxx.index("call acfd_exchange_begin(1, v)")
        assert relaxx.count("acfd_allreduce_max") == 1
        assert relaxx.rstrip().endswith("err = acfd_allreduce_max(err)")
        assert relaxx.rindex("end do") < relaxx.index("acfd_allreduce_max")

    def test_multi_site_callee_refused(self):
        src = sub_src().replace(
            "    call relaxx()\n    call relaxy()",
            "    call relaxx()\n    call relaxx()\n    call relaxy()")
        plan, text = compiled(src, (2, 2))
        d = decision(plan, 1)
        assert not d.enabled and d.callee == "relaxx"
        assert "2 static call sites" in d.reason
        assert "acfd_exchange_begin" not in text

    def test_status_array_actual_argument_refused(self):
        # passing a halo array by argument aliases it under a second
        # name inside the callee — the footprint summary can't see
        # through that, so the split must refuse
        src = sub_src().replace("    call relaxx()", "    call relaxx(v)")
        src = src.replace(
            "subroutine relaxx()\n  implicit none\n"
            "  integer n, m, i, j\n  parameter (n = 12, m = 8)",
            "subroutine relaxx(w)\n  implicit none\n"
            "  integer n, m, i, j\n  parameter (n = 12, m = 8)\n"
            "  real w(n, m)")
        plan, text = compiled(src, (2, 2))
        d = decision(plan, 1)
        assert not d.enabled
        assert "status array 'v' is passed" in d.reason
        assert "acfd_exchange_begin" not in text

    def test_report_carries_callee_in_decisions(self):
        report = AutoCFD.from_source(sub_src()).compile(
            partition=(2, 2)).report
        decisions = report.to_dict()["overlap_decisions"]
        hit = next(d for d in decisions if d["enabled"])
        assert hit["callee"] == "relaxx"

    def test_mpi_artifact_notes_the_interprocedural_split(self):
        text = AutoCFD.from_source(sub_src()).compile(
            partition=(2, 2)).mpi_source()
        assert ("c  interprocedural split: exchange posted inside "
                "relaxx") in text
        assert "_acfd_" not in text


def same_grids(a, b, arrays):
    return all(a.array(n).data.tobytes() == b.array(n).data.tobytes()
               for n in arrays)


def impure_actual_src():
    """jacobi_5pt_sub with ``call relaxx(bump(iter))``: *bump* is a user
    function counting its own calls in COMMON /cnt/."""
    src = kernels.jacobi_5pt_sub(n=12, m=8, iters=6, eps=0.0)
    src = src.replace("  real v, vnew, err, eps\n",
                      "  real v, vnew, err, eps\n"
                      "  integer bump, ncalls\n"
                      "  common /cnt/ ncalls\n"
                      "  ncalls = 0\n", 1)
    src = src.replace("    call relaxx()", "    call relaxx(bump(iter))")
    src = src.replace("  write (6, *) 'iters', iter, 'err', err\n",
                      "  write (6, *) 'iters', iter, 'err', err\n"
                      "  write (6, *) 'ncalls', ncalls\n")
    src = src.replace("subroutine relaxx()\n  implicit none\n",
                      "subroutine relaxx(k)\n  implicit none\n"
                      "  integer k\n")
    return src + ("\ninteger function bump(k)\n  implicit none\n"
                  "  integer k, ncalls\n  common /cnt/ ncalls\n"
                  "  ncalls = ncalls + 1\n  bump = k\nend\n")


def local_accumulator_src():
    """jacobi_5pt_sub whose x-pass reduces into a callee-local scalar
    and only then publishes it to COMMON /cnv/."""
    src = sub_src()
    head, relaxx = src.split("subroutine relaxx()", 1)
    relaxx, rest = relaxx.split("end\n", 1)
    relaxx = relaxx.replace("real v, vnew, err\n",
                            "real v, vnew, err, loc\n") \
        .replace("  err = 0.0\n", "  loc = 0.0\n") \
        .replace("err = amax1(err,", "loc = amax1(loc,")
    return (head + "subroutine relaxx()" + relaxx + "  err = loc\nend\n"
            + rest)


#: sync 1 ships v and w together, but relaxv only declares v's COMMON
#: (copyback runs first in the frame, so the exchange is needed on every
#: trip and not entry-only)
HIDDEN_ARRAY_SRC = """\
!$acfd status v, w, vnew
!$acfd grid 12 8
!$acfd frame iter
program twoarr
  implicit none
  integer n, m, i, j, iter
  parameter (n = 12, m = 8)
  common /fa/ v(n, m)
  common /fb/ w(n, m)
  common /fo/ vnew(n, m)
  real v, w, vnew
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.1 * i
      w(i, j) = 0.2 * j
      vnew(i, j) = 0.0
    end do
  end do
  do iter = 1, 4
    call copyback()
    call relaxv()
    call relaxw()
  end do
end program twoarr

subroutine relaxv()
  implicit none
  integer n, m, i, j
  parameter (n = 12, m = 8)
  common /fa/ v(n, m)
  common /fo/ vnew(n, m)
  real v, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = 0.25 * (v(i-1, j) + v(i+1, j))
    end do
  end do
end

subroutine relaxw()
  implicit none
  integer n, m, i, j
  parameter (n = 12, m = 8)
  common /fb/ w(n, m)
  common /fo/ vnew(n, m)
  real w, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = vnew(i, j) + 0.25 * (w(i-1, j) + w(i+1, j))
    end do
  end do
end

subroutine copyback()
  implicit none
  integer n, m, i, j
  parameter (n = 12, m = 8)
  common /fa/ v(n, m)
  common /fb/ w(n, m)
  common /fo/ vnew(n, m)
  real v, w, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = vnew(i, j)
      w(i, j) = 0.5 * vnew(i, j)
    end do
  end do
end
"""


class TestSunkFormGate:
    """What the single-call form newly accepts, and what it must refuse
    because the actuals and the callee's leading statements now run
    before the exchange."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_impure_actual_is_evaluated_once_per_call(self, executor):
        # regression: the two-invocation rewrite copied call.args into
        # both invocations and ran bump() twice a frame
        acfd = AutoCFD.from_source(impure_actual_src())
        want = acfd.run_sequential().io.output()
        assert "ncalls 6" in want
        result = acfd.compile(partition=(2, 2), overlap="auto")
        assert result.run_parallel(executor=executor).output() == want
        d = decision(result.plan, 1)
        assert not d.enabled and d.callee == "relaxx"
        assert "calls function 'bump'" in d.reason

    def test_callee_local_reduction_accumulator_accepted(self):
        acfd = AutoCFD.from_source(local_accumulator_src())
        over = acfd.compile(partition=(2, 2), overlap="auto")
        d = decision(over.plan, 1)
        assert d.enabled and d.callee == "relaxx"
        relaxx = unit_text(over.parallel_source(), "relaxx")
        assert relaxx.rstrip().endswith(
            "loc = acfd_allreduce_max(loc)\n  err = loc")
        base = acfd.compile(partition=(2, 2), overlap="off").run_parallel()
        for executor in ("thread", "process"):
            got = over.run_parallel(executor=executor)
            assert got.output() == base.output()
            assert same_grids(base, got, over.plan.arrays), executor

    def test_sync_array_not_declared_in_callee_refused(self):
        acfd = AutoCFD.from_source(HIDDEN_ARRAY_SRC)
        result = acfd.compile(partition=(2, 1), overlap="auto")
        sync = result.plan.syncs[0]
        assert [name for name, _d in sync.arrays] == ["v", "w"]
        d = decision(result.plan, 1)
        assert not d.enabled and d.callee == "relaxv"
        assert "array 'w' of the exchange is not declared" in d.reason
        text = result.parallel_source()
        main = text.split("subroutine relaxv(", 1)[0]
        assert "call acfd_exchange(1, v, w)\n    call relaxv()" in main
        assert "acfd_exchange_begin" not in text
        seq = acfd.run_sequential()
        assert same_grids(seq, result.run_parallel(), result.plan.arrays)


def _programs() -> dict:
    """name -> source generator: the gallery, its subroutine-bodied
    variants, and both paper apps at full grid size (few frames)."""
    from repro.apps.aerofoil import aerofoil_source
    from repro.apps.sprayer import sprayer_source
    from tests.interp.test_executor_equivalence import CASES
    return {**dict(CASES),
            "jacobi_5pt_sub": kernels.jacobi_5pt_sub,
            "jacobi_9pt_sub": kernels.jacobi_9pt_sub,
            "heat_3d_sub": kernels.heat_3d_sub,
            "sprayer": lambda: sprayer_source(iters=2),
            "aerofoil": lambda: aerofoil_source(iters=1)}


@functools.lru_cache(maxsize=None)
def _program(name: str) -> AutoCFD:
    return AutoCFD.from_source(_programs()[name]())


class TestRestructureKeepsTheUnitList:
    """restructure() rewrites units in place and never adds one."""

    @pytest.mark.parametrize("overlap", ["on", "off", "auto"])
    @pytest.mark.parametrize("cuts", [(2, 1), (1, 2), (2, 2)],
                             ids=["2x1", "1x2", "2x2"])
    @pytest.mark.parametrize("name", sorted(_programs()))
    def test_spmd_program_has_the_source_units(self, name, cuts, overlap):
        acfd = _program(name)
        dims = cuts + (1,) * (len(acfd.grid.shape) - 2)
        result = acfd.compile(partition=dims, overlap=overlap)
        assert [u.name for u in result.spmd_cu.units] \
            == [u.name for u in acfd.cu.units]


class TestAcceptedSetsPinned:
    """The syncs the paper apps overlap today, so capability cannot
    shrink silently."""

    @pytest.mark.parametrize("app,dims,total,accepted", [
        ("sprayer", (2, 1), 7,
         {1: "momentum0", 2: "momentum1", 3: "momentum2", 4: "momentum3",
          5: "momentum4", 6: "pressure"}),
        ("aerofoil", (2, 1, 1), 8, {5: "presscor", 8: "convergence"}),
    ])
    def test_paper_app_accepted_syncs(self, app, dims, total, accepted):
        plan = _program(app).compile(partition=dims, overlap="auto").plan
        assert len(plan.overlap_decisions) == total
        assert {d.sync_id: d.callee for d in plan.overlap_decisions
                if d.enabled} == accepted


class TestSharedClassification:
    def test_pre_clamp_classification_matches_the_clamped_program(self):
        # the overlap pass reuses the classification taken before loop
        # bounds were clamped; re-classifying the clamped units must
        # find the same nests with the same sweeps and subscript uses
        from repro.analysis.field_loops import classify_unit
        from repro.codegen.restructure import Restructurer
        cu = normalize_compilation_unit(parse_source(sub_src()))
        plan = build_plan(cu, Partition(GridGeometry(
            cu.directives.grid_shape), (2, 2)), overlap="off")
        rs = Restructurer(plan)
        spmd = rs.run()
        assert "max0(2, acfd_lo(1))" in print_compilation_unit(spmd)
        for unit in spmd.units:
            kept = rs._classifications[unit.name]
            fresh = classify_unit(unit, cu.directives)
            assert list(kept.by_loop) == list(fresh.by_loop)
            for a, b in zip(kept.field_loops, fresh.field_loops):
                assert a.sweeps == b.sweeps
                assert a.uses == b.uses
