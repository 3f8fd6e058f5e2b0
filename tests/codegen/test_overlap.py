"""The overlap verdict: which halo syncs could run nonblocking.

For each exchange, ``build_plan`` judges the nest that consumes it
(``repro.analysis.overlap``): could it run as a nonblocking begin, the
nest's interior (no ghost reads), a finish, and the boundary strips?  A
safe split is marked on the plan (``OverlapDecision``), where
``ClusterSim`` models it; anything outside the provable subset is refused
with a recorded reason (the vectorizer's ``Fallback`` discipline).  The
emitted program never depends on the verdict: every mode prints the same
blocking program (``TestOnKeepsEverySafeSplit``).  Mode ``on`` marks every
safe split and is what most tests here compile with; mode ``auto`` marks
none (``TestAuto``).

Every refusal the verdict can return is asserted here: those of
``decide_overlap`` and ``_Verdict._one``, ``_verdict``, ``_sink_refusal``
and ``_escaping_scalar``.  ``_sink_refusal`` also passes on
``CalleeSummary``'s structural refusals, each of which
``tests/analysis/test_callgraph.py`` asserts; the pins below hit two.
"""

import functools
import hashlib
import json
import pathlib

import pytest

from repro.analysis.overlap import NOT_MARKED, decide_overlap
from repro.apps import kernels
from repro.codegen.normalize import normalize_compilation_unit
from repro.codegen.plan import build_plan, planned_statements
from repro.codegen.restructure import restructure
from repro.core.pipeline import AutoCFD
from repro.errors import CodegenError
from repro.fortran.parser import parse_source
from repro.fortran.printer import print_compilation_unit
from repro.partition.grid import GridGeometry
from repro.partition.partitioner import Partition

from tests.conftest import (JACOBI_BC_SRC, JACOBI_SRC, SEIDEL_SRC,
                            with_boundary_refresh)


def planned(src: str, dims, overlap="on"):
    cu = normalize_compilation_unit(parse_source(src))
    return build_plan(cu, Partition(GridGeometry(cu.directives.grid_shape),
                                    dims), overlap=overlap)


def compiled(src: str, dims, overlap="on"):
    plan = planned(src, dims, overlap)
    text = print_compilation_unit(restructure(plan))
    return plan, text


def decision(plan, sync_id):
    return next(d for d in plan.overlap_decisions if d.sync_id == sync_id)


#: the five-point stencil nest of ``JACOBI_BC_SRC`` (the consumer of
#: sync 1, which is accepted at 2x1 and 2x2) up to its update
STENCIL = ("    do i = 2, n - 1\n"
           "      do j = 2, m - 1\n"
           "        vnew(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) "
           "+ v(i, j+1))\n")


def jacobi_with(old: str, new: str) -> str:
    assert JACOBI_BC_SRC.count(old) == 1, old
    return JACOBI_BC_SRC.replace(old, new)


def sub_src():
    return kernels.jacobi_5pt_sub(n=12, m=8, iters=6)


def relaxx_with(old: str, new: str) -> str:
    """``sub_src()`` with *old* replaced by *new* in subroutine relaxx
    (the callee sync 1 is accepted into at 2x2)."""
    head, relaxx = sub_src().split("subroutine relaxx()", 1)
    assert relaxx.count(old) >= 1, old
    return head + "subroutine relaxx()" + relaxx.replace(old, new, 1)


#: refusal case name -> () -> (source, partition, sync id, its reason)
REFUSAL_CASES: dict = {}


def _refusal(fn):
    REFUSAL_CASES[fn.__name__] = fn
    return fn


@_refusal
def not_a_field_loop():
    # a reader after the k loop keeps the exchange ahead of that loop,
    # which sweeps no grid dimension itself
    src = jacobi_with(STENCIL, "    do k = 1, 2\n" + STENCIL).replace(
        "        err = amax1(err, abs(vnew(i, j) - v(i, j)))\n"
        "      end do\n    end do\n",
        "        err = amax1(err, abs(vnew(i, j) - v(i, j)))\n"
        "      end do\n    end do\n    end do\n"
        "    do i = 2, n - 1\n      do j = 2, m - 1\n"
        "        vnew(i, j) = vnew(i, j) + 0.0 * v(i+1, j)\n"
        "      end do\n    end do\n", 1)
    src = src.replace("integer n, m, i, j, iter",
                      "integer n, m, i, j, k, iter")
    return src, (2, 1), 1, ("the loop after the exchange is not a "
                            "field-loop nest")


@_refusal
def not_order_independent():
    src = jacobi_with("        err = amax1(err, abs(vnew(i, j) - v(i, j)))\n",
                      "        err = amax1(err, abs(vnew(i, j) - v(i, j)))\n"
                      "        if (err .gt. 1.0e9) exit\n")
    return src, (2, 1), 1, ("consumer nest is not provably order-independent: "
                         "ExitStmt in nest body")


@_refusal
def goto_target_label():
    src = jacobi_with(STENCIL, "30  do i = 2, n - 1\n"
                      + STENCIL.split("\n", 1)[1])
    src = src.replace("    err = 0.0\n",
                      "    err = 0.0\n    if (iter .lt. 0) goto 30\n", 1)
    return src, (2, 1), 2, "a label inside the nest is a goto target"


@_refusal
def dimension_not_swept():
    # the j-only nest is the consumer of a sync that also ships the
    # i-ghosts the full stencil after it reads
    src = jacobi_with(STENCIL, "    do j = 2, m - 1\n"
                      "      vnew(3, j) = 0.5 * (v(3, j-1) + v(3, j+1))\n"
                      "    end do\n" + STENCIL)
    return src, (2, 2), 1, ("nest does not sweep grid dimension 1 that the "
                         "exchange ships ghosts for")


@_refusal
def non_unit_stride():
    src = jacobi_with("      do j = 2, m - 1\n        vnew",
                      "      do j = 2, m - 1, inc\n        vnew")
    src = src.replace("integer n, m, i, j, iter",
                      "integer n, m, i, j, iter, inc")
    src = src.replace("  eps = 1.0e-4\n", "  eps = 1.0e-4\n  inc = 1\n")
    return src, (1, 2), 1, "non-unit stride on the loop over grid dimension 2"


@_refusal
def labelled_call():
    src = sub_src().replace("    call relaxx()", "15  call relaxx()")
    return src, (2, 2), 1, "the consumer call carries a statement label"


@_refusal
def actual_reads_status_array():
    src = sub_src().replace("    call relaxx()", "    call relaxx(v(2, 2))")
    src = src.replace("subroutine relaxx()\n  implicit none\n",
                      "subroutine relaxx(x)\n  implicit none\n  real x\n")
    return src, (2, 2), 1, ("call to 'relaxx': actual argument reads status "
                         "array 'v' (evaluated before the exchange)")


@_refusal
def leading_assignment_reads_array():
    src = relaxx_with("  real v, vnew, err\n  err = 0.0\n",
                      "  real v, vnew, err, c(2)\n  err = 0.0 * c(1)\n")
    return src, (2, 2), 1, ("in callee 'relaxx': assignment to 'err' before "
                         "the nest reads an array element")


@_refusal
def leading_assignment_calls_function():
    src = relaxx_with("  real v, vnew, err\n  err = 0.0\n",
                      "  real v, vnew, err, zero\n  err = zero()\n")
    src += "\nreal function zero()\n  zero = 0.0\nend\n"
    return src, (2, 2), 1, ("in callee 'relaxx': assignment to 'err' before "
                         "the nest calls a function")


@_refusal
def nest_scalar_escapes():
    src = relaxx_with("  integer n, m, i, j\n",
                      "  integer n, m, i, j\n  common /ix/ i\n")
    return src, (2, 2), 1, ("in callee 'relaxx': nest scalar 'i' is a dummy "
                         "or COMMON member, so its exit value escapes the "
                         "callee")


class TestModes:
    def test_mode_off_marks_nothing(self):
        plan, _ = compiled(JACOBI_SRC, (2, 1), overlap="off")
        assert all(not d.enabled for d in plan.overlap_decisions)
        assert decision(plan, 1).reason == "overlap disabled (mode off)"

    def test_invalid_mode_rejected(self):
        with pytest.raises(CodegenError, match="overlap mode"):
            compiled(JACOBI_SRC, (2, 1), overlap="maybe")


class TestRefusals:
    def test_entry_only_sync_is_not_split(self):
        # plain Jacobi: v is still fresh from the bottom-of-frame sync,
        # so sync 1 sends on the first trip only and there is nothing in
        # flight to hide behind its consumer nest
        plan, text = compiled(JACOBI_SRC, (2, 1))
        assert plan.syncs[0].steady == []
        d = decision(plan, 1)
        assert not d.enabled
        assert d.reason == "nothing to send after the first frame"
        assert "call acfd_exchange(1, v)" in text

    def test_stencil_on_two_cut_dims_accepted(self):
        # at 2x2 the same sync is sent every frame (ghost width on two
        # cut dimensions) and the five-point nest reads no corners
        plan, _ = compiled(JACOBI_SRC, (2, 2))
        assert decision(plan, 1).enabled

    def test_pipelined_consumer_refused(self):
        plan, _ = compiled(with_boundary_refresh(SEIDEL_SRC), (2, 1))
        d = decision(plan, 1)
        assert not d.enabled
        assert "pipelined" in d.reason

    def test_diagonal_reader_refused_on_two_cut_dims(self):
        acfd = AutoCFD.from_source(kernels.jacobi_9pt())
        plan = acfd.compile(partition=(2, 2), overlap="on").plan
        d = decision(plan, 1)
        assert not d.enabled
        assert "corner" in d.reason or "diagonal" in d.reason

    def test_diagonal_reader_allowed_on_one_cut_dim(self):
        # with a single cut dimension there are no corner transfers, so
        # the nine-point stencil overlaps safely
        acfd = AutoCFD.from_source(with_boundary_refresh(kernels.jacobi_9pt()))
        plan = acfd.compile(partition=(2, 1), overlap="on").plan
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
        plan, _ = compiled(src, (2, 1))
        d = decision(plan, 1)
        assert not d.enabled
        assert "'i'" in d.reason

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

    def test_sync_without_cut_footprint_refused(self):
        # every planned sync has a footprint on a cut dimension; one
        # whose widths sit on the uncut dimension alone is refused
        plan = planned(JACOBI_BC_SRC, (2, 1))
        plan.syncs[0].dim_distances = {1: (1, 1)}
        plan.overlap_decisions = decide_overlap(plan,
                                                planned_statements(plan))
        assert decision(plan, 1).reason == \
            "exchange has no ghost footprint on a cut dimension"

    @pytest.mark.parametrize("case", sorted(REFUSAL_CASES))
    def test_refusal_reached(self, case):
        src, dims, sync_id, want = REFUSAL_CASES[case]()
        plan, _ = compiled(src, dims)
        d = decision(plan, sync_id)
        assert not d.enabled
        assert d.reason == want


class TestReportAndPlan:
    def test_report_counts_and_refusals(self):
        acfd = AutoCFD.from_source(JACOBI_BC_SRC)
        report = acfd.compile(partition=(2, 1), overlap="on").report
        assert report.overlap_syncs == 1
        assert all(reason for _sid, reason in report.overlap_refusals)
        d = report.to_dict()
        assert d["overlap_syncs"] == 1
        assert d["overlap_refusals"][0]["reason"]

    def test_plan_overlap_enabled_query(self):
        acfd = AutoCFD.from_source(JACOBI_BC_SRC)
        plan = acfd.compile(partition=(2, 1), overlap="on").plan
        assert plan.overlap_enabled(1)
        assert not plan.overlap_enabled(2)
        assert not plan.overlap_enabled(999)


class TestMpiFortranArtifact:
    def test_every_mode_prints_only_sendrecv(self):
        acfd = AutoCFD.from_source(JACOBI_BC_SRC)
        for mode in ("on", "auto", "off"):
            text = acfd.compile(partition=(2, 1), overlap=mode).mpi_source()
            assert "subroutine acfd_exchange_1(v)" in text
            assert "mpi_sendrecv" in text
            assert "mpi_isend" not in text
            assert "mpi_waitall" not in text


def unit_text(text: str, name: str) -> str:
    """Body of subroutine *name* in printed program *text*."""
    return text.split(f"subroutine {name}(", 1)[1] \
        .split("end subroutine", 1)[0]


class TestInterprocedural:
    """Exchange before a call: judged on the callee's first nest, as if
    the exchange were sunk into the callee after its leading
    assignments."""

    def test_exchange_before_a_call_is_judged_in_the_callee(self):
        plan, text = compiled(sub_src(), (2, 2))
        d = decision(plan, 1)
        assert d.enabled and d.callee == "relaxx"
        # the verdict is a mark on the plan: the exchange stays put
        assert "call acfd_exchange(1, v)\n    call relaxx()" in text
        assert "acfd_exchange" not in unit_text(text, "relaxx")

    def test_multi_site_callee_refused(self):
        src = sub_src().replace(
            "    call relaxx()\n    call relaxy()",
            "    call relaxx()\n    call relaxx()\n    call relaxy()")
        plan, _ = compiled(src, (2, 2))
        d = decision(plan, 1)
        assert not d.enabled and d.callee == "relaxx"
        assert "2 static call sites" in d.reason

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
        plan, _ = compiled(src, (2, 2))
        d = decision(plan, 1)
        assert not d.enabled
        assert "status array 'v' is passed" in d.reason

    def test_report_carries_callee_in_decisions(self):
        report = AutoCFD.from_source(sub_src()).compile(
            partition=(2, 2), overlap="on").report
        decisions = report.to_dict()["overlap_decisions"]
        hit = next(d for d in decisions if d["enabled"])
        assert hit["callee"] == "relaxx"


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
    """What judging the exchange as sunk into the callee accepts, and
    what it must refuse because the actuals and the callee's leading
    statements would then run before the exchange."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_impure_actual_is_evaluated_once_per_call(self, executor):
        acfd = AutoCFD.from_source(impure_actual_src())
        want = acfd.run_sequential().io.output()
        assert "ncalls 6" in want
        result = acfd.compile(partition=(2, 2), overlap="on")
        assert result.run_parallel(executor=executor).output() == want
        d = decision(result.plan, 1)
        assert not d.enabled and d.callee == "relaxx"
        assert "calls function 'bump'" in d.reason

    def test_callee_local_reduction_accumulator_accepted(self):
        plan, _ = compiled(local_accumulator_src(), (2, 2))
        d = decision(plan, 1)
        assert d.enabled and d.callee == "relaxx"

    def test_sync_array_not_declared_in_callee_refused(self):
        plan, text = compiled(HIDDEN_ARRAY_SRC, (2, 1))
        sync = plan.syncs[0]
        assert [name for name, _d in sync.arrays] == ["v", "w"]
        d = decision(plan, 1)
        assert not d.enabled and d.callee == "relaxv"
        assert "array 'w' of the exchange is not declared" in d.reason
        main = text.split("subroutine relaxv(", 1)[0]
        assert "call acfd_exchange(1, v, w)\n    call relaxv()" in main


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


CUTS = pytest.mark.parametrize("cuts", [(2, 1), (1, 2), (2, 2)],
                               ids=["2x1", "1x2", "2x2"])


class TestRestructureKeepsTheUnitList:
    """restructure() rewrites units in place and never adds one."""

    @CUTS
    @pytest.mark.parametrize("name", sorted(_programs()))
    def test_spmd_program_has_the_source_units(self, name, cuts):
        acfd = _program(name)
        dims = cuts + (1,) * (len(acfd.grid.shape) - 2)
        result = acfd.compile(partition=dims)
        assert [u.name for u in result.spmd_cu.units] \
            == [u.name for u in acfd.cu.units]


#: per program and cut: the mode ``on`` decisions, and one digest over
#: ``parallel_source()``, a NUL byte and ``mpi_source()`` of the one
#: program every mode emits (taken from mode ``off`` while the split was
#: still emitted, so the program is the blocking one it always was)
PINS = json.loads((pathlib.Path(__file__).parent / "fixtures"
                   / "overlap_on_pins.json").read_text())


class TestOnKeepsEverySafeSplit:
    """One emitted program per partition: ``on``, ``auto`` and ``off``
    print it byte for byte, and only the decisions differ."""

    @CUTS
    @pytest.mark.parametrize("name", sorted(_programs()))
    def test_source_and_decisions_match_the_pins(self, name, cuts):
        acfd = _program(name)
        dims = cuts + (1,) * (len(acfd.grid.shape) - 2)
        pin = PINS[f"{name} {'x'.join(map(str, cuts))}"]
        for mode in ("on", "auto", "off"):
            result = acfd.compile(partition=dims, overlap=mode)
            digest = hashlib.sha256(result.parallel_source().encode())
            digest.update(b"\0")
            digest.update(result.mpi_source().encode())
            assert digest.hexdigest() == pin["program_sha256"], mode
            if mode == "on":
                decisions = result.plan.overlap_decisions
                assert {str(d.sync_id): d.callee
                        for d in decisions if d.enabled} == pin["accepted"]
                assert {str(d.sync_id): d.reason
                        for d in decisions if not d.enabled} \
                    == pin["refused"]


class TestAuto:
    def test_auto_marks_nothing_and_names_every_safe_split(self):
        # the host's executors leave no wire time in flight, so ``auto``
        # marks no sync; the syncs it calls safe are those ``on`` marks
        for name in sorted(_programs()):
            acfd = _program(name)
            for cuts in ((2, 1), (1, 2), (2, 2)):
                dims = cuts + (1,) * (len(acfd.grid.shape) - 2)
                auto, on = (acfd.compile(partition=dims, overlap=mode)
                            .plan.overlap_decisions
                            for mode in ("auto", "on"))
                assert not any(d.enabled for d in auto)
                assert {d.sync_id: d.callee for d in auto
                        if d.reason == NOT_MARKED} \
                    == {d.sync_id: d.callee for d in on if d.enabled}, \
                    (name, cuts)


class TestAcceptedSetsPinned:
    """The syncs the paper apps overlap under mode ``on``, so capability
    cannot shrink silently."""

    @pytest.mark.parametrize("app,dims,total,accepted", [
        ("sprayer", (2, 1), 7,
         {1: "momentum0", 2: "momentum1", 3: "momentum2", 4: "momentum3",
          5: "momentum4", 6: "pressure"}),
        ("aerofoil", (2, 1, 1), 8, {5: "presscor", 8: "convergence"}),
    ])
    def test_paper_app_accepted_syncs(self, app, dims, total, accepted):
        plan = _program(app).compile(partition=dims, overlap="on").plan
        assert len(plan.overlap_decisions) == total
        assert {d.sync_id: d.callee for d in plan.overlap_decisions
                if d.enabled} == accepted


class TestSharedClassification:
    def test_pre_clamp_classification_matches_the_clamped_program(self):
        # the restructurer clamps through the plan's classification of
        # the source program, keyed by path; re-classifying the emitted
        # units must find the same nests, in the same order, with the
        # same sweeps and subscript uses
        from repro.analysis.field_loops import classify_unit
        from repro.codegen.restructure import Restructurer
        plan = planned(sub_src(), (2, 2), overlap="off")
        rs = Restructurer(plan)
        clamp = [(unit, var_to_dim)
                 for (unit, _path), (_var, var_to_dim) in rs._clamp.items()]
        spmd = rs.run()
        assert "max0(2, acfd_lo(1))" in print_compilation_unit(spmd)
        cut = plan.partition.cut_dims
        fresh = [(unit.name, fl) for unit in spmd.units
                 for fl in classify_unit(unit, plan.cu.directives).field_loops]
        assert clamp == [
            (name, {var: g for g, var in fl.sweeps.items() if g in cut})
            for name, fl in fresh
            for _loop in [fl.loop, *fl.loop.descendants]]
        kept = [(name, fl) for name, cls in
                plan.frame.classifications.items() for fl in cls.field_loops]
        assert [name for name, _fl in kept] == [name for name, _fl in fresh]
        for (_n, mine), (_m, again) in zip(kept, fresh):
            assert mine.sweeps == again.sweeps
            assert mine.uses == again.uses
