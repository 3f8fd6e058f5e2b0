"""SPMD restructuring: the transformed AST and its printed form."""

import sys
from collections import Counter

import pytest

from repro.apps import kernels
from repro.codegen.normalize import normalize_compilation_unit
from repro.codegen.plan import build_plan
from repro.codegen.restructure import Restructurer, restructure
from repro.core import AutoCFD
from repro.errors import CodegenError
from repro.fortran import ast as A
from repro.fortran.parser import parse_source
from repro.fortran.printer import print_compilation_unit
from repro.partition.grid import GridGeometry
from repro.partition.partitioner import Partition

from tests.conftest import JACOBI_SRC, SEIDEL_SRC


def spmd_for(src: str, dims):
    cu = normalize_compilation_unit(parse_source(src))
    plan = build_plan(cu, Partition(GridGeometry(cu.directives.grid_shape),
                                    dims))
    return plan, restructure(plan), print_compilation_unit(
        restructure(plan))


class TestLoopBounds:
    def test_field_loop_clamped(self):
        _, spmd, text = spmd_for(JACOBI_SRC, (2, 1))
        assert "max0(2, acfd_lo(1))" in text
        assert "min0(n - 1, acfd_hi(1))" in text

    def test_uncut_dim_not_clamped(self):
        _, _, text = spmd_for(JACOBI_SRC, (2, 1))
        assert "acfd_lo(2)" not in text

    def test_both_dims_clamped_2x2(self):
        _, _, text = spmd_for(JACOBI_SRC, (2, 2))
        assert "acfd_lo(1)" in text
        assert "acfd_lo(2)" in text

    def test_original_untouched(self):
        cu = normalize_compilation_unit(parse_source(JACOBI_SRC))
        before = print_compilation_unit(cu)
        plan = build_plan(cu, Partition(GridGeometry((24, 16)), (2, 1)))
        restructure(plan)
        assert print_compilation_unit(cu) == before


class TestDeclarations:
    def test_status_arrays_ghosted(self):
        _, _, text = spmd_for(JACOBI_SRC, (2, 1))
        assert "v(acfd_lb('v', 1):acfd_ub('v', 1), m)" in text

    def test_non_status_dim_kept(self):
        _, _, text = spmd_for(JACOBI_SRC, (2, 1))
        # second dim uncut: original extent m preserved
        assert ":acfd_ub('v', 2)" not in text


class TestCommunicationInsertion:
    def test_exchange_calls_present(self):
        plan, _, text = spmd_for(JACOBI_SRC, (2, 1))
        for sync in plan.syncs:
            assert f"acfd_exchange({sync.sync_id}" in text

    def test_exchange_passes_arrays(self):
        plan, _, text = spmd_for(JACOBI_SRC, (2, 1))
        assert any(f"acfd_exchange({s.sync_id}, " in text
                   for s in plan.syncs)

    def test_pipe_calls_around_selfdep_loop(self):
        _, spmd, text = spmd_for(SEIDEL_SRC, (2, 1))
        assert "call acfd_pipe_recv(1, v)" in text
        assert "call acfd_pipe_send(1, v)" in text
        # recv immediately before the loop, send immediately after
        lines = text.splitlines()
        recv_at = next(i for i, l in enumerate(lines)
                       if "acfd_pipe_recv" in l)
        assert lines[recv_at + 1].strip().startswith("do i")

    def test_allreduce_after_reduction_loop(self):
        # read before any sync can carry it: the allreduce stays
        src = JACOBI_SRC.replace("    if (err .lt. eps) exit\n", "") \
            .replace("    do i = 2, n - 1\n      do j = 2, m - 1\n"
                     "        v(i, j) = vnew(i, j)",
                     "    if (err .lt. eps) exit\n"
                     "    do i = 2, n - 1\n      do j = 2, m - 1\n"
                     "        v(i, j) = vnew(i, j)")
        _, _, text = spmd_for(src, (2, 1))
        assert "err = acfd_allreduce_max(err)" in text
        # read after the copy-back: it rides the sync that shares its slot
        _, _, text = spmd_for(JACOBI_SRC, (2, 1))
        assert "acfd_allreduce" not in text
        assert "call acfd_exchange(2, v, err)\n    if (err .lt. eps)" in text


class TestIoTransforms:
    SRC = """\
!$acfd status v
!$acfd grid 8 8
program p
  integer i, j
  real v(8, 8), speed
  read (5, *) speed
  do i = 1, 8
    do j = 1, 8
      v(i, j) = speed
    end do
  end do
  write (6, *) speed
end
"""

    def test_read_guarded_and_broadcast(self):
        _, _, text = spmd_for(self.SRC, (2, 1))
        assert "if (acfd_rank() .eq. 0) then" in text
        assert "speed = acfd_bcast(speed)" in text

    def test_write_guarded(self):
        _, _, text = spmd_for(self.SRC, (2, 1))
        assert text.count("if (acfd_rank() .eq. 0) then") >= 2

    def test_array_read_rejected(self):
        src = self.SRC.replace("read (5, *) speed",
                               "read (5, *) v(1, 1)")
        with pytest.raises(CodegenError):
            spmd_for(src, (2, 1))


class TestBoundaryGuards:
    SRC = """\
!$acfd status v
!$acfd grid 8 8
program p
  integer i, j
  real v(8, 8)
  do i = 1, 8
    do j = 1, 8
      v(i, j) = 0.0
    end do
  end do
  do j = 1, 8
    v(1, j) = 5.0
    v(8, j) = v(7, j)
  end do
end
"""

    def test_constant_subscript_write_guarded(self):
        _, _, text = spmd_for(self.SRC, (2, 1))
        assert "if (acfd_owns(1, 1)) then" in text
        assert "if (acfd_owns(1, 8)) then" in text

    def test_no_guard_when_dim_uncut(self):
        _, _, text = spmd_for(self.SRC, (1, 2))
        assert "acfd_owns" not in text

    def test_unguarded_global_read_rejected(self):
        src = """\
!$acfd status v
!$acfd grid 8 8
program p
  integer i, j
  real v(8, 8), w(8, 8)
  do i = 1, 8
    do j = 1, 8
      v(i, j) = 1.0
    end do
  end do
  do i = 1, 8
    do j = 1, 8
      w(i, j) = v(1, j)
    end do
  end do
end
"""
        with pytest.raises(CodegenError):
            spmd_for(src, (2, 1))


    #: a boundary copy through a non-PARAMETER row index ``k``
    SHIFT_SRC = """\
!$acfd status v
!$acfd grid 8 8
program p
  integer i, j, k
  real v(8, 8)
  k = 8
  do i = 1, 8
    do j = 1, 8
      v(i, j) = i + 0.125 * j
    end do
  end do
  do j = 1, 8
    {copy}
  end do
end
"""

    @pytest.mark.parametrize("copy", ["v(k - 1, j) = v(k, j)",
                                      "v(k, j) = v(k - 1, j)",
                                      "v(k, j) = v(-1 + k, j)",
                                      "v(k / 2, j) = v(k / 2 - 1, j)"])
    def test_guarded_read_beside_a_symbolic_row(self, copy):
        # the read is one row from the guarded write, whichever side
        # carries the literal and wherever it stands in the sum, also
        # beside a row that is no affine form of k
        from repro.core import AutoCFD, verify_equivalence
        acfd = AutoCFD.from_source(self.SHIFT_SRC.format(copy=copy))
        report = verify_equivalence(acfd, [(2, 1)])
        assert report.all_identical, report.summary()


class TestGeneratedSourceValidity:
    def test_reparses(self):
        _, _, text = spmd_for(JACOBI_SRC, (2, 2))
        cu2 = parse_source(text)
        assert cu2.main.name == "jacobi"

    def test_seidel_reparses(self):
        _, _, text = spmd_for(SEIDEL_SRC, (2, 2))
        parse_source(text)


class TestClassifiesOnce:
    """Field loops are classified once per compile, by the frame
    program; the restructurer reads that classification by path."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.analysis.field_loops import classify_unit
        seen = Counter()

        def counted(unit, directives):
            seen[unit.name] += 1
            return classify_unit(unit, directives)

        # every module that imported the function by name
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") \
                    and getattr(module, "classify_unit", None) \
                    is classify_unit:
                monkeypatch.setattr(module, "classify_unit", counted)
        return seen

    @pytest.mark.parametrize("app,dims", [("sprayer", (2, 1)),
                                          ("aerofoil", (2, 1, 1))])
    def test_once_per_unit_per_compile(self, calls, app, dims):
        from repro.apps.aerofoil import aerofoil_source
        from repro.apps.sprayer import sprayer_source
        from repro.core import AutoCFD
        src = {"sprayer": lambda: sprayer_source(300, 100, iters=2),
               "aerofoil": lambda: aerofoil_source(99, 41, 13,
                                                   iters=1)}[app]()
        acfd = AutoCFD.from_source(src)
        result = acfd.compile(partition=dims)
        assert calls == {u.name: 1 for u in acfd.cu.units}
        calls.clear()
        restructure(result.plan)
        assert not calls

    def test_plan_not_matching_the_copy_is_refused(self):
        plan, _, _ = spmd_for(JACOBI_SRC, (2, 1))
        # one statement ahead of every loop: the program's paths no
        # longer match the forest the plan's classification was taken from
        plan.cu.main.body.insert(0, A.Continue())
        with pytest.raises(CodegenError, match="do not match"):
            restructure(plan)


class TestPure:
    """``build_plan`` decides and ``restructure`` only writes."""

    @pytest.mark.parametrize("app,dims", [("jacobi_5pt_sub", (2, 2)),
                                          ("sprayer", (2, 1))])
    def test_restructure_is_a_pure_function_of_the_plan(self, app, dims):
        import pickle

        from repro.apps import kernels
        from repro.apps.sprayer import sprayer_source
        from repro.core import AutoCFD
        src = {"jacobi_5pt_sub": kernels.jacobi_5pt_sub,
               "sprayer": lambda: sprayer_source(iters=2)}[app]()
        acfd = AutoCFD.from_source(src)
        plan = build_plan(acfd.cu, Partition(acfd.grid, dims),
                          acfd.directives)
        assert plan.syncs
        before = pickle.dumps(plan)
        first = print_compilation_unit(restructure(plan))
        assert pickle.dumps(plan) == before
        assert print_compilation_unit(restructure(plan)) == first


class TestSharedClassification:
    def test_pre_clamp_classification_matches_the_clamped_program(self):
        # the restructurer clamps through the plan's classification of
        # the source program, keyed by path; re-classifying the emitted
        # units must find the same nests, in the same order, with the
        # same sweeps and subscript uses
        from repro.analysis.field_loops import classify_unit
        plan, _, _ = spmd_for(kernels.jacobi_5pt_sub(n=12, m=8, iters=6),
                              (2, 2))
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


def impure_actual_src():
    """jacobi_5pt_sub whose call to relaxx passes ``bump(iter)``, a
    function that counts its calls in COMMON /cnt/."""
    src = kernels.jacobi_5pt_sub(n=12, m=8, iters=6)
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


class TestImpureActual:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_impure_actual_is_evaluated_once_per_call(self, executor):
        # the exchange before the call stays before it: the actual runs
        # once per call on every rank, as in the sequential program
        acfd = AutoCFD.from_source(impure_actual_src())
        want = acfd.run_sequential().io.output()
        assert "ncalls 6" in want
        result = acfd.compile(partition=(2, 2))
        assert result.run_parallel(executor=executor).output() == want
