"""SPMD restructuring: the transformed AST and its printed form."""

import pytest

from repro.codegen.normalize import normalize_compilation_unit
from repro.codegen.plan import build_plan
from repro.codegen.restructure import restructure
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
        _, _, text = spmd_for(JACOBI_SRC, (2, 1))
        assert "err = acfd_allreduce_max(err)" in text


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


class TestGeneratedSourceValidity:
    def test_reparses(self):
        _, _, text = spmd_for(JACOBI_SRC, (2, 2))
        cu2 = parse_source(text)
        assert cu2.main.name == "jacobi"

    def test_seidel_reparses(self):
        _, _, text = spmd_for(SEIDEL_SRC, (2, 2))
        parse_source(text)
