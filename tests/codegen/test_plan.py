"""Planning: syncs, pipes, reductions, ghost geometry, Table 1 counts."""

import pytest

from repro.codegen.normalize import normalize_compilation_unit
from repro.codegen.plan import build_plan
from repro.errors import CodegenError
from repro.fortran.parser import parse_source
from repro.partition.grid import GridGeometry
from repro.partition.partitioner import Partition

from tests.conftest import JACOBI_SRC, SEIDEL_SRC


def plan_for(src: str, dims, **kwargs):
    cu = normalize_compilation_unit(parse_source(src))
    grid = GridGeometry(cu.directives.grid_shape)
    return build_plan(cu, Partition(grid, dims), **kwargs)


class TestJacobiPlan:
    def test_syncs_exist(self):
        plan = plan_for(JACOBI_SRC, (2, 1))
        assert plan.syncs
        assert plan.syncs_after <= plan.syncs_before

    def test_no_pipes_for_jacobi(self):
        plan = plan_for(JACOBI_SRC, (2, 2))
        assert plan.pipes == []

    def test_reduction_planned(self):
        plan = plan_for(JACOBI_SRC, (2, 1))
        assert len(plan.reductions) == 1
        assert plan.reductions[0].reductions[0].var == "err"
        assert plan.reductions[0].reductions[0].op == "max"

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("name,feasible,slot", [
        ("jacobi_5pt", [38, 44], 38), ("sprayer", [266, 278, 284], 278)])
    def test_residual_rides_the_last_sync_above_the_exit_test(
            self, name, feasible, slot, dims):
        from repro.apps.kernels import jacobi_5pt
        from repro.apps.sprayer import sprayer_source
        from repro.sync.combine import combine_regions
        src = {"jacobi_5pt": lambda: jacobi_5pt(n=24, m=16, iters=10),
               "sprayer": lambda: sprayer_source(n=48, m=20, iters=4)}[name]
        plan = plan_for(src(), dims)
        last = plan.syncs[-1]
        # the combiner's feasible slots are those of the parent; the
        # residual's region meets them at the exit IF only
        assert combine_regions(plan.regions)[-1].feasible == feasible
        assert last.placement_slot == slot
        assert plan.frame.node_at_open(slot).kind == "if"
        assert last.reductions == [("err", "max")]
        assert plan.reductions[0].rides == {"err": last.sync_id}

    def test_a_reduction_read_before_any_sync_keeps_its_allreduce(self):
        src = JACOBI_SRC.replace("    if (err .lt. eps) exit\n", "") \
            .replace("    do i = 2, n - 1\n      do j = 2, m - 1\n"
                     "        v(i, j) = vnew(i, j)",
                     "    if (err .lt. eps) exit\n"
                     "    do i = 2, n - 1\n      do j = 2, m - 1\n"
                     "        v(i, j) = vnew(i, j)")
        plan = plan_for(src, (2, 1))
        assert plan.reductions[0].rides == {}
        assert all(s.reductions == [] for s in plan.syncs)

    def test_ghosts_cover_stencil(self):
        plan = plan_for(JACOBI_SRC, (2, 2))
        assert plan.arrays["v"].ghosts.width(0) == (1, 1)
        assert plan.arrays["v"].ghosts.width(1) == (1, 1)

    def test_uncut_grid_no_syncs(self):
        plan = plan_for(JACOBI_SRC, (1, 1))
        assert plan.syncs == []
        assert plan.syncs_after == 0

    def test_combining_reduces(self):
        combined = plan_for(JACOBI_SRC, (2, 1), combine=True)
        separate = plan_for(JACOBI_SRC, (2, 1), combine=False)
        assert len(combined.syncs) <= len(separate.syncs)
        assert separate.syncs_before == combined.syncs_before

    def test_reduction_percent(self):
        plan = plan_for(JACOBI_SRC, (2, 1))
        assert 0.0 <= plan.reduction_percent <= 100.0


class TestSeidelPlan:
    def test_mirror_pipe_planned(self):
        plan = plan_for(SEIDEL_SRC, (2, 1))
        assert len(plan.pipes) == 1
        assert plan.pipes[0].pipeline_dims == [0]
        assert plan.pipes[0].arrays == ["v"]

    def test_pipe_dims_follow_partition(self):
        plan = plan_for(SEIDEL_SRC, (1, 2))
        assert plan.pipes[0].pipeline_dims == [1]
        plan = plan_for(SEIDEL_SRC, (2, 2))
        assert plan.pipes[0].pipeline_dims == [0, 1]

    def test_pipes_counted_in_table1_numbers(self):
        plan = plan_for(SEIDEL_SRC, (2, 1))
        assert plan.syncs_before == len(plan.active_pairs) + 1
        assert plan.syncs_after == len(plan.syncs) + 1


class TestSyncContents:
    def test_sync_arrays_and_distances(self):
        plan = plan_for(JACOBI_SRC, (2, 1))
        all_arrays = {name for s in plan.syncs for name, _d in s.arrays}
        assert "v" in all_arrays
        for sync in plan.syncs:
            for name, dists in sync.arrays:
                for g, (minus, plus) in dists.items():
                    assert minus >= 0 and plus >= 0

    def test_insertions_resolvable(self):
        plan = plan_for(JACOBI_SRC, (2, 1))
        unit_names = {u.name for u in plan.cu.units}
        for sync in plan.syncs:
            unit, path, mode = sync.insertion
            assert unit in unit_names
            assert mode in ("before", "after", "append", "prepend",
                            "append_body", "append_arm")


class TestSerialSelfDep:
    SRC = """\
!$acfd status v
!$acfd grid 10 10
!$acfd frame it
program p
  integer i, j, it, g(10)
  real v(10, 10)
  do it = 1, 3
    do i = 2, 9
      do j = 2, 9
        v(i, j) = v(g(i), j)
      end do
    end do
  end do
end
"""

    def test_irregular_selfdep_on_cut_dim_rejected(self):
        with pytest.raises(CodegenError):
            plan_for(self.SRC, (2, 1))

    def test_irregular_selfdep_on_uncut_dim_ok(self):
        # g(i) indexes dim 0 only; cutting dim 1 still... the irregular
        # read conservatively blocks any cut of swept dims
        with pytest.raises(CodegenError):
            plan_for(self.SRC, (1, 2))

    def test_uncut_fine(self):
        plan = plan_for(self.SRC, (1, 1))
        assert plan.pipes == []


@pytest.mark.parametrize("app,dims", [("sprayer", (2, 2)),
                                      ("aerofoil", (2, 1, 1))])
def test_two_compiles_pickle_the_same_plan(app, dims):
    # every analysis index is keyed by structural path, never by id():
    # the same source and partition give the same bytes
    import pickle

    from repro.apps.aerofoil import aerofoil_source
    from repro.apps.sprayer import sprayer_source
    from repro.core import AutoCFD
    src = {"sprayer": sprayer_source, "aerofoil": aerofoil_source}[app]()
    first, second = (pickle.dumps(AutoCFD.from_source(src)
                                  .compile(partition=dims).plan)
                     for _ in range(2))
    assert first == second
