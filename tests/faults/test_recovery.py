"""Checkpoint/restart recovery reproduces fault-free results bitwise."""

import pytest

from repro.core import AutoCFD
from repro.errors import RuntimeCommError
from repro.faults import FaultEvent, FaultPlan, run_recovered

from tests.conftest import JACOBI_SRC


@pytest.fixture(scope="module")
def jacobi_2x1():
    return AutoCFD.from_source(JACOBI_SRC).compile(partition=(2, 1))


def _grid_bytes(compiled, result):
    return {name: result.array(name).data.tobytes()
            for name in compiled.plan.arrays}


class TestCrashRecovery:
    def test_recovered_run_matches_fault_free_bitwise(self, jacobi_2x1,
                                                      tmp_path):
        baseline = _grid_bytes(jacobi_2x1, jacobi_2x1.run_parallel())
        plan = FaultPlan(events=[FaultEvent("crash", 1, frame=3)], seed=0)
        result, attempts, injector = run_recovered(
            jacobi_2x1.plan, jacobi_2x1.spmd_cu, fault_plan=plan,
            ckpt_dir=str(tmp_path), timeout=30.0)
        assert _grid_bytes(jacobi_2x1, result) == baseline
        # one dead world, one clean finish
        assert len(attempts) == 2
        assert "injected crash on rank 1 at frame 3" in attempts[0].error
        assert attempts[1].error is None
        assert [f["kind"] for f in injector.fired()] == ["crash"]

    def test_no_recover_fails_loudly_with_rank_attribution(self, jacobi_2x1,
                                                           tmp_path):
        plan = FaultPlan(events=[FaultEvent("crash", 0, frame=2)], seed=4)
        with pytest.raises(RuntimeCommError) as exc_info:
            run_recovered(jacobi_2x1.plan, jacobi_2x1.spmd_cu,
                          fault_plan=plan, ckpt_dir=str(tmp_path),
                          recover=False, timeout=30.0)
        msg = str(exc_info.value)
        assert "rank 0 failed" in msg
        assert "injected crash on rank 0 at frame 2 (plan seed 4)" in msg


class TestStragglerRecovery:
    def test_straggler_run_completes_identical_without_restart(
            self, jacobi_2x1, tmp_path):
        baseline = _grid_bytes(jacobi_2x1, jacobi_2x1.run_parallel())
        plan = FaultPlan(events=[FaultEvent("straggler", 0, frame=2,
                                            frames=2, seconds=0.1)],
                         seed=0)
        result, attempts, injector = run_recovered(
            jacobi_2x1.plan, jacobi_2x1.spmd_cu, fault_plan=plan,
            ckpt_dir=str(tmp_path), timeout=30.0)
        assert _grid_bytes(jacobi_2x1, result) == baseline
        assert len(attempts) == 1  # slow is not dead
        # lost time lands in the timeline's fault account: both ranks
        # pay checkpoint overhead, only rank 0 pays the straggle on top
        roll = result.rollup()
        assert roll.ranks[0].fault > roll.ranks[1].fault > 0.0


class TestCadence:
    def test_sparse_checkpoints_still_recover(self, jacobi_2x1, tmp_path):
        baseline = _grid_bytes(jacobi_2x1, jacobi_2x1.run_parallel())
        plan = FaultPlan(events=[FaultEvent("crash", 0, frame=5)], seed=0)
        result, attempts, _ = run_recovered(
            jacobi_2x1.plan, jacobi_2x1.spmd_cu, fault_plan=plan,
            ckpt_dir=str(tmp_path), every=3, timeout=30.0)
        assert _grid_bytes(jacobi_2x1, result) == baseline
        assert len(attempts) == 2


#: The stencil lives in a subroutine that also runs once *before* the time
#: loop, so in a recovered attempt the syncs inside it build their face
#: plans first and meet the restored buffers afterwards.
PRESMOOTH_SRC = """\
!$acfd status v, vnew
!$acfd grid 24 16
!$acfd frame iter
program presm
  implicit none
  integer n, m, i, j, iter
  parameter (n = 24, m = 16)
  real v(n, m), vnew(n, m)
  common /fld/ v, vnew
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.01 * i + 0.02 * j
      vnew(i, j) = 0.0
    end do
  end do
  call relax
  do iter = 1, 8
    call relax
  end do
end program presm

subroutine relax
  implicit none
  integer n, m, i, j
  parameter (n = 24, m = 16)
  real v(n, m), vnew(n, m)
  common /fld/ v, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = vnew(i, j)
    end do
  end do
end subroutine relax
"""


class TestFacePlansSurviveRestore:
    """Restore writes into the live buffers (``np.copyto``), so exchangers
    kept from before the restore go on moving the right cells."""

    @pytest.fixture(scope="class")
    def presmooth(self):
        return AutoCFD.from_source(PRESMOOTH_SRC).compile(partition=(2, 1))

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_crash_restore_bitwise(self, presmooth, tmp_path, executor):
        baseline = _grid_bytes(presmooth, presmooth.run_parallel())
        plan = FaultPlan(events=[FaultEvent("crash", 1, frame=5)], seed=0)
        result, attempts, _ = run_recovered(
            presmooth.plan, presmooth.spmd_cu, fault_plan=plan,
            ckpt_dir=str(tmp_path), timeout=60.0, executor=executor)
        assert _grid_bytes(presmooth, result) == baseline
        assert len(attempts) == 2
        assert result.trace.count("restore") == 2  # one per rank

    def test_plans_built_before_restore_are_reused(self, presmooth,
                                                   tmp_path, monkeypatch):
        from repro.runtime import halo

        builds = []
        build = halo._FaceTransfers._faces

        def counting(self):
            before = self._plan
            faces = build(self)
            if self._plan is not before:
                builds.append(self.point_id)
            return faces

        monkeypatch.setattr(halo._FaceTransfers, "_faces", counting)
        plan = FaultPlan(events=[FaultEvent("crash", 1, frame=5)], seed=0)
        run_recovered(presmooth.plan, presmooth.spmd_cu, fault_plan=plan,
                      ckpt_dir=str(tmp_path), timeout=60.0)
        # three syncs, two ranks, two attempts: each plan built once per
        # attempt — the pre-loop `call relax` builds syncs 1 and 2, and
        # the restore that follows must not cost a rebuild
        assert sorted(builds) == [1] * 4 + [2] * 4 + [3] * 4
