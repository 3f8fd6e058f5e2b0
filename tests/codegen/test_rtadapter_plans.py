"""RankRuntime keeps one exchanger per sync id and one per pipe id.

The kept exchangers hold face plans — live views of the arrays they were
built for — so reuse is only correct while a call passes those same
array objects with those same buffers; anything else must rebuild and
move the ghosts of the array actually passed.
"""

import numpy as np
import pytest

from repro.apps.aerofoil import AEROFOIL_INPUT, aerofoil_source
from repro.apps.kernels import jacobi_5pt
from repro.codegen import RankRuntime
from repro.core import AutoCFD
from repro.errors import RuntimeCommError
from repro.interp.values import OffsetArray
from repro.runtime import spmd_run

GRID = (16, 12)


@pytest.fixture(scope="module")
def jacobi_plan():
    return AutoCFD.from_source(
        jacobi_5pt(*GRID, iters=2, eps=0.0)).compile(
            partition=(2, 2), overlap="off").plan


def _field(scale: float) -> np.ndarray:
    i, j = np.meshgrid(np.arange(1, GRID[0] + 1), np.arange(1, GRID[1] + 1),
                       indexing="ij")
    return scale * (100.0 * i + j)


def _local(rt: RankRuntime, scale: float) -> OffsetArray:
    """Rank-local ``v`` holding *scale* x the global field in its owned
    block and -1 in every ghost cell."""
    arr = OffsetArray.from_bounds(
        [(rt.lb("v", k), rt.ub("v", k)) for k in (1, 2)], name="v")
    arr.fill(-1.0)
    owned = [(rt.lo(g), rt.hi(g)) for g in (1, 2)]
    arr.set_section(owned, _field(scale)[tuple(
        slice(lo - 1, hi) for lo, hi in owned)])
    return arr


def _ghosts_hold(rt: RankRuntime, arr: OffsetArray, scale: float) -> bool:
    """Every face ghost of *arr* equals *scale* x the global field (the
    five-point sync moves no corners, which stay -1)."""
    want = _field(scale)
    (ilo, ihi), (jlo, jhi) = [(rt.lo(g), rt.hi(g)) for g in (1, 2)]
    (blo, bhi), (clo, chi) = arr.bounds
    faces = [[(i, i), (jlo, jhi)] for i in (ilo - 1, ihi + 1)
             if blo <= i <= bhi]
    faces += [[(ilo, ihi), (j, j)] for j in (jlo - 1, jhi + 1)
              if clo <= j <= chi]
    return all(np.array_equal(
        arr.section(f),
        want[tuple(slice(lo - 1, hi) for lo, hi in f)]) for f in faces)


class TestKeptSyncExchanger:
    def test_repeat_call_reuses_exchanger_and_plan(self, jacobi_plan):
        def body(comm):
            rt = RankRuntime(comm, jacobi_plan)
            v = _local(rt, 1.0)
            rt.exchange(1, v)
            kept, plan = rt._syncs[1], rt._syncs[1]._plan
            v.data[...] = _local(rt, 3.0).data  # new values, same buffer
            rt.exchange(1, v)
            rt.exchange_begin(1, v)
            rt.exchange_finish(1, v)
            return (rt._syncs[1] is kept and kept._plan is plan
                    and _ghosts_hold(rt, v, 3.0))

        assert all(spmd_run(4, body).results)

    def test_other_array_object_rebuilds(self, jacobi_plan):
        def body(comm):
            rt = RankRuntime(comm, jacobi_plan)
            a, b = _local(rt, 1.0), _local(rt, 2.0)
            rt.exchange(1, a)
            kept = rt._syncs[1]
            a_before = a.data.copy()
            rt.exchange(1, b)
            return (rt._syncs[1] is not kept
                    and _ghosts_hold(rt, b, 2.0)
                    and np.array_equal(a.data, a_before))

        assert all(spmd_run(4, body).results)

    def test_rebound_data_rebuilds(self, jacobi_plan):
        def body(comm):
            rt = RankRuntime(comm, jacobi_plan)
            v = _local(rt, 1.0)
            rt.exchange(1, v)
            old = v.data
            v.data = _local(rt, 5.0).data
            old_before = old.copy()
            rt.exchange_begin(1, v)
            rt.exchange_finish(1, v)
            return (_ghosts_hold(rt, v, 5.0)
                    and np.array_equal(old, old_before))

        assert all(spmd_run(4, body).results)

    def test_argument_count_still_checked_on_a_kept_exchanger(
            self, jacobi_plan):
        def body(comm):
            rt = RankRuntime(comm, jacobi_plan)
            v = _local(rt, 1.0)
            rt.exchange(1, v)
            try:
                rt.exchange(1, v, v)
            except RuntimeCommError as exc:
                return str(exc)

        for message in spmd_run(4, body).results:
            assert "sync 1: 2 arrays passed, plan has 1" in message


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_aerofoil_pipelined_sweeps_bitwise(executor):
    # the mirror-image blayer sweeps go through PipeExchanger, the same
    # face plan and pack/unpack code as the halo exchanges
    acfd = AutoCFD.from_source(
        aerofoil_source(nx=20, ny=12, nz=6, iters=3, stages=2))
    seq = acfd.run_sequential(input_text=AEROFOIL_INPUT)
    compiled = acfd.compile(partition=(2, 1, 1))
    assert compiled.plan.pipes
    result = compiled.run_parallel(input_text=AEROFOIL_INPUT,
                                   executor=executor)
    kinds = {e.kind for e in result.trace.snapshot()}
    assert {"pipeline_send", "pipeline_recv"} <= kinds
    for name in "uvwpt":
        assert result.array(name).data.tobytes() \
            == seq.array(name).data.tobytes(), name
