"""Crash recovery on a program whose top-of-frame sync is entry-only.

``jacobi_5pt`` sends sync 1 on the first executed trip alone.  A restart
fast-forwards the frames before the checkpoint (``acfd_frame`` returns 1
for them) and restores into live buffers; the trip that follows must
send every member again, and the fast-forwarded frames must not have
counted as trips, or sync 1 would stay silent over restored ghosts the
analysis never vouched for.
"""

import pytest

from repro.apps.kernels import jacobi_5pt
from repro.core import AutoCFD
from repro.faults import FaultEvent, FaultPlan, run_recovered

pytestmark = pytest.mark.chaossmoke

FRAMES = 8
CRASH_FRAME = 5


@pytest.fixture(scope="module")
def compiled():
    src = jacobi_5pt(n=24, m=16, iters=FRAMES, eps=0.0)
    result = AutoCFD.from_source(src).compile(partition=(2, 1))
    assert result.plan.syncs[0].entry_only == {"v": [2]}
    assert result.plan.syncs[0].steady == []
    return AutoCFD.from_source(src).run_sequential(), result


def _exchanges(result, sync_id: int, rank: int) -> int:
    return sum(1 for e in result.trace.snapshot()
               if e.kind == "exchange" and e.rank == rank
               and e.tag == sync_id)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_first_trip_after_restore_sends_every_member(compiled, executor,
                                                     tmp_path):
    seq, par = compiled
    clean = par.run_parallel(executor=executor)
    for rank in (0, 1):
        assert _exchanges(clean, 1, rank) == 1
        assert _exchanges(clean, 2, rank) == FRAMES

    plan = FaultPlan(events=[FaultEvent("crash", 1, frame=CRASH_FRAME)],
                     seed=0)
    result, attempts, injector = run_recovered(
        par.plan, par.spmd_cu, fault_plan=plan, ckpt_dir=str(tmp_path),
        timeout=60.0, max_restarts=5, executor=executor)
    assert [f["kind"] for f in injector.fired()] == ["crash"]
    assert len(attempts) >= 2 and attempts[-1].error is None
    restored = attempts[-1].restore_frame
    assert restored is not None and 1 < restored <= CRASH_FRAME
    for name in par.plan.arrays:
        assert result.array(name).data.tobytes() \
            == seq.array(name).data.tobytes(), name
    # the finishing attempt: sync 1 once (the trip that restored), sync 2
    # on every frame it executed; skipped frames sent nothing
    for rank in (0, 1):
        assert _exchanges(result, 1, rank) == 1
        assert _exchanges(result, 2, rank) == FRAMES - restored + 1
