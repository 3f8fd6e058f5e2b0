"""Chaos matrix against the nonblocking split-loop exchange.

Fault recovery must compose with communication/computation overlap: a
frame restored from checkpoint re-posts its Isend/Irecv faces and the
split interior/boundary nests must still reproduce the fault-free grids
bitwise.  The inline Jacobi deck exercises the intra-unit split; the
sprayer app — whose stencils live behind ``call`` boundaries — exercises
the interprocedural split, where the exchange is posted and completed
inside the callee.
"""

import pytest

from repro.core.pipeline import AutoCFD
from repro.faults import run_chaos

# the deck re-imposes a boundary each frame: plain JACOBI_SRC's stencil
# sync is entry-only on a 2x1 cut and would never take the split path
from tests.conftest import JACOBI_BC_SRC as JACOBI_SRC

pytestmark = pytest.mark.chaossmoke


def test_inline_deck_actually_overlaps():
    # guard against this module going vacuous: the deck's stencil sync
    # must take the nonblocking path on the partitions used below
    for dims in ((2, 1), (2, 2)):
        plan = AutoCFD.from_source(JACOBI_SRC).compile(
            partition=dims, overlap="on").plan
        assert any(d.enabled for d in plan.overlap_decisions), dims


def test_faults_recover_bitwise_with_overlap_on(tmp_path):
    report = run_chaos(source=JACOBI_SRC, frames=8, partition=(2, 2),
                       seed=11, scenarios=("drop", "delay", "crash"),
                       overlap="on", workdir=str(tmp_path))
    assert report.ok, report.table()
    for s in report.scenarios:
        assert s.identical is True
        assert s.fired, f"{s.name}: planned fault never triggered"


def test_process_executor_crash_with_overlap_on(tmp_path):
    # a SIGKILLed worker mid-exchange must not strand nonblocking
    # requests: restart from checkpoint re-posts them cleanly
    report = run_chaos(source=JACOBI_SRC, frames=8, partition=(2, 1),
                       seed=11, scenarios=("crash",), overlap="on",
                       max_restarts=5, timeout=120.0,
                       workdir=str(tmp_path), executor="process")
    assert report.ok, report.table()
    assert report.scenarios[0].restarts >= 1


def test_overlap_and_blocking_chaos_agree(tmp_path):
    # the recovered overlapped grids equal the recovered blocking grids:
    # chaos + overlap changes nothing about the computed answer
    over = run_chaos(source=JACOBI_SRC, frames=8, partition=(2, 1),
                     seed=5, scenarios=("drop",), overlap="on",
                     workdir=str(tmp_path))
    block = run_chaos(source=JACOBI_SRC, frames=8, partition=(2, 1),
                      seed=5, scenarios=("drop",), overlap="off",
                      workdir=str(tmp_path))
    assert over.ok and block.ok
    a = AutoCFD.from_source(JACOBI_SRC)
    res_over = a.compile(partition=(2, 1), overlap="on").run_parallel()
    res_block = a.compile(partition=(2, 1), overlap="off").run_parallel()
    for name in ("v", "vnew"):
        assert res_over.array(name).data.tobytes() \
            == res_block.array(name).data.tobytes()


def test_sprayer_overlaps_across_calls_under_chaos(tmp_path):
    # the paper's app: every stencil sits in a subroutine, so overlap
    # only fires through the interprocedural split — faults must
    # recover bitwise with the exchange sunk into the callee too
    from repro.faults.chaos import _chaos_app
    src, _inp, _frames = _chaos_app("sprayer", full=False)
    plan = AutoCFD.from_source(src).compile(partition=(2, 2),
                                            overlap="on").plan
    assert any(d.enabled and d.callee for d in plan.overlap_decisions), \
        "sprayer chaos deck no longer takes the interprocedural path"
    report = run_chaos(app="sprayer", partition=(2, 2), seed=7,
                       scenarios=("drop", "crash"), overlap="on",
                       workdir=str(tmp_path))
    assert report.ok, report.table()
    for s in report.scenarios:
        assert s.identical is True
        assert s.fired, f"{s.name}: planned fault never triggered"
