"""Every buffer a rank computes in starts on a cache line.

``values.aligned_buffer`` places COMMON blocks, local arrays, stitched
arrays, array copies and the scratch, masks and index grids of the nest
plans on a 64-byte boundary.  These tests run one program per kind of
buffer (the sprayer, a red-black sweep's masks, Gauss-Seidel's fronts, a
subroutine's local array) sequentially and on both rank executors, and
look at every array the rank holds once it has finished: on processes
the check runs inside the rank and only the verdict comes back.  A run
restored from a checkpoint is checked too: recovery copies into the
live buffers and never rebinds them.
"""

import functools
import pickle

import numpy as np
import pytest

from repro.apps import kernels
from repro.apps.sprayer import SPRAYER_INPUT, sprayer_source
from repro.codegen.runner import _exec_rank, _stitch
from repro.core import AutoCFD
from repro.faults.checkpoint import Checkpointer, CheckpointStore
from repro.fortran.parser import parse_source
from repro.interp.pyback import CompiledProgram, compile_unit
from repro.interp.values import CACHE_LINE, OffsetArray
from repro.interp.vectorize import survey
from repro.runtime.world import spmd_run

#: a subroutine whose vectorized nests read and write a local array
LOCAL_SRC = """\
!$acfd status v, vnew
!$acfd grid 24 16
!$acfd frame iter
program smooth
  implicit none
  integer n, m, i, j, iter
  parameter (n = 24, m = 16)
  common /fld/ v(n, m), vnew(n, m)
  real v, vnew
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.01 * i + 0.02 * j
      vnew(i, j) = 0.0
    end do
  end do
  do iter = 1, 6
    call relax()
    do i = 2, n - 1
      do j = 2, m - 1
        v(i, j) = vnew(i, j)
      end do
    end do
  end do
  write (6, *) 'iters', iter
end program smooth

subroutine relax()
  implicit none
  integer n, m, i, j
  parameter (n = 24, m = 16)
  common /fld/ v(n, m), vnew(n, m)
  real v, vnew, w(n, m)
  do i = 2, n - 1
    do j = 2, m - 1
      w(i, j) = v(i - 1, j) + v(i + 1, j)
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = 0.25 * (w(i, j) + v(i, j - 1) + v(i, j + 1))
    end do
  end do
end subroutine relax
"""

#: (name, source, input deck, the mode one of its nests takes, the kinds
#: of buffer (see :func:`_misaligned`) every run must hold).  The sweep
#: of Gauss-Seidel reads ``j`` as a value, so its fronts plan holds index
#: arrays and the product lands in a front slot.
CASES = [
    ("sprayer", sprayer_source(n=48, m=20, iters=4, eps=0.0),
     SPRAYER_INPUT, "slice", {"common", "cut from", "scratch"}),
    ("redblack_2d", kernels.redblack_2d(n=16, m=12, iters=4, eps=0.0),
     None, "slice", {"final", "cut from", "plan"}),
    ("gauss_seidel_2d", kernels.gauss_seidel_2d(
        n=16, m=12, iters=4, eps=0.0).replace(
        "v(i, j+1))\n", "v(i, j+1)) + 1.0e-3 * j\n"),
     None, "fronts", {"final", "cut from", "scratch", "plan"}),
    ("local_array", LOCAL_SRC, None, "slice",
     {"common", "cut from", "local"}),
]
IDS = [name for name, *_ in CASES]


def _ndarrays(obj):
    """Every ndarray in a plan tuple, however deeply nested."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _ndarrays(item)


def _misaligned(ctx, values: dict) -> dict:
    """What does not start on a cache line in a finished rank, and how
    many buffers of each kind were looked at: every COMMON array, every
    array of the main unit's final state, every buffer a nest plan is
    cut from (subroutine locals included), every arena scratch buffer,
    and every other writable array a plan holds (masks, index grids,
    staging views).  Views of program arrays are where the subscripts
    put them, and the shared front keys are read-only index arrays:
    neither is a buffer of its own."""
    bad, seen = [], dict.fromkeys(
        ("common", "final", "cut from", "scratch", "plan"), 0)

    def check(kind, what, arr):
        seen[kind] += 1
        if arr.ctypes.data % CACHE_LINE:
            bad.append(f"{kind} {what}")

    commons = []
    for block, slots in ctx.commons.items():
        for slot in slots:
            if isinstance(slot, OffsetArray):
                check("common", f"/{block}/ {slot.name}", slot.data)
                commons.append(slot.data)
    for name, value in values.items():
        if isinstance(value, OffsetArray):
            check("final", name, value.data)
    plans = ctx.plans
    cut = [buf for keys in plans._keys.values()
           for _key, bufs in keys for buf in bufs]
    for buf in cut:
        check("cut from", buf.shape, buf)
    for cls, bufs in plans._arena.items():
        for buf in bufs:
            check("scratch", cls, buf)
    for key, plan in plans.table.items():
        for arr in _ndarrays(plan):
            if arr.flags.writeable and not any(
                    np.may_share_memory(arr, buf) for buf in cut):
                check("plan", f"of nest {key[0]} {arr.shape}", arr)
    # buffers cut from that are neither COMMON nor the main unit's: the
    # local arrays of subroutines
    finals = [v.data for v in values.values() if isinstance(v, OffsetArray)]
    seen["local"] = sum(not any(buf is a for a in commons + finals)
                        for buf in cut)
    return {"bad": bad, "seen": seen}


class _Watched(CompiledProgram):
    """The compiled program, keeping each rank's context and runtime."""

    def make_ctx(self, io=None, rt=None):
        ctx = super().make_ctx(io, rt)
        self.ranks[rt.comm.rank] = (ctx, rt, {
            slot.name: slot.data.ctypes.data
            for slots in ctx.commons.values() for slot in slots
            if isinstance(slot, OffsetArray)})
        return ctx


def _aligned_rank(blob: bytes, comm):
    """Rank body for both executors: run the program as ``run_parallel``
    does, then check the rank's buffers where they live."""
    spmd_cu, plan, deck, ckpt = pickle.loads(blob)
    program = compile_unit(spmd_cu)
    watched = _Watched(**vars(program))
    watched.ranks = {}
    checkpointer = None
    if ckpt is not None:
        store = CheckpointStore(ckpt["dir"], sweep_rank=comm.rank)
        checkpointer = Checkpointer(store, every=1, keep=8,
                                    restore_frame=ckpt["restore"])
    values, _io, _counts = _exec_rank(watched, plan, deck, None,
                                      checkpointer, comm)
    ctx, rt, addresses = watched.ranks[comm.rank]
    verdict = _misaligned(ctx, values)
    verdict["restored"] = rt._restored
    # recovery writes into the COMMON buffers allocated at the start
    verdict["moved"] = sorted(
        slot.name for slots in ctx.commons.values() for slot in slots
        if isinstance(slot, OffsetArray)
        and slot.data.ctypes.data != addresses[slot.name])
    return verdict, values


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    name, src, deck, mode, kinds = request.param
    assert survey(parse_source(src))["modes"][mode], (name, mode)
    acfd = AutoCFD.from_source(src)
    seq = acfd.run_sequential(input_text=deck)
    return acfd.compile(partition=(2, 1)), deck, kinds, seq


def _run(compiled, deck, executor, ckpt=None):
    blob = pickle.dumps((compiled.spmd_cu, compiled.plan, deck, ckpt))
    world = spmd_run(2, functools.partial(_aligned_rank, blob),
                     timeout=60.0, executor=executor)
    verdicts = [v for v, _values in world.results]
    stitched = _stitch(compiled.plan, [values for _v, values
                                       in world.results])
    return verdicts, stitched


def _assert_aligned(verdict: dict, kinds: set) -> None:
    assert verdict["bad"] == []
    assert {kind for kind, n in verdict["seen"].items() if n} >= kinds, \
        verdict["seen"]


def _assert_ranks_aligned(verdicts, stitched, seq, kinds):
    for verdict in verdicts:
        _assert_aligned(verdict, kinds)
    for name, arr in stitched.items():
        assert arr.data.ctypes.data % CACHE_LINE == 0, name
        if name in seq.values:
            assert arr.data.tobytes() == seq.array(name).data.tobytes(), name


def test_the_sequential_run_computes_on_cache_lines(case):
    _compiled, _deck, kinds, seq = case
    _assert_aligned(_misaligned(seq.ctx, seq.values), kinds)
    for value in seq.values.values():
        if isinstance(value, OffsetArray):
            assert value.copy().data.ctypes.data % CACHE_LINE == 0


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_every_rank_buffer_starts_on_a_cache_line(case, executor):
    compiled, deck, kinds, seq = case
    verdicts, stitched = _run(compiled, deck, executor)
    _assert_ranks_aligned(verdicts, stitched, seq, kinds)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_recovery_restores_into_the_aligned_buffers(case, executor,
                                                    tmp_path):
    compiled, deck, kinds, seq = case
    # an attempt that writes a checkpoint every frame, then one that
    # fast-forwards to frame 3 and restores it
    _run(compiled, deck, executor, {"dir": str(tmp_path), "restore": None})
    verdicts, stitched = _run(compiled, deck, executor,
                              {"dir": str(tmp_path), "restore": 3})
    for verdict in verdicts:
        assert verdict["restored"]
        assert verdict["moved"] == []
    _assert_ranks_aligned(verdicts, stitched, seq, kinds)
