"""Every buffer a rank computes in starts on a cache line.

``values.aligned_buffer`` places COMMON blocks, local arrays, stitched
arrays and array copies on a 64-byte boundary, and the native nests
compute in them.  These tests run one program per kind of buffer (the
sprayer's COMMON blocks, a red-black sweep, a Gauss-Seidel sweep, a
subroutine's local array) sequentially and on both rank executors, and
look at every array the rank holds once it has finished: on processes
the check runs inside the rank and only the verdict comes back.  A run
restored from a checkpoint is checked too: recovery copies into the
live buffers and never rebinds them.
"""

import functools
import pickle

import pytest

from repro.apps import kernels
from repro.apps.sprayer import SPRAYER_INPUT, sprayer_source
from repro.codegen.runner import _exec_rank, _stitch
from repro.core import AutoCFD
from repro.faults.checkpoint import Checkpointer, CheckpointStore
from repro.interp.pyback import CompiledProgram, compile_unit
from repro.interp.values import CACHE_LINE, OffsetArray
from repro.runtime.world import spmd_run

#: a subroutine whose native nests read and write a local array
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

#: (name, source, input deck, the kinds of buffer (see
#: :func:`_misaligned`) every run must hold)
CASES = [
    ("sprayer", sprayer_source(n=48, m=20, iters=4, eps=0.0),
     SPRAYER_INPUT, {"common", "bound"}),
    ("redblack_2d", kernels.redblack_2d(n=16, m=12, iters=4, eps=0.0),
     None, {"final", "bound"}),
    ("gauss_seidel_2d", kernels.gauss_seidel_2d(
        n=16, m=12, iters=4, eps=0.0).replace(
        "v(i, j+1))\n", "v(i, j+1)) + 1.0e-3 * j\n"),
     None, {"final", "bound"}),
    ("local_array", LOCAL_SRC, None, {"common", "bound", "local"}),
]
IDS = [name for name, *_ in CASES]


def _misaligned(ctx, values: dict) -> dict:
    """What does not start on a cache line in a finished rank, and how
    many buffers of each kind were looked at: every COMMON array, every
    array of the main unit's final state, and every array a native nest
    was bound to (subroutine locals included)."""
    bad, seen = [], dict.fromkeys(("common", "final", "bound"), 0)

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
    bound = {id(arr.data): arr.data for call in ctx.natives.values()
             for arr in call.held[2]}
    for buf in bound.values():
        check("bound", buf.shape, buf)
    # buffers bound that are neither COMMON nor the main unit's: the
    # local arrays of subroutines
    finals = [v.data for v in values.values() if isinstance(v, OffsetArray)]
    seen["local"] = sum(not any(buf is a for a in commons + finals)
                        for buf in bound.values())
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
    values, *_ = _exec_rank(watched, plan, deck, None, checkpointer, comm)
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
    name, src, deck, kinds = request.param
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
