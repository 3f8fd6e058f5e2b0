"""Micro-benchmark of the native nests against the scalar translation.

Times the same programs through the scalar reference translation and
the native nests (each DO nest compiled to C, see
:mod:`repro.interp.native`), with four guards:

* sprayer-style Jacobi frames must run at least 10x faster native;
* the final field arrays must be *bitwise identical* between the two
  translations — the native nests' whole contract;
* the Gauss-Seidel and SOR sweeps, carried in both loop variables, must
  run native, equal the scalar order bitwise (grid, ``err``, ``old``,
  ``iter``, DO-variable exit values) and run at least 2x faster at 60x40;
* a sequential 64x32 Jacobi frame must cost at most 1.5x a hand-written
  persistent-view, ``out=`` numpy frame timed in the same process.

Programs are compiled (and their libraries built or loaded) before the
clock starts.  Results land in
``benchmarks/results/host/micro_pyback.txt`` (git-ignored; uploaded as a
CI artifact alongside the runtime micro-benchmark profile).
"""

import time

import numpy as np
import pytest

from machine import HOST_RESULTS_DIR, emit
from repro.apps.kernels import gauss_seidel_2d, jacobi_5pt, sor_2d
from repro.apps.sprayer import SPRAYER_INPUT, sprayer_source
from repro.fortran.parser import parse_source
from repro.interp.io_runtime import IoManager
from repro.interp.native import survey
from repro.interp.pyback import compile_unit
from repro.interp.values import OffsetArray

_LINES: list[str] = [
    "pyback executor micro-benchmark (native nests vs scalar translation):",
    "",
    f"{'program':<14s} {'scalar(s)':>10s} {'native(s)':>10s} "
    f"{'speedup':>8s} {'nests nat/sc':>13s}  grids",
]


def _emit_accumulated(lines: list[str]) -> None:
    _LINES.extend(lines)
    emit("micro_pyback", _LINES, HOST_RESULTS_DIR)


def _timed_run(src: str, native: bool, inputs: str | None):
    prog = compile_unit(parse_source(src), native=native)
    io = IoManager()
    if inputs is not None:
        io.provide_input(5, inputs)
    t0 = time.perf_counter()
    result = prog.run(io=io)
    return time.perf_counter() - t0, result


def _same_state(scalar, native) -> None:
    assert scalar.io.output() == native.io.output()
    assert set(scalar.values) == set(native.values)
    for name, want in scalar.values.items():
        got = native.values[name]
        if isinstance(want, OffsetArray):
            assert want.data.tobytes() == got.data.tobytes(), name
        elif isinstance(want, float):
            assert np.float64(want).tobytes() == np.float64(got).tobytes(), \
                name
        else:
            assert want == got, name


def _compare_and_report(label: str, src: str, inputs: str | None = None,
                        note: str = ""):
    """Run both translations; return (speedup, report line)."""
    t_scalar, scalar = _timed_run(src, False, inputs)
    t_native, native = _timed_run(src, True, inputs)
    _same_state(scalar, native)
    nests = survey(parse_source(src))
    loops = f"{nests['native']}/{nests['scalar']}"
    speedup = t_scalar / t_native
    line = (f"{label:<14s} {t_scalar:>10.3f} {t_native:>10.3f} "
            f"{speedup:>7.1f}x {loops:>13s}  bitwise-equal{note}")
    return speedup, line


@pytest.mark.benchsmoke
def test_sprayer_jacobi_frames_10x():
    """The tentpole guard: sprayer's Jacobi-style frames >= 10x faster."""
    src = sprayer_source(n=200, m=80, iters=8, stages=3)
    speedup, line = _compare_and_report("sprayer", src, SPRAYER_INPUT)
    _emit_accumulated([line])
    assert speedup >= 10.0, f"native sprayer only {speedup:.1f}x"


@pytest.mark.benchsmoke
def test_jacobi_kernel_10x():
    src = jacobi_5pt(n=120, m=80, iters=60)
    speedup, line = _compare_and_report("jacobi_5pt", src)
    _emit_accumulated([line])
    assert speedup >= 10.0, f"native jacobi only {speedup:.1f}x"


@pytest.mark.benchsmoke
@pytest.mark.parametrize("label,kernel", [("seidel_2d", gauss_seidel_2d),
                                          ("sor_2d", sor_2d)])
def test_gauss_seidel_sweeps_run_native(label, kernel):
    """The carried guard: native, bitwise-equal everywhere, and faster."""
    src = kernel(n=60, m=40, iters=100, eps=0.0)
    nests = survey(parse_source(src))
    assert [r for _, _, r in nests["reasons"]] == ["ExitStmt in nest body"]
    speedup, line = _compare_and_report(label, src,
                                        note=" (sweep in source order)")
    _emit_accumulated([line])
    assert speedup >= 2.0, f"native sweep only {speedup:.1f}x"


def _hand_written_jacobi(n: int, m: int, frames: int) -> float:
    """Seconds for *frames* Jacobi frames as a person would write them:
    views cut once, one scratch buffer, every operation with ``out=``."""
    v = np.zeros((n, m))
    vnew = np.zeros((n, m))
    v[:, 0], v[:, -1], v[0, :], v[-1, :] = 1.0, 2.0, 0.5, 1.5
    mid, new = v[1:-1, 1:-1], vnew[1:-1, 1:-1]
    north, south = v[:-2, 1:-1], v[2:, 1:-1]
    west, east = v[1:-1, :-2], v[1:-1, 2:]
    t = np.empty_like(mid)
    t0 = time.perf_counter()
    for _ in range(frames):
        np.add(north, south, t)
        np.add(t, west, t)
        np.add(t, east, t)
        np.multiply(0.25, t, new)
        np.subtract(new, mid, t)
        np.absolute(t, t)
        err = max(0.0, float(t.max()))
        mid[...] = new
    assert err > 0.0
    return time.perf_counter() - t0


@pytest.mark.benchsmoke
def test_native_jacobi_frame_near_the_hand_written_one():
    """The call guard: a frame of native nests (one region, bound once,
    then one ctypes call) costs at most 1.5x the hand-written numpy
    frame."""
    frames = 1000
    prog = compile_unit(parse_source(
        jacobi_5pt(n=64, m=32, iters=frames, eps=0.0)))
    emitted, hand = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        run = prog.run()
        emitted.append(time.perf_counter() - t0)
        hand.append(_hand_written_jacobi(64, 32, frames))
    # the three init nests are one region, the frame's two another
    assert run.binds == run.regions_run == 2
    ratio = min(emitted) / min(hand)
    _emit_accumulated([
        f"{'jacobi 64x32':<14s} frame {min(emitted) / frames * 1e6:6.1f} us "
        f"native, {min(hand) / frames * 1e6:6.1f} us hand-written numpy "
        f"(persistent views, out=): {ratio:.2f}x"])
    assert ratio <= 1.5, f"native frame is {ratio:.2f}x the hand-written one"
