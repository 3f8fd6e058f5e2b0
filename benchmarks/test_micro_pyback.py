"""Micro-benchmark of the vectorizing numpy backend.

Times the same programs through the scalar reference translation and the
whole-array slice translation, with four guards:

* sprayer-style Jacobi frames must run at least 10x faster vectorized
  (interactively the full sprayer measures >100x; the guard leaves
  headroom for loaded CI machines);
* the final field arrays must be *bitwise identical* between the two
  backends — the vectorizer's whole contract;
* the Gauss-Seidel and SOR sweeps, carried in both loop variables, must
  take the hyperplane-front schedule, equal the scalar order bitwise
  (grid, ``err``, ``old``, ``iter``, DO-variable exit values) and still
  run at least 2x faster at 60x40, where a front has at most 38 lanes;
* a sequential 64x32 Jacobi frame, its nests resolved once into plans,
  must cost at most 1.5x a hand-written persistent-view, ``out=`` numpy
  frame timed in the same process.

Results land in ``benchmarks/results/micro_pyback.txt`` (uploaded as a
CI artifact alongside the runtime micro-benchmark profile).
"""

import time

import numpy as np
import pytest

from machine import emit
from repro.apps.kernels import gauss_seidel_2d, jacobi_5pt, sor_2d
from repro.apps.sprayer import SPRAYER_INPUT, sprayer_source
from repro.fortran.parser import parse_source
from repro.interp.io_runtime import IoManager
from repro.interp.pyback import run_compiled
from repro.interp.values import OffsetArray
from repro.interp.vectorize import survey

_LINES: list[str] = [
    "pyback executor micro-benchmark (vectorized vs scalar translation):",
    "",
    f"{'program':<14s} {'scalar(s)':>10s} {'vector(s)':>10s} "
    f"{'speedup':>8s} {'loops vec/fb':>13s}  grids",
]


def _emit_accumulated(lines: list[str]) -> None:
    _LINES.extend(lines)
    emit("micro_pyback", _LINES)


def _timed_run(src: str, vectorize: bool, inputs: str | None):
    cu = parse_source(src)
    io = IoManager()
    if inputs is not None:
        io.provide_input(5, inputs)
    t0 = time.perf_counter()
    result = run_compiled(cu, io=io, vectorize=vectorize)
    return time.perf_counter() - t0, result


def _compare_and_report(label: str, src: str, inputs: str | None = None):
    """Run both backends; return (speedup, report line)."""
    t_scalar, scalar = _timed_run(src, False, inputs)
    t_vector, vector = _timed_run(src, True, inputs)
    assert scalar.io.output() == vector.io.output()
    arrays = [(k, v) for k, v in scalar.values.items()
              if isinstance(v, OffsetArray)]
    assert arrays
    bitwise = all(v.data.tobytes()
                  == vector.values[k].data.tobytes() for k, v in arrays)
    assert bitwise, f"{label}: vectorized grids diverge from scalar"
    nests = survey(parse_source(src))
    loops = f"{nests['vectorized']}/{nests['fallback']}"
    speedup = t_scalar / t_vector
    line = (f"{label:<14s} {t_scalar:>10.3f} {t_vector:>10.3f} "
            f"{speedup:>7.1f}x {loops:>13s}  bitwise-equal")
    return speedup, line


@pytest.mark.benchsmoke
def test_sprayer_jacobi_frames_10x():
    """The tentpole guard: sprayer's Jacobi-style frames >= 10x faster."""
    src = sprayer_source(n=200, m=80, iters=8, stages=3)
    speedup, line = _compare_and_report("sprayer", src, SPRAYER_INPUT)
    _emit_accumulated([line])
    assert speedup >= 10.0, f"vectorized sprayer only {speedup:.1f}x"


@pytest.mark.benchsmoke
def test_jacobi_kernel_10x():
    src = jacobi_5pt(n=120, m=80, iters=60)
    speedup, line = _compare_and_report("jacobi_5pt", src)
    _emit_accumulated([line])
    assert speedup >= 10.0, f"vectorized jacobi only {speedup:.1f}x"


@pytest.mark.benchsmoke
@pytest.mark.parametrize("label,kernel", [("seidel_2d", gauss_seidel_2d),
                                          ("sor_2d", sor_2d)])
def test_gauss_seidel_sweeps_take_fronts(label, kernel):
    """The carried guard: fronts, bitwise-equal everywhere, and faster."""
    src = kernel(n=60, m=40, iters=100, eps=0.0)
    nests = survey(parse_source(src))
    assert nests["modes"]["fronts"] == 1, nests
    assert [r for _, _, r in nests["reasons"]] == ["DoLoop in nest body"]
    t_scalar, scalar = _timed_run(src, False, None)
    t_vector, vector = _timed_run(src, True, None)
    assert scalar.io.output() == vector.io.output()
    assert set(scalar.values) == set(vector.values)
    for name, want in scalar.values.items():  # v, err, old, iter, i, j
        got = vector.values[name]
        if isinstance(want, OffsetArray):
            assert want.data.tobytes() == got.data.tobytes(), name
        else:
            assert np.float64(want).tobytes() == np.float64(got).tobytes(), \
                name
    speedup = t_scalar / t_vector
    loops = f"{nests['vectorized']}/{nests['fallback']}"
    _emit_accumulated([
        f"{label:<14s} {t_scalar:>10.3f} {t_vector:>10.3f} "
        f"{speedup:>7.1f}x {loops:>13s}  bitwise-equal (sweep on fronts)"])
    assert speedup >= 2.0, f"fronts sweep only {speedup:.1f}x"


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
def test_planned_jacobi_frame_near_the_hand_written_one():
    """The plan guard: a nest resolved once leaves the frame loop the
    lookups and the ufunc calls, 0.9-1.1x the hand-written frame on the
    2-core VM.  The slice emission that rebuilt bounds, slices and
    views every frame read 1.9-2.0x by the same ruler."""
    from repro.interp.pyback import compile_unit
    frames = 1000
    prog = compile_unit(parse_source(
        jacobi_5pt(n=64, m=32, iters=frames, eps=0.0)))
    emitted, hand = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        run = prog.run()
        emitted.append(time.perf_counter() - t0)
        hand.append(_hand_written_jacobi(64, 32, frames))
    assert run.plans_built == run.plan_nests == 5
    ratio = min(emitted) / min(hand)
    _emit_accumulated([
        f"{'jacobi 64x32':<14s} frame {min(emitted) / frames * 1e6:6.1f} us "
        f"emitted, {min(hand) / frames * 1e6:6.1f} us hand-written "
        f"(persistent views, out=): {ratio:.2f}x"])
    assert ratio <= 1.5, f"planned frame is {ratio:.2f}x the hand-written one"
