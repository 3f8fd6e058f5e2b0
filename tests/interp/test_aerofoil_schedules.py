"""The aerofoil's carried nests, small, through every way of running them.

The aerofoil is the program the carried schedules exist for: sixteen
direction-split sweeps (carried in i, j or k: ``carried-outer``) and the
boundary-layer Gauss-Seidel pass (carried in all three: ``fronts``).
The scalar sequential run is the reference; the vectorized sequential
run and the stitched grids of every cut direction, both overlap modes
and both executors must equal it bitwise.  The programs whose nests
carry nothing must not get a carried frame at all.
"""

import pytest

from repro.apps.aerofoil import AEROFOIL_INPUT, aerofoil_source
from repro.apps.kernels import jacobi_5pt
from repro.apps.sprayer import sprayer_source
from repro.core.pipeline import AutoCFD
from repro.interp.pyback import compile_unit

ARRAYS = "uvwpt"


@pytest.fixture(scope="module")
def aerofoil():
    acfd = AutoCFD.from_source(aerofoil_source(14, 9, 7, iters=2, eps=0.0))
    scalar = acfd.run_sequential(input_text=AEROFOIL_INPUT, vectorize=False)
    return acfd, {a: scalar.array(a).data.tobytes() for a in ARRAYS}, scalar


def test_sequential_vectorized_equals_scalar(aerofoil):
    acfd, want, scalar = aerofoil
    vector = acfd.run_sequential(input_text=AEROFOIL_INPUT, vectorize=True)
    for a in ARRAYS:
        assert vector.array(a).data.tobytes() == want[a], a
    assert vector.scalar("resid") == scalar.scalar("resid")
    assert vector.io.output() == scalar.io.output()


@pytest.mark.parametrize("overlap", ["auto", "off"])
@pytest.mark.parametrize("dims,executor", [
    ((2, 1, 1), "thread"), ((1, 2, 1), "thread"), ((1, 1, 2), "thread"),
    ((2, 2, 1), "thread"), ((2, 1, 1), "process")],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
def test_stitched_grids_equal_sequential_scalar(aerofoil, dims, executor,
                                                overlap):
    acfd, want, _ = aerofoil
    compiled = acfd.compile(partition=dims, overlap=overlap)
    modes = compiled.report.vector_modes
    # the cut turns no sweep into a fallback: only the frame loop is one
    assert modes["carried-outer"] == 16 and modes["fronts"] == 1, modes
    assert [unit for unit, _, _ in compiled.report.fallback_reasons] \
        == ["aerofoil"]
    par = compiled.run_parallel(input_text=AEROFOIL_INPUT, timeout=60.0,
                                executor=executor)
    for a in ARRAYS:
        assert par.array(a).data.tobytes() == want[a], (a, dims, overlap)


def test_pipeline_calls_stay_outside_the_carried_nests(aerofoil):
    # acfd_pipe_recv/send bracket the nest: the plan lookup (which
    # builds on the first frame), the front loop and the DO variables'
    # exit values all go between them
    acfd, _, _ = aerofoil
    src = compile_unit(acfd.compile(partition=(2, 1, 1)).spmd_cu).source
    blayer = src[src.index("def u_blayer("):src.index("def u_convergence(")]
    marks = [blayer.index(s) for s in (
        "ctx.rt.pipe_recv(5", "_pl.get(", "_vplan_fronts(", " in _vz1fr:",
        "f_k = _vz1e2", "ctx.rt.pipe_send(5")]
    assert marks == sorted(marks)
    assert blayer.count("_pl.get(") == blayer.count("for ") == 1


@pytest.mark.parametrize("source,dims", [
    (sprayer_source(n=40, m=20, iters=2), (2, 1)),
    (jacobi_5pt(n=16, m=12, iters=2), (2, 1)),
], ids=["sprayer", "jacobi_5pt"])
def test_programs_without_carried_nests_get_no_carried_frame(source, dims):
    compiled = AutoCFD.from_source(source).compile(partition=dims)
    report = compiled.report
    assert report.vector_modes == {
        "slice": report.vector_loops, "carried-outer": 0, "fronts": 0}
    # their only fallback is the frame loop
    assert report.fallback_loops == 1, report.fallback_reasons
    emitted = compile_unit(compiled.spmd_cu).source
    assert "for _vz" not in emitted and "_vplan_fronts" not in emitted
