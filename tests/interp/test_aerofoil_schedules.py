"""The aerofoil's carried nests, small, through every way of running them.

The aerofoil is made of carried nests: sixteen direction-split sweeps
(carried in i, j or k) and the boundary-layer Gauss-Seidel pass (carried
in all three), each a native nest that runs in source order.  The scalar
sequential run is the reference; the native sequential run and the
stitched grids of every cut direction, every overlap mode (each on its
own input deck) and both executors must equal it bitwise.  The programs
whose nests carry nothing run no Python loop but their frame loop.
"""

import functools

import pytest

from repro.apps.aerofoil import AEROFOIL_INPUT, aerofoil_source
from repro.apps.kernels import jacobi_5pt
from repro.apps.sprayer import sprayer_source
from repro.core.pipeline import AutoCFD
from repro.interp.pyback import compile_unit

ARRAYS = "uvwpt"
#: overlap mode -> input deck: the usual deck and two drawn from the
#: benchmark's range (0.7-0.9); every mode emits the same program
DECKS = {"on": AEROFOIL_INPUT, "auto": "0.7312\n", "off": "0.8655\n"}


@functools.lru_cache(maxsize=None)
def _scalar_run(deck: str):
    acfd = AutoCFD.from_source(aerofoil_source(14, 9, 7, iters=2, eps=0.0))
    scalar = acfd.run_sequential(input_text=deck, native=False)
    return acfd, {a: scalar.array(a).data.tobytes() for a in ARRAYS}, scalar


@pytest.fixture(scope="module")
def aerofoil():
    return _scalar_run(AEROFOIL_INPUT)


def test_sequential_vectorized_equals_scalar(aerofoil):
    acfd, want, scalar = aerofoil
    vector = acfd.run_sequential(input_text=AEROFOIL_INPUT, native=True)
    for a in ARRAYS:
        assert vector.array(a).data.tobytes() == want[a], a
    assert vector.scalar("resid") == scalar.scalar("resid")
    assert vector.io.output() == scalar.io.output()


@pytest.mark.parametrize("overlap", ["on", "auto", "off"])
@pytest.mark.parametrize("dims,executor", [
    ((2, 1, 1), "thread"), ((1, 2, 1), "thread"), ((1, 1, 2), "thread"),
    ((2, 2, 1), "thread"), ((2, 1, 1), "process")],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
def test_stitched_grids_equal_sequential_scalar(dims, executor, overlap):
    acfd, want, _ = _scalar_run(DECKS[overlap])
    compiled = acfd.compile(partition=dims, overlap=overlap)
    # the cut turns no sweep scalar: only the frame loop is
    assert compiled.report.vector_loops == 23, compiled.report.nest_summary()
    assert [unit for unit, _, _ in compiled.report.fallback_reasons] \
        == ["aerofoil"]
    # "on" marks at least the sync before presscor on every cut
    assert (compiled.report.overlap_syncs > 0) == (overlap == "on")
    par = compiled.run_parallel(input_text=DECKS[overlap], timeout=60.0,
                                executor=executor)
    for a in ARRAYS:
        assert par.array(a).data.tobytes() == want[a], (a, dims, overlap)


def test_pipeline_calls_stay_outside_the_carried_nests(aerofoil):
    # acfd_pipe_recv/send bracket the nest: the lookup of its call
    # (bound on the first frame), the call and the DO variables' exit
    # values all go between them
    acfd, _, _ = aerofoil
    src = compile_unit(acfd.compile(partition=(2, 1, 1)).spmd_cu).source
    blayer = src[src.index("def u_blayer("):src.index("def u_convergence(")]
    marks = [blayer.index(s) for s in (
        "ctx.rt.pipe_recv(5", "_nc.get(", "_nc.bind(", "f_i, f_j, f_k, = ",
        "ctx.rt.pipe_send(5")]
    assert marks == sorted(marks)
    assert blayer.count("_nc.get(") == 1 and "for " not in blayer


@pytest.mark.parametrize("source,dims", [
    (sprayer_source(n=40, m=20, iters=2), (2, 1)),
    (jacobi_5pt(n=16, m=12, iters=2), (2, 1)),
], ids=["sprayer", "jacobi_5pt"])
def test_programs_without_carried_nests_get_no_carried_frame(source, dims):
    compiled = AutoCFD.from_source(source).compile(partition=dims)
    report = compiled.report
    # their only scalar nest is the frame loop, and it is the only
    # Python loop the rank runs: every other nest runs inside one native
    # call per run of adjacent nests
    assert report.fallback_loops == 1, report.fallback_reasons
    prog = compile_unit(compiled.spmd_cu)
    assert prog.source.count("for ") == 1
    assert prog.source.count("_nc.get(") == prog.nest_stats["regions"] \
        < report.vector_loops
