"""Overlap on/off bitwise equivalence across the whole gallery.

The overlapped split program must be the *same computation* as the
blocking one — interior plus boundary strips tile each nest exactly
once, and ghosts are identical at every read — so final grids compare
equal by raw bytes on every kernel, both rank executors, and both
backends.  Any divergence is a bug in the strip bounds, the liveness
gate, or the nonblocking runtime.
"""

import pytest

from repro.core.pipeline import AutoCFD

from tests.interp.test_executor_equivalence import CASES


def _dims(acfd):
    # two cut dimensions: on a single cut every gallery kernel's stencil
    # sync is entry-only (fresh from the bottom-of-frame sync), so
    # nothing is split there and overlap "auto" is the blocking program
    return (2, 2) + (1,) * (len(acfd.grid.shape) - 2)


@pytest.mark.parametrize("name,gen", CASES, ids=[n for n, _ in CASES])
def test_overlap_matches_blocking_thread_executor(name, gen):
    acfd = AutoCFD.from_source(gen())
    dims = _dims(acfd)
    blocking = acfd.compile(partition=dims, overlap="off")
    overlapped = acfd.compile(partition=dims, overlap="auto")
    base = blocking.run_parallel(timeout=60.0)
    over = over_vec = overlapped.run_parallel(timeout=60.0)
    over_sca = overlapped.run_parallel(timeout=60.0, vectorize=False)
    assert base.output() == over.output()
    for aname in blocking.plan.arrays:
        want = base.array(aname).data.tobytes()
        assert want == over_vec.array(aname).data.tobytes(), \
            f"{name}: overlap diverges from blocking on {aname!r} (vector)"
        assert want == over_sca.array(aname).data.tobytes(), \
            f"{name}: overlap diverges from blocking on {aname!r} (scalar)"


@pytest.mark.parametrize("name,gen", CASES, ids=[n for n, _ in CASES])
def test_overlap_matches_blocking_process_executor(name, gen):
    acfd = AutoCFD.from_source(gen())
    dims = _dims(acfd)
    blocking = acfd.compile(partition=dims, overlap="off")
    overlapped = acfd.compile(partition=dims, overlap="auto")
    base = blocking.run_parallel(timeout=60.0)
    proc = overlapped.run_parallel(timeout=60.0, executor="process")
    assert base.output() == proc.output()
    for aname in blocking.plan.arrays:
        assert (base.array(aname).data.tobytes()
                == proc.array(aname).data.tobytes()), \
            f"{name}: overlap diverges from blocking on {aname!r} (process)"


def test_gallery_has_at_least_one_overlapped_kernel():
    # the matrix is vacuous if the gate refuses everything: assert some
    # kernels actually take the nonblocking path on the 2x2 cut, and
    # that none does on 2x1, where sync 1 has nothing left to send
    enabled = []
    for name, gen in CASES:
        acfd = AutoCFD.from_source(gen())
        plan = acfd.compile(partition=_dims(acfd)).plan
        if any(d.enabled for d in plan.overlap_decisions):
            enabled.append(name)
        single = (2,) + (1,) * (len(acfd.grid.shape) - 1)
        first = acfd.compile(partition=single).plan.overlap_decisions[0]
        assert (first.enabled, first.reason) == (
            False, "nothing to send after the first frame"), name
    assert "jacobi_5pt" in enabled
    assert "heat_3d" in enabled

# -- interprocedural: stencils behind call boundaries ------------------------------
#
# The paper's own apps keep every stencil in a subroutine, so these
# variants pin the call-site split: the combined sync stays in the main
# program (its ghosts feed two callees) and only the interprocedural
# rewrite — the exchange sunk into the first callee, whose nest becomes
# begin / interior / finish / strips — can overlap it.

from repro.apps import kernels  # noqa: E402

SUB_CASES = [
    ("jacobi_5pt_sub", lambda: kernels.jacobi_5pt_sub(n=12, m=8, iters=6),
     (2, 2)),
    ("jacobi_9pt_sub", lambda: kernels.jacobi_9pt_sub(n=12, m=8, iters=6),
     (2, 2)),
    ("heat_3d_sub", lambda: kernels.heat_3d_sub(n=8, m=6, l=5, iters=4),
     (2, 2, 1)),
]
_SUB_IDS = [n for n, _g, _d in SUB_CASES]


@pytest.mark.parametrize("name,gen,dims", SUB_CASES, ids=_SUB_IDS)
def test_subroutine_stencils_match_blocking_thread_executor(name, gen, dims):
    acfd = AutoCFD.from_source(gen())
    blocking = acfd.compile(partition=dims, overlap="off")
    overlapped = acfd.compile(partition=dims, overlap="auto")
    base = blocking.run_parallel(timeout=60.0)
    over_vec = overlapped.run_parallel(timeout=60.0)
    over_sca = overlapped.run_parallel(timeout=60.0, vectorize=False)
    assert base.output() == over_vec.output()
    for aname in blocking.plan.arrays:
        want = base.array(aname).data.tobytes()
        assert want == over_vec.array(aname).data.tobytes(), \
            f"{name}: overlap diverges from blocking on {aname!r} (vector)"
        assert want == over_sca.array(aname).data.tobytes(), \
            f"{name}: overlap diverges from blocking on {aname!r} (scalar)"


@pytest.mark.parametrize("name,gen,dims", SUB_CASES, ids=_SUB_IDS)
def test_subroutine_stencils_match_blocking_process_executor(name, gen, dims):
    acfd = AutoCFD.from_source(gen())
    blocking = acfd.compile(partition=dims, overlap="off")
    overlapped = acfd.compile(partition=dims, overlap="auto")
    base = blocking.run_parallel(timeout=60.0)
    proc = overlapped.run_parallel(timeout=60.0, executor="process")
    assert base.output() == proc.output()
    for aname in blocking.plan.arrays:
        assert (base.array(aname).data.tobytes()
                == proc.array(aname).data.tobytes()), \
            f"{name}: overlap diverges from blocking on {aname!r} (process)"


def test_subroutine_stencils_take_interprocedural_path():
    # vacuity guard: the matrix above must actually cross call
    # boundaries, not fall back to the intra-unit split
    for name, gen, dims, callee in [
        ("jacobi_5pt_sub",
         lambda: kernels.jacobi_5pt_sub(n=12, m=8, iters=6), (2, 2),
         "relaxx"),
        ("heat_3d_sub",
         lambda: kernels.heat_3d_sub(n=8, m=6, l=5, iters=4), (2, 2, 1),
         "diffx"),
    ]:
        plan = AutoCFD.from_source(gen()).compile(
            partition=dims, overlap="auto").plan
        hits = [d for d in plan.overlap_decisions
                if d.enabled and d.callee == callee]
        assert hits, f"{name}: no interprocedural split through {callee!r}"
    # and the refusal taxonomy crosses the boundary too: the 9-point
    # x-pass reads corners, unsafe on a two-cut partition
    plan = AutoCFD.from_source(
        kernels.jacobi_9pt_sub(n=12, m=8, iters=6)).compile(
        partition=(2, 2), overlap="auto").plan
    dec = next(d for d in plan.overlap_decisions if d.callee == "smooth9x")
    assert not dec.enabled
    assert "diagonal" in dec.reason


def test_paper_apps_overlap_interprocedurally_and_match_blocking():
    # the acceptance criterion: both case studies accept >= 1 sync
    # across a call boundary and stay bitwise-identical to blocking on
    # both executors
    from repro.apps.aerofoil import AEROFOIL_INPUT, aerofoil_source
    from repro.apps.sprayer import sprayer_source
    for label, src, dims, inp in [
        ("sprayer", sprayer_source(n=32, m=16, iters=4, stages=2),
         (2, 2), "2.5 8\n"),
        ("aerofoil", aerofoil_source(nx=21, ny=9, nz=7, iters=3,
                                     stages=2, blayer_passes=1),
         (2, 2, 1), AEROFOIL_INPUT),
    ]:
        acfd = AutoCFD.from_source(src)
        overlapped = acfd.compile(partition=dims, overlap="auto")
        accepted = [d for d in overlapped.plan.overlap_decisions
                    if d.enabled]
        assert accepted, f"{label}: every sync refused"
        assert any(d.callee for d in accepted), \
            f"{label}: no sync crossed a call boundary"
        blocking = acfd.compile(partition=dims, overlap="off")
        for executor in ("thread", "process"):
            base = blocking.run_parallel(input_text=inp, timeout=120.0,
                                         executor=executor)
            over = overlapped.run_parallel(input_text=inp, timeout=120.0,
                                           executor=executor)
            for aname in blocking.plan.arrays:
                assert (base.array(aname).data.tobytes()
                        == over.array(aname).data.tobytes()), \
                    f"{label}/{executor}: diverges on {aname!r}"
