"""A process translates each SPMD program once, on either executor.

``runner.compiled_program`` keeps the ``PROGRAMS_KEEP`` most recently
used compiled programs, keyed by the digest of the pickled ``(spmd_cu,
native)`` and whether the host has a C compiler.  Translations are
counted with ``ParallelResult.translations``: what the launcher did on
threads, what each worker reported on processes (every worker of the
persistent pool keeps its own cache).  On threads a patched
``compile_unit`` in the runner counts them as well.

Every program here is a small Jacobi whose ``eps`` literal is unique to
the test, so no other test in the session can have translated it; the
literal sits outside the loop nests, so all of them share one native
library and no test waits for the C compiler more than once.
"""

import itertools
import pickle
import sys
import threading

import pytest

from repro.apps.kernels import jacobi_5pt
from repro.codegen import runner
from repro.core import AutoCFD
from repro.faults import FaultEvent, FaultPlan, run_recovered
from repro.fortran.parser import parse_source

EXECUTORS = ["thread", "process"]
NPROCS = 2
FRAMES = 6

_unique = itertools.count(1)


def _source() -> str:
    """A program no other test has run (a fresh ``eps`` literal)."""
    return jacobi_5pt(n=16, m=12, iters=FRAMES,
                      eps=1.0e-9 * (1.0 + next(_unique) / 4096))


def _run(src: str, executor: str, native: bool = True):
    return AutoCFD.from_source(src).compile(partition=(NPROCS, 1)) \
        .run_parallel(executor=executor, native=native, timeout=60.0)


@pytest.fixture
def translated(monkeypatch, executor):
    """The launcher's calls of ``compile_unit`` on threads (on processes
    nothing is patched: a pool forked now would keep the patch)."""
    calls = []
    if executor != "thread":
        return calls
    compile_unit = runner.compile_unit

    def counting(cu, **kwargs):
        calls.append(kwargs)
        return compile_unit(cu, **kwargs)

    monkeypatch.setattr(runner, "compile_unit", counting)
    return calls


def _fresh(executor: str) -> int:
    """``translations`` of a run that translated the program."""
    return NPROCS if executor == "process" else 1


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_repeat_run_translates_nothing(executor, translated):
    src = _source()
    assert _run(src, executor).translations == _fresh(executor)
    again = _run(src, executor)
    assert again.translations == 0
    if executor == "thread":
        assert len(translated) == 1


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_changed_literal_translates_again(executor, translated):
    first, second = _source(), _source()
    assert first != second
    assert _run(first, executor).translations == _fresh(executor)
    assert _run(second, executor).translations == _fresh(executor)
    assert _run(first, executor).translations == 0
    if executor == "thread":
        assert len(translated) == 2


@pytest.mark.parametrize("executor", EXECUTORS)
def test_native_and_scalar_are_separate_entries(executor, translated):
    src = _source()
    native = _run(src, executor, native=True)
    scalar = _run(src, executor, native=False)
    assert native.translations == scalar.translations == _fresh(executor)
    assert native.regions > 0 and scalar.regions == 0
    assert _run(src, executor, native=True).translations == 0
    assert _run(src, executor, native=False).translations == 0
    if executor == "thread":
        assert [kw["native"] for kw in translated] == [True, False]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_the_least_recently_used_program_is_evicted(executor):
    keep = runner.PROGRAMS_KEEP
    programs = [_source() for _ in range(keep + 1)]
    for src in programs[:keep]:
        assert _run(src, executor).translations == _fresh(executor)
    # using the oldest makes the second oldest the least recently used
    assert _run(programs[0], executor).translations == 0
    assert _run(programs[keep], executor).translations == _fresh(executor)
    assert _run(programs[0], executor).translations == 0
    assert _run(programs[1], executor).translations == _fresh(executor)
    if executor == "thread":
        assert len(runner._PROGRAMS) == keep


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_cached_run_equals_an_uncached_one_bitwise(executor):
    src = _source()
    seq = AutoCFD.from_source(src).run_sequential()
    cold, warm = _run(src, executor), _run(src, executor)
    assert (cold.translations, warm.translations) == (_fresh(executor), 0)
    assert sorted(cold.arrays) == sorted(warm.arrays) == ["v", "vnew"]
    for name in cold.arrays:
        want = seq.array(name).data
        for par in (cold, warm):
            got = par.array(name).data
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
    assert warm.output() == cold.output() == seq.io.output()


@pytest.mark.parametrize("executor", ["thread"])
def test_a_recovery_attempt_reuses_the_first_attempts_program(executor,
                                                              tmp_path,
                                                              translated):
    compiled = AutoCFD.from_source(_source()).compile(partition=(NPROCS, 1))
    plan = FaultPlan(events=[FaultEvent("crash", 1, frame=3)], seed=0)
    result, attempts, injector = run_recovered(
        compiled.plan, compiled.spmd_cu, fault_plan=plan,
        ckpt_dir=str(tmp_path), timeout=60.0, max_restarts=3,
        executor=executor)
    assert [f["kind"] for f in injector.fired()] == ["crash"]
    assert len(attempts) >= 2 and attempts[-1].error is None
    assert len(translated) == 1
    assert result.translations == 0


def test_concurrent_lookups_return_the_program_of_their_key():
    # more threads than cores and a short switch interval, over more
    # programs than the cache keeps: misses, hits and evictions overlap
    blobs = [pickle.dumps((parse_source(_source()), False))
             for _ in range(runner.PROGRAMS_KEEP + 2)]
    want = [runner.compile_unit(pickle.loads(blob)[0], native=False)
            .run().scalar("eps") for blob in blobs]
    errors = []

    def lookups(start: int) -> None:
        try:
            for k in range(25):
                i = (start + 3 * k) % len(blobs)
                program, _ = runner.compiled_program(blobs[i])
                if program.run().scalar("eps") != want[i]:
                    errors.append(i)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(runner._PROGRAMS) <= runner.PROGRAMS_KEEP
