"""Every gallery kernel through all the executors, compared bitwise.

The reference interpreter, the scalar numpy backend, and the native
nests (compiled to C) are three independent executions of the same
Fortran semantics; any divergence in final field arrays or program
output is a bug in one of them.  Grids are compared by raw bytes — not
approximate equality — because the native nests' contract is bitwise
identity.

The same contract extends across *rank executors*: the parallel run on
in-process threads and on one-OS-process-per-rank workers must produce
bitwise-identical stitched grids, even though the process executor
pickles payloads (or ships them through shared memory) instead of
handing references across threads.
"""

import pytest

from repro.apps import kernels
from repro.apps.sprayer import sprayer_source
from repro.core.pipeline import AutoCFD
from repro.fortran.parser import parse_source
from repro.interp.interpreter import Interpreter
from repro.interp.io_runtime import IoManager
from repro.interp.pyback import run_compiled
from repro.interp.values import OffsetArray

#: every kernel in the gallery, shrunk so the interpreter stays fast
CASES = [
    ("jacobi_5pt", lambda: kernels.jacobi_5pt(n=12, m=8, iters=6)),
    ("jacobi_9pt", lambda: kernels.jacobi_9pt(n=12, m=8, iters=6)),
    ("gauss_seidel_2d", lambda: kernels.gauss_seidel_2d(n=10, m=8, iters=6)),
    ("sor_2d", lambda: kernels.sor_2d(n=10, m=8, iters=6)),
    ("redblack_2d", lambda: kernels.redblack_2d(n=10, m=8, iters=6)),
    ("line_sweep_x", lambda: kernels.line_sweep_x(n=12, m=8, iters=6)),
    ("heat_3d", lambda: kernels.heat_3d(n=8, m=6, l=5, iters=4)),
    ("wide_stencil_2d", lambda: kernels.wide_stencil_2d(n=12, m=8, iters=4)),
    ("packed_states_2d", lambda: kernels.packed_states_2d(n=10, m=8,
                                                          iters=4)),
]


def _arrays(values: dict) -> dict[str, OffsetArray]:
    return {k: v for k, v in values.items() if isinstance(v, OffsetArray)}


@pytest.mark.parametrize("name,gen", CASES, ids=[n for n, _ in CASES])
def test_three_executors_agree(name, gen):
    src = gen()

    interp = Interpreter(parse_source(src), io=IoManager())
    scope = interp.run()
    scalar = run_compiled(parse_source(src), io=IoManager(), native=False)
    vector = run_compiled(parse_source(src), io=IoManager(), native=True)

    assert interp.io.output() == scalar.io.output() == vector.io.output()

    i_arrays = _arrays(scope.values)
    s_arrays = _arrays(scalar.values)
    v_arrays = _arrays(vector.values)
    assert set(i_arrays) == set(s_arrays) == set(v_arrays)
    assert i_arrays, "kernel must expose at least one field array"
    for aname, ref in i_arrays.items():
        assert ref.data.tobytes() == s_arrays[aname].data.tobytes(), \
            f"{name}: interpreter vs scalar backend differ on {aname!r}"
        assert ref.data.tobytes() == v_arrays[aname].data.tobytes(), \
            f"{name}: interpreter vs native nests differ on {aname!r}"


@pytest.mark.parametrize("name,gen", CASES, ids=[n for n, _ in CASES])
def test_thread_and_process_executors_agree(name, gen):
    # the parallel run itself, on both rank executors: the process
    # executor crosses a pickle/shared-memory boundary on every halo
    # exchange, so this catches any serialization-induced divergence
    acfd = AutoCFD.from_source(gen())
    dims = (2,) + (1,) * (len(acfd.grid.shape) - 1)
    compiled = acfd.compile(partition=dims)
    thread = compiled.run_parallel(timeout=60.0)
    proc = compiled.run_parallel(timeout=60.0, executor="process")
    assert thread.output() == proc.output()
    assert compiled.plan.arrays, "kernel must expose a status array"
    for aname in compiled.plan.arrays:
        assert (thread.array(aname).data.tobytes()
                == proc.array(aname).data.tobytes()), \
            f"{name}: thread vs process executor differ on {aname!r}"


@pytest.mark.parametrize("name,gen", [
    ("sprayer", lambda: sprayer_source(300, 100, iters=3, eps=0.0)),
    ("jacobi_64x32", lambda: kernels.jacobi_5pt(64, 32, iters=20, eps=0.0)),
], ids=["sprayer", "jacobi_64x32"])
def test_benchmark_programs_stay_on_the_channel(name, gen):
    # the process workloads of the benchmark at their real message sizes:
    # the same grids as on threads, and nothing was chunked or deferred
    compiled = AutoCFD.from_source(gen()).compile(partition=(2, 1))
    deck = "2.5 30\n" if name == "sprayer" else None
    thread = compiled.run_parallel(input_text=deck, timeout=60.0)
    proc = compiled.run_parallel(input_text=deck, timeout=60.0,
                                 executor="process")
    for aname in compiled.plan.arrays:
        assert (thread.array(aname).data.tobytes()
                == proc.array(aname).data.tobytes()), aname
    assert "transport" not in thread.comm_stats
    transport = proc.comm_stats["transport"]
    assert transport["overflow"] == 0
    assert transport["ring"] >= proc.comm_stats["sends"] > 0


def _worker_rss_kib() -> list[int]:
    from repro.runtime.procexec import get_pool
    out = []
    for worker in get_pool(2).workers:
        with open(f"/proc/{worker.process.pid}/status",
                  encoding="ascii") as fh:
            out += [int(line.split()[1]) for line in fh
                    if line.startswith("VmRSS:")]
    return out


def test_workers_free_each_run_without_the_cycle_collector():
    # a rank body used to leave RankRuntime <-> Ctx behind, and the nest
    # plans on Ctx now pin views and scratch to it; the worker ran
    # gc.collect() after every run.  With both ends unbound, reference
    # counts do it: resident size stays where the third run left it
    compiled = AutoCFD.from_source(
        kernels.jacobi_5pt(64, 32, iters=20, eps=0.0)).compile(
            partition=(2, 1))
    for run in range(30):
        compiled.run_parallel(timeout=60.0, executor="process")
        if run == 2:
            settled = _worker_rss_kib()
    assert len(settled) == 2
    for before, after in zip(settled, _worker_rss_kib()):
        assert after - before <= 1024, (settled, _worker_rss_kib())
