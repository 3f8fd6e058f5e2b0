"""Micro-benchmarks of the message-passing runtime overhaul.

Measures the three things the comm-core rewrite bought:

* small-message ping-pong latency — event-driven condition-variable
  wakeups with per-(source, tag) indexed matching, against a vendored
  replica of the pre-overhaul mailbox (50 ms polling tick + linear deque
  scan on every wakeup);
* time-to-diagnosis for a deadlocked program — the wait-for-graph
  detector against the 30 s wall-clock watchdog it replaced;
* copy traffic the one-copy halo send saves on a real generated
  program;
* the cost of recording, measured as enabled-vs-disabled trace on the
  backlogged ping-pong (guarded at a per-event budget);
* a halo face's way over one process-executor channel through its wire
  (slot views and shape words built once) against the generic payload
  path (guarded at a minimum speedup).

Results accumulate into ``benchmarks/results/host/micro_runtime.txt``;
the one-copy halo benchmark also writes its full Chrome-trace profile to
``benchmarks/results/host/micro_runtime_profile.json``.  Both are
git-ignored (host timings); the CI workflow uploads them as artifacts.
"""

import json
import multiprocessing
import threading
import time
from collections import deque

import numpy as np
import pytest

from machine import HOST_RESULTS_DIR, emit
from repro.apps.kernels import jacobi_5pt
from repro.core import AutoCFD
from repro.errors import RuntimeDeadlockError
from repro.obs import build_export
from repro.runtime import Trace, spmd_run
from repro.runtime.comm import fill_ghosts
from repro.runtime.halo import _Face
from repro.runtime.procexec import (_CHANNEL_BYTES, _Channel,
                                    _ChannelMailbox, _RemoteMailbox)

#: the pre-overhaul polling tick (50 ms)
_TICK = 0.05

#: result lines gathered across the tests in this module; each test
#: re-emits the accumulated file so a partial run still leaves a valid
#: artifact
_LINES: list[str] = ["runtime micro-benchmarks (ping-pong: 8-byte payload):"]


def _emit_accumulated(section: list[str]) -> None:
    _LINES.extend(section)
    emit("micro_runtime", _LINES, HOST_RESULTS_DIR)


class _TickMailbox:
    """Replica of the pre-overhaul mailbox: one unsorted deque, a linear
    scan on every wakeup, and a 50 ms polling tick with per-tick timeout
    accounting.  Kept verbatim as the latency baseline."""

    def __init__(self):
        self._cond = threading.Condition()
        self._messages = deque()

    def put(self, source, tag, payload):
        with self._cond:
            self._messages.append((source, tag, payload))
            self._cond.notify_all()

    def _find(self, source, tag):
        for i, (src, t, payload) in enumerate(self._messages):
            if (source is None or src == source) and \
                    (tag is None or t == tag):
                del self._messages[i]
                return payload
        return None

    def get(self, source, tag):
        with self._cond:
            while True:
                payload = self._find(source, tag)
                if payload is not None:
                    return payload
                self._cond.wait(_TICK)


def _tick_pingpong(backlog: int, rounds: int) -> float:
    """Per-roundtrip seconds on the replica mailbox pair."""
    boxes = [_TickMailbox(), _TickMailbox()]
    for box in boxes:
        for i in range(backlog):
            box.put(2, 99, i)  # pending messages every scan must walk past
    out = [0.0]

    def body(rank):
        peer = 1 - rank
        t0 = time.perf_counter()
        for i in range(rounds):
            if rank == 0:
                boxes[peer].put(rank, 0, i)
                boxes[rank].get(peer, 1)
            else:
                boxes[rank].get(peer, 0)
                boxes[peer].put(rank, 1, i)
        if rank == 0:
            out[0] = (time.perf_counter() - t0) / rounds

    threads = [threading.Thread(target=body, args=(r,)) for r in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out[0]


def _runtime_pingpong(backlog: int, rounds: int,
                      trace: Trace | None = None) -> float:
    """Per-roundtrip seconds on the real runtime."""

    def body(comm):
        peer = 1 - comm.rank
        for i in range(backlog):
            comm.send(peer, i, tag=99)  # never received: stays pending
        comm.barrier()
        t0 = time.perf_counter()
        for i in range(rounds):
            if comm.rank == 0:
                comm.send(peer, i, tag=0)
                comm.recv(peer, tag=1)
            else:
                comm.recv(peer, tag=0)
                comm.send(peer, i, tag=1)
        return (time.perf_counter() - t0) / rounds

    w = spmd_run(2, body, timeout=60.0, trace=trace)
    return w.results[0]


def test_bench_pingpong_latency(benchmark):
    """Acceptance: >= 5x lower small-message latency than the tick-based
    baseline, measured on the backlogged path the linear scan made slow
    (and sanity-checked against the 50 ms tick floor on the clean path)."""
    BACKLOG, ROUNDS = 4096, 300
    new_clean = _runtime_pingpong(0, 2000)
    new_backlog = _runtime_pingpong(BACKLOG, ROUNDS)
    tick_clean = _tick_pingpong(0, 2000)
    tick_backlog = _tick_pingpong(BACKLOG, ROUNDS)
    benchmark.pedantic(_runtime_pingpong, args=(0, 500), rounds=3,
                       iterations=1)

    _emit_accumulated([
        f"{'':>26s} {'tick baseline':>14s} {'event-driven':>13s}",
        f"{'clean roundtrip':>26s} {tick_clean * 1e6:12.1f} us "
        f"{new_clean * 1e6:11.1f} us",
        f"{'backlog {} roundtrip'.format(BACKLOG):>26s} "
        f"{tick_backlog * 1e6:12.1f} us {new_backlog * 1e6:11.1f} us",
        f"{'backlog speedup':>26s} {'':>14s} "
        f"{tick_backlog / new_backlog:10.1f}x",
    ])
    # clean path must be far under one polling tick per blocking recv
    assert new_clean < _TICK / 5, \
        f"clean roundtrip {new_clean * 1e6:.0f} us is not event-driven"
    # indexed matching vs the linear scan: the headline >= 5x
    assert tick_backlog >= 5 * new_backlog, \
        (f"only {tick_backlog / new_backlog:.1f}x vs tick baseline "
         f"({tick_backlog * 1e6:.0f} vs {new_backlog * 1e6:.0f} us)")


@pytest.mark.benchsmoke
def test_bench_deadlock_diagnosis_time():
    """The detector replaces a 30 s watchdog trip with a sub-second
    diagnosis that names the cycle."""

    def body(comm):
        comm.recv(1 - comm.rank, tag=1)

    t0 = time.perf_counter()
    with pytest.raises(RuntimeDeadlockError) as ei:
        spmd_run(2, body, timeout=30.0)
    elapsed = time.perf_counter() - t0
    assert "wait-for cycle" in str(ei.value)
    assert elapsed < 2.0
    _emit_accumulated([
        f"{'deadlock diagnosis':>26s} {'30 s (watchdog)':>14s} "
        f"{elapsed * 1e3:10.1f} ms",
    ])


@pytest.mark.benchsmoke
def test_bench_halo_zero_copy():
    """Copy bytes the one-copy halo send avoids on a generated jacobi
    program; also writes the run's full observability profile
    (compiler phases + per-rank timeline) as a Chrome-trace artifact."""
    acfd = AutoCFD.from_source(jacobi_5pt(n=48, m=32, iters=20, eps=0.0))
    compiled = acfd.compile(partition=(2, 1))
    result = compiled.run_parallel()
    stats = result.comm_stats
    assert stats["saved_bytes"] > 0
    frac = stats["saved_bytes"] / max(1, stats["bytes_sent"])
    roll = result.rollup()
    _emit_accumulated([
        "",
        "one-copy halo sends (jacobi 48x32, 20 frames, 2 ranks):",
        f"  bytes sent:  {stats['bytes_sent']:>10d}",
        f"  bytes saved: {stats['saved_bytes']:>10d} "
        f"({100 * frac:.0f}% of send traffic not duplicated)",
        f"  blocked wall-time accounted: {stats['wait_s'] * 1e3:.1f} ms "
        f"across {stats['sends']} sends / {stats['syncs']} syncs",
        f"  load imbalance {roll.load_imbalance:.2f}, critical-path rank "
        f"{roll.critical_path_rank}",
    ])
    profile = build_export(compiler=acfd.obs, trace=result.trace)
    out = HOST_RESULTS_DIR / "micro_runtime_profile.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(profile, indent=1) + "\n")
    assert any(e.get("ph") == "X" for e in profile["traceEvents"])


#: what one trace record may cost on the ping-pong path, against the
#: record-nothing floor.  Measured 0.36-0.43 us on a calm host and 0.87
#: us in one of this VM's slow phases (a tuple, one clock read and a
#: list append, plus sizing the payload); the lock-plus-dataclass
#: recorder this path once had cost 2.7 us.
_EVENT_BUDGET = 2.0e-6


@pytest.mark.benchsmoke
def test_bench_instrumentation_overhead():
    """Overhead guard: recording must stay within ``_EVENT_BUDGET`` per
    event on the backlogged ping-pong roundtrip (the runtime's most
    event-dense path — four trace records per roundtrip: two sends, two
    receives, each through the rank's ``Trace.writer``).

    The floor is the same run with ``Trace(enabled=False)``, where the
    communicator gets no writer and skips sizing, stamping and
    appending altogether; the difference is the whole price of having
    sync counts and spans."""
    BACKLOG, ROUNDS, REPS, EVENTS = 512, 400, 7, 4
    _runtime_pingpong(BACKLOG, ROUNDS, trace=Trace())  # warm-up
    times: dict[str, list[float]] = {"off": [], "on": []}
    for _ in range(REPS):  # interleaved so drift hits both modes alike
        times["off"].append(
            _runtime_pingpong(BACKLOG, ROUNDS, trace=Trace(enabled=False)))
        times["on"].append(
            _runtime_pingpong(BACKLOG, ROUNDS, trace=Trace()))
    off, on = min(times["off"]), min(times["on"])
    per_event = (on - off) / EVENTS
    _emit_accumulated([
        "",
        f"instrumentation overhead (backlog {BACKLOG} ping-pong, "
        f"best of {REPS}):",
        f"  recording off (floor):    {off * 1e6:8.2f} us/roundtrip",
        f"  recording on:             {on * 1e6:8.2f} us/roundtrip",
        f"  per event ({EVENTS}/roundtrip):    {per_event * 1e9:8.0f} ns  "
        f"(budget: {_EVENT_BUDGET * 1e9:.0f} ns);  "
        f"vs floor: {100 * (on / off - 1.0):+.1f}%",
    ])
    assert per_event < _EVENT_BUDGET, \
        (f"a trace record costs {per_event * 1e9:.0f} ns over the "
         f"record-nothing floor ({off * 1e6:.2f} -> {on * 1e6:.2f} "
         f"us/roundtrip), budget {_EVENT_BUDGET * 1e9:.0f} ns")


#: the wire's speedup over the generic path that the guard demands;
#: measured 2.1-2.7x (one array) and 3.3-3.7x (four) in six runs on a
#: shared 2-core VM, so one array clears it by 15-50%
_WIRE_MIN_SPEEDUP = 1.8


def _face_trips(narrays: int, wired: bool, rounds: int) -> tuple:
    """Seconds per face send + take over one in-process channel pair,
    and whether every ghost ended bitwise equal to what was sent."""
    buf = memoryview(bytearray(_CHANNEL_BYTES))
    # the doorbell the executor uses: threading.Semaphore's Python-level
    # release and acquire would cost more than the wire's copies
    doorbell = multiprocessing.Semaphore(0)
    sender = _RemoteMailbox(1, _Channel(buf, 0, True), threading.Lock(),
                            doorbell, threading.Event())
    receiver = _ChannelMailbox(1, {0: _Channel(buf, 0, False)}, doorbell)
    failed = threading.Event()
    rng = np.random.default_rng(narrays)
    sent = [rng.random(100) for _ in range(narrays)]
    out = _Face(1, 3, sent)
    into = _Face(0, 3, [np.zeros(100) for _ in range(narrays)])
    t0 = time.perf_counter()
    for _ in range(rounds):
        if wired:
            sender.write_face(out)
            receiver.take_head(0, 3, failed, into)
        else:
            sender.write(3, out.views)
            payload, _waited = receiver.take_head(0, 3, failed)
            fill_ghosts(into.views, payload)
    per_trip = (time.perf_counter() - t0) / rounds
    return per_trip, all(a.tobytes() == b.tobytes()
                         for a, b in zip(sent, into.views))


@pytest.mark.benchsmoke
def test_bench_face_wire():
    """A face through its wire — copies into and out of slot views built
    once — against the generic ``write`` + ``take_head`` +
    ``fill_ghosts`` path, faces of 1 and of 4 arrays of 100 doubles,
    best of 7, no second process (so no waiting is timed)."""
    ROUNDS, REPS = 2000, 7
    lines = ["", f"halo face over one channel pair (arrays of 100 doubles, "
             f"best of {REPS}):"]
    for narrays in (1, 4):
        best = {False: float("inf"), True: float("inf")}
        for _ in range(REPS):
            # interleaved, so that a burst of load on the host lands on
            # both paths rather than on all of one path's repetitions
            for wired in (False, True):
                per_trip, equal = _face_trips(narrays, wired, ROUNDS)
                assert equal, f"ghosts differ (wired={wired})"
                best[wired] = min(best[wired], per_trip)
        speedup = best[False] / best[True]
        lines.append(f"  {narrays} array(s): generic {best[False] * 1e6:6.2f}"
                     f" us, wire {best[True] * 1e6:6.2f} us  "
                     f"({speedup:.1f}x)")
        assert speedup >= _WIRE_MIN_SPEEDUP, \
            (f"the wire is only {speedup:.1f}x the generic path for "
             f"{narrays} array(s), {_WIRE_MIN_SPEEDUP}x demanded")
    _emit_accumulated(lines)
