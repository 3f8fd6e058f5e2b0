"""SPMD world launcher: run one function per rank on threads.

The launcher creates the shared mailboxes, a world barrier, a trace, and
the world's :class:`DeadlockDetector`, then runs ``fn(comm)`` for every
rank.  It wakes the moment a rank exits and at least every
``_HEARTBEAT``: it re-notes the blocked ranks with live counters, fails
the world on a rank's error, and runs the deadlock check.  A failure
wakes every other rank (their receives raise) and gives them the
watchdog deadline to unwind; the root cause is re-raised in the caller
with rank attribution.  The process executor
(:mod:`repro.runtime.procexec`) launches through the same :class:`_Launch`:
one detector rule, one ``fail_world``, one failure report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.runtime.comm import (_HEARTBEAT, Communicator, DeadlockDetector,
                                _Mailbox)
from repro.runtime.trace import Trace

#: failure kinds, root cause first: a real error beats an unexplained
#: worker death beats the deadlock diagnosis beats the comm-cascade
#: failures (broken barriers, watchdog trips, failure wakeups) any of them
#: triggered
_CAUSES = ("other", "killed", "deadlock", "comm")


def _exc_kind(exc: BaseException) -> str:
    if isinstance(exc, RuntimeDeadlockError):
        return "deadlock"
    if isinstance(exc, RuntimeCommError):
        return "comm"
    return "other"


@dataclass
class World:
    """A launched SPMD world; holds results and the message trace."""

    size: int
    results: list = field(default_factory=list)
    trace: Trace = field(default_factory=Trace)
    #: process executor only: messages by route (``ring``: written as
    #: one slot at send time, ``overflow``: chunked over several slots
    #: or deferred to the sender's backlog; ``head_takes``: received in
    #: place), receiver waits by kind
    #: (``doorbell_sleeps``, ``spin_hits``) and ``wait_reports`` (what
    #: the ranks told the launcher's deadlock detector), summed over the
    #: ranks that reported
    transport: dict | None = None


class _Launch:
    """What both launchers share: the deadlock detector, the ranks'
    errors, the post-failure deadline and the failure report.

    *broadcast* is the executor's way to wake every rank to a failure
    (with the deadlock diagnosis, if that is the failure).
    """

    def __init__(self, timeout: float, detector: DeadlockDetector,
                 broadcast) -> None:
        self.timeout = timeout
        self.detector = detector
        self._broadcast = broadcast
        #: rank -> (kind, type name, message, exception or None)
        self.errors: dict[int, tuple] = {}
        #: armed by the first failure: the rest must stop by then
        self.deadline: float | None = None

    def error(self, rank: int, kind: str, tname: str, text: str,
              exc: BaseException | None = None) -> None:
        self.errors.setdefault(rank, (kind, tname, text, exc))

    def fail_world(self, diagnosis: str | None = None) -> None:
        if self.deadline is None:
            self.deadline = time.monotonic() + self.timeout
            self._broadcast(diagnosis)

    def tick(self) -> None:
        """Fail the world on a rank's error, else run the deadlock check."""
        if self.errors:
            self.fail_world()
            return
        diagnosis = self.detector.check()
        if diagnosis is not None:
            self.fail_world(diagnosis)

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def raise_failure(self, stuck: list[int]) -> None:
        """Name the ranks that did not stop, or raise the root cause."""
        errors = dict(self.errors)  # a stuck thread may still add one
        if stuck:
            first = ""
            if errors:
                rank = min(errors)
                _, tname, text, _ = errors[rank]
                first = f"; first failure: rank {rank}: {tname}: {text}"
            raise RuntimeCommError(
                f"world failed but rank(s) {', '.join(map(str, stuck))} did "
                f"not stop within the {self.timeout}s watchdog — likely "
                f"spinning in compute-only code that never observes the "
                f"failure{first}\n{self.detector.snapshot()}")
        if errors:
            rank = min(errors, key=lambda r: (_CAUSES.index(errors[r][0]), r))
            kind, tname, text, exc = errors[rank]
            wrapper = (RuntimeDeadlockError if kind == "deadlock"
                       else RuntimeCommError)
            raise wrapper(f"rank {rank} failed: {tname}: {text}") from exc


def spmd_run(size: int, fn, *, timeout: float = 60.0,
             trace: Trace | None = None, injector=None,
             executor: str = "thread", telemetry=None) -> World:
    """Run ``fn(comm)`` on *size* ranks and return the finished world.

    Args:
        size: number of ranks.
        fn: rank body; receives a :class:`Communicator`.  Its return value
            is collected into ``world.results[rank]``.
        timeout: per-receive watchdog (seconds) — the backstop; genuine
            deadlocks are detected and reported much sooner.  Also the
            grace period stuck ranks get to unwind after a failure.
        trace: optional shared trace (a fresh one is created if omitted).
        injector: optional :class:`repro.faults.FaultInjector`; its
            ``on_send`` hook intercepts point-to-point deliveries and its
            in-flight count keeps the deadlock detector honest while a
            delayed message is on the simulated wire.
        executor: ``"thread"`` (ranks share this process and the GIL) or
            ``"process"`` (one OS process per rank, true parallelism;
            requires a picklable *fn* — see
            :func:`repro.runtime.procexec.proc_run`).
        telemetry: optional :class:`repro.obs.health.Telemetry` — each
            rank publishes live heartbeats and flight-recorder events
            into it (must be shared-memory backed for the process
            executor).

    Raises:
        RuntimeDeadlockError: when the detector proves a deadlock (the
            message names the wait-for cycle).
        RuntimeCommError: wrapping the first rank failure, or naming the
            ranks that ignored the failure and never stopped.
    """
    if executor not in ("thread", "process"):
        raise RuntimeCommError(
            f"unknown executor {executor!r} (expected 'thread' or "
            "'process')")
    if executor == "process":
        # imported lazily: procexec imports this module for World
        from repro.runtime.procexec import proc_run
        return proc_run(size, fn, timeout=timeout, trace=trace,
                        injector=injector, telemetry=telemetry)
    if size < 1:
        raise RuntimeCommError(f"world size must be >= 1, got {size}")
    world = World(size=size, trace=trace if trace is not None else Trace())
    world.results = [None] * size
    mailboxes = [_Mailbox() for _ in range(size)]
    barrier = threading.Barrier(size)
    failed = threading.Event()

    def counters(rank: int) -> tuple[int, int, int]:
        # in-process a put delivers what it sends
        delivered = mailboxes[rank].delivered
        return (delivered, delivered,
                0 if injector is None else injector.in_flight())

    def broadcast(diagnosis: str | None) -> None:
        # blocked ranks read a diagnosis off the detector itself
        failed.set()
        barrier.abort()
        for box in mailboxes:
            box.wake()

    launch = _Launch(timeout, DeadlockDetector(size, counters), broadcast)
    detector = launch.detector
    if telemetry is not None:
        telemetry.begin(world.trace.epoch_ns)
    # also guards `running`; notifies the launcher on every rank exit
    state = threading.Condition()
    running = set(range(size))

    def body(rank: int) -> None:
        tele = None
        if telemetry is not None:
            tele = telemetry.rank_view(rank)
            tele.bind(mailboxes[rank])
            tele.start(world.trace.epoch_ns)
        comm = Communicator(rank, size, mailboxes, barrier, world.trace,
                            failed, timeout, detector, injector, tele)
        t0 = time.perf_counter_ns()
        try:
            world.results[rank] = fn(comm)
            detector.finish(rank, "finished")
            if tele is not None:
                tele.finish(True)
        except BaseException as exc:  # noqa: BLE001 - must propagate all
            launch.error(rank, _exc_kind(exc), type(exc).__name__,
                         str(exc), exc)
            detector.finish(rank, "failed")
            if tele is not None:
                tele.finish(False)
        finally:
            # the rank's execution window: envelope span the timeline
            # subtracts instrumented intervals from to get compute time.
            # Recorded for crashed ranks too (t1 = failure time) so a
            # chaos profile attributes the work done before the death.
            if comm.record is not None:
                comm.record("rank", None, 0, None, 0,
                            t0, time.perf_counter_ns())
            with state:
                running.discard(rank)
                state.notify_all()

    threads = [threading.Thread(target=body, args=(rank,),
                                name=f"spmd-rank-{rank}", daemon=True)
               for rank in range(size)]
    for t in threads:
        t.start()
    # Join discipline: while no rank has failed, wait as long as it takes,
    # waking on every rank exit and every tick (the per-receive watchdog
    # and the deadlock detector bound any stall that involves
    # communication).  Once a rank fails, the rest get the
    # watchdog deadline to unwind — a rank spinning in compute-only code
    # never observes `failed`, and an unbounded join would hang the
    # launcher forever on it.
    with state:
        while running and not launch.expired():
            state.wait(_HEARTBEAT)
            detector.heartbeat()
            launch.tick()
        stuck = sorted(running)
    for t in threads:
        if not t.is_alive():
            t.join()
    launch.raise_failure(stuck)
    return world
