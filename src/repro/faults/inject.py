"""Fault injector: turns a :class:`FaultPlan` into runtime misbehavior.

The injector plugs into two hooks:

* ``Communicator.send`` calls :meth:`FaultInjector.on_send` for every
  point-to-point delivery (collectives deliberately bypass it — the
  binomial trees post straight to mailboxes, and the paper's collectives
  are the runtime's own responsibility, not the network's).
* ``RankRuntime.frame`` calls :meth:`FaultInjector.on_frame` at every
  frame boundary; crashes raise :class:`InjectedFaultError` there and
  stragglers sleep there.

One injector instance spans *all* recovery attempts of a run: each event
fires exactly once (``fired``), so a crash does not re-fire after the
restart that recovers from it.  Stragglers are window-based (they repeat
within their frame window, including during replay — slow hardware stays
slow).  The injector keeps a count of delayed messages still on the
simulated wire; it is the in-flight term of every rank's counters, which
:class:`repro.runtime.comm.DeadlockDetector` reads on both executors, so
a held message is not mistaken for a deadlock.
"""

from __future__ import annotations

import itertools
import threading
import time
from time import perf_counter_ns

from repro.errors import InjectedFaultError
from repro.faults.plan import MESSAGE_FAULTS, FaultEvent, FaultPlan


def _payload_nbytes(payload) -> int:
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    try:
        return len(payload)
    except TypeError:
        return 0


class FaultInjector:
    """Injects a :class:`FaultPlan` into a running world.

    Thread-safe: ``on_send`` / ``on_frame`` are called concurrently from
    every rank thread.  Message-fault triggering counts each rank's sends
    locally (send order is program order per rank), so which message a
    fault hits is deterministic run to run.
    """

    def __init__(self, plan: FaultPlan, *, armed: list[int] | None = None,
                 salt: int = 0, crash_mode: str = "raise",
                 on_fire=None, on_crash=None) -> None:
        if crash_mode not in ("raise", "kill"):
            raise ValueError(f"unknown crash_mode {crash_mode!r}")
        self.plan = plan
        self.crash_mode = crash_mode
        #: called with ``(event index, fired record)`` after any event
        #: fires — the process executor relays these to the launcher's
        #: master injector (:meth:`absorb_fired`)
        self.on_fire = on_fire
        #: kill-mode only: called with the crash message after telemetry
        #: is recorded; expected to never return (it SIGKILLs)
        self.on_crash = on_crash
        self._lock = threading.Lock()
        self._send_counts: dict[int, int] = {}
        self._pending = 0  # delayed messages on the simulated wire
        # salting keeps duplicate-suppression msg_ids unique when every
        # rank runs its own injector replica in its own process
        self._ids = itertools.count((salt << 40) + 1)
        self._fired: list[dict] = []
        #: rank -> that rank's event writer (see :meth:`bind`)
        self._writers: dict = {}
        self._msg_events: dict[int, list[FaultEvent]] = {}
        self._frame_events: dict[int, list[FaultEvent]] = {}
        self._armed: dict[int, bool] = {}  # id(event) -> not yet fired
        self._index = {id(e): i for i, e in enumerate(plan.events)}
        armed_set = set(range(len(plan.events))) if armed is None \
            else set(armed)
        for i, event in enumerate(plan.events):
            bucket = (self._msg_events if event.kind in MESSAGE_FAULTS
                      else self._frame_events)
            bucket.setdefault(event.rank, []).append(event)
            self._armed[id(event)] = i in armed_set

    # -- wiring ----------------------------------------------------------------

    def bind(self, rank: int, write) -> None:
        """Route *rank*'s fault marks through *write*, the event writer
        of its communicator in the current attempt (None: keep none)."""
        self._writers[rank] = write

    def in_flight(self) -> int:
        """Delayed messages held outside any mailbox (deadlock-detector
        hook: > 0 means progress is still possible)."""
        with self._lock:
            return self._pending

    def fired(self) -> list[dict]:
        """Events that actually triggered, in firing order."""
        with self._lock:
            return [dict(f) for f in self._fired]

    def spec(self) -> dict:
        """A picklable replica recipe: the plan plus which events are
        still armed.  Worker processes rebuild injectors from this, so a
        recovery attempt never re-fires an event that already fired in a
        previous attempt (the launcher disarmed it via
        :meth:`absorb_fired`)."""
        with self._lock:
            return {"plan": self.plan.to_dict(),
                    "armed": [i for e in self.plan.events
                              if self._armed[id(e)]
                              for i in (self._index[id(e)],)]}

    def absorb_fired(self, index: int, record: dict) -> None:
        """Fold a worker replica's fired event into this master
        injector: record it and disarm the event here."""
        with self._lock:
            event = self.plan.events[index]
            if self._armed[id(event)]:
                self._armed[id(event)] = False
                self._fired.append(dict(record))

    def _mark(self, event: FaultEvent, **extra) -> tuple[int, dict]:
        record = {"kind": event.kind, "rank": event.rank,
                  "detail": event.describe()}
        record.update(extra)
        self._fired.append(record)
        return self._index[id(event)], record

    def _record(self, rank: int, kind: str, peer: int | None, nbytes: int,
                tag: int | None = None, *, wait_s: float = 0.0,
                t0_ns: int | None = None) -> None:
        write = self._writers.get(rank)
        if write is not None:
            t1_ns = perf_counter_ns()
            write(kind, peer, nbytes, tag, int(wait_s * 1e9),
                  t1_ns if t0_ns is None else t0_ns, t1_ns)

    # -- hooks -----------------------------------------------------------------

    def on_send(self, rank: int, dest: int, tag: int, message,
                mailbox) -> bool:
        """Intercept a point-to-point delivery.

        Returns True when the injector took over delivery (the caller
        must not post the message itself).
        """
        with self._lock:
            events = self._msg_events.get(rank)
            if not events:
                return False
            nth = self._send_counts.get(rank, 0)
            self._send_counts[rank] = nth + 1
            event = None
            for candidate in events:
                if candidate.nth == nth and self._armed[id(candidate)]:
                    event = candidate
                    break
            if event is None:
                return False
            self._armed[id(event)] = False
            nbytes = _payload_nbytes(message.payload)
            if event.kind == "delay":
                self._pending += 1
            fire = self._mark(event, dest=dest, tag=tag, nbytes=nbytes)

        if self.on_fire is not None:
            self.on_fire(*fire)

        if event.kind == "drop":
            self._record(rank, "fault_drop", dest, nbytes, tag)
            return True

        if event.kind == "duplicate":
            # stamp an id so the mailbox's exactly-once layer can spot
            # the second copy, then deliver twice
            message.msg_id = next(self._ids)
            self._record(rank, "fault_dup", dest, nbytes, tag)
            mailbox.put(message)
            mailbox.put(message)
            return True

        # delay: hold the message on a timer thread.  Deliver *before*
        # decrementing the pending count, so the deadlock detector never
        # sees in_flight == 0 while the message is in neither place.
        self._record(rank, "fault_delay", dest, nbytes, tag,
                     wait_s=event.seconds)

        def deliver() -> None:
            mailbox.put(message)
            with self._lock:
                self._pending -= 1
            # the held message may be the one a blocked receiver (or the
            # detector) is waiting on; put() already notified the mailbox

        timer = threading.Timer(event.seconds, deliver)
        timer.daemon = True
        timer.start()
        return True

    def on_frame(self, rank: int, frame: int) -> float:
        """Frame-boundary hook: crash or straggle.

        Returns seconds slept (straggler), raises
        :class:`InjectedFaultError` for a crash.
        """
        crash = None
        straggle = None
        fire = None
        with self._lock:
            for event in self._frame_events.get(rank, ()):
                if event.kind == "crash":
                    if event.frame == frame and self._armed[id(event)]:
                        self._armed[id(event)] = False
                        fire = self._mark(event, frame=frame)
                        crash = event
                        break
                elif event.frame <= frame < event.frame + event.frames:
                    if self._armed[id(event)]:
                        # recorded once, but keeps straggling for the
                        # whole frame window (slow hardware stays slow)
                        self._armed[id(event)] = False
                        fire = self._mark(event, frame=frame)
                    straggle = event
        if fire is not None and self.on_fire is not None:
            self.on_fire(*fire)
        if crash is not None:
            self._record(rank, "fault_crash", None, 0, frame)
            reason = (f"injected crash on rank {rank} at frame {frame} "
                      f"(plan seed {self.plan.seed})")
            if self.crash_mode == "kill" and self.on_crash is not None:
                self.on_crash(reason)  # flushes telemetry, then SIGKILL
            raise InjectedFaultError(reason)
        if straggle is not None and straggle.seconds > 0:
            t0_ns = perf_counter_ns()
            time.sleep(straggle.seconds)
            self._record(rank, "fault_straggler", None, 0, frame,
                         wait_s=straggle.seconds, t0_ns=t0_ns)
            return straggle.seconds
        return 0.0
