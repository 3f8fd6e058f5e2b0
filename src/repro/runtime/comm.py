"""Point-to-point and collective communication over in-process mailboxes.

Semantics follow MPI closely enough for generated SPMD programs:

* ``send`` is buffered (returns immediately; payload deep-copied so the
  sender can reuse its buffer — exactly the guarantee MPI's buffered mode
  gives and what halo-exchange codes assume).  ``send(..., move=True)``
  is the zero-copy fast path: the caller *transfers ownership* of the
  payload (it must not touch the buffer afterwards), which the halo
  exchanger uses for freshly packed contiguous sections;
* ``recv`` blocks until a matching ``(source, tag)`` message arrives.
  Matching is indexed per ``(source, tag)`` — O(1) for exact receives,
  O(#distinct pending keys) for wildcards — and receivers sleep on a
  condition variable until a matching ``put`` wakes them (no polling
  tick).  Delivery is FIFO per (source, tag) pair and globally ordered
  for wildcard receives (lowest arrival sequence wins);
* a :class:`DeadlockDetector` shared by the world snapshots what every
  rank is blocked on; when every live rank is blocked with no deliverable
  message in flight it fails the world immediately with the wait-for
  cycle in the error, instead of letting the wall-clock watchdog expire;
* collectives are built from point-to-point messages on a reserved tag
  space (user tags must stay below ``2**20``); every rank must call them
  in the same order (as in MPI).  ``bcast``, ``reduce``, and both phases
  of ``allreduce``/``allgather`` run on a *binomial tree* (log₂ P
  rounds, as in MPICH), not a linear root fan-out/fan-in.  The up
  (fan-in) and down (fan-out) phases of two-phase collectives use
  *disjoint* tags — ``2*seq`` and ``2*seq + 1`` above the base — so the
  tag space never self-collides no matter how many collectives a program
  issues.

Byte accounting: each rank records exactly one trace event per
collective whose ``nbytes`` is the payload bytes *that rank* put on or
took off the wire during the collective (sent + received).  Summing the
events of one collective over all ranks therefore counts every hop of
the tree exactly twice (once at the sender, once at the receiver), and a
non-participating byte total is never attributed to a rank that only
contributed its input by reference (the old accounting charged every
rank ``bytes(value)`` regardless of what actually moved — receivers of a
``bcast`` recorded 0, reduce leaves recorded bytes they never received).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.runtime.trace import Trace

#: Collective operations reserve tags at and above this value.
_COLLECTIVE_TAG_BASE = 1 << 20

#: Blocked ranks re-run the deadlock check at most this often (fallback
#: for detection races; the common path is woken by ``put`` immediately).
_DETECT_INTERVAL = 0.25

#: A receiver stays unregistered with the deadlock detector for this long
#: before declaring itself blocked: microsecond-scale waits (the hot path)
#: never touch the shared detector lock, and a genuine deadlock is still
#: reported within milliseconds.
_DETECT_GRACE = 0.005

#: Reduction operators.
REDUCE_OPS = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "prod": lambda a, b: a * b,
}


def _collective_tags(seq: int) -> tuple[int, int]:
    """(up, down) tags for collective *seq* — disjoint for every seq."""
    up = _COLLECTIVE_TAG_BASE + 2 * seq
    return up, up + 1


def find_wait_cycle(succ: dict[int, int]) -> list[int] | None:
    """Smallest-starting-rank cycle in a rank -> awaited-rank graph.

    *succ* holds one concrete wait-for edge per blocked rank (receivers
    with a wildcard source contribute no edge).  Shared by the in-process
    :class:`DeadlockDetector` and the process executor's parent-side
    mirror, so both name cycles identically.
    """
    for start in sorted(succ):
        seen: list[int] = []
        rank: int | None = start
        while rank is not None and rank in succ and rank not in seen:
            seen.append(rank)
            rank = succ[rank]
        if rank in seen:
            return seen[seen.index(rank):]
    return None


def format_rank_states(size: int, done: set, waiting: dict) -> str:
    """The per-rank status block deadlock/stuck reports end with.

    *waiting* maps blocked ranks to human-readable wait descriptions;
    ranks in neither set are reported as running.
    """
    lines = []
    for rank in range(size):
        if rank in done:
            status = "finished"
        elif rank in waiting:
            status = f"blocked in {waiting[rank]}"
        else:
            status = "running"
        lines.append(f"  rank {rank}: {status}")
    return "\n".join(lines)


def _payload_bytes(obj) -> int:
    # scalars first: the latency-critical path ships 8-byte payloads
    if isinstance(obj, (int, float, bool, np.generic)):
        return 8
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(o) for o in obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values())
    return 8


def _copy_payload(obj):
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_copy_payload(o) for o in obj]
    if isinstance(obj, tuple):
        return tuple(_copy_payload(o) for o in obj)
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


def fill_ghosts(views: list, sections: list[np.ndarray]) -> None:
    """Assign a halo message's *sections* to a ghost face's *views*
    (None: that array keeps no ghosts on this side), once their count,
    shapes and dtypes are known to fit: a message that does not match
    the face plan leaves every ghost as it was."""
    if len(sections) != len(views):
        raise RuntimeCommError(
            f"halo message carries {len(sections)} sections for "
            f"{len(views)} arrays")
    for ghost, section in zip(views, sections):
        if ghost is not None and (ghost.shape != section.shape
                                  or ghost.dtype != section.dtype):
            raise RuntimeCommError(
                f"halo message section is {section.dtype} "
                f"{section.shape}, its ghost face {ghost.dtype} "
                f"{ghost.shape}")
    for ghost, section in zip(views, sections):
        if ghost is not None:
            ghost[...] = section


@dataclass
class _Message:
    source: int
    tag: int
    payload: object
    #: delivery id for duplicate suppression; only fault-injected
    #: duplicates carry one (the normal path never allocates ids)
    msg_id: int | None = None


class _WaitState:
    """What one blocked rank is waiting on (deadlock-detector record)."""

    __slots__ = ("rank", "op", "source", "tag", "since", "satisfied")

    def __init__(self, rank: int, op: str, source: int | None,
                 tag: int | None) -> None:
        self.rank = rank
        self.op = op  # "recv" | "barrier" | collective name
        self.source = source
        self.tag = tag
        self.since = time.monotonic()
        #: set (without the detector lock) the moment the wait is over;
        #: the detector reads it after probing the rank's mailbox, so the
        #: mailbox lock orders the two and a satisfied rank is never
        #: counted as blocked.
        self.satisfied = False

    def describe(self) -> str:
        if self.op == "barrier":
            what = "barrier"
        else:
            src = "any" if self.source is None else self.source
            tag = "any" if self.tag is None else self.tag
            what = f"{self.op}(source={src}, tag={tag})"
        return f"{what} for {time.monotonic() - self.since:.2f}s"


class DeadlockDetector:
    """Tracks what every rank is blocked on; trips the world on a cycle.

    Lock ordering: the detector lock may be taken first and mailbox /
    barrier locks acquired under it — never the reverse.  Blocked ranks
    therefore register *outside* their mailbox condition and only read
    the lock-free ``diagnosis`` field while holding it.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._lock = threading.Lock()
        self._waiting: dict[int, _WaitState] = {}
        self._done: set[int] = set()
        self._mailboxes: list[_Mailbox] = []
        self._barrier: threading.Barrier | None = None
        self._failed: threading.Event | None = None
        #: full human-readable deadlock report, set exactly once
        self.diagnosis: str | None = None
        #: optional () -> int of messages in flight *outside* any mailbox
        #: (fault-injected delays); while positive, an all-blocked world
        #: is not a deadlock — a delivery is still coming
        self.in_flight = None

    def attach(self, mailboxes: list[_Mailbox], barrier: threading.Barrier,
               failed: threading.Event) -> None:
        self._mailboxes = mailboxes
        self._barrier = barrier
        self._failed = failed

    # -- rank lifecycle ---------------------------------------------------------

    def block(self, rank: int, op: str, source: int | None = None,
              tag: int | None = None) -> _WaitState:
        """Register *rank* as blocked; returns its mutable wait state."""
        state = _WaitState(rank, op, source, tag)
        with self._lock:
            self._waiting[rank] = state
            self._check_locked()
        return state

    def unblock(self, rank: int) -> None:
        with self._lock:
            self._waiting.pop(rank, None)

    def rank_done(self, rank: int) -> None:
        """A rank's body returned normally; remaining ranks may now stall."""
        with self._lock:
            self._done.add(rank)
            self._waiting.pop(rank, None)
            self._check_locked()

    def rank_failed(self, rank: int) -> None:
        """A rank died: mark it finished and wake every blocked receiver."""
        with self._lock:
            self._done.add(rank)
            self._waiting.pop(rank, None)
            for box in self._mailboxes:
                box.wake()

    def check(self) -> None:
        """Re-run detection (periodic fallback from blocked receivers)."""
        with self._lock:
            self._check_locked()

    # -- detection --------------------------------------------------------------

    def _check_locked(self) -> None:
        if self.diagnosis is not None or not self._mailboxes:
            return
        live = [r for r in range(self.size) if r not in self._done]
        if not live or any(r not in self._waiting for r in live):
            return  # someone is still computing — progress is possible
        if self.in_flight is not None and self.in_flight() > 0:
            return  # a delayed message is still on the (simulated) wire
        states = [self._waiting[r] for r in live]
        barrier_waits = [ws for ws in states if ws.op == "barrier"]
        if barrier_waits:
            if len(barrier_waits) == len(states) and len(live) == self.size:
                return  # a full barrier releases itself
            if (self._barrier is not None
                    and self._barrier.n_waiting < len(barrier_waits)):
                return  # a barrier wait is mid-registration or released
        for ws in states:
            # probe first, then re-read the flag: the mailbox lock makes a
            # take that beat our probe publish ``satisfied`` before we read
            if ws.op != "barrier" and \
                    self._mailboxes[ws.rank].probe(ws.source, ws.tag):
                return  # a deliverable message is in flight
            if ws.satisfied:
                return  # that rank is already running again
        self.diagnosis = self._diagnose(live, states)
        self._trip()

    def _diagnose(self, live: list[int], states: list[_WaitState]) -> str:
        cycle = self._find_cycle(states)
        if cycle:
            arrow = " -> ".join(f"rank {r}" for r in cycle + cycle[:1])
            head = f"deadlock detected: wait-for cycle {arrow}"
        else:
            head = (f"deadlock detected: all {len(live)} live ranks blocked "
                    "with no message in flight")
        return f"{head}\n{self._snapshot_locked()}"

    def _find_cycle(self, states: list[_WaitState]) -> list[int] | None:
        """Smallest-starting-rank cycle over concrete wait-for edges."""
        return find_wait_cycle({ws.rank: ws.source for ws in states
                                if ws.op != "barrier"
                                and ws.source is not None})

    # -- reporting --------------------------------------------------------------

    def snapshot(self) -> str:
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> str:
        return format_rank_states(
            self.size, self._done,
            {r: ws.describe() for r, ws in self._waiting.items()})

    def _trip(self) -> None:
        """Wake the whole world so every blocked rank sees the diagnosis."""
        if self._failed is not None:
            self._failed.set()
        if self._barrier is not None:
            self._barrier.abort()
        for box in self._mailboxes:
            box.wake()


class _Mailbox:
    """Per-rank incoming message store, indexed by (source, tag)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: (source, tag) -> deque of (arrival seq, message); empty deques
        #: are removed so wildcard matching scans only pending keys.
        self._buckets: dict[tuple[int, int], deque] = {}
        self._seq = 0
        #: msg_ids already accepted (duplicate suppression); bounded by
        #: the number of fault-injected duplicates, not by traffic
        self._seen_ids: set[int] = set()
        self._queued = 0

    @property
    def pending(self) -> int:
        """Queued-message count, read lock-free by health heartbeats
        (approximate by design: a torn read is a stale depth, not a
        correctness problem)."""
        return self._queued

    def put(self, message: _Message) -> None:
        with self._cond:
            self._enqueue(message)
            self._cond.notify_all()

    def _enqueue(self, message: _Message) -> None:
        """File *message* under its (source, tag); caller holds the lock."""
        if message.msg_id is not None:
            if message.msg_id in self._seen_ids:
                return  # duplicate delivery: drop silently
            self._seen_ids.add(message.msg_id)
        self._seq += 1
        self._queued += 1
        key = (message.source, message.tag)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
        bucket.append((self._seq, message))

    def _wait(self, timeout: float) -> None:
        """Sleep (lock held, released while asleep) until a ``put`` or
        ``wake``, at most *timeout* seconds.  The process executor's
        mailbox waits on its doorbell and takes its own messages here."""
        self._cond.wait(timeout)

    def wake(self) -> None:
        """Wake blocked receivers to re-check failure / deadlock state."""
        with self._cond:
            self._cond.notify_all()

    def _take(self, source: int | None, tag: int | None) -> _Message | None:
        buckets = self._buckets
        if source is not None and tag is not None:
            key = (source, tag)
            bucket = buckets.get(key)
            if not bucket:
                return None
        else:
            key = None
            best = None
            for k, bucket in buckets.items():
                if (source is None or k[0] == source) and \
                        (tag is None or k[1] == tag):
                    seq = bucket[0][0]
                    if best is None or seq < best:
                        best, key = seq, k
            if key is None:
                return None
            bucket = buckets[key]
        _, msg = bucket.popleft()
        if not bucket:
            del buckets[key]
        self._queued -= 1
        return msg

    def get(self, source: int | None, tag: int | None, timeout: float | None,
            failed: threading.Event,
            waiter: tuple[DeadlockDetector, int, str] | None = None,
            ) -> tuple[_Message, float]:
        """Blocking matched receive; returns (message, seconds-in-wait)."""
        t0 = time.monotonic()
        deadline = None if timeout is None else t0 + timeout
        detector = token = None
        rank = -1
        # fast path + grace period: if the message is already queued or
        # arrives within the grace window, never touch the detector lock
        with self._cond:
            msg = self._take(source, tag)
            if msg is not None:
                return msg, 0.0
            grace_end = t0 + _DETECT_GRACE
            while True:
                if failed.is_set():
                    break
                now = time.monotonic()
                if now >= grace_end or \
                        (deadline is not None and now >= deadline):
                    break
                self._wait(min(grace_end, deadline or grace_end) - now)
                msg = self._take(source, tag)
                if msg is not None:
                    return msg, time.monotonic() - t0
        if waiter is not None:
            detector, rank, op = waiter
            token = detector.block(rank, op, source, tag)
        try:
            while True:
                timed_out = False
                with self._cond:
                    msg = self._take(source, tag)
                    if msg is not None:
                        if token is not None:
                            token.satisfied = True
                        return msg, time.monotonic() - t0
                    if detector is not None and detector.diagnosis is not None:
                        raise RuntimeDeadlockError(detector.diagnosis)
                    if failed.is_set():
                        raise RuntimeCommError(
                            "another rank failed while this rank was "
                            "receiving")
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        timed_out = True
                    else:
                        remaining = (None if deadline is None
                                     else deadline - now)
                        slice_ = (_DETECT_INTERVAL if remaining is None
                                  else min(_DETECT_INTERVAL, remaining))
                        self._wait(slice_)
                # outside the mailbox lock (lock order: detector first)
                if timed_out:
                    snap = ("\n" + detector.snapshot()
                            if detector is not None else "")
                    raise RuntimeCommError(
                        f"recv timeout after {timeout}s waiting for "
                        f"source={source} tag={tag} — likely deadlock"
                        f"{snap}")
                if detector is not None:
                    detector.check()
        finally:
            if token is not None:
                detector.unblock(rank)

    def probe(self, source: int | None, tag: int | None) -> bool:
        with self._cond:
            if source is not None and tag is not None:
                return bool(self._buckets.get((source, tag)))
            return any((source is None or k[0] == source)
                       and (tag is None or k[1] == tag)
                       for k in self._buckets)


class Request:
    """Handle for a non-blocking operation."""

    def __init__(self, complete, poll=None) -> None:
        self._complete = complete
        self._poll = poll
        self._done = False
        self._result = None

    def wait(self):
        """Complete the operation; returns the received object for irecv."""
        if not self._done:
            self._result = self._complete()
            self._done = True
        return self._result

    def test(self) -> bool:
        """Non-blocking completion check (always completes sends).

        Returns True and completes the operation if it can finish without
        blocking (for irecv: a matching message is already queued),
        otherwise returns False immediately.
        """
        if self._done:
            return True
        if self._poll is not None and not self._poll():
            return False
        self.wait()
        return True


class Communicator:
    """One rank's endpoint in a world of ``size`` ranks."""

    def __init__(self, rank: int, size: int, mailboxes: list[_Mailbox],
                 barrier: threading.Barrier, trace: Trace,
                 failed: threading.Event, timeout: float = 60.0,
                 detector: DeadlockDetector | None = None,
                 injector=None, telemetry=None) -> None:
        self.rank = rank
        self.size = size
        self._mailboxes = mailboxes
        self._barrier = barrier
        self._trace = trace
        self._failed = failed
        self._timeout = timeout
        self._detector = detector
        #: fault injector (repro.faults) intercepting point-to-point
        #: deliveries; None on the (hot) fault-free path
        self._injector = injector
        self._collective_seq = 0
        #: this rank's live-health handle (repro.obs.health
        #: RankTelemetry); None on the fault-free hot path
        self.telemetry = telemetry
        #: this rank's event writer (see Trace.writer) — every runtime
        #: layer above records through it; None when the trace is off
        #: and no telemetry is attached
        self.record = trace.writer(rank, telemetry)
        if injector is not None:
            injector.bind(rank, self.record)

    # -- point-to-point --------------------------------------------------------

    def send(self, dest: int, obj, tag: int = 0, *, move: bool = False) -> None:
        """Buffered send: copies *obj* and returns immediately.

        With ``move=True`` the payload is handed over uncopied (zero-copy
        fast path); the caller must not reuse the buffer afterwards.
        """
        self._check_rank(dest)
        self._check_tag(tag)
        record = self.record
        if record is not None:
            # latency-critical path: scalar sizing stays inline to skip
            # the _payload_bytes call
            cls = obj.__class__
            nbytes = 8 if cls is int or cls is float \
                else _payload_bytes(obj)
            now = perf_counter_ns()
            record("send", dest, nbytes, tag, nbytes if move else 0,
                   now, now)
        self._deliver(dest, obj, tag, move)

    def _deliver(self, dest: int, obj, tag: int, move: bool) -> None:
        """Put *obj* into *dest*'s mailbox (copied unless moved)."""
        message = _Message(self.rank, tag,
                           obj if move else _copy_payload(obj))
        if self._injector is not None and self._injector.on_send(
                self.rank, dest, tag, message, self._mailboxes[dest]):
            return  # the injector took over delivery (drop/delay/dup)
        self._mailboxes[dest].put(message)

    def recv(self, source: int | None = None, tag: int | None = None):
        """Blocking receive; ``None`` matches any source / any tag."""
        if source is not None:
            self._check_rank(source)
        if tag is not None:
            self._check_tag(tag)
        return self._received(*self._get(source, tag, "recv"))

    def _received(self, msg: _Message, waited: float):
        """Record the receive of *msg* after *waited* seconds; its
        payload."""
        record = self.record
        if record is not None:
            payload = msg.payload
            cls = payload.__class__
            nbytes = 8 if cls is int or cls is float \
                else _payload_bytes(payload)
            wait_ns = int(waited * 1e9)
            now = perf_counter_ns()
            record("recv", msg.source, nbytes, msg.tag, wait_ns,
                   now - wait_ns, now)
        return msg.payload

    def isend(self, dest: int, obj, tag: int = 0, *,
              move: bool = False) -> Request:
        self.send(dest, obj, tag, move=move)
        return Request(lambda: None)

    def irecv(self, source: int | None = None, tag: int | None = None) -> Request:
        return Request(lambda: self.recv(source, tag),
                       poll=lambda: self.probe(source, tag))

    def waitall(self, requests) -> list:
        """Complete a batch of requests; results in request order.

        ``wait()`` is idempotent (completion is cached), so a request
        that already completed via ``test()`` contributes its cached
        result without re-receiving or double-recording trace events.
        """
        return [r.wait() for r in requests]

    def sendrecv(self, dest: int, obj, source: int | None = None,
                 send_tag: int = 0, recv_tag: int | None = None):
        """Combined send+recv (deadlock-free for neighbor exchange)."""
        self.send(dest, obj, send_tag)
        return self.recv(source, recv_tag if recv_tag is not None else send_tag)

    def probe(self, source: int | None = None, tag: int | None = None) -> bool:
        return self._mailboxes[self.rank].probe(source, tag)

    # -- halo faces ---------------------------------------------------------------

    def send_face(self, face, pool) -> None:
        """Ship the live send views of *face* (one neighbor's share of a
        :mod:`repro.runtime.halo` face plan) to its peer: each view is
        copied once into a contiguous *pool* buffer — the one copy a halo
        payload gets — and ownership passes to the receiver (``move``)."""
        record = self.record
        t0 = perf_counter_ns() if record is not None else 0
        acquire = pool.acquire
        payload = []
        for view in face.views:
            buf = acquire(view.shape, view.dtype)
            np.copyto(buf, view)
            payload.append(buf)
        if record is not None:
            record("halo_pack", None, face.nbytes, face.tag, 0,
                   t0, perf_counter_ns())
        self.send(face.peer, payload, face.tag, move=True)

    def recv_face(self, face, pool) -> None:
        """Receive *face*'s message from its peer into the ghost views."""
        self._unpack_face(face, self.recv(face.peer, face.tag), pool)

    def _unpack_face(self, face, payload: list[np.ndarray], pool) -> None:
        """Fill *face*'s ghost views from the received sections, which
        then go to *pool*."""
        record = self.record
        t0 = perf_counter_ns() if record is not None else 0
        fill_ghosts(face.views, payload)
        for section in payload:
            pool.release(section)
        if record is not None:
            record("halo_unpack", None, face.nbytes, face.tag, 0,
                   t0, perf_counter_ns())

    def _get(self, source: int | None, tag: int | None,
             op: str) -> tuple[_Message, float]:
        waiter = (None if self._detector is None
                  else (self._detector, self.rank, op))
        box = self._mailboxes[self.rank]
        tele = self.telemetry
        if tele is None:
            return box.get(source, tag, self._timeout, self._failed,
                           waiter)
        prev = tele.enter(2)  # S_BLOCKED
        try:
            return box.get(source, tag, self._timeout, self._failed,
                           waiter)
        finally:
            tele.enter(prev)

    # -- collectives --------------------------------------------------------------

    def _next_collective_tags(self) -> tuple[int, int]:
        """Fresh (up, down) tag pair; disjoint from every other pair."""
        self._collective_seq += 1
        return _collective_tags(self._collective_seq)

    def barrier(self) -> None:
        """Synchronize all ranks."""
        t0 = perf_counter_ns()
        tele = self.telemetry
        prev = tele.enter(4) if tele is not None else None  # S_COLLECTIVE
        token = (self._detector.block(self.rank, "barrier")
                 if self._detector is not None else None)
        try:
            self._barrier.wait(timeout=self._timeout)
            if token is not None:
                token.satisfied = True
        except threading.BrokenBarrierError as exc:
            if (self._detector is not None
                    and self._detector.diagnosis is not None):
                raise RuntimeDeadlockError(self._detector.diagnosis) from exc
            raise RuntimeCommError("barrier broken (a rank died or timed "
                                   "out)") from exc
        finally:
            if token is not None:
                self._detector.unblock(self.rank)
            if tele is not None:
                tele.enter(prev)
        if self.record is not None:
            now = perf_counter_ns()
            self.record("barrier", None, 0, None, now - t0, t0, now)

    def _record_op(self, kind: str, peer: int | None, nbytes: int,
                   t0_ns: int, waited: float) -> None:
        """Record a completed operation as a span ending now."""
        if self.record is not None:
            self.record(kind, peer, nbytes, None, int(waited * 1e9),
                        t0_ns, perf_counter_ns())

    def bcast(self, obj=None, root: int = 0):
        """Broadcast from *root*; all ranks return the object."""
        tag, _ = self._next_collective_tags()
        t0 = perf_counter_ns()
        result, waited, nbytes = self._bcast_impl(obj, root, tag)
        self._record_op("bcast", root, nbytes, t0, waited)
        return result

    def _bcast_impl(self, obj, root: int, tag: int):
        """Binomial-tree broadcast on *tag*; (obj, waited, wire bytes).

        MPICH's tree: rank ``r`` relative to the root receives from
        ``r - 2**k`` where ``2**k`` is r's lowest set bit, then forwards
        to ``r + 2**j`` for every ``j < k`` that stays inside the world.
        """
        size = self.size
        relative = (self.rank - root) % size
        waited = 0.0
        nbytes = 0
        mask = 1
        while mask < size:
            if relative & mask:
                src = (relative - mask + root) % size
                msg, waited = self._get(src, tag, "bcast")
                obj = msg.payload
                nbytes += _payload_bytes(obj)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if relative + mask < size:
                dest = (relative + mask + root) % size
                nbytes += _payload_bytes(obj)
                self._mailboxes[dest].put(
                    _Message(self.rank, tag, _copy_payload(obj)))
            mask >>= 1
        return obj, waited, nbytes

    def reduce(self, value, op: str = "sum", root: int = 0):
        """Reduce to *root*; other ranks return None."""
        reducer = self._op(op)
        tag, _ = self._next_collective_tags()
        t0 = perf_counter_ns()
        acc, waited, nbytes = self._reduce_impl(value, reducer, root, tag,
                                                "reduce")
        self._record_op("reduce", root, nbytes, t0, waited)
        return acc

    def _reduce_impl(self, value, reducer, root: int, tag: int, op: str):
        """Binomial-tree reduce on *tag*; (acc | None, waited, wire bytes).

        Mirror image of the broadcast tree: relative rank ``r`` folds in
        the partial results of children ``r + 2**k`` (for increasing k
        while bit k is clear), then ships its accumulator to parent
        ``r - 2**k``.  The accumulator is handed over uncopied — it is
        this rank's private copy and is never touched after the send.
        """
        size = self.size
        relative = (self.rank - root) % size
        acc = _copy_payload(value)
        waited = 0.0
        nbytes = 0
        mask = 1
        while mask < size:
            if relative & mask:
                parent = (relative - mask + root) % size
                nbytes += _payload_bytes(acc)
                self._mailboxes[parent].put(_Message(self.rank, tag, acc))
                return None, waited, nbytes
            child = relative + mask
            if child < size:
                msg, w = self._get((child + root) % size, tag, op)
                waited += w
                nbytes += _payload_bytes(msg.payload)
                acc = reducer(acc, msg.payload)
            mask <<= 1
        return acc, waited, nbytes

    def allreduce(self, value, op: str = "sum"):
        """Reduce + broadcast; all ranks return the reduced value."""
        reducer = self._op(op)
        up_tag, down_tag = self._next_collective_tags()
        t0 = perf_counter_ns()
        acc, waited_up, up_bytes = self._reduce_impl(value, reducer, 0,
                                                     up_tag, "allreduce")
        result, waited_down, down_bytes = self._bcast_impl(acc, 0, down_tag)
        self._record_op("allreduce", None, up_bytes + down_bytes, t0,
                        waited_up + waited_down)
        return result

    def gather(self, value, root: int = 0):
        """Gather to *root* (list indexed by rank); others return None."""
        tag, _ = self._next_collective_tags()
        t0 = perf_counter_ns()
        result, waited, nbytes = self._gather_impl(value, root, tag)
        self._record_op("gather", root, nbytes, t0, waited)
        return result

    def _gather_impl(self, value, root: int, tag: int):
        if self.rank == root:
            out: list = [None] * self.size
            out[root] = _copy_payload(value)
            waited = 0.0
            nbytes = 0
            for _ in range(self.size - 1):
                msg, w = self._get(None, tag, "gather")
                waited += w
                nbytes += _payload_bytes(msg.payload)
                out[msg.source] = msg.payload
            return out, waited, nbytes
        self._mailboxes[root].put(
            _Message(self.rank, tag, _copy_payload(value)))
        return None, 0.0, _payload_bytes(value)

    def allgather(self, value) -> list:
        """Gather + broadcast — one synchronization, one trace event."""
        up_tag, down_tag = self._next_collective_tags()
        t0 = perf_counter_ns()
        gathered, waited_up, up_bytes = self._gather_impl(value, 0, up_tag)
        result, waited_down, down_bytes = self._bcast_impl(gathered, 0,
                                                           down_tag)
        self._record_op("allgather", None, up_bytes + down_bytes, t0,
                        waited_up + waited_down)
        return result

    def scatter(self, values=None, root: int = 0):
        """Scatter a per-rank list from *root*."""
        tag, _ = self._next_collective_tags()
        t0 = perf_counter_ns()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise RuntimeCommError(
                    "scatter root needs one value per rank")
            nbytes = 0
            for dest in range(self.size):
                if dest != root:
                    nbytes += _payload_bytes(values[dest])
                    self._mailboxes[dest].put(
                        _Message(root, tag, _copy_payload(values[dest])))
            self._record_op("scatter", root, nbytes, t0, 0.0)
            return values[root]
        msg, waited = self._get(root, tag, "scatter")
        self._record_op("scatter", root, _payload_bytes(msg.payload),
                        t0, waited)
        return msg.payload

    # -- misc -------------------------------------------------------------------------

    @property
    def trace(self) -> Trace:
        return self._trace

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise RuntimeCommError(f"rank {rank} out of range "
                                   f"[0, {self.size})")

    def _check_tag(self, tag: int) -> None:
        if tag >= _COLLECTIVE_TAG_BASE:
            raise RuntimeCommError(
                f"tag {tag} is in the collective-reserved space "
                f"[{_COLLECTIVE_TAG_BASE}, ∞); user tags must be smaller")

    @staticmethod
    def _op(op: str):
        try:
            return REDUCE_OPS[op]
        except KeyError:
            raise RuntimeCommError(
                f"unknown reduction {op!r}; known: {sorted(REDUCE_OPS)}")
