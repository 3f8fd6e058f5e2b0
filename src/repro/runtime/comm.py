"""Point-to-point and collective communication over in-process mailboxes.

Semantics follow MPI closely enough for generated SPMD programs:

* ``send`` is buffered (returns immediately; payload deep-copied so the
  sender can reuse its buffer — exactly the guarantee MPI's buffered mode
  gives and what halo-exchange codes assume).  One rule owns every
  message buffer: a payload is copied once at the send and from then on
  belongs to the receiver.  A halo face (``send_face``) is that copy
  too: its sections are copied out of the live views and handed to the
  mailbox as they are, with no second defensive copy;
* ``recv`` blocks until a matching ``(source, tag)`` message arrives.
  Matching is indexed per ``(source, tag)`` — O(1) for exact receives,
  O(#distinct pending keys) for wildcards — and receivers sleep on a
  condition variable until a matching ``put`` wakes them (no polling
  tick).  Delivery is FIFO per (source, tag) pair and globally ordered
  for wildcard receives (lowest arrival sequence wins);
* a receive that waits past a short grace, or a barrier, notes its rank
  as blocked with the world's :class:`DeadlockDetector` (directly on
  threads, over the control pipe from a worker process).  The detector
  is the one deadlock rule of both executors: once every live rank is
  blocked, sent equals delivered, nothing injected is in flight and the
  world has been quiet for ``_QUIET``, the launcher fails the world with
  the wait-for cycle in the error instead of letting the wall-clock
  watchdog expire;
* collectives are built from point-to-point messages on a reserved tag
  space (user tags must stay below ``2**20``); every rank must call them
  in the same order (as in MPI).  ``bcast``, ``reduce``, ``allgather``
  and ``allreduce`` at a world size that is not a power of two run on a
  *binomial tree* (log₂ P rounds, as in MPICH), not a linear root
  fan-out/fan-in; ``allreduce`` at a power-of-two size runs *recursive
  doubling* instead (log₂ P rounds in which every rank swaps its
  accumulator with one partner, highest rank bit first: one dependent
  message per round rather than a reduce up and a broadcast down).  The
  up (fan-in) and down (fan-out) phases of two-phase collectives use
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

#: A receiver waits this long before it notes itself blocked with the
#: deadlock detector: microsecond-scale waits (the hot path) never touch
#: it.
_DETECT_GRACE = 0.005

#: Launchers run the deadlock check at least this often, and a blocked
#: rank is re-noted with live counters as often: by the thread launcher,
#: or by its worker process, which also polls for commands at this rate.
_HEARTBEAT = 0.2

#: A deadlock is declared only after no note changed anything for this
#: long: long enough for any delivery, take or report under way to
#: surface as a change.
_QUIET = 0.75

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


class DeadlockDetector:
    """The deadlock rule of both executors, fed what every rank waits on.

    Each rank is noted as blocked in ``(op, source, tag)`` or not, with its
    ``(sent, delivered, in flight)`` counters, and in the end as
    ``finished``, ``failed`` or ``died``.  :meth:`check` declares a
    deadlock only when every live rank is blocked, sent equals delivered,
    no injected message is in flight, no note has changed anything for
    ``_QUIET``, and not every rank is waiting at one full barrier (which
    releases itself).  Sound because a message anywhere between a sender
    and a mailbox keeps sent above delivered (senders count before
    shipping, receivers once a message is receivable), and one sitting
    *in* a mailbox wakes its receiver, whose next note is a change.

    On threads the ranks note themselves (:meth:`block`, :meth:`unblock`)
    and the launcher's tick re-notes the blocked ones with live
    *counters* (:meth:`heartbeat`).  A worker process publishes the same
    notes over its control pipe (``procexec._Run``) and the launcher
    feeds them to :meth:`note`.
    """

    def __init__(self, size: int, counters=None) -> None:
        self.size = size
        #: rank -> its live (sent, delivered, in flight); threads only
        self._live = counters
        self._lock = threading.Lock()
        #: rank -> "finished" | "failed" | "died"
        self._ended: dict[int, str] = {}
        #: rank -> (op, source, tag) while it is blocked
        self._waiting: dict[int, tuple] = {}
        self._counters: dict[int, tuple[int, int, int]] = {}
        self._since: dict[int, float] = {}
        self._last_change = time.monotonic()
        #: full human-readable deadlock report, set once
        self.diagnosis: str | None = None

    def note(self, rank: int, waiting: tuple | None,
             counters: tuple[int, int, int]) -> None:
        """*rank* is blocked in *waiting* (None: it is not)."""
        with self._lock:
            self._note(rank, waiting, counters)

    def _note(self, rank, waiting, counters) -> None:
        now = time.monotonic()
        if (self._waiting.get(rank) != waiting
                or self._counters.get(rank) != counters):
            self._last_change = now
        if waiting is None:
            self._waiting.pop(rank, None)
        else:
            if rank not in self._waiting:
                self._since[rank] = now
            self._waiting[rank] = waiting
        self._counters[rank] = counters

    def finish(self, rank: int, status: str,
               counters: tuple[int, int, int] | None = None) -> None:
        """*rank*'s body is over: *status* is how it ended."""
        with self._lock:
            self._ended[rank] = status
            self._waiting.pop(rank, None)
            if counters is not None:
                self._counters[rank] = counters
            self._last_change = time.monotonic()

    # -- threads: the ranks' and the launcher's side ----------------------------

    def block(self, rank: int, op: str, source: int | None = None,
              tag: int | None = None) -> None:
        self.note(rank, (op, source, tag), self._live(rank))

    def unblock(self, rank: int) -> None:
        self.note(rank, None, self._live(rank))

    def heartbeat(self) -> None:
        """Re-note every blocked rank with its live counters."""
        with self._lock:
            for rank, waiting in list(self._waiting.items()):
                self._note(rank, waiting, self._live(rank))

    # -- the rule -----------------------------------------------------------------

    def check(self) -> str | None:
        """The deadlock diagnosis once the rule holds, else None."""
        with self._lock:
            if self.diagnosis is None:
                self.diagnosis = self._verdict()
            return self.diagnosis

    def _verdict(self) -> str | None:
        live = [r for r in range(self.size) if r not in self._ended]
        if not live or any(r not in self._waiting for r in live):
            return None  # someone is still computing
        if time.monotonic() - self._last_change < _QUIET:
            return None  # wait for the world to go quiet
        sent, delivered, in_flight = (
            sum(c[i] for c in self._counters.values()) for i in range(3))
        if sent != delivered or in_flight > 0:
            return None  # a delivery is still on its way
        if len(live) == self.size and all(
                self._waiting[r][0] == "barrier" for r in live):
            return None  # a full barrier releases itself
        cycle = self._cycle()
        if cycle:
            arrow = " -> ".join(f"rank {r}" for r in cycle + cycle[:1])
            head = f"deadlock detected: wait-for cycle {arrow}"
        else:
            head = (f"deadlock detected: all {len(live)} live ranks blocked "
                    "with no message in flight")
        return f"{head}\n{self._status()}"

    def _cycle(self) -> list[int] | None:
        """Smallest-starting-rank cycle over the concrete wait-for edges
        (a wildcard receive or a barrier names no rank)."""
        succ = {r: w[1] for r, w in self._waiting.items()
                if w[0] != "barrier" and w[1] is not None}
        for start in sorted(succ):
            seen: list[int] = []
            rank = start
            while rank in succ and rank not in seen:
                seen.append(rank)
                rank = succ[rank]
            if rank in seen:
                return seen[seen.index(rank):]
        return None

    # -- reporting ------------------------------------------------------------------

    def snapshot(self) -> str:
        """The per-rank status block deadlock and stuck reports end with."""
        with self._lock:
            return self._status()

    def _status(self) -> str:
        now = time.monotonic()
        lines = []
        for rank in range(self.size):
            if rank in self._ended:
                status = self._ended[rank]
            elif rank in self._waiting:
                op, source, tag = self._waiting[rank]
                if op != "barrier":
                    op = (f"{op}(source={'any' if source is None else source}"
                          f", tag={'any' if tag is None else tag})")
                status = f"blocked in {op} for {now - self._since[rank]:.2f}s"
            else:
                status = "running"
            lines.append(f"  rank {rank}: {status}")
        return "\n".join(lines)


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

    @property
    def delivered(self) -> int:
        """Messages admitted so far (a deadlock-detector counter)."""
        return self._seq

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

    def _wait(self, timeout: float | None) -> None:
        """Sleep (lock held, released while asleep) until a ``put`` or
        ``wake``, at most *timeout* seconds (None: no limit).  The process executor's
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
        """Blocking matched receive; returns (message, seconds-in-wait).

        A wait that outlasts ``_DETECT_GRACE`` is noted with *waiter*'s
        detector; the receiver then sleeps until it is woken (a ``put``,
        a failure, a deadlock verdict) or its deadline passes."""
        t0 = time.monotonic()
        deadline = None if timeout is None else t0 + timeout
        # fast path + grace period: if the message is already queued or
        # arrives within the grace window, never touch the detector
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
        detector = None
        if waiter is not None:
            detector, rank, op = waiter
            detector.block(rank, op, source, tag)
        try:
            with self._cond:
                while True:
                    msg = self._take(source, tag)
                    if msg is not None:
                        return msg, time.monotonic() - t0
                    if detector is not None and detector.diagnosis is not None:
                        raise RuntimeDeadlockError(detector.diagnosis)
                    if failed.is_set():
                        raise RuntimeCommError(
                            "another rank failed while this rank was "
                            "receiving")
                    left = None if deadline is None \
                        else deadline - time.monotonic()
                    if left is not None and left <= 0:
                        break
                    self._wait(left)
            snap = "" if detector is None else "\n" + detector.snapshot()
            raise RuntimeCommError(
                f"recv timeout after {timeout}s waiting for "
                f"source={source} tag={tag} — likely deadlock{snap}")
        finally:
            if detector is not None:
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

    def send(self, dest: int, obj, tag: int = 0) -> None:
        """Buffered send: copies *obj* and returns immediately."""
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
            record("send", dest, nbytes, tag, 0, now, now)
        self._deliver(dest, obj, tag, move=False)

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

    def isend(self, dest: int, obj, tag: int = 0) -> Request:
        self.send(dest, obj, tag)
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

    def send_face(self, face) -> None:
        """Ship the live send views of *face* (one neighbor's share of a
        :mod:`repro.runtime.halo` face plan) to its peer: each view is
        copied once, in C order — the one copy a halo payload gets — and
        the copies go to the peer's mailbox as they are, so the receiver
        owns them."""
        record = self.record
        t0 = perf_counter_ns() if record is not None else 0
        payload = [view.copy() for view in face.views]
        if record is not None:
            now = perf_counter_ns()
            record("halo_pack", None, face.nbytes, face.tag, 0, t0, now)
            # the pack was the buffered-send copy: none other is made
            record("send", face.peer, face.nbytes, face.tag, face.nbytes,
                   now, now)
        self._deliver(face.peer, payload, face.tag, move=True)

    def recv_face(self, face) -> None:
        """Receive *face*'s message from its peer into the ghost views."""
        self._unpack_face(face, self.recv(face.peer, face.tag))

    def _unpack_face(self, face, payload: list[np.ndarray]) -> None:
        """Fill *face*'s ghost views from the received sections."""
        record = self.record
        t0 = perf_counter_ns() if record is not None else 0
        fill_ghosts(face.views, payload)
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
        detector = self._detector
        if detector is not None:
            detector.block(self.rank, "barrier")
        try:
            self._barrier.wait(timeout=self._timeout)
        except threading.BrokenBarrierError as exc:
            if detector is not None and detector.diagnosis is not None:
                raise RuntimeDeadlockError(detector.diagnosis) from exc
            raise RuntimeCommError("barrier broken (a rank died or timed "
                                   "out)") from exc
        finally:
            if detector is not None:
                detector.unblock(self.rank)
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
        """All ranks return the reduced value: recursive doubling when
        the world size is a power of two, else reduce + broadcast."""
        reducer = self._op(op)
        up_tag, down_tag = self._next_collective_tags()
        t0 = perf_counter_ns()
        if self.size & (self.size - 1) == 0:
            result, waited, nbytes = self._doubling_impl(value, reducer,
                                                         up_tag)
            self._record_op("allreduce", None, nbytes, t0, waited)
            return result
        acc, waited_up, up_bytes = self._reduce_impl(value, reducer, 0,
                                                     up_tag, "allreduce")
        result, waited_down, down_bytes = self._bcast_impl(acc, 0, down_tag)
        self._record_op("allreduce", None, up_bytes + down_bytes, t0,
                        waited_up + waited_down)
        return result

    def _doubling_impl(self, value, reducer, tag: int):
        """Recursive-doubling allreduce on *tag* at a power-of-two size;
        (acc, waited, wire bytes).

        One round per rank bit, from the highest down: swap accumulators
        with ``rank ^ bit`` and fold, the lower rank's on the left.  Every
        rank folds the same operands in the same order, so all return the
        same value, and a halo round folding cut dimension by cut
        dimension (:class:`repro.runtime.halo.HaloExchanger`) folds in
        this order too.  Each round's peer is another rank, so one tag
        serves them all.  The accumulator is handed over uncopied: no
        rank writes into one after it is sent.
        """
        acc = _copy_payload(value)
        waited = 0.0
        nbytes = 0
        bit = self.size >> 1
        while bit:
            peer = self.rank ^ bit
            nbytes += _payload_bytes(acc)
            self._mailboxes[peer].put(_Message(self.rank, tag, acc))
            msg, w = self._get(peer, tag, "allreduce")
            waited += w
            nbytes += _payload_bytes(msg.payload)
            acc = (reducer(acc, msg.payload) if self.rank < peer
                   else reducer(msg.payload, acc))
            bit >>= 1
        return acc, waited, nbytes

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
