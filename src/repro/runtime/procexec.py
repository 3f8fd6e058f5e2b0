"""True-parallel process executor behind the :class:`Communicator` API.

The thread executor (:func:`repro.runtime.world.spmd_run`) shares one GIL,
so compute-bound ranks serialize.  This module runs each rank in a real OS
process — same ``Communicator`` surface, same failure-propagation /
deadlock-diagnosis / bounded-join guarantees — behind
``spmd_run(..., executor="process")``:

* a **persistent worker pool** per world size (:func:`get_pool`) is
  spawned once and reused across runs and recovery attempts — respawning
  processes per attempt would swamp small runs with fork cost.  Workers
  killed by a fault (or the stuck deadline) are respawned lazily;
* **one shared-memory channel per ordered rank pair** carries the
  messages: a single-producer single-consumer ring of ``_SLOTS`` slots
  plus the writer's and the reader's counters (:class:`_Channel`), all
  in one ``multiprocessing.shared_memory`` segment the pool creates next
  to the barrier and every (re)spawned worker inherits.  A message is a
  fixed header (run id, tag, msg id, per-channel sequence number,
  payload kind) and, in the same slot, its payload: ndarrays and lists
  of ndarrays as raw 8-byte-aligned bytes behind their dtype/shape
  words, a float in the header itself, anything else pickled.  The
  writer fills the slot, advances its counter (that store publishes the
  message) and posts the destination rank's **doorbell** semaphore;
* **the receiving rank takes its own messages**.  A receive that names
  source and tag polls that source's channel for ``_SPIN`` seconds and,
  if the head message is the one due, takes it where it lies
  (:meth:`_ChannelMailbox.take_head`): a halo face crosses in two
  copies, live view to slot to ghost view, with no pack buffer, bucket
  or ``_Message`` on the way.  Any other receive is the inherited
  ``_Mailbox.get`` on a mailbox whose wait sleeps on the doorbell and
  moves what was published into the ``(source, tag)`` buckets itself.
  Matching, collectives and duplicate suppression are inherited; between
  ``send`` and ``recv`` there is no pipe, no pickle and no other thread;
* **the data pipes are the overflow path**: a payload larger than a
  slot, or a send into a full ring, is pickled onto the per-pair pipe
  instead, so ``send`` stays buffered (it never waits for the
  receiver).  Each worker's drainer thread exists only for this: it
  parks what arrives in the worker's inbox and rings the doorbell.  The
  sequence number makes the mailbox admit each source's messages in
  send order whichever way they came.  Counters live in the segment and
  every message carries its run id, so a respawned worker resumes where
  the dead one stopped and messages of dead attempts are dropped, never
  delivered: recovery sees no ghosts;
* the world barrier is a ``multiprocessing.Barrier`` shared by all
  workers, abortable by any worker *and* by the launcher;
* **deadlock detection is mirrored in the launcher**: every worker
  publishes what it is blocked on (re-published as a heartbeat, with its
  send/deliver counters), and the launcher declares a deadlock only when
  every live rank is blocked, the global sent/delivered counters
  balance, no injected message is in flight, and nothing has changed for
  a quiescence window.  The diagnosis names the wait-for cycle with the
  same formatting as the thread executor;
* **failure propagation**: a failing worker reports the error (with its
  trace) over its control pipe; the launcher broadcasts the failure,
  aborts the barrier, and gives the rest the watchdog deadline to
  unwind.  A worker that dies without reporting — a real ``SIGKILL`` —
  is detected through its process sentinel; non-reporters past the
  deadline are killed and named, exactly like the thread executor's
  stuck ranks;
* **trace merging**: workers stamp events on their own clock; an epoch
  handshake at run start (:class:`repro.runtime.trace.EpochProbe`) lets
  the launcher rebase worker events onto the caller's trace, so
  ``acfd profile`` output is executor-agnostic.  Each worker also counts
  its messages by route and its waits by kind (``World.transport``).
"""

from __future__ import annotations

import atexit
import functools
import os
import pickle
import struct
import threading
import time
from collections import deque
from multiprocessing import connection as mpc
from multiprocessing import get_context, shared_memory
from time import perf_counter, perf_counter_ns

import numpy as np

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.runtime.comm import (Communicator, _Mailbox, _Message,
                                _payload_bytes, _WaitState, fill_ghosts,
                                find_wait_cycle, format_rank_states)
from repro.runtime.halo import shared_pool
from repro.runtime.trace import EpochProbe, Trace, epoch_shift
from repro.runtime.world import World

#: blocked workers re-publish their wait state this often; also the
#: worker command-poll interval and the launcher monitor tick
_HEARTBEAT = 0.2

#: the launcher declares a deadlock only after the mirrored world state
#: has been quiescent this long — long enough for any in-flight
#: delivery, mailbox take, or heartbeat race to surface as a change
_MIRROR_QUIET = 0.75

#: channel geometry: slots per ring, bytes a slot holds behind its header
_SLOTS = 8
_SLOT_BYTES = 1 << 16
#: slot header: run id, tag, msg id (-1: none), channel sequence number,
#: payload kind, a kind-specific integer, a float payload
_HDR = struct.Struct("6qd")
_HEAD = 64
_STRIDE = _HEAD + _SLOT_BYTES
#: a channel's two counters sit on cache lines of their own, so the
#: polling reader and the publishing writer do not share one
_LINE = 64
_CHANNEL_BYTES = 2 * _LINE + _SLOTS * _STRIDE

#: a receiver polls the channel it awaits this long before it sleeps on
#: the doorbell.  A sleep costs the sleeper a wake-up (about 60 us on the
#: 2-core VM the benchmark runs on) and the sender a system call, so a
#: few wake-ups' worth: a peer one halo exchange behind answers inside it
_SPIN = 200e-6
#: ... giving the core away every so many polls, so that a peer scheduled
#: on the same core (more ranks than cores, or two workers fresh from the
#: fork) gets to answer inside the spin instead of after it
_POLLS_PER_YIELD = 16

#: payload kinds
_PICKLE, _FLOAT, _ARRAY, _LIST = range(4)

#: what :meth:`_ChannelMailbox.take_head` answers instead of a payload
#: when the receive has to go the inherited way
_MISS = object()


# ---------------------------------------------------------------------------
# the channel: slots, counters, and the payload encoding
# ---------------------------------------------------------------------------


class _Channel:
    """One end of one ordered rank pair's ring in the pool's segment.

    Layout: the writer's counter (messages published), the reader's
    (messages taken), then ``_SLOTS`` slots; message *n* lives in slot
    ``n % _SLOTS``.  Each end owns one counter and only reads the
    other's, and both live in the segment: a respawned worker picks up
    where the dead one stopped, a writer killed before :meth:`advance`
    published nothing, a reader killed before it took nothing.
    """

    __slots__ = ("buf", "pos", "peer", "_ctr", "_mine", "_theirs",
                 "_slots", "_gap")

    def __init__(self, buf: memoryview, base: int, writer: bool) -> None:
        self.buf = buf
        #: the segment as 8-byte words: an item store is one aligned
        #: copy, where struct.pack_into zeroes its target first and the
        #: other end could read a counter of 0
        self._ctr = buf.cast("q")
        self._mine = (base if writer else base + _LINE) // 8
        self._theirs = (base + _LINE if writer else base) // 8
        self._slots = base + 2 * _LINE
        #: own counter minus the peer's when this end has to stop: a
        #: full ring for the writer, an empty one for the reader
        self._gap = _SLOTS if writer else 0
        self.pos = self._ctr[self._mine]
        self.peer = self._ctr[self._theirs]

    def slot(self) -> int | None:
        """Offset of the slot this end may use next, or None."""
        if self.pos - self.peer == self._gap:
            self.peer = self._ctr[self._theirs]
            if self.pos - self.peer == self._gap:
                return None
        return self._slots + self.pos % _SLOTS * _STRIDE

    def advance(self) -> None:
        """Publish (writer) or free (reader) the slot :meth:`slot` gave."""
        self.pos += 1
        self._ctr[self._mine] = self.pos

    def backlog(self) -> int:
        """Reader's end: messages published and not yet taken."""
        return self._ctr[self._theirs] - self.pos


@functools.lru_cache(maxsize=None)
def _dtype_word(dtype: np.dtype) -> int:
    return int.from_bytes(dtype.str.encode(), "little")


@functools.lru_cache(maxsize=None)
def _word_dtype(word: int) -> np.dtype:
    return np.dtype(word.to_bytes(8, "little").rstrip(b"\0").decode())


def _encode(buf: memoryview, body: int, payload
            ) -> tuple[int, int, float] | None:
    """Write *payload* at *body*, behind a slot's header; the header's
    (kind, count, float) fields, or None if the slot cannot hold it."""
    cls = payload.__class__
    if cls is float:
        return _FLOAT, 0, payload
    arrays = ((payload,) if cls is np.ndarray
              else payload if cls is list and payload else ())
    if arrays and all(a.__class__ is np.ndarray and a.dtype.kind in "biufc"
                      for a in arrays):
        words: list[int] = []
        size = 0
        for a in arrays:
            words += (_dtype_word(a.dtype), a.ndim, *a.shape)
            size += (a.nbytes + 7) & ~7
        at = body + 8 * len(words)
        if at + size > body + _SLOT_BYTES:
            return None
        struct.pack_into(f"{len(words)}q", buf, body, *words)
        for a in arrays:
            # strided or not, one copy: the buffered-send copy
            np.ndarray(a.shape, a.dtype, buf, at)[...] = a
            at += (a.nbytes + 7) & ~7
        return _ARRAY if cls is np.ndarray else _LIST, len(words), 0.0
    if _payload_bytes(payload) <= _SLOT_BYTES:  # else: don't pickle twice
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        if len(data) <= _SLOT_BYTES:
            buf[body:body + len(data)] = data
            return _PICKLE, len(data), 0.0
    return None


def _sections(buf: memoryview, body: int, n: int) -> list[np.ndarray]:
    """The arrays :func:`_encode` wrote at *body*, as views of the slot."""
    words = struct.unpack_from(f"{n}q", buf, body)
    at = body + 8 * n
    out = []
    i = 0
    while i < n:
        shape = words[i + 2:i + 2 + words[i + 1]]
        out.append(np.ndarray(shape, _word_dtype(words[i]), buf, at))
        at += (out[-1].nbytes + 7) & ~7
        i += 2 + len(shape)
    return out


def _decode(buf: memoryview, body: int, kind: int, n: int, value: float):
    """The payload :func:`_encode` wrote at *body*, copied out."""
    if kind == _FLOAT:
        return value
    if kind == _PICKLE:
        return pickle.loads(buf[body:body + n])
    # the slot is reused _SLOTS messages later: each array is copied
    # exactly once, into memory the receiver owns
    out = [section.copy() for section in _sections(buf, body, n)]
    return out if kind == _LIST else out[0]


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _ChannelMailbox(_Mailbox):
    """This rank's mailbox: the body thread fills it from its channels.

    ``get`` is inherited; only its wait differs.  Where the in-process
    mailbox sleeps on its condition until a ``put``, this one sleeps on
    the rank's doorbell, and on the way out moves every published
    message (and every overflow message the drainer parked in the inbox)
    into the buckets.  :meth:`take_head` is the way round the buckets.
    Only the body thread takes from channels, so ``delivered`` — what
    the launcher's mirror balances against the senders' counts — moves
    exactly when a message becomes receivable.
    """

    def __init__(self, run_id: int, inbound: dict[int, _Channel],
                 inbox: deque, doorbell) -> None:
        super().__init__()
        self._run_id = run_id
        self._channels = inbound
        self._inbox = inbox
        self._doorbell = doorbell
        #: source -> sequence number of the next message to admit
        self._next = dict.fromkeys(inbound, 0)
        #: (source, seq) -> message that overtook one still on the pipe
        self._held: dict[tuple[int, int], _Message] = {}
        self.doorbell_sleeps = 0
        self.spin_hits = 0
        #: messages :meth:`take_head` took in place
        self.head_takes = 0

    @property
    def delivered(self) -> int:
        return sum(self._next.values())

    @property
    def pending(self) -> int:
        """Messages waiting for this rank wherever they are: in a
        bucket, held for order, parked by the drainer, or published in a
        channel and not yet taken."""
        return (self._queued + len(self._held) + len(self._inbox)
                + sum(chan.backlog() for chan in self._channels.values()))

    def put(self, message: _Message) -> None:
        # a self-send, possibly from a fault-injection timer thread
        super().put(message)
        self.wake()

    def wake(self) -> None:
        self._doorbell.release()

    def probe(self, source: int | None, tag: int | None) -> bool:
        with self._cond:
            self._drain()
        return super().probe(source, tag)

    def take_head(self, source: int | None, tag: int | None,
                  failed: threading.Event, face=None
                  ) -> tuple[object, float]:
        """The short cut of a receive that names its source and its tag:
        ``(payload, seconds waited)``, taken where it lies in *source*'s
        channel, when nothing of that source and tag is queued, nothing
        is held for order or parked by the drainer, and the head, awaited
        for ``_SPIN`` at most, carries this run's id, *tag*, the sequence
        number due and no msg id.  With a *face* (a halo ghost face) the
        sections go straight into its ghost views and the payload is
        their byte count.  Otherwise nothing is touched and the answer is
        ``(_MISS, seconds spent)``: the caller goes through :meth:`get`,
        whose drain, ordering, duplicate suppression, detector and
        timeout apply.  Body thread only, like every taker of channels.
        """
        chan = self._channels.get(source)
        if (chan is None or tag is None or self._held or self._inbox
                or (source, tag) in self._buckets or failed.is_set()):
            return _MISS, 0.0
        waited = 0.0
        off = chan.slot()
        if off is None:
            t0 = perf_counter()
            polls = 0
            while off is None:
                if waited >= _SPIN:
                    return _MISS, waited
                polls += 1
                if polls % _POLLS_PER_YIELD == 0:
                    os.sched_yield()
                off = chan.slot()
                waited = perf_counter() - t0
            self.spin_hits += 1
        buf = chan.buf
        rid, mtag, msg_id, seq, kind, n, value = _HDR.unpack_from(buf, off)
        if (rid != self._run_id or mtag != tag or msg_id >= 0
                or seq != self._next[source]
                or (face is not None and kind != _LIST)):
            return _MISS, waited
        if face is None:
            payload = _decode(buf, off + _HEAD, kind, n, value)
        else:
            sections = _sections(buf, off + _HEAD, n)
            fill_ghosts(face.views, sections)
            payload = sum(section.nbytes for section in sections)
        chan.advance()
        self._next[source] = seq + 1
        self.head_takes += 1
        # the post that announced this message, so that posts do not pile
        # up between waits (one not in yet is forgotten by the next)
        self._doorbell.acquire(False)
        return payload, waited

    def _wait(self, timeout: float) -> None:
        # no polling here: a receive that knows its channel has polled
        # it in take_head, any other sleeps at once
        if not self._doorbell.acquire(False):
            self._cond.release()
            try:
                self.doorbell_sleeps += 1
                self._doorbell.acquire(True, timeout)
            finally:
                self._cond.acquire()
        # Forget the posts so far: each was made after what it announces
        # (a published message, the failure flag) became visible, and
        # both are looked at after this, here and in get().
        while self._doorbell.acquire(False):
            pass
        self._drain()

    def _drain(self) -> None:
        """Move everything published for this run into the buckets
        (body thread, lock held); free what dead runs left behind."""
        run_id = self._run_id
        for source, chan in self._channels.items():
            buf = chan.buf
            while (off := chan.slot()) is not None:
                rid, tag, msg_id, seq, kind, n, value = \
                    _HDR.unpack_from(buf, off)
                if rid == run_id:
                    self._admit(source, seq, _Message(
                        source, tag,
                        _decode(buf, off + _HEAD, kind, n, value),
                        None if msg_id < 0 else msg_id))
                chan.advance()
        inbox = self._inbox
        while inbox:
            rid, source, tag, msg_id, seq, payload = inbox.popleft()
            if rid == run_id:
                self._admit(source, seq,
                            _Message(source, tag, payload, msg_id))

    def _admit(self, source: int, seq: int, message: _Message) -> None:
        if seq != self._next[source]:
            self._held[source, seq] = message
            return
        self._enqueue(message)
        seq += 1
        held = self._held
        while held and (source, seq) in held:
            self._enqueue(held.pop((source, seq)))
            seq += 1
        self._next[source] = seq


class _RemoteMailbox:
    """Sender-side proxy for a peer's mailbox: ``write`` copies a payload
    into the pair's channel and rings the peer's doorbell, or, when the
    slot or the ring cannot take it, pickles it onto the data pipe.

    Bound to one run: a delayed delivery (fault-injection timer) firing
    after its run died carries the dead run's id and is dropped by the
    receiver instead of ghosting into the next attempt.
    """

    __slots__ = ("_run_id", "_source", "_chan", "_conn", "_lock",
                 "_doorbell", "sent", "overflow")

    def __init__(self, run_id: int, source: int, chan: _Channel, conn,
                 lock, doorbell) -> None:
        self._run_id = run_id
        self._source = source
        self._chan = chan
        self._conn = conn
        self._lock = lock  # per-pair: body + injector timers may race
        self._doorbell = doorbell
        #: messages sent this run; the next one's sequence number
        self.sent = 0
        self.overflow = 0

    def put(self, message: _Message) -> None:
        self.write(message.tag, message.payload, message.msg_id)

    def write(self, tag: int, payload, msg_id: int | None = None) -> None:
        chan = self._chan
        with self._lock:
            seq = self.sent
            # counted before it is published: whatever the launcher's
            # mirror reads, a message on its way keeps sent > delivered
            self.sent = seq + 1
            off = chan.slot()
            head = off is not None and _encode(chan.buf, off + _HEAD,
                                               payload)
            if head:
                _HDR.pack_into(chan.buf, off, self._run_id, tag,
                               -1 if msg_id is None else msg_id, seq, *head)
                chan.advance()
            else:
                self.overflow += 1
                self._conn.send((self._run_id, self._source, tag, msg_id,
                                 seq, payload))
        if head:
            self._doorbell.release()


class _Run:
    """One attempt's worker-side state (fresh per "run" command).

    Also the attempt's detector, with the ``DeadlockDetector`` surface
    that ``_Mailbox.get`` and ``Communicator.barrier`` use: it does no
    detection itself, it publishes this rank's wait state to the
    launcher (which mirrors the whole world) and surfaces the launcher's
    verdict through ``self.diagnosis``.
    """

    def __init__(self, worker: _WorkerState, run_id: int,
                 trace_enabled: bool) -> None:
        self.run_id = run_id
        self.rank = worker.rank
        self._publish = worker.publish
        self.trace = Trace(enabled=trace_enabled)
        self.mailbox = _ChannelMailbox(run_id, worker.inbound,
                                       worker.inbox, worker.doorbell)
        #: rank -> where a message for it goes
        self.mailboxes: list = [
            self.mailbox if dest == worker.rank
            else _RemoteMailbox(run_id, worker.rank, *worker.outbound[dest])
            for dest in range(worker.size)]
        self._remotes = [m for m in self.mailboxes if m is not self.mailbox]
        self.failed = threading.Event()
        self.injector = None
        #: this rank's live-telemetry writer (attached shared memory)
        self.tele = None
        self.diagnosis: str | None = None
        self.lock = threading.Lock()
        #: (op, source, tag, token) while blocked, else None
        self.current_wait = None
        self._wait_token = 0

    def counters(self) -> tuple[int, int, int]:
        """(sent, delivered, injected messages in flight) for the
        launcher's mirror; read lock-free from any thread."""
        infl = self.injector.in_flight() if self.injector is not None else 0
        return (sum(m.sent for m in self._remotes),
                self.mailbox.delivered, infl)

    def transport(self) -> dict[str, int]:
        """How this rank's messages travelled and how it waited."""
        overflow = sum(m.overflow for m in self._remotes)
        return {"ring": sum(m.sent for m in self._remotes) - overflow,
                "overflow": overflow,
                "doorbell_sleeps": self.mailbox.doorbell_sleeps,
                "spin_hits": self.mailbox.spin_hits,
                "head_takes": self.mailbox.head_takes}

    def block(self, rank: int, op: str, source: int | None = None,
              tag: int | None = None) -> _WaitState:
        with self.lock:
            self._wait_token += 1
            self.current_wait = (op, source, tag, self._wait_token)
        self.heartbeat()
        return _WaitState(rank, op, source, tag)

    def heartbeat(self) -> None:
        """(Re-)publish what this rank is blocked on, if it is."""
        wait = self.current_wait
        if wait is not None:
            self._publish(("blocked", self.rank, self.run_id, *wait,
                           *self.counters()))

    def unblock(self, rank: int) -> None:
        with self.lock:
            self.current_wait = None
        self._publish(("unblocked", rank, self.run_id, *self.counters()))

    def check(self) -> None:
        """Detection lives in the launcher; heartbeats come from the
        worker's command loop, so the periodic fallback is a no-op."""

    def snapshot(self) -> str:
        return "  (world state is mirrored by the launcher)"


class ProcCommunicator(Communicator):
    """A rank endpoint whose peers live in other processes.

    Collectives, barrier handling, deadlock bookkeeping and tracing are
    inherited; what changes is the way across the process boundary.
    Writing into the slot (or pickling, on overflow) *is* the
    buffered-send copy, so the payload deep-copy is skipped, and a
    receive that names source and tag tries the head of that source's
    channel (:meth:`_ChannelMailbox.take_head`) before the inherited
    matching.  Fault-free runs only: see :func:`_run_body`.
    """

    def _deliver(self, dest: int, obj, tag: int, move: bool) -> None:
        if dest == self.rank:  # self-sends use the local mailbox
            return super()._deliver(dest, obj, tag, move)
        self._mailboxes[dest].write(tag, obj)

    def _get(self, source: int | None, tag: int | None,
             op: str) -> tuple[_Message, float]:
        payload, waited = self._mailboxes[self.rank].take_head(
            source, tag, self._failed)
        if payload is _MISS:
            msg, more = super()._get(source, tag, op)
            return msg, waited + more
        return _Message(source, tag, payload), waited

    def send_face(self, face, pool) -> None:
        record = self.record
        t0 = perf_counter_ns() if record is not None else 0
        self._mailboxes[face.peer].write(face.tag, face.views)
        if record is not None:
            # the write was the pack and the send, and no defensive copy
            # was made of what it packed
            now = perf_counter_ns()
            record("halo_pack", None, face.nbytes, face.tag, 0, t0, now)
            record("send", face.peer, face.nbytes, face.tag, face.nbytes,
                   now, now)

    def recv_face(self, face, pool) -> None:
        record = self.record
        t0 = perf_counter_ns() if record is not None else 0
        nbytes, waited = self._mailboxes[self.rank].take_head(
            face.peer, face.tag, self._failed, face)
        if nbytes is _MISS:
            msg, more = super()._get(face.peer, face.tag, "recv")
            self._unpack_face(face, self._received(msg, waited + more),
                              pool)
        elif record is not None:
            # the wait for the message, then the copy out of its slot
            t1 = t0 + int(waited * 1e9)
            record("recv", face.peer, nbytes, face.tag, t1 - t0, t0, t1)
            record("halo_unpack", None, face.nbytes, face.tag, 0,
                   t1, perf_counter_ns())


class _WorkerState:
    """One worker process's long-lived state across runs."""

    def __init__(self, rank: int, size: int, ctrl, data_out, buf,
                 doorbells) -> None:
        self.rank = rank
        self.size = size
        self.ctrl = ctrl
        self.ctrl_lock = threading.Lock()
        self.doorbell = doorbells[rank]
        #: source -> reading end of that rank's channel to this one
        self.inbound = {s: _Channel(buf, _channel_base(size, s, rank), False)
                        for s in range(size) if s != rank}
        #: dest -> what a _RemoteMailbox is made of, shared by all runs:
        #: writing end, overflow pipe, their lock, the peer's doorbell
        self.outbound = {
            d: (_Channel(buf, _channel_base(size, rank, d), True), conn,
                threading.Lock(), doorbells[d])
            for d, conn in data_out}
        #: overflow messages the drainer parked for the body to admit
        self.inbox: deque = deque()
        self.run: _Run | None = None

    def publish(self, msg: tuple) -> None:
        with self.ctrl_lock:
            self.ctrl.send(msg)


def _channel_base(size: int, source: int, dest: int) -> int:
    """Offset of the (source -> dest) channel in a pool's segment."""
    return (source * (size - 1) + dest - (dest > source)) * _CHANNEL_BYTES


def _drain_loop(worker: _WorkerState, conns: list) -> None:
    """The overflow path: park what arrives on the data pipes in the
    inbox and ring the doorbell; the body admits it (or, by run id,
    drops it) like any channel message."""
    while conns:
        for conn in mpc.wait(conns):
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                conns.remove(conn)
                continue
            worker.inbox.append(msg)
            worker.doorbell.release()


def _exc_kind(exc: BaseException) -> str:
    if isinstance(exc, RuntimeDeadlockError):
        return "deadlock"
    if isinstance(exc, RuntimeCommError):
        return "comm"
    return "other"


def _worker_main(rank: int, size: int, cmd, ctrl, data_in, data_out,
                 barrier, shm, doorbells) -> None:
    """Worker process entry: command loop + drainer + per-run body."""
    worker = _WorkerState(rank, size, ctrl, data_out, shm.buf, doorbells)
    threading.Thread(target=_drain_loop, args=(worker, list(data_in)),
                     daemon=True, name=f"proc-drain-{rank}").start()
    compiled_cache: dict = {}

    while True:
        if not cmd.poll(_HEARTBEAT):
            if worker.run is not None:
                worker.run.heartbeat()
            continue
        try:
            msg = cmd.recv()
        except (EOFError, OSError):
            os._exit(0)
        if msg[0] == "shutdown":
            os._exit(0)
        if msg[0] == "fail":
            _, rid, diagnosis = msg
            run = worker.run
            if run is not None and run.run_id == rid:
                if diagnosis is not None:
                    run.diagnosis = diagnosis
                run.failed.set()
                run.mailbox.wake()
            continue
        # ("run", run_id, blob)
        _, run_id, blob = msg
        fn, timeout, trace_enabled, spec, tele_spec = pickle.loads(blob)
        run = worker.run = _Run(worker, run_id, trace_enabled)
        if tele_spec is not None:
            from repro.obs.health import Telemetry
            run.tele = Telemetry.attach(tele_spec, rank)
            run.tele.start(run.trace.epoch_ns)
        if spec is not None:
            run.injector = _build_worker_injector(worker, run, spec,
                                                  barrier)
        worker.publish(("hello", rank, run_id,
                        EpochProbe.sample(run.trace)))
        threading.Thread(
            target=_run_body, daemon=True,
            name=f"proc-body-{rank}",
            args=(worker, run, fn, timeout, barrier,
                  compiled_cache)).start()


def _build_worker_injector(worker: _WorkerState, run: _Run, spec: dict,
                           barrier):
    """Rebuild the attempt's fault injector inside the worker.

    ``salt`` keeps duplicate-suppression ids unique across sender
    processes; ``crash_mode="kill"`` makes injected crashes real
    (``SIGKILL``) after synchronously flushing the fired-event record
    and the trace, so telemetry survives the death.
    """
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan

    def on_fire(index: int, record: dict) -> None:
        worker.publish(("fired", run.rank, run.run_id, index,
                        dict(record)))

    def on_crash(reason: str) -> None:
        worker.publish(("dying", run.rank, run.run_id,
                        "InjectedFaultError", reason,
                        run.trace.events))
        if run.tele is not None:
            run.tele.finish(False)  # last heartbeat: state=failed
        barrier.abort()  # wake peers stuck in a barrier right away
        os.kill(os.getpid(), 9)  # SIGKILL: a real, unhandled death

    return FaultInjector(FaultPlan.from_dict(spec["plan"]),
                         armed=spec["armed"], salt=run.rank + 1,
                         crash_mode="kill", on_fire=on_fire,
                         on_crash=on_crash)


def _run_body(worker: _WorkerState, run: _Run, fn, timeout, barrier,
              compiled_cache) -> None:
    """Execute the rank body for one run and report the outcome."""
    if run.tele is not None:
        run.tele.bind(run.mailbox, shared_pool())
    # with faults to inject, the base class: every delivery goes through
    # the injector and every receive through the buckets, where drop,
    # delay and duplicate (and its suppression) are looked after
    cls = ProcCommunicator if run.injector is None else Communicator
    comm = cls(run.rank, worker.size, run.mailboxes, barrier, run.trace,
               run.failed, timeout, run, run.injector, run.tele)
    #: worker-persistent compile cache (see repro.codegen.runner)
    comm.compiled_cache = compiled_cache
    err: BaseException | None = None
    result = None
    t0 = time.perf_counter_ns()
    try:
        result = fn(comm)
    except BaseException as exc:  # noqa: BLE001 - must report all
        err = exc
        barrier.abort()
    finally:
        if comm.record is not None:
            comm.record("rank", None, 0, None, 0,
                        t0, time.perf_counter_ns())
        shared_pool().drain()
        if run.tele is not None:
            run.tele.finish(err is None)
    tail = (run.trace.events, run.counters(), run.transport())
    if err is not None:
        report = ("error", run.rank, run.run_id, _exc_kind(err),
                  type(err).__name__, str(err), *tail)
    else:
        report = ("done", run.rank, run.run_id, result, *tail)
    try:
        worker.publish(report)
    except Exception as exc:  # unpicklable rank result
        worker.publish(("error", run.rank, run.run_id, "other",
                        type(exc).__name__,
                        f"rank result not picklable: {exc}", *tail))


# ---------------------------------------------------------------------------
# launcher side
# ---------------------------------------------------------------------------


class _MirrorDetector:
    """Launcher-side mirror of the world's blocked/counter state.

    Declares a deadlock only from a *quiescent* snapshot: every report
    that changes anything resets the window, so any in-flight delivery,
    pending mailbox take, or heartbeat race surfaces first.  Sound
    because a message anywhere between a sender and a mailbox keeps the
    global sent/delivered counters unbalanced (senders count before
    shipping, receivers count after materializing), and a message
    sitting *in* a mailbox wakes its receiver, whose next report is a
    change.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.done: set[int] = set()
        self.waiting: dict[int, tuple] = {}
        self.counters: dict[int, tuple[int, int, int]] = {}
        self.since: dict[int, float] = {}
        self.last_change = time.monotonic()
        self.diagnosis: str | None = None

    def note(self, rank: int, waiting: tuple | None,
             counters: tuple[int, int, int]) -> None:
        if (self.waiting.get(rank) != waiting
                or self.counters.get(rank) != counters):
            self.last_change = time.monotonic()
            if waiting is not None and (
                    rank not in self.waiting
                    or self.waiting[rank][3] != waiting[3]):
                self.since[rank] = time.monotonic()
        if waiting is None:
            self.waiting.pop(rank, None)
        else:
            self.waiting[rank] = waiting
        self.counters[rank] = counters

    def finish(self, rank: int,
               counters: tuple[int, int, int] | None) -> None:
        self.done.add(rank)
        self.waiting.pop(rank, None)
        if counters is not None:
            self.counters[rank] = counters
        self.last_change = time.monotonic()

    def check(self) -> str | None:
        if self.diagnosis is not None:
            return self.diagnosis
        live = [r for r in range(self.size) if r not in self.done]
        if not live or any(r not in self.waiting for r in live):
            return None  # someone is still computing
        if time.monotonic() - self.last_change < _MIRROR_QUIET:
            return None  # wait for the world to go quiet
        sent = sum(c[0] for c in self.counters.values())
        delivered = sum(c[1] for c in self.counters.values())
        in_flight = sum(c[2] for c in self.counters.values())
        if sent != delivered or in_flight > 0:
            return None  # a delivery is still in the pipes / on a timer
        states = [self.waiting[r] for r in live]
        if all(s[0] == "barrier" for s in states) \
                and len(live) == self.size:
            return None  # a full barrier releases itself
        self.diagnosis = self._diagnose(live)
        return self.diagnosis

    def _diagnose(self, live: list[int]) -> str:
        cycle = find_wait_cycle(
            {r: w[1] for r, w in self.waiting.items()
             if w[0] != "barrier" and w[1] is not None})
        if cycle:
            arrow = " -> ".join(f"rank {r}" for r in cycle + cycle[:1])
            head = f"deadlock detected: wait-for cycle {arrow}"
        else:
            head = (f"deadlock detected: all {len(live)} live ranks "
                    "blocked with no message in flight")
        return f"{head}\n{self.snapshot()}"

    def snapshot(self) -> str:
        waiting = {}
        for rank, (op, source, tag, _token) in self.waiting.items():
            state = _WaitState(rank, op, source, tag)
            state.since = self.since.get(rank, state.since)
            waiting[rank] = state.describe()
        return format_rank_states(self.size, self.done, waiting)


class _Worker:
    __slots__ = ("rank", "process", "cmd", "ctrl")

    def __init__(self, rank, process, cmd, ctrl) -> None:
        self.rank = rank
        self.process = process
        self.cmd = cmd
        self.ctrl = ctrl


class WorkerPool:
    """A persistent set of rank processes for one world size.

    Spawned once (fork where available, spawn otherwise), then reused by
    every process-executor run of that size — including all recovery
    attempts of a chaos run.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        try:
            self.ctx = get_context("fork")
        except ValueError:  # platform without fork
            self.ctx = get_context("spawn")
        self.barrier = self.ctx.Barrier(size)
        #: every ordered pair's channel, zero-filled (all counters 0);
        #: pages are touched only as slots are used
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, size * (size - 1) * _CHANNEL_BYTES))
        #: rank -> semaphore its senders (and its drainer) post
        self.doorbells = [self.ctx.Semaphore(0) for _ in range(size)]
        self._run_seq = 0
        #: (source, dest) -> (read end, write end) of the overflow pipe;
        #: both ends stay open in the launcher so respawned workers
        #: inherit live pipes and a send to a dead rank does not raise
        self.data = {(s, d): self.ctx.Pipe(duplex=False)
                     for s in range(size) for d in range(size) if s != d}
        self.workers: list[_Worker] = [None] * size  # type: ignore[list-item]
        for rank in range(size):
            self._spawn(rank)

    def _spawn(self, rank: int) -> None:
        cmd_r, cmd_w = self.ctx.Pipe(duplex=False)
        ctrl_r, ctrl_w = self.ctx.Pipe(duplex=False)
        data_in = [self.data[(s, rank)][0]
                   for s in range(self.size) if s != rank]
        data_out = [(d, self.data[(rank, d)][1])
                    for d in range(self.size) if d != rank]
        process = self.ctx.Process(
            target=_worker_main, daemon=True, name=f"acfd-rank-{rank}",
            args=(rank, self.size, cmd_r, ctrl_w, data_in, data_out,
                  self.barrier, self.shm, self.doorbells))
        process.start()
        self.workers[rank] = _Worker(rank, process, cmd_w, ctrl_r)

    def next_run_id(self) -> int:
        self._run_seq += 1
        return self._run_seq

    def ensure_alive(self) -> None:
        """Respawn dead workers and un-break the barrier before a run."""
        for rank in range(self.size):
            w = self.workers[rank]
            if w is None or not w.process.is_alive():
                if w is not None:
                    w.process.join(timeout=0.5)
                    _close_quiet(w.cmd, w.ctrl)
                self._spawn(rank)
        if self.barrier.broken:
            self.barrier.reset()

    def shutdown(self) -> None:
        for w in self.workers:
            if w is None:
                continue
            try:
                w.cmd.send(("shutdown",))
            except OSError:
                pass
        for w in self.workers:
            if w is None:
                continue
            w.process.join(timeout=1.0)
            if w.process.is_alive():
                w.process.kill()
                w.process.join(timeout=0.5)
            _close_quiet(w.cmd, w.ctrl)
        for ends in self.data.values():
            _close_quiet(*ends)
        self.shm.close()
        self.shm.unlink()


def _close_quiet(*conns) -> None:
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass


_POOLS: dict[int, WorkerPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(size: int) -> WorkerPool:
    """The persistent worker pool for world size *size* (spawn once)."""
    with _POOLS_LOCK:
        pool = _POOLS.get(size)
        if pool is None:
            pool = _POOLS[size] = WorkerPool(size)
        return pool


def shutdown_pools() -> None:
    """Tear down every pool (registered atexit; callable from tests)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)


def proc_run(size: int, fn, *, timeout: float = 60.0,
             trace: Trace | None = None, injector=None,
             telemetry=None) -> World:
    """Run ``fn(comm)`` on *size* rank processes; same contract as
    :func:`repro.runtime.world.spmd_run`.

    *fn* must be picklable (a module-level callable or a
    ``functools.partial`` of one).  *injector* is the launcher's master
    :class:`~repro.faults.FaultInjector`: its plan and armed-event set
    ship to the workers, fired events are relayed back and disarmed in
    the master, so exactly-once firing holds across recovery attempts
    even though each attempt rebuilds worker-side injectors.
    *telemetry* must be shared-memory backed
    (``Telemetry(size, shared=True)``): workers attach by segment name
    and write heartbeats/flight events the launcher can read even after
    a worker dies.
    """
    if size < 1:
        raise RuntimeCommError(f"world size must be >= 1, got {size}")
    world = World(size=size, trace=trace if trace is not None else Trace())
    world.results = [None] * size
    world.transport = {}
    tele_spec = None
    if telemetry is not None:
        tele_spec = telemetry.spec()  # raises unless shared-memory backed
        telemetry.begin(world.trace.epoch_ns)
    try:
        blob = pickle.dumps(
            (fn, timeout, world.trace.enabled,
             None if injector is None else injector.spec(), tele_spec))
    except Exception as exc:
        raise RuntimeCommError(
            "process executor requires a picklable rank body (a module-"
            f"level function or functools.partial of one): {exc}") from exc
    pool = get_pool(size)
    pool.ensure_alive()
    run_id = pool.next_run_id()
    for w in pool.workers:
        w.cmd.send(("run", run_id, blob))

    mirror = _MirrorDetector(size)
    #: rank -> (worker trace epoch_ns, seconds onto world.trace's epoch)
    #: (set by its "hello", the first thing a worker reports in a run)
    clocks: dict[int, tuple[int, float]] = {}
    #: rank -> (kind, type name, message); kind drives raise priority
    errors: dict[int, tuple[str, str, str]] = {}
    finished: set[int] = set()
    dead: set[int] = set()
    deadline: list[float | None] = [None]  # armed on first failure
    tripped = [False]  # the failure broadcast went out

    def fail_world(diagnosis: str | None) -> None:
        if deadline[0] is None:
            deadline[0] = time.monotonic() + timeout
        if tripped[0]:
            return
        tripped[0] = True
        pool.barrier.abort()
        for w in pool.workers:
            if w.rank not in finished and w.rank not in dead:
                try:
                    w.cmd.send(("fail", run_id, diagnosis))
                except OSError:
                    pass

    def finish(rank: int, events, counters, transport: dict) -> None:
        world.trace.absorb(events, *clocks[rank])
        finished.add(rank)
        mirror.finish(rank, counters)
        for key, count in transport.items():
            world.transport[key] = world.transport.get(key, 0) + count

    def handle(msg: tuple) -> None:
        kind = msg[0]
        rank = msg[1]
        if msg[2] != run_id:
            return  # stale report from a previous attempt
        if kind == "hello":
            probe = msg[3]
            shift = epoch_shift(probe, time.perf_counter(), world.trace)
            clocks[rank] = (probe.epoch_ns, shift)
            if telemetry is not None:
                # flight/heartbeat stamps rebase on the same shift as
                # the trace merge, so postmortems share one clock
                telemetry.shifts[rank] = shift
        elif kind == "blocked":
            _, _, _, op, source, tag, token, sent, delivered, infl = msg
            mirror.note(rank, (op, source, tag, token),
                        (sent, delivered, infl))
        elif kind == "unblocked":
            _, _, _, sent, delivered, infl = msg
            mirror.note(rank, None, (sent, delivered, infl))
        elif kind == "done":
            _, _, _, result, events, counters, transport = msg
            world.results[rank] = result
            finish(rank, events, counters, transport)
        elif kind == "error":
            _, _, _, ekind, tname, text, events, counters, transport = msg
            errors.setdefault(rank, (ekind, tname, text))
            finish(rank, events, counters, transport)
            fail_world(None)
        elif kind == "dying":
            # a kill-mode fault flushed telemetry before SIGKILLing
            # itself; the sentinel below will confirm the death
            _, _, _, tname, text, events = msg
            world.trace.absorb(events, *clocks[rank])
            errors.setdefault(rank, ("other", tname, text))
        elif kind == "fired":
            _, _, _, index, record = msg
            if injector is not None:
                injector.absorb_fired(index, record)

    def drain_ctrl(worker: _Worker) -> None:
        while True:
            try:
                if not worker.ctrl.poll():
                    return
                handle(worker.ctrl.recv())
            except (EOFError, OSError):
                return

    by_ctrl = {id(w.ctrl): w for w in pool.workers}
    sentinels = {w.process.sentinel: w for w in pool.workers}
    while len(finished | dead) < size:
        ready = mpc.wait(list(by_ctrl) and [w.ctrl for w in pool.workers]
                         + list(sentinels), timeout=_HEARTBEAT)
        for item in ready:
            if item not in sentinels:
                drain_ctrl(by_ctrl[id(item)])
        # handle sentinel deaths only after their control traffic (an
        # "error"/"dying" flushed just before death) has been drained
        for item in ready:
            worker = sentinels.get(item)
            if worker is None or worker.rank in dead:
                continue
            drain_ctrl(worker)
            rank = worker.rank
            # the sentinel fires when the dying process closes its files,
            # a moment before it can be reaped: wait it out, or the next
            # run's ensure_alive() still sees it alive and writes its
            # "run" command into a broken pipe
            worker.process.join(timeout=0.5)
            dead.add(rank)
            mirror.finish(rank, None)
            if rank not in errors:
                errors[rank] = (
                    "killed", "WorkerDied",
                    f"rank {rank} worker process died without reporting "
                    f"(exit code {worker.process.exitcode}; killed?)")
            fail_world(None)
        if not errors:
            diagnosis = mirror.check()
            if diagnosis is not None:
                fail_world(diagnosis)
        if deadline[0] is not None and time.monotonic() > deadline[0] \
                and len(finished | dead) < size:
            break

    stuck = sorted(set(range(size)) - finished - dead)
    if stuck:
        # past the post-failure deadline: kill and name the non-reporters
        for rank in stuck:
            w = pool.workers[rank]
            if w.process.is_alive():
                w.process.kill()
            w.process.join(timeout=1.0)
            drain_ctrl(w)
        first = ""
        if errors:
            rank = min(errors)
            ekind, tname, text = errors[rank]
            first = f"; first failure: rank {rank}: {tname}: {text}"
        raise RuntimeCommError(
            f"world failed but rank(s) {', '.join(map(str, stuck))} did "
            f"not stop within the {timeout}s watchdog — likely spinning "
            f"in compute-only code that never observes the failure"
            f"{first}\n{mirror.snapshot()}")

    if errors:
        # same root-cause priority as the thread executor: a real error
        # beats an unexplained worker death beats the deadlock diagnosis
        # beats the comm-cascade failures any of them triggered
        priority = {"other": 0, "killed": 1, "deadlock": 2, "comm": 3}
        rank = min(errors, key=lambda r: (priority[errors[r][0]], r))
        ekind, tname, text = errors[rank]
        wrapper = (RuntimeDeadlockError if ekind == "deadlock"
                   else RuntimeCommError)
        raise wrapper(f"rank {rank} failed: {tname}: {text}")
    return world
