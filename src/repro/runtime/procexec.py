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
* **one shared-memory channel per ordered rank pair is the only way
  between workers**: a single-producer single-consumer ring of
  ``_SLOTS`` slots plus the writer's and the reader's counters
  (:class:`_Channel`) in one ``multiprocessing.shared_memory`` segment
  every (re)spawned worker inherits.  A slot holds a header (run id,
  tag, msg id, per-channel sequence number, payload kind) and the
  payload: ndarrays as raw 8-byte-aligned bytes behind their dtype/shape
  words, a float in the header, anything else pickled, over consecutive
  slots if one cannot hold it.  The writer fills the slot, advances its
  counter (publishing it) and posts the receiver's **doorbell**
  semaphore.  ``send`` stays buffered: what a full ring has no room for
  waits in the sender's per-peer backlog, which every later message to
  that peer joins, until the worker's one helper thread (the flusher)
  writes it.  Counters live in the segment and every message carries
  its run id, so a respawned worker resumes where the dead one stopped
  and messages of dead attempts are dropped, never delivered;
* **the receiving rank takes its own messages**.  A receive that names
  source and tag takes the head of that source's channel where it lies
  when it is the message due (:meth:`_ChannelMailbox.take_head`): a halo
  face crosses in two copies, live view to slot to ghost view.  Any
  other receive is the inherited ``_Mailbox.get`` on a mailbox whose
  wait sleeps on the doorbell and moves what was published into the
  ``(source, tag)`` buckets itself; matching, collectives and duplicate
  suppression are inherited;
* **face wires**: what a halo face's messages share — the shape words
  and the sections' offsets in every slot — is built once per face and
  channel end (:class:`_Wire`, kept on the face).  The sender copies
  each array into the next slot's views and writes the words and the
  header in front of them; the receiver checks its first message against the
  ghost face (``fill_ghosts``) and afterwards copies straight from the
  slot's views whenever a message's words are the ones it checked.  The
  slot format is the one every other payload uses, and a full ring, a
  backlog or a face too big for a slot send it the generic way;
* the world barrier is a ``multiprocessing.Barrier`` shared by all
  workers, abortable by any worker *and* by the launcher;
* **deadlock detection runs in the launcher**: every worker publishes
  what it is blocked on over its control pipe (re-published as a
  heartbeat, with its send/deliver counters), and the launcher feeds the
  reports to the one :class:`~repro.runtime.comm.DeadlockDetector` the
  thread executor uses, so both declare a deadlock by the same rule and
  word the diagnosis the same way;
* **failure propagation**: a failing worker reports the error (with its
  trace) over its control pipe; the launcher broadcasts the failure,
  aborts the barrier, and gives the rest the watchdog deadline to
  unwind.  A worker that dies without reporting — a real ``SIGKILL`` —
  is detected through its process sentinel; non-reporters past the
  deadline are killed and named.  Both executors fail and report
  through one :class:`repro.runtime.world._Launch`;
* **trace merging**: workers stamp events on their own clock; an epoch
  handshake at run start (:class:`repro.runtime.trace.EpochProbe`) lets
  the launcher rebase worker events onto the caller's trace, so
  ``acfd profile`` output is executor-agnostic.  A worker's log crosses
  as one int64 buffer (``Trace.pack``) in its ``done``, ``error`` or
  ``dying`` report, and the launcher keeps it as one table, rebased by
  one vectorized add (``Trace.absorb``).  Each worker also counts
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
from collections import deque, namedtuple
from multiprocessing import connection as mpc
from multiprocessing import get_context, shared_memory
from time import perf_counter, perf_counter_ns

import numpy as np

from repro.errors import RuntimeCommError
from repro.runtime.comm import (_HEARTBEAT, Communicator, DeadlockDetector,
                                _Mailbox, _Message, fill_ghosts)
from repro.runtime.trace import EpochProbe, Trace, epoch_shift
from repro.runtime.world import World, _exc_kind, _Launch

#: channel geometry: slots per ring, bytes a slot holds behind its header
_SLOTS = 8
_SLOT_BYTES = 1 << 16
#: slot header: run id, tag, msg id (-1: none), channel sequence number,
#: payload kind, a kind-specific integer, a kind-specific float
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
#: the flusher's pause between polls of a ring it has backlog for, so
#: that a reader that stays busy costs it no core
_FLUSH_PAUSE = 100e-6

#: payload kinds; a _CHUNK slot holds one piece of a pickle too big for
#: a slot, its float the bytes still to come (0.0 in the last piece)
_PICKLE, _FLOAT, _ARRAY, _LIST, _CHUNK = range(5)

#: in place of a payload: ``take_head``'s answer when the receive goes the
#: inherited way, ``_drain``'s for a chunk that leaves its message short
_MISS = object()


# ---------------------------------------------------------------------------
# the channel: slots, counters, and the payload encoding
# ---------------------------------------------------------------------------


class _Channel:
    """One end of one ordered rank pair's ring in the pool's segment.

    Layout: the writer's counter (slots published), the reader's (slots
    taken), then ``_SLOTS`` slots; the *n*-th published lives in slot
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

    def body(self, index: int) -> int:
        """Offset of the payload of slot *index*, behind its header."""
        return self._slots + index * _STRIDE + _HEAD

    def advance(self) -> None:
        """Publish (writer) or free (reader) the slot :meth:`slot` gave."""
        self.pos += 1
        self._ctr[self._mine] = self.pos

    def unread(self) -> int:
        """Reader's end: slots published and not yet taken."""
        return self._ctr[self._theirs] - self.pos


@functools.lru_cache(maxsize=None)
def _dtype_word(dtype: np.dtype) -> int:
    return int.from_bytes(dtype.str.encode(), "little")


@functools.lru_cache(maxsize=None)
def _word_dtype(word: int) -> np.dtype:
    return np.dtype(word.to_bytes(8, "little").rstrip(b"\0").decode())


def _words(arrays) -> list[int] | None:
    """The shape words a slot carries for *arrays* (dtype, ndim, shape
    each), or None if they are not all numeric ndarrays a slot holds."""
    if not arrays or not all(a.__class__ is np.ndarray
                             and a.dtype.kind in "biufc" for a in arrays):
        return None
    words: list[int] = []
    size = 0
    for a in arrays:
        words += (_dtype_word(a.dtype), a.ndim, *a.shape)
        size += (a.nbytes + 7) & ~7
    return words if 8 * len(words) + size <= _SLOT_BYTES else None


def _encode(buf: memoryview, body: int, payload
            ) -> tuple[int, int, float] | None:
    """Write a float or ndarray(s) *payload* at *body*, behind a slot's
    header; the header's (kind, count, float) fields, or None if the
    payload is of another kind or the slot cannot hold it."""
    cls = payload.__class__
    if cls is float:
        return _FLOAT, 0, payload
    arrays = ((payload,) if cls is np.ndarray
              else payload if cls is list else ())
    words = _words(arrays)
    if words is None:
        return None
    struct.pack_into(f"{len(words)}q", buf, body, *words)
    for a, section in zip(arrays, _views(buf, body, words)):
        # strided or not, one copy: the buffered-send copy
        section[...] = a
    return _ARRAY if cls is np.ndarray else _LIST, len(words), 0.0


def _views(buf: memoryview, body: int, words) -> list[np.ndarray]:
    """Views of the arrays *words* describe, laid out behind them at
    *body*: each at an 8-byte-aligned offset."""
    at = body + 8 * len(words)
    out = []
    i = 0
    while i < len(words):
        shape = words[i + 2:i + 2 + words[i + 1]]
        out.append(np.ndarray(shape, _word_dtype(words[i]), buf, at))
        at += (out[-1].nbytes + 7) & ~7
        i += 2 + len(shape)
    return out


def _sections(buf: memoryview, body: int, n: int) -> list[np.ndarray]:
    """The arrays :func:`_encode` wrote at *body*, as views of the slot."""
    return _views(buf, body, struct.unpack_from(f"{n}q", buf, body))


class _Wire:
    """What one halo face's messages on one channel have in common: the
    shape words packed as a slot carries them, and the face's sections
    as views of every slot of the ring.  A face's shapes and dtypes are
    fixed, so the sender builds its wire at the first send and the
    receiver at the first message it has checked; afterwards a message
    is one copy per array between the face's views and the slot's."""

    __slots__ = ("words", "n", "slots", "nbytes")

    def __init__(self, chan: _Channel, words) -> None:
        self.words = struct.pack(f"{len(words)}q", *words)
        self.n = len(words)
        #: slot index -> the sections' views in that slot
        self.slots = [_views(chan.buf, chan.body(index), words)
                      for index in range(_SLOTS)]
        self.nbytes = sum(section.nbytes for section in self.slots[0])

    def encode(self, chan: _Channel, off: int, arrays
               ) -> tuple[int, int, float]:
        """:func:`_encode` of the face's *arrays* into the slot at *off*,
        the channel's next: the packed words, one copy per array."""
        for section, a in zip(self.slots[chan.pos % _SLOTS], arrays):
            section[...] = a
        body = off + _HEAD
        chan.buf[body:body + 8 * self.n] = self.words
        return _LIST, self.n, 0.0


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
    message into the buckets (:meth:`_drain`).  :meth:`take_head` is the
    way round the buckets.  Only the body thread takes from channels, so
    ``delivered`` — what the launcher's detector balances against the
    senders' counts — moves exactly when a message becomes receivable.
    """

    def __init__(self, run_id: int, inbound: dict[int, _Channel],
                 doorbell) -> None:
        super().__init__()
        self._run_id = run_id
        self._channels = inbound
        self._doorbell = doorbell
        #: source -> sequence number of the next message to admit
        self._next = dict.fromkeys(inbound, 0)
        #: source -> (sequence number, pieces) of the chunked message
        #: being put back together
        self._parts: dict[int, tuple[int, list[bytes]]] = {}
        self.doorbell_sleeps = 0
        self.spin_hits = 0
        #: messages :meth:`take_head` took in place
        self.head_takes = 0

    @property
    def delivered(self) -> int:
        return sum(self._next.values())

    @property
    def pending(self) -> int:
        """Messages waiting for this rank: in a bucket, or published in
        a channel and not yet taken (a chunked one counts its slots)."""
        return self._queued + sum(chan.unread()
                                  for chan in self._channels.values())

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
        channel, when nothing of that source and tag is queued and the
        head, awaited for ``_SPIN`` at most, is a whole message carrying
        this run's id, *tag*, the sequence number due and no msg id.
        With a *face* (a halo ghost face) the sections go straight into
        its ghost views and the payload is their byte count: checked
        against the face (:func:`fill_ghosts`) the first time, which
        leaves the face its :class:`_Wire`, and copied from the slot's
        views without a check whenever the message's shape words are the
        wire's (any other message is checked again).  Otherwise
        nothing is touched and the answer is ``(_MISS, seconds spent)``:
        the caller goes through :meth:`get`, whose drain, reassembly,
        duplicate suppression, detector and timeout apply.  Body thread
        only, like every taker of channels.
        """
        chan = self._channels.get(source)
        if (chan is None or tag is None
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
                or seq != self._next[source] or kind == _CHUNK
                or (face is not None and kind != _LIST)):
            return _MISS, waited
        body = off + _HEAD
        if face is None:
            payload = _decode(buf, body, kind, n, value)
        elif (wire := face.wire) is not None and n == wire.n \
                and buf[body:body + 8 * n] == wire.words:
            for ghost, section in zip(face.views,
                                      wire.slots[chan.pos % _SLOTS]):
                if ghost is not None:
                    ghost[...] = section
            payload = wire.nbytes
        else:
            sections = _sections(buf, body, n)
            fill_ghosts(face.views, sections)
            payload = sum(section.nbytes for section in sections)
            if wire is None:
                face.wire = _Wire(chan, struct.unpack_from(f"{n}q", buf,
                                                           body))
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
        """Move everything published for this run into the buckets,
        chunked messages once whole (body thread, lock held); free what
        dead runs left behind."""
        run_id = self._run_id
        parts = self._parts
        for source, chan in self._channels.items():
            buf = chan.buf
            while (off := chan.slot()) is not None:
                rid, tag, msg_id, seq, kind, n, value = \
                    _HDR.unpack_from(buf, off)
                if rid == run_id:
                    body = off + _HEAD
                    if kind == _CHUNK:
                        # a new seq starts a message (and drops one its
                        # failed run cut short); the last piece completes it
                        part = parts.get(source)
                        if part is None or part[0] != seq:
                            part = parts[source] = (seq, [])
                        part[1].append(bytes(buf[body:body + n]))
                        payload = _MISS if value else pickle.loads(
                            b"".join(parts.pop(source)[1]))
                    else:
                        payload = _decode(buf, body, kind, n, value)
                    if payload is not _MISS:
                        self._enqueue(_Message(
                            source, tag, payload,
                            None if msg_id < 0 else msg_id))
                        self._next[source] = seq + 1
                chan.advance()


class _RemoteMailbox:
    """Sender-side proxy for a peer's mailbox: ``write`` copies a payload
    into the pair's channel and rings the peer's doorbell.

    What the ring has no room for waits in the backlog, which every
    later message joins while it is not empty: send order holds and
    ``write`` never waits for the reader.  Bound to one run: a delayed
    delivery (fault-injection timer) firing after its run died carries
    the dead run's id and is dropped by the receiver, and the flusher
    serves only the current run's backlog.
    """

    __slots__ = ("_run_id", "_chan", "_lock", "_doorbell", "_backlogged",
                 "_backlog", "sent", "overflow")

    def __init__(self, run_id: int, chan: _Channel, lock, doorbell,
                 backlogged: threading.Event) -> None:
        self._run_id = run_id
        self._chan = chan
        self._lock = lock  # per-pair: body, flusher, injector timers
        self._doorbell = doorbell
        self._backlogged = backlogged  # what the flusher sleeps on
        #: what waits for a slot, one slot's worth each: (tag, msg id,
        #: seq, kind, piece of a pickle, bytes of it still to come)
        self._backlog: deque[tuple] = deque()
        #: messages sent this run; the next one's sequence number
        self.sent = 0
        #: messages not written whole into one slot at send time
        self.overflow = 0

    def put(self, message: _Message) -> None:
        self.write(message.tag, message.payload, message.msg_id)

    def write(self, tag: int, payload, msg_id: int | None = None,
              wire: _Wire | None = None) -> None:
        """Publish *payload* in the next slot, or backlog it pickled.  A
        list of arrays with its *wire* (a halo face's) is written through
        the wire's views instead of :func:`_encode`."""
        chan = self._chan
        msg_id = -1 if msg_id is None else msg_id
        with self._lock:
            seq = self.sent
            # counted before it is published: whatever the launcher's
            # detector reads, a message on its way keeps sent > delivered
            self.sent = seq + 1
            off = None if self._backlog else chan.slot()
            head = off is not None and (
                _encode(chan.buf, off + _HEAD, payload) if wire is None
                else wire.encode(chan, off, payload))
            if head:
                _HDR.pack_into(chan.buf, off, self._run_id, tag, msg_id,
                               seq, *head)
                chan.advance()
            else:
                data = memoryview(pickle.dumps(payload,
                                               pickle.HIGHEST_PROTOCOL))
                kind = _PICKLE if len(data) <= _SLOT_BYTES else _CHUNK
                for pos in range(0, len(data), _SLOT_BYTES):
                    piece = data[pos:pos + _SLOT_BYTES]
                    self._backlog.append((tag, msg_id, seq, kind, piece,
                                          len(data) - pos - len(piece)))
                if off is None or kind == _CHUNK:
                    self.overflow += 1
        if head:
            self._doorbell.release()
        elif self.flush():
            self._backlogged.set()

    def write_face(self, face) -> None:
        """:meth:`write` a halo send *face*'s views through its
        :class:`_Wire`, built at its first send (none for a face a slot
        cannot hold)."""
        wire = face.wire
        if wire is None:
            words = _words(face.views)
            if words is not None:
                wire = face.wire = _Wire(self._chan, words)
        self.write(face.tag, face.views, wire=wire)

    def flush(self, drop: bool = False) -> bool:
        """Write the backlog into free slots, oldest first (or *drop*
        it); whether any is left."""
        chan = self._chan
        buf = chan.buf
        wrote = False
        with self._lock:
            backlog = self._backlog
            if drop:
                backlog.clear()
            while backlog and (off := chan.slot()) is not None:
                tag, msg_id, seq, kind, piece, rest = backlog.popleft()
                buf[off + _HEAD:off + _HEAD + len(piece)] = piece
                _HDR.pack_into(buf, off, self._run_id, tag, msg_id, seq,
                               kind, len(piece), rest)
                chan.advance()
                wrote = True
            left = bool(backlog)
        if wrote:
            self._doorbell.release()
        return left


class _Run:
    """One attempt's worker-side state (fresh per "run" command).

    Also what this rank notes its waits with, through the surface
    ``_Mailbox.get`` and ``Communicator.barrier`` use (``block``,
    ``unblock``, ``diagnosis``, ``snapshot``): each note is published to
    the launcher, whose :class:`DeadlockDetector` rules on the whole
    world, and re-published with live counters while the wait lasts
    (:meth:`heartbeat`).  The launcher's verdict comes back as
    ``self.diagnosis``.
    """

    def __init__(self, worker: _WorkerState, run_id: int,
                 trace_enabled: bool) -> None:
        self.run_id = run_id
        self.rank = worker.rank
        self._publish = worker.publish
        self.trace = Trace(enabled=trace_enabled)
        self.mailbox = _ChannelMailbox(run_id, worker.inbound,
                                       worker.doorbell)
        #: rank -> where a message for it goes
        self.mailboxes: list = [
            self.mailbox if dest == worker.rank
            else _RemoteMailbox(run_id, *worker.outbound[dest])
            for dest in range(worker.size)]
        self._remotes = [m for m in self.mailboxes if m is not self.mailbox]
        self.failed = threading.Event()
        self.injector = None
        #: this rank's live-telemetry writer (attached shared memory)
        self.tele = None
        self.diagnosis: str | None = None
        #: orders the notes on the control pipe as the waits happened
        self.lock = threading.Lock()
        #: (op, source, tag) while blocked, else None
        self.current_wait = None
        #: notes published: blocked, unblocked and heartbeats
        self.wait_reports = 0

    def counters(self) -> tuple[int, int, int]:
        """(sent, delivered, injected messages in flight) for the
        launcher's detector; read lock-free from any thread."""
        infl = self.injector.in_flight() if self.injector is not None else 0
        return (sum(m.sent for m in self._remotes),
                self.mailbox.delivered, infl)

    def flush(self) -> bool:
        """Flush (a failed run: drop) this run's backlogs; whether any
        is left."""
        drop = self.failed.is_set()
        return any([m.flush(drop) for m in self._remotes])

    def transport(self) -> dict[str, int]:
        """How this rank's messages travelled and how it waited."""
        overflow = sum(m.overflow for m in self._remotes)
        return {"ring": sum(m.sent for m in self._remotes) - overflow,
                "overflow": overflow,
                "doorbell_sleeps": self.mailbox.doorbell_sleeps,
                "spin_hits": self.mailbox.spin_hits,
                "head_takes": self.mailbox.head_takes,
                "wait_reports": self.wait_reports}

    def block(self, rank: int, op: str, source: int | None = None,
              tag: int | None = None) -> None:
        with self.lock:
            self.current_wait = (op, source, tag)
            self._report()

    def unblock(self, rank: int) -> None:
        with self.lock:
            self.current_wait = None
            self._report()

    def heartbeat(self) -> None:
        """Re-publish what this rank is blocked on, if it is."""
        with self.lock:
            if self.current_wait is not None:
                self._report()

    def _report(self) -> None:
        self.wait_reports += 1
        self._publish(("wait", self.rank, self.run_id, self.current_wait,
                       self.counters()))

    def snapshot(self) -> str:
        return "  (the launcher's detector holds the world's state)"


class ProcCommunicator(Communicator):
    """A rank endpoint whose peers live in other processes.

    Collectives, barrier handling, deadlock bookkeeping and tracing are
    inherited; what changes is the way across the process boundary.
    Writing into the slot (or pickling, for what a slot cannot hold raw)
    *is* the buffered-send copy, so the payload deep-copy is skipped, and a
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

    def send_face(self, face) -> None:
        record = self.record
        t0 = perf_counter_ns() if record is not None else 0
        self._mailboxes[face.peer].write_face(face)
        if record is not None:
            # the write was the pack and the send, and no defensive copy
            # was made of what it packed
            now = perf_counter_ns()
            record("halo_pack", None, face.nbytes, face.tag, 0, t0, now)
            record("send", face.peer, face.nbytes, face.tag, face.nbytes,
                   now, now)

    def recv_face(self, face) -> None:
        record = self.record
        t0 = perf_counter_ns() if record is not None else 0
        nbytes, waited = self._mailboxes[self.rank].take_head(
            face.peer, face.tag, self._failed, face)
        if nbytes is _MISS:
            msg, more = super()._get(face.peer, face.tag, "recv")
            self._unpack_face(face, self._received(msg, waited + more))
        elif record is not None:
            # the wait for the message, then the copy out of its slot
            t1 = t0 + int(waited * 1e9)
            record("recv", face.peer, nbytes, face.tag, t1 - t0, t0, t1)
            record("halo_unpack", None, face.nbytes, face.tag, 0,
                   t1, perf_counter_ns())


class _WorkerState:
    """One worker process's long-lived state across runs."""

    def __init__(self, rank: int, size: int, ctrl, buf, doorbells) -> None:
        self.rank = rank
        self.size = size
        self.ctrl = ctrl
        self.ctrl_lock = threading.Lock()
        self.doorbell = doorbells[rank]
        #: source -> reading end of that rank's channel to this one
        self.inbound = {s: _Channel(buf, _channel_base(size, s, rank), False)
                        for s in range(size) if s != rank}
        #: set when a backlog forms: wakes the flusher
        self.backlogged = threading.Event()
        #: dest -> what a _RemoteMailbox is made of, shared by all runs:
        #: writing end, its lock, the peer's doorbell, the flusher's event
        self.outbound = {
            d: (_Channel(buf, _channel_base(size, rank, d), True),
                threading.Lock(), doorbells[d], self.backlogged)
            for d in range(size) if d != rank}
        self.run: _Run | None = None

    def publish(self, msg: tuple) -> None:
        with self.ctrl_lock:
            self.ctrl.send(msg)


def _channel_base(size: int, source: int, dest: int) -> int:
    """Offset of the (source -> dest) channel in a pool's segment."""
    return (source * (size - 1) + dest - (dest > source)) * _CHANNEL_BYTES


def _flush_loop(worker: _WorkerState) -> None:
    """The flusher: write the current run's backlogs into their rings as
    the readers free slots.  It sleeps while no backlog exists and
    pauses ``_FLUSH_PAUSE`` between polls while one does."""
    while True:
        worker.backlogged.wait()
        worker.backlogged.clear()
        while worker.run.flush():
            time.sleep(_FLUSH_PAUSE)


def _worker_main(rank: int, size: int, cmd, ctrl, barrier, shm,
                 doorbells) -> None:
    """Worker process entry: command loop + flusher + per-run body."""
    worker = _WorkerState(rank, size, ctrl, shm.buf, doorbells)
    threading.Thread(target=_flush_loop, args=(worker,),
                     daemon=True, name=f"proc-flush-{rank}").start()

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
            args=(worker, run, fn, timeout, barrier)).start()


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
                        run.trace.pack()))
        if run.tele is not None:
            run.tele.finish(False)  # last heartbeat: state=failed
        barrier.abort()  # wake peers stuck in a barrier right away
        os.kill(os.getpid(), 9)  # SIGKILL: a real, unhandled death

    return FaultInjector(FaultPlan.from_dict(spec["plan"]),
                         armed=spec["armed"], salt=run.rank + 1,
                         crash_mode="kill", on_fire=on_fire,
                         on_crash=on_crash)


def _run_body(worker: _WorkerState, run: _Run, fn, timeout,
              barrier) -> None:
    """Execute the rank body for one run and report the outcome."""
    if run.tele is not None:
        run.tele.bind(run.mailbox)
    # with faults to inject, the base class: every delivery goes through
    # the injector and every receive through the buckets, where drop,
    # delay and duplicate (and its suppression) are looked after
    cls = ProcCommunicator if run.injector is None else Communicator
    comm = cls(run.rank, worker.size, run.mailboxes, barrier, run.trace,
               run.failed, timeout, run, run.injector, run.tele)
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
        if run.tele is not None:
            run.tele.finish(err is None)
    tail = (run.trace.pack(), run.counters(), run.transport())
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


_Worker = namedtuple("_Worker", "rank process cmd ctrl")


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
        #: rank -> semaphore its senders post
        self.doorbells = [self.ctx.Semaphore(0) for _ in range(size)]
        self._run_seq = 0
        self.workers = [self._spawn(rank) for rank in range(size)]

    def _spawn(self, rank: int) -> _Worker:
        cmd_r, cmd_w = self.ctx.Pipe(duplex=False)
        ctrl_r, ctrl_w = self.ctx.Pipe(duplex=False)
        process = self.ctx.Process(
            target=_worker_main, daemon=True, name=f"acfd-rank-{rank}",
            args=(rank, self.size, cmd_r, ctrl_w, self.barrier, self.shm,
                  self.doorbells))
        process.start()
        return _Worker(rank, process, cmd_w, ctrl_r)

    def next_run_id(self) -> int:
        self._run_seq += 1
        return self._run_seq

    def ensure_alive(self) -> None:
        """Respawn dead workers and un-break the barrier before a run."""
        for rank, w in enumerate(self.workers):
            if not w.process.is_alive():
                w.process.join(timeout=0.5)
                _close_quiet(w.cmd, w.ctrl)
                self.workers[rank] = self._spawn(rank)
        if self.barrier.broken:
            self.barrier.reset()

    def shutdown(self) -> None:
        for w in self.workers:
            try:
                w.cmd.send(("shutdown",))
            except OSError:
                pass
        for w in self.workers:
            w.process.join(timeout=1.0)
            if w.process.is_alive():
                w.process.kill()
                w.process.join(timeout=0.5)
            _close_quiet(w.cmd, w.ctrl)
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

    #: rank -> (worker trace epoch_ns, seconds onto world.trace's epoch)
    #: (set by its "hello", the first thing a worker reports in a run)
    clocks: dict[int, tuple[int, float]] = {}
    finished: set[int] = set()
    dead: set[int] = set()

    def broadcast(diagnosis: str | None) -> None:
        pool.barrier.abort()
        for w in pool.workers:
            if w.rank not in finished and w.rank not in dead:
                try:
                    w.cmd.send(("fail", run_id, diagnosis))
                except OSError:
                    pass

    launch = _Launch(timeout, DeadlockDetector(size), broadcast)
    detector = launch.detector

    def finish(rank: int, status: str, log: bytes, counters,
               transport: dict) -> None:
        world.trace.absorb(log, *clocks[rank])
        finished.add(rank)
        detector.finish(rank, status, counters)
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
        elif kind == "wait":
            detector.note(rank, msg[3], msg[4])
        elif kind == "done":
            _, _, _, result, log, counters, transport = msg
            world.results[rank] = result
            finish(rank, "finished", log, counters, transport)
        elif kind == "error":
            _, _, _, ekind, tname, text, log, counters, transport = msg
            launch.error(rank, ekind, tname, text)
            finish(rank, "failed", log, counters, transport)
        elif kind == "dying":
            # a kill-mode fault flushed telemetry before SIGKILLing
            # itself; the sentinel below will confirm the death
            _, _, _, tname, text, log = msg
            world.trace.absorb(log, *clocks[rank])
            launch.error(rank, "other", tname, text)
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
    while len(finished | dead) < size and not launch.expired():
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
            detector.finish(rank,
                            "failed" if rank in launch.errors else "died")
            launch.error(
                rank, "killed", "WorkerDied",
                f"rank {rank} worker process died without reporting "
                f"(exit code {worker.process.exitcode}; killed?)")
        launch.tick()

    stuck = sorted(set(range(size)) - finished - dead)
    # past the post-failure deadline: kill the non-reporters
    for rank in stuck:
        w = pool.workers[rank]
        if w.process.is_alive():
            w.process.kill()
        w.process.join(timeout=1.0)
        drain_ctrl(w)
    launch.raise_failure(stuck)
    return world
