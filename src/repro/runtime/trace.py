"""Event tracing for the message-passing runtime.

Every send, receive, barrier, collective, halo copy, exchange, pipeline
transfer, frame mark, checkpoint and injected fault is one *record*:
eight integers ``(rank, code, peer, nbytes, tag, extra, t0_ns, t1_ns)``.
``code`` is the kind's index in :data:`KIND_NAMES`, a ``None`` peer or
tag is stored as -1 (and -1 reads back as ``None``), ``extra`` is the
payload bytes a halo face's send did not copy a second time for a
``send`` and the nanoseconds the rank spent blocked for every other
kind; both stamps are ``time.perf_counter_ns()`` readings of the
recording process (the cheapest clock CPython offers, and the only one
an event is ever stamped with).  The flight ring
(:mod:`repro.obs.flight`) stores the same integers less the rank.  The
test suite uses traces to assert that the
number of synchronizations the *runtime actually performs* per frame
equals the number the *pre-compiler predicted* after optimization
(Table 1's "after" column); the benchmark harness feeds traces —
including the wait-time and copy-savings accounting — to the cluster
simulator, and :class:`repro.obs.timeline.Timeline` rolls the spans up
into per-rank compute / blocked / halo / collective breakdowns.

Recording discipline: :meth:`Trace.writer` hands each rank one function
``write(kind, peer, nbytes, tag, extra, t0_ns, t1_ns)`` and nothing else
in the package records an event.  One call extends the trace's live log,
one flat list of ints, by the record's eight and, when the world carries
live telemetry (:class:`repro.obs.health.RankTelemetry`), stores the
same fields in that rank's crash-surviving flight-ring row and keeps the
health board's traffic counters, frame and checkpoint cells current — so
the log and the ring hold the same events and differ only in how many
they keep.  A world that records nothing (``Trace(enabled=False)`` and
no telemetry) gets no writer at all: call sites test ``comm.record`` for
``None`` and skip their clock reads.

Across processes a log travels as one buffer: :meth:`Trace.pack` is the
live log as int64 bytes, and :meth:`Trace.absorb` keeps such a buffer as
an ``(n, 8)`` int64 table with its stamps rebased onto this trace's
clock.  The live log and the absorbed tables read as one table, in the
order the records arrived.

The collector takes no lock: every mutation is a single list operation
(``extend``, ``append``, ``clear``) and every query starts from one
``list()`` copy of each list, atomic under the GIL, so queries are safe
to call while ranks are still recording.  The counting queries
(:meth:`Trace.count`, :meth:`Trace.comm_stats`, ...) work on the integer
columns; :class:`TraceEvent` is the reader-side view:
:meth:`Trace.snapshot` (and the flight ring's ``tail``) decode records
into events whose ``t0``/``t1`` are seconds since the trace
``epoch_ns``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: every event kind that is a synchronization in the Table-1 sense:
#: the rank cannot proceed until (some) other ranks participate.
SYNC_KINDS = ("exchange", "barrier", "allreduce", "reduce", "bcast",
              "gather", "scatter", "allgather")

#: every kind the runtime writes, indexed by its record code
#: (0 marks an empty flight-ring slot)
KIND_NAMES = (
    "", "send", "recv", "barrier", "bcast", "reduce", "allreduce",
    "gather", "allgather", "scatter", "exchange", "halo_pack",
    "halo_unpack", "pipeline_send", "pipeline_recv", "frame",
    "checkpoint", "restore", "fault_crash", "fault_straggler",
    "fault_drop", "fault_delay", "fault_dup", "overlap", "rank",
)
KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}

#: the columns of a record
RANK, CODE, PEER, NBYTES, TAG, EXTRA, T0, T1 = range(8)
_SEND = KIND_CODES["send"]
#: code -> whether that kind is a synchronization
_IS_SYNC = np.array([name in SYNC_KINDS for name in KIND_NAMES])
_KIND_OBJECTS = np.array(KIND_NAMES, dtype=object)


@dataclass(slots=True)
class TraceEvent:
    """One runtime event, decoded (see :func:`decode`)."""

    rank: int
    kind: str  # one of KIND_NAMES
    peer: int | None
    nbytes: int
    tag: int | None = None
    #: seconds this rank spent blocked before the event completed
    wait_s: float = 0.0
    #: payload bytes a halo face's send did not copy a second time
    saved_bytes: int = 0
    #: begin/end timestamps (seconds since the trace epoch)
    t0: float = 0.0
    t1: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def decode(table: np.ndarray, epoch_ns: int,
           shift_s: float = 0.0) -> list[TraceEvent]:
    """The :class:`TraceEvent` of each record of *table* (an ``(n, 8)``
    int64 array), its stamps as seconds since *epoch_ns* plus
    *shift_s*."""
    send = table[:, CODE] == _SEND
    extra = table[:, EXTRA]
    return list(map(
        TraceEvent, table[:, RANK].tolist(),
        _KIND_OBJECTS[table[:, CODE]].tolist(), _or_none(table[:, PEER]),
        table[:, NBYTES].tolist(), _or_none(table[:, TAG]),
        np.where(send, 0.0, extra / 1e9).tolist(),
        np.where(send, extra, 0).tolist(),
        ((table[:, T0] - epoch_ns) / 1e9 + shift_s).tolist(),
        ((table[:, T1] - epoch_ns) / 1e9 + shift_s).tolist()))


def _or_none(column: np.ndarray) -> list:
    """*column* as ints, the -1 that stands for None as None."""
    out = column.astype(object)
    out[column == -1] = None
    return out.tolist()


@dataclass(frozen=True)
class EpochProbe:
    """One process's trace-clock sample, for the cross-process handshake.

    ``time.perf_counter_ns()`` readings are only guaranteed comparable
    *within* a process: a worker's trace epoch is meaningless on the
    caller's clock.  At attach time the worker sends an
    :meth:`EpochProbe.sample` of its trace; the receiver stamps its own
    clock at receipt and :func:`epoch_shift` solves for the offset that
    lands the worker's epoch-relative timestamps on the receiver's
    epoch.  The estimate is biased late by the one-way transit of the
    probe message (microseconds on a local pipe) — events merged from a
    worker can therefore never land *before* the moment the caller knew
    the worker existed, keeping merged spans non-negative.
    """

    #: the sampled trace's ``epoch_ns`` (its local ``perf_counter_ns``)
    epoch_ns: int
    #: local ``time.perf_counter()`` at the instant the probe was taken
    sampled_at: float

    @classmethod
    def sample(cls, trace: "Trace") -> "EpochProbe":
        return cls(trace.epoch_ns, time.perf_counter())


def epoch_shift(probe: EpochProbe, received_at: float,
                target: "Trace") -> float:
    """Seconds to add to *probe*-relative timestamps to rebase onto
    *target*'s epoch.

    Args:
        probe: the remote trace's clock sample.
        received_at: ``time.perf_counter()`` on the *target*'s clock when
            the probe arrived (the two clock readings bracket the same
            instant, so their difference is the inter-process offset
            plus transit).
    """
    skew = received_at - probe.sampled_at
    return (probe.epoch_ns - target.epoch_ns) / 1e9 + skew


@dataclass
class Trace:
    """Event collector shared by all ranks of a world (safe to record
    into and query from several threads, see the module docstring)."""

    #: the live log: eight ints per record, stamps absolute on this
    #: process's clock — read via snapshot() or table()
    events: list = field(default_factory=list)
    #: ``perf_counter_ns()`` base all decoded timestamps are relative to
    epoch_ns: int = field(default_factory=time.perf_counter_ns)
    #: False drops all records (overhead-measurement baseline)
    enabled: bool = True
    #: absorbed logs: (length of the live log when absorbed, (n, 8)
    #: int64 table on this trace's clock)
    absorbed: list = field(default_factory=list, init=False, repr=False)

    def now(self) -> float:
        """Seconds since this trace's epoch."""
        return (time.perf_counter_ns() - self.epoch_ns) / 1e9

    def writer(self, rank: int, telemetry=None):
        """*rank*'s event writer ``write(kind, peer, nbytes, tag, extra,
        t0_ns, t1_ns)``, or None when nothing would keep the record.

        *telemetry* is the rank's :class:`repro.obs.health.RankTelemetry`
        when the world publishes live health; the writer is then the
        single writer of that rank's flight-ring row and of the board
        cells that are derived from events.
        """
        log = self.events.extend if self.enabled else None
        codes = KIND_CODES
        if telemetry is None:
            if log is None:
                return None

            def write(kind, peer, nbytes, tag, extra, t0_ns, t1_ns):
                log((rank, codes[kind], -1 if peer is None else peer,
                     nbytes, -1 if tag is None else tag, extra, t0_ns,
                     t1_ns))
            return write

        from repro.obs.health import (_BEAT, _CKPT, _FRAME, _RECV_B,
                                      _RECV_N, _SENT_B, _SENT_N, _T_NS)
        ring, hdr, row = telemetry.ring, telemetry.hdr, telemetry.row
        slots = len(ring)

        def write(kind, peer, nbytes, tag, extra, t0_ns, t1_ns):
            record = (rank, codes[kind], -1 if peer is None else peer,
                      nbytes, -1 if tag is None else tag, extra, t0_ns,
                      t1_ns)
            if log is not None:
                log(record)
            cursor = int(hdr[0])
            ring[cursor % slots] = record[1:]
            hdr[0] = cursor + 1
            row[_T_NS] = t1_ns
            if kind == "send":
                row[_SENT_B] += nbytes
                row[_SENT_N] += 1
            elif kind == "recv":
                row[_RECV_B] += nbytes
                row[_RECV_N] += 1
            elif kind == "frame":
                row[_FRAME] = tag
                row[_BEAT] += 1
            elif kind == "checkpoint":
                row[_CKPT] = tag
        return write

    def pack(self) -> bytes:
        """The live log as one int64 buffer, what :meth:`absorb` takes."""
        return np.array(list(self.events), np.int64).tobytes()

    def absorb(self, log: bytes, epoch_ns: int, shift: float = 0.0) -> None:
        """Keep another trace's :meth:`pack`-ed log, whose epoch is
        *epoch_ns*, as one table, its stamps rebased so they decode
        *shift* seconds (see :func:`epoch_shift`) later against this
        trace's epoch than they did against their own."""
        if not self.enabled or not log:
            return
        table = np.frombuffer(log, np.int64).reshape(-1, 8).copy()
        table[:, T0:] += self.epoch_ns - epoch_ns + round(shift * 1e9)
        self.absorbed.append((len(self.events), table))

    # -- queries ---------------------------------------------------------------

    def table(self) -> np.ndarray:
        """Every record so far as one ``(n, 8)`` int64 array, in the
        order they arrived (safe while recording)."""
        # the absorbed tables first: every position they name is then
        # inside the copy of the live log
        absorbed = list(self.absorbed)
        live = np.array(list(self.events), np.int64).reshape(-1, 8)
        if not absorbed:
            return live
        parts = []
        at = 0
        for until, table in absorbed:
            parts += [live[at // 8:until // 8], table]
            at = until
        parts.append(live[at // 8:])
        return np.concatenate(parts)

    def snapshot(self) -> list[TraceEvent]:
        """Consistent decoded copy of the log (safe while recording)."""
        return decode(self.table(), self.epoch_ns)

    def _rows(self, rank: int | None) -> np.ndarray:
        """:meth:`table`, or its records of *rank*."""
        table = self.table()
        return table if rank is None else table[table[:, RANK] == rank]

    def count(self, kind: str, rank: int | None = None) -> int:
        """Number of events of *kind* (optionally for one rank)."""
        code = KIND_CODES.get(kind, -1)
        return int(np.count_nonzero(self._rows(rank)[:, CODE] == code))

    def bytes_sent(self, rank: int | None = None) -> int:
        """Total payload bytes sent (point-to-point sends only)."""
        rows = self._rows(rank)
        return int(rows[rows[:, CODE] == _SEND, NBYTES].sum())

    def sync_count(self, rank: int | None = None) -> int:
        """Synchronization operations: exchanges, barriers, collectives
        (including gathers, scatters, and allgathers)."""
        return int(np.count_nonzero(_IS_SYNC[self._rows(rank)[:, CODE]]))

    def messages(self, rank: int | None = None) -> list[TraceEvent]:
        rows = self._rows(rank)
        return decode(rows[rows[:, CODE] == _SEND], self.epoch_ns)

    def wait_time(self, rank: int | None = None) -> float:
        """Total wall-clock seconds ranks spent blocked in receives,
        barriers, and collectives."""
        return _wait_s(self._rows(rank))

    def saved_bytes(self, rank: int | None = None) -> int:
        """Payload bytes halo face sends did not copy a second time."""
        rows = self._rows(rank)
        return int(rows[rows[:, CODE] == _SEND, EXTRA].sum())

    def comm_stats(self) -> dict:
        """Aggregate communication accounting for benchmarks/simulation."""
        rows = self.table()
        codes = rows[:, CODE]
        sends = rows[codes == _SEND]
        syncs = rows[_IS_SYNC[codes]]
        # counted, not sorted: a numpy sort lets go of the GIL, and ranks
        # recording while a query runs then wait behind every other thread
        counts = np.bincount(syncs[:, CODE], minlength=len(KIND_NAMES))
        syncs_by_kind = {KIND_NAMES[code]: count
                         for code, count in enumerate(counts.tolist())
                         if count}
        return {
            "sends": len(sends),
            "bytes_sent": int(sends[:, NBYTES].sum()),
            "saved_bytes": int(sends[:, EXTRA].sum()),
            "wait_s": _wait_s(rows),
            "syncs": len(syncs),
            "syncs_by_kind": syncs_by_kind,
            # per-rank sent+received bytes summed over collective events;
            # every tree hop is counted once at each endpoint
            "collective_bytes": int(syncs[:, NBYTES].sum()),
        }

    def timeline(self):
        """Classified per-rank view (:class:`repro.obs.timeline.Timeline`)."""
        from repro.obs.timeline import Timeline
        return Timeline.from_trace(self)

    def clear(self) -> None:
        self.events.clear()
        self.absorbed.clear()


def _wait_s(rows: np.ndarray) -> float:
    """Seconds blocked over *rows*, summed one event at a time as a sum
    over the decoded events' ``wait_s`` would."""
    waits = rows[rows[:, CODE] != _SEND, EXTRA] / 1e9
    return sum(waits.tolist(), 0.0)
