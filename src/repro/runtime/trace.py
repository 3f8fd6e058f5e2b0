"""Event tracing for the message-passing runtime.

Every send, receive, barrier, collective, halo copy, exchange, pipeline
transfer, frame mark, checkpoint and injected fault is one *record*: the
flat tuple ``(rank, kind, peer, nbytes, tag, extra, t0_ns, t1_ns)``.
``extra`` is the payload bytes the zero-copy fast path avoided
duplicating for a ``send`` and the nanoseconds the rank spent blocked
for every other kind; both stamps are ``time.perf_counter_ns()``
readings of the recording process (the cheapest clock CPython offers,
and the only one an event is ever stamped with).  The test suite uses
traces to assert that the number of synchronizations the *runtime
actually performs* per frame equals the number the *pre-compiler
predicted* after optimization (Table 1's "after" column); the benchmark
harness feeds traces — including the wait-time and copy-savings
accounting — to the cluster simulator, and
:class:`repro.obs.timeline.Timeline` rolls the spans up into per-rank
compute / blocked / halo / collective breakdowns.

Recording discipline: :meth:`Trace.writer` hands each rank one function
``write(kind, peer, nbytes, tag, extra, t0_ns, t1_ns)`` and nothing else
in the package records an event.  One call appends the record to the
trace log and, when the world carries live telemetry
(:class:`repro.obs.health.RankTelemetry`), stores the same fields in
that rank's crash-surviving flight-ring row and keeps the health board's
traffic counters, frame and checkpoint cells current — so the log and
the ring hold the same events and differ only in how many they keep.
A world that records nothing (``Trace(enabled=False)`` and no
telemetry) gets no writer at all: call sites test ``comm.record`` for
``None`` and skip their clock reads.

The collector takes no lock: every mutation of the log is a single list
operation (``append``, ``extend``, ``clear``) and every query starts from
one ``list(events)`` copy, each atomic under the GIL, so queries are safe
to call while ranks are still recording.  :class:`TraceEvent` is the
reader-side view: :meth:`Trace.snapshot` (and the flight ring's
``tail``) decode records into events whose ``t0``/``t1`` are seconds
since the trace ``epoch_ns``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: every event kind that is a synchronization in the Table-1 sense:
#: the rank cannot proceed until (some) other ranks participate.
SYNC_KINDS = ("exchange", "barrier", "allreduce", "reduce", "bcast",
              "gather", "scatter", "allgather")

#: every kind the runtime writes, indexed by its flight-ring code
#: (0 marks an empty ring slot)
KIND_NAMES = (
    "", "send", "recv", "barrier", "bcast", "reduce", "allreduce",
    "gather", "allgather", "scatter", "exchange", "halo_pack",
    "halo_unpack", "pipeline_send", "pipeline_recv", "frame",
    "checkpoint", "restore", "fault_crash", "fault_straggler",
    "fault_drop", "fault_delay", "fault_dup", "overlap", "rank",
)
KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}


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
    #: payload bytes the zero-copy (move) path did not duplicate
    saved_bytes: int = 0
    #: begin/end timestamps (seconds since the trace epoch)
    t0: float = 0.0
    t1: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def decode(record: tuple, epoch_ns: int, shift_s: float = 0.0) -> TraceEvent:
    """The :class:`TraceEvent` for one record, its stamps as seconds
    since *epoch_ns* plus *shift_s*."""
    rank, kind, peer, nbytes, tag, extra, t0_ns, t1_ns = record
    wait_s, saved = (0.0, extra) if kind == "send" else (extra / 1e9, 0)
    return TraceEvent(rank, kind, peer, nbytes, tag, wait_s, saved,
                      (t0_ns - epoch_ns) / 1e9 + shift_s,
                      (t1_ns - epoch_ns) / 1e9 + shift_s)


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

    #: the log: one record tuple per event, stamps absolute on this
    #: process's clock — read via snapshot()
    events: list = field(default_factory=list)
    #: ``perf_counter_ns()`` base all decoded timestamps are relative to
    epoch_ns: int = field(default_factory=time.perf_counter_ns)
    #: False drops all records (overhead-measurement baseline)
    enabled: bool = True

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
        log = self.events.append if self.enabled else None
        if telemetry is None:
            if log is None:
                return None

            def write(kind, peer, nbytes, tag, extra, t0_ns, t1_ns):
                log((rank, kind, peer, nbytes, tag, extra, t0_ns, t1_ns))
            return write

        from repro.obs.health import (_BEAT, _CKPT, _FRAME, _RECV_B,
                                      _RECV_N, _SENT_B, _SENT_N, _T_NS)
        ring, hdr, row = telemetry.ring, telemetry.hdr, telemetry.row
        slots = len(ring)

        def write(kind, peer, nbytes, tag, extra, t0_ns, t1_ns):
            if log is not None:
                log((rank, kind, peer, nbytes, tag, extra, t0_ns, t1_ns))
            cursor = int(hdr[0])
            ring[cursor % slots] = (
                KIND_CODES[kind], -1 if peer is None else peer, nbytes,
                -1 if tag is None else tag, extra, t0_ns, t1_ns)
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

    def absorb(self, events: list[tuple], epoch_ns: int,
               shift: float = 0.0) -> None:
        """Bulk-append the log of another trace whose epoch is
        *epoch_ns*, rebasing its stamps so they decode *shift* seconds
        (see :func:`epoch_shift`) later against this trace's epoch than
        they did against their own."""
        if not self.enabled:
            return
        delta = self.epoch_ns - epoch_ns + round(shift * 1e9)
        self.events.extend([e[:6] + (e[6] + delta, e[7] + delta)
                            for e in events])

    # -- queries ---------------------------------------------------------------

    def snapshot(self) -> list[TraceEvent]:
        """Consistent decoded copy of the log (safe while recording)."""
        epoch_ns = self.epoch_ns
        return [decode(e, epoch_ns) for e in list(self.events)]

    def count(self, kind: str, rank: int | None = None) -> int:
        """Number of events of *kind* (optionally for one rank)."""
        return sum(1 for e in self.snapshot()
                   if e.kind == kind and (rank is None or e.rank == rank))

    def bytes_sent(self, rank: int | None = None) -> int:
        """Total payload bytes sent (point-to-point sends only)."""
        return sum(e.nbytes for e in self.snapshot()
                   if e.kind == "send"
                   and (rank is None or e.rank == rank))

    def sync_count(self, rank: int | None = None) -> int:
        """Synchronization operations: exchanges, barriers, collectives
        (including gathers, scatters, and allgathers)."""
        return sum(1 for e in self.snapshot()
                   if e.kind in SYNC_KINDS
                   and (rank is None or e.rank == rank))

    def messages(self, rank: int | None = None) -> list[TraceEvent]:
        return [e for e in self.snapshot()
                if e.kind == "send"
                and (rank is None or e.rank == rank)]

    def wait_time(self, rank: int | None = None) -> float:
        """Total wall-clock seconds ranks spent blocked in receives,
        barriers, and collectives."""
        return sum(e.wait_s for e in self.snapshot()
                   if rank is None or e.rank == rank)

    def saved_bytes(self, rank: int | None = None) -> int:
        """Payload bytes the zero-copy send path avoided duplicating."""
        return sum(e.saved_bytes for e in self.snapshot()
                   if rank is None or e.rank == rank)

    def comm_stats(self) -> dict:
        """Aggregate communication accounting for benchmarks/simulation."""
        events = self.snapshot()
        sends = [e for e in events if e.kind == "send"]
        syncs_by_kind: dict[str, int] = {}
        for e in events:
            if e.kind in SYNC_KINDS:
                syncs_by_kind[e.kind] = syncs_by_kind.get(e.kind, 0) + 1
        return {
            "sends": len(sends),
            "bytes_sent": sum(e.nbytes for e in sends),
            "saved_bytes": sum(e.saved_bytes for e in events),
            "wait_s": sum(e.wait_s for e in events),
            "syncs": sum(syncs_by_kind.values()),
            "syncs_by_kind": syncs_by_kind,
            # per-rank sent+received bytes summed over collective events;
            # every tree hop is counted once at each endpoint
            "collective_bytes": sum(e.nbytes for e in events
                                    if e.kind in SYNC_KINDS),
        }

    def timeline(self):
        """Classified per-rank view (:class:`repro.obs.timeline.Timeline`)."""
        from repro.obs.timeline import Timeline
        return Timeline.from_trace(self)

    def clear(self) -> None:
        self.events.clear()
