"""Event tracing for the message-passing runtime.

Every send, receive, barrier, collective, and halo exchange is recorded
with its payload size, the wall-clock time the rank spent blocked waiting
for it (``wait_s``), the bytes the zero-copy fast path avoided
duplicating (``saved_bytes``), and — since the observability overhaul —
begin/end timestamps (``t0``/``t1``, seconds since the trace ``epoch``),
which turn the event log into per-rank *spans*.  The test suite uses
traces to assert that the number of synchronizations the *runtime
actually performs* per frame equals the number the *pre-compiler
predicted* after optimization (Table 1's "after" column); the benchmark
harness feeds traces — including the wait-time and copy-savings
accounting — to the cluster simulator, and
:class:`repro.obs.timeline.Timeline` rolls the spans up into per-rank
compute / blocked / halo / collective breakdowns.

The collector takes no lock: every mutation of the log is a single list
operation (``append``, ``extend``, ``clear``) and every query starts from
one ``list(events)`` copy, each atomic under the GIL, so queries are safe
to call while ranks are still recording.  A trace constructed with
``enabled=False`` drops all records — the baseline for the
instrumentation-overhead guard in ``benchmarks/test_micro_runtime.py``.

Recording discipline: the latency-critical point-to-point path appends
*raw 7-tuples* straight onto ``events`` — a short tuple of ints costs a
fraction of any class construction — while everything else records
:class:`TraceEvent` objects via :meth:`Trace.record`.  Raw entries carry
one absolute ``time.perf_counter_ns()`` stamp (the cheapest clock read
CPython offers) and are shaped ``(rank, kind, peer, nbytes, tag,
extra, t_ns)`` where ``extra`` is ``saved_bytes`` for sends and
``wait_s`` for receives.  :meth:`Trace.snapshot` normalizes both forms
into epoch-relative ``TraceEvent``s, so queries never see a raw entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

#: every event kind that is a synchronization in the Table-1 sense:
#: the rank cannot proceed until (some) other ranks participate.
SYNC_KINDS = ("exchange", "barrier", "allreduce", "reduce", "bcast",
              "gather", "scatter", "allgather")


@dataclass(slots=True)
class TraceEvent:
    """One runtime communication event."""

    rank: int
    kind: str  # send | recv | bcast | reduce | allreduce | barrier |
    #            gather | scatter | allgather | exchange | halo_pack |
    #            halo_unpack | pipeline_recv | pipeline_send | rank
    peer: int | None
    nbytes: int
    tag: int | None = None
    #: seconds this rank spent blocked before the event completed
    wait_s: float = 0.0
    #: payload bytes the zero-copy (move) path did not duplicate
    saved_bytes: int = 0
    #: begin/end timestamps (seconds since the trace epoch); events
    #: recorded without timing carry t0 == t1 == 0.0
    t0: float = 0.0
    t1: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class EpochProbe:
    """One process's trace-clock sample, for the cross-process handshake.

    ``time.monotonic()`` and ``time.perf_counter_ns()`` are only
    guaranteed comparable *within* a process: a worker's trace epoch is
    meaningless on the caller's clock.  At attach time the worker sends
    an :meth:`EpochProbe.sample` of its trace; the receiver stamps its
    own clock at receipt and :func:`epoch_shift` solves for the offset
    that lands the worker's epoch-relative timestamps on the receiver's
    epoch.  The estimate is biased late by the one-way transit of the
    probe message (microseconds on a local pipe) — events merged from a
    worker can therefore never land *before* the moment the caller knew
    the worker existed, keeping merged spans non-negative.
    """

    #: the sampled trace's ``epoch`` (its local ``time.monotonic()``)
    epoch: float
    #: the sampled trace's ``epoch_ns`` (its local ``perf_counter_ns``)
    epoch_ns: int
    #: local ``time.monotonic()`` at the instant the probe was taken
    sampled_at: float

    @classmethod
    def sample(cls, trace: "Trace") -> "EpochProbe":
        return cls(trace.epoch, trace.epoch_ns, time.monotonic())


def epoch_shift(probe: EpochProbe, received_at: float,
                target: "Trace") -> float:
    """Seconds to add to *probe*-relative timestamps to rebase onto
    *target*'s epoch.

    Args:
        probe: the remote trace's clock sample.
        received_at: ``time.monotonic()`` on the *target*'s clock when
            the probe arrived (the two clock readings bracket the same
            instant, so their difference is the inter-process offset
            plus transit).
    """
    skew = received_at - probe.sampled_at
    return (probe.epoch + skew) - target.epoch


@dataclass
class Trace:
    """Event collector shared by all ranks of a world (safe to record
    into and query from several threads, see the module docstring)."""

    #: the raw log: TraceEvent objects (epoch-relative timestamps) mixed
    #: with hot-path 7-tuples (absolute timestamps) — read via snapshot()
    events: list = field(default_factory=list)
    #: monotonic base all event timestamps are relative to
    epoch: float = field(default_factory=time.monotonic)
    #: perf_counter_ns() captured at the same instant as ``epoch``; the
    #: base hot-path raw stamps are rebased against
    epoch_ns: int = field(default_factory=time.perf_counter_ns)
    #: False drops all records (overhead-measurement baseline)
    enabled: bool = True

    def now(self) -> float:
        """Seconds since this trace's epoch."""
        return time.monotonic() - self.epoch

    def record(self, event: TraceEvent) -> None:
        if self.enabled:
            self.events.append(event)

    def absorb(self, events: list[TraceEvent], shift: float = 0.0) -> None:
        """Bulk-append *normalized* events recorded on another trace,
        rebasing their timestamps by *shift* seconds (see
        :func:`epoch_shift`).  Events recorded without timing (the
        ``t0 == t1 == 0.0`` sentinel) keep their zeros — shifting a
        sentinel would fabricate a timestamp.  Raw hot-path tuples are
        not accepted; callers normalize with :meth:`snapshot` first.
        """
        if not self.enabled:
            return
        shifted = [e if (e.t0 == 0.0 and e.t1 == 0.0)
                   else replace(e, t0=e.t0 + shift, t1=e.t1 + shift)
                   for e in events]
        self.events.extend(shifted)

    # -- queries ---------------------------------------------------------------

    def snapshot(self) -> list[TraceEvent]:
        """Consistent, normalized copy of the event list (safe while
        recording): hot-path raw tuples materialize as TraceEvents with
        their absolute stamps rebased onto the epoch."""
        items = list(self.events)
        epoch_ns = self.epoch_ns
        out = []
        for e in items:
            if type(e) is TraceEvent:
                out.append(e)
            elif e[1] == "send":
                t = (e[6] - epoch_ns) * 1e-9
                out.append(TraceEvent(e[0], "send", e[2], e[3], e[4],
                                      0.0, e[5], t, t))
            else:  # recv: extra slot is wait_s, stamp is completion
                t1 = (e[6] - epoch_ns) * 1e-9
                out.append(TraceEvent(e[0], "recv", e[2], e[3], e[4],
                                      e[5], 0, t1 - e[5], t1))
        return out

    # kept for in-tree callers predating the public name
    _snapshot = snapshot

    def count(self, kind: str, rank: int | None = None) -> int:
        """Number of events of *kind* (optionally for one rank)."""
        return sum(1 for e in self.snapshot()
                   if e.kind == kind and (rank is None or e.rank == rank))

    def bytes_sent(self, rank: int | None = None) -> int:
        """Total payload bytes sent (point-to-point sends only)."""
        return sum(e.nbytes for e in self.snapshot()
                   if e.kind in ("send", "pipeline_send")
                   and (rank is None or e.rank == rank))

    def sync_count(self, rank: int | None = None) -> int:
        """Synchronization operations: exchanges, barriers, collectives
        (including gathers, scatters, and allgathers)."""
        return sum(1 for e in self.snapshot()
                   if e.kind in SYNC_KINDS
                   and (rank is None or e.rank == rank))

    def messages(self, rank: int | None = None) -> list[TraceEvent]:
        return [e for e in self.snapshot()
                if e.kind in ("send", "pipeline_send")
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
        sends = [e for e in events if e.kind in ("send", "pipeline_send")]
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
