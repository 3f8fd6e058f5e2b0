"""Per-rank runtime timelines and roll-ups from trace span events.

:class:`Timeline` consumes a :class:`repro.runtime.trace.Trace` whose
events carry begin/end timestamps and classifies each rank's wall-clock
into **compute**, **blocked** (waiting in receives), **halo** (pack /
unpack copying), **collective** (barriers, reductions, broadcasts,
gathers/scatters), and **send** (buffered send issue) time.  Compute is
what remains of the rank's execution window after the instrumented
intervals are subtracted — the runtime does not instrument user loops,
so everything uninstrumented is by definition computation.

Roll-ups (:class:`RunRollup`) carry the derived health numbers the paper
argues with: the comm/compute ratio, the load-imbalance factor
(max busy / mean busy across ranks), and the critical-path rank (the
busiest rank — the one everybody else ends up waiting for).  The cluster
simulator emits the same :class:`RunRollup`, so observed and simulated
breakdowns are directly comparable in one report.

Frame boundaries are the ``frame`` events a generated program's
``acfd_frame`` hook records at the top of every trip.  A trace without
them (a hand-written SPMD body) falls back to inference: the first
combined synchronization of a frame recurs once per frame, so
occurrences of the earliest-seen exchange id on the reference rank
delimit frames.  (That no longer holds for generated programs: an
entry-only sync runs on the first trip alone.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: leaf event kinds (mutually non-overlapping per rank) -> category
LEAF_CATS = {
    "recv": "blocked",
    "barrier": "collective",
    "bcast": "collective",
    "reduce": "collective",
    "allreduce": "collective",
    "gather": "collective",
    "scatter": "collective",
    "allgather": "collective",
    "halo_pack": "halo",
    "halo_unpack": "halo",
    "send": "send",
    "pipeline_send": "send",
    # fault-tolerance overhead: injected slowdowns and checkpoint I/O
    # (repro.faults) — "lost" time the profiler must not book as compute
    "fault_straggler": "fault",
    "checkpoint": "fault",
    "restore": "fault",
}

#: envelope kinds that *contain* leaf events (never summed into roll-ups)
ENVELOPE_KINDS = ("exchange", "pipeline_recv", "rank")


@dataclass
class RankBreakdown:
    """One rank's wall-clock, classified."""

    rank: int
    total: float = 0.0
    compute: float = 0.0
    blocked: float = 0.0
    halo: float = 0.0
    collective: float = 0.0
    send: float = 0.0
    #: injected-fault slowdowns + checkpoint/restore overhead (lost time)
    fault: float = 0.0
    #: time halo transfers were in flight *under* interior compute
    #: (nonblocking overlapped exchanges).  Not wall-clock of its own —
    #: the window is compute — so it is excluded from both ``comm`` and
    #: the compute subtraction; it measures how much exchange latency the
    #: split consumer loop hid.
    overlap: float = 0.0

    @property
    def busy(self) -> float:
        """Time this rank was doing work others may wait on."""
        return self.compute + self.halo + self.send

    @property
    def comm(self) -> float:
        return self.blocked + self.halo + self.collective + self.send

    def as_dict(self) -> dict:
        return {"rank": self.rank, "total": self.total,
                "compute": self.compute, "blocked": self.blocked,
                "halo": self.halo, "collective": self.collective,
                "send": self.send, "fault": self.fault,
                "overlap": self.overlap}


@dataclass
class RunRollup:
    """Whole-run (or one-frame) breakdown across all ranks."""

    source: str  # "runtime" | "simulated"
    ranks: list[RankBreakdown] = field(default_factory=list)

    @property
    def compute_time(self) -> float:
        return sum(r.compute for r in self.ranks)

    @property
    def comm_time(self) -> float:
        return sum(r.comm for r in self.ranks)

    @property
    def comm_compute_ratio(self) -> float:
        c = self.compute_time
        return self.comm_time / c if c > 0 else float("inf")

    @property
    def load_imbalance(self) -> float:
        """max busy / mean busy across ranks (1.0 = perfectly balanced)."""
        if not self.ranks:
            return 1.0
        busy = [r.busy for r in self.ranks]
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0

    @property
    def critical_path_rank(self) -> int:
        """The busiest rank — the one the others end up waiting for."""
        if not self.ranks:
            return 0
        return max(self.ranks, key=lambda r: r.busy).rank

    @property
    def hidden_halo_fraction(self) -> float:
        """Fraction of exchange latency hidden under interior compute.

        ``overlap / (overlap + blocked)`` across all ranks: 1.0 means
        every transfer finished before its boundary strip needed it,
        0.0 means every wait was fully exposed (blocking exchanges, or
        interiors too thin to cover the flight time).
        """
        hidden = sum(r.overlap for r in self.ranks)
        exposed = sum(r.blocked for r in self.ranks)
        if hidden + exposed <= 0.0:
            return 0.0
        return hidden / (hidden + exposed)

    def as_dict(self) -> dict:
        return {"source": self.source,
                "ranks": [r.as_dict() for r in self.ranks],
                "comm_compute_ratio": self.comm_compute_ratio,
                "load_imbalance": self.load_imbalance,
                "critical_path_rank": self.critical_path_rank,
                "hidden_halo_fraction": self.hidden_halo_fraction}

    def worst_ranks(self, top: int) -> list[RankBreakdown]:
        """The *top* ranks with the most blocked time (board order)."""
        worst = sorted(self.ranks, key=lambda r: (-r.blocked, r.rank))
        keep = {r.rank for r in worst[:max(top, 0)]}
        return [r for r in self.ranks if r.rank in keep]

    def table(self, top: int | None = None) -> str:
        """Per-rank breakdown table plus the derived health numbers.

        ``top`` caps the table at the N worst ranks by blocked time
        (the ones dragging the run); the summary line still covers all
        ranks.
        """
        shown = self.ranks
        if top is not None and 0 < top < len(self.ranks):
            shown = self.worst_ranks(top)
        # the fault column only appears when some rank lost time to it
        faulty = any(r.fault > 0.0 for r in self.ranks)
        lines = [f"{'rank':>4s} {'total':>9s} {'compute':>9s} "
                 f"{'blocked':>9s} {'halo':>9s} {'collect':>9s} "
                 f"{'send':>9s}" + (f" {'fault':>9s}" if faulty else "")]
        for r in shown:
            lines.append(
                f"{r.rank:>4d} {r.total * 1e3:>6.1f} ms "
                f"{r.compute * 1e3:>6.1f} ms {r.blocked * 1e3:>6.1f} ms "
                f"{r.halo * 1e3:>6.1f} ms {r.collective * 1e3:>6.1f} ms "
                f"{r.send * 1e3:>6.1f} ms"
                + (f" {r.fault * 1e3:>6.1f} ms" if faulty else ""))
        if len(shown) < len(self.ranks):
            lines.append(f"  ... {len(self.ranks) - len(shown)} more "
                         f"ranks elided (top {top} by blocked time)")
        ratio = self.comm_compute_ratio
        ratio_s = f"{ratio:.2f}" if ratio != float("inf") else "inf"
        lines.append(f"comm/compute ratio {ratio_s}, load imbalance "
                     f"{self.load_imbalance:.2f}, critical-path rank "
                     f"{self.critical_path_rank}")
        if any(r.overlap > 0.0 for r in self.ranks):
            lines.append(f"hidden halo fraction "
                         f"{self.hidden_halo_fraction:.2f} "
                         f"(overlapped exchanges)")
        return "\n".join(lines)


def _overlap(t0: float, t1: float, w0: float, w1: float) -> float:
    return max(0.0, min(t1, w1) - max(t0, w0))


class Timeline:
    """Classified per-rank view over one trace's span events."""

    def __init__(self, events: list, size: int) -> None:
        self.events = events
        self.size = size

    @classmethod
    def from_trace(cls, trace) -> "Timeline":
        events = [e for e in trace.snapshot() if e.t1 >= e.t0]
        size = 1 + max((e.rank for e in events), default=-1)
        return cls(events, max(size, 0))

    # -- windows -----------------------------------------------------------------

    def rank_window(self, rank: int) -> tuple[float, float]:
        """This rank's execution window [start, end)."""
        mine = [e for e in self.events if e.rank == rank]
        for e in mine:
            if e.kind == "rank":
                return (e.t0, e.t1)
        if not mine:
            return (0.0, 0.0)
        return (min(e.t0 for e in mine), max(e.t1 for e in mine))

    def span(self) -> tuple[float, float]:
        """The whole run's window across ranks."""
        windows = [self.rank_window(r) for r in range(self.size)]
        windows = [w for w in windows if w[1] > w[0]]
        if not windows:
            return (0.0, 0.0)
        return (min(w[0] for w in windows), max(w[1] for w in windows))

    # -- roll-ups ----------------------------------------------------------------

    def rollup(self, t0: float | None = None, t1: float | None = None,
               source: str = "runtime") -> RunRollup:
        """Breakdown over [t0, t1) (default: the whole run)."""
        ranks = []
        for r in range(self.size):
            w0, w1 = self.rank_window(r)
            if t0 is not None:
                w0 = max(w0, t0)
            if t1 is not None:
                w1 = min(w1, t1)
            b = RankBreakdown(rank=r, total=max(0.0, w1 - w0))
            for e in self.events:
                if e.rank != r:
                    continue
                if e.kind == "overlap":
                    # in-flight window of a nonblocking exchange: the
                    # rank computes its interior during it, so it stays
                    # in compute — book it separately as hidden latency
                    b.overlap += _overlap(e.t0, e.t1, w0, w1)
                    continue
                cat = LEAF_CATS.get(e.kind)
                if cat is None:
                    continue
                part = _overlap(e.t0, e.t1, w0, w1)
                if part > 0.0:
                    setattr(b, cat, getattr(b, cat) + part)
            b.compute = max(0.0, b.total - b.blocked - b.halo
                            - b.collective - b.send - b.fault)
            ranks.append(b)
        return RunRollup(source=source, ranks=ranks)

    # -- frames ------------------------------------------------------------------

    def frames(self, ref_rank: int = 0) -> list[tuple[float, float]]:
        """Frame windows of *ref_rank*, cut at its ``frame`` events.

        Without frame events the combined synchronization with the
        earliest first occurrence stands in for them: it recurs once
        per frame.  With fewer than two cuts the whole run is one frame.
        """
        w0, w1 = self.rank_window(ref_rank)
        cuts = sorted(e.t0 for e in self.events
                      if e.kind == "frame" and e.rank == ref_rank)
        if not cuts:
            marks = sorted((e.t0, e.tag) for e in self.events
                           if e.kind == "exchange" and e.rank == ref_rank)
            if not marks:
                return [(w0, w1)] if w1 > w0 else []
            cuts = [t for t, tag in marks if tag == marks[0][1]]
        if len(cuts) < 2:
            return [(w0, w1)]
        windows = [(w0, cuts[1])]
        for a, b in zip(cuts[1:], cuts[2:]):
            windows.append((a, b))
        windows.append((cuts[-1], w1))
        return windows


def observe_trace_histograms(registry, trace,
                             prefix: str = "runtime") -> None:
    """Feed a runtime trace's leaf-event durations into histograms.

    One histogram per category (``<prefix>.blocked_s``, ``.halo_s``,
    ``.collective_s``, ``.send_s``) so ``acfd profile`` and the
    Prometheus exposition see quantiles of the individual event
    durations, not just the roll-up totals.  Receive
    events additionally feed ``<prefix>.recv_wait_s`` with the blocked
    wall-time the runtime accounted per receive.
    """
    for e in trace.snapshot():
        if e.kind == "overlap":
            if e.t1 >= e.t0:
                registry.histogram(f"{prefix}.overlap_s").observe(
                    e.t1 - e.t0)
            continue
        cat = LEAF_CATS.get(e.kind)
        if cat is None:
            continue
        if e.t1 >= e.t0:
            registry.histogram(f"{prefix}.{cat}_s").observe(e.t1 - e.t0)
        if e.kind == "recv":
            registry.histogram(f"{prefix}.recv_wait_s").observe(e.wait_s)
