"""Compilation reports: the quantities Table 1 tabulates.

Besides the synchronization accounting, a report carries the compiler's
observability output: one :class:`~repro.obs.Span` per pre-compiler phase
(lex, parse, dependency analysis, self-dependence, combining, codegen)
and a snapshot of the phase counters, so ``acfd report``/``acfd profile``
can print where compilation time went.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.plan import folds_in_one_round
from repro.obs import Span
from repro.obs.spans import phase_table


@dataclass
class CompilationReport:
    """Synchronization accounting for one compilation."""

    program: str
    partition: tuple[int, ...]
    syncs_before: int
    syncs_after: int
    pairs_active: int
    pipes: int
    combined_points: int
    arrays: list[str] = field(default_factory=list)
    #: DO nests of the generated SPMD program that run as native C
    #: functions / stay on the scalar path, and one ``(unit, line,
    #: reason)`` per scalar nest
    vector_loops: int = 0
    fallback_loops: int = 0
    fallback_reasons: list[tuple[str, int, str]] = field(
        default_factory=list)
    #: always 0 and empty: every exchange the program makes is blocking.
    #: Kept because the benchmark's traced pass reads them
    #: (``codegen.overlap_accepted`` / ``codegen.overlap_refused``)
    overlap_syncs: int = 0
    overlap_refusals: list[tuple[int, str]] = field(default_factory=list)
    #: per combined sync, the ghost-freshness verdicts as dicts with
    #: ``sync_id``, ``entry_only`` (array -> the syncs it is still fresh
    #: from: sent on the first frame only) and ``refusals`` (array -> why
    #: the pass would not look further: sent every frame)
    freshness: list[dict] = field(default_factory=list)
    #: every reduction as a dict with ``var``, ``op``, ``unit`` and
    #: ``sync_id`` (the combined sync it rides, or None: it keeps its own
    #: allreduce)
    reductions: list[dict] = field(default_factory=list)
    #: timed pre-compiler phases (``cat == "compile"`` spans, in order)
    phases: list[Span] = field(default_factory=list)
    #: phase-counter snapshot (loops scanned, syncs before/after, ...)
    metrics: dict = field(default_factory=dict)

    @property
    def reduction_percent(self) -> float:
        if self.syncs_before == 0:
            return 0.0
        return 100.0 * (self.syncs_before - self.syncs_after) \
            / self.syncs_before

    def row(self) -> str:
        """One formatted row in the style of the paper's Table 1."""
        part = "x".join(str(p) for p in self.partition)
        return (f"{self.program:<28s} {part:>9s} "
                f"{self.syncs_before:>6d} {self.syncs_after:>6d} "
                f"{self.reduction_percent:>7.1f} "
                f"{self.vector_loops:>6d} {self.fallback_loops:>6d}")

    @staticmethod
    def header() -> str:
        return (f"{'program':<28s} {'partition':>9s} "
                f"{'before':>6s} {'after':>6s} {'%opt':>7s} "
                f"{'native':>6s} {'scalar':>6s}")

    def nest_summary(self) -> str:
        """``N native nests, M scalar`` — the backend line of ``acfd
        run`` / ``acfd profile``."""
        return (f"{self.vector_loops} native nests, "
                f"{self.fallback_loops} scalar")

    def freshness_lines(self) -> list[str]:
        """``sync 1: v entry-only (fresh from sync 2)`` per decided member."""
        lines = []
        for d in self.freshness:
            for name, via in d["entry_only"].items():
                lines.append(f"sync {d['sync_id']}: {name} entry-only (fresh "
                             f"from sync {', '.join(str(s) for s in via)})")
            for name, reason in d["refusals"].items():
                lines.append(f"sync {d['sync_id']}: {name} sent every "
                             f"frame: {reason}")
        return lines

    def sync_lines(self) -> list[str]:
        """The freshness and the reduction lines: what each combined sync
        carries beyond the Table 1 count."""
        return self.freshness_lines() + self.reduction_lines()

    def reduction_lines(self) -> list[str]:
        """``reduction err (max) rides sync 2`` per reduction."""
        lines = []
        for d in self.reductions:
            head = f"reduction {d['var']} ({d['op']})"
            if d["sync_id"] is None:
                lines.append(f"{head} keeps its allreduce: no sync shares "
                             f"its slots")
            elif folds_in_one_round(self.partition):
                lines.append(f"{head} rides sync {d['sync_id']}")
            else:
                lines.append(f"{head} rides sync {d['sync_id']}, then an "
                             f"allreduce: a cut dimension has more than "
                             f"two ranks")
        return lines

    def phase_table(self) -> str:
        """Per-phase compiler timing table (empty string if unprofiled)."""
        return phase_table(self.phases) if self.phases else ""

    def to_dict(self) -> dict:
        """JSON-serializable form (``acfd report --json``)."""
        return {
            "program": self.program,
            "partition": list(self.partition),
            "syncs_before": self.syncs_before,
            "syncs_after": self.syncs_after,
            "reduction_percent": self.reduction_percent,
            "pairs_active": self.pairs_active,
            "pipes": self.pipes,
            "combined_points": self.combined_points,
            "arrays": list(self.arrays),
            "vector_loops": self.vector_loops,
            "fallback_loops": self.fallback_loops,
            "fallback_reasons": [
                {"unit": unit, "line": line, "reason": reason}
                for unit, line, reason in self.fallback_reasons],
            "freshness": [dict(d) for d in self.freshness],
            "reductions": [dict(d) for d in self.reductions],
            "phases": [{"name": s.name, "dur_s": s.dur, "args": s.args}
                       for s in self.phases],
            "metrics": self.metrics,
        }
