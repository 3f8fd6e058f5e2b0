"""Compilation reports: the quantities Table 1 tabulates.

Besides the synchronization accounting, a report carries the compiler's
observability output: one :class:`~repro.obs.Span` per pre-compiler phase
(lex, parse, dependency analysis, self-dependence, combining, codegen)
and a snapshot of the phase counters, so ``acfd report``/``acfd profile``
can print where compilation time went.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.vecsafety import MODES
from repro.obs import Span


@dataclass
class CompilationReport:
    """Synchronization accounting for one compilation."""

    program: str
    partition: tuple[int, ...]
    syncs_before: int
    syncs_after: int
    pairs_total: int
    pairs_active: int
    pipes: int
    combined_points: int
    arrays: list[str] = field(default_factory=list)
    #: DO nests of the generated SPMD program the numpy backend executes
    #: as whole-array slice statements / keeps in scalar order
    vector_loops: int = 0
    fallback_loops: int = 0
    #: ``vector_loops`` split by schedule (slice / carried-outer / fronts)
    #: and one ``(unit, line, reason)`` per fallback
    vector_modes: dict[str, int] = field(default_factory=dict)
    fallback_reasons: list[tuple[str, int, str]] = field(
        default_factory=list)
    #: combined syncs restructured to nonblocking interior/boundary
    #: overlap, and the per-sync refusal reasons for the rest
    overlap_syncs: int = 0
    overlap_refusals: list[tuple[int, str]] = field(default_factory=list)
    #: full per-sync verdict (accepted and refused), as dicts with
    #: ``sync_id``/``enabled``/``reason``/``callee`` — ``callee`` names
    #: the subroutine when the verdict crossed a call boundary
    overlap_decisions: list[dict] = field(default_factory=list)
    #: per combined sync, the ghost-freshness verdicts as dicts with
    #: ``sync_id``, ``entry_only`` (array -> the syncs it is still fresh
    #: from: sent on the first frame only) and ``refusals`` (array -> why
    #: the pass would not look further: sent every frame)
    freshness: list[dict] = field(default_factory=list)
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
        modes = "/".join(str(self.vector_modes.get(m, 0)) for m in MODES)
        return (f"{self.program:<28s} {part:>9s} "
                f"{self.syncs_before:>6d} {self.syncs_after:>6d} "
                f"{self.reduction_percent:>7.1f} "
                f"{self.vector_loops:>5d} {modes:>8s} "
                f"{self.fallback_loops:>6d} "
                f"{self.overlap_syncs:>4d}")

    @staticmethod
    def header() -> str:
        return (f"{'program':<28s} {'partition':>9s} "
                f"{'before':>6s} {'after':>6s} {'%opt':>7s} "
                f"{'vec':>5s} {'sl/co/fr':>8s} {'scalar':>6s} "
                f"{'ovl':>4s}")

    def vector_summary(self) -> str:
        """``N vectorized (a slice, b carried-outer, c fronts), M scalar
        fallbacks`` — the backend line of ``acfd run`` / ``acfd profile``."""
        modes = ", ".join(f"{self.vector_modes.get(m, 0)} {m}"
                          for m in MODES)
        return (f"{self.vector_loops} vectorized ({modes}), "
                f"{self.fallback_loops} scalar fallbacks")

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

    def phase_table(self) -> str:
        """Per-phase compiler timing table (empty string if unprofiled)."""
        if not self.phases:
            return ""
        total = sum(s.dur for s in self.phases) or 1.0
        lines = [f"{'phase':<24s} {'time':>10s} {'share':>6s}  detail"]
        for s in self.phases:
            detail = " ".join(f"{k}={v}" for k, v in s.args.items())
            lines.append(f"{s.name:<24s} {s.dur * 1e3:>7.2f} ms "
                         f"{100 * s.dur / total:>5.1f}%  {detail}")
        lines.append(f"{'total':<24s} {total * 1e3:>7.2f} ms")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form (``acfd report --json``)."""
        return {
            "program": self.program,
            "partition": list(self.partition),
            "syncs_before": self.syncs_before,
            "syncs_after": self.syncs_after,
            "reduction_percent": self.reduction_percent,
            "pairs_total": self.pairs_total,
            "pairs_active": self.pairs_active,
            "pipes": self.pipes,
            "combined_points": self.combined_points,
            "arrays": list(self.arrays),
            "vector_loops": self.vector_loops,
            "fallback_loops": self.fallback_loops,
            "vector_modes": dict(self.vector_modes),
            "fallback_reasons": [
                {"unit": unit, "line": line, "reason": reason}
                for unit, line, reason in self.fallback_reasons],
            "overlap_syncs": self.overlap_syncs,
            "overlap_refusals": [
                {"sync_id": sid, "reason": reason}
                for sid, reason in self.overlap_refusals],
            "overlap_decisions": [dict(d) for d in self.overlap_decisions],
            "freshness": [dict(d) for d in self.freshness],
            "phases": [{"name": s.name, "dur_s": s.dur, "args": s.args}
                       for s in self.phases],
            "metrics": self.metrics,
        }
