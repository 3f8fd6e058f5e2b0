"""Timed spans and the active-profiler plumbing.

A :class:`Span` is one named, timed interval with free-form ``args``
(phase counters).  A :class:`Profiler` collects spans thread-safely and
owns a :class:`~repro.obs.metrics.MetricsRegistry`.

Instrumented code does not take a profiler parameter; it opens spans on
whatever profiler is *active* in the current context::

    with obs.span("dependency-analysis", cat="compile") as sp:
        pairs = build_sldp(frame)
        sp.args["pairs"] = len(pairs)

When no profiler is active (the common case for library users who never
asked for profiling) the span is a throwaway object and the overhead is
one context-variable read.  Activation uses :mod:`contextvars`, so rank
threads launched by the runtime never inherit the compiler's profiler.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


@dataclass
class Span:
    """One timed interval; ``t0``/``t1`` are seconds since profiler epoch."""

    name: str
    cat: str = "phase"
    t0: float = 0.0
    t1: float = 0.0
    #: process-level grouping for export ("compiler", "runtime", "sim")
    track: str = "compiler"
    #: thread-level grouping for export (rank id on runtime/sim tracks)
    tid: int = 0
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Profiler:
    """Thread-safe span collector with an attached metrics registry."""

    def __init__(self, name: str = "acfd") -> None:
        self.name = name
        self.epoch = time.monotonic()
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def now(self) -> float:
        """Seconds since this profiler's epoch."""
        return time.monotonic() - self.epoch

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> list[Span]:
        """Snapshot of recorded spans (safe while recording continues)."""
        with self._lock:
            return list(self._spans)

    @contextmanager
    def span(self, name: str, cat: str = "phase", track: str = "compiler",
             tid: int = 0, **args):
        sp = Span(name, cat, self.now(), 0.0, track, tid, dict(args))
        try:
            yield sp
        finally:
            sp.t1 = self.now()
            self.add(sp)

    def total(self, cat: str | None = None) -> float:
        return sum(s.dur for s in self.spans()
                   if cat is None or s.cat == cat)


def phase_table(spans: list[Span]) -> str:
    """Per-phase timing table: one row per span with its share of the
    total and its args, then the total."""
    total = sum(s.dur for s in spans) or 1.0
    lines = [f"{'phase':<24s} {'time':>10s} {'share':>6s}  detail"]
    for s in spans:
        detail = " ".join(f"{k}={v}" for k, v in s.args.items())
        lines.append(f"{s.name:<24s} {s.dur * 1e3:>7.2f} ms "
                     f"{100 * s.dur / total:>5.1f}%  {detail}")
    lines.append(f"{'total':<24s} {total * 1e3:>7.2f} ms")
    return "\n".join(lines)


_ACTIVE: contextvars.ContextVar[Profiler | None] = \
    contextvars.ContextVar("acfd_active_profiler", default=None)


def current() -> Profiler | None:
    """The profiler active in this context, if any."""
    return _ACTIVE.get()


@contextmanager
def activate(profiler: Profiler):
    """Make *profiler* the active one for the duration of the block."""
    token = _ACTIVE.set(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name: str, cat: str = "phase", **args):
    """Open a span on the active profiler; a cheap no-op without one."""
    profiler = _ACTIVE.get()
    if profiler is None:
        yield Span(name, cat)  # discarded
        return
    with profiler.span(name, cat=cat, **args) as sp:
        yield sp


#: shared sinks for instrument writes when no profiler is active
_NULL_COUNTER = Counter("null")
_NULL_HISTOGRAM = Histogram("null")


def counter(name: str) -> Counter:
    """Named counter on the active profiler's registry (or a null sink)."""
    profiler = _ACTIVE.get()
    if profiler is None:
        return _NULL_COUNTER
    return profiler.metrics.counter(name)


def histogram(name: str) -> Histogram:
    """Named histogram on the active profiler's registry (or a null sink)."""
    profiler = _ACTIVE.get()
    if profiler is None:
        return _NULL_HISTOGRAM
    return profiler.metrics.histogram(name)
