"""Chrome-trace / Perfetto JSON export of merged span tracks.

The produced JSON loads directly in ``ui.perfetto.dev`` (or
``chrome://tracing``): one *process* per track — compiler phases,
runtime ranks, simulated ranks — with ranks as *threads* (``tid``), so
the per-rank timelines stack under one process and the compiler phases
sit above them.  Every duration event is a complete span (``ph: "X"``)
with microsecond ``ts``/``dur``.

The compiler profiler timestamps against a ``time.monotonic()`` epoch
and the runtime trace against a ``time.perf_counter_ns()`` one, so the
exporter reads both clocks once, aligns the tracks on a shared clock by
their epoch difference, and the earliest event lands at ``ts = 0``.
"""

from __future__ import annotations

import json
import time

from repro.obs.spans import Profiler, Span

#: runtime event kinds that envelope other events (drawn as parents)
_RUNTIME_ENVELOPES = {"exchange", "pipeline_recv", "rank"}


def runtime_spans(trace) -> list[Span]:
    """Convert a runtime trace's events into export spans (tid = rank)."""
    out: list[Span] = []
    for e in trace.snapshot():
        if e.t1 < e.t0:
            continue
        name = e.kind
        if e.kind == "exchange" and e.tag is not None:
            name = f"exchange#{e.tag}"
        args: dict = {}
        if e.peer is not None:
            args["peer"] = e.peer
        if e.nbytes:
            args["nbytes"] = e.nbytes
        if e.tag is not None:
            args["tag"] = e.tag
        if e.wait_s:
            args["wait_s"] = round(e.wait_s, 6)
        if e.saved_bytes:
            args["saved_bytes"] = e.saved_bytes
        out.append(Span(name=name, cat=e.kind, t0=e.t0, t1=e.t1,
                        track="runtime", tid=e.rank, args=args))
    return out


def chrome_trace(tracks: list[tuple[str, list[Span], float]]) -> dict:
    """Merge span tracks into a Chrome-trace dict.

    Args:
        tracks: ``(process_name, spans, clock_offset_s)`` triples; the
            offset places each track's private epoch on the shared
            export clock (0.0 when all tracks share one epoch).
    """
    events: list[dict] = []
    shifted: list[tuple[int, str, Span, float]] = []
    for pid0, (name, spans, offset) in enumerate(tracks):
        for s in spans:
            shifted.append((pid0 + 1, name, s, s.t0 + offset))
    base = min((ts for _, _, _, ts in shifted), default=0.0)

    seen_threads: set[tuple[int, int]] = set()
    for pid, pname, s, ts in shifted:
        if (pid, -1) not in seen_threads:
            seen_threads.add((pid, -1))
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": pname}})
        if (pid, s.tid) not in seen_threads:
            seen_threads.add((pid, s.tid))
            tname = (f"rank {s.tid}" if pname != "compiler"
                     else "pre-compiler")
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": s.tid, "args": {"name": tname}})
        events.append({
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            "ts": round((ts - base) * 1e6, 3),
            "dur": round(s.dur * 1e6, 3),
            "pid": pid,
            "tid": s.tid,
            "args": s.args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def build_export(*, compiler: Profiler | None = None, trace=None,
                 sim_spans: list[Span] | None = None) -> dict:
    """Assemble the standard export: compiler + runtime (+ simulated).

    The runtime track is aligned to the compiler's clock via the epoch
    difference, so the exported timeline shows compilation first and
    the ranks after it.
    """
    tracks: list[tuple[str, list[Span], float]] = []
    if compiler is not None:
        tracks.append(("compiler", compiler.spans(), 0.0))
    if trace is not None:
        offset = 0.0
        if compiler is not None:
            # the trace epoch read on the compiler's clock
            skew = time.monotonic() - time.perf_counter()
            offset = trace.epoch_ns / 1e9 + skew - compiler.epoch
        tracks.append(("runtime", runtime_spans(trace), offset))
    if sim_spans:
        # simulated time has its own (virtual) clock; start it at zero
        tracks.append(("simulated", sim_spans, 0.0))
    return chrome_trace(tracks)


def write_chrome_trace(path: str, data: dict) -> str:
    """Write an export dict as JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    return path
