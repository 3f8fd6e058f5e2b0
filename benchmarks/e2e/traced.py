"""The traced pass: per-layer numbers for one workload.

A traced solve makes the calls ``AutoCFD.from_source(...).compile(...)
.run_parallel(...)`` makes, one layer boundary at a time, each inside a
span this file owns (name, start, end, parent, solve id).  The program
gets no new span or counter: compiler phase times come from the
``CompilationReport.phases`` that ``compile`` already returns, runtime
shares from the run's own ``comm_stats`` / ``timeline().rollup()``.

Untraced, blocking (``overlap="off"``) and sequential runs alternate
with the traced solves in the same interpreter, so every ratio reported
here has its base measured under the same conditions.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager

from repro import AutoCFD
from repro.fortran.parser import parse_source
from repro.interp.pyback import compile_unit

import probes
import solve as S

#: compiler phase (a ``compile``-category span of the report) -> metric
PHASES = {
    "partitioning": "partition.choose_s",
    "frame-program": "analysis.frame_program_s",
    "dependency-analysis": "analysis.dependency_s",
    "self-dependence": "analysis.selfdep_s",
    "reductions": "analysis.reductions_s",
    "sync-regions": "sync.regions_s",
    "sync-combining": "sync.combine_s",
    "ghost-geometry": "codegen.ghost_geometry_s",
    "codegen-restructure": "codegen.restructure_s",
    "vectorize-survey": "interp.survey_s",
}
#: first and last phase inside ``build_plan``
BUILD_PLAN = ("frame-program", "reductions")


class Tracer:
    """In-memory span list; spans are dicts so they dump as JSON."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.solve = 0
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float | None,
            parent: int | None) -> dict:
        span = {"id": len(self.spans), "name": name, "start": start,
                "end": end, "parent": parent, "solve": self.solve}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        # time.monotonic is the clock the compiler's own phase spans use
        span = self.add(name, time.monotonic(), None,
                        self._open[-1] if self._open else None)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.monotonic()
            self._open.pop()

    def of_solve(self, solve: int) -> list[dict]:
        return [s for s in self.spans if s["solve"] == solve]


def dur(span: dict) -> float:
    return span["end"] - span["start"]


def named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def self_time(span: dict, spans: list[dict]) -> float:
    """A span's duration minus what its child spans cover."""
    return dur(span) - sum(dur(s) for s in spans
                           if s["parent"] == span["id"])


def traced_solve(workload, sources: dict, deck, tracer: Tracer):
    """One solve under spans; returns (Solve, per-layer sample)."""
    tracer.solve += 1
    results, units = [], 0

    def run():
        with tracer.span("codegen.run_parallel"):
            return results[workload.run].run_parallel(
                input_text=deck, executor=workload.executor)

    with tracer.span("solve") as root:
        for prog, part in workload.compiles:
            with tracer.span("fortran.parse"):
                cu = parse_source(sources[prog])
            with tracer.span("core.init"):
                acfd = AutoCFD(cu)
            with tracer.span("core.compile") as comp:
                res = acfd.compile(part, overlap=workload.overlap)
            epoch = acfd.obs.epoch
            for ph in res.report.phases:
                if epoch + ph.t0 >= comp["start"]:  # not core.init's
                    tracer.add(f"phase.{ph.name}", epoch + ph.t0,
                               epoch + ph.t1, comp["id"])
            units += len(cu.units)
            results.append(res)
        if workload.run_timed:
            par = run()
    if not workload.run_timed:
        par = run()
    # off the solve's clock: what run_parallel spends in pyback, and the
    # size of what the compiler emitted
    with tracer.span("interp.compile_unit"):
        compile_unit(results[workload.run].spmd_cu)
    spmd_lines = sum(len(r.parallel_source().splitlines())
                     for r in results)

    spans = tracer.of_solve(tracer.solve)
    total: dict[str, float] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + dur(s)
    run_s = total["codegen.run_parallel"]
    done = S.Solve(dur(root), run_s, results, par)

    reports = [r.report for r in results]
    sample = {
        "e2e_s": dur(root),
        "fortran.parse_s": total["fortran.parse"],
        "fortran.source_lines": sum(len(sources[p].splitlines())
                                    for p, _ in workload.compiles),
        "fortran.units": units,
        "core.init_s": total["core.init"],
        "core.compile_s": total["core.compile"],
        "core.compile_unattributed_s": sum(
            self_time(s, spans) for s in named(spans, "core.compile")),
        "codegen.build_plan_s": sum(
            last["end"] - first["start"] for first, last in zip(
                named(spans, f"phase.{BUILD_PLAN[0]}"),
                named(spans, f"phase.{BUILD_PLAN[1]}"))),
        "analysis.field_loops": sum(
            r.metrics["compile.loops_scanned"] for r in reports),
        "analysis.pairs_active": sum(r.pairs_active for r in reports),
        "sync.syncs_before": sum(r.syncs_before for r in reports),
        "sync.syncs_after": sum(r.syncs_after for r in reports),
        "codegen.pipes": sum(r.pipes for r in reports),
        "codegen.overlap_accepted": sum(r.overlap_syncs for r in reports),
        "codegen.overlap_refused": sum(len(r.overlap_refusals)
                                       for r in reports),
        "codegen.units_emitted": sum(len(r.spmd_cu.units)
                                     for r in results),
        "codegen.spmd_lines": spmd_lines,
        "codegen.run_parallel_s": run_s,
        "interp.compile_unit_s": total["interp.compile_unit"],
        "interp.vector_loops": sum(r.vector_loops for r in reports),
        "interp.fallback_loops": sum(r.fallback_loops for r in reports),
    }
    for phase, metric in PHASES.items():
        sample[metric] = total.get(f"phase.{phase}", 0.0)
    sample.update(runtime_sample(par, run_s))
    return done, sample


def runtime_sample(par, run_parallel_s: float) -> dict:
    """What the run itself recorded, read off its ParallelResult."""
    stats = par.comm_stats
    timeline = par.timeline()
    roll = timeline.rollup()
    crit = roll.ranks[roll.critical_path_rank]
    window = max(w1 - w0 for w0, w1 in
                 (timeline.rank_window(r) for r in range(timeline.size)))
    frames = len(timeline.frames())
    kinds = stats["syncs_by_kind"]
    return {
        # launcher-side time: pickling or (thread executor) the pyback
        # compile that interp.compile_unit_s re-times, launch, stitch
        "codegen.launch_stitch_s": run_parallel_s - window,
        "runtime.compute_s": crit.compute,
        "runtime.halo_s": crit.halo,
        "runtime.blocked_s": crit.blocked,
        "runtime.collective_s": crit.collective,
        # a share, not seconds: blocking workloads have none to time
        "runtime.overlap_share": crit.overlap / crit.total,
        "runtime.wait_s": stats["wait_s"],
        "runtime.comm_compute_ratio": roll.comm_compute_ratio,
        "runtime.load_imbalance": roll.load_imbalance,
        "runtime.hidden_halo_fraction": roll.hidden_halo_fraction,
        "runtime.sends": stats["sends"],
        "runtime.bytes_sent": stats["bytes_sent"],
        "runtime.saved_bytes": stats["saved_bytes"],
        "runtime.exchanges": kinds.get("exchange", 0),
        "runtime.allreduces": kinds.get("allreduce", 0),
        "runtime.bcasts": kinds.get("bcast", 0),
        "runtime.collective_bytes": stats["collective_bytes"],
        "runtime.frames": frames,
        "runtime.msgs_per_frame": stats["sends"] / frames,
        "runtime.bytes_per_frame": stats["bytes_sent"] / frames,
    }


def run(workload, spec: dict) -> dict:
    quick = spec["quick"]
    metrics = probes.run(workload)  # first: it times the pool spawn

    sources = S.sources_for(workload, quick)
    prog = workload.program
    deck = prog.deck(spec["seed"])
    sequential = AutoCFD.from_source(sources[prog])
    tracer = Tracer()
    layer_samples: list[dict] = []

    def check(done):
        return S.verify(done, spec["oracle"], spec["sync_pairs"])

    def traced_op():
        done, sample = traced_solve(workload, sources, deck, tracer)
        layer_samples.append(sample)
        return done

    ops = {"traced": traced_op,
           "untraced": lambda: S.solve(workload, sources, deck),
           "blocking": lambda: S.solve(workload, sources, deck,
                                       overlap="off")}
    gated = S.measure(ops["untraced"], check, count=1)  # warm-up
    timed: dict[str, list] = {kind: [] for kind in ops}
    seq_s = []
    deadline = time.perf_counter() + spec["seconds"]
    rounds, min_rounds = 0, 1 if quick else 5
    while rounds < min_rounds or (
            not quick and time.perf_counter() < deadline):
        for kind, op in ops.items():
            timed[kind] += S.measure(op, check, count=1)
            gated.append(timed[kind][-1])
        gc.collect()
        t0 = time.perf_counter()
        sequential.run_sequential(input_text=deck)
        seq_s.append(time.perf_counter() - t0)
        rounds += 1

    def med(kind: str, key: str) -> float:
        return statistics.median(s[key] for s in timed[kind] if key in s)

    for name in layer_samples[0]:
        if name != "e2e_s":
            metrics[name] = statistics.median(s[name]
                                              for s in layer_samples)
    run_s = med("untraced", "run_s")
    seq = statistics.median(seq_s)
    metrics.update({
        "app.run_s": run_s,
        "app.seq_run_s": seq,
        "app.speedup_vs_seq": seq / run_s,
        "app.updates_per_s": prog.updates(quick) / run_s,
        "interp.seq_frame_ms": seq / prog.frames_run(quick) * 1e3,
        "codegen.blocking_run_s": med("blocking", "run_s"),
        "codegen.overlap_gain": med("blocking", "run_s") / run_s,
        "bench.trace_overhead":
            med("traced", "e2e_s") / med("untraced", "e2e_s"),
        # per-layer times are as measured; this says under what host
        "bench.host_slowdown": statistics.median(
            s["host_slowdown"] for s in gated),
    })
    return {"metrics": metrics, "gated": gated, "spans": tracer.spans,
            "rounds": rounds}
