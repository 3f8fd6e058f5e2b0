"""Command-line interface: the pre-compiler as a tool.

Usage (also via ``python -m repro``)::

    acfd compile flow.f90 --partition 2x2          # generated SPMD source
    acfd compile flow.f90 --processors 4 --mpi     # Fortran + MPI runtime
    acfd report flow.f90 --partition 4x1 --partition 1x4
    acfd run flow.f90 --partition 2x2 --input deck.txt
    acfd simulate flow.f90 --partition 2x2 --frames 1000
    acfd profile flow.f90 --partition 2x2 --trace-out flow.trace.json

* ``compile`` writes the parallel program; ``report`` prints the
  Table-1 style synchronization accounting.
* ``run`` executes the sequential and the parallel version and compares
  the status arrays bitwise.  ``--live`` shows a per-rank health table
  meanwhile, ``top`` attaches to it from another terminal, ``postmortem``
  re-renders the document a world writes when it dies.
* ``simulate`` replays the compiled program on the cluster model.
* ``profile`` reports on one plan: compiler phase timings, the per-rank
  breakdown of a real run, the simulator's breakdown of the same schedule
  on a host-like machine model, the drift between the two (shares of
  rank time per category, bytes sent per rank), a Chrome-trace JSON.
* ``chaos`` runs an app under seeded faults with checkpoint/restart
  recovery and compares the final grids with the fault-free run's.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from repro.core import AutoCFD
from repro.core.report import CompilationReport
from repro.errors import ReproError
from repro.interp.values import OffsetArray
from repro.obs import (
    activate,
    build_export,
    observe_trace_histograms,
    write_chrome_trace,
)
from repro.simulate import ClusterSim
from repro.simulate.drift import HOST_MACHINE, HOST_NETWORK, drift_report


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad partition {text!r}: expected e.g. 2x2 or 4x1x1")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad partition {text!r}")
    return dims


def _load(path: str) -> AutoCFD:
    if path == "-":
        return AutoCFD.from_source(sys.stdin.read(), filename="<stdin>")
    return AutoCFD.from_file(path)


def _read_input(args) -> str | None:
    """--input: the list-directed deck's text, None without the flag."""
    if not args.input:
        return None
    with open(args.input, "r", encoding="utf-8") as fh:
        return fh.read()


def _compile_args(acfd: AutoCFD, args, overlap: str = "auto") -> list:
    results = []
    partitions = args.partition or []
    if args.processors is not None:
        results.append(acfd.compile(processors=args.processors,
                                    overlap=overlap))
    for dims in partitions:
        results.append(acfd.compile(partition=dims, overlap=overlap))
    if not results:
        results.append(acfd.compile(overlap=overlap))
    return results


def cmd_compile(args) -> int:
    acfd = _load(args.source)
    result = _compile_args(acfd, args)[0]
    text = result.mpi_source() if args.mpi else result.parallel_source()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} "
              f"({result.plan.syncs_after} synchronization points, "
              f"{len(result.plan.pipes)} pipelined loops)")
    else:
        print(text)
    # beside the program text, not in it
    for line in result.report.sync_lines():
        print(line, file=sys.stdout if args.output else sys.stderr)
    return 0


def cmd_report(args) -> int:
    acfd = _load(args.source)
    results = _compile_args(acfd, args, args.overlap)
    if args.json:
        print(json.dumps([r.report.to_dict() for r in results], indent=1))
        return 0
    print(CompilationReport.header())
    for result in results:
        print(result.report.row())
    for result in results:
        part = "x".join(str(p) for p in result.plan.partition.dims)
        for dec in result.report.overlap_decisions:
            if dec["enabled"] and dec["callee"]:
                print(f"  {result.report.program} {part} "
                      f"sync {dec['sync_id']} split across "
                      f"call to {dec['callee']!r}")
        for sid, reason in result.report.overlap_refusals:
            print(f"  {result.report.program} {part} sync {sid} "
                  f"stays blocking: {reason}")
        for line in result.report.sync_lines():
            print(f"  {result.report.program} {part} {line}")
        for unit, line, reason in result.report.fallback_reasons:
            print(f"  {result.report.program} {part} loop at {unit}:{line} "
                  f"stays scalar: {reason}")
    return 0


def _backend_line(native: bool, report, par) -> str:
    """How the nests ran: native and scalar nests, the regions (runs of
    adjacent native nests, one C call each) with the nests fused into an
    earlier one, and, after the run, how many regions the ranks executed
    and how many argument tuples that took: binds well above regions
    means some region meets new arrays every time.  It ends with whether
    the run translated the program or reused one the process had kept."""
    how = "translated" if par.translations else "translation reused"
    if not native:
        return f"backend: scalar (every nest in the scalar translation; {how})"
    return (f"backend: native ({report.nest_summary()}; {par.regions} "
            f"regions ({par.fused} fused pairs); on "
            f"{len(par.region_counts)} ranks {par.regions_run} regions "
            f"ran, {par.binds} binds; {how})")


def _histogram_table(snapshot: dict) -> str:
    """Quantile table over every histogram in a metrics snapshot."""
    lines = [f"{'histogram':<24s} {'count':>6s} {'p50':>10s} "
             f"{'p90':>10s} {'p99':>10s} {'max':>10s}"]
    for name, snap in snapshot.items():
        if not isinstance(snap, dict) or "p50" not in snap:
            continue
        lines.append(
            f"{name:<24s} {snap['count']:>6d} "
            f"{snap['p50'] * 1e3:>7.3f} ms {snap['p90'] * 1e3:>7.3f} ms "
            f"{snap['p99'] * 1e3:>7.3f} ms {snap['max'] * 1e3:>7.3f} ms")
    return "\n".join(lines) if len(lines) > 1 else ""


def _write_metrics(args, acfd, trace=None) -> None:
    """--metrics-out: Prometheus text exposition of the run's registry."""
    path = args.metrics_out
    if not path:
        return
    if trace is not None:
        observe_trace_histograms(acfd.obs.metrics, trace)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(acfd.obs.metrics.expose_text())
    print(f"wrote {path}")


def cmd_run(args) -> int:
    acfd = _load(args.source)
    input_text = _read_input(args)
    native = args.backend != "scalar"
    result = _compile_args(acfd, args)[0]
    seq = acfd.run_sequential(input_text=input_text, native=native)

    size = math.prod(result.plan.partition.dims)
    telemetry = renderer = server = live_path = None
    if args.live or args.live_metrics_port is not None:
        from repro.obs.health import (LiveRenderer, Telemetry,
                                      publish_live, serve_metrics)
        telemetry = Telemetry(size, shared=(args.executor == "process"))
        if telemetry.shared:
            live_path = publish_live(telemetry)
        if args.live_metrics_port is not None:
            server = serve_metrics(acfd.obs.metrics,
                                   port=args.live_metrics_port,
                                   telemetry=telemetry)
            print(f"serving metrics on http://127.0.0.1:"
                  f"{server.server_address[1]}/metrics")
        if args.live:
            renderer = LiveRenderer(telemetry,
                                    interval=args.live_interval)
            renderer.start()
    try:
        try:
            par = result.run_parallel(input_text=input_text,
                                      native=native,
                                      executor=args.executor,
                                      telemetry=telemetry)
        except ReproError as exc:
            if telemetry is not None:
                from repro.obs.postmortem import (build_postmortem,
                                                  write_postmortem)
                report = build_postmortem(error=exc, size=size,
                                          telemetry=telemetry)
                print(f"wrote {write_postmortem(report)} "
                      f"(re-render with 'acfd postmortem')",
                      file=sys.stderr)
            raise
        if args.live:
            from repro.obs.health import render_health_table
            print(render_health_table(telemetry.samples()))
    finally:
        if renderer is not None:
            renderer.stop()
        if server is not None:
            server.shutdown()
        if live_path is not None:
            from repro.obs.health import unpublish_live
            unpublish_live(live_path)
        if telemetry is not None:
            telemetry.close()
    print(_backend_line(native, result.report, par))
    print(f"sequential output: {seq.io.output()}")
    print(f"parallel output:   {par.output()}")
    ok = True
    # a subroutine's local array is distributed but is not part of the
    # sequential run's final state: there is nothing to compare it with
    held = [name for name in result.plan.arrays
            if isinstance(seq.values.get(name), OffsetArray)]
    for name in held:
        same = np.array_equal(par.array(name).data, seq.array(name).data)
        print(f"  array {name!r}: {'identical' if same else 'DIFFERS'}")
        ok = ok and same
    skipped = sorted(set(result.plan.arrays) - set(held))
    if skipped:
        print(f"  not compared (not in the sequential final state): "
              f"{', '.join(skipped)}")
    if args.trace_out:
        data = build_export(compiler=acfd.obs, trace=par.trace)
        print(f"wrote {write_chrome_trace(args.trace_out, data)}")
    _write_metrics(args, acfd, trace=par.trace)
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    acfd = _load(args.source)
    seq_dims = tuple(1 for _ in acfd.grid.shape)
    seq_plan = acfd.compile(partition=seq_dims).plan
    t_seq = ClusterSim(seq_plan,
                       chunks=args.chunks).run(args.frames).total_time
    print(f"{'partition':>10s} {'time(s)':>10s} {'speedup':>8s} "
          f"{'efficiency':>10s}")
    print(f"{'x'.join(map(str, seq_dims)):>10s} {t_seq:>10.2f} "
          f"{'-':>8s} {'-':>10s}")
    sim_spans = None
    for result in _compile_args(acfd, args, args.overlap):
        sim = ClusterSim(result.plan, chunks=args.chunks,
                         record_timeline=bool(args.trace_out))
        out = sim.run(args.frames)
        if sim_spans is None:
            sim_spans = out.spans
        p = math.prod(result.plan.partition.dims)
        s = t_seq / out.total_time
        part = "x".join(map(str, result.plan.partition.dims))
        print(f"{part:>10s} {out.total_time:>10.2f} {s:>8.2f} "
              f"{100 * s / p:>9.0f}%")
    if args.trace_out:
        data = build_export(compiler=acfd.obs, sim_spans=sim_spans)
        print(f"wrote {write_chrome_trace(args.trace_out, data)}")
    return 0


def cmd_profile(args) -> int:
    """The full observability report: compile, run, simulate, export."""
    acfd = _load(args.source)
    input_text = _read_input(args)
    result = _compile_args(acfd, args)[0]
    part = "x".join(map(str, result.plan.partition.dims))
    print(f"== compiler phases ({result.report.program}, {part}) ==")
    print(result.report.phase_table())
    if result.report.metrics:
        counters = " ".join(f"{k}={v}"
                            for k, v in result.report.metrics.items())
        print(f"counters: {counters}")
    native = args.backend != "scalar"
    # under the compiler's profiler: the translation's span and counters
    # (or ``pyback.reused``) reach --trace-out and --metrics-out
    with activate(acfd.obs):
        par = result.run_parallel(input_text=input_text, native=native,
                                  executor=args.executor)
    print(_backend_line(native, result.report, par))
    for line in result.report.sync_lines():
        print(line)

    print("\n== parallel run (observed) ==")
    timeline = par.timeline()
    print(timeline.rollup().table(top=args.top))
    frames = timeline.frames()
    if len(frames) > 1:
        print(f"frames inferred: {len(frames)}")
    if par.world.transport is not None:  # process executor only
        print("transport: " + " ".join(
            f"{k}={v}" for k, v in par.world.transport.items()))
    observe_trace_histograms(acfd.obs.metrics, par.trace)
    hist_table = _histogram_table(acfd.obs.metrics.snapshot())
    if hist_table:
        print("\n== runtime event durations (quantiles) ==")
        print(hist_table)

    # model the schedule the program ran: the emitted pipeline does no
    # chunking, and the drift table's sent-bytes columns are whole-run
    # totals, so simulate as many frames as were executed
    sim_frames = (args.frames if args.frames is not None
                  else max(1, len(frames)))
    print(f"\n== cluster model (simulated, host-like calibration, "
          f"chunks=1, {sim_frames} frames) ==")
    out = ClusterSim(result.plan, HOST_MACHINE, HOST_NETWORK, chunks=1,
                     record_timeline=True).run(sim_frames)
    print(out.rollup().table(top=args.top))
    print("\n== model-vs-measured drift (shares of rank time) ==")
    print(drift_report(par, out).table())

    trace_out = args.trace_out
    if trace_out is None:
        stem = ("profile" if args.source == "-"
                else args.source.rsplit(".", 1)[0])
        trace_out = f"{stem}.trace.json"
    data = build_export(compiler=acfd.obs, trace=par.trace,
                        sim_spans=out.spans)
    print(f"\nwrote {write_chrome_trace(trace_out, data)} "
          f"(open in ui.perfetto.dev)")
    _write_metrics(args, acfd)
    return 0


def cmd_chaos(args) -> int:
    """Fault matrix: inject faults, recover, assert bitwise equality."""
    from repro.faults import FAULT_KINDS, run_chaos

    scenarios = tuple(s.strip() for s in args.scenarios.split(",")
                      if s.strip())
    bad = [s for s in scenarios if s not in FAULT_KINDS]
    if bad:
        print(f"acfd: unknown fault scenario(s) {', '.join(bad)} "
              f"(known: {', '.join(FAULT_KINDS)})", file=sys.stderr)
        return 2
    source = None
    input_text = None
    if args.source:
        source = (sys.stdin.read() if args.source == "-" else
                  open(args.source, "r", encoding="utf-8").read())
        input_text = _read_input(args)
    partition = args.partition
    if partition is None:
        partition = ((2, 2, 1) if source is None
                     and args.app == "aerofoil" else (2, 2))
    report = run_chaos(app=args.app, source=source, input_text=input_text,
                       frames=args.frames, partition=partition,
                       seed=args.seed, scenarios=scenarios,
                       recover=not args.no_recover,
                       max_restarts=args.max_restarts, every=args.every,
                       full=args.full, timeout=args.timeout,
                       executor=args.executor,
                       postmortem_dir=args.postmortem_dir)
    print(report.table())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=1)
        print(f"wrote {args.report}")
    if not report.ok:
        failed = [s.name for s in report.scenarios if not s.ok]
        print(f"acfd: chaos FAILED: {', '.join(failed)}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_top(args) -> int:
    """Attach to a live run's telemetry and render its health board."""
    from repro.obs.health import Telemetry, find_live, render_health_table

    path = args.board or find_live()
    if path is None:
        print("acfd: no live run found — start one with "
              "'acfd run --live --executor process' (or pass --board)",
              file=sys.stderr)
        return 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        tele = Telemetry.attach_world(doc["spec"])
    except (OSError, KeyError, ValueError) as exc:
        print(f"acfd: cannot attach to {path}: {exc}", file=sys.stderr)
        return 1
    try:
        while True:
            print(render_health_table(tele.samples()), flush=True)
            if args.once or tele.done():
                return 0
            time.sleep(args.interval)
            print()
    except KeyboardInterrupt:
        return 0
    finally:
        tele.close(unlink=False)


def cmd_postmortem(args) -> int:
    """Re-render a postmortem_<sha>.json document."""
    from repro.obs.postmortem import load_postmortem, render_postmortem

    report = load_postmortem(args.file)
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(render_postmortem(report, tail_events=args.tail))
    return 0


#: the options more than one subcommand takes, each declared once:
#: name -> (flags, ``add_argument`` keywords)
_SHARED_OPTIONS = {
    "overlap": (("--overlap",), dict(
        choices=("on", "off", "auto"), default="auto",
        help="communication/computation overlap, modelled: which syncs "
             "the plan marks as split into interior+boundary around a "
             "nonblocking exchange (on: wherever provably safe; auto: "
             "none, each safe one reported as not marked because the "
             "thread and process executors leave no wire time in "
             "flight; off: none).  report lists the verdicts, simulate "
             "models them; the generated program is the same in every "
             "mode")),
    "input": (("--input", "-i"), dict(
        help="list-directed input deck file")),
    "backend": (("--backend",), dict(
        choices=("native", "scalar"), default="native",
        help="loop nests: compiled to C with the host's C compiler "
             "(native, default; cached under ~/.cache/acfd/native) or "
             "the scalar reference translation")),
    "trace-out": (("--trace-out",), dict(
        metavar="FILE",
        help="write a Chrome-trace/Perfetto JSON of the run (simulate: "
             "of the first partition's simulated timeline; profile "
             "writes one regardless, to <source>.trace.json by default)")),
    "executor": (("--executor",), dict(
        choices=("thread", "process"), default="thread",
        help="rank executor: in-process threads (default) or one OS "
             "process per rank (true parallelism; under chaos an "
             "injected crash is then a real worker death, SIGKILL)")),
    "metrics-out": (("--metrics-out",), dict(
        metavar="FILE",
        help="write the run's metrics registry as Prometheus text "
             "exposition")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acfd",
        description="Auto-CFD: parallelize sequential Fortran CFD programs")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *names):
        for name in names:
            flags, kwargs = _SHARED_OPTIONS[name]
            p.add_argument(*flags, **kwargs)

    def common(p):
        p.add_argument("source", help="Fortran source file ('-' for stdin)")
        p.add_argument("--partition", "-p", action="append",
                       type=_parse_partition,
                       help="processors per grid dimension, e.g. 2x2")
        p.add_argument("--processors", "-n", type=int,
                       help="processor count (the partitioner picks the "
                            "shape)")

    p = sub.add_parser("compile", help="emit the generated SPMD program")
    common(p)
    p.add_argument("--mpi", action="store_true",
                   help="emit Fortran with the generated MPI runtime")
    p.add_argument("--output", "-o", help="write to a file")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("report", help="synchronization accounting")
    common(p)
    shared(p, "overlap")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (includes phase timings)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="run sequential vs parallel and compare")
    common(p)
    shared(p, "input", "backend", "trace-out", "executor", "metrics-out")
    p.add_argument("--live", action="store_true",
                   help="refresh a per-rank health table (state, frame, "
                        "mailbox depth, traffic) during the run, with "
                        "straggler/stall alerts; on failure a "
                        "postmortem_<sha>.json is written")
    p.add_argument("--live-interval", type=float, default=0.5,
                   metavar="SEC", help="refresh cadence for --live")
    p.add_argument("--live-metrics-port", type=int, metavar="PORT",
                   help="serve the metrics registry plus live health "
                        "gauges over HTTP (Prometheus text; 0 picks a "
                        "free port)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("simulate", help="cluster performance model")
    common(p)
    p.add_argument("--frames", type=int, default=200,
                   help="frame iterations to simulate")
    p.add_argument("--chunks", type=int, default=1,
                   help="pipeline chunking for self-dependent loops")
    shared(p, "overlap", "trace-out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "profile",
        help="profile the whole pipeline: compiler phases, per-rank "
             "runtime breakdown, simulated comparison and its drift, "
             "Perfetto export")
    common(p)
    shared(p, "input", "backend", "trace-out", "executor", "metrics-out")
    p.add_argument("--frames", type=int,
                   help="frame iterations for the simulated comparison "
                        "(default: as many as the parallel run executed)")
    p.add_argument("--top", type=int, metavar="N",
                   help="cap the per-rank tables at the N worst ranks "
                        "by blocked time (default: all ranks)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "top",
        help="attach to a live 'acfd run --live --executor process' "
             "in another terminal and render its per-rank health board")
    p.add_argument("--board", metavar="FILE",
                   help="discovery file written by the live run "
                        "(default: newest acfd-live-*.json in the "
                        "temp dir)")
    p.add_argument("--interval", type=float, default=1.0, metavar="SEC",
                   help="refresh cadence (default 1s)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "postmortem",
        help="re-render an automated postmortem document (cause, "
             "divergence frame, wait-for cycle, per-rank flight tails)")
    p.add_argument("file", help="postmortem_<sha>.json path")
    p.add_argument("--json", action="store_true",
                   help="dump the raw document instead of the report")
    p.add_argument("--tail", type=int, default=8, metavar="N",
                   help="flight-recorder events to show per rank")
    p.set_defaults(fn=cmd_postmortem)

    p = sub.add_parser(
        "chaos",
        help="fault-injection matrix: run an app under seeded faults "
             "(message drop/delay/duplication, stragglers, rank "
             "crashes) with checkpoint/restart recovery and assert the "
             "final grids match the fault-free run bitwise")
    p.add_argument("source", nargs="?",
                   help="Fortran source file ('-' for stdin); default: "
                        "a built-in app (see --app)")
    p.add_argument("--app", choices=("sprayer", "aerofoil"),
                   default="sprayer",
                   help="built-in workload when no source is given")
    p.add_argument("--partition", "-p", type=_parse_partition,
                   help="processors per grid dimension (default 2x2, "
                        "2x2x1 for the aerofoil)")
    shared(p, "input", "executor")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed; the whole matrix is "
                        "reproducible from it")
    p.add_argument("--scenarios",
                   default="drop,delay,duplicate,straggler,crash",
                   help="comma-separated fault kinds, one scenario each")
    p.add_argument("--no-recover", action="store_true",
                   help="disable checkpoint/restart recovery: the first "
                        "failure propagates with rank attribution")
    p.add_argument("--max-restarts", type=int, default=3,
                   help="recovery budget per scenario")
    p.add_argument("--every", type=int, default=1,
                   help="checkpoint cadence in frames")
    p.add_argument("--frames", type=int, default=8,
                   help="frame bound faults are placed within (explicit "
                        "source only; built-in apps report their own)")
    p.add_argument("--full", action="store_true",
                   help="built-in apps at paper scale instead of the "
                        "quick deck")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-attempt receive watchdog (seconds)")
    p.add_argument("--report", metavar="FILE",
                   help="write the chaos report as JSON")
    p.add_argument("--postmortem-dir", metavar="DIR",
                   help="write a postmortem_<sha>.json here for every "
                        "scenario that still fails after recovery")
    p.set_defaults(fn=cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"acfd: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"acfd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
