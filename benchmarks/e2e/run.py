#!/usr/bin/env python3
"""End-to-end benchmark: Fortran source -> compile -> SPMD run -> grid.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
        [--trace-out FILE]

Runs every named workload (default: all seven), gates every grid
against the sequential run, and prints every metric by name with its
unit; the last line of stdout is one JSON object.  ``--trace 0`` (the
default) reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a traced pass.  Exit status is
nonzero when any solve failed its gate.

Each workload runs in fresh child interpreters, one at a time, and
their samples are pooled; see README.md for why and for how to compare
two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing: no {SRC}/repro")
sys.path[:0] = [str(HERE), str(SRC)]

import numpy  # noqa: E402 - after the path check above

import solve as S  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: fresh interpreters per workload in one untraced run; their samples
#: are pooled and ``setup_s`` is the median of their set-ups.  A third
#: child would cost a third set-up per run, and the 158 runs the driver
#: makes at ``run_seconds`` must fit its time cap.
CHILDREN = 2
#: the whole run must end within 180 s
CHILD_TIMEOUT = 150.0


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def environment() -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc / 2:
        print(f"run.py: warning: 1-min load average {load:.2f} exceeds "
              f"nproc/2 = {nproc / 2:g}; timings will be noisy",
              file=sys.stderr)
    return {"nproc": nproc, "loadavg_1min": load,
            "git_sha": _git("rev-parse", "HEAD") or "unknown",
            "git_dirty": bool(_git("status", "--porcelain")),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform()}


def spawn(spec: dict) -> dict:
    """Run child.py on *spec* in a fresh interpreter and wait for it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    spec = dict(spec, spawned_at=time.time())
    # own session: on a timeout the rank workers die with the child
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"child timed out after {CHILD_TIMEOUT:g} s"}
    if proc.returncode != 0:
        return {"error": f"child exited with status {proc.returncode}"}
    return json.loads(out.splitlines()[-1])


def stats(values: list[float]) -> dict:
    """Median, quartiles and n; no tail percentile, n is below 20."""
    out = {"value": statistics.median(values), "n": len(values)}
    if len(values) > 1:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def summarize(outs: list[dict], problems: list[str], trace: bool) -> dict:
    """Pool one workload's child results into metrics and a verdict."""
    errors = [o["error"] for o in outs if "error" in o]
    outs = [o for o in outs if "error" not in o]
    if trace:
        solves = [s for o in outs for s in o["gated"]]
        metrics = {name: {"value": value}
                   for name, value in outs[0]["metrics"].items()}
    else:
        timed = [s for o in outs for s in o["samples"]]
        solves = timed + [s for o in outs for s in o["warmup"]]
        # times are divided by the host's slowdown while they were taken
        metrics = {
            "e2e_s": stats([s["e2e_s"] / s["host_slowdown"]
                             for s in timed if "e2e_s" in s]),
            "peak_rss_mb": stats([o["peak_rss_kb"] / 1024 for o in outs]),
            "setup_s": stats([o["setup_s"] / o["setup_slowdown"]
                               for o in outs]),
        }
    failures = problems + errors + [r for s in solves
                                    for r in s.get("failed", [])]
    failed = (len(problems) + len(errors)
              + sum(1 for s in solves if "failed" in s))
    section = SPEC["per_layer" if trace else "end_to_end"]
    return {"attempted": len(solves) + len(problems) + len(errors),
            "failed": failed, "failures": failures,
            "metrics": {m["name"]: dict(metrics[m["name"]], unit=m["unit"])
                        for m in section},
            "children": outs}


def run_pass(names: list[str], seed: int, seconds: float, trace: bool,
             quick: bool) -> dict:
    """One pass over *names*; returns name -> summary."""
    golden = json.loads((HERE / "golden.json").read_text())
    specs, problems = {}, {}
    for name in names:
        workload = BY_NAME[name]
        oracle = S.oracle(workload, seed, quick)
        problems[name] = []
        if seed == 0 and not quick \
                and oracle != golden["grids"][workload.program.key]:
            problems[name].append(
                f"sequential grids differ from golden.json (taken with "
                f"numpy {golden['numpy']}, this is {numpy.__version__})")
        specs[name] = {
            "workload": name, "seed": seed, "quick": quick, "trace": trace,
            "oracle": oracle, "sync_pairs": golden["sync_pairs"][name]}
    children = 1 if trace or quick else CHILDREN
    outs: dict[str, list] = {name: [] for name in names}
    for _ in range(children):  # round by round, every workload per round
        for name in names:
            outs[name].append(
                spawn(dict(specs[name], seconds=seconds / children)))
    return {name: summarize(outs[name], problems[name], trace)
            for name in names}


def print_table(summaries: dict) -> None:
    for name, summary in summaries.items():
        print(f"{name}: {summary['attempted']} solves, "
              f"{summary['failed']} failed")
        for metric, m in summary["metrics"].items():
            line = f"  {metric:<32s} {m['value']:>14.6g} {m['unit']}"
            if "q1" in m:
                line += (f"   [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, "
                         f"n {m['n']}]")
            print(line)
        for reason in summary["failures"]:
            print(f"  FAILED: {reason.strip().splitlines()[-1]}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                    help="repeatable; default: all seven")
    ap.add_argument("--seed", type=int, default=0,
                    help="draws the input decks (0: the repo's usual)")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: the traced per-layer pass")
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: frames / 20, 3 samples, 1 child")
    ap.add_argument("--out", help="merge this pass's full record into "
                    "FILE (keys 'untraced' / 'traced')")
    ap.add_argument("--trace-out", help="write the traced pass's spans")
    args = ap.parse_args(argv)
    names = args.workload or [w.name for w in WORKLOADS]

    env = environment()
    summaries = run_pass(names, args.seed, args.seconds, bool(args.trace),
                         args.quick)
    env["loadavg_1min_end"] = os.getloadavg()[0]

    if args.trace_out:
        spans = {n: s["children"][0]["spans"] for n, s in summaries.items()
                 if s["children"]}
        Path(args.trace_out).write_text(json.dumps(spans))
    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text()) if path.exists() else {}
        for summary in summaries.values():
            for child in summary["children"]:
                child.pop("spans", None)  # --trace-out has them
        record["traced" if args.trace else "untraced"] = {
            "environment": env, "seed": args.seed, "seconds": args.seconds,
            "quick": args.quick, "workloads": summaries}
        path.write_text(json.dumps(record, indent=1) + "\n")

    print_table(summaries)
    result = {
        "correct": all(s["failed"] == 0 for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values())}

    def plain(summary):
        return {name: {"value": m["value"], "unit": m["unit"]}
                for name, m in summary["metrics"].items()}

    if len(names) == 1:
        result["metrics"] = plain(summaries[names[0]])
    else:
        result["metrics"] = {n: plain(s) for n, s in summaries.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
