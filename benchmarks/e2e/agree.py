#!/usr/bin/env python3
"""Do two sets of runs of the same checkout agree within the bounds?

    python3 benchmarks/e2e/agree.py [--runs N] [--workload NAME ...]
        [--out FILE]

Runs the benchmark command of ``BENCHMARK.json`` the way the driver
does: two sets, each of N untraced runs per workload, every run with
another ``--seed``.  Per end-to-end metric and workload it prints

* the drift: by how much the second set's median is worse than the
  first's, as a share of the first, beside the metric's bound;
* with N >= 4, each set's spread: the distance between the first and
  third quartile of its N values as a share of their median.

With the default N = 1 this is "run the suite twice and compare".  One
traced run per set follows; every per-layer metric that is a count (unit
``count`` or ``B``) must be identical between the two.  Exit status is
nonzero when a drift or spread (``setup_s`` spread excepted) exceeds its
bound, a count differs, or a run reports a failed solve.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "B")


def run(workload: str, seed: int, trace: int) -> dict:
    """One run of the benchmark command; its last stdout line, parsed."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(f"agree.py: {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} solves failed", file=sys.stderr)
    return result


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def pct(x: float | None) -> str:
    return "-" if x is None else f"{100 * x:+.1f}%"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    ap.add_argument("--runs", type=int, default=1,
                    help="untraced runs per workload and set (driver: 10)")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out", help="write the comparison as JSON")
    args = ap.parse_args(argv)
    names = args.workload or names

    # a workload's two sets run back to back, so slow drift of the host
    # lands on both alike
    values: dict = {n: ({}, {}) for n in names}
    traced: dict = {n: [] for n in names}
    ok = True
    for name in names:
        for k in range(2):
            for i in range(args.runs):
                result = run(name, 1 + k * args.runs + i, trace=0)
                ok &= result["correct"]
                for metric, m in result["metrics"].items():
                    values[name][k].setdefault(metric, []).append(m["value"])
            result = run(name, 0, trace=1)
            ok &= result["correct"]
            traced[name].append(result["metrics"])

    report: dict = {"runs_per_set": args.runs, "end_to_end": {},
                    "exact_counts": {}}
    print(f"{'workload':<22s}{'metric':<14s}{'set 1':>10s}{'set 2':>10s}"
          f"{'drift':>8s}{'spread 1':>9s}{'spread 2':>9s}{'bound':>7s}")
    for name in names:
        for m in SPEC["end_to_end"]:
            first, second = (values[name][k][m["name"]] for k in (0, 1))
            med1, med2 = statistics.median(first), statistics.median(second)
            worse = (med2 - med1 if m["better"] == "lower" else med1 - med2)
            row = {"set1": med1, "set2": med2, "drift": worse / med1,
                   "spread1": spread(first), "spread2": spread(second),
                   "bound": m["bound"], "unit": m["unit"],
                   "values1": first, "values2": second}
            spreads = [] if m["name"] == "setup_s" else \
                [s for s in (row["spread1"], row["spread2"]) if s is not None]
            row["within_bound"] = (row["drift"] <= m["bound"] and
                                   all(s <= m["bound"] for s in spreads))
            ok &= row["within_bound"]
            report["end_to_end"].setdefault(name, {})[m["name"]] = row

            print(f"{name:<22s}{m['name']:<14s}{med1:>10.4g}{med2:>10.4g}"
                  f"{pct(row['drift']):>8s}{pct(row['spread1']):>9s}"
                  f"{pct(row['spread2']):>9s}{100 * m['bound']:>6.0f}%"
                  f"{'' if row['within_bound'] else '  OUT OF BOUND'}")
        a, b = traced[name]
        differing = {m["name"]: [a[m["name"]]["value"], b[m["name"]]["value"]]
                     for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS
                     and a[m["name"]]["value"] != b[m["name"]]["value"]}
        report["exact_counts"][name] = {
            "compared": sum(m["unit"] in EXACT_UNITS
                            for m in SPEC["per_layer"]),
            "differing": differing}
        ok &= not differing
        print(f"{name:<22s}exact counts: "
              + (f"DIFFER {differing}" if differing else "identical"))
    report["agree"] = bool(ok)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("agreement: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
