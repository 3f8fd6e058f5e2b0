"""Harness tests for the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))

import solve as S  # noqa: E402
from workloads import BY_NAME  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_py(*args: str):
    proc = subprocess.run([sys.executable, str(E2E / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True)
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def quick():
    t0 = time.monotonic()
    proc, result = run_py("--quick")
    return proc, result, time.monotonic() - t0


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    spans = tmp_path_factory.mktemp("trace") / "spans.json"
    proc, result = run_py("--quick", "--trace", "--workload",
                          "sprayer_thread", "--workload", "compile_table1",
                          "--trace-out", str(spans))
    return proc, result, json.loads(spans.read_text())


def assert_declared(metrics: dict, section: str) -> None:
    declared = {m["name"]: m for m in SPEC[section]}
    assert set(metrics) == set(declared)
    for name, m in metrics.items():
        assert NAME.fullmatch(name)
        assert m["unit"] == declared[name]["unit"]
        assert isinstance(m["value"], (int, float))
        if section == "end_to_end":
            assert 0 < declared[name]["bound"] <= 0.25


def test_quick_runs_all_seven_under_30s(quick):
    proc, result, wall = quick
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 7
    assert list(result["metrics"]) == [w["name"] for w in SPEC["workloads"]]
    assert wall < 30


def test_untraced_names_are_declared(quick):
    _, result, _ = quick
    for workload, metrics in result["metrics"].items():
        assert NAME.fullmatch(workload)
        assert_declared(metrics, "end_to_end")


def test_traced_names_are_declared(traced):
    proc, result, _ = traced
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    for metrics in result["metrics"].values():
        assert_declared(metrics, "per_layer")


def test_spans_nest_and_phases_fit_in_compile(traced):
    _, _, by_workload = traced
    for spans in by_workload.values():
        by_id = {s["id"]: s for s in spans}
        compiles = [s for s in spans if s["name"] == "core.compile"]
        assert compiles
        for s in spans:
            assert s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["solve"] == s["solve"]
                assert parent["start"] <= s["start"]
                assert s["end"] <= parent["end"]
        for comp in compiles:
            phases = [s for s in spans if s["parent"] == comp["id"]]
            assert phases
            assert all(s["name"].startswith("phase.") for s in phases)
            assert sum(s["end"] - s["start"] for s in phases) \
                <= comp["end"] - comp["start"]


def test_corrupted_grid_is_a_failed_solve():
    workload = BY_NAME["halo_latency_thread"]
    want = S.oracle(workload, seed=0, quick=True)
    sources = S.sources_for(workload, quick=True)

    def op(corrupt: bool):
        done = S.solve(workload, sources, None)
        if corrupt:  # flip the lowest bit of one interior value
            done.par.array("v").data.view(np.uint64)[5, 5] ^= 1
        return done

    def check(done):
        return S.verify(done, want, [[4, 2]])

    [clean] = S.measure(lambda: op(False), check, count=1)
    assert "failed" not in clean
    [bad] = S.measure(lambda: op(True), check, count=1)
    assert bad["failed"] == ["array 'v' differs from the sequential grid"]
