"""Command-line interface tests."""

import json
import re

import pytest

from repro.cli import _parse_partition, main

from tests.conftest import JACOBI_SRC


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "jacobi.f90"
    path.write_text(JACOBI_SRC)
    return str(path)


class TestPartitionParsing:
    def test_valid(self):
        assert _parse_partition("2x2") == (2, 2)
        assert _parse_partition("4X1x1") == (4, 1, 1)

    def test_invalid(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_partition("two")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_partition("0x2")


class TestCompile:
    def test_stdout(self, src_file, capsys):
        assert main(["compile", src_file, "-p", "2x1"]) == 0
        out = capsys.readouterr().out
        assert "acfd_exchange" in out
        assert "program jacobi" in out

    def test_mpi_output_file(self, src_file, tmp_path, capsys):
        out_path = tmp_path / "par.f"
        assert main(["compile", src_file, "-p", "2x2", "--mpi",
                     "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "mpi_sendrecv" in text
        assert "wrote" in capsys.readouterr().out

    def test_processors_flag(self, src_file, capsys):
        assert main(["compile", src_file, "-n", "4"]) == 0
        assert "acfd_lo" in capsys.readouterr().out

    def test_freshness_verdicts_print_beside_the_program(self, src_file,
                                                         tmp_path, capsys):
        note = "sync 1: v entry-only (fresh from sync 2)"
        assert main(["compile", src_file, "-p", "2x1"]) == 0
        got = capsys.readouterr()
        assert note in got.err and note not in got.out
        assert main(["compile", src_file, "-p", "2x1",
                     "-o", str(tmp_path / "par.f")]) == 0
        assert note in capsys.readouterr().out
        assert main(["compile", src_file, "-p", "2x2"]) == 0
        assert ("sync 1: v sent every frame: ghost width on two or more "
                "cut dimensions") in capsys.readouterr().err

    def test_each_reduction_names_the_sync_it_rides(self, src_file,
                                                    capsys):
        assert main(["compile", src_file, "-p", "2x1"]) == 0
        got = capsys.readouterr()
        assert "call acfd_exchange(2, v, err)" in got.out
        assert "reduction err (max) rides sync 2\n" in got.err
        assert main(["report", src_file, "-p", "4x1"]) == 0
        assert ("reduction err (max) rides sync 2, then an allreduce: a cut "
                "dimension has more than two ranks") \
            in capsys.readouterr().out


class TestReport:
    def test_multiple_partitions(self, src_file, capsys):
        assert main(["report", src_file, "-p", "2x1", "-p", "1x2"]) == 0
        out = capsys.readouterr().out
        assert "2x1" in out
        assert "1x2" in out

    def test_missing_partition_is_error(self, src_file, capsys):
        assert main(["report", src_file]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_lists_freshness_per_sync(self, src_file, capsys):
        assert main(["report", src_file, "-p", "2x1", "-p", "2x2",
                     "--json"]) == 0
        one, two = json.loads(capsys.readouterr().out)
        assert one["freshness"] == [
            {"sync_id": 1, "entry_only": {"v": [2]}, "refusals": {}},
            {"sync_id": 2, "entry_only": {}, "refusals": {}}]
        assert [sorted(d["refusals"]) for d in two["freshness"]] \
            == [["v"], ["v"]]
        assert all(not d["entry_only"] for d in two["freshness"])

    def test_json_output(self, src_file, capsys):
        assert main(["report", src_file, "-p", "2x1", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        r = reports[0]
        assert r["partition"] == [2, 1]
        assert r["syncs_after"] <= r["syncs_before"]
        # compiler phase timings ride along in the JSON report
        phase_names = {p["name"] for p in r["phases"]}
        assert "parse" in phase_names
        assert "sync-combining" in phase_names
        assert r["metrics"]["compile.syncs_after"] == r["syncs_after"]


class TestRun:
    def test_run_compares(self, src_file, capsys):
        assert main(["run", src_file, "-p", "2x1"]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        # every native region each rank ran was bound to its arrays
        # once: a region meeting new arrays every frame would read
        # "binds" well above "regions ran"
        regions, ran, binds = re.search(
            r"backend: native \(\d+ native nests, \d+ scalar; (\d+) regions "
            r"\(\d+ fused pairs\); on 2 ranks (\d+) regions ran, (\d+) "
            r"binds; (?:translated|translation reused)\)", out).groups()
        assert int(binds) == int(ran) > 0 and int(regions) > 0

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_run_skips_a_subroutine_local_array(self, executor, tmp_path,
                                                capsys):
        # relax's w is distributed but lives only while relax runs: the
        # sequential final state has no w to compare the stitched one to
        from tests.interp.test_alignment import LOCAL_SRC
        src = tmp_path / "local.f90"
        src.write_text(LOCAL_SRC)
        assert main(["run", str(src), "-p", "2x1",
                     "--executor", executor]) == 0
        out = capsys.readouterr().out
        assert "array 'v': identical" in out
        assert "array 'vnew': identical" in out
        assert "not compared (not in the sequential final state): w" in out

    @pytest.mark.parametrize("command", ["compile", "report", "run",
                                         "simulate", "profile", "chaos"])
    def test_overlap_is_not_an_option(self, command, src_file, capsys):
        # every exchange is blocking: no command takes the flag
        with pytest.raises(SystemExit) as exc:
            main([command, src_file, "--overlap", "on"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --overlap on" \
            in capsys.readouterr().err

    def test_run_with_input(self, tmp_path, capsys):
        src = tmp_path / "prog.f90"
        src.write_text("""\
!$acfd status v
!$acfd grid 10 6
program p
  integer i, j
  real v(10, 6), c
  read (5, *) c
  do i = 1, 10
    do j = 1, 6
      v(i, j) = c
    end do
  end do
  write (6, *) c * 2.0
end
""")
        deck = tmp_path / "deck.txt"
        deck.write_text("3.5\n")
        assert main(["run", str(src), "-p", "2x1",
                     "-i", str(deck)]) == 0
        assert "7" in capsys.readouterr().out


class TestMetricsOut:
    def test_run_writes_prometheus_text(self, src_file, tmp_path,
                                        capsys):
        prom = tmp_path / "metrics.prom"
        assert main(["run", src_file, "-p", "2x1",
                     "--metrics-out", str(prom)]) == 0
        text = prom.read_text()
        # compiler counters and runtime-duration histograms both land
        assert "# TYPE acfd_compile_loops_scanned counter" in text
        assert "# TYPE acfd_runtime_blocked_s histogram" in text
        assert 'le="+Inf"' in text

    def test_profile_writes_prometheus_text(self, src_file, tmp_path,
                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        prom = tmp_path / "metrics.prom"
        assert main(["profile", src_file, "-p", "2x1", "--frames", "5",
                     "--metrics-out", str(prom),
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        assert "acfd_runtime_halo_s_count" in prom.read_text()
        # the profile report itself surfaces the duration quantiles
        out = capsys.readouterr().out
        assert "runtime event durations" in out
        assert "p99" in out


class TestSimulate:
    def test_simulate_table(self, src_file, capsys):
        assert main(["simulate", src_file, "-p", "2x1", "-p", "2x2",
                     "--frames", "30"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "2x2" in out

    def test_simulate_trace_out(self, src_file, tmp_path, capsys):
        trace_path = tmp_path / "sim.trace.json"
        assert main(["simulate", src_file, "-p", "2x1", "--frames", "10",
                     "--trace-out", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text())
        names = {e["args"]["name"] for e in data["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "simulated" in names


class TestRunTraceOut:
    def test_run_writes_chrome_trace(self, src_file, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        assert main(["run", src_file, "-p", "2x1",
                     "--trace-out", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text())
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert complete
        for e in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        # both the compiler phases and the runtime ranks are present
        assert {e["pid"] for e in complete} == {1, 2}


class TestProfile:
    def test_profile_report(self, src_file, tmp_path, capsys):
        trace_path = tmp_path / "prof.trace.json"
        assert main(["profile", src_file, "-p", "2x1", "--frames", "20",
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        # (a) per-phase compiler timing table
        assert "compiler phases" in out
        assert "dependency-analysis" in out
        assert "sync-freshness" in out
        assert "codegen-restructure" in out
        assert "sync 1: v entry-only (fresh from sync 2)" in out
        assert re.search(r"backend: native .* regions \(\d+ fused pairs\); "
                         r".* regions ran, \d+ binds; "
                         r"(?:translated|translation reused)\)", out)
        # (b) per-rank breakdown with derived health numbers
        assert "parallel run (observed)" in out
        assert "compute" in out and "blocked" in out
        assert "load imbalance" in out
        assert "critical-path rank" in out
        # simulated comparison in the same shape
        assert "simulated" in out
        # (c) Chrome-trace JSON written
        data = json.loads(trace_path.read_text())
        pids = {e["pid"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2, 3}  # compiler + runtime + simulated

    def test_profile_default_trace_path(self, src_file, capsys, monkeypatch):
        import pathlib
        monkeypatch.chdir(pathlib.Path(src_file).parent)
        assert main(["profile", src_file, "-p", "2x1",
                     "--frames", "10"]) == 0
        out = capsys.readouterr().out
        expected = src_file.rsplit(".", 1)[0] + ".trace.json"
        assert expected in out
        assert pathlib.Path(expected).exists()


    def test_profile_prints_the_drift_table(self, tmp_path, capsys):
        from repro.apps.sprayer import SPRAYER_INPUT, sprayer_source
        src = tmp_path / "sprayer.f"
        src.write_text(sprayer_source(n=40, m=16, iters=4, eps=0.0))
        deck = tmp_path / "deck.txt"
        deck.write_text(SPRAYER_INPUT)
        assert main(["profile", str(src), "-p", "2x1",
                     "-i", str(deck)]) == 0
        out = capsys.readouterr().out
        # the model covers the frames the run executed, unchunked
        assert "chunks=1, 4 frames" in out
        assert "max drift" in out
        for cat in ("compute", "halo", "collective", "blocked", "fault"):
            assert re.search(rf"^{cat} .*pp$", out, re.M)
        rows = re.findall(r"^ +(\d+) +(\d+)B +(\d+)B +[\d.]+$",
                          out[out.index("sent(model)"):], re.M)
        assert [int(rank) for rank, _, _ in rows] == [0, 1]
        assert all(int(model) > 0 and int(real) > 0
                   for _, model, real in rows)

    def test_profile_transport_line_on_processes(self, src_file, capsys):
        assert main(["profile", src_file, "-p", "2x1", "--frames", "10",
                     "--executor", "process"]) == 0
        out = capsys.readouterr().out
        line = re.search(r"^transport: (.*)$", out, re.M)
        assert line, out
        counts = {key: int(value) for key, value in
                  (item.split("=") for item in line.group(1).split())}
        assert set(counts) == {"ring", "overflow", "doorbell_sleeps",
                               "spin_hits", "head_takes", "wait_reports"}
        assert counts["overflow"] == 0
        assert 0 < counts["head_takes"] <= counts["ring"]

    def test_profile_models_the_unchunked_pipeline(self, tmp_path, capsys):
        """The emitted mirror-image sweep is one block per rank, so the
        simulated side is ClusterSim at chunks=1, not its default 8."""
        from repro.apps.kernels import gauss_seidel_2d
        from repro.core import AutoCFD
        from repro.simulate import ClusterSim
        from repro.simulate.drift import HOST_MACHINE, HOST_NETWORK
        text = gauss_seidel_2d(n=24, m=16, iters=6, eps=0.0)
        src = tmp_path / "seidel.f"
        src.write_text(text)
        assert main(["profile", str(src), "-p", "2x1"]) == 0
        out = capsys.readouterr().out
        plan = AutoCFD.from_source(text).compile(partition=(2, 1)).plan
        assert plan.pipes

        def table(chunks):
            return ClusterSim(plan, HOST_MACHINE, HOST_NETWORK,
                              chunks=chunks).run(6).rollup().table()
        assert table(1) != table(8)
        assert table(1) in out


class TestChaos:
    @pytest.mark.chaossmoke
    def test_quick_crash_scenario_with_report(self, tmp_path, capsys):
        report = tmp_path / "chaos.json"
        assert main(["chaos", "--app", "sprayer", "--seed", "7",
                     "--scenarios", "crash",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert f"wrote {report}" in out
        data = json.loads(report.read_text())
        assert data["ok"] is True
        assert data["scenarios"][0]["name"] == "crash"
        assert data["scenarios"][0]["restarts"] >= 1

    @pytest.mark.chaossmoke
    def test_no_recover_crash_fails_with_rank_attribution(self, capsys):
        assert main(["chaos", "--app", "sprayer", "--seed", "7",
                     "--scenarios", "crash", "--no-recover"]) == 1
        captured = capsys.readouterr()
        assert "injected crash on rank" in captured.out
        assert "chaos FAILED: crash" in captured.err

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["chaos", "--scenarios", "meteor"]) == 2
        assert "unknown fault scenario" in capsys.readouterr().err

    @pytest.mark.chaossmoke
    def test_explicit_source_runs_the_matrix(self, src_file, capsys):
        assert main(["chaos", src_file, "-p", "2x1", "--seed", "1",
                     "--scenarios", "straggler", "--frames", "6"]) == 0
        assert "identical" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["report", "/nonexistent.f90", "-p", "2x1"]) == 2

    def test_bad_source(self, tmp_path, capsys):
        path = tmp_path / "bad.f90"
        path.write_text("program p\nthis is not fortran at all(((\nend\n")
        assert main(["report", str(path), "-p", "2x1"]) == 2
