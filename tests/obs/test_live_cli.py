"""CLI surface for the live-telemetry stack: run --live, top, postmortem,
profile --top."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.health import Telemetry, publish_live, unpublish_live
from repro.obs.postmortem import build_postmortem, write_postmortem
from repro.runtime import Trace

from tests.conftest import JACOBI_SRC


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "jacobi.f90"
    path.write_text(JACOBI_SRC)
    return str(path)


class TestRunLive:
    def test_live_run_prints_health_table(self, src_file, capsys):
        assert main(["run", src_file, "-p", "2x1", "--live",
                     "--live-interval", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "identical" in captured.out
        # the final board snapshot lands on stdout, renderer on stderr
        assert "done" in captured.out
        assert "rank state" in captured.out

    def test_live_metrics_port_serves_health_gauges(self, src_file,
                                                    capsys):
        import re
        import urllib.request

        # port 0: the server picks a free port and prints it; fetch it
        # before the process exits by... running after: the server dies
        # with the command, so instead bind and scrape in-process.
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.health import serve_metrics
        reg = MetricsRegistry()
        reg.counter("x").inc()
        tele = Telemetry(1)
        server = serve_metrics(reg, port=0, telemetry=tele)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5) as r:
                text = r.read().decode()
            assert "acfd_health_beat" in text
        finally:
            server.shutdown()
            tele.close()
        # and the CLI flag at least announces the bound port
        assert main(["run", src_file, "-p", "2x1",
                     "--live-metrics-port", "0"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"serving metrics on http://127\.0\.0\.1:\d+",
                         out)


class TestTop:
    def test_once_renders_a_published_board(self, tmp_path, capsys):
        tele = Telemetry(2, shared=True)
        try:
            view = tele.rank_view(0)
            view.start(0)
            Trace().writer(0, view)("frame", None, 0, 5, 0, 1, 1)
            path = publish_live(tele, path=str(tmp_path / "live.json"))
            assert main(["top", "--board", path, "--once"]) == 0
            out = capsys.readouterr().out
            assert "compute" in out and "init" in out
            unpublish_live(path)
        finally:
            tele.close()

    def test_missing_board_fails_gracefully(self, tmp_path, capsys):
        bad = str(tmp_path / "gone.json")
        assert main(["top", "--board", bad, "--once"]) == 1
        assert "cannot attach" in capsys.readouterr().err

    def test_stale_discovery_file_fails_gracefully(self, tmp_path,
                                                   capsys):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(
            {"spec": {"size": 2, "slots": 64, "board": "psm_gone",
                      "flight": "psm_gone2"}, "pid": 0}))
        assert main(["top", "--board", str(path), "--once"]) == 1
        assert "cannot attach" in capsys.readouterr().err


class TestPostmortemCommand:
    def _write_report(self, tmp_path):
        tele = Telemetry(2)
        view = tele.rank_view(1)
        view.start(0)
        Trace().writer(1, view)("frame", None, 0, 3, 0, 1, 1)
        err = ReproError("rank 1 worker process died without reporting")
        rep = build_postmortem(error=err, size=2, telemetry=tele)
        tele.close()
        return write_postmortem(rep, str(tmp_path))

    def test_renders_report(self, tmp_path, capsys):
        path = self._write_report(tmp_path)
        assert main(["postmortem", path]) == 0
        out = capsys.readouterr().out
        assert "postmortem: killed" in out
        assert "dead rank 1" in out

    def test_json_dump(self, tmp_path, capsys):
        path = self._write_report(tmp_path)
        assert main(["postmortem", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "acfd-postmortem-v1"

    def test_document_from_before_the_single_event_record(self, capsys):
        # written, and rendered into the .txt, by commit fa1dd3c (flight
        # entries from FlightEvent.as_dict, frame numbers in `extra`):
        # schema v1 documents stay readable
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        doc = fixtures / "postmortem_f68c8e4bb5a1.json"
        assert main(["postmortem", str(doc)]) == 0
        assert capsys.readouterr().out == doc.with_suffix(".txt").read_text()


class TestProfileTop:
    def test_top_flag_caps_rank_tables(self, src_file, tmp_path,
                                       capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", src_file, "-p", "2x1", "--top", "1",
                     "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "1 more ranks elided (top 1 by blocked time)" in out
