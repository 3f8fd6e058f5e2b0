"""Health board, rank telemetry, alerts, live rendering, /metrics."""

import urllib.request

import numpy as np
import pytest

from repro.obs.health import (
    _DEPTH,
    HealthBoard,
    Telemetry,
    health_alerts,
    health_exposition,
    render_health_table,
    serve_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime import Trace, spmd_run


class TestHealthBoard:
    def test_fresh_rows_decode_to_init(self):
        board = HealthBoard(2)
        s = board.sample(0)
        assert s.state == "init"
        assert s.frame is None
        assert s.ckpt_frame is None
        assert s.beat == 0

    def test_rank_telemetry_writes_show_in_samples(self):
        tele = Telemetry(2)
        view = tele.rank_view(1)
        view.start(epoch_ns=0)
        write = Trace().writer(1, view)
        write("frame", None, 0, 4, 0, 1, 1)
        write("send", 0, 256, 9, 0, 2, 2)
        write("recv", 0, 128, 9, 10_000_000, 3, 4)
        write("checkpoint", None, 512, 4, 0, 5, 6)
        s = tele.samples()[1]
        assert s.state == "compute"
        assert s.frame == 4
        assert s.ckpt_frame == 4
        assert s.sent_bytes == 256 and s.sent_msgs == 1
        assert s.recv_bytes == 128 and s.recv_msgs == 1
        tele.close()

    def test_enter_returns_previous_state(self):
        tele = Telemetry(1)
        view = tele.rank_view(0)
        view.start(epoch_ns=0)
        prev = view.enter(2)  # blocked
        assert prev == 1  # was compute
        assert tele.samples()[0].state == "blocked"
        view.enter(prev)
        assert tele.samples()[0].state == "compute"
        tele.close()

    def test_finish_marks_done_or_failed(self):
        tele = Telemetry(2)
        tele.rank_view(0).finish(True)
        tele.rank_view(1).finish(False)
        states = [s.state for s in tele.samples()]
        assert states == ["done", "failed"]
        assert tele.done()
        tele.close()

    def test_begin_resets_between_attempts(self):
        tele = Telemetry(1)
        view = tele.rank_view(0)
        view.start(0)
        write = Trace().writer(0, view)
        write("frame", None, 0, 9, 0, 1, 1)
        write("send", 0, 100, 0, 0, 2, 2)
        assert tele.samples()[0].frame == 9
        tele.begin()
        s = tele.samples()[0]
        assert s.frame is None and s.sent_bytes == 0
        assert tele.tails() == {0: []}
        tele.close()


class TestSharedTelemetry:
    def test_spec_attach_round_trip(self):
        tele = Telemetry(2, shared=True)
        try:
            spec = tele.spec()
            view = Telemetry.attach(spec, rank=1)
            view.start(epoch_ns=0)
            Trace().writer(1, view)("frame", None, 0, 3, 0, 1, 1)
            view.release()
            assert tele.samples()[1].frame == 3
            world = Telemetry.attach_world(spec)
            assert world.samples()[1].frame == 3
            world.close()
        finally:
            tele.close()

    def test_unshared_spec_is_an_error(self):
        tele = Telemetry(1)
        with pytest.raises(ValueError):
            tele.spec()
        tele.close()


class TestAlerts:
    def _sample(self, rank, state="compute", frame=5, age_s=0.0,
                depth=0):
        from repro.obs.health import HealthSample
        return HealthSample(rank=rank, beat=1, state=state, frame=frame,
                            mailbox_depth=depth,
                            ckpt_frame=None, sent_bytes=0, recv_bytes=0,
                            sent_msgs=0, recv_msgs=0, t_ns=0,
                            age_s=age_s)

    def test_straggler_flagged_against_frontier(self):
        samples = [self._sample(0, frame=10), self._sample(1, frame=6)]
        alerts = health_alerts(samples, lag=2)
        assert len(alerts) == 1
        assert "rank 1" in alerts[0] and "straggler" in alerts[0]

    def test_blocked_stall_flagged(self):
        samples = [self._sample(0, state="blocked", age_s=5.0, depth=3)]
        alerts = health_alerts(samples, stall_s=1.0)
        assert "blocked" in alerts[0] and "depth 3" in alerts[0]

    def test_failed_rank_flagged(self):
        alerts = health_alerts([self._sample(0, state="failed")])
        assert "FAILED" in alerts[0]

    def test_quiet_world_has_no_alerts(self):
        samples = [self._sample(0, frame=5), self._sample(1, frame=5)]
        assert health_alerts(samples) == []

    def test_table_renders_rows_and_alerts(self):
        samples = [self._sample(0, frame=5),
                   self._sample(1, state="failed", frame=3)]
        text = render_health_table(samples)
        assert "rank" in text.splitlines()[0]
        assert "failed" in text
        assert "! rank 1: FAILED" in text


class TestRuntimeIntegration:
    def test_thread_world_publishes_heartbeats_and_tails(self):
        payload = np.zeros(16, dtype=np.float64)

        def body(comm):
            if comm.rank == 0:
                comm.send(1, payload, tag=3)
                comm.recv(source=1, tag=4)
            else:
                comm.recv(source=0, tag=3)
                comm.send(0, payload, tag=4)
            comm.barrier()

        tele = Telemetry(2)
        spmd_run(2, body, telemetry=tele)
        s0, s1 = tele.samples()
        assert s0.state == "done" and s1.state == "done"
        assert s0.sent_bytes == payload.nbytes
        assert s0.recv_bytes == payload.nbytes
        kinds0 = [e.kind for e in tele.tails()[0]]
        assert "send" in kinds0 and "recv" in kinds0
        assert "barrier" in kinds0
        tele.close()


def _five_then_barrier(comm):
    """Rank 1 sends five messages; rank 0 reads its own heartbeat row
    after the barrier, before it has received any of them."""
    if comm.rank == 1:
        for i in range(5):
            comm.send(0, float(i), tag=6)
        comm.barrier()
        return None
    comm.barrier()  # leaving it is a heartbeat, with all five sent
    depth = int(comm.telemetry.row[_DEPTH])
    assert [comm.recv(1, 6) for _ in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]
    return depth


@pytest.mark.livesmoke
class TestQueueDepthOnProcesses:
    def test_heartbeat_counts_messages_still_in_the_channel(self):
        """On the process executor a message waits in its channel until
        the receiving body takes it; the depth a heartbeat reports must
        count it there, not only once it reached a bucket."""
        for executor, shared in (("thread", False), ("process", True)):
            tele = Telemetry(2, shared=shared)
            try:
                world = spmd_run(2, _five_then_barrier, telemetry=tele,
                                 executor=executor, timeout=15.0)
                assert world.results[0] == 5, executor
            finally:
                tele.close()


class TestMetricsServer:
    def test_http_exposition_includes_registry_and_health(self):
        registry = MetricsRegistry()
        registry.counter("demo.count", help="a demo counter").inc(3)
        tele = Telemetry(2)
        tele.rank_view(0).start(0)
        server = serve_metrics(registry, port=0, telemetry=tele)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5) as rsp:
                text = rsp.read().decode()
            assert "acfd_demo_count 3" in text
            assert "# HELP acfd_demo_count a demo counter" in text
            assert 'acfd_health_state{rank="0"} 1' in text
            assert 'acfd_health_state{rank="1"} 0' in text
        finally:
            server.shutdown()
            tele.close()

    def test_health_exposition_has_help_and_type_lines(self):
        tele = Telemetry(1)
        text = health_exposition(tele)
        assert "# HELP acfd_health_beat" in text
        assert "# TYPE acfd_health_beat gauge" in text
        tele.close()
