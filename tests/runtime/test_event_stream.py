"""One runtime event stream: one writer, two readers.

Every runtime event is written by the rank's ``Trace.writer`` — one call
puts the record in the trace log and, with telemetry attached, in the
rank's flight ring.  These tests pin the consequences: the two readers
(``Trace.snapshot`` and ``Telemetry.tails``) return the same events,
``comm_stats`` counts what was sent, no record is unstamped, and no
second recorder grows back in ``src/repro``.
"""

import pathlib
import re

import pytest

import repro
from repro.apps.aerofoil import AEROFOIL_INPUT, aerofoil_source
from repro.apps.kernels import gauss_seidel_2d, jacobi_5pt
from repro.core import AutoCFD
from repro.errors import ReproError
from repro.faults import (Checkpointer, CheckpointStore, FaultEvent,
                          FaultInjector, FaultPlan)
from repro.obs.health import Telemetry
from repro.obs.timeline import Timeline
from repro.runtime import Trace

SLOTS = 64


@pytest.fixture(scope="module")
def aerofoil_result():
    compiled = AutoCFD.from_source(
        aerofoil_source(24, 12, 6, iters=1)).compile(partition=(2, 1, 1))
    return compiled.run_parallel(input_text=AEROFOIL_INPUT)


class TestCountsAndStamps:
    def test_pipelined_message_is_counted_once(self, aerofoil_result):
        # PipeExchanger.send writes a pipeline_send marker and comm.send
        # the send itself: one transfer, one message
        trace = aerofoil_result.trace
        assert trace.count("pipeline_send") > 0
        sends = trace.count("send")
        assert aerofoil_result.comm_stats["sends"] == sends
        assert trace.count("recv") == sends
        assert len(trace.messages()) == sends
        assert trace.bytes_sent() == sum(
            e.nbytes for e in trace.snapshot() if e.kind == "recv")

    def test_window_of_a_log_without_an_envelope(self, aerofoil_result):
        # a SIGKILLed rank's log ends before its `rank` envelope; its
        # window is then first-event start to last-event end, which
        # needs every record (markers included) to carry real stamps
        events = [e for e in aerofoil_result.trace.snapshot()
                  if e.kind != "rank"]
        assert "pipeline_send" in {e.kind for e in events}
        assert all(e.t1 >= e.t0 > 0.0 for e in events)
        timeline = Timeline(events, 2)
        for rank in range(2):
            mine = [e for e in events if e.rank == rank]
            assert timeline.rank_window(rank) == (
                min(e.t0 for e in mine), max(e.t1 for e in mine))
            assert timeline.rank_window(rank)[0] > 0.0


# -- one stream, two readers ---------------------------------------------------


def _same_events(tail, log, tol: float) -> None:
    """*tail* (ring) and *log* (trace) agree field for field; stamps
    within *tol* seconds (0.0: the same clock base, so exactly)."""
    assert len(tail) == len(log)
    for ring_ev, log_ev in zip(tail, log):
        assert (ring_ev.rank, ring_ev.kind, ring_ev.peer, ring_ev.nbytes,
                ring_ev.tag, ring_ev.wait_s, ring_ev.saved_bytes) == \
               (log_ev.rank, log_ev.kind, log_ev.peer, log_ev.nbytes,
                log_ev.tag, log_ev.wait_s, log_ev.saved_bytes)
        assert abs(ring_ev.t0 - log_ev.t0) <= tol
        assert abs(ring_ev.t1 - log_ev.t1) <= tol


def _assert_two_readers_agree(source: str, executor: str, tmp_path,
                              expect_kinds: set) -> None:
    shared = executor == "process"
    compiled = AutoCFD.from_source(source).compile(partition=(2, 2))
    tele = Telemetry(4, shared=shared, slots=SLOTS)
    try:
        result = compiled.run_parallel(
            executor=executor, telemetry=tele,
            checkpointer=Checkpointer(CheckpointStore(str(tmp_path))))
        tails = tele.tails()
        log = result.trace.snapshot()
        seen = set()
        for rank in range(4):
            mine = [e for e in log if e.rank == rank]
            # the ring wrapped: it holds the log's last SLOTS records
            assert tele.flight.pushed(rank) == len(mine) > SLOTS
            _same_events(tails[rank], mine[-SLOTS:],
                         tol=1e-6 if shared else 0.0)
            seen |= {e.kind for e in tails[rank]}
        assert expect_kinds <= seen
    finally:
        tele.close()


JACOBI_KINDS = {"send", "recv", "halo_pack", "halo_unpack", "exchange",
                "allreduce", "frame", "checkpoint", "rank"}
PIPE_KINDS = {"pipeline_send", "pipeline_recv", "frame", "checkpoint"}


class TestTwoReadersThread:
    def test_halo_jacobi(self, tmp_path):
        _assert_two_readers_agree(jacobi_5pt(24, 16, iters=8, eps=0.0),
                                  "thread", tmp_path, JACOBI_KINDS)

    def test_pipelined_gauss_seidel(self, tmp_path):
        _assert_two_readers_agree(gauss_seidel_2d(24, 16, iters=8, eps=0.0),
                                  "thread", tmp_path, PIPE_KINDS)


@pytest.mark.livesmoke
class TestTwoReadersProcess:
    def test_halo_jacobi(self, tmp_path):
        _assert_two_readers_agree(jacobi_5pt(24, 16, iters=8, eps=0.0),
                                  "process", tmp_path, JACOBI_KINDS)

    def test_pipelined_gauss_seidel(self, tmp_path):
        _assert_two_readers_agree(gauss_seidel_2d(24, 16, iters=8, eps=0.0),
                                  "process", tmp_path, PIPE_KINDS)

    def test_sigkilled_rank_tail_equals_its_dying_flush(self, tmp_path):
        """A kill-mode crash flushes the worker's log ("dying") and then
        SIGKILLs it; the tail salvaged from shared memory afterwards is
        the end of that flush."""
        compiled = AutoCFD.from_source(
            jacobi_5pt(24, 16, iters=8, eps=0.0)).compile(partition=(2, 2))
        injector = FaultInjector(
            FaultPlan(events=[FaultEvent("crash", 1, frame=6)], seed=0))
        tele = Telemetry(4, shared=True, slots=SLOTS)
        trace = Trace()
        try:
            with pytest.raises(ReproError, match="injected crash on rank 1"):
                compiled.run_parallel(
                    executor="process", telemetry=tele, trace=trace,
                    injector=injector, timeout=30.0,
                    checkpointer=Checkpointer(
                        CheckpointStore(str(tmp_path))))
            flushed = [e for e in trace.snapshot() if e.rank == 1]
            assert flushed[-1].kind == "fault_crash"
            assert "rank" not in {e.kind for e in flushed}
            assert len(flushed) > SLOTS
            _same_events(tele.tails()[1], flushed[-SLOTS:], tol=1e-6)
        finally:
            tele.close()


# -- the second recorder cannot grow back --------------------------------------


SRC = pathlib.Path(repro.__file__).parent


def _hits(pattern: str) -> dict[str, list[int]]:
    """``{relative path: [line numbers]}`` of *pattern* over src/repro."""
    rx = re.compile(pattern)
    found: dict[str, list[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = [n for n, line in
                 enumerate(path.read_text().splitlines(), 1)
                 if rx.search(line)]
        if lines:
            found[path.relative_to(SRC).as_posix()] = lines
    return found


class TestOneWriter:
    def test_events_are_built_only_by_the_readers(self):
        assert set(_hits(r"\bTraceEvent\(")) <= {"runtime/trace.py",
                                                 "obs/flight.py"}

    def test_ring_rows_are_written_only_by_the_writer(self):
        # an indexed store into a ring: the writer's row write, and the
        # recorder zeroing itself in reset()
        stores = _hits(r"\bring\[[^\]]*\]\s*=[^=]")
        assert set(stores) == {"runtime/trace.py", "obs/flight.py"}
        assert len(stores["runtime/trace.py"]) == 1
        reset, = stores["obs/flight.py"]
        flight = (SRC / "obs/flight.py").read_text().splitlines()
        assert flight[reset - 1].strip() == "self.ring[:] = 0"
        # and the cursor that makes a row visible moves in one place
        assert set(_hits(r"\bhdr\[0\]\s*=[^=]")) == {"runtime/trace.py"}

    @pytest.mark.parametrize("gone", [
        r"trace\.record\(", r"_tappend", r"push_event", r"\.sent\(",
        r"\.recvd\(", r"\bFlightEvent\b"])
    def test_retired_recorders_stay_gone(self, gone):
        assert _hits(gone) == {}

    def test_the_log_is_appended_to_in_one_place(self):
        hits = _hits(r"\.events\.append")
        assert list(hits) == ["runtime/trace.py"]
        assert len(hits["runtime/trace.py"]) == 1
