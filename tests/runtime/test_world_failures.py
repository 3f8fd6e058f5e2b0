"""World teardown discipline: the launcher must never hang on a stuck
rank."""

import threading
import time

import pytest

from repro.errors import RuntimeCommError
from repro.runtime import spmd_run


class TestWatchdog:
    def test_stuck_compute_rank_is_named_not_joined_forever(self):
        # rank 1 spins in compute-only code and never observes the
        # failure; before the watchdog join discipline this hung the
        # launcher (and the whole process) indefinitely
        release = threading.Event()

        def body(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            while not release.is_set():
                time.sleep(0.005)

        try:
            with pytest.raises(RuntimeCommError) as exc_info:
                spmd_run(2, body, timeout=1.0)
        finally:
            release.set()
        msg = str(exc_info.value)
        assert "rank(s) 1" in msg
        assert "did not stop" in msg
        # the root cause still gets top billing
        assert "rank 0" in msg and "ValueError: boom" in msg

    def test_clean_world_does_not_wait_for_the_watchdog(self):
        t0 = time.monotonic()
        w = spmd_run(2, lambda comm: comm.rank, timeout=60.0)
        assert w.results == [0, 1]
        assert time.monotonic() - t0 < 30.0

    def test_fast_failure_propagates_before_the_deadline(self):
        def body(comm):
            if comm.rank == 0:
                raise RuntimeError("quick")
            comm.barrier()

        t0 = time.monotonic()
        with pytest.raises(RuntimeCommError, match="quick"):
            spmd_run(2, body, timeout=60.0)
        # both ranks unwound promptly; no 60 s join
        assert time.monotonic() - t0 < 30.0


class TestRankEnvelope:
    def test_crashed_rank_still_gets_an_execution_window(self):
        # the "rank" envelope used to be recorded only on the success
        # path, so a crashed rank had no execution window and the
        # timeline attributed zero compute to it — `acfd profile` on a
        # chaos run misreported the crashed rank
        def body(comm):
            if comm.rank == 1:
                time.sleep(0.02)
                raise RuntimeError("injected death")
            return comm.rank

        trace = None
        with pytest.raises(RuntimeCommError, match="injected death"):
            from repro.runtime.trace import Trace
            trace = Trace()
            spmd_run(2, body, timeout=5.0, trace=trace)
        envelopes = {e.rank: e for e in trace.snapshot()
                     if e.kind == "rank"}
        assert set(envelopes) == {0, 1}, \
            "every rank gets an envelope, crashed ones included"
        crashed = envelopes[1]
        # t1 is the failure time: the window covers the work done
        # before the death (here, at least the 20 ms sleep)
        assert crashed.t1 >= crashed.t0
        assert crashed.dur >= 0.02
