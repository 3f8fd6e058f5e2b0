"""One deadlock rule on both executors.

Process twins of ``test_runtime_stress.py::TestDeadlockDetection`` and
of ``test_inject.py``'s dropped-message deadlock: each deadlock is
diagnosed within seconds on processes, and in the same words as on
threads once the ``for N.NNs`` wait durations are masked.  Then the
in-flight term of the rule (a delayed message held longer than the quiet
window is not a deadlock) and the status block's ``failed`` / ``died``.

Rank bodies are module-level functions: the process executor pickles
them to the workers.
"""

import os
import re
import time

import pytest

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.runtime import spmd_run
from repro.runtime.comm import _QUIET

EXECUTORS = ("thread", "process")


# -- module-level rank bodies (picklable) ------------------------------------

def _two_rank_cycle(comm):
    comm.recv(1 - comm.rank, tag=1)


def _three_rank_cycle(comm):
    comm.recv((comm.rank + 1) % 3, tag=2)


def _blocked_on_finished(comm):
    if comm.rank == 0:
        return "done"
    comm.recv(0, tag=3)


def _recv_and_barrier(comm):
    if comm.rank == 0:
        comm.recv(1, tag=1)
    else:
        comm.barrier()


def _fifty_barriers(comm):
    for _ in range(50):
        comm.barrier()
    return True


def _slow_sender(comm):
    if comm.rank == 0:
        time.sleep(1.0)  # > the detector's quiet window
        for peer in range(1, 4):
            comm.send(peer, "late", tag=4)
        return "sender"
    return comm.recv(0, tag=4)


def _one_message(comm):
    if comm.rank == 0:
        comm.send(1, "late")
        return None
    return comm.recv(0)


def _spin(seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:  # compute-only: never sees the failure
        time.sleep(0.01)


def _raise_then_spin(comm):
    if comm.rank == 0:
        raise ValueError("boom")
    _spin(2.0)


def _sigkill_then_spin(comm):
    if comm.rank == 0:
        os.kill(os.getpid(), 9)
    _spin(2.0)


def _plan(*events):
    return FaultPlan(events=list(events), seed=0)


def _deadlock(executor, size, body, injector=None):
    """The deadlock error of *body*, and how long its diagnosis took."""
    t0 = time.perf_counter()
    with pytest.raises(RuntimeDeadlockError) as exc_info:
        spmd_run(size, body, timeout=30.0, executor=executor,
                 injector=injector)
    return str(exc_info.value), time.perf_counter() - t0


def _masked(msg):
    return re.sub(r"for \d+\.\d\ds", "for N.NNs", msg)


def _on_processes_as_on_threads(size, body):
    """The process diagnosis, checked against the thread one."""
    msg, elapsed = _deadlock("process", size, body)
    assert elapsed < 5.0, f"diagnosis took {elapsed:.1f}s (watchdog 30s)"
    on_threads, _ = _deadlock("thread", size, body)
    assert _masked(msg) == _masked(on_threads)
    return msg


class TestDeadlockDetectionOnProcesses:
    def test_two_rank_cycle_is_named(self):
        msg = _on_processes_as_on_threads(2, _two_rank_cycle)
        assert "wait-for cycle rank 0 -> rank 1 -> rank 0" in msg
        assert "blocked in recv" in msg

    def test_three_rank_cycle_is_named(self):
        msg = _on_processes_as_on_threads(3, _three_rank_cycle)
        assert "rank 0 -> rank 1 -> rank 2 -> rank 0" in msg

    def test_blocked_on_finished_rank(self):
        msg = _on_processes_as_on_threads(2, _blocked_on_finished)
        assert "rank 0: finished" in msg
        assert "blocked in recv(source=0" in msg

    def test_mixed_recv_and_barrier_deadlock(self):
        msg = _on_processes_as_on_threads(2, _recv_and_barrier)
        assert "rank 0: blocked in recv(source=1, tag=1)" in msg
        assert "rank 1: blocked in barrier" in msg

    def test_clean_full_barrier_is_not_a_deadlock(self):
        w = spmd_run(4, _fifty_barriers, timeout=30.0, executor="process")
        assert all(w.results)

    def test_slow_sender_is_not_a_deadlock(self):
        w = spmd_run(4, _slow_sender, timeout=30.0, executor="process")
        assert w.results[1:] == ["late"] * 3

    def test_dropped_message_becomes_a_detected_deadlock(self):
        def run(executor):
            injector = FaultInjector(_plan(FaultEvent("drop", 0, nth=0)))
            msg, elapsed = _deadlock(executor, 2, _one_message, injector)
            fired = injector.fired()
            assert [f["kind"] for f in fired] == ["drop"]
            assert fired[0]["dest"] == 1
            return msg, elapsed

        msg, elapsed = run("process")
        assert elapsed < 5.0
        assert "all 1 live ranks blocked" in msg
        assert _masked(msg) == _masked(run("thread")[0])


class TestInFlight:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_delay_past_the_quiet_window_is_not_a_deadlock(self, executor):
        # the receiver is the only live rank, blocked, with nothing sent
        # and nothing delivered for longer than the quiet window: only
        # the injector's in-flight count stands between it and a verdict
        seconds = 1.0
        assert seconds > _QUIET + 0.2
        injector = FaultInjector(
            _plan(FaultEvent("delay", 0, nth=0, seconds=seconds)))
        w = spmd_run(2, _one_message, timeout=10.0, executor=executor,
                     injector=injector)
        assert w.results[1] == "late"
        assert [f["kind"] for f in injector.fired()] == ["delay"]


class TestStatusBlock:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_a_body_that_raised_is_failed(self, executor):
        with pytest.raises(RuntimeCommError) as exc_info:
            spmd_run(2, _raise_then_spin, timeout=0.5, executor=executor)
        msg = str(exc_info.value)
        assert "rank(s) 1 did not stop" in msg
        assert "rank 0: failed\n  rank 1: running" in msg

    def test_a_worker_that_died_unreported_is_died(self):
        with pytest.raises(RuntimeCommError) as exc_info:
            spmd_run(2, _sigkill_then_spin, timeout=0.5, executor="process")
        msg = str(exc_info.value)
        assert "died without reporting" in msg
        assert "rank 0: died\n  rank 1: running" in msg
