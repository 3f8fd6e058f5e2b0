"""Stress and failure-mode tests for the message-passing runtime.

Covers heavy out-of-order tagged traffic across 8 ranks, trace queries
racing active recording, and deliberately deadlocked programs that must be
diagnosed (with the wait-for cycle named) long before the wall-clock
watchdog would fire.
"""

import random
import threading
import time

import pytest

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.runtime import Trace, spmd_run


class TestOutOfOrderContention:
    def test_eight_ranks_all_to_all_shuffled_tags(self):
        # every rank sends one message per (peer, tag) in a rank-seeded
        # shuffled order and receives in an independently shuffled order;
        # indexed matching must pair them all up correctly
        SIZE, NTAGS = 8, 12

        def body(comm):
            tags = list(range(NTAGS))
            rng = random.Random(1234 + comm.rank)
            for peer in range(SIZE):
                if peer == comm.rank:
                    continue
                order = tags[:]
                rng.shuffle(order)
                for t in order:
                    comm.send(peer, (comm.rank, t), tag=t)
            pairs = [(p, t) for p in range(SIZE) if p != comm.rank
                     for t in tags]
            random.Random(999 - comm.rank).shuffle(pairs)
            for p, t in pairs:
                assert comm.recv(p, tag=t) == (p, t)
            return True

        w = spmd_run(SIZE, body, timeout=60.0)
        assert all(w.results)

    def test_wildcard_source_under_contention(self):
        def body(comm):
            if comm.rank == 0:
                seen = sorted(comm.recv(None, tag=5) for _ in range(7))
                assert seen == list(range(1, 8))
                return True
            comm.send(0, comm.rank, tag=5)
            return True

        w = spmd_run(8, body, timeout=30.0)
        assert all(w.results)

    def test_fifo_preserved_per_pair_under_ring_storm(self):
        SIZE, N = 8, 200

        def body(comm):
            nxt = (comm.rank + 1) % SIZE
            prev = (comm.rank - 1) % SIZE
            for i in range(N):
                comm.send(nxt, i, tag=i % 5)
            for i in range(N):
                assert comm.recv(prev, tag=i % 5) == i
            return True

        w = spmd_run(SIZE, body, timeout=60.0)
        assert all(w.results)


class TestConcurrentTraceAccess:
    def test_queries_race_recording(self):
        # query the shared trace from the launcher thread while 8 ranks
        # are recording a message storm; counts must be consistent
        # (monotone) and nothing may raise
        trace = Trace()
        stop = threading.Event()
        counts: list[int] = []
        errors: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set():
                    counts.append(trace.count("send"))
                    trace.bytes_sent()
                    trace.sync_count()
                    trace.wait_time()
                    trace.comm_stats()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        t = threading.Thread(target=reader)
        t.start()
        SIZE, N = 8, 150

        def body(comm):
            nxt = (comm.rank + 1) % SIZE
            prev = (comm.rank - 1) % SIZE
            for i in range(N):
                comm.send(nxt, i, tag=0)
            for i in range(N):
                assert comm.recv(prev, tag=0) == i
            comm.barrier()
            return True

        try:
            w = spmd_run(SIZE, body, trace=trace, timeout=60.0)
        finally:
            stop.set()
            t.join()
        assert not errors
        assert all(w.results)
        assert counts == sorted(counts), "send count went backwards"
        assert trace.count("send") == SIZE * N
        assert trace.count("barrier") == SIZE

    def test_timeline_rollups_race_recording(self):
        # build timelines and roll-ups from the launcher thread while 8
        # ranks are recording; derived numbers must stay finite and
        # non-negative and nothing may raise
        trace = Trace()
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set():
                    tl = trace.timeline()
                    roll = tl.rollup()
                    assert roll.load_imbalance >= 1.0
                    for b in roll.ranks:
                        assert b.total >= 0.0
                        assert b.blocked >= 0.0
                    for t0, t1 in tl.frames()[:1]:
                        tl.rollup(t0, t1)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        t = threading.Thread(target=reader)
        t.start()
        SIZE, N = 8, 100

        def body(comm):
            nxt = (comm.rank + 1) % SIZE
            prev = (comm.rank - 1) % SIZE
            for i in range(N):
                comm.send(nxt, i, tag=0)
                comm.recv(prev, tag=0)
                if i % 25 == 0:
                    comm.allreduce(i, "max")
            return True

        try:
            w = spmd_run(SIZE, body, trace=trace, timeout=60.0)
        finally:
            stop.set()
            t.join()
        assert not errors, errors[:1]
        assert all(w.results)
        # settled trace: every rank window covers its leaf events
        roll = trace.timeline().rollup()
        assert len(roll.ranks) == SIZE
        for b in roll.ranks:
            assert b.total >= b.blocked + b.send - 1e-9

    def test_rollup_queries_race_clear(self):
        # clear() while readers roll up: snapshots keep queries
        # self-consistent even as the event list vanishes underneath
        trace = Trace()
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set():
                    roll = trace.timeline().rollup()
                    assert roll.comm_time >= 0.0
                    trace.comm_stats()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def clearer():
            while not stop.is_set():
                trace.clear()

        readers = [threading.Thread(target=reader) for _ in range(2)]
        wiper = threading.Thread(target=clearer)
        for t in (*readers, wiper):
            t.start()
        SIZE = 8

        def body(comm):
            nxt = (comm.rank + 1) % SIZE
            prev = (comm.rank - 1) % SIZE
            for i in range(60):
                comm.send(nxt, i, tag=0)
                comm.recv(prev, tag=0)
            comm.barrier()
            return True

        try:
            w = spmd_run(SIZE, body, trace=trace, timeout=60.0)
        finally:
            stop.set()
            for t in (*readers, wiper):
                t.join()
        assert not errors, errors[:1]
        assert all(w.results)


class TestDeadlockDetection:
    def test_two_rank_cycle_is_named(self):
        def body(comm):
            comm.recv(1 - comm.rank, tag=1)  # both wait: classic cycle

        t0 = time.perf_counter()
        with pytest.raises(RuntimeDeadlockError) as ei:
            spmd_run(2, body, timeout=30.0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, \
            f"detector took {elapsed:.1f}s (watchdog would be 30s)"
        msg = str(ei.value)
        assert "wait-for cycle" in msg
        assert ("rank 0 -> rank 1 -> rank 0" in msg
                or "rank 1 -> rank 0 -> rank 1" in msg)
        assert "blocked in recv" in msg

    def test_three_rank_cycle_is_named(self):
        def body(comm):
            comm.recv((comm.rank + 1) % 3, tag=2)

        with pytest.raises(RuntimeDeadlockError) as ei:
            spmd_run(3, body, timeout=30.0)
        assert "rank 0 -> rank 1 -> rank 2 -> rank 0" in str(ei.value)

    def test_blocked_on_finished_rank(self):
        # not a cycle: rank 1 waits on a rank that already returned; the
        # snapshot must say so
        def body(comm):
            if comm.rank == 0:
                return "done"
            comm.recv(0, tag=3)

        with pytest.raises(RuntimeDeadlockError) as ei:
            spmd_run(2, body, timeout=30.0)
        msg = str(ei.value)
        assert "rank 0: finished" in msg
        assert "blocked in recv(source=0" in msg

    def test_mixed_recv_and_barrier_deadlock(self):
        # rank 0 waits for a message that never comes; rank 1 waits at a
        # barrier rank 0 will never reach
        def body(comm):
            if comm.rank == 0:
                comm.recv(1, tag=1)
            else:
                comm.barrier()

        t0 = time.perf_counter()
        with pytest.raises(RuntimeCommError) as ei:
            spmd_run(2, body, timeout=30.0)
        assert time.perf_counter() - t0 < 5.0
        assert "blocked" in str(ei.value)

    def test_clean_full_barrier_is_not_a_deadlock(self):
        # all ranks meeting at a barrier releases itself; the detector
        # must not trip on it even under repetition
        def body(comm):
            for _ in range(50):
                comm.barrier()
            return True

        w = spmd_run(4, body, timeout=30.0)
        assert all(w.results)

    def test_slow_sender_is_not_a_deadlock(self):
        # a long compute phase on one rank must not be mistaken for a
        # deadlock while the others block on its output
        def body(comm):
            if comm.rank == 0:
                time.sleep(1.0)  # > the detector's quiet window
                for peer in range(1, 4):
                    comm.send(peer, "late", tag=4)
                return "sender"
            return comm.recv(0, tag=4)

        w = spmd_run(4, body, timeout=30.0)
        assert w.results[1:] == ["late"] * 3


class TestLatencySmoke:
    def test_pingpong_is_event_driven(self):
        # tier-1-safe smoke version of benchmarks/test_micro_runtime.py:
        # with condition-variable wakeups a round trip is tens of
        # microseconds; a 50 ms polling tick would fail this by orders of
        # magnitude even on a loaded CI machine
        N = 200

        def body(comm):
            peer = 1 - comm.rank
            comm.barrier()
            t0 = time.perf_counter()
            for i in range(N):
                if comm.rank == 0:
                    comm.send(peer, i, tag=0)
                    comm.recv(peer, tag=1)
                else:
                    comm.recv(peer, tag=0)
                    comm.send(peer, i, tag=1)
            return (time.perf_counter() - t0) / N

        w = spmd_run(2, body, timeout=30.0)
        per_rt = max(w.results)
        assert per_rt < 0.005, \
            f"{per_rt * 1e6:.0f} us/roundtrip — receives are not event-driven"
