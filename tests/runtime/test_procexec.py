"""Process executor: the Communicator contract across real OS processes.

The thread executor's guarantees — failure propagation with rank
attribution, deadlock diagnosis naming the wait-for cycle, bounded joins
that name stuck ranks, executor-agnostic traces — must survive the jump
to one-process-per-rank, where a "stuck rank" can be a SIGKILLed worker
and every payload crosses a shared-memory channel: in one slot, pickled
over several, or later, from the sender's backlog, when the ring is
full.

Rank bodies here are module-level functions: the process executor pickles
them to the workers (closures are rejected with a clear error, which is
itself under test).
"""

import os
import random
import time

import numpy as np
import pytest

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.interp.values import OffsetArray
from repro.runtime import CartComm, HaloExchanger, HaloSpec
from repro.runtime.procexec import (_FLOAT, _HDR, _SLOT_BYTES, _SLOTS,
                                    get_pool, proc_run)
from repro.runtime.trace import Trace
from repro.runtime.world import spmd_run


# -- module-level rank bodies (picklable) ------------------------------------

def _pingpong(comm):
    if comm.rank == 0:
        comm.send(1, {"n": 41})
        return comm.recv(1)
    msg = comm.recv(0)
    comm.send(0, msg["n"] + 1)
    return "pong"


def _collectives(comm):
    total = comm.allreduce(comm.rank + 1)
    gathered = comm.gather(comm.rank * 10, root=0)
    comm.barrier()
    seeded = comm.bcast(99 if comm.rank == 0 else None, root=0)
    return total, gathered, seeded


def _halo_move(comm):
    field = np.full((32, 16), float(comm.rank + 1))
    peer = 1 - comm.rank
    faces = [np.ascontiguousarray(field[0]),
             np.ascontiguousarray(field[-1])]
    comm.send(peer, faces, tag=3)
    got = comm.recv(peer, 3)
    return [f.tolist() for f in got]


def _big_move(comm):
    # larger than a channel slot: pickled and chunked over five slots
    peer = 1 - comm.rank
    block = np.arange(40_000, dtype=np.float64) + comm.rank
    comm.send(peer, block, tag=1)
    return float(comm.recv(peer, 1).sum())


#: more float64 than the whole ring holds (600 KiB against 512 KiB)
_RING_PLUS = 600 * 1024 // 8


def _bigger_than_the_ring(comm):
    """Both ranks send a payload the ring cannot hold at once, then a
    small one under the same tag, before either receives."""
    peer = 1 - comm.rank
    comm.send(peer, np.arange(_RING_PLUS, dtype=np.float64) / (comm.rank + 3),
              tag=5)
    comm.send(peer, float(comm.rank), tag=5)
    big, small = comm.recv(peer, 5), comm.recv(peer, 5)
    return big.tobytes(), small


def _backlog_across_a_barrier(comm):
    """Rank 0 fills the ring and 12 more, then meets rank 1 at a barrier;
    only then does rank 1 receive."""
    if comm.rank == 0:
        for i in range(_SLOTS + 12):
            comm.send(1, float(i), tag=2)
        comm.barrier()
        return None
    comm.barrier()
    return [comm.recv(0, 2) for _ in range(_SLOTS + 12)]


def _sends_nobody_receives(comm):
    """Leaves a full ring and a backlog that ends in a chunked message."""
    if comm.rank == 0:
        for i in range(_SLOTS + 12):
            comm.send(1, ("stale", i), tag=2)
        comm.send(1, np.zeros(_RING_PLUS), tag=2)
    comm.barrier()


def _fresh_after_stale(comm):
    if comm.rank == 0:
        for i in range(_SLOTS + 12):
            comm.send(1, ("fresh", i), tag=2)
        comm.barrier()
        return None
    comm.barrier()
    return [comm.recv(0, 2) for _ in range(_SLOTS + 12)]


def _drain_then_pause(comm):
    """Both ranks take (and drop) what the last run left in their
    channels, then report what was published there since."""
    comm.barrier()
    found = comm.probe()
    time.sleep(0.05)
    return found, comm._mailboxes[comm.rank].pending


def _as_plain(obj):
    return ("array", obj.dtype.str, obj.tolist()) \
        if isinstance(obj, np.ndarray) else obj


def _flood(comm):
    """Send everything before receiving anything: 100 small messages of
    mixed kinds plus 3 that no slot can hold, over two tags; then 20
    oversize/small pairs while the peer is already receiving, so the
    sender's backlog is written out while the reader frees slots."""
    peer = 1 - comm.rank
    counts = {1: 0, 2: 0}
    for i in range(100):
        tag = 1 + i % 2
        small = (float(i), (comm.rank, i), np.full(3, i))[i % 3]
        comm.send(peer, small, tag=tag)
        counts[tag] += 1
        if i % 40 == 7:
            comm.send(peer, np.full(20_000, float(i)), tag=tag)
            counts[tag] += 1
    got = {tag: [_as_plain(comm.recv(peer, tag)) for _ in range(n)]
           for tag, n in counts.items()}
    for i in range(20):
        comm.send(peer, np.full(20_000, float(i)), tag=3)
        comm.send(peer, i, tag=3)
    got[3] = [_as_plain(comm.recv(peer, 3)) for _ in range(40)]
    return got


def _odd_arrays(comm):
    """Arrays a raw slot copy could get wrong: strided, and an int32 of
    odd length followed by a float64 that must land 8-byte aligned."""
    strided = np.arange(24.0).reshape(4, 6)[:, ::2]
    odd = np.arange(7, dtype=np.int32)
    if comm.rank == 0:
        comm.send(1, strided, tag=1)
        comm.send(1, odd, tag=1)
        comm.send(1, [odd, np.arange(5.0), strided.T], tag=1)
        return None
    one, two, three = (comm.recv(0, 1) for _ in range(3))
    return [_as_plain(a) for a in (one, two, *three)]


def _send_then_mutate(comm):
    """A plain send copies at send time and leaves the array alone."""
    if comm.rank == 0:
        a = np.arange(6.0)
        comm.send(1, a, tag=1)
        a += 1.0  # still ours: the receiver got a copy, not an alias
        comm.send(1, a, tag=1)
        return a.tolist()
    return [comm.recv(0, 1).tolist(), comm.recv(0, 1).tolist()]


def _face_then_overwrite(comm):
    """Rank 0 ships a halo face and at once overwrites the cells it
    sent; rank 1 receives it only after both met at a barrier."""
    owned = ((1, 8),) if comm.rank == 0 else ((9, 16),)
    local = OffsetArray.from_bounds([(1, 9)] if comm.rank == 0
                                    else [(8, 16)], name="v")
    local.data[...] = comm.rank + 1.0
    plan = HaloExchanger(CartComm(comm, (2,)),
                         [HaloSpec(local, (0,), owned, ((1, 1),))])._faces()
    if comm.rank == 0:
        (face,) = plan.sends
        comm.send_face(face)
        face.views[0][...] = -1.0  # the send view, live in the array
    comm.barrier()
    if comm.rank == 0:
        return local.data.tolist()
    (ghost,) = plan.ghosts
    comm.recv_face(ghost)
    return ghost.views[0].tolist()


def _five_unreceived_then_sigkill(comm):
    if comm.rank == 1:
        for i in range(5):
            comm.send(0, {"stale": i})
        comm.barrier()
        comm.recv(0)  # never comes: rank 0 dies
    comm.barrier()  # all five are published in the 1 -> 0 channel
    os.kill(os.getpid(), 9)


def _die_between_write_and_publish(comm):
    if comm.rank == 0:
        remote = comm._mailboxes[1]
        chan = remote._chan
        # a header with this run's id in the next slot, counter untouched
        _HDR.pack_into(chan.buf, chan.slot(), remote._run_id, 0, -1, 0,
                       _FLOAT, 0, 6.25)
        os.kill(os.getpid(), 9)
    comm.recv(0)


def _all_to_all(comm):
    """Every rank sends to every other on 12 tags, 25 rounds, in one
    shuffled order and receives in another; exact and wildcard receives
    must pair everything up."""
    tags = list(range(12))
    peers = [p for p in range(comm.size) if p != comm.rank]
    rng = random.Random(1234 + comm.rank)
    for rnd in range(25):
        for peer in peers:
            rng.shuffle(tags)
            for t in tags:
                comm.send(peer, (comm.rank, t, rnd), tag=t)
        pairs = [(p, t) for p in peers for t in tags]
        rng.shuffle(pairs)
        for p, t in pairs:
            assert comm.recv(p, tag=t) == (p, t, rnd)
        comm.send((comm.rank + 1) % comm.size, rnd, tag=99)
        assert comm.recv(None, tag=99) == rnd
    return True


def _boom(comm):
    if comm.rank == 1:
        raise ValueError("kaboom")
    comm.barrier()


def _cycle(comm):
    comm.recv((comm.rank + 1) % comm.size)


def _suicide(comm):
    if comm.rank == 0:
        os.kill(os.getpid(), 9)
    comm.recv(0)


def _spin_then_die(comm):
    if comm.rank == 0:
        raise RuntimeError("first failure")
    while True:  # compute-only: never observes the world failure
        time.sleep(0.01)


def _traced(comm):
    peer = 1 - comm.rank
    comm.send(peer, comm.rank, tag=1)
    comm.recv(peer, 1)
    time.sleep(0.01)
    return comm.rank


class TestHappyPath:
    def test_pingpong_and_result_collection(self):
        w = proc_run(2, _pingpong, timeout=15.0)
        assert w.results == [42, "pong"]

    def test_collectives_match_thread_executor(self):
        thread = spmd_run(4, _collectives, timeout=15.0)
        proc = spmd_run(4, _collectives, timeout=15.0,
                        executor="process")
        assert proc.results == thread.results

    def test_move_payloads_cross_the_shm_ring(self):
        w = proc_run(2, _halo_move, timeout=15.0)
        # each rank receives its peer's faces, bit-for-bit
        assert w.results[0] == [[2.0] * 16, [2.0] * 16]
        assert w.results[1] == [[1.0] * 16, [1.0] * 16]
        assert w.transport["ring"] == 2 and w.transport["overflow"] == 0

    def test_oversize_move_takes_the_overflow_pipe(self):
        base = float(np.arange(40_000, dtype=np.float64).sum())
        w = proc_run(2, _big_move, timeout=15.0)
        assert w.results == [base + 40_000, base]
        assert w.transport["ring"] == 0 and w.transport["overflow"] == 2

    def test_sends_never_block_and_streams_keep_send_order(self):
        on_threads = spmd_run(2, _flood, timeout=30.0)
        on_processes = proc_run(2, _flood, timeout=30.0)
        assert on_processes.results == on_threads.results
        for rank, got in enumerate(on_threads.results):
            # the thread executor is the oracle; spot-check it too
            assert got[3] == [x for i in range(20) for x in (
                ("array", "<f8", [float(i)] * 20_000), i)]
            assert got[1][0] == 0.0 and got[2][0] == (1 - rank, 1)
        assert on_threads.transport is None
        # 3 + 20 oversize per rank, and whatever found the ring full
        assert on_processes.transport["overflow"] >= 46
        assert (on_processes.transport["ring"]
                + on_processes.transport["overflow"]) == 2 * 143

    def test_more_ranks_than_cores_all_to_all(self):
        # 36 messages per pair and round against 8 slots: ring, backlog
        # and flusher under scheduler pressure
        w = proc_run(4, _all_to_all, timeout=60.0)
        assert all(w.results)
        assert w.transport["ring"] + w.transport["overflow"] \
            == 4 * 25 * (3 * 12 + 1)

    def test_payload_bigger_than_the_ring_streams_in_send_order(self):
        on_threads = spmd_run(2, _bigger_than_the_ring, timeout=30.0)
        on_processes = proc_run(2, _bigger_than_the_ring, timeout=30.0)
        assert _RING_PLUS * 8 > _SLOTS * _SLOT_BYTES
        assert on_processes.results == on_threads.results
        assert [small for _, small in on_processes.results] == [1.0, 0.0]
        # each rank's big one is chunked; its small one is deferred
        # behind it unless the reader had already freed the ring
        transport = on_processes.transport
        assert transport["overflow"] >= 2
        assert transport["ring"] + transport["overflow"] == 4

    def test_backlog_waits_out_a_barrier_and_keeps_send_order(self):
        w = proc_run(2, _backlog_across_a_barrier, timeout=15.0)
        assert w.results[1] == [float(i) for i in range(_SLOTS + 12)]
        # rank 1 frees no slot before the barrier: what did not fit the
        # ring was deferred
        assert w.transport["ring"] <= _SLOTS
        assert w.transport["ring"] + w.transport["overflow"] == _SLOTS + 12

    def test_backlog_of_a_finished_run_is_dropped(self):
        proc_run(2, _sends_nobody_receives, timeout=15.0)
        # rank 1 frees the slots the last run filled: nothing of that
        # run's backlog is written into them
        w = proc_run(2, _drain_then_pause, timeout=15.0)
        assert w.results == [(False, 0), (False, 0)]
        # and a run after one like it receives nothing stale
        proc_run(2, _sends_nobody_receives, timeout=15.0)
        w = proc_run(2, _fresh_after_stale, timeout=15.0)
        assert w.results[1] == [("fresh", i) for i in range(_SLOTS + 12)]

    def test_strided_and_odd_length_arrays_round_trip_bitwise(self):
        on_threads = spmd_run(2, _odd_arrays, timeout=15.0)
        on_processes = proc_run(2, _odd_arrays, timeout=15.0)
        assert on_processes.results == on_threads.results
        assert on_processes.results[1][1] == ("array", "<i4",
                                              list(range(7)))
        assert on_processes.transport["overflow"] == 0

    def test_plain_send_copies_and_leaves_the_senders_array_alone(self):
        w = proc_run(2, _send_then_mutate, timeout=15.0)
        assert w.results[1] == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                                [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]
        assert w.results[0] == w.results[1][1]

    @pytest.mark.parametrize("run", [spmd_run, proc_run],
                             ids=["threads", "processes"])
    def test_face_send_copies_once_and_the_receiver_owns_it(self, run):
        w = run(2, _face_then_overwrite, timeout=15.0)
        assert w.results[0] == [1.0] * 7 + [-1.0, 1.0]
        assert w.results[1] == [1.0]  # what cell 8 held at the send

    def test_pool_is_reused_across_runs(self):
        proc_run(2, _pingpong, timeout=15.0)
        pids = [w.process.pid for w in get_pool(2).workers]
        proc_run(2, _pingpong, timeout=15.0)
        assert [w.process.pid for w in get_pool(2).workers] == pids

    def test_dispatch_through_spmd_run(self):
        w = spmd_run(2, _pingpong, timeout=15.0, executor="process")
        assert w.results == [42, "pong"]
        with pytest.raises(RuntimeCommError, match="unknown executor"):
            spmd_run(2, _pingpong, executor="fiber")


class TestFailures:
    def test_failure_propagates_with_rank_attribution(self):
        with pytest.raises(RuntimeCommError,
                           match="rank 1 failed: ValueError: kaboom"):
            proc_run(2, _boom, timeout=10.0)

    def test_deadlock_diagnosis_names_the_cycle(self):
        with pytest.raises(RuntimeDeadlockError) as exc_info:
            proc_run(2, _cycle, timeout=60.0)
        msg = str(exc_info.value)
        assert "wait-for cycle" in msg
        assert "rank 0 -> rank 1 -> rank 0" in msg
        # and it came from detection, not the 60 s watchdog

    def test_sigkilled_worker_is_detected_and_named(self):
        with pytest.raises(RuntimeCommError) as exc_info:
            proc_run(2, _suicide, timeout=5.0)
        msg = str(exc_info.value)
        assert "rank 0" in msg
        assert "died without reporting" in msg

    def test_pool_recovers_after_a_worker_death(self):
        with pytest.raises(RuntimeCommError):
            proc_run(2, _suicide, timeout=5.0)
        w = proc_run(2, _pingpong, timeout=15.0)
        assert w.results == [42, "pong"]

    def test_dead_runs_messages_are_dropped_not_delivered(self):
        # five published, never received; the respawned rank 0 finds them
        # in its channel, with the reader's counter where the corpse left
        # it, and must drop them by run id
        with pytest.raises(RuntimeCommError, match="rank 0"):
            proc_run(2, _five_unreceived_then_sigkill, timeout=5.0)
        w = proc_run(2, _pingpong, timeout=15.0)
        assert w.results == [42, "pong"]
        assert (w.transport["ring"], w.transport["overflow"]) == (2, 0)

    def test_death_between_write_and_publish_leaves_the_channel_usable(
            self):
        with pytest.raises(RuntimeCommError, match="rank 0"):
            proc_run(2, _die_between_write_and_publish, timeout=5.0)
        w = proc_run(2, _pingpong, timeout=15.0)
        assert w.results == [42, "pong"]

    def test_stuck_compute_rank_is_killed_and_named(self):
        t0 = time.monotonic()
        with pytest.raises(RuntimeCommError) as exc_info:
            proc_run(2, _spin_then_die, timeout=1.5)
        msg = str(exc_info.value)
        assert "rank(s) 1" in msg and "did not stop" in msg
        assert "rank 0" in msg and "first failure" in msg
        assert time.monotonic() - t0 < 30.0
        # the spinner was killed, not leaked: the pool respawns it
        w = proc_run(2, _pingpong, timeout=15.0)
        assert w.results == [42, "pong"]

    def test_unpicklable_body_is_rejected_eagerly(self):
        captured = {}
        with pytest.raises(RuntimeCommError, match="picklable"):
            proc_run(2, lambda comm: captured, timeout=5.0)


class TestTraceMerge:
    def test_worker_events_land_on_the_callers_clock(self):
        trace = Trace()
        w = spmd_run(2, _traced, timeout=15.0, trace=trace,
                     executor="process")
        assert w.results == [0, 1]
        events = trace.snapshot()
        kinds = {e.kind for e in events}
        assert {"send", "recv", "rank"} <= kinds
        assert {e.rank for e in events if e.kind == "rank"} == {0, 1}
        for e in events:
            assert e.t0 >= 0.0, f"{e.kind} landed before the epoch"
            assert e.t1 >= e.t0, f"{e.kind} span runs backwards"
        # rank envelopes cover the bodies' sleeps on the merged clock
        env = {e.rank: e for e in events if e.kind == "rank"}
        assert env[0].dur >= 0.01 and env[1].dur >= 0.01

    def test_crashed_rank_still_ships_its_trace(self):
        trace = Trace()
        with pytest.raises(RuntimeCommError):
            spmd_run(2, _boom, timeout=10.0, trace=trace,
                     executor="process")
        envelopes = {e.rank for e in trace.snapshot()
                     if e.kind == "rank"}
        assert 1 in envelopes, "the failing rank's envelope was lost"
