"""The process executor's matched receive and its ways out.

A receive that names source and tag looks at the head of that source's
channel first and takes the message where it lies
(``_ChannelMailbox.take_head``); a halo face goes from the sender's
array into the slot and from the slot into the ghost cells.  Everything
else — a wildcard, a self-send, another tag at the head, a message
already in its bucket, a chunked message at the head, a dead
run's leftover, an attached injector — has to come out of the inherited
``get`` exactly as before.  ``transport["head_takes"]`` says which way
the messages of a run went.

A halo face builds its wire (``procexec._Wire``) at its first crossing:
after that a face is sent by copying into the next slot's views and
taken by copying out of them, as long as each message's shape words are
the ones the first message was checked with.  A worker's event log
crosses as one int64 buffer that the launcher keeps as one table.
"""

import functools
import re
import threading
import time

import numpy as np
import pytest

from repro.apps.kernels import jacobi_5pt
from repro.core import AutoCFD
from repro.errors import ReproError, RuntimeCommError
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.interp.values import OffsetArray
from repro.obs.health import _STATE, Telemetry
from repro.runtime import CartComm, HaloExchanger, HaloSpec, Trace
from repro.runtime.comm import fill_ghosts
from repro.runtime.halo import _Face, halo_tag
from repro.runtime.procexec import (_CHANNEL_BYTES, _MISS, _SLOT_BYTES,
                                    _SLOTS, _Channel, _ChannelMailbox,
                                    _RemoteMailbox, proc_run)
from repro.runtime.world import spmd_run

from tests.conftest import residual_tested_early


# -- module-level rank bodies (the process executor pickles them) ------------

def _exchanger(comm, narrays=1, dtype=np.float64):
    """A 16-point line cut in two, ghost width 1, *narrays* arrays each
    filled with ``100 * rank + k``."""
    owned = ((1, 8),) if comm.rank == 0 else ((9, 16),)
    arrays = []
    for k in range(narrays):
        a = OffsetArray.from_bounds([(1, 9)] if comm.rank == 0
                                    else [(8, 16)], dtype=dtype, name=f"a{k}")
        a.data[:] = 100 * comm.rank + k
        arrays.append(a)
    ex = HaloExchanger(CartComm(comm, (2,)),
                       [HaloSpec(a, (0,), owned, ((1, 1),)) for a in arrays])
    return ex, arrays


def _ghost(comm, array):
    return float(array.get(9 if comm.rank == 0 else 8))


def _lockstep(comm):
    """Ping-pong, allreduce and blocking and split halo exchanges: every
    receive names its source and tag, so every message is a head take
    unless its receiver asked more than a spin too early."""
    peer = 1 - comm.rank
    ex, (a,) = _exchanger(comm)
    total = 0.0
    for i in range(50):
        if comm.rank == 0:
            comm.send(peer, np.full(4, float(i)), tag=2)
            total += float(comm.recv(peer, 2).sum())
        else:
            comm.send(peer, comm.recv(peer, 2) + 1.0, tag=2)
        total += comm.allreduce(float(i))
        a.data[:] = 100 * comm.rank + i
        ex.exchange()
        assert _ghost(comm, a) == 100 * peer + i
        ex.begin()
        ex.finish()
    return total


def _wildcards(comm):
    if comm.rank == 1:
        comm.send(0, "any source", tag=4)
        comm.send(0, "any tag", tag=5)
        return None
    return [comm.recv(None, 4), comm.recv(1, None)]


def _two_tags_crossed(comm):
    """Sent A then B, received B then A: B is not at the head when it is
    asked for, and A is in its bucket by the time it is."""
    if comm.rank == 0:
        comm.send(1, "A", tag=1)
        comm.send(1, "B", tag=2)
        comm.barrier()
        return None
    comm.barrier()
    return [comm.recv(0, 2), comm.recv(0, 1)]


def _probed_then_received(comm):
    """probe() and Request.test() move what is published into the
    buckets; the receives that follow must find it there, and the one
    after them is a head take again: its message is published before
    the barrier its receiver leaves to take it."""
    if comm.rank == 0:
        for tag in (5, 6):
            comm.send(1, float(tag), tag=tag)
        comm.barrier()
        comm.barrier()
        comm.send(1, 7.0, tag=7)
        comm.barrier()
        return None
    comm.barrier()
    assert comm.probe(0, 5)
    got = [comm.recv(0, 5)]
    req = comm.irecv(0, 6)
    assert req.test()
    got.append(req.wait())
    comm.barrier()
    comm.barrier()
    got.append(comm.recv(0, 7))
    return got


def _oversize_then_small(comm):
    """The big one is chunked over two slots, the small one follows in
    one: a chunk at the head.  Same tag, then the small one asked for
    first under another tag."""
    big = np.arange(_SLOT_BYTES // 8 + 1, dtype=np.float64)
    if comm.rank == 0:
        comm.send(1, big, tag=3)
        comm.send(1, 1.0, tag=3)
        comm.send(1, big + 1.0, tag=3)
        comm.send(1, 2.0, tag=4)
        comm.send(1, 3.0, tag=3)
        return None
    first, small = comm.recv(0, 3), comm.recv(0, 3)
    other_tag, second = comm.recv(0, 4), comm.recv(0, 3)
    return [float(first.sum()), small, other_tag, float(second.sum()),
            comm.recv(0, 3)]


def _abort_mid_exchange(comm):
    """Rank 1 has shipped its face and a float when rank 0 gives up."""
    ex, _arrays = _exchanger(comm)
    if comm.rank == 1:
        ex.begin()
        comm.send(0, 1.5, tag=9)
    comm.barrier()
    if comm.rank == 0:
        raise ValueError("gave up")
    ex.finish()


def _exchange_after_abort(comm):
    """The same tags as the aborted run used; its leftovers lie at the
    head of rank 0's channel."""
    ex, (a,) = _exchanger(comm)
    if comm.rank == 1:
        comm.send(0, 2.5, tag=9)
    comm.barrier()
    ex.exchange()
    return [_ghost(comm, a), comm.recv(1, 9) if comm.rank == 0 else None]


def _self_send(comm):
    comm.send(comm.rank, {"to": "myself"}, tag=3)
    return comm.recv(comm.rank, 3)


def _injected_exchanges(comm):
    ex, (a,) = _exchanger(comm)
    ghosts = []
    for i in range(4):
        a.data[:] = 100 * comm.rank + i
        ex.exchange()
        ghosts.append(_ghost(comm, a))
    return ghosts


def _second_send_dropped(comm):
    if comm.rank == 0:
        comm.send(1, "a")
        comm.send(1, "b")
        return None
    return comm.recv(0)


def _bad_face(flaw, comm):
    """Rank 0 answers rank 1's exchange of two arrays with a message
    that does not fit rank 1's face plan; the first section always
    does."""
    ex, arrays = _exchanger(comm, narrays=2)
    return _answer_badly(flaw, comm, ex, arrays)


def _bad_face_after_good(flaw, comm):
    """:func:`_bad_face` after two good exchanges: rank 1's ghost face
    has its wire when the message that does not fit comes."""
    ex, arrays = _exchanger(comm, narrays=2)
    ex.exchange()
    ex.exchange()
    return _answer_badly(flaw, comm, ex, arrays)


def _answer_badly(flaw, comm, ex, arrays):
    if comm.rank == 0:
        good = np.full(1, 7.0)
        comm.send(1, {"count": [good],
                      "shape": [good, np.full(2, 7.0)],
                      "dtype": [good, np.full(1, 7, dtype=np.int64)]}[flaw],
                  tag=halo_tag(0, 0, 1))
        comm.barrier()
        comm.recv(1, halo_tag(0, 0, -1))
        return None
    before = [a.data.copy() for a in arrays]
    comm.barrier()  # the message is published: this is a head take
    try:
        ex.exchange()
    except RuntimeCommError as exc:
        return str(exc), all(np.array_equal(a.data, b)
                             for a, b in zip(arrays, before))
    return "no error", False


def _values(trip, rank, k):
    """What array *k* of *rank* holds on *trip*: fresh every trip."""
    return np.random.default_rng([trip, rank, k]).random(9)


def _many_trips(comm):
    """A face of two arrays crosses 3 * _SLOTS + 1 times, fresh values
    each time: every ghost is bitwise what the peer held."""
    peer = 1 - comm.rank
    ex, arrays = _exchanger(comm, narrays=2)
    at = 1 if comm.rank == 0 else 7  # the peer's index of my ghost cell
    for trip in range(3 * _SLOTS + 1):
        for k, a in enumerate(arrays):
            a.data[:] = _values(trip, comm.rank, k)
        ex.exchange()
        for k, a in enumerate(arrays):
            ghost = a.data[-1 if comm.rank == 0 else 0]
            assert ghost.tobytes() == _values(trip, peer, k)[at].tobytes()
    plan = ex._faces()
    return [face.wire is not None for face in plan.sends + plan.ghosts]


def _backlogged_faces(comm):
    """Rank 1 sends a face _SLOTS + 4 times before rank 0 takes any."""
    ex, (a,) = _exchanger(comm)
    plan = ex._faces()
    if comm.rank == 1:
        face, = plan.sends
        for trip in range(_SLOTS + 4):
            a.data[:] = trip
            comm.send_face(face)
        comm.barrier()
        return None
    face, = plan.ghosts
    comm.barrier()
    got = []
    for _trip in range(_SLOTS + 4):
        comm.recv_face(face)
        got.append(_ghost(comm, a))
    return got


def _big_face(comm):
    """A face of one row of more doubles than a slot holds."""
    peer = 1 - comm.rank
    cols = _SLOT_BYTES // 8 + 1
    rows = (1, 9) if comm.rank == 0 else (8, 16)
    a = OffsetArray.from_bounds([rows, (1, cols)], name="big")

    def fill(rank):
        return 100 * rank + np.arange(9 * cols,
                                      dtype=np.float64).reshape(9, cols)

    a.data[:] = fill(comm.rank)
    owned = ((1, 8),) if comm.rank == 0 else ((9, 16),)
    ex = HaloExchanger(CartComm(comm, (2,)),
                       [HaloSpec(a, (0, None), owned, ((1, 1),))])
    ex.exchange()
    ghost = a.data[-1 if comm.rank == 0 else 0]
    sent = fill(peer)[1 if comm.rank == 0 else 7]
    plan = ex._faces()
    return (ghost.tobytes() == sent.tobytes(),
            [face.wire for face in plan.sends + plan.ghosts])


def _channel_pair():
    """Both ends of one channel in this process, no flusher."""
    buf = memoryview(bytearray(_CHANNEL_BYTES))
    doorbell = threading.Semaphore(0)
    sender = _RemoteMailbox(1, _Channel(buf, 0, True), threading.Lock(),
                            doorbell, threading.Event())
    return sender, _ChannelMailbox(1, {0: _Channel(buf, 0, False)},
                                   doorbell)


def _slow_peer_in_halo(comm):
    """Both ranks in the halo state; rank 1 stays there 0.4 s before it
    exchanges, so rank 0's receive outlasts the spin."""
    tele = comm.telemetry
    ex, (a,) = _exchanger(comm)
    comm.barrier()
    prev = tele.enter(3)  # S_HALO, as RankRuntime._in_halo does
    if comm.rank == 1:
        time.sleep(0.4)
    ex.exchange()
    comm.barrier()
    for _ in range(5):  # in lockstep now: head takes
        ex.exchange()
    state = int(tele.row[_STATE])
    tele.enter(prev)
    return state, _ghost(comm, a)


# -- the tests -----------------------------------------------------------------


class TestHeadTake:
    def test_lockstep_traffic_is_taken_in_place(self):
        on_threads = spmd_run(2, _lockstep, timeout=30.0)
        on_processes = proc_run(2, _lockstep, timeout=30.0)
        assert on_processes.results == on_threads.results
        transport = on_processes.transport
        # per rank and round: a ping or pong, an allreduce hop, two faces
        assert transport["ring"] == 2 * 50 * 4
        assert transport["overflow"] == 0
        # the rest asked more than a spin before their message came,
        # which is the scheduler's doing: most, even on a busy host
        assert transport["ring"] // 2 <= transport["head_takes"] \
            <= transport["ring"]

    def test_jacobi_run_takes_nine_in_ten_in_place_and_packs_nothing(self):
        """Counts, not times."""
        compiled = AutoCFD.from_source(
            jacobi_5pt(n=64, m=32, iters=200, eps=0.0)).compile(
                partition=(2, 1))
        on_threads = compiled.run_parallel(timeout=60.0)
        shares = []
        for _attempt in range(3):  # a rank that loses its core mid-run
            # is late for a stretch of receives: best of three
            par = compiled.run_parallel(timeout=60.0, executor="process")
            assert (par.array("v").data.tobytes()
                    == on_threads.array("v").data.tobytes())
            transport = par.comm_stats["transport"]
            assert transport["overflow"] == 0
            assert transport["ring"] >= par.comm_stats["sends"] > 0
            shares.append(transport["head_takes"] / transport["ring"])
            if shares[-1] >= 0.9:
                break
        assert max(shares) >= 0.9, shares


class TestWaysOut:
    def test_wildcard_receives(self):
        w = proc_run(2, _wildcards, timeout=15.0)
        assert w.results[0] == ["any source", "any tag"]
        assert (w.transport["ring"], w.transport["head_takes"]) == (2, 0)

    def test_two_tags_received_in_the_other_order(self):
        w = proc_run(2, _two_tags_crossed, timeout=15.0)
        assert w.results[1] == ["B", "A"]
        assert (w.transport["ring"], w.transport["head_takes"]) == (2, 0)

    def test_message_already_in_its_bucket(self):
        w = proc_run(2, _probed_then_received, timeout=15.0)
        assert w.results[1] == [5.0, 6.0, 7.0]
        assert (w.transport["ring"], w.transport["head_takes"]) == (3, 1)

    def test_order_across_pipe_and_ring(self):
        on_threads = spmd_run(2, _oversize_then_small, timeout=15.0)
        w = proc_run(2, _oversize_then_small, timeout=15.0)
        assert w.results == on_threads.results
        assert w.results[1][1:3] == [1.0, 2.0] and w.results[1][4] == 3.0
        assert (w.transport["ring"], w.transport["overflow"]) == (3, 2)

    def test_leftover_of_an_aborted_run_is_dropped_not_taken(self):
        with pytest.raises(RuntimeCommError, match="rank 0 failed: "
                                                   "ValueError: gave up"):
            proc_run(2, _abort_mid_exchange, timeout=10.0)
        w = proc_run(2, _exchange_after_abort, timeout=15.0)
        assert w.results == [[100.0, 2.5], [0.0, None]]

    def test_self_send(self):
        w = proc_run(2, _self_send, timeout=15.0)
        assert w.results == [{"to": "myself"}] * 2
        assert (w.transport["ring"], w.transport["head_takes"]) == (0, 0)

    def test_injector_sees_every_delivery(self):
        plan = FaultPlan(events=[
            FaultEvent("delay", 0, nth=3, seconds=0.05),  # its last
            FaultEvent("duplicate", 1, nth=2)], seed=0)
        injector = FaultInjector(plan)
        w = spmd_run(2, _injected_exchanges, timeout=15.0,
                     injector=injector, executor="process")
        assert w.results == [[100.0, 101.0, 102.0, 103.0],
                             [0.0, 1.0, 2.0, 3.0]]
        assert sorted(f["kind"] for f in injector.fired()) == [
            "delay", "duplicate"]
        assert injector.in_flight() == 0
        # four faces per rank and the duplicate's second copy (the
        # delayed one may leave after its sender reported)
        assert w.transport["ring"] in (8, 9)
        assert w.transport["head_takes"] == 0

    def test_injected_drop_still_eats_the_message(self):
        injector = FaultInjector(FaultPlan(
            events=[FaultEvent("drop", 0, nth=1)], seed=0))
        w = spmd_run(2, _second_send_dropped, timeout=15.0,
                     injector=injector, executor="process")
        assert w.results[1] == "a"
        assert [f["kind"] for f in injector.fired()] == ["drop"]
        assert w.transport["ring"] == 1


class TestFaceCheckedBeforeGhostsAreWritten:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("flaw,says", [
        ("count", "carries 1 sections for 2 arrays"),
        ("shape", r"section is float64 \(2,\), its ghost face float64 "
                  r"\(1,\)"),
        ("dtype", r"section is int64 \(1,\), its ghost face float64"),
    ])
    def test_mismatch_raises_and_leaves_the_ghosts(self, executor, flaw,
                                                   says):
        w = spmd_run(2, functools.partial(_bad_face, flaw), timeout=15.0,
                     executor=executor)
        message, untouched = w.results[1]
        assert re.search(says, message), message
        assert untouched


class TestFaceWires:
    def test_a_face_crosses_more_times_than_there_are_slots(self):
        w = proc_run(2, _many_trips, timeout=30.0)
        # each rank: its send face and its ghost face have their wires
        assert w.results == [[True, True], [True, True]]
        assert w.transport["overflow"] == 0

    def test_faces_sent_into_a_full_ring_arrive_in_send_order(self):
        w = proc_run(2, _backlogged_faces, timeout=30.0)
        assert w.results[0] == [float(trip) for trip in range(_SLOTS + 4)]
        assert (w.transport["ring"], w.transport["overflow"]) == (_SLOTS, 4)

    def test_a_freed_slot_does_not_let_a_face_past_the_backlog(self):
        sender, receiver = _channel_pair()
        data, ghost = np.zeros(4), np.zeros(4)
        out, into = _Face(1, 3, [data]), _Face(0, 3, [ghost])
        failed = threading.Event()
        got = []

        def take():
            # a backlogged face was pickled: it goes the bucket way
            nbytes, _waited = receiver.take_head(0, 3, failed, into)
            if nbytes is _MISS:
                msg, _waited = receiver.get(0, 3, 5.0, failed)
                fill_ghosts(into.views, msg.payload)
            got.append(float(ghost[0]))

        for trip in range(_SLOTS + 4):
            data[:] = trip
            sender.write_face(out)
        assert sender.overflow == 4
        take()
        take()  # two slots free, four messages still in the backlog
        data[:] = _SLOTS + 4
        sender.write_face(out)
        assert sender.overflow == 5
        while len(got) < _SLOTS + 5:
            sender.flush()
            take()
        assert got == [float(trip) for trip in range(_SLOTS + 5)]
        assert out.wire is not None and into.wire is not None

    def test_a_face_bigger_than_a_slot_crosses_without_a_wire(self):
        w = proc_run(2, _big_face, timeout=30.0)
        assert w.results == [(True, [None, None])] * 2
        assert w.transport["overflow"] == 2

    @pytest.mark.parametrize("flaw,says", [
        ("count", "carries 1 sections for 2 arrays"),
        ("shape", r"section is float64 \(2,\), its ghost face float64 "
                  r"\(1,\)"),
        ("dtype", r"section is int64 \(1,\), its ghost face float64"),
    ])
    def test_a_mismatch_after_the_wire_is_built_is_checked(self, flaw,
                                                           says):
        w = proc_run(2, functools.partial(_bad_face_after_good, flaw),
                     timeout=15.0)
        message, untouched = w.results[1]
        assert re.search(says, message), message
        assert untouched


def _same_events_on_both_executors(source: str, kinds: set) -> None:
    """*source* at 2x1 logs the same events on both executors, with at
    least the event *kinds*."""
    compiled = AutoCFD.from_source(source).compile(partition=(2, 1))
    runs = [compiled.run_parallel(timeout=60.0, executor=executor)
            for executor in ("thread", "process")]
    events = [run.trace.snapshot() for run in runs]
    for rank in (0, 1):
        on_threads, on_processes = (
            [(e.kind, e.peer, e.nbytes, e.tag) for e in got
             if e.rank == rank] for got in events)
        assert on_processes == on_threads
    stats = [run.trace.comm_stats() for run in runs]
    for s in stats:
        del s["wait_s"]
    assert stats[0] == stats[1]
    assert stats[1]["sends"] > 0
    got = events[1]
    assert kinds <= {e.kind for e in got}
    assert all(e.peer is None for e in got
               if e.kind in ("halo_pack", "exchange", "frame", "rank"))
    assert all(e.tag is None for e in got
               if e.kind in ("allreduce", "rank"))
    assert all((e.peer is None or e.peer >= 0)
               and (e.tag is None or e.tag >= 0) for e in got)


class TestEventLogCrossesAsOneBuffer:
    def test_jacobi_records_the_same_events_on_both_executors(self):
        # err rides sync 2 at 2x1: no allreduce; "rank" is the kind with
        # a None tag
        _same_events_on_both_executors(
            jacobi_5pt(n=24, m=16, iters=12, eps=0.0),
            {"halo_pack", "exchange", "frame", "rank"})

    def test_an_allreduce_records_the_same_events_on_both_executors(self):
        # tested before the copy-back, err keeps its allreduce
        _same_events_on_both_executors(
            residual_tested_early(jacobi_5pt(n=24, m=16, iters=12,
                                             eps=0.0)),
            {"halo_pack", "exchange", "allreduce", "frame", "rank"})

    def test_an_absorbed_log_is_rebased_and_decodes_as_written(self):
        parent = Trace()
        worker = Trace(epoch_ns=parent.epoch_ns - 7_000)
        write = worker.writer(1)
        write("send", 0, 32, 5, 32, worker.epoch_ns + 10,
              worker.epoch_ns + 10)
        write("allreduce", None, 8, None, 4_000, worker.epoch_ns + 20,
              worker.epoch_ns + 30)
        parent.absorb(worker.pack(), worker.epoch_ns, shift=2.5)
        send, allreduce = parent.snapshot()
        assert (send.rank, send.kind, send.peer, send.nbytes, send.tag,
                send.saved_bytes) == (1, "send", 0, 32, 5, 32)
        assert (allreduce.kind, allreduce.peer, allreduce.tag,
                allreduce.wait_s) == ("allreduce", None, None, 4e-6)
        # each stamp lands `shift` after where it decodes on its own epoch
        assert send.t0 == send.t1 == 2.5 + 10e-9
        assert (allreduce.t0, allreduce.t1) == (2.5 + 20e-9, 2.5 + 30e-9)
        assert parent.comm_stats()["syncs_by_kind"] == {"allreduce": 1}

    def test_only_the_none_marker_decodes_as_none(self):
        # a negative user tag is legal; only -1 stands for None
        parent, worker = Trace(), Trace()
        for trace in (parent, worker):
            write = trace.writer(0)
            write("send", 1, 8, -5, 0, 1, 2)
            write("send", 1, 8, None, 0, 1, 2)
        parent.absorb(worker.pack(), worker.epoch_ns)
        assert [e.tag for e in parent.snapshot()] == [-5, None, -5, None]

    def test_the_events_of_a_killed_worker_reach_the_launcher(self):
        compiled = AutoCFD.from_source(
            jacobi_5pt(n=24, m=16, iters=8, eps=0.0)).compile(
                partition=(2, 1))
        injector = FaultInjector(
            FaultPlan(events=[FaultEvent("crash", 1, frame=4)], seed=0))
        trace = Trace()
        with pytest.raises(ReproError, match="injected crash on rank 1"):
            compiled.run_parallel(executor="process", trace=trace,
                                  injector=injector, timeout=30.0)
        killed = [e for e in trace.snapshot() if e.rank == 1]
        assert killed[-1].kind == "fault_crash"
        assert "rank" not in {e.kind for e in killed}
        assert [e.tag for e in killed if e.kind == "frame"][-1] == 4


@pytest.mark.livesmoke
class TestLiveTelemetry:
    def test_board_shows_blocked_and_halo(self):
        tele = Telemetry(2, shared=True)
        seen: set[tuple[str, str]] = set()
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                seen.add(tuple(s.state for s in tele.samples()))
                time.sleep(0.01)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            w = spmd_run(2, _slow_peer_in_halo, timeout=15.0,
                         telemetry=tele, executor="process")
        finally:
            stop.set()
            watcher.join(timeout=5.0)
            tele.close()
        assert not watcher.is_alive()
        # rank 0 waited in its receive while rank 1 sat in the halo state
        assert ("blocked", "halo") in seen, seen
        # and a receive, taken in place or not, gives the state back
        assert w.results == [(3, 100.0), (3, 0.0)]
        assert w.transport["head_takes"] >= 1
