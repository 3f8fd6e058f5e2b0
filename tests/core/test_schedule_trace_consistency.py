"""Cross-validation: the simulator's schedule vs the runtime's trace.

The simulator never executes the program — it replays the extracted
schedule.  These tests pin the two views together: the number of
communication phases the schedule predicts per frame must equal the
number of exchanges the real runtime performs per frame, and the message
sizes the simulator charges must match the bytes actually shipped.
"""

import dataclasses

import pytest

from repro.apps.kernels import jacobi_5pt
from repro.apps.sprayer import SPRAYER_INPUT, sprayer_source
from repro.codegen.schedule import ReducePhase, extract_schedule
from repro.core import AutoCFD
from repro.simulate import ClusterSim, MachineModel, NetworkModel

from tests.conftest import JACOBI_SRC


def fixed_frames_src(frames: int) -> str:
    """Jacobi with the convergence exit removed: exactly *frames* frames."""
    return JACOBI_SRC.replace("do iter = 1, 120",
                              f"do iter = 1, {frames}") \
                     .replace("    if (err .lt. eps) exit\n", "")


class TestExchangeCounts:
    def test_per_frame_exchanges_match_schedule(self):
        frames = 6
        acfd = AutoCFD.from_source(fixed_frames_src(frames))
        compiled = acfd.compile(partition=(2, 1))
        schedule = extract_schedule(compiled.plan)
        par = compiled.run_parallel()

        traced = par.trace.count("exchange", rank=0)
        in_frame = len(schedule.comm_phases)
        # the stencil sync is entry-only: off the periodic schedule, one
        # exchange on the first trip
        once = len(compiled.plan.syncs) - in_frame
        assert (in_frame, once) == (1, 1)
        assert traced == frames * in_frame + once, \
            (traced, frames, in_frame, once)

    def test_reduce_count_matches(self):
        frames = 4
        acfd = AutoCFD.from_source(fixed_frames_src(frames))
        # err rides sync 2: at 2x1 its round folds it, at 4x1 one
        # allreduce per frame follows the round
        for dims, per_frame in (((2, 1), 0), ((4, 1), 1)):
            compiled = acfd.compile(partition=dims)
            reduces = [p for p in extract_schedule(compiled.plan).phases
                       if isinstance(p, ReducePhase)]
            assert sum(p.count for p in reduces) == per_frame
            par = compiled.run_parallel()
            assert par.trace.count("allreduce", rank=0) == frames * per_frame


def residual_read_early(frames: int) -> str:
    """Jacobi whose residual is tested before the copy-back, where no
    sync can carry it: it keeps its allreduce (eps 0: every frame runs)."""
    return fixed_frames_src(frames).replace(
        "    do i = 2, n - 1\n      do j = 2, m - 1\n"
        "        v(i, j) = vnew(i, j)",
        "    if (err .lt. 0.0) exit\n"
        "    do i = 2, n - 1\n      do j = 2, m - 1\n"
        "        v(i, j) = vnew(i, j)")


class TestAllreduceTraffic:
    """An allreduce puts on the wire what the model charges it: one
    8-byte value each way per recursive-doubling round, on every rank."""

    @pytest.mark.parametrize("dims", [(2, 1), (2, 2)], ids=["2x1", "2x2"])
    def test_traced_bytes_and_messages_equal_the_model(self, dims):
        frames = 3
        compiled = AutoCFD.from_source(residual_read_early(frames)).compile(
            partition=dims)
        assert compiled.plan.reductions[0].rides == {}
        par = compiled.run_parallel()
        sim = ClusterSim(compiled.plan, MachineModel(), NetworkModel())
        sim.schedule.phases = [p for p in sim.schedule.phases
                               if isinstance(p, ReducePhase)]
        model = sim.run(frames)
        for rank in range(len(model.sent_bytes)):
            traced = sum(e.nbytes for e in par.trace.snapshot()
                         if e.kind == "allreduce" and e.rank == rank)
            assert traced == model.sent_bytes[rank] + model.recv_bytes[rank]
            # each message is one 8-byte scalar
            assert traced // 8 == (model.sent_msgs[rank]
                                   + model.recv_msgs[rank])


def _schedule_msgs_per_frame(plan) -> int:
    """Halo messages one frame of the schedule stands for: a comm phase
    is one aggregated message per rank and neighbor."""
    part = plan.partition
    links = sum(1 for r in range(part.size) for g in part.cut_dims
                for d in (-1, 1) if part.neighbor(r, g, d) is not None)
    return links * len(extract_schedule(plan).comm_phases)


class TestMessagesPerFrame:
    """The model and the runtime agree on what is countable: every frame
    after the first sends exactly the schedule's messages."""

    @pytest.mark.parametrize("name,source,deck,per_frame,once", [
        ("jacobi_5pt", lambda f: jacobi_5pt(n=24, m=16, iters=f, eps=0.0),
         None, 2, 2),
        ("sprayer", lambda f: sprayer_source(n=48, m=20, iters=f, eps=0.0),
         SPRAYER_INPUT, 14, 0),
    ])
    def test_traced_sends_match_the_schedule(self, name, source, deck,
                                             per_frame, once):
        sends = {}
        sent_bytes = {}
        # the model charged in the runtime's float64 values
        machine = dataclasses.replace(MachineModel(), value_bytes=8)
        for frames in (3, 5):
            compiled = AutoCFD.from_source(source(frames)).compile(
                partition=(2, 1))
            assert _schedule_msgs_per_frame(compiled.plan) == per_frame
            par = compiled.run_parallel(input_text=deck)
            sends[frames] = par.comm_stats["sends"]
            sent_bytes[frames] = par.comm_stats["bytes_sent"]
            # the residual rides a halo round: no allreduce anywhere
            assert par.trace.count("allreduce") == 0
        # *once*: what the entry-only syncs send on the first trip
        assert sends == {3: 3 * per_frame + once, 5: 5 * per_frame + once}
        # bytes per frame, the carried residual included
        model = ClusterSim(compiled.plan, machine, NetworkModel()).run(1)
        assert (sent_bytes[5] - sent_bytes[3]) // 2 \
            == sum(model.sent_bytes) == sum(model.recv_bytes)


class TestCountablesAcrossExecutors:
    """What is countable does not depend on how a message travels: on
    the process executor a face is written straight into the channel
    slot and read straight into the ghost cells, and it is still one
    ``send`` that skipped the defensive copy (``saved_bytes``), one
    ``recv``, one ``halo_pack`` and one ``halo_unpack``."""

    KINDS = ("send", "recv", "halo_pack", "halo_unpack", "exchange")

    @pytest.mark.parametrize("name,source,deck", [
        ("jacobi_5pt", jacobi_5pt(n=64, m=32, iters=12, eps=0.0), None),
        ("sprayer", sprayer_source(n=48, m=20, iters=4, eps=0.0),
         SPRAYER_INPUT),
    ])
    def test_process_counts_equal_thread_counts(self, name, source, deck):
        compiled = AutoCFD.from_source(source).compile(partition=(2, 1))
        runs = {executor: compiled.run_parallel(
                    input_text=deck, timeout=60.0, executor=executor)
                for executor in ("thread", "process")}
        thread, proc = runs["thread"], runs["process"]
        for kind in self.KINDS:
            assert proc.trace.count(kind) == thread.trace.count(kind), kind
        assert thread.trace.count("halo_unpack") > 0
        for key in ("sends", "bytes_sent", "saved_bytes",
                    "collective_bytes", "syncs_by_kind"):
            assert proc.comm_stats[key] == thread.comm_stats[key], key
        assert proc.comm_stats["saved_bytes"] > 0
        # a recv keeps its blocked time: stamps in order, none negative
        for e in proc.trace.snapshot():
            if e.kind == "recv":
                assert e.wait_s >= 0.0 and e.t1 >= e.t0
        assert sum(e.nbytes for e in proc.trace.snapshot()
                   if e.kind == "recv") == proc.comm_stats["bytes_sent"]


class TestMessageBytes:
    def test_simulated_face_bytes_match_traced(self):
        frames = 3
        acfd = AutoCFD.from_source(fixed_frames_src(frames))
        compiled = acfd.compile(partition=(2, 1))
        par = compiled.run_parallel()

        sim = ClusterSim(compiled.plan, MachineModel(), NetworkModel())
        schedule = sim.schedule
        # per frame, rank 0 sends one aggregated message per comm phase
        per_frame_sim = sum(
            sim._face_bytes(0, 0, phase.arrays, +1)
            for phase in schedule.comm_phases)
        # traced: halo payload bytes per frame (value_bytes differ: the
        # runtime ships float64, the model charges float32) — compare
        # value counts
        traced_halo = [m for m in par.trace.messages(rank=0)
                       if m.tag is not None and m.tag >= (1 << 16)
                       and m.tag < (1 << 17)]
        traced_values = sum(m.nbytes for m in traced_halo) / 8
        sim_values = per_frame_sim / MachineModel().value_bytes
        # the schedule covers what travels every frame; the trace also
        # has the entry-only exchange of the first trip, one more
        # message of the same size; every frame's message also carries
        # the residual (err rides sync 2), one value the comm phase
        # records
        carried = sum(p.reductions for p in schedule.comm_phases)
        assert carried == 1
        assert traced_values == (frames + 1) * sim_values + frames * carried


class TestOpsEstimate:
    def test_compute_phase_ops_track_loop_body(self):
        acfd = AutoCFD.from_source(fixed_frames_src(3))
        plan = acfd.compile(partition=(2, 1)).plan
        schedule = extract_schedule(plan)
        stencil = max(schedule.compute_phases, key=lambda p: p.ops_per_point)
        copy = min(schedule.compute_phases, key=lambda p: p.ops_per_point)
        # the 5-point stencil + reduction does far more per point than
        # the copy-back loop
        assert stencil.ops_per_point >= 5 * max(1, copy.ops_per_point)
