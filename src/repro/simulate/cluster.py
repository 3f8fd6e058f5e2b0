"""Cluster simulation of a compiled SPMD program.

:class:`ClusterSim` replays the :class:`repro.codegen.schedule.FrameSchedule`
of a compiled plan over the machine/network models and returns per-rank
times with a compute/communication/pipeline-wait breakdown.  Frames beyond
a warm-up window are extrapolated from the steady-state per-frame delta
(the schedule is frame-periodic), so 50,000-iteration runs cost the same
to simulate as 50.

Timing rules:

* plain field loops: ``points(rank) × ops × op_time(working_set)``;
* combined synchronizations: per neighbor one aggregated message whose
  size is the union of the member arrays' faces; sends serialize through
  the sender's NIC, receives complete at message arrival, and every
  exchange blocks until all ranks have gone through it (PVM's blocking
  exchanges, the paper's and the runtime's only kind);
* pipelined (mirror-image) sweeps: ranks advance in wavefront order along
  the cut dimensions with ``chunks``-way chunking — rank ``c`` may start
  chunk ``k`` only after its minus neighbors finish chunk ``k``;
* reductions: a latency-dominated allreduce that synchronizes all ranks,
  modelled as recursive doubling (one 8-byte value each way per round);
  a reduction riding a combined synchronization instead adds its 8 bytes
  to each of that synchronization's face messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.codegen.plan import ParallelPlan
from repro.codegen.schedule import (
    CommPhase,
    ComputePhase,
    ReducePhase,
    extract_schedule,
)
from repro.errors import SimulationError
from repro.obs.spans import Span
from repro.obs.timeline import RankBreakdown, RunRollup
from repro.partition.halo import ghost_bounds
from repro.partition.partitioner import Partition
from repro.simulate.machine import MachineModel
from repro.simulate.network import NetworkModel

#: frames simulated explicitly before the rest are extrapolated from the
#: last one's steady-state delta
WARMUP_FRAMES = 24

#: bytes one reduced scalar puts on the wire (the runtime's float64)
SCALAR_BYTES = 8


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    total_time: float
    per_rank: list[float]
    compute_time: list[float]
    comm_time: list[float]
    pipe_wait: list[float]
    frames: int
    oom_ranks: list[int] = field(default_factory=list)
    working_set: list[int] = field(default_factory=list)
    #: per-phase simulated spans (populated with ``record_timeline=True``)
    spans: list[Span] = field(default_factory=list)
    #: modeled per-rank traffic over the whole run (extrapolated frames
    #: included — comm phases are frame-periodic, so counts scale exactly)
    sent_bytes: list[int] = field(default_factory=list)
    recv_bytes: list[int] = field(default_factory=list)
    sent_msgs: list[int] = field(default_factory=list)
    recv_msgs: list[int] = field(default_factory=list)

    @property
    def any_oom(self) -> bool:
        return bool(self.oom_ranks)

    def speedup(self, sequential_time: float) -> float:
        return sequential_time / self.total_time

    def efficiency(self, sequential_time: float, processors: int) -> float:
        return self.speedup(sequential_time) / processors

    def rollup(self) -> RunRollup:
        """The simulated breakdown in the runtime's roll-up shape.

        Categories map onto the simulator's accounting: the neighbor
        exchanges land in ``halo``, pipeline stalls in ``blocked``;
        the simulator does not split out pack/send/collective time.
        """
        ranks = [RankBreakdown(rank=r, total=self.per_rank[r],
                               compute=self.compute_time[r],
                               blocked=self.pipe_wait[r],
                               halo=self.comm_time[r])
                 for r in range(len(self.per_rank))]
        return RunRollup(source="simulated", ranks=ranks)


class ClusterSim:
    """Simulates one compiled plan on a modeled cluster."""

    def __init__(self, plan: ParallelPlan,
                 machine: MachineModel | None = None,
                 network: NetworkModel | None = None,
                 chunks: int = 8,
                 record_timeline: bool = False) -> None:
        self.plan = plan
        #: collect per-phase Spans during the simulated (non-extrapolated)
        #: frames so the predicted timeline can sit next to the observed
        #: one in a Chrome-trace export
        self.record_timeline = record_timeline
        self._spans: list[Span] = []
        self.partition: Partition = plan.partition
        self.machine = machine if machine is not None else MachineModel()
        self.network = network if network is not None else NetworkModel()
        self.chunks = max(1, chunks)
        self.schedule = extract_schedule(plan)
        self.size = self.partition.size
        self.subgrids = self.partition.subgrids()
        self.working_set = [self._working_set(r) for r in range(self.size)]
        self.op_time = [self.machine.node.op_time(ws)
                        for ws in self.working_set]

    # -- geometry helpers -------------------------------------------------------------

    def _working_set(self, rank: int) -> int:
        total = 0
        for ap in self.plan.arrays.values():
            bounds = ghost_bounds(self.partition, rank, ap.dim_map,
                                  ap.original_bounds, ap.ghosts)
            points = math.prod(hi - lo + 1 for lo, hi in bounds)
            total += points * self.machine.value_bytes
        return total

    def _phase_points(self, rank: int, phase: ComputePhase) -> int:
        sub = self.subgrids[rank]
        if not phase.swept_dims:
            return 1
        return math.prod(sub.owned[g][1] - sub.owned[g][0] + 1
                         for g in phase.swept_dims)

    def _face_bytes(self, rank: int, dim: int,
                    arrays: list[tuple[str, dict[int, tuple[int, int]]]],
                    direction: int) -> int:
        """Aggregated message size to the neighbor in *direction*."""
        sub = self.subgrids[rank]
        total = 0
        for name, dists in arrays:
            minus, plus = dists.get(dim, (0, 0))
            width = minus if direction > 0 else plus
            if width == 0:
                continue
            face = sub.face_size(dim)
            total += face * width * self.machine.value_bytes
        return total

    # -- phase execution ---------------------------------------------------------------

    def _mark(self, rank: int, name: str, cat: str,
              t0: float, t1: float, **args) -> None:
        if self.record_timeline and t1 > t0:
            self._spans.append(Span(name, cat, t0, t1, track="sim",
                                    tid=rank, args=args))

    def _do_compute(self, t: list[float], compute: list[float],
                    pipe_wait: list[float], phase: ComputePhase) -> None:
        if phase.pipeline_dims:
            self._do_pipeline(t, compute, pipe_wait, phase)
            return
        for r in range(self.size):
            work = self._phase_points(r, phase) * phase.ops_per_point \
                * self.op_time[r]
            self._mark(r, phase.name, "compute", t[r], t[r] + work)
            t[r] += work
            compute[r] += work

    def _do_pipeline(self, t: list[float], compute: list[float],
                     pipe_wait: list[float], phase: ComputePhase) -> None:
        """Wavefront execution with chunking along the pipeline dims."""
        K = self.chunks
        net = self.network
        # per-rank compute and per-chunk boundary message size
        work = [self._phase_points(r, phase) * phase.ops_per_point
                * self.op_time[r] for r in range(self.size)]
        finish = [[0.0] * K for _ in range(self.size)]
        # ranks are numbered row-major, so every minus neighbor of a rank
        # has a lower number and finishes its chunks first
        for r in range(self.size):
            preds = []
            for g in phase.pipeline_dims:
                n = self.partition.neighbor(r, g, -1)
                if n is not None:
                    face = self.subgrids[r].face_size(g)
                    msg = net.message_time(
                        max(1, face // K) * self.machine.value_bytes)
                    preds.append((n, msg))
            chunk_work = work[r] / K
            prev = t[r]
            for k in range(K):
                ready = prev
                for n, msg in preds:
                    ready = max(ready, finish[n][k] + msg)
                finish[r][k] = ready + chunk_work
                prev = finish[r][k]
        for r in range(self.size):
            end = finish[r][K - 1]
            waited = max(0.0, (end - t[r]) - work[r])
            self._mark(r, f"pipe-wait:{phase.name}", "blocked",
                       t[r], t[r] + waited)
            self._mark(r, phase.name, "compute", end - work[r], end,
                       pipelined=1)
            compute[r] += work[r]
            pipe_wait[r] += waited
            t[r] = end

    def _do_comm(self, t: list[float], comm: list[float],
                 phase: CommPhase) -> None:
        """One combined synchronization: aggregated neighbor exchange.

        Also charges the run's traffic counters.
        """
        net = self.network
        start = list(t)
        # 1. sends serialize through each NIC starting at the local clock;
        #    the wire latency rides each message *after* injection (LogP's
        #    o then L), so a sender's clock only pays NIC time and flight
        #    time lands on the receiving side
        injection_end: dict[tuple[int, int], float] = {}
        arrival = list(t)
        carried = SCALAR_BYTES * phase.reductions
        total_bytes = 0
        for r in range(self.size):
            clock = t[r]
            for dim in self.partition.cut_dims:
                for direction in (-1, 1):
                    n = self.partition.neighbor(r, dim, direction)
                    if n is None:
                        continue
                    nbytes = self._face_bytes(r, dim, phase.arrays,
                                              direction) + carried
                    if nbytes == 0:
                        continue
                    total_bytes += nbytes
                    self._sent_b[r] += nbytes
                    self._sent_n[r] += 1
                    clock += net.injection_time(nbytes)
                    injection_end[(r, n)] = clock + net.latency
            arrival[r] = clock
        # shared medium (hub Ethernet): the whole exchange's traffic
        # serializes on one wire, so nobody finishes before the wire drains
        wire_done = 0.0
        if net.shared_medium and total_bytes:
            wire_done = min(t) + net.wire_time(total_bytes) + net.latency
        # 2. receives complete when every expected message has arrived
        for r in range(self.size):
            received_any = False
            for dim in self.partition.cut_dims:
                for direction in (-1, 1):
                    n = self.partition.neighbor(r, dim, direction)
                    if n is None:
                        continue
                    nbytes = self._face_bytes(n, dim, phase.arrays,
                                              -direction) + carried
                    if nbytes == 0:
                        continue
                    received_any = True
                    self._recv_b[r] += nbytes
                    self._recv_n[r] += 1
                    end = injection_end.get((n, r))
                    if end is not None:
                        arrival[r] = max(arrival[r], end)
            if received_any:
                arrival[r] = max(arrival[r], wire_done)
        for r in range(self.size):
            comm[r] += arrival[r] - t[r]
            t[r] = arrival[r]
        # PVM-era implementations block in every exchange until all
        # participants have gone through it; that prevents pipeline skew
        # from flowing across synchronization points (and is why the
        # paper's mirror-image loops could "not be fully overlapped")
        if self.partition.cut_dims:
            done = max(t)
            for r in range(self.size):
                comm[r] += done - t[r]
                t[r] = done
        for r in range(self.size):
            self._mark(r, f"exchange#{phase.sync_id}", "halo",
                       start[r], t[r], sync_id=phase.sync_id)

    def _do_reduce(self, t: list[float], comm: list[float],
                   phase: ReducePhase) -> None:
        if self.size == 1:
            return
        rounds = max(1, math.ceil(math.log2(self.size)))
        cost = 2 * rounds * self.network.message_time(SCALAR_BYTES) \
            * phase.count
        done = max(t) + cost
        for r in range(self.size):
            self._mark(r, "allreduce", "collective", t[r], done,
                       count=phase.count)
            # recursive-doubling model: one 8-byte value each way per round
            self._sent_b[r] += rounds * SCALAR_BYTES * phase.count
            self._recv_b[r] += rounds * SCALAR_BYTES * phase.count
            self._sent_n[r] += rounds * phase.count
            self._recv_n[r] += rounds * phase.count
            comm[r] += done - t[r]
            t[r] = done

    # -- main loop --------------------------------------------------------------------

    def run(self, frames: int) -> SimResult:
        """Simulate *frames* frame iterations (steady-state extrapolated)."""
        if frames < 1:
            raise SimulationError(f"frames must be >= 1, got {frames}")
        self._spans = []
        self._sent_b = [0] * self.size
        self._recv_b = [0] * self.size
        self._sent_n = [0] * self.size
        self._recv_n = [0] * self.size
        t = [0.0] * self.size
        compute = [0.0] * self.size
        comm = [0.0] * self.size
        pipe_wait = [0.0] * self.size

        simulated = min(frames, WARMUP_FRAMES)
        deltas: list[float] = []
        prev_max = 0.0
        for _f in range(simulated):
            for phase in self.schedule.phases:
                if isinstance(phase, ComputePhase):
                    self._do_compute(t, compute, pipe_wait, phase)
                elif isinstance(phase, CommPhase):
                    self._do_comm(t, comm, phase)
                elif isinstance(phase, ReducePhase):
                    self._do_reduce(t, comm, phase)
            deltas.append(max(t) - prev_max)
            prev_max = max(t)

        remaining = frames - simulated
        if remaining > 0:
            steady = deltas[-1]
            scale = remaining * steady
            for r in range(self.size):
                t[r] += scale
            # attribute extrapolated time proportionally
            for r in range(self.size):
                known = compute[r] + comm[r] + pipe_wait[r]
                if known <= 0:
                    compute[r] += scale
                    continue
                f_c = compute[r] / known
                f_m = comm[r] / known
                f_p = pipe_wait[r] / known
                compute[r] += scale * f_c
                comm[r] += scale * f_m
                pipe_wait[r] += scale * f_p

        oom = [r for r in range(self.size)
               if self.machine.node.is_oom(self.working_set[r])]
        # comm phases recur identically every frame, so traffic counters
        # extrapolate exactly by the frame ratio
        scale = frames / simulated
        traffic = {
            "sent_bytes": [round(v * scale) for v in self._sent_b],
            "recv_bytes": [round(v * scale) for v in self._recv_b],
            "sent_msgs": [round(v * scale) for v in self._sent_n],
            "recv_msgs": [round(v * scale) for v in self._recv_n],
        }
        return SimResult(total_time=max(t), per_rank=t,
                         compute_time=compute, comm_time=comm,
                         pipe_wait=pipe_wait, frames=frames,
                         oom_ranks=oom, working_set=list(self.working_set),
                         spans=list(self._spans),
                         **traffic)

