"""Extract the per-frame execution schedule for the cluster simulator.

The discrete-event simulator (:mod:`repro.simulate`) replays the generated
program's structure without executing arithmetic: per frame iteration it
needs, in program order, which field loops compute (over how many owned
points, at what per-point cost, pipelined or not) and which combined
synchronizations communicate (which faces, how many values).  This module
derives that phase list from the plan's frame program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.frame import InstanceNode
from repro.codegen.plan import ParallelPlan, PipeLoopPlan, PlannedSync
from repro.fortran import ast as A


@dataclass
class ComputePhase:
    """One field loop's per-frame work."""

    name: str
    #: grid dims the loop nest sweeps
    swept_dims: tuple[int, ...]
    #: per-point operation count estimate (arithmetic nodes in the body)
    ops_per_point: int
    #: pipelined (mirror-image / wavefront) along these cut dims
    pipeline_dims: tuple[int, ...] = ()
    #: executes once per frame unless nested in extra loops
    repeat: int = 1


@dataclass
class CommPhase:
    """One combined synchronization's per-frame communication."""

    sync_id: int
    #: per array sent on every frame (``PlannedSync.steady``): per grid
    #: dim (minus, plus) ghost widths
    arrays: list[tuple[str, dict[int, tuple[int, int]]]] = field(
        default_factory=list)
    #: the restructurer split the consumer nest: transfers fly during the
    #: interior compute and only the residual wait serializes
    overlap: bool = False


@dataclass
class ReducePhase:
    """A global scalar reduction (allreduce)."""

    count: int = 1


@dataclass
class FrameSchedule:
    """Phases of one frame iteration, in program order."""

    phases: list = field(default_factory=list)
    grid_shape: tuple[int, ...] = ()

    @property
    def compute_phases(self) -> list[ComputePhase]:
        return [p for p in self.phases if isinstance(p, ComputePhase)]

    @property
    def comm_phases(self) -> list[CommPhase]:
        return [p for p in self.phases if isinstance(p, CommPhase)]


def _count_ops(stmt: A.Stmt) -> int:
    """Arithmetic-operation estimate for one statement subtree."""
    ops = 0
    for node in A.walk(stmt):
        if isinstance(node, A.BinOp) and node.op in ("+", "-", "*", "/",
                                                     "**"):
            ops += 1
        elif isinstance(node, A.FuncCall):
            ops += 4  # intrinsic call cost (sqrt/exp/abs...)
    return ops


def _loop_ops_per_point(loop: A.DoLoop) -> int:
    """Operations per innermost iteration of the nest."""
    def body_ops(body: list[A.Stmt]) -> int:
        total = 0
        for stmt in body:
            if isinstance(stmt, A.DoLoop):
                total += body_ops(stmt.body)
            elif isinstance(stmt, A.IfBlock):
                total += max((body_ops(b) for _c, b in stmt.arms), default=0)
            else:
                total += _count_ops(stmt)
        return total
    return max(1, body_ops(loop.body))


def _repeat_factor(node: InstanceNode, frame_node: InstanceNode | None) -> int:
    """Extra static loop nesting between the frame loop and the node.

    Inner solver loops multiply a field loop's per-frame executions; we
    count a nominal factor per extra enclosing loop (trip counts are
    runtime values, so the simulator treats them via this multiplier).
    """
    factor = 1
    for anc in node.enclosing_loops():
        if frame_node is not None and anc is frame_node:
            break
        if anc.field_loop is None and anc is not frame_node:
            # an enclosing non-field loop repeats the work; without its
            # trip count we keep factor 1 (workloads put field loops
            # directly in the frame loop)
            continue
    return factor


def extract_schedule(plan: ParallelPlan) -> FrameSchedule:
    """Derive the per-frame phase list from the compiled plan."""
    frame_node = plan.frame.frame_loop()
    schedule = FrameSchedule(grid_shape=plan.directives.grid_shape)

    def inside_frame(node: InstanceNode) -> bool:
        if frame_node is None:
            return True
        return frame_node.open < node.open and node.close <= frame_node.close

    pipes_by_loop: dict[tuple[str, tuple], PipeLoopPlan] = {
        (p.unit, p.path): p for p in plan.pipes}

    # (slot, order, phase): an exchange placed at slot s is inserted
    # *before* the statement opening at s, so CommPhase (order 0) must
    # precede a ComputePhase (order 1) at the same slot — the simulator's
    # overlap model fuses an overlapped exchange with the compute phase
    # that follows it
    events: list[tuple[int, int, object]] = []

    seen_compute: set[int] = set()
    for inst in plan.frame.field_loop_instances:
        if not inside_frame(inst):
            continue
        fl = inst.field_loop
        assert fl is not None
        pipe = pipes_by_loop.get((inst.unit_name, fl.loop.path))
        phase = ComputePhase(
            name=f"{inst.unit_name}:{fl.loop.var}@{fl.loop.stmt.line}",
            swept_dims=tuple(sorted(fl.sweeps)),
            ops_per_point=_loop_ops_per_point(fl.loop.stmt),
            pipeline_dims=tuple(pipe.pipeline_dims) if pipe else (),
            repeat=_repeat_factor(inst, frame_node))
        events.append((inst.open, 1, phase))
        seen_compute.add(inst.open)

    for sync in plan.syncs:
        # the schedule is frame-periodic: it carries what travels on
        # every frame, so entry-only members are not in it and a sync
        # with no other member is no phase at all
        if not sync.steady:
            continue
        slot = sync.placement_slot
        if frame_node is not None:
            # a placement at the frame loop's close slot sits just before
            # its END DO — inside the frame, once per iteration
            if not (frame_node.open < slot <= frame_node.close):
                continue
        events.append((slot, 0, CommPhase(sync.sync_id, list(sync.steady),
                                          overlap=plan.overlap_enabled(
                                              sync.sync_id))))

    for red in plan.reductions:
        # reductions attach to their loop instances inside the frame
        for inst in plan.frame.field_loop_instances:
            fl = inst.field_loop
            if fl is not None and (inst.unit_name, fl.loop.path) \
                    == (red.unit, red.path) and inside_frame(inst):
                events.append((inst.close, 2,
                               ReducePhase(count=len(red.reductions))))
                break

    events.sort(key=lambda e: e[:2])
    schedule.phases = [phase for _slot, _order, phase in events]
    return schedule
