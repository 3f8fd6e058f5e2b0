"""Extract the per-frame execution schedule for the cluster simulator.

The cluster simulator (:mod:`repro.simulate`) replays the generated
program's structure without executing arithmetic: per frame iteration it
needs, in program order, which field loops compute (over how many owned
points, at what per-point cost, pipelined or not) and which combined
synchronizations communicate (which faces, how many values).  This module
derives that phase list from the plan's frame program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.frame import InstanceNode
from repro.codegen.plan import (ParallelPlan, PipeLoopPlan, PlannedSync,
                                folds_in_one_round)
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


@dataclass
class CommPhase:
    """One combined synchronization's per-frame communication."""

    sync_id: int
    #: per array sent on every frame (``PlannedSync.steady``): per grid
    #: dim (minus, plus) ghost widths
    arrays: list[tuple[str, dict[int, tuple[int, int]]]] = field(
        default_factory=list)
    #: reductions folded on this round's faces: each face message
    #: carries one more scalar per reduction, and no allreduce runs
    reductions: int = 0


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
    # precede a ComputePhase (order 1) at the same slot
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
            pipeline_dims=tuple(pipe.pipeline_dims) if pipe else ())
        events.append((inst.open, 1, phase))
        seen_compute.add(inst.open)

    folds = folds_in_one_round(plan.partition.dims)
    for sync in plan.syncs:
        slot = sync.placement_slot
        if frame_node is not None:
            # a placement at the frame loop's close slot sits just before
            # its END DO — inside the frame, once per iteration
            if not (frame_node.open < slot <= frame_node.close):
                continue
        # the schedule is frame-periodic: it carries what travels on
        # every frame, so entry-only members are not in it and a sync
        # with no other member is no exchange at all
        carried = len(sync.reductions) if folds and sync.steady else 0
        if sync.steady:
            events.append((slot, 0, CommPhase(
                sync.sync_id, list(sync.steady), reductions=carried)))
        if len(sync.reductions) > carried:
            # riding reductions the round cannot fold: an allreduce
            # right after it
            events.append((slot, 0, ReducePhase(count=len(sync.reductions))))

    for red in plan.reductions:
        # reductions attach to their loop instances inside the frame
        kept = len(red.reductions) - len(red.rides)
        if not kept:
            continue
        for inst in plan.frame.field_loop_instances:
            fl = inst.field_loop
            if fl is not None and (inst.unit_name, fl.loop.path) \
                    == (red.unit, red.path) and inside_frame(inst):
                events.append((inst.close, 2, ReducePhase(count=kept)))
                break

    events.sort(key=lambda e: e[:2])
    schedule.phases = [phase for _slot, _order, phase in events]
    return schedule
