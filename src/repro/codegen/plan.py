"""The parallelization plan: everything restructuring and runtime need.

:func:`build_plan` runs the full analysis stack — field-loop
classification, S_LDP, partition filtering, upper-bound regions, region
combining, self-dependence, reductions — and packages the result:

* per status array: dimension map, numeric bounds, merged ghost widths;
* per combined synchronization: an AST insertion location and the arrays
  (with distances) whose halos it exchanges in one aggregated message;
* per self-dependent loop: the mirror decomposition and its pipeline dims;
* per reduction loop: the variables and operations to allreduce;
* the Table-1 numbers (synchronizations before/after optimization).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dependency import DependencePair, build_sldp
from repro.analysis.field_loops import FieldLoop
from repro.analysis.frame import FrameProgram, InstanceNode, build_frame_program
from repro.analysis.reductions import Reduction, find_reductions
from repro.analysis.selfdep import SelfDepClass, SelfDepPlan, analyze_self_dependence
from repro.errors import CodegenError
from repro.fortran import ast as A
from repro.fortran.directives import AcfdDirectives
from repro.obs import spans as obs
from repro.fortran.symbols import SymbolTable
from repro.partition.grid import GridGeometry
from repro.partition.halo import GhostSpec
from repro.partition.partitioner import Partition
from repro.sync.combine import (CombinedSync, combine_regions,
                                merge_dim_distances)
from repro.sync.freshness import analyze_freshness
from repro.sync.regions import SyncRegion, upper_bound_region

#: insertion modes for planned statements
#: "before": insert before the statement at the location path
#: "after": insert right after the statement at the location path
#: "append": append at the end of the unit body
Insertion = tuple[str, tuple, str]  # (unit, path, mode)


@dataclass
class ArrayPlan:
    """Distribution geometry of one status array."""

    name: str
    dim_map: tuple[int | None, ...]
    original_bounds: list[tuple[int, int]]  # numeric (lo, hi) per array dim
    ghosts: GhostSpec
    type_name: str = "real"


@dataclass
class PlannedSync:
    """One combined synchronization point, ready for insertion."""

    sync_id: int
    insertion: Insertion
    #: arrays to exchange, with per-grid-dim (minus, plus) distances
    arrays: list[tuple[str, dict[int, tuple[int, int]]]]
    member_pairs: int
    placement_slot: int
    #: per grid dim, (minus, plus) widths merged over all arrays — the
    #: whole aggregated message's ghost footprint (strip widths for the
    #: overlap split)
    dim_distances: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: the members of ``arrays`` that travel on every frame; the rest are
    #: *entry-only* (``entry_only``: array -> the syncs it is still fresh
    #: from) and travel on the first executed trip alone.  ``refusals``:
    #: array -> why :mod:`repro.sync.freshness` would not look further.
    #: ``steady is arrays`` when nothing was demoted.
    steady: list[tuple[str, dict[int, tuple[int, int]]]] = None  # type: ignore[assignment]
    entry_only: dict[str, list[int]] = field(default_factory=dict)
    refusals: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.steady is None:
            self.steady = self.arrays


@dataclass
class OverlapDecision:
    """Whether one combined sync runs nonblocking (begin/finish) or not.

    Recorded by the restructurer when it considers splitting the loop
    nest that consumes the exchange; ``reason`` explains a refusal in
    the same spirit as the vectorizer's ``Fallback`` discipline.
    ``callee`` names the subroutine when the verdict crossed a ``call``
    boundary (interprocedural split or in-callee refusal), else "".
    """

    sync_id: int
    enabled: bool
    reason: str = ""
    callee: str = ""


@dataclass
class PipeLoopPlan:
    """One pipelined self-dependent loop (mirror-image / wavefront)."""

    pipe_id: int
    unit: str
    path: tuple
    arrays: list[str]
    #: grid dims pipelined (new values flow minus -> plus)
    pipeline_dims: list[int]
    klass: SelfDepClass
    field_loop: FieldLoop


@dataclass
class ReductionPlan:
    """Reductions of one field loop needing a global allreduce."""

    unit: str
    path: tuple
    reductions: list[Reduction]


@dataclass
class ParallelPlan:
    """Complete output of the planning phase."""

    cu: A.CompilationUnit
    directives: AcfdDirectives
    partition: Partition
    arrays: dict[str, ArrayPlan]
    syncs: list[PlannedSync]
    pipes: list[PipeLoopPlan]
    reductions: list[ReductionPlan]
    frame: FrameProgram
    #: Table 1 numbers
    syncs_before: int
    syncs_after: int
    #: pairs that actually need synchronization under the partition
    active_pairs: list[DependencePair]
    regions: list[SyncRegion]
    #: requested overlap mode: "auto" | "on" | "off" — "on" and "auto"
    #: both apply the safety gate (correctness is never traded away);
    #: "on" merely surfaces refusals loudly
    overlap: str = "auto"
    #: per combined sync, the restructurer's verdict (filled in by
    #: ``restructure``; deterministic, so a re-restructure of a pickled
    #: plan reproduces the same decisions)
    overlap_decisions: list[OverlapDecision] = field(default_factory=list)

    def overlap_enabled(self, sync_id: int) -> bool:
        return any(d.sync_id == sync_id and d.enabled
                   for d in self.overlap_decisions)

    @property
    def reduction_percent(self) -> float:
        if self.syncs_before == 0:
            return 0.0
        return 100.0 * (self.syncs_before - self.syncs_after) \
            / self.syncs_before


def _numeric_bounds(table: SymbolTable, name: str) -> list[tuple[int, int]]:
    sym = table.require(name)
    if sym.array is None:
        raise CodegenError(f"status array {name!r} is not an array")
    out = []
    for lo, hi in sym.array.bounds:
        out.append((int(table.eval_const(lo)), int(table.eval_const(hi))))
    return out


def _slot_insertion(frame: FrameProgram, slot: int) -> Insertion:
    """Map a placement slot to a static AST insertion location."""
    node = frame.node_at_open(slot)
    if node is not None:
        if node.kind == "arm":
            # before an arm's first statement == before the arm: use the
            # IF node instead (an arm has no standalone statement slot)
            return (node.unit_name, node.parent.path, "before")  # type: ignore[union-attr]
        if node.kind == "root":
            return (node.unit_name, (), "prepend")
        return (node.unit_name, node.path, "before")
    node = frame.node_at_close(slot)
    if node is None:
        raise CodegenError(f"slot {slot} maps to no instance node")
    if node.kind == "root":
        return (node.unit_name, (), "append")
    if node.kind == "loop":
        return (node.unit_name, node.path, "append_body")
    if node.kind == "arm":
        return (node.unit_name, node.parent.path + (("arm", node.arm_index),),  # type: ignore[union-attr, operator]
                "append_arm")
    # stmt / call / if: right after the statement
    return (node.unit_name, node.path, "after")


def _unit_sees(cu: A.CompilationUnit, unit_name: str, array: str) -> bool:
    try:
        unit = cu.unit(unit_name)
    except KeyError:
        return False
    table: SymbolTable = unit.symbols  # type: ignore[assignment]
    sym = table.get(array)
    return sym is not None and sym.is_array


def _slot_unit(frame: FrameProgram, slot: int) -> str:
    node = frame.node_at_open(slot) or frame.node_at_close(slot)
    if node is None:
        raise CodegenError(f"slot {slot} maps to no instance node")
    return node.unit_name


def build_plan(cu: A.CompilationUnit, partition: Partition,
               directives: AcfdDirectives | None = None, *,
               combine: bool = True,
               eliminate_redundant: bool = True,
               overlap: str = "auto") -> ParallelPlan:
    """Run the analysis stack and produce the parallelization plan.

    Args:
        cu: resolved, normalized compilation unit.
        partition: the grid partition to compile for ("analysis after
            partitioning").
        directives: override directives (default: from *cu*).
        combine: apply the combining optimization (ablation hook).
        eliminate_redundant: apply redundant-pair elimination (ablation
            hook).
        overlap: halo-overlap mode ("auto" | "on" | "off"); the
            restructurer records its per-sync decisions on the plan.
    """
    if overlap not in ("auto", "on", "off"):
        raise CodegenError(f"overlap mode {overlap!r} not in "
                           f"('auto', 'on', 'off')")
    if directives is None:
        directives = cu.directives  # type: ignore[assignment]
    with obs.span("frame-program", cat="compile") as sp:
        frame = build_frame_program(cu, directives)
        sp.args["field_loops"] = len(frame.field_loop_instances)
        obs.counter("compile.loops_scanned").inc(
            len(frame.field_loop_instances))
    with obs.span("dependency-analysis", cat="compile") as sp:
        pairs = build_sldp(frame, eliminate_redundant=eliminate_redundant)
        sp.args["pairs"] = len(pairs)

    # --- partition filtering: analysis after partitioning -----------------
    active = [p for p in pairs if p.needs_sync(partition.dims)]

    # --- self-dependent loops: pipelines, handled outside regions ----------
    pipe_plans: list[PipeLoopPlan] = []
    pipes_by_loop: dict[int, PipeLoopPlan] = {}
    seen_static: set[tuple[str, tuple]] = set()
    pipe_counter = 0
    with obs.span("self-dependence", cat="compile") as sdspan:
        for inst in frame.field_loop_instances:
            fl = inst.field_loop
            assert fl is not None
            if not fl.is_self_dependent:
                continue
            key = (inst.unit_name, fl.loop.path)
            if key in seen_static:
                continue
            seen_static.add(key)
            plans = analyze_self_dependence(fl, directives.ndims)
            pipeline_dims: set[int] = set()
            arrays: list[str] = []
            klass = SelfDepClass.WAVEFRONT
            for sp in plans:
                if sp.klass is SelfDepClass.SERIAL:
                    cut_swept = set(fl.sweeps) & set(partition.cut_dims)
                    if cut_swept:
                        raise CodegenError(
                            f"self-dependent loop on {sp.array!r} in "
                            f"{inst.unit_name!r} has irregular subscripts and "
                            f"cannot be parallelized across dims {cut_swept}")
                    continue
                if sp.decomposition is None:
                    continue
                dims = {g for g in sp.decomposition.pipeline_dims
                        if g in partition.cut_dims}
                if sp.array not in arrays:
                    arrays.append(sp.array)
                pipeline_dims |= dims
                if sp.klass is SelfDepClass.MIRROR:
                    klass = SelfDepClass.MIRROR
            if pipeline_dims:
                pipe_counter += 1
                plan = PipeLoopPlan(pipe_counter, inst.unit_name, fl.loop.path,
                                    arrays, sorted(pipeline_dims), klass, fl)
                pipe_plans.append(plan)
                pipes_by_loop[id(fl.loop.stmt)] = plan
        sdspan.args["pipelined_loops"] = len(pipe_plans)

    # --- upper-bound regions + visibility filtering ------------------------
    regions: list[SyncRegion] = []
    with obs.span("sync-regions", cat="compile") as rgspan:
        for pair in active:
            region = upper_bound_region(frame, pair)
            visible = [s for s in region.allowed
                       if _unit_sees(cu, _slot_unit(frame, s), pair.array)]
            if not visible:
                fallback = pair.writer.close + 1
                visible = [fallback]
            region.allowed = visible
            regions.append(region)
        rgspan.args["regions"] = len(regions)

    # --- combining ----------------------------------------------------------
    with obs.span("sync-combining", cat="compile") as cbspan:
        if combine:
            groups = combine_regions(regions)
        else:
            groups = [CombinedSync(placement=r.allowed[-1], regions=[r])
                      for r in regions]
        cbspan.args["syncs_before"] = len(regions)
        cbspan.args["syncs_after"] = len(groups)
        obs.counter("compile.syncs_before").inc(len(regions))
        obs.counter("compile.syncs_after").inc(len(groups))

    syncs: list[PlannedSync] = []
    for k, group in enumerate(groups):
        arrays_d = sorted(group.distances().items())
        irregular = group.irregular_arrays()
        merged: list[tuple[str, dict[int, tuple[int, int]]]] = []
        for name, dists in arrays_d:
            if name in irregular:
                # conservative: full-distance halo on every cut dim
                dists = dict(dists)
                for g in partition.cut_dims:
                    dmax = max(directives.max_distance, 1)
                    old = dists.get(g, (0, 0))
                    dists[g] = (max(old[0], dmax), max(old[1], dmax))
            merged.append((name, dists))
        syncs.append(PlannedSync(
            sync_id=k + 1,
            insertion=_slot_insertion(frame, group.placement),
            arrays=merged,
            member_pairs=len(group.regions),
            placement_slot=group.placement,
            dim_distances=merge_dim_distances(merged)))
    with obs.span("sync-freshness", cat="compile") as frspan:
        analyze_freshness(frame, syncs, partition.cut_dims,
                          frame.frame_loop(), cu)
        frspan.args["entry_only"] = sum(len(s.entry_only) for s in syncs)

    # --- ghost geometry per array -------------------------------------------
    main_table: SymbolTable = cu.main.symbols  # type: ignore[assignment]
    arrays: dict[str, ArrayPlan] = {}
    with obs.span("ghost-geometry", cat="compile") as ghspan:
        for name in directives.status_arrays:
            table = None
            for unit in cu.units:
                t: SymbolTable = unit.symbols  # type: ignore[assignment]
                sym = t.get(name)
                if sym is not None and sym.is_array:
                    table = t
                    break
            if table is None:
                continue  # declared status but never used as an array
            rank = table.require(name).array.rank  # type: ignore[union-attr]
            dim_map = directives.status_dims(name, rank)
            widths = [[0, 0] for _ in range(directives.ndims)]
            for pair in pairs:  # all pairs: ghosts must cover every partition
                if pair.array != name:
                    continue
                for g, (minus, plus) in pair.distances.items():
                    widths[g][0] = max(widths[g][0], minus)
                    widths[g][1] = max(widths[g][1], plus)
                if pair.irregular:
                    for g in range(directives.ndims):
                        widths[g][0] = max(widths[g][0],
                                           directives.max_distance)
                        widths[g][1] = max(widths[g][1],
                                           directives.max_distance)
            # self-dependent pipelines need one layer each way at minimum
            for pp in pipe_plans:
                if name in pp.arrays:
                    use = pp.field_loop.uses.get(name)
                    if use is None:
                        continue
                    for g in range(directives.ndims):
                        minus, plus = use.max_read_distance(g)
                        widths[g][0] = max(widths[g][0], minus)
                        widths[g][1] = max(widths[g][1], plus)
            arrays[name] = ArrayPlan(
                name=name,
                dim_map=dim_map,
                original_bounds=_numeric_bounds(table, name),
                ghosts=GhostSpec(tuple((a, b) for a, b in widths)),
                type_name=table.require(name).type_name)
        ghspan.args["status_arrays"] = len(arrays)
        ghspan.args["halo_width_max"] = max(
            (w for ap in arrays.values()
             for g in range(directives.ndims) for w in ap.ghosts.width(g)),
            default=0)

        # --- geometry sanity: ghosts must fit inside neighbors -------------
        for name, ap in arrays.items():
            for g in partition.cut_dims:
                w_minus, w_plus = ap.ghosts.width(g)
                width = max(w_minus, w_plus)
                if width == 0:
                    continue
                min_extent = min(s.owned[g][1] - s.owned[g][0] + 1
                                 for s in partition.subgrids())
                if min_extent < width:
                    raise CodegenError(
                        f"partition {partition.dims} slices grid dimension "
                        f"{g} thinner ({min_extent} points) than the ghost "
                        f"width {width} that array {name!r} needs — use "
                        f"fewer processors along that dimension")

    # --- reductions -----------------------------------------------------------
    reductions: list[ReductionPlan] = []
    with obs.span("reductions", cat="compile") as redspan:
        seen_red: set[tuple[str, tuple]] = set()
        for inst in frame.field_loop_instances:
            fl = inst.field_loop
            assert fl is not None
            reds = find_reductions(fl)
            if not reds:
                continue
            key = (inst.unit_name, fl.loop.path)
            if key in seen_red:
                continue
            seen_red.add(key)
            reductions.append(
                ReductionPlan(inst.unit_name, fl.loop.path, reds))
        redspan.args["reduction_loops"] = len(reductions)

    # --- Table 1 accounting -----------------------------------------------------
    # Pipelined self-dependent loops synchronize intrinsically (their
    # communication is bound to the loop and cannot move or combine):
    # count them on both sides.
    pipe_syncs = len(pipe_plans)
    syncs_before = len(active) + pipe_syncs
    syncs_after = len(syncs) + pipe_syncs

    return ParallelPlan(
        cu=cu, directives=directives, partition=partition,
        arrays=arrays, syncs=syncs, pipes=pipe_plans,
        reductions=reductions, frame=frame,
        syncs_before=syncs_before, syncs_after=syncs_after,
        active_pairs=active, regions=regions, overlap=overlap)
