"""The parallelization plan: everything restructuring and runtime need.

:func:`build_plan` runs the full analysis stack — field-loop
classification, S_LDP, partition filtering, upper-bound regions, region
combining, self-dependence, reductions — and packages the result:

* per status array: dimension map, numeric bounds, merged ghost widths;
* per combined synchronization: an AST insertion location and the arrays
  (with distances) whose halos it exchanges in one aggregated message;
* per self-dependent loop: the mirror decomposition and its pipeline dims;
* per reduction loop: the variables and operations to reduce, each
  either riding a combined synchronization that shares its slot (the
  partials travel with the faces) or kept on its own allreduce;
* the Table-1 numbers (synchronizations before/after optimization).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.analysis.dependency import DependencePair, build_sldp
from repro.analysis.field_loops import FieldLoop
from repro.analysis.frame import FrameProgram, InstanceNode, build_frame_program
from repro.analysis.loops import Placed, known_step
from repro.analysis.reductions import Reduction, find_reductions
from repro.analysis.selfdep import SelfDepClass, SelfDepPlan, analyze_self_dependence
from repro.errors import CodegenError
from repro.fortran import ast as A
from repro.fortran.directives import AcfdDirectives
from repro.fortran.printer import print_expr
from repro.obs import spans as obs
from repro.fortran.symbols import SymbolTable
from repro.partition.grid import GridGeometry
from repro.partition.halo import GhostSpec
from repro.partition.partitioner import Partition
from repro.sync.combine import CombinedSync, combine_regions, join_reductions
from repro.sync.freshness import analyze_freshness
from repro.sync.regions import (SyncRegion, reduction_region,
                                upper_bound_region)

#: where a planned statement goes: (unit, path, mode), mode one of
#: "before" / "after" the statement at the path, "append_body" /
#: "append_arm" at the end of the DO body / IF arm the path names, and
#: "prepend" / "append" at the start / end of the unit body (path ``()``)
Insertion = tuple[str, tuple, str]

#: mode -> side of its anchor (``repro.analysis.loops.Placed``)
_SIDE = {"before": "before", "after": "after", "prepend": "start",
         "append": "end", "append_body": "end", "append_arm": "end"}


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
    #: the members of ``arrays`` that travel on every frame; the rest are
    #: *entry-only* (``entry_only``: array -> the syncs it is still fresh
    #: from) and travel on the first executed trip alone.  ``refusals``:
    #: array -> why :mod:`repro.sync.freshness` would not look further.
    #: ``steady is arrays`` when nothing was demoted.
    steady: list[tuple[str, dict[int, tuple[int, int]]]] = None  # type: ignore[assignment]
    entry_only: dict[str, list[int]] = field(default_factory=dict)
    refusals: dict[str, str] = field(default_factory=dict)
    #: (scalar, op) of every reduction riding this sync: the call passes
    #: the scalars after the arrays and gets their global values back
    reductions: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.steady is None:
            self.steady = self.arrays


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
    """Reductions of one field loop needing a global value."""

    unit: str
    path: tuple
    reductions: list[Reduction]
    #: scalar -> the combined sync it rides; the others keep an
    #: allreduce right after the loop
    rides: dict[str, int] = field(default_factory=dict)
    #: sum scalars that may enter the loop holding a global value (the
    #: statement before the loop does not set them to zero): every rank
    #: but rank 0 starts its partial from zero, so that value is counted
    #: once, not once per rank
    carried_in: list[str] = field(default_factory=list)


def folds_in_one_round(dims: tuple[int, ...]) -> bool:
    """Can a halo round fold the partials it carries into global values?
    Yes when every cut dimension has two ranks: each rank then has one
    neighbor per dimension, and folding dimension by dimension is
    recursive doubling.  Otherwise the round is followed by an
    allreduce."""
    return all(p <= 2 for p in dims)


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


def _scalar_home(cu: A.CompilationUnit, unit_name: str,
                 name: str) -> tuple | None:
    """Where scalar *name* of unit *unit_name* lives: its COMMON block and
    place, or the unit itself; None for an array or an unknown name."""
    table: SymbolTable = cu.unit(unit_name).symbols  # type: ignore[assignment]
    sym = table.get(name)
    if sym is None or sym.is_array:
        return None
    if sym.common_block is not None:
        return (sym.common_block,
                table.common_blocks[sym.common_block].index(sym.name))
    return (unit_name, sym.name)


def _reduction_slots(cu: A.CompilationUnit, frame: FrameProgram,
                     inst: InstanceNode, var: str) -> list[int]:
    """Slots where reduction scalar *var* of field loop instance *inst*
    can take its global value inside a combined sync's call: after the
    loop, before anything else touches it, where the unit at the slot
    knows it by that name and runs once per execution of the frame
    program (so does the loop's unit)."""
    home = _scalar_home(cu, inst.unit_name, var)
    if home is None or frame.call_counts.get(inst.unit_name, 1) != 1:
        return []
    units = {u.name for u in cu.units}

    def touches(node: InstanceNode, exprs) -> bool:
        for expr in exprs:
            for x in A.walk(expr):
                if isinstance(x, A.FuncCall) and x.name in units:
                    return True
                if isinstance(x, A.Var) and _scalar_home(
                        cu, node.unit_name, x.name) == home:
                    return True
        return False

    slots = reduction_region(frame, inst, touches,
                             leaves_calls=home[0] != inst.unit_name)
    out = []
    for slot in slots:
        unit = _slot_unit(frame, slot)
        if (frame.call_counts.get(unit, 1) == 1
                and _scalar_home(cu, unit, var) == home):
            out.append(slot)
    return out


def _carried_in(inst: InstanceNode, reds: list[Reduction]) -> list[str]:
    """The sum scalars of field loop *inst* that the statement right
    before it does not set to zero."""
    siblings = inst.parent.children  # type: ignore[union-attr]
    at = siblings.index(inst)
    before = siblings[at - 1].stmt if at else None
    zeroed = (before.target.name
              if isinstance(before, A.Assign)
              and isinstance(before.target, A.Var)
              and isinstance(before.value, (A.IntLit, A.RealLit))
              and before.value.value == 0 else None)
    return [r.var for r in reds if r.op == "sum" and r.var != zeroed]


def _slot_loop(frame: FrameProgram, slot: int) -> InstanceNode | None:
    """The innermost loop a sync placed at *slot* runs inside."""
    inner = None
    for node in frame.nodes:
        if (node.kind == "loop" and node.open < slot <= node.close
                and (inner is None or node.open > inner.open)):
            inner = node
    return inner


def _refuse_downward_sweep(fl: FieldLoop, sp: SelfDepPlan, unit_name: str,
                           cut_dims: tuple[int, ...]) -> None:
    """A pipeline flows from the minus neighbor to the plus one, and the
    self-dependence classes assume the sweep runs upward: a self-dependent
    loop swept downward along a cut dimension it depends along cannot be
    split across that dimension, nor one whose step only the run knows."""
    dec = sp.decomposition
    for g in sorted({*dec.pipeline_dims, *dec.halo_dims} & set(cut_dims)):
        var = fl.sweeps.get(g)
        for loop in [fl.loop, *fl.loop.descendants]:
            if var is None or loop.var != var:
                continue
            step = known_step(loop.stmt, loop.unit.symbols)
            if step is None:
                raise CodegenError(
                    f"self-dependent loop on {sp.array!r} in "
                    f"{unit_name!r} sweeps cut dimension {g} with 'do "
                    f"{loop.var}' by step {print_expr(loop.stmt.step)!r}, "
                    f"whose sign only the run knows: the pipeline flows "
                    f"upward")
            if step < 0:
                raise CodegenError(
                    f"self-dependent loop on {sp.array!r} in "
                    f"{unit_name!r} sweeps cut dimension {g} downward, "
                    f"against the pipeline's upward flow")


def build_plan(cu: A.CompilationUnit, partition: Partition,
               directives: AcfdDirectives | None = None, *,
               combine: bool = True,
               eliminate_redundant: bool = True) -> ParallelPlan:
    """Run the analysis stack and produce the parallelization plan.

    Args:
        cu: resolved, normalized compilation unit.
        partition: the grid partition to compile for ("analysis after
            partitioning").
        directives: override directives (default: from *cu*).
        combine: apply the combining optimization (ablation hook).
        eliminate_redundant: apply redundant-pair elimination (ablation
            hook).
    """
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
                _refuse_downward_sweep(fl, sp, inst.unit_name,
                                       partition.cut_dims)
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
            groups = [CombinedSync(placement=r.allowed[-1], regions=[r],
                                   feasible=list(r.allowed))
                      for r in regions]
        # each reduction rides the sync its slots meet, if any
        reductions: list[ReductionPlan] = []
        loops: list[InstanceNode] = []
        for inst in frame.field_loop_instances:
            fl = inst.field_loop
            assert fl is not None
            reds = find_reductions(fl)
            if reds and (inst.unit_name, fl.loop.path) not in {
                    (red.unit, red.path) for red in reductions}:
                reductions.append(
                    ReductionPlan(inst.unit_name, fl.loop.path, reds))
                loops.append(inst)
        rides = iter(join_reductions(groups, [
            _reduction_slots(cu, frame, inst, r.var)
            for inst, red in zip(loops, reductions) for r in red.reductions],
            functools.cache(lambda slot: _slot_loop(frame, slot))))
        for red in reductions:
            for r in red.reductions:
                k = next(rides)
                if k is not None:
                    red.rides[r.var] = k + 1
        cbspan.args["syncs_before"] = len(regions)
        cbspan.args["syncs_after"] = len(groups)
        cbspan.args["reductions_riding"] = sum(len(red.rides)
                                               for red in reductions)
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
            reductions=[(r.var, r.op) for red in reductions
                        for r in red.reductions
                        if red.rides.get(r.var) == k + 1]))
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

    # --- reductions (found, and joined to the syncs, while combining) --------
    with obs.span("reductions", cat="compile") as redspan:
        for inst, red in zip(loops, reductions):
            red.carried_in = _carried_in(inst, red.reductions)
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
        active_pairs=active, regions=regions)


def planned_statements(plan: ParallelPlan) -> Placed:
    """Every statement restructuring inserts into the source program.

    The frame hook, the halo exchanges, the pipeline receives and sends,
    the reduction allreduces and the zeroing of carried-in sum partials,
    laid out by anchor.  At one anchor a
    lower priority sits nearer the anchor (the statement, or the start or
    end of the list): pipe calls hug their loop, exchanges and allreduces
    sit outside them, and the frame hook above every exchange.  Of equal
    priorities, a later one goes above the earlier ones, except at the
    end of a list, where it goes below them.  The restructurer writes
    this layout.
    """
    ops: list[tuple[Insertion, int, list[A.Stmt]]] = []

    def call(name: str, number: int, arrays: list[str]) -> A.CallStmt:
        return A.CallStmt(name=name, args=[A.IntLit(number)]
                          + [A.Var(array) for array in arrays])

    node = plan.frame.frame_loop()
    if node is not None:
        # ``if (acfd_frame(it, arrays...) .ne. 0) cycle`` gives the runtime
        # one call per frame to checkpoint, restore, or inject faults; a
        # nonzero return fast-forwards the frame during recovery.  On a
        # real cluster the Fortran stub returns 0 and the statement is
        # inert.
        table: SymbolTable = plan.cu.unit(node.unit_name).symbols  # type: ignore[assignment]
        args: list[A.Expr] = [A.Var(plan.directives.frame_var)]
        args += [A.Var(name) for name in plan.arrays
                 if (sym := table.get(name)) is not None and sym.is_array]
        frame = A.FuncCall("acfd_frame", args)
        hook = A.LogicalIf(cond=A.BinOp(".ne.", frame, A.IntLit(0)),
                           stmt=A.CycleStmt())
        ops.append(((node.unit_name, node.path + (("body", 0),), "before"),
                    10, [hook]))
    for sync in plan.syncs:
        ops.append((sync.insertion, 2, [call(
            "acfd_exchange", sync.sync_id, [n for n, _d in sync.arrays]
            + [var for var, _op in sync.reductions])]))
    for pipe in plan.pipes:
        for mode, name in (("before", "acfd_pipe_recv"),
                           ("after", "acfd_pipe_send")):
            ops.append(((pipe.unit, pipe.path, mode), 0,
                        [call(name, pipe.pipe_id, pipe.arrays)]))
    for red in plan.reductions:
        if red.carried_in:
            table = plan.cu.unit(red.unit).symbols  # type: ignore[union-attr]
            ops.append(((red.unit, red.path, "before"), 1, [
                A.IfBlock(arms=[(A.BinOp(".ne.", A.FuncCall("acfd_rank", []),
                                         A.IntLit(0)),
                                 [A.Assign(target=A.Var(var), value=(
                                     A.IntLit(0)
                                     if table.require(var).type_name
                                     == "integer" else A.RealLit(0.0, "0.0")))
                                  ])])
                for var in red.carried_in]))
        kept = [r for r in red.reductions if r.var not in red.rides]
        if kept:
            ops.append(((red.unit, red.path, "after"), 1, [
                A.Assign(target=A.Var(r.var),
                         value=A.FuncCall(f"acfd_allreduce_{r.op}",
                                          [A.Var(r.var)]))
                for r in kept]))

    def document_order(item) -> tuple[int, int]:
        index, ((_unit, _path, mode), priority, _stmts) = item
        side = _SIDE[mode]
        return (priority if side in ("after", "start") else -priority,
                index if side == "end" else -index)

    placed: Placed = {}
    for _index, ((unit, path, mode), _priority, stmts) in sorted(
            enumerate(ops), key=document_order):
        placed.setdefault((unit, path, _SIDE[mode]), []).extend(stmts)
    return placed
