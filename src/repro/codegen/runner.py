"""Execute a generated SPMD program and stitch the distributed result.

``run_parallel`` compiles the restructured program once (all ranks run the
same code — SPMD), launches it on the in-process runtime with one thread
per rank, and reassembles every status array from the ranks' owned blocks
so tests can compare against the sequential run bitwise.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.codegen.plan import ParallelPlan
from repro.codegen.restructure import restructure
from repro.codegen.rtadapter import RankRuntime
from repro.errors import InterpError
from repro.fortran import ast as A
from repro.interp.io_runtime import IoManager
from repro.interp.pyback import CompiledProgram, compile_unit
from repro.interp.values import DTYPES, OffsetArray
from repro.partition.halo import GhostSpec, ghost_bounds
from repro.runtime.trace import Trace
from repro.runtime.world import World, spmd_run


@dataclass
class ParallelResult:
    """Outcome of a parallel run."""

    plan: ParallelPlan
    world: World
    spmd_cu: A.CompilationUnit
    #: status arrays stitched back to global shape
    arrays: dict[str, OffsetArray] = field(default_factory=dict)
    #: per-rank final value dictionaries (from the generated main)
    rank_values: list[dict] = field(default_factory=list)
    #: rank 0's I/O manager (holds program output)
    io: IoManager | None = None
    #: per rank, ``(plan_nests, plans_built)``: the vectorized nests the
    #: rank executed and the nest plans it built for them (hits do not
    #: count, so built well above nests is a rebuild storm)
    plan_counts: list[tuple[int, int]] = field(default_factory=list)

    @property
    def plan_nests(self) -> int:
        return sum(nests for nests, _built in self.plan_counts)

    @property
    def plans_built(self) -> int:
        return sum(built for _nests, built in self.plan_counts)

    @property
    def trace(self) -> Trace:
        return self.world.trace

    @property
    def comm_stats(self) -> dict:
        """Aggregate runtime communication accounting: message/sync counts,
        payload bytes, wall-time ranks spent blocked (``wait_s``), the
        bytes the zero-copy halo path avoided duplicating
        (``saved_bytes``) and, on the process executor, ``transport``:
        messages by route and receiver waits by kind."""
        stats = self.world.trace.comm_stats()
        if self.world.transport is not None:
            stats["transport"] = self.world.transport
        return stats

    def timeline(self):
        """Classified per-rank :class:`~repro.obs.Timeline` of this run."""
        from repro.obs.timeline import Timeline
        return Timeline.from_trace(self.world.trace)

    def rollup(self):
        """Whole-run :class:`~repro.obs.RunRollup` (observed breakdown)."""
        return self.timeline().rollup()

    def array(self, name: str) -> OffsetArray:
        try:
            return self.arrays[name]
        except KeyError:
            raise InterpError(f"{name!r} is not a stitched status array")

    def scalar(self, name: str):
        values = self.rank_values[0]
        if name not in values:
            raise InterpError(f"{name!r} not in rank 0's final state")
        return values[name]

    def output(self, unit: int = 6) -> str:
        assert self.io is not None
        return self.io.output(unit)


def _no_ghost(ndims: int) -> GhostSpec:
    return GhostSpec(tuple((0, 0) for _ in range(ndims)))


def _stitch(plan: ParallelPlan, rank_values: list[dict]
            ) -> dict[str, OffsetArray]:
    """Assemble global status arrays from the ranks' owned sections."""
    out: dict[str, OffsetArray] = {}
    zero = _no_ghost(plan.directives.ndims)
    for name, ap in plan.arrays.items():
        dtype = DTYPES.get(ap.type_name, np.float64)
        global_arr = OffsetArray.from_bounds(ap.original_bounds, dtype, name)
        for rank in range(plan.partition.size):
            local = rank_values[rank].get(name)
            if local is None:
                # array lives in COMMON: look it up through the ctx
                continue
            owned = ghost_bounds(plan.partition, rank, ap.dim_map,
                                 ap.original_bounds, zero)
            global_arr.set_section(owned, local.section(owned))
        out[name] = global_arr
    return out


def _find_common_array(compiled: CompiledProgram, ctx, name: str):
    for unit in compiled.cu.units:
        table = unit.symbols
        for block, members in table.common_blocks.items():
            for pos, member in enumerate(members):
                if member == name:
                    slot = ctx.commons[block][pos]
                    if isinstance(slot, OffsetArray):
                        return slot
    return None


def _merge_commons(compiled: CompiledProgram, ctx, plan: ParallelPlan,
                   values: dict) -> dict:
    """COMMON status arrays are not in the main unit's value dict; merge
    them in from the rank's context so stitching sees every array."""
    for name in plan.arrays:
        if name not in values or not isinstance(values.get(name),
                                                OffsetArray):
            arr = _find_common_array(compiled, ctx, name)
            if arr is not None:
                values = dict(values)
                values[name] = arr
    return values


def _exec_rank(compiled: CompiledProgram, plan: ParallelPlan,
               input_text: str | None, input_unit: int, injector,
               checkpointer, comm):
    """One rank's program execution (shared by both executors): its
    final values with the COMMON status arrays merged in, its I/O, and
    its ``(plan_nests, plans_built)`` counts."""
    rt = RankRuntime(comm, plan, faults=injector,
                     checkpoints=checkpointer)
    io = IoManager()
    if input_text is not None:
        io.provide_input(input_unit, input_text)
        if input_unit != 5:
            io.provide_input(5, input_text)
    ctx = compiled.make_ctx(io, rt)
    rt.bind_ctx(ctx)
    fn = compiled.function(compiled.cu.main.name)
    from repro.interp.pyback import _Stop
    try:
        try:
            result = fn(ctx)
        except _Stop:
            result = {}
        values = _merge_commons(compiled, ctx, plan,
                                result if isinstance(result, dict) else {})
        return values, io, (ctx.plans.nests, ctx.plans.built)
    finally:
        # runtime and context name each other, and the nest plans on the
        # context pin views and scratch: apart, reference counts free
        # them at once and no worker has to run the cycle collector
        rt.bind_ctx(None)
        ctx.rt = None


def _proc_rank_body(blob: bytes, comm):
    """Module-level (picklable) rank body for the process executor.

    Compilation happens inside the worker, cached on the communicator's
    worker-persistent ``compiled_cache`` keyed by the program blob's
    digest — recovery attempts and repeat runs of the same deck skip
    recompilation.
    """
    cu_blob, plan, input_text, input_unit, ckpt = pickle.loads(blob)
    cache = getattr(comm, "compiled_cache", None)
    if cache is None:
        cache = comm.compiled_cache = {}
    key = hashlib.sha1(cu_blob).hexdigest()
    compiled = cache.get(key)
    if compiled is None:
        spmd_cu, vectorize = pickle.loads(cu_blob)
        compiled = cache[key] = compile_unit(spmd_cu,
                                             vectorize=vectorize)
    checkpointer = None
    if ckpt is not None:
        from repro.faults.checkpoint import Checkpointer, CheckpointStore
        # scope the orphan sweep to this rank: peers may be mid-write
        store = CheckpointStore(ckpt["dir"], sweep_rank=comm.rank)
        checkpointer = Checkpointer(store, every=ckpt["every"],
                                    keep=ckpt["keep"],
                                    restore_frame=ckpt["restore_frame"])
    return _exec_rank(compiled, plan, input_text, input_unit,
                      comm._injector, checkpointer, comm)


def run_parallel(plan: ParallelPlan, *, input_text: str | None = None,
                 input_unit: int = 5, timeout: float = 120.0,
                 spmd_cu: A.CompilationUnit | None = None,
                 vectorize: bool | None = None,
                 injector=None, checkpointer=None,
                 trace: Trace | None = None,
                 executor: str = "thread",
                 telemetry=None) -> ParallelResult:
    """Restructure (unless given), compile, and run the SPMD program.

    Args:
        plan: the parallelization plan.
        input_text: list-directed input preloaded on every rank (only rank
            0 consumes it — the generated program guards READs).
        input_unit: Fortran unit for the input data.
        timeout: per-receive watchdog (seconds).
        spmd_cu: a pre-restructured program (to avoid re-generating).
        vectorize: numpy slice translation for provably-parallel nests
            (``None`` follows ``pyback.DEFAULT_VECTORIZE``); halo regions
            stay outside the slices because the restructured loop bounds
            already exclude them.
        injector: optional :class:`repro.faults.FaultInjector` wired into
            every rank's sends and frame boundaries.
        checkpointer: optional :class:`repro.faults.Checkpointer`; frames
            snapshot at its cadence and restore at its restore frame.
        trace: optional pre-built trace (shared across recovery attempts).
        executor: ``"thread"`` (default, in-process) or ``"process"``
            (one OS process per rank — true parallelism; the program,
            plan, and I/O are pickled to the workers and compiled there,
            cached per worker across runs).
        telemetry: optional :class:`repro.obs.health.Telemetry` — every
            rank publishes live heartbeats/flight events into it (must
            be shared-memory backed on the process executor).
    """
    if spmd_cu is None:
        spmd_cu = restructure(plan)
    nprocs = plan.partition.size

    if executor == "process":
        ckpt = None
        if checkpointer is not None:
            ckpt = {"dir": checkpointer.store.directory,
                    "every": checkpointer.every,
                    "keep": checkpointer.keep,
                    "restore_frame": checkpointer.restore_frame}
        cu_blob = pickle.dumps((spmd_cu, vectorize))
        blob = pickle.dumps((cu_blob, plan, input_text, input_unit,
                             ckpt))
        body = functools.partial(_proc_rank_body, blob)
    else:
        compiled = compile_unit(spmd_cu, vectorize=vectorize)
        body = functools.partial(_exec_rank, compiled, plan, input_text,
                                 input_unit, injector, checkpointer)

    world = spmd_run(nprocs, body, timeout=timeout, trace=trace,
                     injector=injector, executor=executor,
                     telemetry=telemetry)
    rank_values = [values for values, _io, _counts in world.results]
    return ParallelResult(plan=plan, world=world, spmd_cu=spmd_cu,
                          arrays=_stitch(plan, rank_values),
                          rank_values=rank_values,
                          io=world.results[0][1],
                          plan_counts=[counts for _values, _io, counts
                                       in world.results])
