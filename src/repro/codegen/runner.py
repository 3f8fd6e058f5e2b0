"""Execute a generated SPMD program and stitch the distributed result.

``run_parallel`` compiles the restructured program once (all ranks run the
same code — SPMD), launches it on the in-process runtime with one thread
per rank, and reassembles every status array from the ranks' owned blocks
so tests can compare against the sequential run bitwise.  A process keeps
the programs it has compiled (:func:`compiled_program`): a repeat run of
the same program, on either executor, translates nothing.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.codegen.plan import ParallelPlan
from repro.codegen.restructure import restructure
from repro.codegen.rtadapter import RankRuntime
from repro.errors import InterpError
from repro.fortran import ast as A
from repro.interp.io_runtime import IoManager
from repro.interp.native import compiler
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
    #: per rank, ``(regions_run, binds)``: the native regions it ran,
    #: and the argument tuples it built for them (hits do not count:
    #: binds well above regions means some region meets new arrays
    #: every time)
    region_counts: list[tuple[int, int]] = field(default_factory=list)
    #: the SPMD program's native regions and the nests fused into an
    #: earlier one, as the ranks translated it
    regions: int = 0
    fused: int = 0
    #: how many translations of the program this run made: 0 when every
    #: rank ran a program this process (a worker, on processes) had
    #: kept, at most 1 on threads (the ranks share one)
    translations: int = 0

    @property
    def regions_run(self) -> int:
        return sum(counts[0] for counts in self.region_counts)

    @property
    def binds(self) -> int:
        return sum(counts[1] for counts in self.region_counts)

    @property
    def trace(self) -> Trace:
        return self.world.trace

    @property
    def comm_stats(self) -> dict:
        """Aggregate runtime communication accounting: message/sync counts,
        payload bytes, wall-time ranks spent blocked (``wait_s``), the
        bytes halo face sends did not copy a second time
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
    for block, pos in compiled.common_names.get(name, ()):
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
               input_text: str | None, injector, checkpointer, comm):
    """One rank's program execution (shared by both executors): its
    final values with the COMMON status arrays merged in, its I/O, its
    ``(regions_run, binds)`` counts and the program's ``(regions,
    fused)``."""
    rt = RankRuntime(comm, plan, faults=injector,
                     checkpoints=checkpointer)
    io = IoManager()
    if input_text is not None:
        io.provide_input(5, input_text)
    ctx = compiled.make_ctx(io, rt)
    rt.bind_ctx(ctx)
    fn = compiled.function(compiled.main)
    from repro.interp.pyback import _Stop
    try:
        try:
            result = fn(ctx)
        except _Stop:
            result = {}
        values = _merge_commons(compiled, ctx, plan,
                                result if isinstance(result, dict) else {})
        return values, io, (ctx.natives.ran, ctx.natives.built), (
            compiled.nest_stats["regions"], compiled.nest_stats["fused"])
    finally:
        # runtime and context name each other, and the bound regions on
        # the context pin arrays: apart, reference counts free them at
        # once and no worker has to run the cycle collector
        rt.bind_ctx(None)
        ctx.rt = None


#: the programs a process keeps, least recently used first, by key (see
#: :func:`compiled_program`)
_PROGRAMS: OrderedDict[str, CompiledProgram] = OrderedDict()
_PROGRAMS_LOCK = threading.Lock()
#: how many: a solve re-runs one program (recovery attempts, repeat
#: runs, the benchmark's timed solves) and a sweep over partitions or
#: over Table 1's programs runs a few, while an entry of the sprayer or
#: the aerofoil holds about 0.2 MiB (Python code and loaded regions,
#: no AST), so eight bound the cache near 1.7 MiB per process and per
#: pool worker, which lives as long as the pool
PROGRAMS_KEEP = 8


def compiled_program(cu_blob: bytes, program: tuple | None = None
                     ) -> tuple[CompiledProgram, bool]:
    """The compiled form of *cu_blob* (``pickle.dumps((spmd_cu,
    native))``) and whether it was translated now: a program this process
    compiled before is taken from the cache (keeping the
    ``PROGRAMS_KEEP`` most recently used), else it is compiled from
    *program*, the ``(spmd_cu, native)`` the blob holds, when the caller
    has it at hand, from the blob otherwise.

    The key is the sha1 of the blob (the program with its symbol tables,
    and ``native``) and of whether this host has a C compiler (without
    one :func:`compile_unit` translates every nest scalar).  What else
    the translation reads is fixed for the process: the intrinsics and
    the native build flags."""
    digest = hashlib.sha1(cu_blob)
    digest.update(b"cc" if compiler() else b"")
    key = digest.hexdigest()
    with _PROGRAMS_LOCK:
        compiled = _PROGRAMS.get(key)
        if compiled is not None:
            _PROGRAMS.move_to_end(key)
            return compiled, False
    spmd_cu, native = program or pickle.loads(cu_blob)
    compiled = compile_unit(spmd_cu, native=native)
    with _PROGRAMS_LOCK:
        _PROGRAMS[key] = compiled
        while len(_PROGRAMS) > PROGRAMS_KEEP:
            _PROGRAMS.popitem(last=False)
    return compiled, True


def _proc_rank_body(blob: bytes, comm):
    """Module-level (picklable) rank body for the process executor: the
    rank's result (see :func:`_exec_rank`) and whether the worker
    translated the program for this run.

    The program is compiled inside the worker and kept in the worker's
    :func:`compiled_program` cache, so recovery attempts and repeat
    runs of the same deck skip the translation.
    """
    cu_blob, plan, input_text, ckpt = pickle.loads(blob)
    compiled, translated = compiled_program(cu_blob)
    checkpointer = None
    if ckpt is not None:
        from repro.faults.checkpoint import Checkpointer, CheckpointStore
        # scope the orphan sweep to this rank: peers may be mid-write
        store = CheckpointStore(ckpt["dir"], sweep_rank=comm.rank)
        checkpointer = Checkpointer(store, every=ckpt["every"],
                                    keep=ckpt["keep"],
                                    restore_frame=ckpt["restore_frame"])
    return (*_exec_rank(compiled, plan, input_text, comm._injector,
                        checkpointer, comm), translated)


def run_parallel(plan: ParallelPlan, *, input_text: str | None = None,
                 timeout: float = 120.0,
                 spmd_cu: A.CompilationUnit | None = None,
                 native: bool = True,
                 injector=None, checkpointer=None,
                 trace: Trace | None = None,
                 executor: str = "thread",
                 telemetry=None) -> ParallelResult:
    """Restructure (unless given), compile, and run the SPMD program.

    Args:
        plan: the parallelization plan.
        input_text: list-directed input preloaded on unit 5 of every
            rank (only rank 0 consumes it — the generated program guards
            READs).
        timeout: per-receive watchdog (seconds).
        spmd_cu: a pre-restructured program (to avoid re-generating).
        native: run each nest :mod:`repro.interp.native` accepts as a
            compiled C function (``False``: the scalar translation
            everywhere); halo regions stay outside the nests because
            the restructured loop bounds already exclude them.
        injector: optional :class:`repro.faults.FaultInjector` wired into
            every rank's sends and frame boundaries.
        checkpointer: optional :class:`repro.faults.Checkpointer`; frames
            snapshot at its cadence and restore at its restore frame.
        trace: optional pre-built trace (shared across recovery attempts).
        executor: ``"thread"`` (default, in-process) or ``"process"``
            (one OS process per rank — true parallelism; the program,
            plan, and I/O are pickled to the workers and compiled
            there).  On either executor the compiled program is cached
            across runs (per worker on processes; see
            :func:`compiled_program`).
        telemetry: optional :class:`repro.obs.health.Telemetry` — every
            rank publishes live heartbeats/flight events into it (must
            be shared-memory backed on the process executor).
    """
    from repro.obs import spans as obs
    if spmd_cu is None:
        spmd_cu = restructure(plan)
    nprocs = plan.partition.size
    program = (spmd_cu, native)
    cu_blob = pickle.dumps(program)

    if executor == "process":
        ckpt = None
        if checkpointer is not None:
            ckpt = {"dir": checkpointer.store.directory,
                    "every": checkpointer.every,
                    "keep": checkpointer.keep,
                    "restore_frame": checkpointer.restore_frame}
        blob = pickle.dumps((cu_blob, plan, input_text, ckpt))
        body = functools.partial(_proc_rank_body, blob)
    else:
        compiled, translated = compiled_program(cu_blob, program)
        body = functools.partial(_exec_rank, compiled, plan, input_text,
                                 injector, checkpointer)

    world = spmd_run(nprocs, body, timeout=timeout, trace=trace,
                     injector=injector, executor=executor,
                     telemetry=telemetry)
    if executor == "process":  # each worker looked the program up
        lookups = nprocs
        translations = sum(result[4] for result in world.results)
    else:  # the launcher did, for every rank
        lookups, translations = 1, int(translated)
    obs.counter("pyback.reused").inc(lookups - translations)
    rank_values = [result[0] for result in world.results]
    regions, fused = world.results[0][3]
    return ParallelResult(plan=plan, world=world, spmd_cu=spmd_cu,
                          arrays=_stitch(plan, rank_values),
                          rank_values=rank_values,
                          io=world.results[0][1],
                          region_counts=[result[2]
                                         for result in world.results],
                          regions=regions, fused=fused,
                          translations=translations)
