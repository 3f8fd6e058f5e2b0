"""The AutoCFD pre-compiler: one object, whole pipeline.

Typical use::

    acfd = AutoCFD.from_source(src)
    result = acfd.compile(partition=(2, 1))
    print(result.report.row())           # Table-1 style numbers
    par = result.run_parallel()          # execute on the runtime
    seq = acfd.run_sequential()          # reference execution
    assert par.array("v") == seq.array("v")
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.normalize import normalize_compilation_unit
from repro.codegen.plan import ParallelPlan, build_plan
from repro.codegen.restructure import restructure
from repro.codegen.runner import ParallelResult, run_parallel
from repro.core.report import CompilationReport
from repro.errors import DirectiveError, PartitionError
from repro.fortran import ast as A
from repro.fortran.directives import AcfdDirectives
from repro.fortran.parser import parse_source
from repro.fortran.printer import print_compilation_unit
from repro.fortran.symbols import SymbolTable
from repro.interp.io_runtime import IoManager
from repro.interp.pyback import RunResult, run_compiled
from repro.obs import Profiler, activate
from repro.obs import spans as obs
from repro.partition.grid import GridGeometry
from repro.partition.partitioner import Partition, choose_partition


@dataclass
class CompileResult:
    """Output of one compilation: plan + generated program + report."""

    plan: ParallelPlan
    spmd_cu: A.CompilationUnit
    report: CompilationReport

    def run_parallel(self, *, input_text: str | None = None,
                     timeout: float = 120.0,
                     vectorize: bool | None = None,
                     injector=None, checkpointer=None,
                     trace=None,
                     executor: str = "thread",
                     telemetry=None) -> ParallelResult:
        """Execute the generated SPMD program on the runtime.

        ``injector`` / ``checkpointer`` plug the :mod:`repro.faults`
        subsystem into the run (see ``acfd chaos``); ``executor``
        selects in-process rank threads (default) or one OS process per
        rank (``"process"`` — true parallelism); ``telemetry`` attaches
        a live :class:`repro.obs.health.Telemetry` heartbeat board."""
        return run_parallel(self.plan, input_text=input_text,
                            timeout=timeout, spmd_cu=self.spmd_cu,
                            vectorize=vectorize, injector=injector,
                            checkpointer=checkpointer, trace=trace,
                            executor=executor, telemetry=telemetry)

    def parallel_source(self) -> str:
        """The generated program as free-form Fortran source."""
        return print_compilation_unit(self.spmd_cu)

    def mpi_source(self) -> str:
        """The generated program with explicit MPI runtime (Fortran)."""
        from repro.codegen.mpi_fortran import print_mpi_fortran
        return print_mpi_fortran(self.plan, self.spmd_cu)


class AutoCFD:
    """The pre-compiler: sequential Fortran CFD in, SPMD program out."""

    def __init__(self, cu: A.CompilationUnit, *,
                 auto_status: bool = True,
                 profiler: Profiler | None = None) -> None:
        self.obs = profiler if profiler is not None else Profiler()
        with activate(self.obs), obs.span("normalize", cat="compile"):
            normalize_compilation_unit(cu)
        self.cu = cu
        directives = cu.directives
        if not isinstance(directives, AcfdDirectives) \
                or not directives.grid_shape:
            raise DirectiveError(
                "program carries no (complete) $acfd directives; at least "
                "'status' and 'grid' are required")
        self.directives = directives
        if auto_status:
            self._auto_extend_status()
        self.grid = GridGeometry(self.directives.grid_shape)

    @classmethod
    def from_source(cls, src: str, filename: str = "<input>",
                    **kwargs) -> "AutoCFD":
        """Parse Fortran source and build the pre-compiler.

        The front-end (lex/parse/resolve) runs inside the instance's
        profiler so its spans show up alongside the compile phases.
        """
        profiler = kwargs.pop("profiler", None) or Profiler()
        with activate(profiler):
            cu = parse_source(src, filename)
        return cls(cu, profiler=profiler, **kwargs)

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "AutoCFD":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_source(fh.read(), filename=path, **kwargs)

    def _auto_extend_status(self) -> None:
        """Add grid-shaped arrays the user forgot to declare as status.

        An array whose leading extents cover the grid shape (within the
        usual one-cell padding) carries flow-field state; missing it in
        the ``status`` directive would silently skip its halo exchanges,
        so the pre-compiler adds it (the paper's directive minimalism).
        """
        shape = self.directives.grid_shape
        for unit in self.cu.units:
            table: SymbolTable = unit.symbols  # type: ignore[assignment]
            for sym in table.symbols.values():
                if not sym.is_array or sym.name in self.directives.status_arrays:
                    continue
                if sym.array.rank < len(shape):
                    continue
                try:
                    extents = [table.array_extent(sym.name, d)
                               for d in range(len(shape))]
                except Exception:
                    continue
                if all(n <= e <= n + 2 for n, e in zip(shape, extents)):
                    self.directives.status_arrays.append(sym.name)

    # -- compilation ----------------------------------------------------------------

    def partition_for(self, processors: int) -> Partition:
        """Choose the communication-minimizing partition (§4.1)."""
        return choose_partition(self.grid, processors,
                                self.directives.max_distance)

    def compile(self, partition: tuple[int, ...] | Partition | None = None,
                processors: int | None = None, *,
                combine: bool = True,
                eliminate_redundant: bool = True,
                overlap: str = "auto") -> CompileResult:
        """Compile for a partition (explicit, from directives, or chosen).

        Args:
            partition: explicit per-dim factors or a Partition object.
            processors: alternatively, a processor count — the §4.1
                partitioner picks the shape.
            combine: apply the combining optimization (ablation hook).
            eliminate_redundant: apply redundant-pair elimination.
            overlap: communication/computation overlap mode — ``"auto"``
                splits every provably safe consumer nest into interior +
                boundary strips around a nonblocking exchange, ``"off"``
                keeps every exchange blocking, ``"on"`` is auto plus
                refusal reasons surfaced as warnings by the CLI.
        """
        with activate(self.obs):
            with obs.span("partitioning", cat="compile") as psp:
                if isinstance(partition, Partition):
                    part = partition
                elif partition is not None:
                    part = Partition(self.grid, tuple(partition))
                elif processors is not None:
                    part = self.partition_for(processors)
                elif self.directives.partition:
                    part = Partition(self.grid, self.directives.partition)
                else:
                    raise PartitionError(
                        "no partition given: pass partition=, processors=, "
                        "or a partition directive")
                psp.args["dims"] = "x".join(str(p) for p in part.dims)
            plan = build_plan(self.cu, part, self.directives,
                              combine=combine,
                              eliminate_redundant=eliminate_redundant,
                              overlap=overlap)
            with obs.span("codegen-restructure", cat="compile"):
                spmd = restructure(plan)
            with obs.span("vectorize-survey", cat="compile") as vsp:
                from repro.interp.vectorize import survey
                nests = survey(spmd)
                vsp.args["vectorized"] = nests["vectorized"]
                vsp.args["fallback"] = nests["fallback"]
        report = CompilationReport(
            program=self.cu.main.name,
            partition=part.dims,
            syncs_before=plan.syncs_before,
            syncs_after=plan.syncs_after,
            pairs_total=len(plan.active_pairs),
            pairs_active=len(plan.active_pairs),
            combined_points=len(plan.syncs),
            pipes=len(plan.pipes),
            arrays=sorted(plan.arrays),
            vector_loops=nests["vectorized"],
            fallback_loops=nests["fallback"],
            vector_modes=nests["modes"],
            fallback_reasons=nests["reasons"],
            overlap_syncs=sum(1 for d in plan.overlap_decisions
                              if d.enabled),
            overlap_refusals=[(d.sync_id, d.reason)
                              for d in plan.overlap_decisions
                              if not d.enabled],
            overlap_decisions=[{"sync_id": d.sync_id,
                                "enabled": d.enabled,
                                "reason": d.reason,
                                "callee": d.callee}
                               for d in plan.overlap_decisions],
            freshness=[{"sync_id": s.sync_id,
                        "entry_only": dict(s.entry_only),
                        "refusals": dict(s.refusals)}
                       for s in plan.syncs],
            phases=[s for s in self.obs.spans() if s.cat == "compile"],
            metrics=self.obs.metrics.snapshot())
        return CompileResult(plan=plan, spmd_cu=spmd, report=report)

    # -- execution -------------------------------------------------------------------

    def run_sequential(self, *, input_text: str | None = None,
                       input_unit: int = 5,
                       vectorize: bool | None = None) -> RunResult:
        """Run the original sequential program (fast Python backend)."""
        io = IoManager()
        if input_text is not None:
            io.provide_input(input_unit, input_text)
        with activate(self.obs):
            return run_compiled(self.cu, io=io, vectorize=vectorize)
