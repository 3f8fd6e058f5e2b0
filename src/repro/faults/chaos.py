"""Restart-based recovery and the chaos harness behind ``acfd chaos``.

:func:`run_recovered` executes a generated SPMD program under a fault
plan and, when the world dies, respawns it restoring every rank from the
latest frame both written by all ranks and survived by the checkpoint
pruner; frames before the restore point fast-forward (the ``acfd_frame``
hook cycles them).  Because one injector instance spans all attempts,
each fault fires exactly once and the replay runs clean.

:func:`run_chaos` is the harness: one fault-free baseline, then one
recovered run per fault scenario, asserting the final status grids come
out **bitwise identical** — the same determinism contract the
cross-executor equivalence suite enforces, extended to degraded runs.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

from repro.codegen.plan import ParallelPlan
from repro.codegen.runner import ParallelResult, run_parallel
from repro.errors import ReproError, RuntimeCommError
from repro.faults.checkpoint import Checkpointer, CheckpointStore
from repro.faults.inject import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.fortran import ast as A


@dataclass
class AttemptLog:
    """One launch of the world during a recovered run."""

    restore_frame: int | None  # None: from program start
    wall_s: float
    error: str | None  # None: this attempt finished the program


@dataclass
class ScenarioResult:
    """One fault scenario's verdict."""

    name: str
    fault_plan: dict
    ok: bool
    #: bitwise comparison vs the fault-free run (None: no final state)
    identical: bool | None
    attempts: list[AttemptLog] = field(default_factory=list)
    #: fault events that actually triggered
    fired: list[dict] = field(default_factory=list)
    mismatched: list[str] = field(default_factory=list)
    error: str | None = None
    #: path of the postmortem written for an unrecovered failure
    postmortem: str | None = None
    wall_s: float = 0.0
    #: lost time in the finishing attempt (straggler sleeps + checkpoint
    #: and restore overhead) summed over ranks, from the run's timeline
    fault_time_s: float = 0.0

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "identical": self.identical, "restarts": self.restarts,
                "fired": self.fired, "mismatched": self.mismatched,
                "error": self.error, "postmortem": self.postmortem,
                "wall_s": self.wall_s,
                "fault_time_s": self.fault_time_s,
                "fault_plan": self.fault_plan,
                "attempts": [{"restore_frame": a.restore_frame,
                              "wall_s": a.wall_s, "error": a.error}
                             for a in self.attempts]}


@dataclass
class ChaosReport:
    """The full fault-matrix outcome."""

    app: str
    partition: tuple[int, ...]
    seed: int
    scenarios: list[ScenarioResult] = field(default_factory=list)
    baseline_wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)

    def as_dict(self) -> dict:
        return {"app": self.app,
                "partition": list(self.partition),
                "seed": self.seed, "ok": self.ok,
                "baseline_wall_s": self.baseline_wall_s,
                "scenarios": [s.as_dict() for s in self.scenarios]}

    def table(self) -> str:
        lines = [f"chaos: {self.app} on "
                 f"{'x'.join(str(d) for d in self.partition)} ranks, "
                 f"seed {self.seed} "
                 f"(baseline {self.baseline_wall_s * 1e3:.0f}ms)",
                 f"{'scenario':<12} {'ok':<4} {'grids':<10} "
                 f"{'fired':<6} {'restarts':<9} {'lost':>8} {'wall':>8}"]
        for s in self.scenarios:
            grids = ("identical" if s.identical
                     else "MISMATCH" if s.identical is not None else "-")
            lines.append(f"{s.name:<12} {'yes' if s.ok else 'NO':<4} "
                         f"{grids:<10} {len(s.fired):<6} "
                         f"{s.restarts:<9} {s.fault_time_s * 1e3:>6.0f}ms "
                         f"{s.wall_s * 1e3:>6.0f}ms")
            if s.error:
                lines.append(f"    {s.error.splitlines()[0]}")
            if s.postmortem:
                lines.append(f"    postmortem: {s.postmortem}")
        return "\n".join(lines)


def run_recovered(plan: ParallelPlan, spmd_cu: A.CompilationUnit | None,
                  *, fault_plan: FaultPlan, ckpt_dir: str,
                  input_text: str | None = None, recover: bool = True,
                  max_restarts: int = 3, every: int = 1, keep: int = 4,
                  timeout: float = 60.0, vectorize: bool | None = None,
                  executor: str = "thread", telemetry=None,
                  postmortem_dir: str | None = None,
                  ) -> tuple[ParallelResult, list[AttemptLog],
                             FaultInjector]:
    """Run under *fault_plan*, restarting from checkpoints until done.

    Returns the finishing attempt's result, the attempt log, and the
    injector (whose ``fired()`` says which faults actually triggered).

    Args:
        ckpt_dir: checkpoint directory (shared by all attempts).
        recover: False re-raises the first failure (``--no-recover``).
        max_restarts: recovery budget; exhausted → :class:`ReproError`.
        every: checkpoint cadence in frames.
        keep: checkpoints retained per rank — must exceed the frame skew
            ranks can accumulate, or the latest common frame gets pruned.
        telemetry: a :class:`repro.obs.health.Telemetry` spanning the
            attempts; created internally when None (shared-memory backed
            on the process executor) so every failure gets a postmortem.
        postmortem_dir: where ``postmortem_<sha>.json`` is written when
            the run dies for good; None only attaches the report to the
            raised exception (``exc.postmortem``) without writing.
    """
    from repro.obs.health import Telemetry
    from repro.obs.postmortem import build_postmortem, write_postmortem

    size = plan.partition.size
    store = CheckpointStore(ckpt_dir)
    injector = FaultInjector(fault_plan)
    own_telemetry = telemetry is None
    if own_telemetry:
        telemetry = Telemetry(size, shared=(executor == "process"))

    def autopsy(exc: BaseException) -> None:
        """Attach (and optionally write) the postmortem to *exc*."""
        report = build_postmortem(error=exc, size=size,
                                  telemetry=telemetry, store=store,
                                  injector=injector, attempts=attempts)
        exc.postmortem = report
        if postmortem_dir is not None:
            exc.postmortem_path = write_postmortem(report, postmortem_dir)

    attempts: list[AttemptLog] = []
    restore: int | None = None
    last_error: BaseException | None = None
    try:
        for _attempt in range(1 + max_restarts):
            ck = Checkpointer(store, every=every, keep=keep,
                              restore_frame=restore)
            t0 = time.perf_counter()
            try:
                result = run_parallel(plan, input_text=input_text,
                                      timeout=timeout, spmd_cu=spmd_cu,
                                      vectorize=vectorize,
                                      injector=injector,
                                      checkpointer=ck, executor=executor,
                                      telemetry=telemetry)
            except RuntimeCommError as exc:
                attempts.append(AttemptLog(restore,
                                           time.perf_counter() - t0,
                                           f"{type(exc).__name__}: {exc}"))
                if not recover:
                    autopsy(exc)
                    raise
                last_error = exc
                restore = store.latest_common_frame(size)
                continue
            attempts.append(AttemptLog(restore,
                                       time.perf_counter() - t0, None))
            return result, attempts, injector
        exhausted = ReproError(
            f"chaos recovery exhausted {max_restarts} restart(s) "
            f"({fault_plan.describe()}); last failure: {last_error}")
        autopsy(exhausted)
        raise exhausted from last_error
    finally:
        if own_telemetry:
            telemetry.close()


#: shrunk-but-honest app decks for the chaos matrix (small grids, enough
#: frames for every fault window; eps=0 keeps the frame count fixed)
def _chaos_app(app: str, full: bool) -> tuple[str, str, int]:
    """Returns (source, input_text, frame_count) for a chaos app."""
    from repro.apps.aerofoil import AEROFOIL_INPUT, aerofoil_source
    from repro.apps.sprayer import SPRAYER_INPUT, sprayer_source
    if app == "sprayer":
        if full:
            return sprayer_source(eps=0.0), SPRAYER_INPUT, 60
        return (sprayer_source(n=48, m=20, iters=8, eps=0.0, stages=2),
                SPRAYER_INPUT, 8)
    if app == "aerofoil":
        if full:
            return aerofoil_source(eps=0.0), AEROFOIL_INPUT, 40
        return (aerofoil_source(nx=25, ny=11, nz=7, iters=6, eps=0.0,
                                stages=2, blayer_passes=1),
                AEROFOIL_INPUT, 6)
    raise ReproError(f"unknown chaos app {app!r} (sprayer or aerofoil)")


def run_chaos(*, app: str = "sprayer", source: str | None = None,
              input_text: str | None = None, frames: int = 8,
              partition: tuple[int, ...] = (2, 2), seed: int = 0,
              scenarios: tuple[str, ...] = FAULT_KINDS,
              recover: bool = True, max_restarts: int = 3,
              every: int = 1, full: bool = False,
              timeout: float = 60.0, vectorize: bool | None = None,
              workdir: str | None = None,
              executor: str = "thread",
              postmortem_dir: str | None = None) -> ChaosReport:
    """Run the fault matrix and compare every scenario to fault-free.

    Args:
        app: built-in app name (used when *source* is None).
        source: explicit Fortran source (overrides *app*).
        input_text: program input deck (required with *source*).
        frames: frame-loop bound faults are drawn within (ignored for
            built-in apps, which report their own).
        partition: per-dim rank factors.
        seed: fault-plan seed — the whole matrix is reproducible from it.
        scenarios: fault kinds to inject, one scenario each.
        recover: False lets the first failure propagate (crash scenarios
            then fail loudly with rank attribution instead of retrying).
        full: built-in apps at paper scale instead of the quick deck.
        workdir: parent directory for per-scenario checkpoint dirs.
        executor: ``"thread"`` or ``"process"`` — on the process
            executor an injected crash is a real worker death
            (``SIGKILL``), so recovery is exercised against the genuine
            failure mode, not a simulated exception.
        postmortem_dir: directory collecting ``postmortem_<sha>.json``
            files for scenarios that die unrecovered (see
            ``acfd postmortem``); None skips writing them.
    """
    from repro.core.pipeline import AutoCFD
    if source is None:
        source, input_text, frames = _chaos_app(app, full)
    else:
        app = "<source>"
    acfd = AutoCFD.from_source(source)
    compiled = acfd.compile(partition=partition)
    size = compiled.plan.partition.size

    t0 = time.perf_counter()
    baseline = compiled.run_parallel(input_text=input_text,
                                     timeout=timeout, vectorize=vectorize,
                                     executor=executor)
    report = ChaosReport(app=app, partition=tuple(partition), seed=seed,
                         baseline_wall_s=time.perf_counter() - t0)
    base_bytes = {name: baseline.array(name).data.tobytes()
                  for name in compiled.plan.arrays}

    for kind in scenarios:
        fault_plan = FaultPlan.seeded(seed, size, kinds=(kind,),
                                      frames=frames)
        t0 = time.perf_counter()
        result = None
        attempts: list[AttemptLog] = []
        fired: list[dict] = []
        error = None
        postmortem = None
        with tempfile.TemporaryDirectory(prefix=f"acfd_chaos_{kind}_",
                                         dir=workdir) as ckpt_dir:
            try:
                result, attempts, injector = run_recovered(
                    compiled.plan, compiled.spmd_cu,
                    fault_plan=fault_plan, ckpt_dir=ckpt_dir,
                    input_text=input_text, recover=recover,
                    max_restarts=max_restarts, every=every,
                    timeout=timeout, vectorize=vectorize,
                    executor=executor, postmortem_dir=postmortem_dir)
                fired = injector.fired()
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
                postmortem = getattr(exc, "postmortem_path", None)
        wall = time.perf_counter() - t0
        identical = None
        mismatched: list[str] = []
        fault_time = 0.0
        if result is not None:
            mismatched = [name for name, ref in base_bytes.items()
                          if result.array(name).data.tobytes() != ref]
            identical = not mismatched
            fault_time = sum(r.fault for r in result.rollup().ranks)
        report.scenarios.append(ScenarioResult(
            name=kind, fault_plan=fault_plan.to_dict(),
            ok=error is None and bool(identical), identical=identical,
            attempts=attempts, fired=fired, mismatched=mismatched,
            error=error, postmortem=postmortem, wall_s=wall,
            fault_time_s=fault_time))
    return report
