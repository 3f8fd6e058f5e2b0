"""The halo-overlap verdict: which combined syncs could run split.

A blocking ``call acfd_exchange(k, ...)`` directly followed by a provably
order-independent field-loop nest could run as a nonblocking begin, the
nest's interior (no ghost reads), a finish, and the boundary strips:
along each cut dimension as wide as the combined point's merged ghost
footprint (``PlannedSync.dim_distances``), so no interior iteration reads
a ghost still in flight.  This pass only decides whether a sync could be
split; the emitted program always keeps the blocking exchange, and
``plan.overlap_decisions`` marks the syncs ``ClusterSim`` models as
overlapped.  Safety follows the ``Fallback`` discipline of
:mod:`repro.analysis.vecsafety`: any nest outside the provable subset
is refused with a recorded reason.
Mode ``on`` marks every safe split; ``auto`` marks none and records each
safe one as :data:`NOT_MARKED`, because both of this repo's executors
deliver a face with the sender's own copy before ``begin()`` returns, so
a split would have no wire time in flight to hide.

``build_plan`` runs the verdict over the source program as restructuring
will emit it: each statement list is read through
:func:`repro.analysis.loops.spliced` with the planned statements laid in,
and each consumer nest's field loop is the plan's classification at the
nest's path.  Clamped bounds and ownership guards are left out: they
change no fact the verdict reads.

Both paper apps keep their stencils in subroutines, so a combined sync is
usually followed by ``call momentum0()`` rather than a nest.  The paper
(§5.3, Fig. 8) moves a synchronization point across the call boundary; so
does this verdict.  When the callee is ``<scalar assignments>; <consumer
nest>; <tail>`` the split would post the exchange after the leading
assignments, in the callee, which is still called once.  So only what
would then run *before* the exchange (the actual arguments, the leading
assignments) and what the caller can observe (a dummy or COMMON nest
scalar) is gated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.callgraph import build_call_graph, summarize_callee
from repro.analysis.loops import Path, Placed, spliced
from repro.analysis.stencil import SubscriptKind
from repro.analysis.vecsafety import analyze_nest
from repro.fortran import ast as A
from repro.fortran.intrinsics_table import is_intrinsic
from repro.fortran.symbols import SymbolTable

if TYPE_CHECKING:
    from repro.codegen.plan import ParallelPlan, PlannedSync

#: the reason mode ``auto`` records for a safe split
NOT_MARKED = ("safe, not marked: no wire time in flight on this host's "
              "executors")


@dataclass
class OverlapDecision:
    """Whether one combined sync is marked split (nonblocking) or not.

    Recorded by the overlap verdict on the loop nest that consumes the
    exchange.  ``ClusterSim`` models a marked sync as overlapped with
    that nest's interior; the emitted program keeps every exchange
    blocking.  ``reason`` explains a refusal in the same spirit as the
    ``vecsafety`` ``Fallback`` discipline, or is :data:`NOT_MARKED` for a
    safe split under mode ``auto``.  ``callee`` names the subroutine when
    the verdict crossed a ``call`` boundary (interprocedural split or
    in-callee refusal), else "".
    """

    sync_id: int
    enabled: bool
    reason: str = ""
    callee: str = ""


Emitted = list[tuple[Path | None, A.Stmt]]


def decide_overlap(plan: ParallelPlan,
                   placed: Placed) -> list[OverlapDecision]:
    """One decision per combined sync of *plan*, in sync order.

    *placed* holds the statements restructuring inserts
    (``repro.codegen.plan.planned_statements``).
    """
    if plan.overlap == "off":
        return [OverlapDecision(s.sync_id, False,
                                "overlap disabled (mode off)")
                for s in plan.syncs]
    if not plan.syncs:
        return []
    return _Verdict(plan, placed).decide()


class _Verdict:
    def __init__(self, plan: ParallelPlan, placed: Placed) -> None:
        self.plan = plan
        self.placed = placed
        self.cut = set(plan.partition.cut_dims)
        self.diag_arrays = _diagonal_readers(plan, self.cut)
        self.targets = {u.name: frozenset(A.goto_targets(u))
                        for u in plan.cu.units}
        self.graph = build_call_graph(plan.cu)
        self.syncs_by_id = {s.sync_id: s for s in plan.syncs}

    def emitted(self, unit: str, stmts: list[A.Stmt],
                prefix: Path) -> Emitted:
        return spliced(stmts, unit, prefix, self.placed)

    def decide(self) -> list[OverlapDecision]:
        decided: dict[int, OverlapDecision] = {}
        for unit in self.plan.cu.units:
            self._walk(unit, self.emitted(unit.name, unit.body, ()), [],
                       decided)
        return [decided.get(s.sync_id, OverlapDecision(
                    s.sync_id, False, "no loop nest follows the exchange"))
                for s in self.plan.syncs]

    def _walk(self, unit: A.ProgramUnit, body: Emitted,
              tails: list[list[A.Stmt]], decided: dict) -> None:
        stmts = [s for _p, s in body]
        for i, (path, stmt) in enumerate(body):
            if path is None:
                if (isinstance(stmt, A.CallStmt)
                        and stmt.name == "acfd_exchange"):
                    sid = stmt.args[0].value  # type: ignore[attr-defined]
                    sync = self.syncs_by_id.get(sid)
                    if sync is not None and sid not in decided:
                        nxt = body[i + 1] if i + 1 < len(body) \
                            else (None, None)
                        decided[sid] = self._one(unit, sync, nxt,
                                                 [stmts[i + 2:]] + tails)
            elif isinstance(stmt, (A.DoLoop, A.DoWhile)):
                inner = self.emitted(unit.name, stmt.body, path)
                self._walk(unit, inner, [stmts[i + 1:],
                                         [s for _p, s in inner]] + tails,
                           decided)
            elif isinstance(stmt, A.IfBlock):
                for k, (_cond, arm) in enumerate(stmt.arms):
                    self._walk(unit, self.emitted(
                        unit.name, arm, path + (("arm", k),)),
                        [stmts[i + 1:]] + tails, decided)

    def _one(self, unit: A.ProgramUnit, sync: PlannedSync,
             nxt: tuple[Path | None, A.Stmt | None],
             tails: list[list[A.Stmt]]) -> OverlapDecision:
        """Decide whether one exchange's consumer nest could be split.

        The consumer is the statement after the exchange when that is a
        loop, or the first nest of the subroutine it calls.
        """
        sid = sync.sync_id
        callee = ""

        def refuse(reason: str) -> OverlapDecision:
            return OverlapDecision(sid, False, reason, callee=callee)

        host = unit
        path, stmt = nxt
        if not sync.steady:
            # past the first trip the exchange sends nothing: there is
            # nothing in flight to hide
            return refuse("nothing to send after the first frame")
        if isinstance(stmt, A.DoLoop):
            loop = stmt
        elif isinstance(stmt, A.CallStmt) and stmt.name == "acfd_pipe_recv":
            return refuse("consumer loop is pipelined (self-dependent): "
                          "its wavefront needs the ghosts immediately")
        elif isinstance(stmt, A.CallStmt) and stmt.name in self.graph.units:
            callee = stmt.name
            body = self.emitted(callee, self.graph.units[callee].body, ())
            summary = summarize_callee(self.graph, callee,
                                       [s for _p, s in body])
            reason = self._sink_refusal(sync, stmt, summary)
            if reason is not None:
                return refuse(reason)
            host, loop, tails = summary.unit, summary.first_nest, \
                [summary.tail]
            path = next(p for p, s in body if s is loop)
        else:
            return refuse("no loop nest follows the exchange")
        reason, facts = self._verdict(host, sync, loop, path, tails)
        if reason is None and callee:
            reason = _escaping_scalar(host, facts)
        if reason is not None:
            return refuse(f"in callee {callee!r}: {reason}" if callee
                          else reason)
        if self.plan.overlap == "auto":
            return refuse(NOT_MARKED)
        return OverlapDecision(sid, True, "", callee=callee)

    def _sink_refusal(self, sync: PlannedSync, call: A.CallStmt,
                      summary) -> str | None:
        """Why the exchange cannot move from before *call* to after the
        callee's leading assignments, else None.

        Sinking would make the actual arguments and the leading
        assignments run before the exchange instead of after it, so
        neither may look at distributed data or call user code; and the
        sunk exchange names the sync's arrays, so the callee must declare
        them all.
        """
        inside = f"in callee {call.name!r}: "
        if summary.refusal is not None:
            return inside + summary.refusal
        if call.label is not None:
            # a goto to the label bypasses the caller's exchange; it
            # could not bypass the sunk one
            return "the consumer call carries a statement label"
        at_call = f"call to {call.name!r}: "
        arrays = self.plan.arrays
        for arg in call.args:
            for node in A.walk(arg):
                if isinstance(node, A.Var) and node.name in arrays:
                    # the callee sees it under a second name, which the
                    # by-name footprint checks cannot follow
                    return (f"{at_call}status array {node.name!r} is "
                            f"passed as an actual argument")
                if isinstance(node, A.ArrayRef) and node.name in arrays:
                    return (f"{at_call}actual argument reads status array "
                            f"{node.name!r} (evaluated before the "
                            f"exchange)")
                if isinstance(node, A.FuncCall) \
                        and not is_intrinsic(node.name):
                    return (f"{at_call}actual argument calls function "
                            f"{node.name!r} (it would run before the "
                            f"exchange)")
        table: SymbolTable = summary.unit.symbols  # type: ignore[assignment]
        for name, _d in sync.arrays:
            sym = table.get(name)
            if sym is None or not sym.is_array:
                return (f"{inside}array {name!r} of the exchange is not "
                        f"declared there")
        for st in summary.leading:
            for node in A.walk(st.value):
                if isinstance(node, A.ArrayRef):
                    return (f"{inside}assignment to {st.target.name!r} "
                            f"before the nest reads an array element")
                if isinstance(node, A.FuncCall) \
                        and not is_intrinsic(node.name):
                    return (f"{inside}assignment to {st.target.name!r} "
                            f"before the nest calls a function")
        return None

    def _verdict(self, unit: A.ProgramUnit, sync: PlannedSync,
                 loop: A.DoLoop, path: Path, tails: list[list[A.Stmt]]):
        """(refusal reason or None, vecsafety facts)."""
        targets = self.targets[unit.name]
        fl = self.plan.frame.classifications[unit.name].field_loop_at(path)
        if fl is None:
            return ("the loop after the exchange is not a field-loop nest",
                    None)
        facts = analyze_nest(loop, unit.symbols, targets)
        if not facts.ok:
            return (f"consumer nest is not provably order-independent: "
                    f"{facts.reason}", None)
        if facts.carried:
            return (f"consumer nest is not provably order-independent: "
                    f"loop-carried dependence over "
                    f"{', '.join(facts.carried)}", None)
        labels = set()
        for s in A.walk_statements([loop]):
            if s.label is not None:
                labels.add(s.label)
            if isinstance(s, A.DoLoop) and s.end_label is not None:
                labels.add(s.end_label)
        if labels & targets:
            return "a label inside the nest is a goto target", None
        active = [g for g in sorted(self.cut)
                  if sync.dim_distances.get(g, (0, 0)) != (0, 0)]
        if not active:
            return ("exchange has no ghost footprint on a cut dimension",
                    None)
        for g in active:
            var = fl.sweeps.get(g)
            if var is None or var not in facts.nest_vars:
                return (f"nest does not sweep grid dimension {g + 1} that "
                        f"the exchange ships ghosts for", None)
            lv = facts.levels[facts.nest_vars.index(var)]
            if lv.step is not None and not (
                    isinstance(lv.step, A.IntLit) and lv.step.value == 1):
                return (f"non-unit stride on the loop over grid dimension "
                        f"{g + 1}", None)
        if len(active) >= 2:
            hot = {name for name, _d in sync.arrays} & self.diag_arrays
            if hot:
                return (f"diagonal (corner) reads of {sorted(hot)} need the "
                        f"ordered two-phase exchange", None)
        names = (set(facts.temps) | set(facts.nest_vars)) \
            - set(facts.reductions)
        for seg in tails:
            hit = _scan_reads(seg, set(names))
            if hit is not None:
                return (f"scalar {hit!r} may be read after the nest "
                        f"(splitting changes its exit value)", None)
        return None, facts


def _diagonal_readers(plan: ParallelPlan, cut: set[int]) -> set[str]:
    """Status arrays some nest reads diagonally across >= 2 cut dims.

    The blocking exchange propagates corner ghosts by ordering the
    dimensions (later faces carry earlier dims' fresh ghosts).  The split
    ``ClusterSim`` models posts every face at once, which would ship
    stale corners, so a combined point covering such an array on >= 2
    cut dimensions is never marked split.
    """
    out: set[str] = set()
    for cls in plan.frame.classifications.values():
        table: SymbolTable = cls.unit.symbols  # type: ignore[assignment]
        for fl in cls.field_loops:
            for use in fl.uses.values():
                if use.irregular:
                    out.add(use.array)
                    continue
                sym = table.get(use.array)
                if sym is None or sym.array is None:
                    continue
                dim_map = plan.directives.status_dims(use.array,
                                                      sym.array.rank)
                for ap in use.reads:
                    hot = 0
                    for adim, sub in enumerate(ap.subs):
                        g = dim_map[adim] if adim < len(dim_map) else None
                        if g is None or g not in cut:
                            continue
                        if sub.kind is SubscriptKind.INDUCTION:
                            if sub.offset != 0:
                                hot += 1
                        elif sub.kind is SubscriptKind.CONSTANT:
                            pass
                        elif sub.kind is SubscriptKind.STRIDED \
                                and sub.distance == 0:
                            pass
                        else:  # strided with reach, or irregular
                            hot += 2
                    if hot >= 2:
                        out.add(use.array)
                        break
    return out


def _escaping_scalar(callee: A.ProgramUnit, facts) -> str | None:
    """Splitting changes the exit value of the nest's loop variables and
    temporaries; one that is a dummy or COMMON member would carry it out
    to the caller, whose reads are not scanned."""
    table: SymbolTable = callee.symbols  # type: ignore[assignment]
    for nm in sorted((set(facts.temps) | set(facts.nest_vars))
                     - set(facts.reductions)):
        sym = table.get(nm)
        if sym is not None and (sym.is_dummy
                                or sym.common_block is not None):
            return (f"nest scalar {nm!r} is a dummy or COMMON member, so "
                    f"its exit value escapes the callee")
    return None


# -- liveness scan: is a nest-local scalar read after the nest? --------------


def _scan_reads(stmts: list[A.Stmt], live: set[str]) -> str | None:
    """First name in *live* read before re-assignment, else None.

    Kills persist along one statement list; kills inside nested
    (conditionally executed) bodies do not escape them.  A DO kills its
    variable even on zero trips (Fortran assigns it on entry).  Lists
    nested in a tail statement are scanned as written: the statements
    restructuring plants there read only status arrays, the frame
    variable, and a reduction variable its loop has already read.
    """
    for stmt in stmts:
        if not live:
            return None
        hit = _scan_stmt(stmt, live)
        if hit is not None:
            return hit
    return None


def _scan_stmt(stmt: A.Stmt, live: set[str]) -> str | None:
    def reads(expr) -> str | None:
        if expr is None:
            return None
        for node in A.walk(expr):
            if isinstance(node, A.Var) and node.name in live:
                return node.name
        return None

    if isinstance(stmt, A.Assign):
        hit = reads(stmt.value)
        if hit is None and isinstance(stmt.target, A.ArrayRef):
            for sub in stmt.target.subs:
                hit = hit or reads(sub)
        if hit is not None:
            return hit
        if isinstance(stmt.target, A.Var):
            live.discard(stmt.target.name)
        return None
    if isinstance(stmt, A.DoLoop):
        for e in (stmt.start, stmt.stop, stmt.step):
            hit = reads(e)
            if hit is not None:
                return hit
        inner = set(live)
        inner.discard(stmt.var)
        hit = _scan_reads(stmt.body, inner)
        if hit is not None:
            return hit
        live.discard(stmt.var)
        return None
    if isinstance(stmt, A.DoWhile):
        hit = reads(stmt.cond)
        return hit if hit is not None \
            else _scan_reads(stmt.body, set(live))
    if isinstance(stmt, A.IfBlock):
        for cond, arm in stmt.arms:
            hit = reads(cond)
            if hit is None:
                hit = _scan_reads(arm, set(live))
            if hit is not None:
                return hit
        return None
    if isinstance(stmt, A.LogicalIf):
        hit = reads(stmt.cond)
        return hit if hit is not None \
            else _scan_stmt(stmt.stmt, set(live))
    # anything else (calls, I/O, exits): every Var counts as a read
    for node in A.walk(stmt):
        if isinstance(node, A.Var) and node.name in live:
            return node.name
    return None
