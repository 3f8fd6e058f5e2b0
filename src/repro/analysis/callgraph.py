"""Call graph utilities for interprocedural synchronization analysis (§5.3).

The pre-compiler, "when a subroutine call is met in the process of locating
the synchronization region, checks if there is an R-type loop in the
subroutine" — this module answers that question transitively, and detects
recursion (which CFD programs never have and the inliner rejects).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.field_loops import LoopRole, UnitClassification
from repro.fortran import ast as A


@dataclass
class CallGraph:
    """Static call graph over a compilation unit."""

    #: caller -> set of callees (only calls to units present in the file)
    edges: dict[str, set[str]] = field(default_factory=dict)
    units: dict[str, A.ProgramUnit] = field(default_factory=dict)

    def callees(self, name: str) -> set[str]:
        return self.edges.get(name, set())

    def transitive_callees(self, name: str) -> set[str]:
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def has_recursion(self) -> bool:
        for name in self.edges:
            if name in self.transitive_callees(name):
                return True
        return False

    def call_sites(self, caller: str) -> list[A.CallStmt]:
        unit = self.units.get(caller)
        if unit is None:
            raise ValueError(
                f"no program unit named {caller!r} in the call graph "
                f"(units: {sorted(self.units)})")
        return [s for s in A.walk_statements(unit.body)
                if isinstance(s, A.CallStmt) and s.name in self.units]

    def site_count(self, callee: str) -> int:
        """Static call sites of *callee* across every unit in the file."""
        return sum(1 for unit in self.units.values()
                   for s in A.walk_statements(unit.body)
                   if isinstance(s, A.CallStmt) and s.name == callee)


def build_call_graph(cu: A.CompilationUnit) -> CallGraph:
    """Build the call graph of all program units in a file."""
    graph = CallGraph(units={u.name: u for u in cu.units})
    for unit in cu.units:
        callees = {s.name for s in A.walk_statements(unit.body)
                   if isinstance(s, A.CallStmt) and s.name in graph.units}
        graph.edges[unit.name] = callees
    return graph


@dataclass
class CalleeSummary:
    """Per-subroutine summary for interprocedural halo overlap (§5.3).

    Describes the shape the overlap splitter needs to sink an exchange
    from before ``call foo()`` into ``foo``: the first top-level consumer
    nest (split in place), the scalar assignments that precede it (they
    will run before the exchange is posted), and the tail that follows.
    ``refusal`` carries the structural reason the exchange cannot be
    sunk, or ``None`` when the shape is eligible (the caller still
    applies plan-specific safety checks: vecsafety, ghost footprint,
    actual arguments, scalar liveness).
    """

    name: str
    unit: A.ProgramUnit | None = None
    #: scalar assignments before the first nest (reduction inits etc.)
    leading: list[A.Assign] = field(default_factory=list)
    first_nest: A.DoLoop | None = None
    #: statements after the first nest, in original order
    tail: list[A.Stmt] = field(default_factory=list)
    call_sites: int = 0
    refusal: str | None = None


def summarize_callee(graph: CallGraph, name: str) -> CalleeSummary:
    """Structural eligibility of subroutine *name* to host the exchange
    that precedes its call.

    The splitter moves the exchange into the callee's body, so every
    execution of the callee must come from that one call: a
    single-call-site, non-recursive subroutine whose body is
    ``<scalar assignments>; <loop nest>; <tail>``.
    """

    def refuse(reason: str) -> CalleeSummary:
        return CalleeSummary(name, unit=graph.units.get(name),
                             refusal=reason)

    unit = graph.units.get(name)
    if unit is None:
        return refuse("not defined in this file (external routine)")
    if unit.kind != "subroutine":
        return refuse(f"call target is a {unit.kind}, not a subroutine")
    if name in graph.transitive_callees(name):
        return refuse("callee is (mutually) recursive")
    sites = graph.site_count(name)
    if sites != 1:
        return refuse(f"callee has {sites} static call sites "
                      f"(splitting requires exactly one)")
    leading: list[A.Assign] = []
    first_nest: A.DoLoop | None = None
    split_at = 0
    for i, stmt in enumerate(unit.body):
        if isinstance(stmt, A.DoLoop):
            first_nest, split_at = stmt, i
            break
        if (isinstance(stmt, A.CallStmt)
                and stmt.name == "acfd_pipe_recv"):
            return refuse("first consumer nest is pipelined "
                          "(self-dependent): its wavefront needs the "
                          "ghosts immediately")
        if not isinstance(stmt, A.Assign) \
                or not isinstance(stmt.target, A.Var):
            return refuse("statements before the first loop nest are "
                          "not all scalar assignments")
        if stmt.label is not None:
            return refuse("a scalar assignment before the nest carries "
                          "a statement label")
        leading.append(stmt)
    if first_nest is None:
        return refuse("callee body contains no top-level loop nest")
    return CalleeSummary(name, unit=unit, leading=leading,
                         first_nest=first_nest,
                         tail=unit.body[split_at + 1:], call_sites=sites)


def unit_has_rtype_loop(classification: UnitClassification,
                        graph: CallGraph,
                        classifications: dict[str, UnitClassification],
                        array: str | None = None) -> bool:
    """§5.3 test: does the unit (or anything it calls) contain an R-type
    loop — optionally restricted to loops reading *array*?"""
    names = {classification.unit.name} | graph.transitive_callees(
        classification.unit.name)
    for name in names:
        cls = classifications.get(name)
        if cls is None:
            continue
        for fl in cls.field_loops:
            if array is None:
                if fl.referenced_arrays:
                    return True
            elif fl.role(array) in (LoopRole.R, LoopRole.C):
                return True
    return False
