"""The inlined *frame program*: position space for synchronization analysis.

Auto-CFD's synchronization optimization reasons about *program positions*
("a position (or a line number) in a program", §5).  To combine
synchronizations across subroutines (§5.3) the pre-compiler must see one
flat picture of the whole computation, so this module inlines every CALL
(subroutines may appear multiple times — Figure 8's ``call a`` twice) and
assigns every statement *instance* an integer **slot**:

* each node owns ``open`` and ``close`` slots from a DFS numbering;
* a synchronization placed *at slot p* executes immediately before the
  event numbered ``p``;
* "right after loop L" is ``L.close + 1``; "right before loop L" is
  ``L.open``; "at the end of loop C's body (each iteration)" is
  ``C.close``;
* the *interior* of a node N is ``(N.open, N.close]`` — a placement there
  is inside N.

Slots are the coordinates for upper-bound synchronization regions
(:mod:`repro.sync.regions`) and for the minimum-intersection combining
algorithm (:mod:`repro.sync.combine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.field_loops import (
    FieldLoop,
    UnitClassification,
    classify_unit,
)
from repro.errors import AnalysisError
from repro.fortran import ast as A
from repro.fortran.directives import AcfdDirectives

#: static AST address of a statement: unit name + path of (kind, index)
Location = tuple[str, tuple[tuple[str, int], ...]]


@dataclass
class InstanceNode:
    """One statement instance in the inlined frame program."""

    kind: str  # root | loop | if | arm | stmt | call
    stmt: A.Stmt | None
    unit_name: str
    path: tuple[tuple[str, int], ...]
    call_path: tuple[int, ...]  # call-site instance ids from the root
    parent: "InstanceNode | None" = None
    children: list["InstanceNode"] = field(default_factory=list)
    open: int = -1
    close: int = -1
    field_loop: FieldLoop | None = None
    arm_index: int | None = None

    @property
    def location(self) -> Location:
        return (self.unit_name, self.path)

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def enclosing_loops(self) -> list["InstanceNode"]:
        """Loop-kind ancestors, innermost first."""
        return [n for n in self.ancestors() if n.kind == "loop"]

    def contains_slot(self, slot: int) -> bool:
        return self.open < slot <= self.close

    def __repr__(self) -> str:  # pragma: no cover
        tag = ""
        if self.field_loop is not None:
            tag = f" FL#{self.field_loop.index}"
        return (f"Inst({self.kind} {self.unit_name}"
                f" [{self.open},{self.close}]{tag})")


@dataclass
class FrameProgram:
    """The whole inlined computation with slot numbering."""

    root: InstanceNode
    slot_count: int
    nodes: list[InstanceNode]
    field_loop_instances: list[InstanceNode]
    classifications: dict[str, UnitClassification]
    directives: AcfdDirectives
    #: call multiplicity: how many times each unit is inlined
    call_counts: dict[str, int]

    def node_at_open(self, slot: int) -> InstanceNode | None:
        for n in self.nodes:
            if n.open == slot:
                return n
        return None

    def node_at_close(self, slot: int) -> InstanceNode | None:
        for n in self.nodes:
            if n.close == slot:
                return n
        return None

    def frame_loop(self) -> InstanceNode | None:
        """The frame (time) loop's first instance, if the directive names
        its variable."""
        var = self.directives.frame_var
        if var is None:
            return None
        for node in self.nodes:
            if node.kind == "loop" and isinstance(node.stmt, A.DoLoop) \
                    and node.stmt.var == var:
                return node
        return None

    def common_enclosing_loop(self, a: InstanceNode,
                              b: InstanceNode) -> InstanceNode | None:
        """Innermost loop instance containing both nodes (or None)."""
        a_loops = a.enclosing_loops()
        b_set = {id(n) for n in b.enclosing_loops()}
        for loop in a_loops:  # innermost first
            if id(loop) in b_set:
                return loop
        return None

    def interior_exclusions(self, start: int, end: int) -> list[tuple[int, int]]:
        """Interior slot ranges (open, close] of nodes fully inside
        ``[start, end]`` — positions where a sync must not be placed."""
        out = []
        for n in self.nodes:
            if n.kind == "root":
                continue
            if n.open >= start and n.close <= end:
                out.append((n.open, n.close))
        return out

    def allowed_slots(self, start: int, end: int) -> list[int]:
        """Placement slots in [start, end] outside all interior ranges."""
        if start > end:
            return []
        banned = set()
        for lo, hi in self.interior_exclusions(start, end):
            banned.update(range(lo + 1, hi + 1))
        return [p for p in range(start, end + 1) if p not in banned]


def build_frame_program(cu: A.CompilationUnit,
                        directives: AcfdDirectives | None = None,
                        max_depth: int = 12) -> FrameProgram:
    """Inline the main program into an instance tree with slot numbering.

    Args:
        cu: resolved compilation unit.
        directives: ``$acfd`` directives; taken from *cu* when omitted.
        max_depth: call-inlining depth bound (recursion guard).
    """
    if directives is None:
        directives = cu.directives  # type: ignore[assignment]
    if directives is None:
        raise AnalysisError("no directives available for frame analysis")

    classifications = {u.name: classify_unit(u, directives)
                       for u in cu.units}
    units = {u.name: u for u in cu.units}
    main = cu.main

    counter = 0
    nodes: list[InstanceNode] = []
    field_instances: list[InstanceNode] = []
    call_counts: dict[str, int] = {main.name: 1}
    call_seq = [0]

    def next_slot() -> int:
        nonlocal counter
        value = counter
        counter += 1
        return value

    def make(kind: str, stmt: A.Stmt | None, unit_name: str,
             path: tuple, call_path: tuple,
             parent: InstanceNode | None) -> InstanceNode:
        node = InstanceNode(kind, stmt, unit_name, path, call_path,
                            parent)
        nodes.append(node)
        if parent is not None:
            parent.children.append(node)
        node.open = next_slot()
        return node

    def close(node: InstanceNode) -> None:
        node.close = next_slot()

    def visit_body(stmts: list[A.Stmt], unit: A.ProgramUnit,
                   prefix: tuple, call_path: tuple,
                   parent: InstanceNode, depth: int) -> None:
        classification = classifications[unit.name]
        for i, stmt in enumerate(stmts):
            path = prefix + (("body", i),)
            if isinstance(stmt, A.DoLoop):
                node = make("loop", stmt, unit.name, path, call_path, parent)
                node.field_loop = classification.field_loop_of(stmt)
                if node.field_loop is not None:
                    field_instances.append(node)
                visit_body(stmt.body, unit, path, call_path, node, depth)
                close(node)
            elif isinstance(stmt, A.DoWhile):
                node = make("loop", stmt, unit.name, path, call_path, parent)
                visit_body(stmt.body, unit, path, call_path, node, depth)
                close(node)
            elif isinstance(stmt, A.IfBlock):
                node = make("if", stmt, unit.name, path, call_path, parent)
                for arm_index, (_c, body) in enumerate(stmt.arms):
                    arm = make("arm", stmt, unit.name,
                               path + (("arm", arm_index),), call_path, node)
                    arm.arm_index = arm_index
                    visit_body(body, unit, path + (("arm", arm_index),),
                               call_path, arm, depth)
                    close(arm)
                close(node)
            elif isinstance(stmt, A.LogicalIf):
                node = make("if", stmt, unit.name, path, call_path, parent)
                arm = make("arm", stmt, unit.name, path + (("then", 0),),
                           call_path, node)
                arm.arm_index = 0
                visit_body([stmt.stmt], unit, path + (("then", 0),),
                           call_path, arm, depth)
                close(arm)
                close(node)
            elif isinstance(stmt, A.CallStmt) and stmt.name in units:
                if depth >= max_depth:
                    raise AnalysisError(
                        f"call inlining exceeds depth {max_depth} at "
                        f"{stmt.name!r} — recursive CFD programs are not "
                        f"supported")
                call_seq[0] += 1
                call_counts[stmt.name] = call_counts.get(stmt.name, 0) + 1
                node = make("call", stmt, unit.name, path, call_path, parent)
                callee = units[stmt.name]
                visit_body(callee.body, callee, (),
                           call_path + (call_seq[0],), node, depth + 1)
                close(node)
            else:
                node = make("stmt", stmt, unit.name, path, call_path, parent)
                close(node)

    root = InstanceNode("root", None, main.name, (), ())
    nodes.append(root)
    root.open = next_slot()
    visit_body(main.body, main, (), (), root, 0)
    close(root)

    return FrameProgram(root=root, slot_count=counter, nodes=nodes,
                        field_loop_instances=field_instances,
                        classifications=classifications,
                        directives=directives, call_counts=call_counts)
