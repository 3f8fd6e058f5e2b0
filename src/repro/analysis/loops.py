"""Loop-nest structure of a program unit.

Implements the loop relations of paper §5.1 (Definitions 6.1-6.4):

* *inner/outer*: ``L2 ⊂ L1`` when L2's extended body is contained in L1's;
* *direct inner/outer*: containment with nothing in between;
* *adjacent*: same direct outer loop (or both outermost);
* *simple loop*: a loop containing no pair of adjacent loops — i.e. its
  nest below is a pure chain.

Loops are addressed by *paths*: a path is a tuple of ``(attr, index)``
steps from the unit body down to the statement, which survives AST
transformation bookkeeping and lets the restructurer find insertion
points: :func:`spliced` lays planned statements into a statement list by
the paths of the statements they sit next to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SemanticError
from repro.fortran import ast as A
from repro.fortran.symbols import SymbolTable

#: A path step: (kind, index).  Kinds: "body" (plain statement list index),
#: ("arm", arm_index, stmt_index) is flattened to two steps.
Path = tuple[tuple[str, int], ...]

#: statements planned next to source statements, keyed by ``(unit, path,
#: side)``: "before" / "after" the statement at *path*, or at the "start" /
#: "end" of the statement list *path* owns (a DO body, an IF arm, or the
#: unit body for ``()``); each list is in emitted order
Placed = dict[tuple[str, Path, str], list[A.Stmt]]


@dataclass
class LoopInfo:
    """One DO loop in a unit, with its nest relations."""

    stmt: A.DoLoop
    unit: A.ProgramUnit
    path: Path
    parent: "LoopInfo | None" = None
    children: list["LoopInfo"] = field(default_factory=list)
    #: loops at any depth below this one
    descendants: list["LoopInfo"] = field(default_factory=list)

    @property
    def var(self) -> str:
        return self.stmt.var

    @property
    def depth(self) -> int:
        d = 0
        node = self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    # -- paper definitions ------------------------------------------------------

    def contains(self, other: "LoopInfo") -> bool:
        """Definition 6.1: *other* ⊂ *self*."""
        node = other.parent
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def is_direct_outer_of(self, other: "LoopInfo") -> bool:
        """Definition 6.2: self ⊦ other."""
        return other.parent is self

    def adjacent_to(self, other: "LoopInfo") -> bool:
        """Definition 6.3: same direct outer loop (or both outermost)."""
        if other is self:
            return False
        return self.parent is other.parent

    @property
    def is_simple(self) -> bool:
        """Definition 6.4: no pair of loops inside this one is adjacent."""
        inside = self.descendants
        for i, a in enumerate(inside):
            for b in inside[i + 1:]:
                if a.adjacent_to(b):
                    return False
        return True

    @property
    def nest_vars(self) -> list[str]:
        """Loop variables of this loop and all descendants."""
        return [self.var] + [d.var for d in self.descendants]

    def __repr__(self) -> str:  # pragma: no cover
        return f"LoopInfo({self.var}@{self.stmt.line})"


@dataclass
class LoopForest:
    """All loops of one unit, as a forest matching the nest structure."""

    unit: A.ProgramUnit
    roots: list[LoopInfo] = field(default_factory=list)
    all_loops: list[LoopInfo] = field(default_factory=list)

    def adjacent_pairs(self) -> list[tuple[LoopInfo, LoopInfo]]:
        """All ordered adjacent pairs (Definition 6.3)."""
        out = []
        groups: dict[int, list[LoopInfo]] = {}
        for loop in self.all_loops:
            groups.setdefault(id(loop.parent), []).append(loop)
        for siblings in groups.values():
            for i, a in enumerate(siblings):
                for b in siblings[i + 1:]:
                    out.append((a, b))
        return out


def known_step(loop: A.DoLoop, table: SymbolTable) -> int | None:
    """*loop*'s step when it is a known constant (1 when absent, else a
    literal or a PARAMETER expression of *table*'s unit); ``None`` when
    only the run can tell."""
    if loop.step is None:
        return 1
    try:
        return int(table.eval_const(loop.step))
    except (SemanticError, ArithmeticError):
        return None


def build_loop_forest(unit: A.ProgramUnit) -> LoopForest:
    """Discover the loop-nest forest of a unit body."""
    forest = LoopForest(unit)

    def visit(stmts: list[A.Stmt], parent: LoopInfo | None,
              prefix: Path) -> None:
        for i, stmt in enumerate(stmts):
            path = prefix + (("body", i),)
            if isinstance(stmt, A.DoLoop):
                info = LoopInfo(stmt, unit, path, parent)
                forest.all_loops.append(info)
                if parent is None:
                    forest.roots.append(info)
                else:
                    parent.children.append(info)
                    node = parent
                    while node is not None:
                        node.descendants.append(info)
                        node = node.parent
                visit(stmt.body, info, path)
            elif isinstance(stmt, A.DoWhile):
                visit(stmt.body, parent, path)
            elif isinstance(stmt, A.IfBlock):
                for arm_index, (_cond, body) in enumerate(stmt.arms):
                    visit(body, parent, path + (("arm", arm_index),))
            elif isinstance(stmt, A.LogicalIf):
                visit([stmt.stmt], parent, path + (("then", 0),))

    visit(unit.body, None, ())
    return forest


def spliced(stmts: list[A.Stmt], unit: str, prefix: Path,
            placed: Placed) -> list[tuple[Path | None, A.Stmt]]:
    """*stmts*, the list at *prefix* of *unit*, as emitted with *placed*.

    Each statement comes with its source path, or ``None`` when it is a
    planned one.  Nested lists are left as they are.
    """
    def planned(path: Path, side: str) -> list[tuple[None, A.Stmt]]:
        return [(None, s) for s in placed.get((unit, path, side), ())]

    out: list[tuple[Path | None, A.Stmt]] = planned(prefix, "start")
    for i, stmt in enumerate(stmts):
        path = prefix + (("body", i),)
        out += planned(path, "before")
        out.append((path, stmt))
        out += planned(path, "after")
    return out + planned(prefix, "end")
