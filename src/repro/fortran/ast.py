"""Typed AST for the Fortran subset consumed by Auto-CFD.

Nodes are plain dataclasses.  Structural equality (``==``) deliberately
ignores source positions so that round-trip tests (``parse(print(ast))``)
compare shape, not layout.

Two node families exist:

* **expressions** (:class:`Expr` subclasses) — numbers, variables, array
  references, intrinsic/function calls, unary/binary operations;
* **statements** (:class:`Stmt` subclasses) — assignments, DO loops,
  IF blocks, GOTO, CALL, I/O, declarations.

The parser cannot always distinguish ``v(i, j)`` the array reference from
``f(i, j)`` the function call, so it first emits :class:`Apply` nodes; the
symbol-resolution pass (:mod:`repro.fortran.symbols`) rewrites each
``Apply`` into :class:`ArrayRef` or :class:`FuncCall`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Union

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expression nodes."""


@dataclass
class IntLit(Expr):
    """Integer literal."""

    value: int


@dataclass
class RealLit(Expr):
    """Real literal; ``text`` preserves the original spelling."""

    value: float
    text: str = field(default="", compare=False)


@dataclass
class LogicalLit(Expr):
    """``.true.`` / ``.false.``"""

    value: bool


@dataclass
class StringLit(Expr):
    """Character literal (value without quotes)."""

    value: str


@dataclass
class Var(Expr):
    """Scalar variable reference (name is lowercase-normalized)."""

    name: str


@dataclass
class Apply(Expr):
    """Unresolved ``name(arg, ...)`` — array reference or function call."""

    name: str
    args: list[Expr]


@dataclass
class ArrayRef(Expr):
    """Resolved array element reference."""

    name: str
    subs: list[Expr]


@dataclass
class FuncCall(Expr):
    """Resolved intrinsic or external function call."""

    name: str
    args: list[Expr]


@dataclass
class RangeExpr(Expr):
    """A ``lo:hi`` subscript range (array-section declarations/bounds)."""

    lo: Expr | None
    hi: Expr | None


@dataclass
class UnOp(Expr):
    """Unary operation: op in ``{'-', '+', '.not.'}``."""

    op: str
    operand: Expr


@dataclass
class BinOp(Expr):
    """Binary operation.

    ``op`` is the canonical spelling: arithmetic ``+ - * / **``, string
    ``//``, relational ``.lt. .le. .gt. .ge. .eq. .ne.``, logical
    ``.and. .or. .eqv. .neqv.``.
    """

    op: str
    left: Expr
    right: Expr


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statements.

    Attributes ``line`` and ``label`` are set by the parser; ``line`` never
    participates in equality.
    """

    line: int = field(default=0, compare=False, kw_only=True)
    label: int | None = field(default=None, kw_only=True)


@dataclass
class Declaration(Stmt):
    """Type declaration: ``real v(100, 50), p``.

    ``entities`` maps are (name, dims) pairs where ``dims`` is a list of
    :class:`RangeExpr`/:class:`Expr` extents (empty for scalars).
    """

    type_name: str  # integer | real | doubleprecision | logical | character
    entities: list[tuple[str, list[Expr]]] = field(default_factory=list)
    kind: Expr | None = None  # e.g. real*8 -> IntLit(8)


@dataclass
class DimensionStmt(Stmt):
    """``dimension v(100, 50), w(10)``"""

    entities: list[tuple[str, list[Expr]]] = field(default_factory=list)


@dataclass
class ParameterStmt(Stmt):
    """``parameter (n = 100, m = 50)``"""

    assignments: list[tuple[str, Expr]] = field(default_factory=list)


@dataclass
class CommonStmt(Stmt):
    """``common /blk/ a, b, c`` — block name '' for blank common."""

    block: str = ""
    entities: list[tuple[str, list[Expr]]] = field(default_factory=list)


@dataclass
class DataStmt(Stmt):
    """``data x, y / 1.0, 2.0 /`` (single clause)."""

    names: list[str] = field(default_factory=list)
    values: list[Expr] = field(default_factory=list)


@dataclass
class ImplicitStmt(Stmt):
    """Only ``implicit none`` is supported (and encouraged)."""

    none: bool = True


@dataclass
class SaveStmt(Stmt):
    names: list[str] = field(default_factory=list)


@dataclass
class ExternalStmt(Stmt):
    names: list[str] = field(default_factory=list)


@dataclass
class IntrinsicStmt(Stmt):
    names: list[str] = field(default_factory=list)


@dataclass
class Assign(Stmt):
    """``target = value`` where target is Var or ArrayRef (Apply pre-resolve)."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class DoLoop(Stmt):
    """``do var = start, stop[, step]`` ... ``end do`` (or labeled form).

    ``end_label`` preserves the classic ``do 10 i = ...`` label when the
    loop was written in labeled form.
    """

    var: str = ""
    start: Expr = None  # type: ignore[assignment]
    stop: Expr = None  # type: ignore[assignment]
    step: Expr | None = None
    body: list[Stmt] = field(default_factory=list)
    end_label: int | None = field(default=None, compare=False)


@dataclass
class DoWhile(Stmt):
    """``do while (cond)`` ... ``end do``"""

    cond: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


@dataclass
class IfBlock(Stmt):
    """``if (...) then / else if / else / end if``.

    ``arms`` is a list of (condition, body); the final arm's condition is
    ``None`` when an ELSE block is present.
    """

    arms: list[tuple[Expr | None, list[Stmt]]] = field(default_factory=list)


@dataclass
class LogicalIf(Stmt):
    """One-line logical IF: ``if (cond) stmt``."""

    cond: Expr = None  # type: ignore[assignment]
    stmt: Stmt = None  # type: ignore[assignment]


@dataclass
class Goto(Stmt):
    target: int = 0


@dataclass
class ComputedGoto(Stmt):
    """``goto (10, 20, 30), expr``"""

    targets: list[int] = field(default_factory=list)
    selector: Expr = None  # type: ignore[assignment]


@dataclass
class Continue(Stmt):
    """``continue`` — usually a labeled loop terminator / goto target."""


@dataclass
class CallStmt(Stmt):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    pass


@dataclass
class StopStmt(Stmt):
    message: str | None = None


@dataclass
class ExitStmt(Stmt):
    """F90 ``exit`` (leave innermost loop)."""


@dataclass
class CycleStmt(Stmt):
    """F90 ``cycle`` (next iteration of innermost loop)."""


@dataclass
class ReadStmt(Stmt):
    """``read (unit, fmt) items`` or ``read *, items``."""

    unit: Expr | None = None
    fmt: str | None = None
    items: list[Expr] = field(default_factory=list)


@dataclass
class WriteStmt(Stmt):
    """``write (unit, fmt) items`` / ``print *, items``."""

    unit: Expr | None = None
    fmt: str | None = None
    items: list[Expr] = field(default_factory=list)


@dataclass
class OpenStmt(Stmt):
    unit: Expr | None = None
    filename: Expr | None = None
    status: str | None = None


@dataclass
class CloseStmt(Stmt):
    unit: Expr | None = None


@dataclass
class FormatStmt(Stmt):
    """Format statements are carried verbatim; list I/O ignores them."""

    text: str = ""


@dataclass
class ImpliedDo(Expr):
    """Implied-DO in I/O lists: ``(v(i), i = 1, n)``."""

    items: list[Expr] = field(default_factory=list)
    var: str = ""
    start: Expr = None  # type: ignore[assignment]
    stop: Expr = None  # type: ignore[assignment]
    step: Expr | None = None


@dataclass
class DirectiveStmt(Stmt):
    """A raw ``$acfd`` directive attached at its source position."""

    text: str = ""


# --------------------------------------------------------------------------
# Program units
# --------------------------------------------------------------------------


@dataclass
class ProgramUnit:
    """A PROGRAM, SUBROUTINE, or FUNCTION.

    Attributes:
        kind: "program" | "subroutine" | "function".
        name: unit name (lowercase).
        args: dummy-argument names.
        decls: specification statements, in order.
        body: executable statements, in order.
        result_type: declared function result type name (functions only).
        symbols: filled by :mod:`repro.fortran.symbols`.
    """

    kind: str
    name: str
    args: list[str] = field(default_factory=list)
    decls: list[Stmt] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    result_type: str | None = None
    symbols: object = field(default=None, compare=False, repr=False)
    line: int = field(default=0, compare=False)


@dataclass
class CompilationUnit:
    """All program units in a file plus parsed directives."""

    units: list[ProgramUnit] = field(default_factory=list)
    directives: object = field(default=None, compare=False, repr=False)
    filename: str = field(default="<input>", compare=False)

    def unit(self, name: str) -> ProgramUnit:
        """Look up a program unit by (case-insensitive) name."""
        low = name.lower()
        for u in self.units:
            if u.name == low:
                return u
        raise KeyError(name)

    @property
    def main(self) -> ProgramUnit:
        """The main PROGRAM unit."""
        for u in self.units:
            if u.kind == "program":
                return u
        raise KeyError("no PROGRAM unit")


# --------------------------------------------------------------------------
# Traversal helpers
# --------------------------------------------------------------------------

Node = Union[Expr, Stmt, ProgramUnit, CompilationUnit]


def children(node: Node) -> Iterator[Node]:
    """Yield direct child nodes (expressions and statements) of *node*."""
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, (Expr, Stmt, ProgramUnit)):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (Expr, Stmt, ProgramUnit)):
                    yield item
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, (Expr, Stmt)):
                            yield sub
                        elif isinstance(sub, list):
                            for s2 in sub:
                                if isinstance(s2, (Expr, Stmt)):
                                    yield s2


def walk(node: Node) -> Iterator[Node]:
    """Depth-first pre-order walk over *node* and all descendants."""
    yield node
    for child in children(node):
        yield from walk(child)


def walk_statements(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Walk a statement list recursively, yielding every statement."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, (DoLoop, DoWhile)):
            yield from walk_statements(stmt.body)
        elif isinstance(stmt, IfBlock):
            for _cond, body in stmt.arms:
                yield from walk_statements(body)
        elif isinstance(stmt, LogicalIf):
            yield from walk_statements([stmt.stmt])


def goto_targets(unit: ProgramUnit) -> set[int]:
    """Labels any GOTO in *unit* may jump to.

    The vectorizer refuses nests whose labels are jump targets, since
    re-emitting such a nest as slice statements would break the unit's
    control flow; the scalar backend emits GOTO dispatch only around a
    statement list that holds a target.  The plan's overlap verdict
    refuses the same nests: the interior/boundary split it judges
    (modelled by ``ClusterSim``, never emitted) would cut them into
    strips a jump could enter.
    """
    targets: set[int] = set()
    for stmt in walk_statements(unit.body):
        if isinstance(stmt, Goto):
            targets.add(stmt.target)
        elif isinstance(stmt, ComputedGoto):
            targets.update(stmt.targets)
    return targets


_NODE_TYPES = (Expr, Stmt, ProgramUnit, CompilationUnit)
#: per node class, its dataclass field names less ``symbols`` and
#: ``directives`` (analysis results hung on units, not syntax)
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(
            f.name for f in dataclasses.fields(cls)
            if f.name not in ("symbols", "directives"))
    return names


def copy_node(node: Node) -> Node:
    """Structural clone of an AST (used by the restructurer).

    Every node, list and tuple below *node* is new; strings and numbers
    are shared.  A unit's ``symbols`` are left out (the clone is
    unresolved until :func:`repro.fortran.symbols.resolve_compilation_unit`
    runs on it) and a compilation unit's ``directives`` object is shared.
    """
    cls = type(node)
    new = object.__new__(cls)
    values = new.__dict__
    for name in _field_names(cls):
        values[name] = _copy_value(getattr(node, name))
    if cls is ProgramUnit:
        new.symbols = None
    elif cls is CompilationUnit:
        new.directives = node.directives
    return new


def _copy_value(value):
    if isinstance(value, _NODE_TYPES):
        return copy_node(value)
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_copy_value(v) for v in value)
    return value
