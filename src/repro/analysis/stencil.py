"""Subscript pattern analysis: stencil offsets and dependency distances.

Implements the distance machinery of §4.2 case (5): for each array access
the analyzer determines, per dimension, how the subscript relates to the
surrounding loop variables:

* ``INDUCTION``: ``i + c`` (coefficient 1) — offset ``c`` from loop var
  ``i``; the magnitude ``|c|`` is the *dependency distance* (paper case 5,
  distances > 1 arise in multigrid codes);
* ``STRIDED``: ``a*i + c`` with ``a != 1`` — coarse-grid accesses; the
  effective reach is still bounded and reported as ``|a| + |c|``;
* ``CONSTANT``: a loop-invariant subscript (boundary rows/columns,
  paper case 3);
* ``IRREGULAR``: anything else (e.g. ``g1(i)`` indirect accesses of the
  C-type loop in Figure 1) — partitioning-hostile, forces conservative
  treatment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.fortran import ast as A


class SubscriptKind(Enum):
    INDUCTION = auto()
    STRIDED = auto()
    CONSTANT = auto()
    IRREGULAR = auto()


@dataclass(frozen=True)
class SubscriptInfo:
    """Analysis of a single subscript expression."""

    kind: SubscriptKind
    var: str | None = None  # loop variable, for INDUCTION/STRIDED
    coeff: int = 1
    offset: int = 0
    const: int | None = None  # value for CONSTANT if statically known

    @property
    def distance(self) -> int:
        """Dependency distance contributed along this dimension."""
        if self.kind is SubscriptKind.INDUCTION:
            return abs(self.offset)
        if self.kind is SubscriptKind.STRIDED:
            return abs(self.coeff) + abs(self.offset)
        return 0


@dataclass(frozen=True)
class AccessPattern:
    """One array access: per-dimension subscript analysis."""

    array: str
    subs: tuple[SubscriptInfo, ...]
    is_write: bool

    def offset_along(self, dim: int) -> int | None:
        """Signed offset along *dim* if the access is induction-based."""
        info = self.subs[dim]
        if info.kind is SubscriptKind.INDUCTION:
            return info.offset
        return None

    @property
    def irregular(self) -> bool:
        return any(s.kind is SubscriptKind.IRREGULAR for s in self.subs)


def _linear_form(expr: A.Expr, loop_vars: set[str]
                 ) -> tuple[str | None, int, int] | None:
    """Decompose *expr* as ``coeff * var + offset`` over *loop_vars*.

    Returns (var, coeff, offset); var None for pure constants; None when
    the expression is not linear in a single loop variable.
    """
    if isinstance(expr, A.IntLit):
        return (None, 0, expr.value)
    if isinstance(expr, A.Var):
        if expr.name in loop_vars:
            return (expr.name, 1, 0)
        return None  # runtime-variant scalar: not analyzable statically
    if isinstance(expr, A.UnOp):
        inner = _linear_form(expr.operand, loop_vars)
        if inner is None:
            return None
        var, coeff, off = inner
        if expr.op == "-":
            return (var, -coeff, -off)
        if expr.op == "+":
            return inner
        return None
    if isinstance(expr, A.BinOp):
        left = _linear_form(expr.left, loop_vars)
        right = _linear_form(expr.right, loop_vars)
        if left is None or right is None:
            return None
        lv, lc, lo = left
        rv, rc, ro = right
        if expr.op == "+":
            var = lv or rv
            if lv and rv and lv != rv:
                return None
            return (var, lc + rc, lo + ro)
        if expr.op == "-":
            var = lv or rv
            if lv and rv and lv != rv:
                return None
            return (var, lc - rc, lo - ro)
        if expr.op == "*":
            if lv is None and rv is None:
                return (None, 0, lo * ro)
            if lv is None:  # const * (coeff*var + off)
                return (rv, lo * rc, lo * ro)
            if rv is None:  # (coeff*var + off) * const
                return (lv, lc * ro, lo * ro)
            return None
        return None
    return None


def analyze_subscript(expr: A.Expr, loop_vars: set[str],
                      invariants: dict[str, int] | None = None
                      ) -> SubscriptInfo:
    """Classify one subscript expression against the active loop variables.

    Args:
        expr: the subscript AST.
        loop_vars: variables of the enclosing loop nest.
        invariants: optional known constant values (PARAMETER symbols) so
            that ``v(n, j)``-style boundary accesses classify as CONSTANT
            with a known value.
    """
    if isinstance(expr, A.Var) and invariants and expr.name in invariants:
        return SubscriptInfo(SubscriptKind.CONSTANT,
                             const=invariants[expr.name])
    form = _linear_form(expr, loop_vars)
    if form is None:
        # loop-invariant scalar variables are CONSTANT-but-unknown;
        # anything referencing arrays/functions is IRREGULAR
        if isinstance(expr, A.Var):
            return SubscriptInfo(SubscriptKind.CONSTANT, const=None)
        if _is_invariant_arith(expr, loop_vars):
            return SubscriptInfo(SubscriptKind.CONSTANT, const=None)
        return SubscriptInfo(SubscriptKind.IRREGULAR)
    var, coeff, offset = form
    if var is None or coeff == 0:
        return SubscriptInfo(SubscriptKind.CONSTANT, const=offset)
    if coeff == 1:
        return SubscriptInfo(SubscriptKind.INDUCTION, var=var, coeff=1,
                             offset=offset)
    return SubscriptInfo(SubscriptKind.STRIDED, var=var, coeff=coeff,
                         offset=offset)


def _is_invariant_arith(expr: A.Expr, loop_vars: set[str]) -> bool:
    """True for arithmetic over scalars none of which is a loop variable."""
    if isinstance(expr, (A.IntLit, A.RealLit)):
        return True
    if isinstance(expr, A.Var):
        return expr.name not in loop_vars
    if isinstance(expr, A.UnOp):
        return _is_invariant_arith(expr.operand, loop_vars)
    if isinstance(expr, A.BinOp):
        return (_is_invariant_arith(expr.left, loop_vars)
                and _is_invariant_arith(expr.right, loop_vars))
    return False


def array_access_patterns(stmts: list[A.Stmt], arrays: set[str],
                          loop_vars: set[str],
                          invariants: dict[str, int] | None = None
                          ) -> list[AccessPattern]:
    """Collect all accesses to *arrays* inside *stmts* (recursively).

    Write accesses are assignment targets; everything else is a read.
    """
    return [access for access, _loops in
            enclosed_accesses(stmts, arrays, loop_vars, invariants)]


def enclosed_accesses(stmts: list[A.Stmt], arrays: set[str],
                      loop_vars: set[str],
                      invariants: dict[str, int] | None = None
                      ) -> list[tuple[AccessPattern, tuple[A.DoLoop, ...]]]:
    """Each access of :func:`array_access_patterns`, in the same order,
    with the DO loops of *stmts* whose body holds it, outermost first."""
    out: list[tuple[AccessPattern, tuple[A.DoLoop, ...]]] = []
    loops: list[A.DoLoop] = []

    def scan_expr(expr: A.Expr, is_write: bool) -> None:
        if isinstance(expr, A.ArrayRef):
            if expr.name in arrays:
                subs = tuple(analyze_subscript(s, loop_vars, invariants)
                             for s in expr.subs)
                out.append((AccessPattern(expr.name, subs, is_write),
                            tuple(loops)))
            for s in expr.subs:
                scan_expr(s, False)
        elif isinstance(expr, A.BinOp):
            scan_expr(expr.left, False)
            scan_expr(expr.right, False)
        elif isinstance(expr, A.UnOp):
            scan_expr(expr.operand, False)
        elif isinstance(expr, (A.FuncCall, A.Apply)):
            for a in expr.args:
                scan_expr(a, False)
        elif isinstance(expr, A.ImpliedDo):
            for item in expr.items:
                scan_expr(item, False)

    def scan_stmt(stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Assign):
            scan_expr(stmt.target, True)
            scan_expr(stmt.value, False)
        elif isinstance(stmt, A.DoLoop):
            scan_expr(stmt.start, False)
            scan_expr(stmt.stop, False)
            if stmt.step is not None:
                scan_expr(stmt.step, False)
            loops.append(stmt)
            for s in stmt.body:
                scan_stmt(s)
            loops.pop()
        elif isinstance(stmt, A.DoWhile):
            scan_expr(stmt.cond, False)
            for s in stmt.body:
                scan_stmt(s)
        elif isinstance(stmt, A.IfBlock):
            for cond, body in stmt.arms:
                if cond is not None:
                    scan_expr(cond, False)
                for s in body:
                    scan_stmt(s)
        elif isinstance(stmt, A.LogicalIf):
            scan_expr(stmt.cond, False)
            scan_stmt(stmt.stmt)
        elif isinstance(stmt, A.CallStmt):
            for a in stmt.args:
                scan_expr(a, False)
        elif isinstance(stmt, (A.ReadStmt, A.WriteStmt)):
            for item in stmt.items:
                # READ targets are writes
                scan_expr(item, isinstance(stmt, A.ReadStmt))
        elif isinstance(stmt, A.ComputedGoto):
            scan_expr(stmt.selector, False)

    for stmt in stmts:
        scan_stmt(stmt)
    return out
