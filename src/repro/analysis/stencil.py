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

Every kind is read off one form, :func:`affine_form`: integer
coefficients per scalar name (or per opaque non-affine value) plus a
constant, with integer PARAMETERs folded in.  The field-loop classifier,
the vectorizer's nest verdict and the restructurer's boundary checks all
decompose subscripts through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import NamedTuple

from repro.fortran import ast as A
from repro.fortran.printer import print_expr
from repro.fortran.symbols import SymbolTable


class SubscriptKind(Enum):
    INDUCTION = auto()
    STRIDED = auto()
    CONSTANT = auto()
    IRREGULAR = auto()


class SubscriptInfo(NamedTuple):
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


def int_parameters(table: SymbolTable) -> dict[str, int]:
    """Name -> value of every integer PARAMETER of *table*'s unit."""
    return {sym.name: int(sym.param_value)
            for sym in table.symbols.values()
            if sym.is_parameter and isinstance(sym.param_value, int)}


class Affine(NamedTuple):
    """A scalar expression as ``sum(coeff * term) + const`` in integers.

    A term is a scalar name, or the printed text of a product, quotient
    or other operation that is not affine in its operands (``k / 2``,
    ``i * j``): one opaque value.  Integer PARAMETERs are folded into
    ``const``.  The form does not depend on which names are loop
    variables; :func:`subscript_info` decides that against a nest.
    """

    coeffs: tuple[tuple[str, int], ...]  # (term, nonzero coeff), sorted
    const: int
    #: the scalar names the opaque terms read
    opaque_names: frozenset[str] = frozenset()


class _NoForm(Exception):
    """A node no scalar expression holds."""


def affine_form(expr: A.Expr, params: dict[str, int]) -> Affine | None:
    """*expr* as an :class:`Affine` over the integer PARAMETERs *params*.

    ``/`` folds only between constants, truncating toward zero as
    Fortran does.  ``None`` when *expr* holds anything but literals,
    scalar names and operators (an array reference, a function call).
    """
    if isinstance(expr, A.Var) and expr.name not in params:
        return Affine(((expr.name, 1),), 0)  # most subscripts are a name
    opaque: list[str] = []
    try:
        coeffs, const = _terms(expr, params, opaque)
    except _NoForm:
        return None
    terms = [(t, c) for t, c in coeffs.items() if c]
    if len(terms) > 1:
        terms.sort()
    if opaque:
        return Affine(tuple(terms), const, frozenset(opaque))
    return Affine(tuple(terms), const)


def _terms(e: A.Expr, params: dict[str, int], opaque: list[str]
           ) -> tuple[dict[str, int], int]:
    """(term -> coefficient, constant) of *e*; the names an opaque term
    reads go to *opaque*."""
    if isinstance(e, A.IntLit):
        return {}, e.value
    if isinstance(e, A.Var):
        if e.name in params:
            return {}, params[e.name]
        return {e.name: 1}, 0
    if isinstance(e, A.UnOp):
        coeffs, const = _terms(e.operand, params, opaque)
        if e.op in ("+", "-"):
            sign = -1 if e.op == "-" else 1
            return {t: sign * c for t, c in coeffs.items()}, sign * const
    elif isinstance(e, A.BinOp):
        lc, lk = _terms(e.left, params, opaque)
        rc, rk = _terms(e.right, params, opaque)
        if e.op in ("+", "-"):
            sign = 1 if e.op == "+" else -1
            out = dict(lc)
            for t, c in rc.items():
                out[t] = out.get(t, 0) + sign * c
            return out, lk + sign * rk
        if e.op == "*" and not (lc and rc):
            coeffs, scale = (lc, rk) if lc else (rc, lk)
            return {t: scale * c for t, c in coeffs.items()}, lk * rk
        if e.op == "/" and not lc and not rc and rk != 0:
            q = abs(lk) // abs(rk)
            return {}, q if (lk >= 0) == (rk >= 0) else -q
    elif not isinstance(e, A.RealLit):
        raise _NoForm
    opaque += [n.name for n in A.walk(e) if isinstance(n, A.Var)]
    return {print_expr(e): 1}, 0


def subscript_info(form: Affine | None, loop_vars: set[str]
                   ) -> SubscriptInfo:
    """The kind of a subscript of affine *form* inside a nest over
    *loop_vars*: one loop variable plus a constant is INDUCTION (unit
    coefficient) or STRIDED, a form whose value no loop variable moves
    CONSTANT (its value known when no term is left), anything else
    IRREGULAR."""
    if form is None:
        return SubscriptInfo(SubscriptKind.IRREGULAR)
    if not form.coeffs:
        return SubscriptInfo(SubscriptKind.CONSTANT, const=form.const)
    if len(form.coeffs) == 1 and form.coeffs[0][0] in loop_vars:
        (var, coeff), = form.coeffs
        kind = (SubscriptKind.INDUCTION if coeff == 1
                else SubscriptKind.STRIDED)
        return SubscriptInfo(kind, var, coeff, form.const)
    if form.opaque_names.isdisjoint(loop_vars) \
            and loop_vars.isdisjoint(t for t, _ in form.coeffs):
        return SubscriptInfo(SubscriptKind.CONSTANT, const=None)
    return SubscriptInfo(SubscriptKind.IRREGULAR)


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
    return subscript_info(affine_form(expr, invariants or {}), loop_vars)


@dataclass(eq=False)
class ArrayAccess:
    """One reference to a walked array, with each subscript's form."""

    array: str
    forms: tuple[Affine | None, ...]
    is_write: bool
    #: DO loops of the walked statements whose body holds it, outermost
    #: first
    loops: tuple[A.DoLoop, ...]

    def pattern(self, loop_vars: set[str]) -> AccessPattern:
        """The access classified inside a nest over *loop_vars*."""
        return AccessPattern(self.array, tuple(subscript_info(f, loop_vars)
                                               for f in self.forms),
                             self.is_write)


def array_access_patterns(stmts: list[A.Stmt], arrays: set[str],
                          loop_vars: set[str],
                          invariants: dict[str, int] | None = None
                          ) -> list[AccessPattern]:
    """Collect all accesses to *arrays* inside *stmts* (recursively).

    Write accesses are assignment targets; everything else is a read.
    """
    accesses, _held = enclosed_accesses(stmts, arrays, invariants or {})
    return [access.pattern(loop_vars) for access in accesses]


def enclosed_accesses(stmts: list[A.Stmt], arrays: set[str],
                      params: dict[str, int]
                      ) -> tuple[list[ArrayAccess], dict[int, slice]]:
    """Each access of :func:`array_access_patterns`, in the same order,
    with its subscripts' forms over the integer PARAMETERs *params*; and,
    by ``id`` of each DO loop statement, the slice of that list its
    statement (bounds and body) holds."""
    out: list[ArrayAccess] = []
    held: dict[int, slice] = {}
    loops: list[A.DoLoop] = []

    def scan_expr(expr: A.Expr, is_write: bool) -> None:
        if isinstance(expr, A.ArrayRef):
            if expr.name in arrays:
                forms = tuple(affine_form(s, params) for s in expr.subs)
                out.append(ArrayAccess(expr.name, forms, is_write,
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
            first = len(out)
            scan_expr(stmt.start, False)
            scan_expr(stmt.stop, False)
            if stmt.step is not None:
                scan_expr(stmt.step, False)
            loops.append(stmt)
            for s in stmt.body:
                scan_stmt(s)
            loops.pop()
            held[id(stmt)] = slice(first, len(out))
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
    return out, held
