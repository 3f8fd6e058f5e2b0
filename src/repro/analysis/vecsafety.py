"""Per-nest vectorization facts: a schedule, or the reason there is none.

The Python backend (:mod:`repro.interp.pyback`) can execute a DO nest as
numpy statements *only* when that is bitwise-indistinguishable from the
sequential scalar order.  This module decides, one nest at a time, which
order of the iterations keeps that promise, and returns the facts the
emitter (:mod:`repro.interp.vectorize`) needs — the same affine-subscript
machinery that drives the §4.2 dependency analysis
(:mod:`repro.analysis.stencil`), repackaged per nest.  The nest, not the
statement, gets the schedule (``NestFacts.mode``):

``slice``
    no pair of accesses is a nonzero distance apart: each body statement
    becomes one slice operation over the whole iteration box, in
    statement order;
``carried-outer``
    every distance is zero outside a proper subset C of the nest
    variables (``NestFacts.carried``): C's loops run scalar, in their
    source order and direction, and the statements run as slices over
    the box of the other variables.  Two dependent iterations differ in
    C only, so the scalar loops order them as the source does (the
    aerofoil's direction-split sweeps, whichever of i, j, k carries);
``fronts``
    every variable carries (Gauss-Seidel, SOR): the statements run over
    the hyperplane fronts ``sum(trip indices) = c`` in increasing c.
    Legal when each distance vector has one nonzero component, or,
    under literal step signs, components of one sign in trip space:
    then source and sink sit on different fronts, ordered as the
    lexicographic sweep orders them.  A ``v(i-1, j+1)`` read has no such
    front and falls back.

The provable subset:

* a perfect rectangular DO chain — each loop body is exactly the next
  loop, bounds invariant in the nest (no triangular nests; an inner loop
  with outer-var bounds is retried on its own by the emitter's natural
  recursion, where the outer variable is a plain invariant scalar);
* body statements are assignments, IF blocks, and no-ops only — GOTO,
  EXIT/CYCLE, CALL (side effects), I/O, and nested DO-WHILE all fall
  back to the scalar translation;
* array subscripts are affine in the nest variables (``i + c`` or
  ``a*i + c``) or invariant, no variable in two dimensions of one
  reference; write targets reference every nest variable exactly once
  with coefficient 1;
* for every (write, read) and (write, write) pair on the same array the
  accesses are provably identical elements (all-zero offset delta —
  statement order preserves those elementwise), provably disjoint
  (distinct known-constant subscripts, e.g. ``vx(n, j)`` vs
  ``vx(n-1, j)``; the same invariant expression plus different integer
  constants, e.g. ``u(i, ..)`` vs ``u(i-1, ..)`` under a scalar ``i``),
  separated by a two-color parity mask (``mod(i + j, 2) .eq. c``
  guarding a red-black sweep whose stencil offsets have odd parity — the
  colliding elements are the other color), or a known nonzero distance
  apart, which the schedule above has to respect; a pair none of this
  covers refuses the nest;
* a temporary assigned under an iteration-dependent mask needs the
  ``slice`` schedule: its exit value is the lexicographically last
  masked lane's, which the carried schedules do not visit last;
* scalar assignments are either recognized reductions (``x = amax1(x, e)``
  and friends — max/min folds are associative and bitwise-exact; integer
  sums are exact with arbitrary-precision accumulation; *float* sums fall
  back because ``np.sum`` pairwise order differs from the left fold) or
  per-point temporaries (single assignment, read only after it and under
  the same guard, final value restored after the nest);
* intrinsics are limited to the ones with a bitwise-identical numpy
  elementwise equivalent (no transcendentals: ``exp``/``sin``/... differ
  from libm in the last ulp).

Aliasing caveat: like every Fortran compiler, the analysis assumes two
differently-named arrays do not overlap (the F77 rule that written dummy
arguments must not alias).

Known representational differences the subset accepts (both are also
accepted between the interpreter and the scalar backend): integer
arithmetic wraps at 64 bits in vector form while Python scalars are
unbounded, and masked-off lanes may evaluate (and discard) expressions
the scalar order never reaches, so error *raising* can differ on
pathological inputs even though committed values cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.fortran import ast as A
from repro.fortran.intrinsics_table import INTEGER_RESULT, is_intrinsic
from repro.fortran.symbols import SymbolTable
from repro.analysis.stencil import (SubscriptInfo, SubscriptKind,
                                    analyze_subscript)

#: intrinsics with a bitwise-identical numpy elementwise equivalent
#: (IEEE-exact operations only — transcendentals excluded on purpose)
VECTOR_SAFE_INTRINSICS = frozenset({
    "abs", "dabs", "iabs", "sqrt", "dsqrt",
    "max", "amax1", "dmax1", "max0", "min", "amin1", "dmin1", "min0",
    "mod", "amod", "dmod", "sign", "dsign", "isign",
    "int", "ifix", "idint", "nint", "anint",
    "real", "float", "sngl", "dble", "dfloat", "aint", "dint",
})

#: fold intrinsics: ``x = f(x, e)`` per point equals one fold at the end
REDUCTION_INTRINSICS = {
    "max": "max", "amax1": "max", "dmax1": "max", "max0": "max",
    "min": "min", "amin1": "min", "dmin1": "min", "min0": "min",
}

#: acfd_* runtime calls that are pure rank-local queries (uniform values)
PURE_RT_QUERIES = frozenset({
    "acfd_rank", "acfd_nprocs", "acfd_lo", "acfd_hi", "acfd_owns",
    "acfd_lb", "acfd_ub",
})


#: the schedules a proven nest can get (``NestFacts.mode``)
MODES = ("slice", "carried-outer", "fronts")


class Fallback(Exception):
    """A nest left the provable subset; ``reason`` says where."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


# -- classified body statements (consumed by the emitter) ----------------------

@dataclass
class VArrayAssign:
    """Array-element assignment -> one slice store."""

    stmt: A.Assign


@dataclass
class VTempAssign:
    """Per-point scalar temporary -> box-shaped array."""

    stmt: A.Assign
    name: str


@dataclass
class VReduce:
    """Recognized reduction -> one vectorized fold."""

    stmt: A.Assign
    name: str
    op: str  # max | min | isum
    intrin: str | None  # source intrinsic (None for integer sums)
    operand: A.Expr  # the folded expression


@dataclass
class VIf:
    """IF block: uniform -> scalar guard, varying -> boolean masks."""

    stmt: A.Stmt
    uniform: bool
    arms: list  # [(cond|None, [classified...]), ...]


@dataclass
class VSkip:
    """CONTINUE / FORMAT / directive — nothing to execute."""

    stmt: A.Stmt


@dataclass
class NestFacts:
    """Verdict plus everything the slice emitter needs for one nest."""

    ok: bool
    reason: str | None = None
    levels: tuple = ()  # the DoLoop chain, outermost first
    nest_vars: tuple = ()
    body: list = field(default_factory=list)  # classified innermost body
    temps: dict = field(default_factory=dict)  # name -> (counter, ctx)
    reductions: dict = field(default_factory=dict)  # name -> op
    var_values: frozenset = frozenset()  # nest vars read as values
    carried: tuple = ()  # nest vars carrying a dependence, nesting order
    mode: str = "slice"  # one of MODES
    #: id(ArrayRef) -> its SubscriptInfo per dim (the nodes live in *body*)
    subscripts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Ref:
    """One array access with its guard context."""

    name: str
    infos: tuple  # SubscriptInfo per dim
    exprs: tuple  # original subscript ASTs (for structural equality)
    ctx: tuple  # ((if-node-id, arm-index), ...)
    is_write: bool


def _same_expr(a: A.Expr, b: A.Expr) -> bool:
    """Structural equality of two (invariant) scalar expressions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (A.IntLit, A.RealLit, A.LogicalLit, A.StringLit)):
        return a.value == b.value
    if isinstance(a, A.Var):
        return a.name == b.name
    if isinstance(a, A.UnOp):
        return a.op == b.op and _same_expr(a.operand, b.operand)
    if isinstance(a, A.BinOp):
        return (a.op == b.op and _same_expr(a.left, b.left)
                and _same_expr(a.right, b.right))
    return False


def _multilinear(expr: A.Expr, vset: set[str]
                 ) -> tuple[dict[str, int], int] | None:
    """Decompose as ``sum(coeff_v * v) + const`` over *vset* (ints only)."""
    if isinstance(expr, A.IntLit):
        return {}, expr.value
    if isinstance(expr, A.Var):
        if expr.name in vset:
            return {expr.name: 1}, 0
        return None
    if isinstance(expr, A.UnOp):
        inner = _multilinear(expr.operand, vset)
        if inner is None:
            return None
        if expr.op == "+":
            return inner
        if expr.op == "-":
            coeffs, const = inner
            return {v: -c for v, c in coeffs.items()}, -const
        return None
    if isinstance(expr, A.BinOp):
        left = _multilinear(expr.left, vset)
        right = _multilinear(expr.right, vset)
        if left is None or right is None:
            return None
        lc, lk = left
        rc, rk = right
        if expr.op in ("+", "-"):
            sgn = 1 if expr.op == "+" else -1
            out = dict(lc)
            for v, c in rc.items():
                out[v] = out.get(v, 0) + sgn * c
            return out, lk + sgn * rk
        if expr.op == "*":
            if not lc:
                return {v: lk * c for v, c in rc.items()}, lk * rk
            if not rc:
                return {v: rk * c for v, c in lc.items()}, rk * lk
        return None
    return None


def _parity_mask(cond: A.Expr, vset: set[str]) -> dict[str, int] | None:
    """Coefficients of a two-color mask ``mod(linear, 2) .eq. 0|1``."""
    if not (isinstance(cond, A.BinOp) and cond.op == ".eq."):
        return None
    for call, color in ((cond.left, cond.right), (cond.right, cond.left)):
        if (isinstance(call, A.FuncCall) and call.name == "mod"
                and len(call.args) == 2
                and isinstance(call.args[1], A.IntLit)
                and call.args[1].value == 2
                and isinstance(color, A.IntLit)
                and color.value in (0, 1)):
            lin = _multilinear(call.args[0], vset)
            if lin is not None:
                return lin[0]
    return None


class _NestAnalysis:
    """One pass over one DO chain; raises :class:`Fallback` on any exit
    from the provable subset."""

    def __init__(self, loop: A.DoLoop, table: SymbolTable,
                 targeted_labels: frozenset[int]) -> None:
        self.table = table
        self.targeted = targeted_labels
        self.levels: list[A.DoLoop] = []
        cur = loop
        while True:
            if cur.label is not None and cur.label in self.targeted \
                    and cur is not loop:
                break
            self.levels.append(cur)
            if (len(cur.body) == 1 and isinstance(cur.body[0], A.DoLoop)
                    and cur.body[0].var not in
                    {lv.var for lv in self.levels}):
                cur = cur.body[0]
                continue
            break
        self.vset = {lv.var for lv in self.levels}
        self.invariants = {
            sym.name: int(sym.param_value)
            for sym in table.symbols.values()
            if sym.is_parameter and isinstance(sym.param_value, int)}
        self.counter = 0
        self.refs: list[_Ref] = []
        self.subscripts: dict[int, tuple] = {}
        self.scalar_writes: dict[str, list] = {}  # name -> [(kind, c, ctx)]
        self.scalar_reads: list[tuple] = []  # (name, c, ctx)
        self.invariant_vars: set[str] = set()  # must stay invariant
        self.var_values: set[str] = set()
        self.parity_of: dict[tuple, dict[str, int]] = {}
        self.varying_ifs: set[int] = set()  # id() of mask-emitted IFs
        #: (array, [(var, delta), ...]) per pair with a nonzero distance
        self.vectors: list[tuple[str, list]] = []

    # -- typing (literals/vars/intrinsics only: calls are whitelisted) ---------

    def _etype(self, e: A.Expr) -> str:
        if isinstance(e, A.IntLit):
            return "i"
        if isinstance(e, A.RealLit):
            return "r"
        if isinstance(e, A.LogicalLit):
            return "l"
        if isinstance(e, A.StringLit):
            return "s"
        if isinstance(e, (A.Var, A.ArrayRef)):
            sym = self.table.get(e.name)
            tn = sym.type_name if sym else "real"
            return {"integer": "i", "real": "r", "doubleprecision": "r",
                    "logical": "l", "character": "s"}.get(tn, "r")
        if isinstance(e, A.UnOp):
            return "l" if e.op == ".not." else self._etype(e.operand)
        if isinstance(e, A.BinOp):
            if e.op in (".and.", ".or.", ".eqv.", ".neqv.", ".lt.", ".le.",
                        ".gt.", ".ge.", ".eq.", ".ne."):
                return "l"
            lt, rt = self._etype(e.left), self._etype(e.right)
            if lt == "i" and rt == "i":
                return "i"
            if "?" in (lt, rt):
                return "?"
            return "r"
        if isinstance(e, A.FuncCall):
            if e.name in PURE_RT_QUERIES:
                return "l" if e.name == "acfd_owns" else "i"
            if e.name in INTEGER_RESULT:
                return "i"
            if is_intrinsic(e.name):
                if e.name in ("abs", "max", "min", "mod", "sign"):
                    types = {self._etype(a) for a in e.args}
                    return "i" if types == {"i"} else "r"
                return "r"
        return "?"

    # -- invariant (scalar-emitted) expressions: bounds, acfd args, guards ------

    def _invariant(self, e: A.Expr, allow_logical: bool = False,
                   probe: bool = False) -> bool:
        def fail(reason: str) -> bool:
            if probe:
                return False
            raise Fallback(reason)

        if isinstance(e, (A.IntLit, A.RealLit)):
            return True
        if isinstance(e, A.LogicalLit):
            return True if allow_logical else fail("logical in bound")
        if isinstance(e, A.Var):
            if e.name in self.vset:
                return fail("nest variable in invariant position")
            sym = self.table.get(e.name)
            if sym is not None and sym.is_array:
                return fail("array reference in invariant position")
            if not probe:  # probes must not commit facts
                self.invariant_vars.add(e.name)
            return True
        if isinstance(e, A.UnOp):
            if e.op in ("+", "-") or (allow_logical and e.op == ".not."):
                return self._invariant(e.operand, allow_logical, probe)
            return fail(f"operator {e.op} in invariant position")
        if isinstance(e, A.BinOp):
            ok_ops = {"+", "-", "*", "/", "**"}
            if allow_logical:
                ok_ops |= {".and.", ".or.", ".lt.", ".le.", ".gt.", ".ge.",
                           ".eq.", ".ne."}
            if e.op not in ok_ops:
                return fail(f"operator {e.op} in invariant position")
            return (self._invariant(e.left, allow_logical, probe)
                    and self._invariant(e.right, allow_logical, probe))
        if isinstance(e, (A.FuncCall, A.Apply)):
            if e.name in PURE_RT_QUERIES or is_intrinsic(e.name):
                return all(self._invariant(a, False, probe) for a in e.args)
            return fail(f"call to {e.name!r} in invariant position")
        return fail(f"{type(e).__name__} in invariant position")

    # -- vector-context expression scan ----------------------------------------

    def _scan_expr(self, e: A.Expr, ctx: tuple, c: int) -> None:
        if isinstance(e, (A.IntLit, A.RealLit, A.LogicalLit)):
            return
        if isinstance(e, A.StringLit):
            raise Fallback("string expression in nest body")
        if isinstance(e, A.Var):
            if e.name in self.vset:
                self.var_values.add(e.name)
                return
            sym = self.table.get(e.name)
            if sym is not None and sym.is_array:
                raise Fallback("whole-array reference in nest body")
            self.scalar_reads.append((e.name, c, ctx))
            return
        if isinstance(e, A.ArrayRef):
            self._scan_ref(e, ctx, c, is_write=False)
            return
        if isinstance(e, A.UnOp):
            if e.op in ("+", "-", ".not."):
                self._scan_expr(e.operand, ctx, c)
                return
            raise Fallback(f"operator {e.op} in nest body")
        if isinstance(e, A.BinOp):
            if e.op in ("**", "//", ".eqv.", ".neqv."):
                raise Fallback(f"operator {e.op} has no bitwise-safe "
                               f"vector form")
            if e.op not in ("+", "-", "*", "/", ".and.", ".or.", ".lt.",
                            ".le.", ".gt.", ".ge.", ".eq.", ".ne."):
                raise Fallback(f"operator {e.op} in nest body")
            if e.op in ("+", "-", "*", "/"):
                lt, rt = self._etype(e.left), self._etype(e.right)
                if "?" in (lt, rt) or "s" in (lt, rt):
                    raise Fallback("untyped operand in nest body")
                if "l" in (lt, rt):
                    raise Fallback("logical operand in arithmetic")
            self._scan_expr(e.left, ctx, c)
            self._scan_expr(e.right, ctx, c)
            return
        if isinstance(e, A.FuncCall):
            if e.name.startswith("acfd_"):
                if e.name not in PURE_RT_QUERIES:
                    raise Fallback(f"runtime call {e.name} in nest body")
                for a in e.args:
                    self._invariant(a)
                return
            if is_intrinsic(e.name):
                if e.name not in VECTOR_SAFE_INTRINSICS:
                    raise Fallback(f"intrinsic {e.name} has no bitwise-safe "
                                   f"vector form")
                if e.name in ("max", "min"):
                    types = {self._etype(a) for a in e.args}
                    if len(types) > 1:
                        raise Fallback(f"mixed-type {e.name} in nest body")
                for a in e.args:
                    self._scan_expr(a, ctx, c)
                return
            raise Fallback(f"call to function {e.name!r} in nest body")
        raise Fallback(f"{type(e).__name__} in nest body")

    def _const_eval(self, e: A.Expr) -> int | None:
        """Fold invariant integer arithmetic over PARAMETER constants."""
        if isinstance(e, A.IntLit):
            return e.value
        if isinstance(e, A.Var):
            return self.invariants.get(e.name)
        if isinstance(e, A.UnOp):
            v = self._const_eval(e.operand)
            if v is None:
                return None
            return v if e.op == "+" else (-v if e.op == "-" else None)
        if isinstance(e, A.BinOp):
            lv = self._const_eval(e.left)
            rv = self._const_eval(e.right)
            if lv is None or rv is None:
                return None
            if e.op == "+":
                return lv + rv
            if e.op == "-":
                return lv - rv
            if e.op == "*":
                return lv * rv
            if e.op == "/" and rv != 0:
                q = abs(lv) // abs(rv)
                return q if (lv >= 0) == (rv >= 0) else -q
        return None

    def _scan_ref(self, ref: A.ArrayRef, ctx: tuple, c: int,
                  is_write: bool) -> None:
        sym = self.table.get(ref.name)
        if sym is not None and sym.type_name == "character":
            raise Fallback("character array in nest body")
        infos = []
        for sub in ref.subs:
            info = analyze_subscript(sub, self.vset, self.invariants)
            if info.kind is SubscriptKind.IRREGULAR:
                raise Fallback(f"non-affine subscript on {ref.name}")
            if info.kind is SubscriptKind.CONSTANT:
                # invariant subscripts must not hide a per-point scalar
                self._invariant(sub)
                if info.const is None:
                    # fold ``n - 1``-style PARAMETER arithmetic so boundary
                    # accesses like vx(n,j) / vx(n-1,j) prove disjoint
                    folded = self._const_eval(sub)
                    if folded is not None:
                        info = SubscriptInfo(SubscriptKind.CONSTANT,
                                             const=folded)
            infos.append(info)
        moving = [info.var for info in infos
                  if info.kind is not SubscriptKind.CONSTANT]
        if len(moving) != len(set(moving)):
            # a diagonal is no slice over the trip box
            raise Fallback(f"nest variable subscripts two dimensions of "
                           f"{ref.name}")
        if is_write:
            seen = []
            for info in infos:
                if info.kind is SubscriptKind.STRIDED:
                    raise Fallback(f"strided write target {ref.name}")
                if info.kind is SubscriptKind.INDUCTION:
                    seen.append(info.var)
            if sorted(seen) != sorted(self.vset):
                raise Fallback(f"write target {ref.name} does not index "
                               f"every nest variable exactly once")
        self.subscripts[id(ref)] = tuple(infos)
        self.refs.append(_Ref(ref.name, tuple(infos), tuple(ref.subs),
                              ctx, is_write))

    # -- statement classification ----------------------------------------------

    def _classify(self, stmts: list[A.Stmt], ctx: tuple) -> list:
        out = []
        for s in stmts:
            if s.label is not None and s.label in self.targeted:
                raise Fallback("GOTO-targeted label in nest body")
            if isinstance(s, (A.Continue, A.FormatStmt, A.DirectiveStmt)):
                out.append(VSkip(s))
            elif isinstance(s, A.Assign):
                out.append(self._classify_assign(s, ctx))
            elif isinstance(s, A.IfBlock):
                out.append(self._classify_if(s, list(s.arms), ctx))
            elif isinstance(s, A.LogicalIf):
                out.append(self._classify_if(s, [(s.cond, [s.stmt])], ctx))
            else:
                raise Fallback(f"{type(s).__name__} in nest body")
        return out

    def _classify_assign(self, s: A.Assign, ctx: tuple):
        self.counter += 1
        c = self.counter
        target = s.target
        if isinstance(target, A.ArrayRef):
            self._scan_ref(target, ctx, c, is_write=True)
            self._scan_expr(s.value, ctx, c)
            return VArrayAssign(s)
        if not isinstance(target, A.Var):
            raise Fallback("unsupported assignment target")
        name = target.name
        if name in self.vset:
            raise Fallback("nest variable assigned in body")
        red = self._match_reduction(name, s.value)
        if red is not None:
            op, intrin, operand = red
            self.scalar_writes.setdefault(name, []).append(("reduce", op, c))
            self._scan_expr(operand, ctx, c)
            return VReduce(s, name, op, intrin, operand)
        self.scalar_writes.setdefault(name, []).append(("temp", c, ctx))
        self._scan_expr(s.value, ctx, c)
        return VTempAssign(s, name)

    def _match_reduction(self, name: str, value: A.Expr):
        """``x = f(x, e)`` / ``x = x + e`` -> (op, intrin, operand)."""
        def is_acc(e: A.Expr) -> bool:
            return isinstance(e, A.Var) and e.name == name

        if isinstance(value, A.FuncCall) \
                and value.name in REDUCTION_INTRINSICS \
                and len(value.args) == 2:
            for acc, operand in ((value.args[0], value.args[1]),
                                 (value.args[1], value.args[0])):
                if is_acc(acc):
                    return (REDUCTION_INTRINSICS[value.name], value.name,
                            operand)
        if isinstance(value, A.BinOp) and value.op == "+":
            for acc, operand in ((value.left, value.right),
                                 (value.right, value.left)):
                if is_acc(acc):
                    sym = self.table.get(name)
                    tn = sym.type_name if sym else "real"
                    if tn == "integer" and self._etype(operand) == "i":
                        return ("isum", None, operand)
                    raise Fallback("floating-point sum reduction "
                                   "(np.sum order differs from the "
                                   "sequential fold)")
        return None

    def _classify_if(self, s: A.Stmt, arms: list, ctx: tuple) -> VIf:
        uniform = all(
            cond is None or self._invariant(cond, allow_logical=True,
                                            probe=True)
            for cond, _ in arms)
        classified = []
        if uniform:
            for i, (cond, body) in enumerate(arms):
                if cond is not None:
                    self._invariant(cond, allow_logical=True)
                classified.append((cond,
                                   self._classify(body, ctx + ((id(s), i),))))
        else:
            self.varying_ifs.add(id(s))
            for i, (cond, body) in enumerate(arms):
                if cond is not None:
                    self.counter += 1
                    if self._etype(cond) != "l":
                        raise Fallback("non-logical IF condition")
                    self._scan_expr(cond, ctx, self.counter)
                classified.append((cond,
                                   self._classify(body, ctx + ((id(s), i),))))
            if len(arms) == 1 and arms[0][0] is not None:
                parity = _parity_mask(arms[0][0], self.vset)
                if parity is not None:
                    self.parity_of[(id(s), 0)] = parity
        return VIf(s, uniform, classified)

    # -- dependence verdict ----------------------------------------------------

    def _relation(self, a: _Ref, b: _Ref):
        """'disjoint' | list of (var, delta) | None (unprovable)."""
        deltas = []
        for ia, ea, ib, eb in zip(a.infos, a.exprs, b.infos, b.exprs):
            ka, kb = ia.kind, ib.kind
            if ka is SubscriptKind.CONSTANT and kb is SubscriptKind.CONSTANT:
                if ia.const is not None and ib.const is not None:
                    if ia.const != ib.const:
                        return "disjoint"
                    continue
                if _same_expr(ea, eb):
                    continue
                # the same invariant expression plus different integer
                # constants (u(i, ..) vs u(i-1, ..) under a scalar i)
                names = {n.name for e in (ea, eb) for n in A.walk(e)
                         if isinstance(n, A.Var)}
                la, lb = _multilinear(ea, names), _multilinear(eb, names)
                if la is None or lb is None:
                    return None
                if any(la[0].get(v, 0) != lb[0].get(v, 0) for v in names):
                    return None
                if la[1] != lb[1]:
                    return "disjoint"
                continue
            if ka is SubscriptKind.INDUCTION and kb is SubscriptKind.INDUCTION:
                if ia.var != ib.var:
                    return None
                deltas.append((ia.var, ib.offset - ia.offset))
                continue
            if ka is SubscriptKind.STRIDED and kb is SubscriptKind.STRIDED:
                if ia.var == ib.var and ia.coeff == ib.coeff:
                    diff = ib.offset - ia.offset
                    if diff == 0:
                        continue
                    if diff % ia.coeff != 0:
                        return "disjoint"
                return None
            return None  # mixed induction/constant/strided
        return deltas

    def _check_dependences(self) -> None:
        """Refuse unprovable pairs; collect every nonzero distance vector
        a pair is not exempt from into ``self.vectors``."""
        writes: dict[str, list[_Ref]] = {}
        reads: dict[str, list[_Ref]] = {}
        for r in self.refs:
            (writes if r.is_write else reads).setdefault(r.name, []).append(r)
        for name, ws in writes.items():
            pairs = [(w, r) for w in ws for r in reads.get(name, ())]
            pairs += list(combinations(ws, 2))
            for a, b in pairs:
                rel = self._relation(a, b)
                if rel == "disjoint":
                    continue
                if rel is None:
                    raise Fallback(f"unprovable overlap on {name}")
                nz = [(v, d) for v, d in rel if d != 0]
                if not nz:
                    continue  # identical elements: statement order holds
                if a.ctx == b.ctx and self._parity_exempt(a.ctx, nz):
                    continue
                self.vectors.append((name, nz))

    def _parity_exempt(self, ctx: tuple, deltas: list) -> bool:
        """True when a guard along *ctx* two-colors the colliding lanes."""
        for key in ctx:
            coeffs = self.parity_of.get(key)
            if coeffs is None:
                continue
            total = sum(coeffs.get(v, 0) * d for v, d in deltas)
            if total % 2 != 0:
                return True
        return False

    def _schedule(self, temps: dict) -> tuple[tuple, str]:
        """(carried variables in nesting order, mode) for the collected
        distance vectors, or :class:`Fallback` when no schedule this
        backend emits keeps every source before its sink."""
        order = [lv.var for lv in self.levels]
        hit = {v for _, nz in self.vectors for v, _ in nz}
        carried = tuple(v for v in order if v in hit)
        if not carried:
            return (), "slice"
        if len(order) == 1:
            raise Fallback(f"loop-carried dependence on "
                           f"{self.vectors[0][0]}")
        for name, (_, ctx) in temps.items():
            if any(key[0] in self.varying_ifs for key in ctx):
                # its exit value is the lexicographically last masked
                # lane, which neither carried schedule visits last
                raise Fallback(f"temporary {name} assigned under a "
                               f"varying mask in a carried nest")
        if len(carried) < len(order):
            # every distance is zero outside ``carried``: scalar loops
            # over it in source order keep each source before its sink
            return carried, "carried-outer"
        signs = {}
        for lv in self.levels:
            step = 1 if lv.step is None else self._const_eval(lv.step)
            signs[lv.var] = None if not step else (1 if step > 0 else -1)
        for name, nz in self.vectors:
            if len(nz) == 1:
                continue
            text = "(" + ", ".join(f"{v}{d:+d}" for v, d in nz) + ")"
            if any(signs[v] is None for v, _ in nz):
                raise Fallback(f"diagonal dependence {text} on {name} "
                               f"under a non-literal step")
            # one sign in trip space: the fronts sum(trips) = c, in
            # increasing c, order the pair as the lexicographic sweep does
            if len({(d > 0) == (signs[v] > 0) for v, d in nz}) > 1:
                raise Fallback(f"mixed-sign dependence vector {text} on "
                               f"{name} (no hyperplane front separates "
                               f"it)")
        return carried, "fronts"

    # -- finalization ----------------------------------------------------------

    def run(self) -> NestFacts:
        inner = self.levels[-1]
        for lv in self.levels:
            self._invariant(lv.start)
            self._invariant(lv.stop)
            if lv.step is not None:
                self._invariant(lv.step)
        body = self._classify(inner.body, ())

        temps: dict[str, tuple] = {}
        reductions: dict[str, str] = {}
        for name, wlist in self.scalar_writes.items():
            kinds = {w[0] for w in wlist}
            if kinds == {"reduce"}:
                ops = {w[1] for w in wlist}
                if len(ops) > 1:
                    raise Fallback(f"mixed reduction kinds on {name}")
                reductions[name] = ops.pop()
            elif kinds == {"temp"}:
                if len(wlist) > 1:
                    raise Fallback(f"scalar {name} assigned more than once")
                _, c, ctx = wlist[0]
                temps[name] = (c, ctx)
            else:
                raise Fallback(f"scalar {name} is both temporary and "
                               f"reduction")
        for name, c, ctx in self.scalar_reads:
            if name in reductions:
                raise Fallback(f"reduction variable {name} read in nest")
            if name in temps:
                ac, actx = temps[name]
                if c <= ac or ctx[:len(actx)] != actx:
                    raise Fallback(f"scalar {name} read before assignment "
                                   f"(loop-carried)")
        varying = set(temps) | set(reductions)
        clash = varying & self.invariant_vars
        if clash:
            raise Fallback(f"per-point scalar {sorted(clash)[0]} in "
                           f"invariant position")
        self._check_dependences()
        carried, mode = self._schedule(temps)
        return NestFacts(ok=True, levels=tuple(self.levels),
                         nest_vars=tuple(lv.var for lv in self.levels),
                         body=body, temps=temps, reductions=reductions,
                         var_values=frozenset(self.var_values),
                         carried=carried, mode=mode,
                         subscripts=self.subscripts)


def analyze_nest(loop: A.DoLoop, table: SymbolTable,
                 targeted_labels: frozenset[int] = frozenset()) -> NestFacts:
    """Safety facts for the maximal perfect DO chain rooted at *loop*.

    Returns ``NestFacts(ok=True, ...)`` when statement-at-a-time slice
    execution is provably bitwise-equal to the sequential order, else
    ``NestFacts(ok=False, reason=...)`` naming the first obstruction.
    """
    try:
        return _NestAnalysis(loop, table, targeted_labels).run()
    except Fallback as fb:
        return NestFacts(ok=False, reason=fb.reason)
