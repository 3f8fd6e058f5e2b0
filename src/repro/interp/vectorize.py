"""Vectorizing translation mode for the Python backend.

For each DO nest that :func:`repro.analysis.vecsafety.analyze_nest`
gives a schedule (Jacobi-type A-loops, red-black sweeps behind parity
masks and max/min/integer-sum reductions as whole slices; direction-split
sweeps as scalar loops over the carried variables only; Gauss–Seidel and
SOR as hyperplane fronts), :func:`try_emit_nest` emits numpy statements
over the ``OffsetArray`` buffers instead of the scalar ``for`` nest —
typically a 10-100x speedup on field loops — and returns ``False`` for
anything outside the provable subset so :mod:`repro.interp.pyback` keeps
its scalar translation (mixed-sign diagonal sweeps, GOTO-carrying nests,
subroutine calls, float sums).

Emission contract (why this is bitwise-safe).  All three schedules
reorder iterations, never the operations inside one element's
expression or a reduction's fold:

* statements execute *one at a time* over a set of iterations the
  analysis proved mutually independent, in statement order, so every
  intra-statement read sees exactly the values the scalar order would
  have seen.  The set is the whole iteration box (``slice``), the box of
  the uncarried variables inside ``for`` loops over the carried ones,
  which run in source order and are read as plain scalars
  (``carried-outer``), or one hyperplane front ``sum(trip indices) = c``
  at a time in increasing c (``fronts``);
* array reads/writes become slices over the canonical axis order
  (outermost box variable = axis 0); Fortran's column-major nests make
  the store target a transposed view, which numpy assigns without a
  copy.  On a front they become gathers and scatters ``view[key]``:
  :func:`_vfront_refs` hands out one key list per array layout (flat
  indices when the buffer is C-contiguous, index tuples otherwise;
  built once per trip-count tuple and layout, memoized, read-only) and
  one view per reference, shifted by the reference's constant offset,
  so the front loop does no index arithmetic;
* IF arms guarded by iteration-dependent conditions become boolean
  masks; array stores select per lane with ``np.where``, reductions
  compress with boolean indexing, and each arm's condition is evaluated
  *after* the preceding arms' stores (per lane that matches the scalar
  order, because arms are exclusive);
* scalar temporaries become box-shaped arrays (copied, so later stores
  to a source array cannot retroactively change them) and their
  last-executed-iteration value is restored after the nest: the last
  pass of the carried loops, or the last front, which is the single
  last iteration (masked temporaries take the ``slice`` schedule only);
* max/min/integer-sum reductions fold once per box or front into the
  scalar, which is exact in any order;
* DO-variable exit values are reproduced exactly, including the
  zero-trip-count case where inner loop variables stay untouched;
* SPMD programs work unchanged: halo regions are excluded by the loop
  bounds the restructurer already emitted, ``acfd_*`` queries in bounds
  evaluate through ``ctx.rt`` exactly as in scalar mode, and the
  ``acfd_pipe_recv``/``acfd_pipe_send`` of a pipelined sweep stay
  outside the nest they bracket.

The generated code calls the ``_vsl``/``_vidiv``/``_vfront_*``/``_vin_*``
helpers below, which :func:`repro.interp.pyback.compile_unit` injects
into the execution namespace.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import CodegenError, InterpError
from repro.fortran import ast as A
from repro.analysis.stencil import SubscriptKind, analyze_subscript
from repro.analysis.vecsafety import (MODES, NestFacts, VArrayAssign, VIf,
                                      VReduce, VSkip, VTempAssign,
                                      analyze_nest)

_I8 = np.int64
_F8 = np.float64


def _vsl(start: int, n: int, step: int) -> slice:
    """Slice covering ``start, start+step, ...`` (*n* elements), handling
    the negative-step case where the exclusive stop would wrap around."""
    stop = start + n * step
    if step < 0 and stop < 0:
        stop = None
    return slice(start, stop, step)


@lru_cache(maxsize=16)
def _vfront_sizes(ns: tuple) -> tuple:
    """Lanes on each hyperplane front ``sum(trip indices) = c`` of the
    trip box *ns*, in increasing c."""
    sizes = np.ones(1, dtype=np.int64)
    for n in ns:
        sizes = np.convolve(sizes, np.ones(n, dtype=np.int64))
    return tuple(int(x) for x in sizes)


@lru_cache(maxsize=16)
def _front_keys(ns: tuple, coefs: tuple, strides: tuple | None):
    """Per-front index keys of one array layout over the trip box *ns*.

    ``coefs[d]`` is ``(level, mult)`` when array dim *d* moves *mult*
    elements per trip of that nest level, ``None`` for an invariant dim.
    *strides* are the element strides of a C-contiguous buffer (keys are
    flat indices) or ``None`` (keys are index tuples).  Returns ``(keys,
    lows, spans)``: along dim *d* the keys cover ``0..spans[d]`` and stand
    for ``lows[d] + key`` elements from the trip-0 element.  Lanes on one
    front are in sweep (lexicographic) order.  The result is shared
    between callers, so its arrays are read-only.
    """
    total = np.zeros(ns, dtype=np.int32)
    for level, n in enumerate(ns):
        total += np.arange(n, dtype=np.int32).reshape(
            [n if k == level else 1 for k in range(len(ns))])
    order = np.argsort(total.ravel(), kind="stable")
    del total
    cuts = np.cumsum(_vfront_sizes(ns))[:-1]
    lows, spans, cols = [], [], []
    for coef in coefs:
        if coef is None:
            lows.append(0)
            spans.append(0)
            cols.append(None)
            continue
        level, mult = coef
        reach = mult * (ns[level] - 1)
        lows.append(min(0, reach))
        spans.append(abs(reach))
        # the level's trip index of each lane, front by front
        col = order // int(np.prod(ns[level + 1:]))
        col %= ns[level]
        col *= mult
        col -= lows[-1]
        cols.append(col)
    if strides is not None:
        flat = np.zeros(order.size, dtype=np.intp)
        for col, stride in zip(cols, strides):
            if col is not None:
                col *= stride
                flat += col
        flat.flags.writeable = False
        keys = tuple(np.split(flat, cuts))
    else:
        for col in cols:
            if col is not None:
                col.flags.writeable = False
        parts = [None if col is None else np.split(col, cuts)
                 for col in cols]
        keys = tuple(tuple(0 if p is None else p[c] for p in parts)
                     for c in range(len(cuts) + 1))
    return keys, tuple(lows), tuple(spans)


def _vfront_trips(ns: tuple, level: int) -> tuple:
    """Per-front trip indices of one nest level (a DO variable read as a
    value inside a fronts nest)."""
    return _front_keys(ns, ((level, 1),), (1,))[0]


def _vfront_refs(buf: np.ndarray, ns: tuple, coefs: tuple, shifts: tuple):
    """Per-front keys plus one shifted view of *buf* per reference, so
    that ``views[r][keys[c]]`` gathers or scatters reference *r* on front
    *c* with no index arithmetic inside the front loop.

    ``shifts[r][d]`` is reference *r*'s zero-based index along dim *d* at
    trip 0.  A C-contiguous buffer is addressed through its flat view
    (reshaping one never copies); any other buffer through basic-slice
    views and index tuples.
    """
    strides = flat = None
    if buf.flags.c_contiguous:
        strides = tuple(st // buf.itemsize for st in buf.strides)
        flat = buf.reshape(-1)
    keys, lows, spans = _front_keys(ns, coefs, strides)
    views = []
    for shift in shifts:
        start = [x + lo for x, lo in zip(shift, lows)]
        for x, span, extent in zip(start, spans, buf.shape):
            # a shifted view would read a neighbouring element silently
            if x < 0 or x + span >= extent:
                raise InterpError(
                    f"array subscript out of bounds in a wavefront nest "
                    f"({x}..{x + span} of extent {extent})")
        if flat is not None:
            views.append(flat[sum(x * st for x, st in zip(start, strides)):])
        else:
            views.append(buf[tuple(slice(x, None) for x in start)])
    return keys, views


def _vidiv(a, b):
    """Elementwise Fortran integer division (truncates toward zero)."""
    a = np.asarray(a)
    b = np.asarray(b)
    q = np.abs(a) // np.abs(b)
    return np.where((a >= 0) == (b >= 0), q, -q)


def _vfold(f, cast=None):
    def impl(*args):
        out = args[0]
        for x in args[1:]:
            out = f(out, x)
        out = np.asarray(out)
        return out.astype(cast) if cast is not None else out
    return impl


def _vsign(a, b):
    return np.where(np.asarray(b) >= 0, np.abs(a), -np.abs(a))


def _to_i8(a):
    return np.asarray(a).astype(_I8)  # truncates toward zero, like int()


def _to_f8(a):
    return np.asarray(a).astype(_F8)


#: elementwise implementations for every intrinsic in
#: ``vecsafety.VECTOR_SAFE_INTRINSICS`` — all bitwise-identical to the
#: scalar fold (IEEE-exact ops only; verified: ``np.fmod`` keeps int64
#: and the dividend's sign like Fortran MOD, ``np.rint`` rounds
#: half-to-even like Python ``round``, ``astype(int64)`` truncates
#: toward zero like ``int()``)
VECTOR_INTRINSIC_IMPLS = {
    "abs": np.abs, "dabs": np.abs, "iabs": np.abs,
    "sqrt": np.sqrt, "dsqrt": np.sqrt,
    "max": _vfold(np.maximum), "min": _vfold(np.minimum),
    "amax1": _vfold(np.maximum, _F8), "dmax1": _vfold(np.maximum, _F8),
    "amin1": _vfold(np.minimum, _F8), "dmin1": _vfold(np.minimum, _F8),
    "max0": _vfold(np.maximum, _I8), "min0": _vfold(np.minimum, _I8),
    "mod": np.fmod, "amod": np.fmod, "dmod": np.fmod,
    "sign": _vsign, "dsign": _vsign, "isign": _vsign,
    "int": _to_i8, "ifix": _to_i8, "idint": _to_i8,
    "nint": lambda a: np.rint(a).astype(_I8),
    "anint": lambda a: np.asarray(np.rint(a), _F8),
    "real": _to_f8, "float": _to_f8, "sngl": _to_f8,
    "dble": _to_f8, "dfloat": _to_f8,
    "aint": np.trunc, "dint": np.trunc,
}

_TYPE_CODE = {"integer": "i", "real": "r", "doubleprecision": "r",
              "logical": "l", "character": "s"}
_SCALAR_CAST = {"i": "int", "r": "float", "l": "bool"}


def new_stats() -> dict:
    """The tally ``compile_unit`` and :func:`survey` both fill: nests per
    verdict, per schedule, and one ``(unit, line, reason)`` per refusal."""
    return {"vectorized": 0, "fallback": 0, "reasons": [],
            "modes": dict.fromkeys(MODES, 0)}


def _tally(stats: dict, unit: A.ProgramUnit, loop: A.DoLoop,
           facts: NestFacts) -> None:
    if facts.ok:
        stats["vectorized"] += 1
        stats["modes"][facts.mode] += 1
    else:
        stats["fallback"] += 1
        stats["reasons"].append((unit.name, loop.line, facts.reason))


def try_emit_nest(comp, loop: A.DoLoop) -> bool:
    """Emit *loop* as numpy statements into *comp* if a schedule is proven.

    Returns True on success; on False the caller must emit the scalar
    translation (its recursion retries inner nests on their own, which
    also handles triangular nests whose inner bounds depend on the outer
    variable).  Updates ``comp.stats`` either way.
    """
    facts = analyze_nest(loop, comp.table,
                         frozenset(comp.targeted_labels))
    _tally(comp.stats, comp.unit, loop, facts)
    if facts.ok:
        _NestEmitter(comp, facts).emit()
    return facts.ok


class _NestEmitter:
    """Writes the numpy translation of one proven nest through the unit
    compiler's line buffer (sharing its indentation and name supply)."""

    def __init__(self, comp, facts: NestFacts) -> None:
        self.c = comp
        self.f = facts
        self.base = comp.fresh("vz")
        self.fronts = facts.mode == "fronts"
        self.level_of = {v: k for k, v in enumerate(facts.nest_vars)}
        #: box axis of each variable the statements run vectorized over
        #: (fronts: none, every reference goes through a front key)
        self.axis_of = {} if self.fronts else {
            v: a for a, v in enumerate(
                v for v in facts.nest_vars if v not in facts.carried)}
        self.L = 1 if self.fronts else len(self.axis_of)
        #: fronts only: layout -> (group index, {shift texts: ref index})
        self.groups: dict[tuple, tuple[int, dict]] = {}
        self.invariants = {
            sym.name: int(sym.param_value)
            for sym in comp.table.symbols.values()
            if sym.is_parameter and isinstance(sym.param_value, int)}

    def emit(self) -> None:
        c, b = self.c, self.base
        levels = self.f.levels
        for k, lv in enumerate(levels):
            start = c.expr(lv.start)
            stop = c.expr(lv.stop)
            step = c.expr(lv.step) if lv.step is not None else "1"
            c.w(f"{b}s{k} = int({start})")
            c.w(f"{b}d{k} = int({step})")
            c.w(f"{b}n{k} = _do_trips({b}s{k}, int({stop}), {b}d{k})")
            # DO-variable exit value; inner levels stay inside the outer
            # guard so they remain untouched when the outer nest is empty
            c.w(f"f_{lv.var} = {b}s{k} + {b}n{k} * {b}d{k}")
            c.w(f"if {b}n{k} > 0:")
            c.depth += 1
        if self.fronts:
            self._fronts_frame()
        else:
            self._box_frame()
        self._extract_temps()
        c.w("pass")
        c.depth -= len(levels)

    def _box_frame(self) -> None:
        """Statements over the box of the uncarried variables, inside
        scalar loops over the carried ones (none in ``slice`` mode)."""
        c, b = self.c, self.base
        box = sorted(self.axis_of, key=self.axis_of.get)
        c.w(f"{b}bx = "
            f"({', '.join(f'{b}n{self.level_of[v]}' for v in box)},)")
        for v in box:
            if v not in self.f.var_values:
                continue
            k = self.level_of[v]
            grid = f"({b}s{k} + {b}d{k} * _np.arange({b}n{k}))"
            if self.L > 1:
                shape = ", ".join(f"{b}n{k}" if u == v else "1"
                                  for u in box)
                grid += f".reshape({shape})"
            c.w(f"{b}g{k} = {grid}")
        self._init_temps()
        for v in self.f.carried:
            k = self.level_of[v]
            c.w(f"for {b}it{k} in range({b}n{k}):")
            c.depth += 1
            c.w(f"f_{v} = {b}s{k} + {b}it{k} * {b}d{k}")
        self._body(self.f.body, None)
        c.depth -= len(self.f.carried)
        for v in self.f.carried:
            k = self.level_of[v]
            c.w(f"f_{v} = {b}s{k} + {b}n{k} * {b}d{k}")

    def _fronts_frame(self) -> None:
        """Statements over one hyperplane front at a time; the last
        front is the single last iteration, so the slice rules for
        temporaries' exit values carry over with a 1-D box."""
        c, b = self.c, self.base
        nlev = len(self.f.levels)
        c.w(f"{b}ns = ({', '.join(f'{b}n{k}' for k in range(nlev))},)")
        c.w(f"{b}fs = _vfront_sizes({b}ns)")
        values = sorted(self.f.var_values, key=self.level_of.get)
        for v in values:
            k = self.level_of[v]
            c.w(f"{b}q{k} = _vfront_trips({b}ns, {k})")
        self._init_temps()
        setup = len(c.lines)
        c.w(f"for {b}c, {b}w in enumerate({b}fs):")
        c.depth += 1
        c.w(f"{b}bx = ({b}w,)")
        head = len(c.lines)
        for v in values:
            k = self.level_of[v]
            c.w(f"{b}g{k} = {b}s{k} + {b}d{k} * {b}q{k}[{b}c]")
        self._body(self.f.body, None)
        # the body named its references as it went; bind them up front
        c.lines[head:head] = [
            "    " * c.depth + f"{b}K{g} = {b}k{g}[{b}c]"
            for g, _ in self.groups.values()]
        c.depth -= 1
        binds = []
        for (name, coefs), (g, refs) in self.groups.items():
            views = "".join(f"{b}r{g}_{j}, " for j in refs.values())
            shifts = "".join(f"({', '.join(sh)},), " for sh in refs)
            binds.append(
                "    " * c.depth + f"{b}k{g}, ({views}) = _vfront_refs("
                f"f_{name}_d, {b}ns, ({''.join(coefs)}), ({shifts}))")
        c.lines[setup:setup] = binds

    def _init_temps(self) -> None:
        for name in self.f.temps:
            self.c.w(f"{self.base}t_{name} = None")
            self.c.w(f"{self.base}tm_{name} = None")

    # -- statement emission ----------------------------------------------------

    def _body(self, items: list, mask: str | None) -> None:
        for it in items:
            if isinstance(it, VSkip):
                continue
            if isinstance(it, VArrayAssign):
                self._array_assign(it.stmt, mask)
            elif isinstance(it, VTempAssign):
                self._temp_assign(it, mask)
            elif isinstance(it, VReduce):
                self._reduce(it, mask)
            elif isinstance(it, VIf):
                if it.uniform:
                    self._uniform_if(it, mask)
                else:
                    self._varying_if(it, mask)
            else:  # pragma: no cover - analysis guarantees coverage
                raise CodegenError(f"unclassified nest statement {it!r}")

    def _array_assign(self, s: A.Assign, mask: str | None) -> None:
        rhs = self._vexpr(s.value)
        tview = self._target_view(s.target)
        store = tview if self.fronts else f"{tview}[...]"
        if mask is None:
            self.c.w(f"{store} = {rhs}")
        else:
            # np.where materializes the full RHS before the store, so a
            # delta-0 self-read (prn(i,j) = 0.5*prn(i,j) + ...) is safe
            self.c.w(f"{store} = _np.where({mask}, {rhs}, {tview})")

    def _temp_assign(self, it: VTempAssign, mask: str | None) -> None:
        c, b = self.c, self.base
        sym = c.table.get(it.name)
        tn = sym.type_name if sym else "real"
        rhs = self._vexpr(it.stmt.value)
        # np.array (not asarray): the temp must be a *copy*, or a later
        # store to the source array would change it retroactively
        c.w(f"{b}t_{it.name} = "
            + self._boxed(f"_np.array({rhs}, _DT[{tn!r}])", it.stmt.value))
        c.w(f"{b}tm_{it.name} = {mask if mask is not None else 'None'}")

    def _reduce(self, it: VReduce, mask: str | None) -> None:
        c, b = self.c, self.base
        cur = c.var_read(it.name)
        sv = c.fresh("vr")
        rhs = self._vexpr(it.operand)
        lanes = self._boxed(f"_np.asarray({rhs})", it.operand)
        if mask is None:
            c.w(f"{sv} = {lanes}")
            self._commit_reduce(it, cur, sv)
        else:
            c.w(f"{sv} = {lanes}[_np.broadcast_to({mask}, {b}bx)]")
            c.w(f"if {sv}.size:")
            c.depth += 1
            self._commit_reduce(it, cur, sv)
            c.depth -= 1

    def _boxed(self, value: str, e: A.Expr) -> str:
        """*value* with one element per lane of the box.  On a front an
        expression that reads a nest variable (directly or in a
        subscript) or a temporary already is, and the no-op broadcast
        would be paid once per front."""
        if self.fronts and any(
                isinstance(n, A.Var) and (n.name in self.level_of
                                          or n.name in self.f.temps)
                for n in A.walk(e)):
            return value
        return f"_np.broadcast_to({value}, {self.base}bx)"

    def _commit_reduce(self, it: VReduce, cur: str, sv: str) -> None:
        if it.op == "isum":
            # object-dtype sum: exact arbitrary-precision Python ints,
            # matching the unbounded scalar accumulation
            val = f"{cur} + {sv}.sum(dtype=object)"
        elif it.op == "max":
            val = f"_in_{it.intrin}({cur}, {sv}.max())"
        else:
            val = f"_in_{it.intrin}({cur}, {sv}.min())"
        self._store_scalar(it.name, val)

    def _uniform_if(self, it: VIf, mask: str | None) -> None:
        c = self.c
        for i, (cond, body) in enumerate(it.arms):
            if cond is None:
                c.w("else:")
            else:
                c.w(f"{'if' if i == 0 else 'elif'} {c.expr(cond)}:")
            c.depth += 1
            before = len(c.lines)
            self._body(body, mask)
            if len(c.lines) == before:
                c.w("pass")
            c.depth -= 1

    def _varying_if(self, it: VIf, mask: str | None) -> None:
        c = self.c
        rest = mask
        for cond, body in it.arms:
            if cond is not None:
                cv = c.fresh("vc")
                # evaluated after the previous arms' stores: per lane
                # this matches the scalar order, because a lane that took
                # an earlier (exclusive) arm has its result masked out
                c.w(f"{cv} = {self._vexpr(cond)}")
                mv = c.fresh("vm")
                nr = c.fresh("vm")
                if rest is None:
                    c.w(f"{mv} = {cv}")
                    c.w(f"{nr} = _np.logical_not({cv})")
                else:
                    c.w(f"{mv} = _np.logical_and({rest}, {cv})")
                    c.w(f"{nr} = _np.logical_and({rest}, "
                        f"_np.logical_not({cv}))")
                rest = nr
            else:
                mv = rest
            self._body(body, mv)

    def _extract_temps(self) -> None:
        c, b = self.c, self.base
        for name in self.f.temps:
            last = "[" + ", ".join("-1" for _ in range(self.L)) + "]"
            c.w(f"if {b}t_{name} is not None:")
            c.depth += 1
            c.w(f"if {b}tm_{name} is None:")
            c.depth += 1
            self._store_scalar(name, f"{b}t_{name}{last}")
            c.depth -= 1
            c.w("else:")
            c.depth += 1
            q = c.fresh("vq")
            # C-order ravel == iteration order (axes are outer->inner),
            # so the last True lane is the last iteration that assigned
            c.w(f"{q} = _np.flatnonzero("
                f"_np.broadcast_to({b}tm_{name}, {b}bx).ravel())")
            c.w(f"if {q}.size:")
            c.depth += 1
            self._store_scalar(name, f"{b}t_{name}.ravel()[{q}[-1]]")
            c.depth -= 3

    def _store_scalar(self, name: str, val: str) -> None:
        c = self.c
        sym = c.table.get(name)
        tcode = _TYPE_CODE.get(sym.type_name if sym else "real", "r")
        val = f"{_SCALAR_CAST[tcode]}({val})"
        if name in c.common_pos and not (sym and sym.is_array):
            block, pos = c.common_pos[name]
            c.w(f"_c_{block if block else 'blank'}[{pos}] = {val}")
        else:
            c.w(f"f_{name} = {val}")

    # -- references ------------------------------------------------------------

    def _target_view(self, ref: A.ArrayRef) -> str:
        """Assignable view of the write target with canonical axes."""
        if self.fronts:
            return self._front_ref(ref)
        text, axes = self._ref_slices(ref)
        if axes != sorted(axes):
            inv = tuple(axes.index(i) for i in range(self.L))
            text = f"{text}.transpose({inv})"
        return text

    def _vec_ref(self, ref: A.ArrayRef) -> str:
        """Read reference, transposed/broadcast to canonical axes."""
        if self.fronts:
            return self._front_ref(ref)
        text, axes = self._ref_slices(ref)
        if not axes:
            return text  # no box variable subscripts: plain scalar element
        if axes != sorted(axes):
            order = tuple(sorted(range(len(axes)), key=axes.__getitem__))
            text = f"{text}.transpose({order})"
        if len(axes) < self.L:
            present = set(axes)
            parts = ", ".join(":" if k in present else "None"
                              for k in range(self.L))
            text = f"{text}[{parts}]"
        return text

    def _affine_subs(self, ref: A.ArrayRef):
        """Per dim ``(level | None, multiplier text, rest)``: the
        zero-based index is ``mult * <level's variable> + rest``, or
        just ``rest`` for an invariant subscript."""
        for d, sub in enumerate(ref.subs):
            info = analyze_subscript(sub, set(self.f.nest_vars),
                                     self.invariants)
            lb = f"f_{ref.name}_l{d}"
            if info.kind is SubscriptKind.INDUCTION:
                yield self.level_of[info.var], "", f"{info.offset} - {lb}"
            elif info.kind is SubscriptKind.STRIDED:
                yield (self.level_of[info.var], f"{info.coeff} * ",
                       f"{info.offset} - {lb}")
            else:
                yield None, "", f"{self.c.expr(sub)} - {lb}"

    def _ref_slices(self, ref: A.ArrayRef) -> tuple[str, list[int]]:
        """Subscripted buffer text plus the box axis of each slice; a
        carried variable indexes as the plain scalar its loop assigns."""
        b = self.base
        parts = []
        axes: list[int] = []
        for k, mult, rest in self._affine_subs(ref):
            if k is None:
                parts.append(rest)
                continue
            var = self.f.nest_vars[k]
            if var in self.axis_of:
                parts.append(f"_vsl({mult}{b}s{k} + {rest}, {b}n{k}, "
                             f"{mult}{b}d{k})")
                axes.append(self.axis_of[var])
            else:
                parts.append(f"{mult}f_{var} + {rest}")
        return f"f_{ref.name}_d[{', '.join(parts)}]", axes

    def _front_ref(self, ref: A.ArrayRef) -> str:
        """``view[key]`` text for one reference of a fronts nest;
        references that differ only in constant offsets share a key."""
        b = self.base
        subs = list(self._affine_subs(ref))
        if all(k is None for k, _, _ in subs):
            return f"f_{ref.name}_d[{', '.join(r for _, _, r in subs)}]"
        coefs = tuple("None, " if k is None else f"({k}, {mult}{b}d{k}), "
                      for k, mult, _ in subs)
        shift = tuple(rest if k is None else f"{mult}{b}s{k} + {rest}"
                      for k, mult, rest in subs)
        g, refs = self.groups.setdefault((ref.name, coefs),
                                         (len(self.groups), {}))
        j = refs.setdefault(shift, len(refs))
        return f"{b}r{g}_{j}[{b}K{g}]"

    # -- expressions -----------------------------------------------------------

    def _vexpr(self, e: A.Expr) -> str:
        c, b = self.c, self.base
        if isinstance(e, A.IntLit):
            return str(e.value)
        if isinstance(e, A.RealLit):
            return repr(e.value)
        if isinstance(e, A.LogicalLit):
            return "True" if e.value else "False"
        if isinstance(e, A.Var):
            if e.name in self.level_of and (
                    self.fronts or e.name not in self.f.carried):
                return f"{b}g{self.level_of[e.name]}"
            if e.name in self.f.temps:
                return f"{b}t_{e.name}"
            return c.var_read(e.name)
        if isinstance(e, A.ArrayRef):
            return self._vec_ref(e)
        if isinstance(e, A.UnOp):
            if e.op == ".not.":
                return f"_np.logical_not({self._vexpr(e.operand)})"
            return f"({e.op}{self._vexpr(e.operand)})"
        if isinstance(e, A.BinOp):
            return self._vbinop(e)
        if isinstance(e, A.FuncCall):
            if e.name.startswith("acfd_"):
                args = ", ".join(c.expr(a) for a in e.args)
                return f"ctx.rt.{e.name[5:]}({args})"
            args = ", ".join(self._vexpr(a) for a in e.args)
            return f"_vin_{e.name}({args})"
        raise CodegenError(  # pragma: no cover - analysis guarantees
            f"cannot vectorize expression {type(e).__name__}")

    def _vbinop(self, e: A.BinOp) -> str:
        op_map = {"+": "+", "-": "-", "*": "*",
                  ".lt.": "<", ".le.": "<=", ".gt.": ">", ".ge.": ">=",
                  ".eq.": "==", ".ne.": "!="}
        left = self._vexpr(e.left)
        right = self._vexpr(e.right)
        if e.op in op_map:
            return f"({left} {op_map[e.op]} {right})"
        if e.op == "/":
            lt = self.c.expr_type(e.left)
            rt = self.c.expr_type(e.right)
            if lt == "i" and rt == "i":
                return f"_vidiv({left}, {right})"
            return f"({left} / {right})"
        if e.op == ".and.":
            return f"_np.logical_and({left}, {right})"
        if e.op == ".or.":
            return f"_np.logical_or({left}, {right})"
        raise CodegenError(  # pragma: no cover - analysis guarantees
            f"cannot vectorize operator {e.op!r}")


def _goto_targets(unit: A.ProgramUnit) -> set[int]:
    targets: set[int] = set()
    for stmt in A.walk_statements(unit.body):
        if isinstance(stmt, A.Goto):
            targets.add(stmt.target)
        elif isinstance(stmt, A.ComputedGoto):
            targets.update(stmt.targets)
    return targets


def goto_targets(unit: A.ProgramUnit) -> set[int]:
    """Labels any GOTO in *unit* may jump to.

    Shared with the overlap restructurer: both the vectorizer and the
    interior/boundary splitter must refuse nests whose labels are jump
    targets, since re-emitting (or duplicating) such a nest breaks the
    unit's control flow.  The split nests this produces stay inside the
    vectorizer's provable subset — their adjusted bounds only add
    ``max0``/``min0`` over ``acfd_lo``/``acfd_hi``, which are invariant
    rank-local queries — so split programs keep their slice frames.
    """
    return _goto_targets(unit)


def survey(cu: A.CompilationUnit) -> dict:
    """Count vectorized (per schedule) and fallback nests, with reasons,
    in the shape of ``CompiledProgram.vector_stats``.

    Mirrors the backend's translation walk exactly: a proven chain is
    one vectorized nest (inner levels are consumed by it); a failed loop
    counts as one fallback and its body is searched for inner nests the
    scalar recursion would retry.
    """
    from repro.fortran.symbols import resolve_compilation_unit
    for unit in cu.units:
        if unit.symbols is None:
            resolve_compilation_unit(cu)
            break
    stats = new_stats()

    def visit(unit: A.ProgramUnit, targeted: frozenset,
              stmts: list[A.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, A.DoLoop):
                facts = analyze_nest(s, unit.symbols, targeted)
                _tally(stats, unit, s, facts)
                if not facts.ok:
                    visit(unit, targeted, s.body)
            elif isinstance(s, A.DoWhile):
                visit(unit, targeted, s.body)
            elif isinstance(s, A.IfBlock):
                for _, body in s.arms:
                    visit(unit, targeted, body)
            elif isinstance(s, A.LogicalIf):
                visit(unit, targeted, [s.stmt])

    for unit in cu.units:
        visit(unit, frozenset(_goto_targets(unit)), unit.body)
    return stats
