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

Emission contract.  A nest is emitted as *look the plan up, execute it*::

    key = (nest number, id() of each buffer, value of each variable the
           bounds and invariant subscripts read)
    plan = ctx.plans.table.get(key) or _vplan_box(
        ctx.plans, key, _vs[nest number], (DO bounds), (buffers and their
        lower bounds), (invariant subscripts))
    *exit values, body = plan
    if body is not None:
        views, grids, scratch, masks, box shape = body
        <one ufunc call per operation, on those names>
    <DO variables> = exit values

What the emitter fixed about a nest (its references' subscript forms,
carried levels, grids, scratch slots, masks) is not emitted as text: it
is one tuple in the ``_vs`` table of the execution namespace, so the
generated source is no longer than the slice emission it replaces
(compiling it is a fixed cost of every solve) and the build call
evaluates only what the run decides.

**What is resolved once** (:func:`_vplan_box`, :func:`_vplan_fronts`, on
the first execution with a given key): the trip box, the DO variables'
exit values and the zero-trip verdict (from the first empty level
inwards the variables stay untouched and the nest has no body); one view
per distinct array reference, in canonical axis order (outermost box
variable = axis 0; Fortran's column-major nests make the store target a
transposed view, which numpy writes without a copy) and with a length-1
axis for each box variable the reference does not subscript, so nothing
is broadcast or transposed per frame; the index grid of each nest
variable read as a value; each mask that reads only such grids (a
red-black parity test: the statements that compute it are emitted under
a flag the plan carries and run once); and the scratch buffers.  What
stays in the frame: the key tuple, one dict lookup, one unpack, scalar
subexpressions (the scalar backend's own text), uniform IF conditions,
and the ufunc calls.

**The key.**  Bounds made of literals, PARAMETERs and the rank-local
``acfd_lo/hi/owns`` queries cannot change during a rank's run and are
evaluated in the build call only; a bound or an invariant subscript that
reads any other variable (a dummy argument, a COMMON scalar, the
variable of an enclosing scalar loop) puts that variable's value in the
key.  The buffers enter by ``id`` and :class:`NestPlans` stores each key
with the buffers themselves, so an id cannot be recycled while its plan
lives (``_FaceTransfers._faces`` holds its arrays for the same reason):
a subroutine nest reached with two sets of actuals keeps two plans and
hits both.  Plans and scratch hang off the rank's ``Ctx``, never off the
unit namespace, which thread ranks share.  A nest whose key changes on
every execution (a subroutine's local arrays are allocated per call)
rebuilds every time; ``NestPlans.built`` counts builds, never hits, and
``acfd run`` prints it next to the nests that ran.

**Why this stays bitwise-safe.**  All three schedules reorder
iterations, never the operations inside one element's expression or a
reduction's fold:

* statements execute *one at a time* over a set of iterations the
  analysis proved mutually independent, in statement order, so every
  intra-statement read sees exactly the values the scalar order would
  have seen.  The set is the whole iteration box (``slice``), the box of
  the uncarried variables inside ``for`` loops over the carried ones
  (``carried-outer``: the carried axes of every view are left whole and
  moved to the front, so a pass indexes ``view[trip]`` and builds no
  slice, and the carried variables are read as the plain scalars the
  loops assign), or one hyperplane front ``sum(trip indices) = c`` at a
  time in increasing c (``fronts``: gathers and scatters ``view[key]``
  through one key list per array layout and one shifted view per
  reference, see :func:`_vfront_refs`);
* one lowering (:meth:`_NestEmitter._lower`) serves all three: an
  expression becomes the chain of ufunc calls the infix form would have
  made, in the same order, each with ``out=`` into a scratch slot of
  the result's lane shape and type (or into an operand the chain owns).
  ``out=`` changes where a result lands, not how it is computed, so
  every lane gets the same IEEE operations in the same order;
* the last operation of an unmasked store writes the target view itself
  when lane shape and type agree: the analysis leaves no nonzero
  distance between a ``slice`` store and its reads, and in a carried
  pass they are different planes, so a ufunc reads a lane before it
  writes that lane and no other.  Otherwise the value lands in scratch
  and one ``view[...] = value`` casts it the way the scalar backend's
  store does (a real expression into an integer array truncates);
* IF arms guarded by iteration-dependent conditions become boolean
  masks, each arm's condition evaluated *after* the preceding arms'
  stores (per lane that matches the scalar order, because arms are
  exclusive).  A masked store is ``copyto(view, value, where=mask)``
  with the value complete in scratch first, so a red-black sweep may
  read the other colour's lanes of its own target; reductions compress
  with boolean indexing;
* scalar temporaries become box-shaped scratch held to the end of the
  nest (copied, so later stores to a source array cannot retroactively
  change them) and their last-executed-iteration value is restored
  after the nest: the last pass of the carried loops, or the last
  front, which is the single last iteration (masked temporaries take
  the ``slice`` schedule only);
* max/min/integer-sum reductions fold the scratch once per box, pass or
  front into the scalar, which is exact in any order; only an operand
  that is not box-shaped (a scalar, a row) is broadcast first;
* scratch comes from one arena per rank, by (shape, dtype), and a nest
  asks for as many buffers of a class as its deepest expression has
  live at once: nests over the same box compute in the same few
  buffers, and within one nest no two live values share one;
* SPMD programs work unchanged: halo regions are excluded by the loop
  bounds the restructurer already emitted, and the
  ``acfd_pipe_recv``/``acfd_pipe_send`` of a pipelined sweep stay
  outside the lookup and the frame they bracket.

A subscript outside its array is not diagnosed: a slice clips as numpy
clips it, and an invariant subscript out of range yields no view, which
fails only if the statement executes (under an ``acfd_owns`` guard
another rank's row never does).

The generated code calls ``_vplan_box``/``_vplan_fronts``/``_vidiv`` and
the ``_vin_*`` helpers below, which
:func:`repro.interp.pyback.compile_unit` injects into the execution
namespace.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.errors import CodegenError, InterpError
from repro.fortran import ast as A
from repro.fortran.intrinsics_table import INTEGER_RESULT
from repro.analysis.stencil import SubscriptKind
from repro.analysis.vecsafety import (MODES, NestFacts, VArrayAssign, VIf,
                                      VReduce, VSkip, VTempAssign,
                                      analyze_nest)
from repro.interp.values import do_trips

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
_DTYPE = {"i": _I8, "r": _F8, "l": np.bool_}


# -- nest plans (what the emitted code looks up and executes) -------------------

#: plans one nest keeps per rank; the oldest goes first.  Two call sites
#: with different actuals need two; a nest whose key changes on every
#: execution (a subroutine's local arrays, a subscript read from an outer
#: scalar loop) rebuilds each time, which ``NestPlans.built`` shows, and
#: this bounds what its dead plans pin
PLAN_CAP = 8


class NestPlans:
    """One rank's resolved nests and the scratch they compute in.

    ``table`` maps a nest's key (its number, the ``id`` of every buffer
    its views are cut from, the value of every variable its bounds and
    invariant subscripts read) to the plan tuple the emitted code
    unpacks.  Each key is stored with the buffers themselves, so an
    ``id`` in a live key cannot be recycled (``_FaceTransfers._faces``
    holds its arrays for the same reason).  Lives on the rank's ``Ctx``:
    thread ranks share the unit namespace, and no two ranks may share a
    view.
    """

    __slots__ = ("table", "built", "_keys", "_arena")

    def __init__(self) -> None:
        self.table: dict[tuple, tuple] = {}
        #: plans built so far (a hit never counts)
        self.built = 0
        #: nest -> (key, its buffers) per live plan, oldest first
        self._keys: dict[int, list[tuple]] = {}
        self._arena: dict[tuple, list[np.ndarray]] = {}

    @property
    def nests(self) -> int:
        """Nests that have built at least one plan."""
        return len(self._keys)

    def add(self, key: tuple, plan: tuple, arrays: tuple) -> tuple:
        keys = self._keys.setdefault(key[0], [])
        if len(keys) == PLAN_CAP:
            del self.table[keys.pop(0)[0]]
        keys.append((key, [buf for buf, _ in arrays]))
        self.table[key] = plan
        self.built += 1
        return plan

    def scratch(self, slots: tuple, dims: tuple) -> list[np.ndarray]:
        """One buffer per ``(lane axes, dtype code)`` slot of a nest over
        the box *dims*.  Buffers come from the rank's arena by (shape,
        dtype), so every nest with the same box computes in the same
        few buffers; within one nest two slots never share one."""
        taken: dict[tuple, int] = {}
        out = []
        for axes, dt in slots:
            shape = _box_shape(axes, dims)
            k = taken.get((shape, dt), 0)
            taken[shape, dt] = k + 1
            bufs = self._arena.setdefault((shape, dt), [])
            if k == len(bufs):
                bufs.append(np.empty(shape, _DTYPE[dt]))
            out.append(bufs[k])
        return out


def _trip_box(bounds: tuple) -> tuple[list, list | None]:
    """DO-variable exit values per level and the ``(start, trips, step)``
    box.  From the first empty level inwards the DO statements are never
    reached: their variables keep their values (exit ``None``) and the
    nest has no box."""
    exits: list = []
    box: list | None = []
    for start, stop, step in bounds:
        if box is None:
            exits.append(None)
            continue
        n = do_trips(start, stop, step)
        exits.append(start + n * step)
        if n:
            box.append((start, n, step))
        else:
            box = None
    return exits, box


def _box_view(buf: np.ndarray, lower, subs: tuple, dyn: tuple, box: list,
              lead: dict, lane: dict):
    """One reference as a view over the trip box.

    ``subs[d]`` is dim *d*'s Fortran subscript (*lower* holds the lower
    bounds): ``(level, mult, offset)`` for ``mult * <level's variable> +
    offset``, or the place in *dyn* of an invariant one.  Axes of the
    carried levels (*lead*: level -> loop position) come first, indexed
    by trip, so the scalar loops subscript ``view[trip]``; the lane axes
    (*lane*: level -> box axis) follow in box order, with a length-1
    axis for each box variable the reference does not subscript.
    ``None`` when an invariant subscript is outside its dimension.
    """
    index, levels = [], []
    for sub, low, extent in zip(subs, lower, buf.shape):
        if type(sub) is tuple:
            level, mult, offset = sub
            start, n, step = box[level]
            index.append(_vsl(mult * start + offset - low, n, mult * step))
            levels.append(level)
        elif 0 <= dyn[sub] - low < extent:
            index.append(dyn[sub] - low)
        else:
            # another rank's row under an ``acfd_owns`` guard: no view,
            # and the statement fails if it ever executes
            return None
    view = buf[tuple(index)]
    order = sorted(range(len(levels)), key=lambda a: (
        levels[a] in lane, lead.get(levels[a], lane.get(levels[a]))))
    if order != list(range(len(levels))):
        view = view.transpose(order)
    present = {lane[lv] for lv in levels if lv in lane}
    if present and len(present) < len(lane):
        leading = len(levels) - len(present)
        view = view[(slice(None),) * leading + tuple(
            slice(None) if a in present else None
            for a in range(len(lane)))]
    return view


def _box_shape(axes: tuple, dims: tuple) -> tuple:
    """Shape over the box *dims* of a value spanning the lane *axes*."""
    return tuple(n if a in axes else 1 for a, n in enumerate(dims))


def _vplan_box(plans: NestPlans, key: tuple, spec: tuple, bounds: tuple,
               arrays: tuple, dyn: tuple) -> tuple:
    """Build and register the plan of a ``slice`` or ``carried-outer``
    nest: ``(*exits, body)``, *body* ``None`` when the nest is empty,
    else one ``range`` of DO values per carried level, one view per
    reference, one index grid per box variable read as a value, the
    scratch buffers, one buffer per mask that reads only such grids
    (behind a leading ``True`` the emitted code clears once it has
    filled them), and the box shape.

    *spec* is what the emitter fixed (``_NestEmitter.emit``): the
    references as ``(index into arrays, subscripts)`` (see
    :func:`_box_view`), the levels with a grid, the carried levels, the
    scratch slots and the masks.  The call brings what the run decides:
    the DO bounds, ``(buffer, lower bounds)`` per array, and the values
    of the invariant subscripts."""
    refs, grids, carried, slots, masks = spec
    exits, box = _trip_box(bounds)
    body = None
    if box is not None:
        lead = {lv: p for p, lv in enumerate(carried)}
        lane = {lv: a for a, lv in enumerate(
            lv for lv in range(len(box)) if lv not in lead)}
        dims = tuple(box[lv][1] for lv in lane)
        body = [True] if masks else []
        body += [range(s, s + n * d, d)
                 for s, n, d in (box[lv] for lv in carried)]
        body += [_box_view(*arrays[a], subs, dyn, box, lead, lane)
                 for a, subs in refs]
        for lv in grids:
            start, n, step = box[lv]
            body.append((start + step * np.arange(n)).reshape(
                _box_shape((lane[lv],), dims)))
        body += plans.scratch(slots, dims)
        body += [np.empty(_box_shape(axes, dims), np.bool_) for axes in masks]
        body.append(dims)
    return plans.add(key, (*exits, body), arrays)


def _vplan_fronts(plans: NestPlans, key: tuple, spec: tuple, bounds: tuple,
                  arrays: tuple, dyn: tuple) -> tuple:
    """Build and register the plan of a ``fronts`` nest: ``(*exits,
    body)``, *body* ``None`` when the nest is empty, else the per-front
    rows ``(lane shape, one key per reference group, one value array per
    nest variable read as a value)`` and one shifted view per reference.
    Arguments as for :func:`_vplan_box`; *spec* holds the references,
    per reference the group whose key it gathers through, and the levels
    read as values."""
    refs, groups, grids = spec
    exits, box = _trip_box(bounds)
    body = None
    if box is not None:
        ns = tuple(n for _, n, _ in box)
        columns = [[(w,) for w in _vfront_sizes(ns)]]
        views: list = [None] * len(refs)
        for g in range(max(groups, default=-1) + 1):
            members = [r for r, gr in enumerate(groups) if gr == g]
            a, subs = refs[members[0]]
            buf, lower = arrays[a]
            coefs = tuple((s[0], s[1] * box[s[0]][2]) if type(s) is tuple
                          else None for s in subs)
            shifts = tuple(tuple(
                (s[1] * box[s[0]][0] + s[2] if type(s) is tuple
                 else dyn[s]) - low
                for s, low in zip(refs[r][1], lower)) for r in members)
            keys, shifted = _vfront_refs(buf, ns, coefs, shifts)
            columns.append(keys)
            for r, view in zip(members, shifted):
                views[r] = view
        for lv in grids:
            start, _, step = box[lv]
            columns.append([start + step * q
                            for q in _vfront_trips(ns, lv)])
        body = [list(zip(*columns)), *views]
    return plans.add(key, (*exits, body), arrays)


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
    """Emit *loop* as a planned nest into *comp* if a schedule is proven.

    Returns True on success; on False the caller must emit the scalar
    translation (its recursion retries inner nests on their own, which
    also handles triangular nests whose inner bounds depend on the outer
    variable).  Updates ``comp.stats`` either way.
    """
    facts = analyze_nest(loop, comp.table,
                         frozenset(comp.targeted_labels))
    _tally(comp.stats, comp.unit, loop, facts)
    if facts.ok:
        # the running count numbers the nests of the whole program
        _NestEmitter(comp, facts, comp.stats["vectorized"]).emit()
    return facts.ok


class _Val(NamedTuple):
    """An operand of the lowered statements."""

    text: str  # a local name, or a scalar expression
    axes: frozenset  # lane axes it spans; empty: a scalar
    dt: str  # i | r | l
    #: what the holder may overwrite: nothing (None: a view, a grid, a
    #: temporary, a mask in use), an array nobody else reads ("fresh": a
    #: gather, a helper's result), or the scratch slot of this number
    own: object = None


_SCALAR = frozenset()
_OPS = {"+": ("add", "+"), "-": ("subtract", "-"), "*": ("multiply", "*"),
        "/": ("true_divide", "/"),
        ".lt.": ("less", "<"), ".le.": ("less_equal", "<="),
        ".gt.": ("greater", ">"), ".ge.": ("greater_equal", ">="),
        ".eq.": ("equal", "=="), ".ne.": ("not_equal", "!="),
        ".and.": ("logical_and", None), ".or.": ("logical_or", None)}
#: intrinsics lowered to ufunc calls (one per fold step of max/min) when
#: every argument already has the result's type; every other vector-safe
#: intrinsic, and these on mixed arguments, go through the allocating
#: ``_vin_`` helper
_UFUNCS = {"abs": "absolute", "dabs": "absolute", "iabs": "absolute",
           "sqrt": "sqrt", "dsqrt": "sqrt",
           "max": "maximum", "amax1": "maximum", "dmax1": "maximum",
           "max0": "maximum", "min": "minimum", "amin1": "minimum",
           "dmin1": "minimum", "min0": "minimum",
           "mod": "fmod", "amod": "fmod", "dmod": "fmod"}
#: intrinsics whose result has the type of their arguments (numpy's
#: ``fmod`` included, whatever ``INTEGER_RESULT`` says of ``mod``)
_GENERIC = frozenset({"abs", "max", "min", "mod", "sign"})
_DT_NAME = {"i": "integer", "r": "real", "l": "logical"}


class _NestEmitter:
    """Writes one proven nest through the unit compiler's line buffer
    (sharing its indentation and name supply) as *look the plan up,
    execute it*: the statements below run on names the plan tuple is
    unpacked into, and everything those names stand for is described to
    ``_vplan_box``/``_vplan_fronts`` in the one call that builds it."""

    def __init__(self, comp, facts: NestFacts, number: int) -> None:
        self.c = comp
        self.f = facts
        self.number = number
        self.base = comp.fresh("vz")
        self.fronts = facts.mode == "fronts"
        self.level_of = {v: k for k, v in enumerate(facts.nest_vars)}
        #: lane axis of each variable the statements run vectorized over
        #: (fronts: every variable, all on the one axis of a front)
        self.axis_of = dict.fromkeys(facts.nest_vars, 0) if self.fronts \
            else {v: a for a, v in enumerate(
                v for v in facts.nest_vars if v not in facts.carried)}
        self.L = 1 if self.fronts else len(self.axis_of)
        self.full = frozenset(range(self.L))
        self.invariants = {
            sym.name: int(sym.param_value)
            for sym in comp.table.symbols.values()
            if sym.is_parameter and isinstance(sym.param_value, int)}
        #: planned references: (array, subs) -> number, and per number
        #: the build-call text, the carried loops it is indexed by
        #: (box modes) and its key group (fronts)
        self.refs: dict[tuple, int] = {}
        self.ref_specs: list[tuple] = []
        self.ref_lead: list[tuple] = []
        self.ref_group: list[int] = []
        self.groups: dict[tuple, int] = {}
        self.bound: set[int] = set()  # references indexed once per pass
        self.arrays: dict[str, int] = {}  # the arrays they are cut from
        self.dyn: dict[str, int] = {}  # invariant subscripts, as emitted
        self.key_vars: set[str] = set()
        self.slots: list[tuple] = []  # (axes, dt) per scratch slot
        #: masks the plan owns, by lane axes, and the statements that
        #: fill them once, after the build (see :meth:`_fixed_mask`)
        self.masks: list[tuple] = []
        self.once: list[str] = []
        self.busy: list[bool] = []
        self.locked: set[int] = set()  # slots nobody may write or reuse
        self.pinned: set[int] = set()  # ... to the end of the nest
        self.temp: dict[str, _Val] = {}
        self.guards = 0  # uniform IFs around the statement being lowered
        #: temporaries assigned under one: they may not be assigned at all
        self.flagged: list[str] = []
        self.temp_mask: dict[str, _Val | None] = {}

    # -- the frame: key, lookup, unpack, execute, exit values ------------------

    def emit(self) -> None:
        c, b = self.c, self.base
        levels = self.f.levels
        grids = sorted(self.level_of[v] for v in self.f.var_values
                       if v in self.axis_of)
        outer, c.lines = c.lines, []
        c.depth += 1
        self.depth0 = c.depth  # of the statements that run per execution
        names = (self._fronts_frame if self.fronts
                 else self._box_frame)(grids)
        self._extract_temps()
        c.depth -= 1
        body, c.lines = c.lines, outer

        bounds = []
        for lv in levels:
            exprs = (lv.start, lv.stop) + (() if lv.step is None
                                           else (lv.step,))
            for e in exprs:
                self._key_on(e)
            bounds.append("(" + ", ".join(
                c.expr(e) if c.expr_type(e) == "i" else f"int({c.expr(e)})"
                for e in exprs) + (", 1)" if lv.step is None else ")"))
        key = [str(self.number)]
        key += [f"id(f_{a}_d)" for a in self.arrays]
        key += [c.var_read(v) for v in sorted(self.key_vars)]
        c.w(f"{b}k = ({', '.join(key)},)")
        # everything fixed at compile time travels as one object, not
        # as text; the call evaluates only what the run decides
        if self.fronts:
            spec = (tuple(self.ref_specs), tuple(self.ref_group),
                    tuple(grids))
        else:
            spec = (tuple(self.ref_specs), tuple(grids),
                    tuple(self.level_of[v] for v in self.f.carried),
                    tuple(self.slots), tuple(self.masks))
        c.specs[self.number] = spec
        build = (f"{'_vplan_fronts' if self.fronts else '_vplan_box'}("
                 f"ctx.plans, {b}k, _vs[{self.number}], "
                 f"({', '.join(bounds)},), "
                 f"({''.join(f'(f_{a}_d, f_{a}.lower), ' for a in self.arrays)}"
                 f"), ({''.join(t + ', ' for t in self.dyn)}))")
        c.w(f"{b}p = _pl.get({b}k) or {build}")
        exits = [f"{b}e{k}" for k in range(len(levels))]
        c.w(f"{', '.join(exits)}, {b}b = {b}p")
        c.w(f"if {b}b is not None:")
        c.depth += 1
        c.w(f"{', '.join(names)}, = {b}b")
        if self.masks:
            c.w(f"if {b}new:")
            c.w(f"    {b}b[0] = False")
            c.lines += self.once
        for name in self.flagged:
            c.w(f"{b}a_{name} = False")
        c.depth -= 1
        c.lines += body
        # DO-variable exit values; from the first empty level inwards
        # the variables stay untouched
        for k, lv in enumerate(levels):
            if k == 0:
                c.w(f"f_{lv.var} = {exits[0]}")
            else:
                c.w(f"if {exits[k]} is not None:")
                c.w(f"    f_{lv.var} = {exits[k]}")

    def _key_on(self, e: A.Expr) -> None:
        """The plan depends on *e*'s value: key it on every variable *e*
        reads that is not a PARAMETER (those, literals and the
        ``acfd_lo/hi/owns`` queries are fixed for the rank's run)."""
        for n in A.walk(e):
            if isinstance(n, A.Var):
                sym = self.c.table.get(n.name)
                if sym is None or not sym.is_parameter:
                    self.key_vars.add(n.name)

    def _box_frame(self, grids: list) -> list[str]:
        """Statements over the box of the uncarried variables, inside
        scalar loops over the carried ones (none in ``slice`` mode).
        Returns the names the plan body unpacks into."""
        c, b = self.c, self.base
        for p, v in enumerate(self.f.carried):
            c.w(f"for {b}it{p}, f_{v} in enumerate({b}cv{p}):")
            c.depth += 1
        head = len(c.lines)
        self._body(self.f.body, None)
        if len(c.lines) == head:
            c.w("pass")
        # the body named its references as it went; index the carried
        # axes once per pass (a view of the trip's plane, no slicing)
        c.lines[head:head] = [
            "    " * c.depth + f"{b}w{j} = {b}r{j}["
            + ", ".join(f"{b}it{p}" for p in self.ref_lead[j]) + "]"
            for j in sorted(self.bound)]
        c.depth -= len(self.f.carried)
        return ([f"{b}new"] if self.masks else []) + [
            *(f"{b}cv{p}" for p in range(len(self.f.carried))),
            *(f"{b}r{j}" for j in range(len(self.ref_specs))),
            *(f"{b}g{k}" for k in grids),
            *(f"{b}t{n}" for n in range(len(self.slots))),
            *(f"{b}m{n}" for n in range(len(self.masks))),
            f"{b}bx"]

    def _fronts_frame(self, grids: list) -> list[str]:
        """Statements over one hyperplane front at a time; the last
        front is the single last iteration, so the slice rules for
        temporaries' exit values carry over with a 1-D box.  Returns
        the names the plan body unpacks into."""
        c, b = self.c, self.base
        c.depth += 1
        self._body(self.f.body, None)
        if not c.lines:
            c.w("pass")
        c.depth -= 1
        row = [f"{b}bx"] + [f"{b}K{g}" for g in range(len(self.groups))]
        row += [f"{b}g{k}" for k in grids]
        c.lines.insert(0, "    " * c.depth
                       + f"for {', '.join(row)}, in {b}fr:")
        return [f"{b}fr"] + [f"{b}r{j}" for j in range(len(self.ref_specs))]

    # -- scratch ---------------------------------------------------------------

    def _take(self, axes: frozenset, dt: str) -> _Val:
        """A buffer of this lane shape and type the caller may write."""
        c, b = self.c, self.base
        if self.fronts:
            # a front's width changes from front to front
            name = c.fresh("va")
            c.w(f"{name} = _np.empty({b}bx, _DT[{_DT_NAME[dt]!r}])")
            return _Val(name, axes, dt, "fresh")
        cls = (tuple(sorted(axes)), dt)
        for n, slot in enumerate(self.slots):
            if slot == cls and not self.busy[n]:
                break
        else:
            n = len(self.slots)
            self.slots.append(cls)
            self.busy.append(False)
        self.busy[n] = True
        return _Val(f"{b}t{n}", axes, dt, n)

    def _release(self, v: _Val) -> None:
        if type(v.own) is int and v.own not in self.locked:
            self.busy[v.own] = False

    def _hold(self, v: _Val) -> _Val:
        """*v* stays readable (a mask, a temporary): until :meth:`_drop`
        nothing may write into it or hand its slot out again."""
        if type(v.own) is int:
            self.locked.add(v.own)
            return v
        return v._replace(own=None)

    def _pin(self, v: _Val | None) -> None:
        """Hold *v* to the end of the nest (its exit value is read
        there)."""
        if v is not None and type(v.own) is int:
            self.locked.add(v.own)
            self.pinned.add(v.own)

    def _drop(self, v: _Val) -> None:
        if type(v.own) is int and v.own not in self.pinned:
            self.locked.discard(v.own)
            self.busy[v.own] = False

    def _apply(self, fn: str, args: tuple, dt: str,
               out: _Val | None = None) -> _Val:
        """``fn(*args)`` as one ufunc call.  The result goes to *out*
        when it has the result's shape and type, else into an operand
        the caller owns, else into new scratch; owned operands it does
        not land in are released."""
        axes = frozenset().union(*(v.axes for v in args))
        texts = ", ".join(v.text for v in args)
        if not axes:
            return _Val(f"_np.{fn}({texts})", _SCALAR, dt)
        if out is not None and (out.axes, out.dt) == (axes, dt):
            dest = out
        else:
            dest = next((v for v in args if v.own is not None
                         and v.own not in self.locked
                         and (v.axes, v.dt) == (axes, dt)), None) \
                or self._take(axes, dt)
        self.c.w(f"_np.{fn}({texts}, {dest.text})")
        for v in args:
            if v is not dest:
                self._release(v)
        return dest

    def _call(self, text: str, args: tuple, dt: str) -> _Val:
        """A helper call that allocates its result."""
        axes = frozenset().union(*(v.axes for v in args))
        if not axes:
            return _Val(text, _SCALAR, dt)
        name = self.c.fresh("va")
        self.c.w(f"{name} = {text}")
        for v in args:
            self._release(v)
        return _Val(name, axes, dt)

    # -- statement emission ----------------------------------------------------

    def _body(self, items: list, mask: _Val | None) -> None:
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

    def _array_assign(self, s: A.Assign, mask: _Val | None) -> None:
        c = self.c
        tgt = self._ref(s.target, store=True)
        if self.fronts:
            # gather, select, scatter: a front's lanes are not a view
            v = self._lower(s.value)
            if mask is not None:
                cur = self._gather(tgt.text, tgt.dt)
                c.w(f"_np.copyto({cur.text}, {v.text}, 'unsafe', "
                    f"{mask.text})")
                v = cur
            c.w(f"{tgt.text} = {v.text}")
        elif mask is None:
            # the last operation writes the target; anything else is
            # stored as the scalar backend stores it, casting
            v = self._lower(s.value, out=tgt)
            if v.text != tgt.text:
                c.w(f"{tgt.text}[...] = {v.text}")
        else:
            # the right-hand side is complete in scratch before the
            # first lane is stored, so a masked sweep may read the lanes
            # of the other color of its own target
            v = self._lower(s.value)
            c.w(f"_np.copyto({tgt.text}, {v.text}, 'unsafe', {mask.text})")
        self._release(v)

    def _temp_assign(self, it: VTempAssign, mask: _Val | None) -> None:
        c, b = self.c, self.base
        sym = c.table.get(it.name)
        dt = _TYPE_CODE.get(sym.type_name if sym else "real", "r")
        v = self._lower(it.stmt.value)
        if v.own is None or (v.axes, v.dt) != (self.full, dt):
            # a copy: a later store to a source array must not change
            # the temporary retroactively
            held = self._take(self.full, dt)
            c.w(f"_np.copyto({held.text}, {v.text}, 'unsafe')")
            self._release(v)
            v = held
        self._pin(v)
        self._pin(mask)
        self.temp[it.name] = self._hold(v)
        self.temp_mask[it.name] = mask
        if self.guards:
            self.flagged.append(it.name)
            c.w(f"{b}a_{it.name} = True")

    def _lanes(self, v: _Val) -> str:
        """*v* with one element per lane of the box."""
        if v.axes == self.full:
            return v.text
        return f"_np.broadcast_to({v.text}, {self.base}bx)"

    def _reduce(self, it: VReduce, mask: _Val | None) -> None:
        c = self.c
        cur = c.var_read(it.name)
        v = self._lower(it.operand)
        if mask is None:
            self._commit_reduce(it, cur, self._lanes(v))
        else:
            sv = c.fresh("vr")
            c.w(f"{sv} = {self._lanes(v)}[{self._lanes(mask)}]")
            c.w(f"if {sv}.size:")
            c.depth += 1
            self._commit_reduce(it, cur, sv)
            c.depth -= 1
        self._release(v)

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

    def _uniform_if(self, it: VIf, mask: _Val | None) -> None:
        c = self.c
        for i, (cond, body) in enumerate(it.arms):
            if cond is None:
                c.w("else:")
            else:
                c.w(f"{'if' if i == 0 else 'elif'} {c.expr(cond)}:")
            c.depth += 1
            self.guards += 1
            before = len(c.lines)
            self._body(body, mask)
            if len(c.lines) == before:
                c.w("pass")
            self.guards -= 1
            c.depth -= 1

    def _varying_if(self, it: VIf, mask: _Val | None) -> None:
        c = self.c
        rest = mask
        made = []
        for n, (cond, body) in enumerate(it.arms):
            if cond is None:
                self._body(body, rest)
                break
            # evaluated after the previous arms' stores: per lane this
            # matches the scalar order, because a lane that took an
            # earlier (exclusive) arm has its result masked out
            cv = self._fixed_mask(cond)
            if cv is None:
                cv = self._lower(cond)
                if not cv.axes:
                    # the same for every lane: evaluate it once, not
                    # wherever the mask's text is used
                    once = c.fresh("vc")
                    c.w(f"{once} = {cv.text}")
                    cv = _Val(once, _SCALAR, "l")
                elif cv.own is None:
                    # a view of a logical array: the arm may store into it
                    held = self._take(cv.axes, "l")
                    c.w(f"_np.copyto({held.text}, {cv.text})")
                    cv = held
            cv = self._hold(cv)
            made.append(cv)
            other = None
            if n + 1 < len(it.arms):
                other = self._apply("logical_not", (cv,), "l")
                if rest is not None:
                    other = self._apply("logical_and", (rest, other), "l")
                other = self._hold(other)
                made.append(other)
            if rest is not None:
                cv = self._hold(self._apply("logical_and", (rest, cv), "l"))
                made.append(cv)
            self._body(body, cv)
            rest = other
        for m in made:
            self._drop(m)

    def _fixed_mask(self, cond: A.Expr) -> _Val | None:
        """*cond* as a mask the plan owns, when it reads nothing but
        box variables, literals and integer PARAMETERs (a red-black
        parity test): the same on every execution, so its statements go
        where they run once per plan and the frame only reads the
        result.  ``None`` for any other condition."""
        c, b = self.c, self.base
        if self.fronts or not all(
                isinstance(n, (A.IntLit, A.RealLit, A.LogicalLit, A.UnOp,
                               A.BinOp))
                or isinstance(n, A.Var) and (n.name in self.axis_of
                                             or n.name in self.invariants)
                or isinstance(n, A.FuncCall)
                and not n.name.startswith("acfd_")
                for n in A.walk(cond)):
            return None
        axes = frozenset(self.axis_of[n.name] for n in A.walk(cond)
                         if isinstance(n, A.Var) and n.name in self.axis_of)
        held = _Val(f"{b}m{len(self.masks)}", axes, "l")
        self.masks.append(tuple(sorted(axes)))
        outer, c.lines = c.lines, self.once
        depth, c.depth = c.depth, self.depth0 + 1
        v = self._lower(cond, out=held)
        if v.text != held.text:
            c.w(f"_np.copyto({held.text}, {v.text})")
            self._release(v)
        c.lines, c.depth = outer, depth
        return held

    def _extract_temps(self) -> None:
        """Restore each temporary's last-executed-iteration value."""
        c, b = self.c, self.base
        for name in self.f.temps:
            held, mask = self.temp[name], self.temp_mask[name]
            depth = c.depth
            if name in self.flagged:
                c.w(f"if {b}a_{name}:")
                c.depth += 1
            if mask is None:
                last = ", ".join(["-1"] * self.L)
                self._store_scalar(name, f"{held.text}[{last}]")
            else:
                q = c.fresh("vq")
                # C-order ravel == iteration order (axes are
                # outer->inner), so the last True lane is the last
                # iteration that assigned
                c.w(f"{q} = _np.flatnonzero({self._lanes(mask)})")
                c.w(f"if {q}.size:")
                c.depth += 1
                self._store_scalar(name, f"{held.text}.ravel()[{q}[-1]]")
            c.depth = depth

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

    def _ref(self, ref: A.ArrayRef, store: bool = False) -> _Val:
        """One array reference as an operand (*store*: as the text a
        statement assigns to).  A reference that subscripts no nest
        variable is the plain element; every other is a view the plan
        resolves, named once per distinct subscript list."""
        c, b = self.c, self.base
        sym = c.table.get(ref.name)
        dt = _TYPE_CODE.get(sym.type_name if sym else "real", "r")
        if not any(info.kind is not SubscriptKind.CONSTANT
                   for info in self.f.subscripts[id(ref)]):
            return _Val(c.array_elem(ref.name, ref.subs), _SCALAR, dt)
        #: per dim ``(level, multiplier, offset)``, or for an invariant
        #: subscript its place among the values the build call passes
        subs = tuple(
            (self.level_of[info.var], info.coeff, info.offset)
            if info.kind is not SubscriptKind.CONSTANT
            else self.dyn.setdefault(c.expr(sub), len(self.dyn))
            for sub, info in zip(ref.subs, self.f.subscripts[id(ref)]))
        levels = [s[0] for s in subs if type(s) is tuple]
        j = self.refs.get((ref.name, subs))
        if j is None:
            j = self.refs[ref.name, subs] = len(self.ref_specs)
            for sub, at in zip(ref.subs, subs):
                if type(at) is int:
                    self._key_on(sub)
            self.ref_specs.append(
                (self.arrays.setdefault(ref.name, len(self.arrays)), subs))
            self.ref_lead.append(tuple(
                p for p, v in enumerate(self.f.carried)
                if self.level_of[v] in levels))
            layout = (ref.name, tuple(s[:2] if type(s) is tuple else None
                                      for s in subs))
            self.ref_group.append(
                self.groups.setdefault(layout, len(self.groups)))
        if self.fronts:
            # references that differ only in constant offsets share a key
            text = f"{b}r{j}[{b}K{self.ref_group[j]}]"
            if store:
                return _Val(text, self.full, dt)
            return self._gather(text, dt)
        axes = frozenset(self.axis_of[self.f.nest_vars[k]] for k in levels
                         if self.f.nest_vars[k] in self.axis_of)
        if self.ref_lead[j]:
            self.bound.add(j)
            return _Val(f"{b}w{j}", axes, dt)
        return _Val(f"{b}r{j}", axes, dt)

    def _gather(self, text: str, dt: str) -> _Val:
        """A front's lanes of one reference, as a fresh array."""
        name = self.c.fresh("va")
        self.c.w(f"{name} = {text}")
        return _Val(name, self.full, dt, "fresh")

    # -- expressions -----------------------------------------------------------

    def _lower(self, e: A.Expr, out: _Val | None = None) -> _Val:
        """*e* as an operand, its array operations written out as ufunc
        calls in evaluation order.  Scalar subexpressions stay the
        scalar backend's expressions.  *out*: where the last operation
        may write (see :meth:`_apply`)."""
        c, b = self.c, self.base
        if isinstance(e, A.IntLit):
            return _Val(str(e.value), _SCALAR, "i")
        if isinstance(e, A.RealLit):
            return _Val(repr(e.value), _SCALAR, "r")
        if isinstance(e, A.LogicalLit):
            return _Val("True" if e.value else "False", _SCALAR, "l")
        if isinstance(e, A.Var):
            if e.name in self.axis_of:
                return _Val(f"{b}g{self.level_of[e.name]}",
                            frozenset({self.axis_of[e.name]}), "i")
            if e.name in self.f.temps:
                return self.temp[e.name]
            return _Val(c.var_read(e.name), _SCALAR, c.expr_type(e))
        if isinstance(e, A.ArrayRef):
            return self._ref(e)
        if isinstance(e, A.UnOp):
            v = self._lower(e.operand)
            if e.op == ".not.":
                return self._apply("logical_not", (v,), "l", out)
            if e.op == "+":
                return v
            if not v.axes:
                return _Val(f"({e.op}{v.text})", _SCALAR, v.dt)
            return self._apply("negative", (v,), v.dt, out)
        if isinstance(e, A.BinOp):
            return self._binop(e, out)
        if isinstance(e, A.FuncCall):
            return self._funccall(e, out)
        raise CodegenError(  # pragma: no cover - analysis guarantees
            f"cannot vectorize expression {type(e).__name__}")

    def _binop(self, e: A.BinOp, out: _Val | None) -> _Val:
        if e.op not in _OPS:
            raise CodegenError(  # pragma: no cover - analysis guarantees
                f"cannot vectorize operator {e.op!r}")
        left = self._lower(e.left)
        right = self._lower(e.right)
        fn, sign = _OPS[e.op]
        if sign is None:
            return self._apply(fn, (left, right), "l", out)
        both_int = left.dt == right.dt == "i"
        if e.op == "/" and self.c.expr_type(e.left) \
                == self.c.expr_type(e.right) == "i":
            # the scalar backend's typing decides, as for its ``_idiv``
            return self._call(f"_vidiv({left.text}, {right.text})",
                              (left, right), "i" if both_int else "r")
        if e.op in "+-*/":
            dt = "i" if both_int else "r"
        else:
            dt = "l"
        if not (left.axes or right.axes):
            return _Val(f"({left.text} {sign} {right.text})", _SCALAR, dt)
        return self._apply(fn, (left, right), dt, out)

    def _funccall(self, e: A.FuncCall, out: _Val | None) -> _Val:
        c = self.c
        if e.name.startswith("acfd_"):
            args = ", ".join(c.expr(a) for a in e.args)
            return _Val(f"ctx.rt.{e.name[5:]}({args})", _SCALAR,
                        "l" if e.name == "acfd_owns" else "i")
        args = tuple(self._lower(a) for a in e.args)
        joined = "i" if all(v.dt == "i" for v in args) else "r"
        if e.name in _GENERIC:
            dt = joined
        else:
            dt = "i" if e.name in INTEGER_RESULT else "r"
        helper = f"_vin_{e.name}({', '.join(v.text for v in args)})"
        if not any(v.axes for v in args):
            return _Val(helper, _SCALAR, dt)
        if e.name in _UFUNCS and all(v.dt == dt for v in args):
            fn = _UFUNCS[e.name]
            if len(args) == 1:
                return self._apply(fn, args, dt, out)
            acc = args[0]
            for v in args[1:-1]:
                acc = self._apply(fn, (acc, v), dt)
            return self._apply(fn, (acc, args[-1]), dt, out)
        return self._call(helper, args, dt)


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

    Shared with the restructurer's overlap verdict: both the vectorizer
    and the interior/boundary split refuse nests whose labels are jump
    targets, since re-emitting (or duplicating) such a nest would break
    the unit's control flow.
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
