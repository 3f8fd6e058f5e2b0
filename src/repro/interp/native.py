"""Native loop nests: a program's DO nests compiled to C.

Each DO nest the scalar translation of :mod:`repro.interp.pyback` would
run with no CALL (intrinsics excepted), no I/O and no jump (GOTO, EXIT,
CYCLE, RETURN, STOP, or a label some GOTO names) becomes one C function
that runs the nest in Fortran source order over the ``OffsetArray``
buffers.  All of one program's nests build into one shared library with
the host's C compiler (``cc``, else ``gcc``), loaded with ``ctypes``.
Every other nest, and every nest on a host with no C compiler, stays on
the scalar path.

**Bitwise equal to the scalar path.**  The C code runs the scalar path's
operations in its order: IEEE double ``+ - * /`` with no contraction
(``-ffp-contract=off``, no ``-ffast-math``), the libm functions Python's
``math`` calls (``-fno-builtin``), real literals as hex floats, DO trip
counts computed once on entry, Fortran integer division truncating, and
Python's own rules where they differ from C's: ``float ** float`` is
CPython's ``float_pow``, ``max``/``min`` keep the first of equal or
unordered arguments, ``sign`` tests ``b >= 0``.  The exit values of the
DO variables, temporaries and reduction scalars come back through an
out-buffer.  What the scalar path would type differently from C
(``max`` of mixed integer and real arguments, an integer ``**`` with a
non-literal exponent, character data) refuses the nest with a reason.

**Errors stay errors.**  Every subscript is bounds-checked, and every
operation the scalar path raises on is guarded: a zero integer divisor,
a real division by zero or ``0.0 ** -1`` between Python floats (a numpy
scalar gives ``inf`` instead, so each value carries its *kind*: Python
or numpy, as the scalar path would hold it), a math domain or range
error, a NaN or infinity converted to an integer, and integer overflow
(``IndexError`` in a subscript).  An innermost loop some of whose
subscripts are a variable plus a constant is written twice: checking
each subscript where it is used, and, when a check on entry proves both
ends of each such subscript in range, checking only the others (the
sprayer's nests ran three times longer with one checked copy).  The C
function returns an error code; the call raises the scalar path's
exception type with the unit and the source line.

**Cache.**  The library is ``<sha256 of C text, flags, compiler
version>.so`` under ``$XDG_CACHE_HOME/acfd/native`` (default
``~/.cache/acfd/native``), built under an ``flock`` and moved into place
with ``os.replace``, so process workers load what the launcher (or the
first of them) built; each build trims the directory to the
:data:`CACHE_KEEP` most recently used libraries.  The C text holds no
constant of a DO stop bound (they reach the function in its
descriptor), so runs that differ only in their frame count share a
library.  Compiling a program (``AutoCFD.compile``) builds nothing;
:func:`repro.interp.pyback.compile_unit` builds or loads.

**Calls.**  Each rank's ``Ctx`` holds a :class:`NativeNests`: per nest
and identity of the arrays it is reached with, the ``ctypes`` arguments
that do not change (the buffers' addresses, bounds and strides, the
out-buffer), so a steady-state call passes only the scalars the nest
reads.
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import hashlib
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import CodegenError, InterpError
from repro.fortran import ast as A
from repro.interp.values import type_code

#: what every library is built with (part of its cache key).  No
#: contraction, no -ffast-math, no builtin libm; the cheap vector cost
#: model lets -O2 vectorize a loop behind a runtime alias check (lanes
#: are computed as the scalar order computes them; sequential sprayer at
#: rank size, 200 frames: 0.22 s without, 0.15 s with)
FLAGS = ("-O2", "-fvect-cost-model=cheap", "-fPIC", "-shared",
         "-ffp-contract=off", "-fno-builtin")

#: argument tuples one nest keeps per rank; the oldest goes first.  Two
#: call sites with different actual arrays need two; a subroutine's local
#: arrays are new on every call, and this bounds what dead ones pin
BIND_CAP = 8

#: libraries the cache directory keeps, the most recently used (a load
#: refreshes a library's mtime); tier-1's programs use about 2,400
CACHE_KEEP = 4096

#: a nest bound to fewer array elements keeps the GIL for its call: it
#: takes microseconds, less than handing the GIL to another rank thread
#: and taking it back costs (64x32 Jacobi at 2x1 on threads: 0.25 s
#: holding, 0.36 s releasing; the 300x100 sprayer: 0.85 s releasing,
#: 1.0 s holding)
RELEASE_AT = 16384

# error kinds: the low three bits of a nonzero return code
K_INDEX, K_ZERO, K_INTERP, K_VALUE, K_OVERFLOW, K_TYPE = range(1, 7)
_RAISES = {K_INDEX: IndexError, K_ZERO: ZeroDivisionError,
           K_INTERP: InterpError, K_VALUE: ValueError,
           K_OVERFLOW: OverflowError, K_TYPE: TypeError}

_CTYPE = {"i": "i64", "r": "double", "l": "int"}
_ELEM = {"i": "i64", "r": "double", "l": "unsigned char"}
_DTYPE = {"i": np.dtype(np.int64), "r": np.dtype(np.float64),
          "l": np.dtype(np.bool_)}
_ARG = {"i": ctypes.c_longlong, "r": ctypes.c_double, "l": ctypes.c_bool}
_OUT = {"i": "q", "r": "d", "l": "?7x"}
_NUMPY = {"i": np.int64, "r": np.float64}

_PRELUDE = r"""#include <errno.h>
#include <math.h>
#include <stdint.h>
typedef long long i64;
typedef unsigned long long u64;
enum { K_ZERO = 2, K_VALUE = 4, K_OVERFLOW = 5, K_TYPE = 6 };

static inline int odd(double x) { return fmod(__builtin_fabs(x), 2.0) == 1.0; }

/* CPython's float_pow: 0, or the kind of error it raises */
static int py_pow(double v, double w, double *r) {
    int neg = 0;
    if (w == 0) { *r = 1.0; return 0; }
    if (isnan(v)) { *r = v; return 0; }
    if (isnan(w)) { *r = v == 1.0 ? 1.0 : w; return 0; }
    if (isinf(w)) {
        v = __builtin_fabs(v);
        *r = v == 1.0 ? 1.0 : (w > 0.0) == (v > 1.0) ? __builtin_fabs(w) : 0.0;
        return 0;
    }
    if (isinf(v)) {
        if (w > 0.) *r = odd(w) ? v : __builtin_fabs(v);
        else *r = odd(w) ? __builtin_copysign(0.0, v) : 0.0;
        return 0;
    }
    if (v == 0.0) {
        if (w < 0.0) return K_ZERO;
        *r = odd(w) ? v : 0.0;
        return 0;
    }
    if (v < 0.0) {
        if (w != floor(w)) return K_TYPE;
        v = -v;
        neg = odd(w);
    }
    if (v == 1.0) { *r = neg ? -1.0 : 1.0; return 0; }
    errno = 0;
    double x = pow(v, w);
    if (errno == 0) { if (x == HUGE_VAL || x == -HUGE_VAL) errno = ERANGE; }
    else if (errno == ERANGE && x == 0.0) errno = 0;
    if (neg) x = -x;
    if (errno) return errno == ERANGE ? K_OVERFLOW : K_VALUE;
    *r = x;
    return 0;
}

/* the checks of CPython's math_1 on a result r of argument x */
static inline int math1(double x, double r, int can_overflow) {
    if (isnan(r) && !isnan(x)) return K_VALUE;
    if (isinf(r) && isfinite(x)) return can_overflow ? K_OVERFLOW : K_VALUE;
    return 0;
}

static inline double py_log(double x) { return isnan(x) ? x : log(x); }
static inline double py_log10(double x) { return isnan(x) ? x : log10(x); }

/* CPython's m_atan2 */
static double py_atan2(double y, double x) {
    const double pi = 3.141592653589793238462643383279502884;
    if (isnan(x) || isnan(y)) return NAN;
    if (isinf(y)) {
        if (isinf(x))
            return __builtin_copysign(
                __builtin_copysign(1., x) == 1. ? 0.25 * pi : 0.75 * pi, y);
        return __builtin_copysign(0.5 * pi, y);
    }
    if (isinf(x) || y == 0.)
        return __builtin_copysign(__builtin_copysign(1., x) == 1. ? 0. : pi, y);
    return atan2(y, x);
}

/* CPython's math.fmod */
static inline int py_fmod(double x, double y, double *r) {
    if (isinf(y) && isfinite(x)) { *r = x; return 0; }
    *r = fmod(x, y);
    return isnan(*r) && !isnan(x) && !isnan(y) ? K_VALUE : 0;
}

/* int(x) of a float */
static inline int trunc64(double x, i64 *r) {
    if (isnan(x)) return K_VALUE;
    if (!(x >= -0x1p63 && x < 0x1p63)) return K_OVERFLOW;
    *r = (i64)x;
    return 0;
}

static inline int ipow(i64 b, i64 e, i64 *r) {
    i64 x = 1;
    while (e-- > 0) if (__builtin_mul_overflow(x, b, &x)) return K_OVERFLOW;
    *r = x;
    return 0;
}

/* the offset of element s[0..rank) of the array whose descriptor words d
   are its address, then lower bound, extent and stride per dimension; or
   -1 - the dimension out of bounds, with its subscript in O[0] */
static i64 __attribute__((noinline)) ix(const i64 *d, int rank,
                                        const i64 *s, i64 *O) {
    i64 off = 0;
    for (int k = 0; k < rank; k++) {
        const u64 o = (u64)s[k] - (u64)d[1 + 3 * k];
        if (o >= (u64)d[2 + 3 * k]) { O[0] = s[k]; return -1 - k; }
        off += (i64)o * d[3 + 3 * k];
    }
    return off;
}

/* do_trips: max(0, floor((stop - start + step) / step)) */
static inline int trips(i64 start, i64 stop, i64 step, i64 *n) {
    __int128 num = (__int128)stop - start + step, q = num / step;
    if (num % step != 0 && (num < 0) != (step < 0)) q--;
    if (q > INT64_MAX) return K_OVERFLOW;
    *n = q > 0 ? (i64)q : 0;
    return 0;
}
"""


class Refused(Exception):
    """Why a nest stays on the scalar path."""


class _V(NamedTuple):
    """A lowered value: a C expression with no side effect, its C type
    (i, r or l) and its kind (a C expression: 1 when the scalar path
    would hold a numpy scalar, 0 for a Python one)."""

    text: str
    t: str
    k: str


def _join(a: str, b: str) -> str:
    """The kind of an operation on two kinds: numpy if either is."""
    if "1" in (a, b):
        return "1"
    if a == "0" or a == b:
        return b
    if b == "0":
        return a
    return f"({a} | {b})"


#: intrinsic -> (libm function, can_overflow) for CPython's math_1 family
_MATH1 = {"sqrt": ("sqrt", 0), "dsqrt": ("sqrt", 0),
          "exp": ("exp", 1), "dexp": ("exp", 1),
          "log": ("py_log", 0), "alog": ("py_log", 0), "dlog": ("py_log", 0),
          "log10": ("py_log10", 0), "alog10": ("py_log10", 0),
          "sin": ("sin", 0), "cos": ("cos", 0), "tan": ("tan", 0),
          "asin": ("asin", 0), "acos": ("acos", 0), "atan": ("atan", 0),
          "sinh": ("sinh", 1), "cosh": ("cosh", 1), "tanh": ("tanh", 0)}
#: the SPMD runtime's pure queries a nest may call (with literal arguments)
_QUERIES = ("acfd_lo", "acfd_hi", "acfd_rank", "acfd_nprocs")
_MAX = {"max": ">", "min": "<", "amax1": ">", "dmax1": ">", "max0": ">",
        "amin1": "<", "dmin1": "<", "min0": "<"}
_TO_INT = {K_VALUE: "cannot convert float NaN to integer",
           K_OVERFLOW: "cannot convert float to integer: out of range"}
_MATH_ERR = {K_VALUE: "math domain error", K_OVERFLOW: "math range error"}
_OVERFLOW = {K_OVERFLOW: "integer overflow"}
_POW_ERR = {K_ZERO: "0.0 cannot be raised to a negative power",
            K_TYPE: "a negative number raised to a fractional power "
                    "is complex",
            K_VALUE: "math domain error", K_OVERFLOW: "math range error"}


@dataclass
class Nest:
    """One compiled nest: its C function and what calling it needs."""

    number: int
    unit: str
    #: DO stop constants, the descriptor words after the arrays'
    consts: list = field(default_factory=list)
    #: (name, type code, rank, written) per array, in descriptor order
    arrays: list = field(default_factory=list)
    #: type code per scalar argument, then whether a kind word follows
    inputs: list = field(default_factory=list)
    kinds_in: bool = False
    #: type code per exit value
    outputs: list = field(default_factory=list)
    #: per error site: (line, {kind: message}, (array slot, dim) or None)
    sites: list = field(default_factory=list)
    c_text: str = ""


#: the statements a native nest may hold
_BODY = (A.Assign, A.DoLoop, A.DoWhile, A.IfBlock, A.LogicalIf, A.Continue,
         A.FormatStmt, A.DirectiveStmt)


class _Writer:
    """Lowers one DO nest of a unit to a C function, or raises
    :class:`Refused`.  ``comp`` is the unit's
    :class:`~repro.interp.pyback._UnitCompiler` (symbols, jump targets,
    and the scalar path's own expression typing)."""

    def __init__(self, comp, loop: A.DoLoop, number: int,
                 dry: bool = False) -> None:
        #: only find the verdict: write no C
        self.dry = dry
        self.c = comp
        self.table = comp.table
        self.loop = loop
        self.nest = Nest(number, comp.unit.name)
        self.lines: list[str] = []
        self.depth = 1
        self.tmp = 0
        self.line = loop.line
        self.slots: dict[str, int] = {}
        #: name -> its checked symbol
        self.syms: dict = {}
        #: descriptor word of each array slot (then one past the last)
        self.words = [0]
        self.scalars: dict[str, str] = {}  # name -> type, first use order
        self.reads: set[str] = set()
        self.assigned: dict[str, None] = {}
        #: an integer literal becomes a descriptor word (in a DO stop)
        self.in_bounds = False
        #: what an integer overflow raises: IndexError in a subscript
        self.overflow = (K_OVERFLOW, "integer overflow")
        #: Python texts of the runtime queries passed in (``q<j>``)
        self.queries: list[str] = []
        #: id of an array reference -> its subscripts' ``(variable,
        #: constant)`` forms, while a loop's unchecked version is written
        self.proven: dict[int, list] = {}

    # -- helpers ----------------------------------------------------------

    def w(self, text: str) -> None:
        if not self.dry:
            self.lines.append("    " * self.depth + text)

    def fresh(self) -> str:
        self.tmp += 1
        return f"t{self.tmp}"

    def temp(self, t: str, text: str) -> str:
        name = self.fresh()
        if not self.dry:
            self.w(f"{_CTYPE[t]} {name} = {text};")
        return name

    def site(self, texts: dict, where: tuple | None = None) -> int:
        self.nest.sites.append((self.line, texts, where))
        return len(self.nest.sites) - 1

    def fail_if(self, cond: str, kind: int, text: str) -> None:
        """``return`` the error *kind* when *cond* holds."""
        if self.dry:
            return
        site = self.site({kind: text})
        self.w(f"if (__builtin_expect({cond}, 0)) return {site << 3 | kind};")

    def checked(self, call: str, texts: dict) -> None:
        """Run a helper that returns 0 or an error kind."""
        if self.dry:
            return
        site = self.site(texts)
        self.w(f"if (__builtin_expect((e = {call}) != 0, 0)) "
               f"return {site << 3} | e;")

    def ptype(self, e: A.Expr) -> str:
        """The scalar path's static type of *e* (its translation decides
        integer division and conversions by it)."""
        t = self.c.expr_type(e)
        if t not in _CTYPE:
            raise Refused(f"expression of type {t!r}")
        return t

    def as_real(self, v: _V) -> str:
        if v.t == "l":
            raise Refused("logical operand in arithmetic")
        return v.text if v.t == "r" else f"(double){v.text}"

    def to_int(self, v: _V) -> str:
        """Python's ``int()`` of *v*."""
        if v.t == "i":
            return v.text
        if v.t == "l":
            return f"(i64)({v.text} != 0)"
        out = self.fresh()
        self.w(f"i64 {out};")
        self.checked(f"trunc64({v.text}, &{out})", _TO_INT)
        return out

    def int_op(self, op: str, a: str, b: str) -> str:
        if self.dry:
            return self.fresh()
        out = self.fresh()
        self.w(f"i64 {out};")
        self.fail_if(f"__builtin_{op}_overflow({a}, {b}, &{out})",
                     *self.overflow)
        return out

    # -- names --------------------------------------------------------------

    def symbol(self, name: str):
        sym = self.syms.get(name)
        if sym is None:
            sym = self.table.get(name)
            if sym is None:
                raise Refused(f"unresolved name {name}")
            if sym.is_external or (name in self.c.all_units
                                   and name != self.c.unit.name):
                raise Refused(f"{name} names a procedure")
            self.syms[name] = sym
        return sym

    def scalar(self, name: str, write: bool = False) -> tuple[str, str]:
        t = self.scalars.get(name)
        if t is None:
            sym = self.symbol(name)
            if sym.is_array:
                raise Refused(f"whole array {name} in an expression")
            t = type_code(sym.type_name)
            if t == "s":
                raise Refused(f"character variable {name}")
            if sym.is_parameter:
                raise Refused(f"assignment to PARAMETER {name}")
            self.scalars[name] = t
        if write:
            self.assigned.setdefault(name)
        elif name not in self.assigned:
            self.reads.add(name)
        return f"v_{name}", t

    def parameter(self, sym) -> _V:
        value, t = sym.param_value, type_code(sym.type_name)
        if t == "l" and isinstance(value, bool):
            return _V("1" if value else "0", "l", "0")
        if t == "i" and isinstance(value, int) and not isinstance(value,
                                                                   bool):
            return self.int_lit(value)
        if t == "r" and isinstance(value, float):
            return self.real_lit(value)
        raise Refused(f"PARAMETER {sym.name} holds a {type(value).__name__}")

    def int_lit(self, value: int) -> _V:
        if not -2 ** 63 < value < 2 ** 63:
            raise Refused(f"integer literal {value} out of range")
        if self.in_bounds:
            # a frame count is not part of the C text
            self.nest.consts.append(value)
            return _V(f"c{len(self.nest.consts) - 1}", "i", "0")
        return _V(f"{value}LL", "i", "0")

    def real_lit(self, value: float) -> _V:
        if value != value or value in (float("inf"), float("-inf")):
            raise Refused(f"real literal {value}")
        return _V(float(value).hex(), "r", "0")

    def array_slot(self, name: str, write: bool) -> tuple[int, str, int]:
        slot = self.slots.get(name)
        if slot is None:
            sym = self.symbol(name)
            t = type_code(sym.type_name)
            if t == "s":
                raise Refused(f"character array {name}")
            slot = self.slots[name] = len(self.nest.arrays)
            self.words.append(self.words[-1] + 1 + 3 * sym.array.rank)
            self.nest.arrays.append([name, t, sym.array.rank, False])
        entry = self.nest.arrays[slot]
        if write:
            entry[3] = True
        return slot, entry[1], entry[2]

    def element(self, ref: A.ArrayRef, write: bool = False) -> tuple[str, str]:
        """``A<slot>[offset]`` of *ref*, its subscripts bounds-checked in
        order, and the element type."""
        slot, t, rank = self.array_slot(ref.name, write)
        if len(ref.subs) != rank:
            raise Refused(f"{ref.name} has {rank} dimensions, "
                          f"{len(ref.subs)} subscripts")
        form = self.proven.get(id(ref))
        if form is not None:
            # inside the range the loop's entry check proved: no check,
            # and the last dimension's stride is 1
            terms = []
            for d, (var, c) in enumerate(form):
                value = f"(u64){c}LL" if var is None else \
                    f"(u64)v_{var} + (u64){c}LL"
                terms.append(f"({value} - (u64)L{slot}_{d})"
                             + ("" if d == rank - 1 else
                                f" * (u64)S{slot}_{d}"))
            return f"A{slot}[(i64)({' + '.join(terms)})]", t
        outer, self.overflow = self.overflow, (
            K_INDEX, f"subscript of {ref.name!r} overflows a 64-bit integer")
        subs = [self.ex(s) for s in ref.subs]
        self.overflow = outer
        if any(v.t != "i" for v in subs):
            raise Refused(f"non-integer subscript of {ref.name}")
        if self.dry:
            return "", t
        site = len(self.nest.sites)
        for d in range(rank):
            self.site({K_INDEX: ""}, (slot, d))
        off = self.fresh()
        self.w(f"const i64 {off} = ix(D + {self.words[slot]}, {rank}, "
               f"(const i64[]){{{', '.join(v.text for v in subs)}}}, O);")
        self.w(f"if (__builtin_expect({off} < 0, 0)) "
               f"return ({site} - 1 - {off}) << 3 | {K_INDEX};")
        return f"A{slot}[{off}]", t

    # -- expressions ----------------------------------------------------------

    def ex(self, e: A.Expr) -> _V:
        kind = type(e)
        if kind is A.Var:
            if e.name not in self.scalars:
                sym = self.symbol(e.name)
                if sym.is_parameter:
                    return self.parameter(sym)
            name, t = self.scalar(e.name)
            return _V(name, t, "0" if t == "l" else f"k_{e.name}")
        if kind is A.ArrayRef:
            elem, t = self.element(e)
            return _V(self.temp(t, elem), t, "1")
        if kind is A.BinOp:
            return self.binop(e)
        if kind is A.IntLit:
            return self.int_lit(e.value)
        if kind is A.RealLit:
            return self.real_lit(e.value)
        if kind is A.UnOp:
            return self.unop(e)
        if kind in (A.FuncCall, A.Apply):
            return self.call(e.name, e.args, e)
        if kind is A.LogicalLit:
            return _V("1" if e.value else "0", "l", "0")
        raise Refused(f"{kind.__name__} expression")

    def truth(self, v: _V) -> str:
        return v.text if v.t == "l" else f"({v.text} != 0)"

    def unop(self, e: A.UnOp) -> _V:
        v = self.ex(e.operand)
        if e.op == ".not.":
            return _V(f"(!{self.truth(v)})", "l", "0")
        if v.t == "l":
            raise Refused("logical operand in arithmetic")
        if e.op == "+":
            return v
        if v.t == "r":
            return _V(f"(-{v.text})", "r", v.k)
        return _V(self.int_op("sub", "0LL", v.text), "i", v.k)

    def binop(self, e: A.BinOp) -> _V:
        op = e.op
        if op in (".and.", ".or."):
            # short-circuit, as Python's and/or
            left = self.ex(e.left)
            out = self.fresh()
            self.w(f"int {out} = {self.truth(left)};")
            self.w(f"if ({'' if op == '.and.' else '!'}{out}) {{")
            self.depth += 1
            self.w(f"{out} = {self.truth(self.ex(e.right))};")
            self.depth -= 1
            self.w("}")
            return _V(out, "l", "0")
        if op == "//":
            raise Refused("character concatenation")
        left, right = self.ex(e.left), self.ex(e.right)
        if op in (".eqv.", ".neqv."):
            cmp = "==" if op == ".eqv." else "!="
            return _V(f"({self.truth(left)} {cmp} {self.truth(right)})",
                      "l", "0")
        rel = {".lt.": "<", ".le.": "<=", ".gt.": ">", ".ge.": ">=",
               ".eq.": "==", ".ne.": "!="}.get(op)
        if rel is not None:
            return _V(f"({left.text} {rel} {right.text})", "l", "0")
        if "l" in (left.t, right.t):
            raise Refused("logical operand in arithmetic")
        k = _join(left.k, right.k)
        if op in ("+", "-", "*"):
            if left.t == right.t == "i":
                name = {"+": "add", "-": "sub", "*": "mul"}[op]
                return _V(self.int_op(name, left.text, right.text), "i", k)
            return _V(f"({self.as_real(left)} {op} {self.as_real(right)})",
                      "r", k)
        if op == "/":
            if self.ptype(e.left) == self.ptype(e.right) == "i":
                # Fortran division of int() of both sides
                a, b = self.to_int(left), self.to_int(right)
                self.fail_if(f"{b} == 0", K_INTERP, "integer division by zero")
                self.fail_if(f"{b} == -1 && {a} == INT64_MIN", K_OVERFLOW,
                             "integer overflow")
                return _V(self.temp("i", f"{a} / {b}"), "i", "0")
            if k != "1":
                cond = f"{right.text} == 0" + ("" if k == "0" else
                                               f" && !{k}")
                self.fail_if(cond, K_ZERO, "float division by zero")
            return _V(f"({self.as_real(left)} / {self.as_real(right)})",
                      "r", k)
        if op == "**":
            return self.power(e, left, right, k)
        raise Refused(f"operator {op}")

    def power(self, e: A.BinOp, left: _V, right: _V, k: str) -> _V:
        if left.t == right.t == "i":
            if not isinstance(e.right, A.IntLit) or e.right.value < 0:
                raise Refused("integer ** with a non-literal or negative "
                              "exponent")
            out = self.fresh()
            self.w(f"i64 {out};")
            self.checked(f"ipow({left.text}, {right.text}, &{out})",
                         _OVERFLOW)
            return _V(out, "i", left.k)
        a, b = self.as_real(left), self.as_real(right)
        out = self.fresh()
        if k == "1":  # numpy's power is the C pow
            self.w(f"double {out} = pow({a}, {b});")
            return _V(out, "r", k)
        self.w(f"double {out};")
        if k != "0":
            self.w(f"if ({k}) {out} = pow({a}, {b}); else")
        self.checked(f"py_pow({a}, {b}, &{out})", _POW_ERR)
        return _V(out, "r", k)

    def query(self, text: str) -> _V:
        """A rank-geometry query of the SPMD runtime (``acfd_lo`` and
        kin): constant for the rank's run, so the call evaluates it and
        passes it in."""
        if text not in self.queries:
            self.queries.append(text)
        return _V(f"q{self.queries.index(text)}", "i", "0")

    def call(self, name: str, args: list, e: A.Expr) -> _V:
        literal = all(isinstance(a, A.IntLit) for a in args)
        if name in _QUERIES and literal:
            return self.query(f"ctx.rt.{name[5:]}"
                              f"({', '.join(str(a.value) for a in args)})")
        if name == "acfd_owns" and len(args) == 2 \
                and isinstance(args[0], A.IntLit):
            # lo <= int(c) <= hi, as the runtime's owns()
            c = self.to_int(self.ex(args[1]))
            lo = self.query(f"ctx.rt.lo({args[0].value})")
            hi = self.query(f"ctx.rt.hi({args[0].value})")
            return _V(f"({lo.text} <= {c} && {c} <= {hi.text})", "l", "0")
        if name.startswith("acfd_"):
            raise Refused(f"runtime call {name}")
        target = self.c.all_units.get(name)
        if target is not None:
            raise Refused(f"call to function {name}")
        vals = [self.ex(a) for a in args]
        n = len(vals)
        if any(v.t == "l" for v in vals):
            raise Refused(f"logical argument of {name}")
        one = n == 1

        if name in _MATH1 and one:
            fn, can_overflow = _MATH1[name]
            x = self.as_real(vals[0])
            out = self.temp("r", f"{fn}({x})")
            self.checked(f"math1({x}, {out}, {can_overflow})", _MATH_ERR)
            return _V(out, "r", "0")
        if name == "atan2" and n == 2:
            return _V(self.temp("r", f"py_atan2({self.as_real(vals[0])}, "
                                     f"{self.as_real(vals[1])})"), "r", "0")
        if name in ("abs", "dabs", "iabs") and one:
            v = vals[0]
            if v.t == "r":
                out = _V(f"__builtin_fabs({v.text})", "r", v.k)
                return _V(self.to_int(out), "i", "0") \
                    if name == "iabs" else out
            absv = self.temp("i", f"{v.text} < 0 ? {self.int_op('sub', '0LL', v.text)} : {v.text}")
            if name == "dabs":
                return _V(f"(double){absv}", "r", v.k)
            return _V(absv, "i", "0" if name == "iabs" else v.k)
        if name in _MAX and n >= 1:
            return self.fold(name, vals)
        if name in ("mod", "amod", "dmod") and n == 2:
            a, b = vals
            if name == "mod" and a.t == b.t == "i":
                self.fail_if(f"{b.text} == 0", K_VALUE, "math domain error")
                return _V(self.temp("i", f"(i64)fmod((double){a.text}, "
                                         f"(double){b.text})"), "i", "0")
            out = self.fresh()
            self.w(f"double {out};")
            self.checked(f"py_fmod({self.as_real(a)}, {self.as_real(b)}, "
                         f"&{out})", _MATH_ERR)
            return _V(out, "r", "0")
        if name in ("sign", "dsign", "isign") and n == 2:
            a, b = vals
            if name != "isign" and a.t != b.t:
                raise Refused(f"{name} of mixed integer and real arguments")
            if a.t == "r":
                mag = f"__builtin_fabs({a.text})"
                v = _V(self.temp("r", f"{b.text} >= 0 ? {mag} : -{mag}"),
                       "r", a.k)
            else:
                mag = self.temp("i", f"{a.text} < 0 ? "
                                     f"{self.int_op('sub', '0LL', a.text)} "
                                     f": {a.text}")
                neg = self.int_op("sub", "0LL", mag)
                v = _V(self.temp("i", f"{b.text} >= 0 ? {mag} : {neg}"),
                       "i", a.k)
            return _V(self.to_int(v), "i", "0") if name == "isign" else v
        if name in ("int", "ifix", "idint") and one:
            return _V(self.to_int(vals[0]), "i", "0")
        if name in ("real", "float", "sngl", "dble", "dfloat") and one:
            return _V(self.as_real(vals[0]), "r", "0")
        if name in ("nint", "anint", "aint", "dint") and one:
            return self.rounding(name, vals[0])
        raise Refused(f"intrinsic {name} with {n} arguments")

    def fold(self, name: str, vals: list) -> _V:
        """Python's ``max``/``min``: the first argument, replaced by each
        later one that compares greater (less); ``amax1`` and kin convert
        the result with ``float()``, ``max0`` and kin with ``int()``."""
        generic = name in ("max", "min")
        types = {v.t for v in vals}
        if generic and len(types) > 1:
            raise Refused(f"{name} of mixed integer and real arguments")
        t = vals[0].t if generic else (types.pop() if len(types) == 1
                                       else "r")
        conv = (lambda v: v.text) if t == "i" or generic else self.as_real
        out, kind = self.fresh(), self.fresh()
        self.w(f"{_CTYPE[t]} {out} = {conv(vals[0])};")
        self.w(f"int {kind} = {vals[0].k};")
        for v in vals[1:]:
            self.w(f"if ({conv(v)} {_MAX[name]} {out}) "
                   f"{{ {out} = {conv(v)}; {kind} = {v.k}; }}")
        if generic:
            return _V(out, t, kind)
        if name in ("max0", "min0"):
            return _V(self.to_int(_V(out, t, "0")), "i", "0")
        return _V(self.as_real(_V(out, t, "0")), "r", "0")

    def rounding(self, name: str, v: _V) -> _V:
        if v.t == "i":
            return v._replace(k="0") if name == "nint" else \
                _V(f"(double){v.text}", "r", "0")
        x = v.text
        out = self.fresh()
        if name == "nint":
            self.w(f"i64 {out};")
            self.checked(f"trunc64({x}, &{out})", _TO_INT)
            self.w(f"{out} = llround({x});")
            return _V(out, "i", "0")
        site = self.site(_TO_INT)
        self.w(f"if (__builtin_expect(isnan({x}), 0)) "
               f"return {site << 3 | K_VALUE};")
        self.w(f"if (__builtin_expect(isinf({x}), 0)) "
               f"return {site << 3 | K_OVERFLOW};")
        if name == "anint":
            return _V(self.temp("r", f"round({x})"), "r", "0")
        # float(int(x)): a whole float as it is; -0.3 becomes +0.0
        return _V(self.temp("r", f"__builtin_fabs({x}) < 0x1p63 ? "
                                 f"(double)(i64){x} : {x}"), "r", "0")

    # -- statements -------------------------------------------------------------

    def block(self, stmts: list[A.Stmt]) -> None:
        for s in stmts:
            self.stmt(s)

    def stmt(self, s: A.Stmt) -> None:
        self.line = s.line
        if s.label is not None and s.label in self.c.targeted_labels \
                and s is not self.loop:
            raise Refused("GOTO-targeted label in nest body")
        if isinstance(s, A.Assign):
            self.assign(s)
        elif isinstance(s, A.DoLoop):
            self.do_loop(s)
        elif isinstance(s, A.DoWhile):
            self.w("for (;;) {")
            self.depth += 1
            self.w(f"if (!{self.truth(self.ex(s.cond))}) break;")
            self.block(s.body)
            self.depth -= 1
            self.w("}")
        elif isinstance(s, A.IfBlock):
            self.arms(s.arms)
        elif isinstance(s, A.LogicalIf):
            self.w(f"if ({self.truth(self.ex(s.cond))}) {{")
            self.depth += 1
            self.stmt(s.stmt)
            self.depth -= 1
            self.w("}")

    def arms(self, arms: list) -> None:
        cond, body = arms[0]
        if cond is None:
            self.w("{")
        else:
            self.w(f"if ({self.truth(self.ex(cond))}) {{")
        self.depth += 1
        self.block(body)
        self.depth -= 1
        if len(arms) == 1:
            self.w("}")
            return
        self.w("} else {")
        self.depth += 1
        self.arms(arms[1:])
        self.depth -= 1
        self.w("}")

    def assign(self, s: A.Assign) -> None:
        value = self.ex(s.value)
        target = s.target
        if isinstance(target, A.ArrayRef):
            elem, t = self.element(target, write=True)
            if t == "r":
                text = self.as_real(value) if value.t != "l" \
                    else f"(double){value.text}"
            elif t == "i":
                text = self.to_int(value)
            else:
                text = self.truth(value)
            self.w(f"{elem} = {text};")
            return
        if not isinstance(target, A.Var):
            raise Refused("assignment target")
        name, t = self.scalar(target.name, write=True)
        vt = self.ptype(s.value)
        kind = value.k
        if t == "i":
            if vt != "i":
                text, kind = self.to_int(value), "0"
            elif value.t != "i":
                raise Refused(f"real value stored in integer {target.name}")
            else:
                text = value.text
        elif t == "r":
            if value.t == "l" or vt == "l":
                raise Refused(f"logical value stored in real {target.name}")
            text = self.as_real(value)
            if vt == "i":
                kind = "0"  # float(...)
        else:
            if value.t != "l":
                raise Refused(f"non-logical value stored in {target.name}")
            text = value.text
        self.w(f"{name} = {text};")
        if t != "l":
            self.w(f"k_{target.name} = {kind};")

    def affine(self, e: A.Expr, fixed: set) -> tuple | None:
        """``(variable or None, constant)`` when subscript *e* is an
        integer literal or PARAMETER, a variable of *fixed*, or one plus
        or minus the other."""
        if isinstance(e, A.IntLit):
            return None, e.value
        if isinstance(e, A.Var):
            sym = self.table.get(e.name)
            if sym is not None and sym.is_parameter:
                value = sym.param_value
                return ((None, value) if type(value) is int else None)
            return (e.name, 0) if e.name in fixed else None
        if isinstance(e, A.BinOp) and e.op in ("+", "-"):
            left, right = (self.affine(x, fixed) for x in (e.left, e.right))
            if left is None or right is None:
                return None
            if right[0] is None:
                c = left[1] + (right[1] if e.op == "+" else -right[1])
                return left[0], c
            if left[0] is None and e.op == "+":
                return right[0], left[1] + right[1]
        return None

    def versions(self, s: A.DoLoop, st: str, sp: str, n: str) -> str | None:
        """For an innermost loop, the entry check under which no
        subscript of the forms :meth:`affine` reads can leave its array
        (the references are put in ``self.proven``); None when no
        reference qualifies."""
        if any(isinstance(x, (A.DoLoop, A.DoWhile))
               for x in A.walk_statements(s.body)):
            return None
        assigned = {x.target.name for x in A.walk_statements(s.body)
                    if isinstance(x, A.Assign)
                    and isinstance(x.target, A.Var)}
        if s.var in assigned:
            return None
        fixed = {s.var} | {
            name for name, sym in self.table.symbols.items()
            if not sym.is_array and not sym.is_parameter
            and type_code(sym.type_name) == "i"} - assigned
        refs = [r for x in s.body for r in A.walk(x)
                if isinstance(r, A.ArrayRef)]
        conds, strides, small = [], set(), {}
        lo, hi = self.fresh(), self.fresh()
        for ref in refs:
            sym = self.table.get(ref.name)
            if sym is None or not sym.is_array \
                    or len(ref.subs) != sym.array.rank:
                continue
            form = [self.affine(x, fixed) for x in ref.subs]
            if None in form or any(abs(c) >= 2 ** 40 for _, c in form):
                continue
            slot = self.array_slot(ref.name, False)[0]
            for d, (var, c) in enumerate(form):
                ends = ((lo, hi) if var == s.var else
                        (f"v_{var}",) if var else ("0",))
                # |end|, |L| < 2**62 and |c| < 2**40: no wrap
                small.update(dict.fromkeys(ends))
                for end in ends:
                    conds.append(f"(u64){end} + (u64){c}LL - (u64)L{slot}_{d}"
                                 f" < (u64)N{slot}_{d}")
            strides.add(f"S{slot}_{len(form) - 1} == 1")
            self.proven[id(ref)] = form
        if not conds:
            return None
        self.w(f"const i64 {lo} = {sp} > 0 ? {st} : {st} + ({n} - 1) * {sp}, "
               f"{hi} = {sp} > 0 ? {st} + ({n} - 1) * {sp} : {st};")
        small.pop("0", None)
        return " && ".join(
            [f"{n} > 0"] + sorted(strides)
            + [f"(u64){v} + (1ULL << 62) < (1ULL << 63)" for v in small]
            + list(dict.fromkeys(conds)))

    def do_loop(self, s: A.DoLoop) -> None:
        # int(start), int(step), then int(stop), as the scalar path
        start = self.to_int(self.ex(s.start))
        step = (self.to_int(self.ex(s.step)) if s.step is not None
                else self.int_lit(1).text)
        # the stop bound's constants (a frame count among them) reach
        # the function in its descriptor; start and step stay literal,
        # so a unit-stride loop compiles as one
        self.in_bounds = True
        stop = self.to_int(self.ex(s.stop))
        self.in_bounds = False
        st, sp, n, k = (self.fresh() for _ in range(4))
        self.w(f"const i64 {st} = {start}, {sp} = {step};")
        self.fail_if(f"{sp} == 0", K_INTERP, "zero DO step")
        self.w(f"i64 {n};")
        self.checked(f"trips({st}, {stop}, {sp}, &{n})", _OVERFLOW)
        var, t = self.scalar(s.var, write=True)
        if t != "i":
            raise Refused(f"DO variable {s.var} is not an integer")
        head = f"for (i64 {k} = 0; {k} < {n}; {k}++) {{"
        step = f"{var} = {st} + {k} * {sp}; k_{s.var} = 0;"
        outer, self.lines = self.lines, []
        self.w(head)
        self.depth += 1
        self.w(step)
        self.block(s.body)
        self.depth -= 1
        self.w("}")
        checked, self.lines = self.lines, outer
        fast = None if self.dry else self.versions(s, st, sp, n)
        if fast is None:
            self.lines += checked
        else:
            # two versions of the loop: the one whose subscripts the
            # entry check proved in range runs unchecked
            self.w(f"if ({fast}) {{")
            self.w(head)
            self.depth += 1
            self.w(step)
            self.block(s.body)
            self.depth -= 1
            self.w("}")
            self.proven.clear()
            self.w("} else {")
            self.lines += checked
            self.w("}")
        self.line = s.line
        self.w(f"{var} = {self.int_op('mul', n, sp)};")
        self.w(f"{var} = {self.int_op('add', st, var)}; k_{s.var} = 0;")

    # -- the function -------------------------------------------------------------

    def lower(self) -> None:
        """Lower the nest, or raise :class:`Refused`."""
        for s in A.walk_statements(self.loop.body):  # refuse before lowering
            if not isinstance(s, _BODY):
                raise Refused(f"{type(s).__name__} in nest body")
        self.do_loop(self.loop)

    def write(self) -> tuple[Nest, list[str], list[str]]:
        """The nest, the scalar path's texts of its arguments (then the
        kind word, if ``nest.kinds_in``) and its names of the exit
        values."""
        self.lower()
        nest = self.nest
        root = self.loop.var
        inputs = [n for n in self.scalars
                  if n in self.reads or n != root]
        body = "\n".join(self.lines)
        flagged = [n for n in inputs if self.scalars[n] != "l"
                   and re.search(rf"\bk_{n}\b", body)]
        nest.kinds_in = bool(flagged)
        nest.inputs = [self.scalars[n] for n in inputs] \
            + ["i"] * len(self.queries)
        outputs = list(self.assigned)
        nest.outputs = [self.scalars[n] for n in outputs]
        params = [f"{_CTYPE[nest.inputs[j]]} p_{n}"
                  for j, n in enumerate(inputs)]
        params += [f"const i64 q{j}" for j in range(len(self.queries))]
        if nest.kinds_in:
            params.append("i64 kin")
        head = [f"int acfd_nest_{nest.number}(const i64 *restrict D, "
                f"i64 *restrict O{''.join(', ' + p for p in params)}) {{",
                "    int e = 0; (void)e;"]
        head += [f"    const i64 c{j} = D[{self.words[-1] + j}];"
                 for j in range(len(nest.consts))]
        word = 0
        for slot, (_name, t, rank, _w) in enumerate(nest.arrays):
            head.append(f"    {_ELEM[t]} *const A{slot} = "
                        f"({_ELEM[t]} *)(intptr_t)D[{word}];")
            for d in range(rank):
                head.append(f"    const i64 L{slot}_{d} = D[{word + 1}], "
                            f"N{slot}_{d} = D[{word + 2}], "
                            f"S{slot}_{d} = D[{word + 3}];")
                word += 3
            word += 1
        for j, n in enumerate(inputs):
            t = self.scalars[n]
            head.append(f"    {_CTYPE[t]} v_{n} = p_{n};")
            if t != "l":
                kin = (f"(int)(kin >> {j} & 1)" if n in flagged else "0")
                head.append(f"    int k_{n} = {kin};")
        for n, t in self.scalars.items():
            if n not in inputs:
                head.append(f"    {_CTYPE[t]} v_{n} = 0;")
                if t != "l":
                    head.append(f"    int k_{n} = 0;")
        tail = ["    i64 kout = 0;"]
        for j, n in enumerate(outputs):
            t = self.scalars[n]
            dst = "((double *)O)" if t == "r" else "O"
            tail.append(f"    {dst}[{j + 2}] = v_{n};")
            if t != "l":
                tail.append(f"    kout |= (i64)k_{n} << {j};")
        tail += ["    O[1] = kout;", "    return 0;", "}"]
        nest.c_text = "\n".join(head + self.lines + tail)
        args = [self.c.var_read(n) for n in inputs] + self.queries
        if nest.kinds_in:
            # bit j: argument j is a numpy scalar in the scalar path
            args.append(" | ".join(
                f"({self.c.var_read(n)}.__class__ is "
                f"{'_f64' if self.scalars[n] == 'r' else '_i64'})"
                + (f" << {j}" if j else "")
                for j, n in enumerate(inputs) if self.scalars[n] != "l"))
        return nest, args, outputs


def try_emit_nest(comp, loop: A.DoLoop) -> bool:
    """Emit *loop* as a call of its native nest into *comp*'s Python
    lines, or return False (the caller emits the scalar loop, whose
    recursion tries the inner nests on their own).  Updates
    ``comp.stats`` either way."""
    number = len(comp.nests)
    try:
        nest, args, outputs = _Writer(comp, loop, number).write()
    except Refused as why:
        _tally(comp.stats, comp.unit, loop, str(why))
        return False
    _tally(comp.stats, comp.unit, loop, None)
    comp.nests.append(nest)
    arrays = [name for name, *_ in nest.arrays]
    key = ", ".join([str(number)] + [f"id(f_{a})" for a in arrays])
    comp.w(f"_nf = _nc.get(({key}{',' if not arrays else ''}))")
    comp.w("if _nf is None:")
    comp.depth += 1
    comp.w(f"_nf = _nc.bind({', '.join([str(number)] + [f'f_{a}' for a in arrays])})")
    comp.depth -= 1
    targets = ", ".join(comp.var_read(n) for n in outputs)
    comp.w(f"{targets}, = _nf({', '.join(args)})")
    return True


# -- verdicts ------------------------------------------------------------------


def new_stats() -> dict:
    """The tally ``compile_unit`` and :func:`survey` both fill: native
    and scalar nests, and one ``(unit, line, reason)`` per refusal."""
    return {"native": 0, "scalar": 0, "reasons": []}


def _tally(stats: dict, unit: A.ProgramUnit, loop: A.DoLoop,
           reason: str | None) -> None:
    if reason is None:
        stats["native"] += 1
    else:
        stats["scalar"] += 1
        stats["reasons"].append((unit.name, loop.line, reason))


def survey(cu: A.CompilationUnit) -> dict:
    """Count native and scalar nests, with reasons, in the shape of
    ``CompiledProgram.nest_stats``, without building anything.

    Walks the statements as the translation does: an accepted nest is
    one native nest (its inner loops go with it); a refused loop counts
    once and its body is searched for the inner nests the scalar
    translation tries on their own.
    """
    from repro.interp.pyback import _UnitCompiler
    from repro.fortran.symbols import resolve_compilation_unit
    if any(unit.symbols is None for unit in cu.units):
        resolve_compilation_unit(cu)
    stats = new_stats()
    units = {u.name: u for u in cu.units}

    def visit(comp, stmts: list[A.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, A.DoLoop):
                try:
                    _Writer(comp, s, 0, dry=True).lower()
                except Refused as why:
                    _tally(stats, comp.unit, s, str(why))
                    visit(comp, s.body)
                else:
                    _tally(stats, comp.unit, s, None)
            elif isinstance(s, A.DoWhile):
                visit(comp, s.body)
            elif isinstance(s, A.IfBlock):
                for _, body in s.arms:
                    visit(comp, body)
            elif isinstance(s, A.LogicalIf):
                visit(comp, [s.stmt])

    for unit in cu.units:
        visit(_UnitCompiler(unit, units), unit.body)
    return stats


# -- building and loading -------------------------------------------------------


def program_text(nests: list[Nest]) -> str:
    """The C translation unit of one program's nests."""
    return "\n\n".join([_PRELUDE] + [n.c_text for n in nests]) + "\n"


def compiler() -> str | None:
    """The host's C compiler: ``cc`` on the PATH, else ``gcc``."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "acfd", "native")


_VERSIONS: dict[str, str] = {}
#: sha -> loaded library, for this process
_LIBS: dict[str, tuple[ctypes.CDLL, ctypes.PyDLL]] = {}
_warned = False


def _version(cc: str) -> str:
    version = _VERSIONS.get(cc)
    if version is None:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True)
        version = _VERSIONS[cc] = proc.stdout.split("\n", 1)[0]
    return version


def _build(path: str, text: str, cc: str) -> None:
    """Compile *text* to *path* unless another process has: under the
    cache directory's lock, into a temporary name, then into place."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(path):
            return
        fd, source = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        tmp = source[:-2] + ".so"
        try:
            proc = subprocess.run([cc, *FLAGS, "-o", tmp, source, "-lm"],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise CodegenError(f"{cc} could not build the native "
                                   f"nests:\n{proc.stderr}")
            os.replace(tmp, path)
        finally:
            for leftover in (source, tmp):
                if os.path.exists(leftover):
                    os.unlink(leftover)
        # keep the most recently used: one about to load is the newest
        libs = sorted((e for e in os.scandir(directory)
                       if e.name.endswith(".so")),
                      key=lambda e: e.stat().st_mtime, reverse=True)
        for entry in libs[CACHE_KEEP:]:
            os.unlink(entry.path)


def load(nests: list[Nest]) -> "NativeLibrary | None":
    """The loaded library of *nests*, built on first use; None (after
    one warning line per process) when the host has no C compiler."""
    global _warned
    cc = compiler()
    if cc is None:
        if not _warned:
            _warned = True
            print("acfd: no C compiler (cc or gcc) found: loop nests run "
                  "on the scalar path", file=sys.stderr)
        return None
    text = program_text(nests)
    sha = hashlib.sha256("\0".join(
        (text, " ".join(FLAGS), _version(cc))).encode()).hexdigest()
    lib = _LIBS.get(sha)
    if lib is None:
        path = os.path.join(cache_dir(), sha + ".so")
        if os.path.exists(path):
            with contextlib.suppress(OSError):  # most recently used
                os.utime(path)
        else:
            _build(path, text, cc)
        lib = _LIBS[sha] = (ctypes.CDLL(path), ctypes.PyDLL(path))
    return NativeLibrary(sha, [_Callable(lib, n) for n in nests])


@dataclass
class NativeLibrary:
    """One program's loaded nests."""

    sha: str
    nests: list


class _Callable:
    """One nest of a loaded library: its C function with argument
    types, and what its calls need to bind and to read back."""

    def __init__(self, lib: tuple, nest: Nest) -> None:
        self.nest = nest
        #: the function through a handle that releases the GIL for the
        #: call and through one that keeps it
        self.release, self.hold = (getattr(handle, f"acfd_nest_{nest.number}")
                                   for handle in lib)
        for fn in (self.release, self.hold):
            fn.restype = ctypes.c_int
            fn.argtypes = ([ctypes.c_void_p, ctypes.c_void_p]
                           + [_ARG[t] for t in nest.inputs]
                           + [ctypes.c_longlong] * nest.kinds_in)
        self.unpack = struct.Struct(
            "<qq" + "".join(_OUT[t] for t in nest.outputs)).unpack_from
        #: (position, numpy type) of the exit values a kind bit applies to
        self.kinds = [(j, _NUMPY[t]) for j, t in enumerate(nest.outputs)
                      if t != "l"]

    def bind(self, arrays: tuple):
        """The call of this nest over *arrays* (``OffsetArray``)."""
        nest = self.nest
        words = []
        for arr, (name, t, rank, written) in zip(arrays, nest.arrays):
            data = arr.data
            if data.dtype != _DTYPE[t] or data.ndim != rank:
                raise TypeError(f"array {name!r} of unit {nest.unit}: "
                                f"{data.ndim}-D {data.dtype} where the nest "
                                f"reads {rank}-D {_DTYPE[t]}")
            if written and not data.flags.writeable:
                raise ValueError(f"assignment destination {name!r} is "
                                 f"read-only")
            words.append(data.ctypes.data)
            if any(abs(low) >= 2 ** 62 for low in arr.lower):
                raise OverflowError(f"array {name!r}: lower bounds "
                                    f"{arr.lower} out of range")
            for d in range(rank):
                words += [arr.lower[d], data.shape[d],
                          data.strides[d] // data.itemsize]
        words += nest.consts
        desc = (ctypes.c_longlong * max(1, len(words)))(*words)
        out = (ctypes.c_longlong * (2 + len(nest.outputs)))()
        head = (ctypes.addressof(desc), ctypes.addressof(out))
        fn = (self.release if sum(a.data.size for a in arrays) >= RELEASE_AT
              else self.hold)
        unpack, kinds = self.unpack, self.kinds

        def call(*scalars):
            err = fn(*head, *scalars)
            if err:
                self.fail(err, out, arrays)
            vals = unpack(out)
            if vals[1]:  # exit values the scalar path holds as numpy
                vals = list(vals)
                for j, kind in kinds:
                    if vals[1] >> j & 1:
                        vals[j + 2] = kind(vals[j + 2])
            return vals[2:]

        call.held = (desc, out, arrays)
        return call

    def fail(self, err: int, out, arrays: tuple):
        line, texts, where = self.nest.sites[err >> 3]
        kind = err & 7
        if kind == K_INDEX and where is not None:
            slot, d = where
            arr = arrays[slot]
            lo = arr.lower[d]
            text = (f"index {out[0]} is out of bounds {lo}:"
                    f"{lo + arr.data.shape[d] - 1} for dimension {d + 1} "
                    f"of {self.nest.arrays[slot][0]!r}")
        else:
            text = texts[kind]
        raise _RAISES[kind](f"{text} (unit {self.nest.unit}, line {line})")


class NativeNests(dict):
    """One rank's bound nests: ``(nest, id of each array)`` -> its call.

    The call holds the arrays, so an ``id`` in a live key cannot be
    recycled.  Lives on the rank's ``Ctx``: thread ranks share the unit
    namespace but never an out-buffer.
    """

    __slots__ = ("library", "built", "_keys")

    def __init__(self, library: NativeLibrary | None) -> None:
        super().__init__()
        self.library = library
        #: argument tuples built so far (a hit never counts)
        self.built = 0
        self._keys: dict[int, list[tuple]] = {}

    @property
    def nests(self) -> int:
        """Nests that ran at least once."""
        return len(self._keys)

    def bind(self, number: int, *arrays):
        key = (number, *map(id, arrays))
        keys = self._keys.setdefault(number, [])
        if len(keys) == BIND_CAP:
            del self[keys.pop(0)]
        keys.append(key)
        call = self[key] = self.library.nests[number].bind(arrays)
        self.built += 1
        return call
