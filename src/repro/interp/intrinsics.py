"""Runtime implementations of Fortran intrinsic functions.

All intrinsics operate on Python scalars (int/float/bool); the generic
names (``max``/``min``/``abs``...) and the F77 specific names (``amax1``,
``dmax1``, ``iabs``...) share implementations, with result-type coercion
applied where the specific name dictates it.
"""

from __future__ import annotations

import math

from repro.errors import InterpError


def _sign(a, b):
    return abs(a) if b >= 0 else -abs(a)


def _nint(a):
    """Fortran NINT: the nearest integer, halves away from zero.  The
    distance to the truncated value is exact, so 0.49999999999999994
    stays 0 (``floor(a + 0.5)`` would make it 1)."""
    t = math.trunc(a)
    d = a - t
    return t + 1 if d >= 0.5 else t - 1 if d <= -0.5 else t


def _anint(a):
    """Fortran ANINT: NINT as a real, with the sign of *a* (as C's
    ``round``: -0.3 gives -0.0)."""
    return math.copysign(float(_nint(a)), a)


def _mod(a, b):
    # Fortran MOD has the sign of the first argument (unlike Python %).
    if isinstance(a, int) and isinstance(b, int):
        return int(math.fmod(a, b))
    return math.fmod(a, b)


INTRINSIC_IMPLS = {
    "abs": abs, "dabs": abs,
    "iabs": lambda a: int(abs(a)),
    "sqrt": math.sqrt, "dsqrt": math.sqrt,
    "exp": math.exp, "dexp": math.exp,
    "log": math.log, "alog": math.log, "dlog": math.log,
    "log10": math.log10, "alog10": math.log10,
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "atan2": math.atan2,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "max": lambda *a: max(a), "dmax1": lambda *a: float(max(a)),
    "amax1": lambda *a: float(max(a)),
    "max0": lambda *a: int(max(a)),
    "min": lambda *a: min(a), "dmin1": lambda *a: float(min(a)),
    "amin1": lambda *a: float(min(a)),
    "min0": lambda *a: int(min(a)),
    "mod": _mod, "amod": math.fmod, "dmod": math.fmod,
    "sign": _sign, "dsign": _sign,
    "isign": lambda a, b: int(_sign(a, b)),
    "int": int, "ifix": int, "idint": int,
    "nint": _nint,
    "anint": _anint,
    "real": float, "float": float, "sngl": float,
    "dble": float, "dfloat": float,
    "aint": lambda a: float(int(a)), "dint": lambda a: float(int(a)),
    "len": len,
    "index": lambda s, sub: s.find(sub) + 1,
    "char": chr, "ichar": ord,
}


def call_intrinsic(name: str, args: list):
    """Evaluate intrinsic *name* on evaluated *args*."""
    impl = INTRINSIC_IMPLS.get(name)
    if impl is None:
        raise InterpError(f"intrinsic {name!r} is not implemented")
    try:
        return impl(*args)
    except (ValueError, OverflowError) as exc:
        raise InterpError(f"intrinsic {name}({args!r}) failed: {exc}") from exc
