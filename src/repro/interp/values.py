"""Runtime value model: Fortran arrays with arbitrary lower bounds.

Fortran arrays default to lower bound 1 and may declare any bounds
(``real v(0:n+1)``); the SPMD restructurer relies on this to keep *global*
index space in *local* arrays (a subgrid owning ``i = 34..66`` is declared
``v(33:67)`` — halo included — so loop bodies keep their original
subscripts).  :class:`OffsetArray` implements those semantics over a numpy
buffer.

Every array a rank computes in comes from :func:`aligned_buffer`, which
starts it on a cache line.
"""

from __future__ import annotations

from math import prod

import numpy as np

from repro.errors import InterpError

#: numpy dtype per Fortran type name.
DTYPES = {
    "integer": np.int64,
    "real": np.float64,  # paper-era codes are REAL*4; we compute in double
    "doubleprecision": np.float64,
    "logical": np.bool_,
    "character": object,
}


def type_code(type_name: str) -> str:
    """The translations' type letter of a Fortran type name: integer,
    real, logical or character (``s``); real when unknown."""
    return {"integer": "i", "real": "r", "doubleprecision": "r",
            "logical": "l", "character": "s"}.get(type_name, "r")


#: bytes in a cache line (numpy guarantees 16).  It paid for numpy's
#: AVX-512 ufunc loops; the native nests run as fast on plain buffers
#: (sprayer, aerofoil, Jacobi, alternated runs; ROADMAP)
CACHE_LINE = 64


def aligned_buffer(shape, dtype, *, zero: bool = False) -> np.ndarray:
    """A C-contiguous array whose first element starts on a
    :data:`CACHE_LINE` boundary, uninitialised or zero-filled: a view
    into a byte buffer one line longer.  Object arrays, which hold
    references, come from ``np.zeros`` / ``np.empty`` as they are."""
    dtype = np.dtype(dtype)
    if dtype.hasobject:
        return (np.zeros if zero else np.empty)(shape, dtype)
    nbytes = prod(shape) * dtype.itemsize
    raw = (np.zeros if zero else np.empty)(nbytes + CACHE_LINE, np.uint8)
    skip = -raw.ctypes.data % CACHE_LINE
    return raw[skip:skip + nbytes].view(dtype).reshape(shape)


class OffsetArray:
    """A Fortran array: numpy storage plus per-dimension lower bounds.

    Indexing uses Fortran subscripts (inclusive bounds, column-major
    semantics are irrelevant here because we never alias linear storage).

    Attributes:
        data: the underlying numpy array.
        lower: per-dimension lower bound (tuple of int).
    """

    __slots__ = ("data", "lower", "name")

    def __init__(self, shape: tuple[int, ...], lower: tuple[int, ...] | None = None,
                 dtype=np.float64, name: str = "") -> None:
        if lower is None:
            lower = (1,) * len(shape)
        if len(lower) != len(shape):
            raise InterpError(f"array {name!r}: {len(shape)} extents but "
                              f"{len(lower)} lower bounds")
        if any(n < 0 for n in shape):
            raise InterpError(f"array {name!r}: negative extent in {shape}")
        self.data = aligned_buffer(shape, dtype, zero=True)
        self.lower = tuple(lower)
        self.name = name

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_bounds(cls, bounds: list[tuple[int, int]], dtype=np.float64,
                    name: str = "") -> "OffsetArray":
        """Build from inclusive (lo, hi) bounds per dimension."""
        shape = tuple(hi - lo + 1 for lo, hi in bounds)
        lower = tuple(lo for lo, _hi in bounds)
        return cls(shape, lower, dtype, name)

    @classmethod
    def wrap(cls, data: np.ndarray, lower: tuple[int, ...] | None = None,
             name: str = "") -> "OffsetArray":
        """Wrap an existing numpy array without copying."""
        arr = cls.__new__(cls)
        arr.data = data
        arr.lower = lower if lower is not None else (1,) * data.ndim
        arr.name = name
        return arr

    # -- geometry -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def rank(self) -> int:
        return self.data.ndim

    @property
    def upper(self) -> tuple[int, ...]:
        """Inclusive upper bound per dimension."""
        return tuple(lo + n - 1 for lo, n in zip(self.lower, self.data.shape))

    @property
    def bounds(self) -> list[tuple[int, int]]:
        return list(zip(self.lower, self.upper))

    def _map(self, subs: tuple[int, ...]) -> tuple[int, ...]:
        if len(subs) != self.data.ndim:
            raise InterpError(
                f"array {self.name!r}: rank {self.data.ndim} indexed with "
                f"{len(subs)} subscripts")
        zero = []
        for s, lo, n in zip(subs, self.lower, self.data.shape):
            k = int(s) - lo
            if not 0 <= k < n:
                raise InterpError(
                    f"array {self.name!r}: subscript {s} out of bounds "
                    f"[{lo}, {lo + n - 1}]")
            zero.append(k)
        return tuple(zero)

    # -- element access ---------------------------------------------------------

    def get(self, *subs: int):
        """Read one element by Fortran subscripts."""
        value = self.data[self._map(subs)]
        if self.data.dtype == np.int64:
            return int(value)
        if self.data.dtype == np.bool_:
            return bool(value)
        return float(value)

    def set(self, value, *subs: int) -> None:
        """Write one element by Fortran subscripts."""
        self.data[self._map(subs)] = value

    # -- section access (used by halo exchange and I/O) --------------------------

    def _slice(self, ranges: list[tuple[int, int]]) -> tuple[slice, ...]:
        """numpy slices for inclusive Fortran (lo, hi) ranges."""
        if len(ranges) != self.data.ndim:
            raise InterpError(f"array {self.name!r}: section rank mismatch")
        out = []
        for (lo, hi), base, n in zip(ranges, self.lower, self.data.shape):
            a, b = lo - base, hi - base
            if not (0 <= a <= b < n):
                raise InterpError(
                    f"array {self.name!r}: section {lo}:{hi} out of bounds "
                    f"[{base}, {base + n - 1}]")
            out.append(slice(a, b + 1))
        return tuple(out)

    def section(self, ranges: list[tuple[int, int]]) -> np.ndarray:
        """A view of the inclusive-range section (Fortran coordinates)."""
        return self.data[self._slice(ranges)]

    def set_section(self, ranges: list[tuple[int, int]],
                    values: np.ndarray) -> None:
        """Assign into the inclusive-range section."""
        self.data[self._slice(ranges)] = values

    # -- misc ---------------------------------------------------------------------

    def fill(self, value) -> None:
        self.data[...] = value

    def copy(self) -> "OffsetArray":
        data = aligned_buffer(self.data.shape, self.data.dtype)
        np.copyto(data, self.data)
        return OffsetArray.wrap(data, self.lower, self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OffsetArray):
            return NotImplemented
        return (self.lower == other.lower
                and self.data.shape == other.data.shape
                and bool(np.array_equal(self.data, other.data)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bounds = ", ".join(f"{lo}:{hi}" for lo, hi in self.bounds)
        return f"OffsetArray({self.name or '?'}({bounds}), dtype={self.data.dtype})"


def coerce_assign(type_name: str, value):
    """Coerce *value* for assignment to a scalar of Fortran type *type_name*.

    Mirrors Fortran's implicit conversion on assignment: reals truncate
    toward zero when stored into integers.
    """
    if type_name == "integer":
        return int(value)
    if type_name in ("real", "doubleprecision"):
        return float(value)
    if type_name == "logical":
        return bool(value)
    return value


def do_trips(start: int, stop: int, step: int) -> int:
    """Trip count of ``DO v = start, stop, step`` (zero when empty)."""
    if step == 0:
        raise InterpError("zero DO step")
    return max(0, (stop - start + step) // step)


def fortran_div(a, b):
    """Fortran division: integer/integer truncates toward zero."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise InterpError("integer division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b
