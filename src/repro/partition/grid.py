"""Grid geometry: flow-field extents and balanced block splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import PartitionError


def split_extent(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``1..n`` into *parts* contiguous near-equal inclusive ranges.

    The first ``n % parts`` ranges get the extra point, so range sizes
    differ by at most one — the paper's "sized as equally as possible"
    load-balance requirement.
    """
    if parts < 1:
        raise PartitionError(f"parts must be >= 1, got {parts}")
    if n < parts:
        raise PartitionError(f"cannot split extent {n} into {parts} parts")
    base = n // parts
    extra = n % parts
    out = []
    lo = 1
    for k in range(parts):
        size = base + (1 if k < extra else 0)
        out.append((lo, lo + size - 1))
        lo += size
    return out


def rank_coords(rank: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of *rank* on a ``dims`` processor mesh, row-major
    (last dim fastest, as ``MPI_Cart_create`` numbers them); the caller
    checks that *rank* is on the mesh."""
    coords = []
    for extent in reversed(dims):
        coords.append(rank % extent)
        rank //= extent
    return tuple(reversed(coords))


def coords_rank(coords: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Inverse of :func:`rank_coords`; the caller checks the range."""
    rank = 0
    for c, extent in zip(coords, dims):
        rank = rank * extent + c
    return rank


@dataclass(frozen=True)
class Subgrid:
    """One rank's owned block: inclusive global ranges per grid dim."""

    coords: tuple[int, ...]
    owned: tuple[tuple[int, int], ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.owned)

    @property
    def points(self) -> int:
        return math.prod(self.shape)

    def face_size(self, dim: int) -> int:
        """Grid points on one face orthogonal to *dim*."""
        return math.prod(hi - lo + 1 for d, (lo, hi) in enumerate(self.owned)
                         if d != dim)


@dataclass(frozen=True)
class GridGeometry:
    """A rectangular flow field."""

    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.shape) <= 3:
            raise PartitionError(f"grid must be 1-3 dimensional, got "
                                 f"{self.shape}")
        if any(n < 1 for n in self.shape):
            raise PartitionError(f"grid extents must be positive: {self.shape}")

    @property
    def ndims(self) -> int:
        return len(self.shape)

    @property
    def points(self) -> int:
        return math.prod(self.shape)
