"""Cartesian process topology over a communicator.

Maps ranks onto a ``p1 x p2 [x p3]`` grid in row-major order (last
dimension fastest), mirroring ``MPI_Cart_create`` with non-periodic
boundaries — CFD flow fields have physical boundaries, so the paper's
partitions are never periodic.
"""

from __future__ import annotations

import math

from repro.errors import RuntimeCommError
from repro.runtime.comm import Communicator


class CartComm:
    """Cartesian view of a communicator."""

    def __init__(self, comm: Communicator, dims: tuple[int, ...]) -> None:
        if math.prod(dims) != comm.size:
            raise RuntimeCommError(
                f"cartesian dims {dims} need {math.prod(dims)} ranks, "
                f"world has {comm.size}")
        if any(d < 1 for d in dims):
            raise RuntimeCommError(f"bad cartesian dims {dims}")
        self.comm = comm
        self.dims = tuple(dims)
        self.coords = self.coords_of(comm.rank)

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def ndims(self) -> int:
        return len(self.dims)

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Coordinates of *rank* (row-major, last dim fastest)."""
        if not 0 <= rank < self.comm.size:
            raise RuntimeCommError(f"rank {rank} out of range")
        coords = []
        for extent in reversed(self.dims):
            coords.append(rank % extent)
            rank //= extent
        return tuple(reversed(coords))

    def rank_of(self, coords: tuple[int, ...]) -> int:
        """Rank at *coords*."""
        if len(coords) != len(self.dims):
            raise RuntimeCommError(
                f"coords {coords} have wrong rank for dims {self.dims}")
        rank = 0
        for c, extent in zip(coords, self.dims):
            if not 0 <= c < extent:
                raise RuntimeCommError(f"coords {coords} out of {self.dims}")
            rank = rank * extent + c
        return rank

    def neighbor(self, dim: int, disp: int) -> int | None:
        """Rank displaced by *disp* along *dim*, or None at the boundary."""
        c = self.coords[dim] + disp
        if not 0 <= c < self.dims[dim]:
            return None
        coords = list(self.coords)
        coords[dim] = c
        return self.rank_of(tuple(coords))

    def shift(self, dim: int, disp: int = 1) -> tuple[int | None, int | None]:
        """(source, dest) ranks for a shift, MPI_Cart_shift style."""
        return self.neighbor(dim, -disp), self.neighbor(dim, disp)

    def neighbors(self) -> list[tuple[int, int, int]]:
        """All face neighbors as (dim, direction, rank) triples."""
        out = []
        for dim in range(self.ndims):
            for direction in (-1, 1):
                rank = self.neighbor(dim, direction)
                if rank is not None:
                    out.append((dim, direction, rank))
        return out
