"""Partition selection: factorize P over grid dims, minimize communication.

The paper (§4.1) proves that communication is minimized when demarcation
lines carry (near-)equal numbers of grid points; among all factorizations
of the processor count this module picks the one whose *worst rank* ships
the fewest grid points per synchronization — the same criterion the
paper's discussion of Table 2 uses when it compares ``4x1x1`` against
``2x2x1`` by counting communicated grid points per processor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.errors import PartitionError
from repro.partition.grid import (GridGeometry, Subgrid, coords_rank,
                                  rank_coords, split_extent)


@dataclass(frozen=True)
class Partition:
    """A concrete block partition of a grid onto a processor mesh."""

    grid: GridGeometry
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != self.grid.ndims:
            raise PartitionError(
                f"partition {self.dims} has wrong rank for grid "
                f"{self.grid.shape}")
        for n, p in zip(self.grid.shape, self.dims):
            if p < 1:
                raise PartitionError(f"bad partition factor in {self.dims}")
            if p > n:
                raise PartitionError(
                    f"cannot cut extent {n} into {p} parts "
                    f"(grid {self.grid.shape}, partition {self.dims})")

    @property
    def size(self) -> int:
        """Number of subtasks (processors)."""
        return math.prod(self.dims)

    @property
    def ndims(self) -> int:
        return len(self.dims)

    @cached_property
    def _ranges(self) -> list[list[tuple[int, int]]]:
        return [split_extent(n, p)
                for n, p in zip(self.grid.shape, self.dims)]

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Row-major (last dim fastest) coordinates — matches CartComm."""
        if not 0 <= rank < self.size:
            raise PartitionError(f"rank {rank} out of range")
        return rank_coords(rank, self.dims)

    def rank_of(self, coords: tuple[int, ...]) -> int:
        if not all(0 <= c < extent for c, extent in zip(coords, self.dims)):
            raise PartitionError(f"coords {coords} out of {self.dims}")
        return coords_rank(coords, self.dims)

    def subgrid(self, rank: int) -> Subgrid:
        """The block owned by *rank*."""
        coords = self.coords_of(rank)
        owned = tuple(self._ranges[d][c] for d, c in enumerate(coords))
        return Subgrid(coords, owned)

    def subgrids(self) -> list[Subgrid]:
        return [self.subgrid(r) for r in range(self.size)]

    def neighbor(self, rank: int, dim: int, direction: int) -> int | None:
        coords = list(self.coords_of(rank))
        coords[dim] += direction
        if not 0 <= coords[dim] < self.dims[dim]:
            return None
        return self.rank_of(tuple(coords))

    @property
    def cut_dims(self) -> tuple[int, ...]:
        """Dims actually split (where communication can occur)."""
        return tuple(d for d, p in enumerate(self.dims) if p > 1)

    def demarcation_points(self, rank: int) -> int:
        """Grid points on all demarcation faces of one rank (the §4.1
        communication measure), for unit ghost width."""
        sub = self.subgrid(rank)
        total = 0
        for dim in self.cut_dims:
            for direction in (-1, 1):
                if self.neighbor(rank, dim, direction) is not None:
                    total += sub.face_size(dim)
        return total


def communication_volume(partition: Partition,
                         distance: int = 1) -> tuple[int, int]:
    """(max per-rank, total) communicated grid points per exchange.

    Args:
        partition: candidate partition.
        distance: ghost width (dependency distance).
    """
    per_rank = [partition.demarcation_points(r) * distance
                for r in range(partition.size)]
    return max(per_rank), sum(per_rank)


def factorizations(p: int, ndims: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of *p* into *ndims* positive factors."""
    if ndims == 1:
        return [(p,)]
    out = []
    for f in range(1, p + 1):
        if p % f == 0:
            for rest in factorizations(p // f, ndims - 1):
                out.append((f,) + rest)
    return out


def choose_partition(grid: GridGeometry, processors: int,
                     distance: int = 1) -> Partition:
    """Pick the factorization with minimal worst-rank communication.

    Ties break toward (a) lower total volume, then (b) cutting the longest
    dimensions (which gives squarer, cache-friendlier subgrids).
    """
    if processors < 1:
        raise PartitionError(f"processors must be >= 1, got {processors}")
    best: tuple | None = None
    best_partition: Partition | None = None
    for dims in factorizations(processors, grid.ndims):
        try:
            candidate = Partition(grid, dims)
        except PartitionError:
            continue
        max_comm, total_comm = communication_volume(candidate, distance)
        spread = max(s.points for s in candidate.subgrids()) \
            - min(s.points for s in candidate.subgrids())
        key = (max_comm, total_comm, spread, dims)
        if best is None or key < best:
            best = key
            best_partition = candidate
    if best_partition is None:
        raise PartitionError(
            f"no valid partition of grid {grid.shape} onto "
            f"{processors} processors")
    return best_partition
