"""Reductions folded on a halo round's faces.

A :class:`HaloExchanger` built with reduction ``ops`` carries each rank's
running reduction values as one more section of every face and folds the
neighbor's in, dimension by dimension, lower coordinate on the left.
With two ranks on every cut dimension that is recursive doubling from
the highest rank bit down, which is what ``Communicator.allreduce`` runs
at a power-of-two size: the folded values must equal the allreduce's
bit for bit and in type, on both executors, while the ghosts arrive as
they do without the extra section.
"""

import functools

import numpy as np
import pytest

from repro.interp.values import OffsetArray
from repro.partition.grid import GridGeometry
from repro.partition.halo import GhostSpec, ghost_bounds
from repro.partition.partitioner import Partition
from repro.runtime import CartComm, HaloExchanger, HaloSpec, spmd_run

OPS = ("sum", "max", "min", "sum", "max")


def _values(rank: int) -> list:
    """Partials of the types a generated program reduces (a float, a
    numpy float, an int, one past float64's integers), the first a sum
    that depends on the order it is taken in."""
    return [(0.1, 1e16, 0.3, -1e16, 2.5, 0.7, 1e-3, 3.0)[rank],
            np.float64(-0.5 * rank), 7 * rank - 3, 10 ** 17 + rank,
            float(rank % 3) - 0.0]


def field(coord) -> int:
    return sum(c * 10 ** d for d, c in enumerate(coord))


def _coords(bounds):
    """Every index of an inclusive box."""
    for idx in np.ndindex(*[hi - lo + 1 for lo, hi in bounds]):
        yield tuple(c + lo for c, (lo, _hi) in zip(idx, bounds))


def _fold_and_allreduce(dims, comm):
    """Fold the partials on the faces of a field cut *dims*, then take
    the same reductions with ``allreduce``; both, and whether every ghost
    cell holds the global field."""
    shape = tuple(4 * p for p in dims)
    part = Partition(GridGeometry(shape), dims)
    dim_map = tuple(range(len(dims)))
    sub = part.subgrid(comm.rank)
    width = tuple((1, 1) for _ in dims)
    a = OffsetArray.from_bounds(
        ghost_bounds(part, comm.rank, dim_map, [(1, n) for n in shape],
                     GhostSpec(width)), name="v")
    for coord in _coords(sub.owned):
        a.set(field(coord), *coord)
    ex = HaloExchanger(CartComm(comm, dims),
                       [HaloSpec(a, dim_map, sub.owned, width)],
                       point_id=3, ops=OPS)
    folded = ex.exchange(_values(comm.rank))
    reduced = [comm.allreduce(v, op) for v, op in zip(_values(comm.rank),
                                                      OPS)]
    # ghost layers, corners included (later dimensions ship the ghosts
    # earlier ones filled), hold the global field wherever it exists
    ghosts_ok = all(a.get(*coord) == field(coord)
                    for coord in _coords(a.bounds)
                    if all(1 <= c <= n for c, n in zip(coord, shape)))
    return folded, reduced, ghosts_ok


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("dims", [(2,), (2, 1), (1, 2), (2, 2), (2, 2, 2)],
                         ids=lambda d: "x".join(map(str, d)))
def test_faces_fold_what_allreduce_reduces(dims, executor):
    size = int(np.prod(dims))
    w = spmd_run(size, functools.partial(_fold_and_allreduce, dims),
                 timeout=60.0, executor=executor)
    for folded, reduced, ghosts_ok in w.results:
        assert ghosts_ok
        assert [(type(v), repr(v)) for v in folded] \
            == [(type(v), repr(v)) for v in reduced]
    # every rank holds the same global values
    assert len({repr(r[0]) for r in w.results}) == 1
    # one round of faces: no collective besides the allreduces compared
    assert w.trace.count("allreduce") == size * len(OPS)


def test_the_sum_is_folded_highest_rank_bit_first():
    w = spmd_run(4, functools.partial(_fold_and_allreduce, (2, 2)))
    v = [_values(r)[0] for r in range(4)]
    # rank = 2 * c0 + c1: dimension 0 first, then dimension 1
    assert w.results[0][0][0] == (v[0] + v[2]) + (v[1] + v[3])
    assert (v[0] + v[2]) + (v[1] + v[3]) != (v[0] + v[1]) + (v[2] + v[3])


def _partials_ride_every_face(comm):
    owned = ((1, 4),) if comm.rank == 0 else ((5, 8),)
    a = OffsetArray.from_bounds([(1, 5)] if comm.rank == 0 else [(4, 8)],
                                name="v")
    ex = HaloExchanger(CartComm(comm, (2,)),
                       [HaloSpec(a, (0,), owned, ((1, 1),))], point_id=1,
                       ops=("sum", "max"))
    return [ex.exchange([comm.rank + 1, 5 * comm.rank]) for _trip in range(3)]


def test_each_face_message_carries_the_partials():
    w = spmd_run(2, _partials_ride_every_face)
    assert w.results == [[[3, 5]] * 3] * 2
    sends = [e for e in w.trace.snapshot() if e.kind == "send"]
    # one message per rank and trip: one float64 ghost cell and two
    # 8-byte partials
    assert [e.nbytes for e in sends] == [8 + 16] * 6
