"""Nonblocking halo exchange (begin/finish) and its satellite guards.

The overlap path must ship exactly what the blocking path ships: faces
are packed at ``begin()`` (same program point as a blocking exchange),
so owned cells mutated while the messages fly must not leak into any
neighbor's ghosts, and ghost layers must stay untouched until
``finish()`` unpacks them (the structural double buffer).
"""

import numpy as np
import pytest

from repro.errors import RuntimeCommError
from repro.interp.values import OffsetArray
from repro.partition.grid import GridGeometry
from repro.partition.halo import GhostSpec, ghost_bounds
from repro.partition.partitioner import Partition
from repro.runtime import CartComm, HaloExchanger, HaloSpec, spmd_run
from repro.runtime.halo import MAX_HALO_POINTS, halo_tag


def global_field(shape):
    arr = OffsetArray(tuple(shape))
    for idx in np.ndindex(*shape):
        arr.data[idx] = sum((c + 1) * 100 ** d for d, c in enumerate(idx))
    return arr


def overlapped_run(grid_shape, dims, dist, mutate_between=False):
    """begin/finish exchange; every ghost must match the global field."""
    grid = GridGeometry(grid_shape)
    part = Partition(grid, dims)
    ndims = len(grid_shape)
    reference = global_field(grid_shape)
    ghosts = GhostSpec(tuple(dist for _ in range(ndims)))
    dim_map = tuple(range(ndims))

    def body(comm):
        cart = CartComm(comm, dims)
        sub = part.subgrid(comm.rank)
        bounds = ghost_bounds(part, comm.rank, dim_map,
                              [(1, n) for n in grid_shape], ghosts)
        local = OffsetArray.from_bounds(bounds, name="v")
        local.set_section(list(sub.owned),
                          reference.section(list(sub.owned)))
        spec = HaloSpec(local, dim_map, sub.owned,
                        tuple(dist for _ in range(ndims)))
        ex = HaloExchanger(cart, [spec])
        ex.begin()
        if mutate_between:
            # interior compute may rewrite owned cells while messages
            # fly; faces were packed at begin(), so neighbors must still
            # receive the pre-mutation values
            local.set_section(
                list(sub.owned),
                np.full_like(reference.section(list(sub.owned)), -7.0))
        ex.finish()
        got = local.section(local.bounds)
        want = reference.section(local.bounds)
        if mutate_between:
            # owned block was overwritten locally; only check ghosts
            owned_slices = tuple(
                slice(lo - b[0], hi - b[0] + 1)
                for (lo, hi), b in zip(sub.owned, local.bounds))
            mask = np.ones(got.shape, dtype=bool)
            mask[owned_slices] = False
            assert np.array_equal(got[mask], want[mask]), \
                f"rank {comm.rank}: ghosts saw post-begin mutations"
        else:
            assert np.array_equal(got, want), \
                f"rank {comm.rank} ghost mismatch"
        return True

    w = spmd_run(int(np.prod(dims)), body)
    assert all(w.results)
    return w


class TestBeginFinish:
    def test_1d_two_ranks(self):
        overlapped_run((12,), (2,), (1, 1))

    def test_1d_distance_two(self):
        overlapped_run((16,), (4,), (2, 2))

    def test_2d_one_cut_dim(self):
        overlapped_run((8, 8), (2, 1), (1, 1))

    def test_faces_packed_at_begin_not_finish(self):
        # the double-buffer contract: mutations between begin and finish
        # never reach the neighbors
        overlapped_run((12,), (2,), (1, 1), mutate_between=True)

    def test_trace_records_overlap_and_exchange(self):
        w = overlapped_run((12,), (2,), (1, 1))
        assert w.trace.count("overlap") == 2  # one per rank
        assert w.trace.count("exchange") == 2

    def test_double_begin_raises(self):
        def body(comm):
            cart = CartComm(comm, (2,))
            sub_owned = ((1, 6),) if comm.rank == 0 else ((7, 12),)
            a = OffsetArray.from_bounds(
                [(1, 7)] if comm.rank == 0 else [(6, 12)], name="v")
            spec = HaloSpec(a, (0,), sub_owned, ((1, 1),))
            ex = HaloExchanger(cart, [spec])
            ex.begin()
            if comm.rank == 0:
                ex.begin()  # second begin without finish
            ex.finish()

        with pytest.raises(RuntimeCommError, match="begun twice"):
            spmd_run(2, body, timeout=5.0)

    def test_finish_without_begin_raises(self):
        def body(comm):
            cart = CartComm(comm, (2,))
            sub_owned = ((1, 6),) if comm.rank == 0 else ((7, 12),)
            a = OffsetArray.from_bounds(
                [(1, 7)] if comm.rank == 0 else [(6, 12)], name="v")
            spec = HaloSpec(a, (0,), sub_owned, ((1, 1),))
            HaloExchanger(cart, [spec]).finish()

        with pytest.raises(RuntimeCommError, match="without begin"):
            spmd_run(2, body, timeout=5.0)


class TestTagSpaceGuard:
    """halo_tag must never stride into the pipeline tag space (1 << 17)."""

    def test_last_valid_point_stays_below_pipeline_base(self):
        tag = halo_tag(MAX_HALO_POINTS - 1, 2, 1)
        assert tag < (1 << 17)

    def test_point_id_at_limit_rejected(self):
        # the seed accepted this id and emitted tags >= 1 << 17, which a
        # pipeline transfer with pipe_id 0 would have consumed
        with pytest.raises(RuntimeCommError, match="pipeline tag space"):
            halo_tag(MAX_HALO_POINTS, 0, -1)

    def test_negative_point_id_rejected(self):
        with pytest.raises(RuntimeCommError):
            halo_tag(-1, 0, -1)

    def test_exchanger_rejects_oversized_point_id_at_construction(self):
        with pytest.raises(RuntimeCommError, match="tag space"):
            HaloExchanger(None, [], point_id=MAX_HALO_POINTS)

    def test_exchanger_accepts_max_valid_point_id(self):
        ex = HaloExchanger(None, [], point_id=MAX_HALO_POINTS - 1)
        assert ex.point_id == MAX_HALO_POINTS - 1
