"""Aggregated halo exchange over distributed OffsetArrays."""

import numpy as np
import pytest

from repro.errors import RuntimeCommError
from repro.interp.values import OffsetArray
from repro.partition.grid import GridGeometry
from repro.partition.halo import GhostSpec, ghost_bounds
from repro.partition.partitioner import Partition
from repro.runtime import (BufferPool, CartComm, HaloExchanger, HaloSpec,
                           spmd_run)


def global_field(shape):
    """A distinguishable global array: value encodes the coordinates."""
    arr = OffsetArray(tuple(shape))
    it = np.ndindex(*shape)
    for idx in it:
        arr.data[idx] = sum((c + 1) * 100 ** d for d, c in enumerate(idx))
    return arr


def distributed_run(grid_shape, dims, dist, arrays=1):
    """Each rank owns a block + ghosts; after exchange, every ghost cell
    must equal the global field value at its coordinate."""
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
        locals_ = []
        for _k in range(arrays):
            local = OffsetArray.from_bounds(bounds, name="v")
            local.set_section(list(sub.owned),
                              reference.section(list(sub.owned)))
            locals_.append(local)
        specs = [HaloSpec(a, dim_map, sub.owned,
                          tuple(dist for _ in range(ndims)))
                 for a in locals_]
        HaloExchanger(cart, specs).exchange()
        # every cell of the local array (owned + ghost) now matches
        for a in locals_:
            got = a.section(a.bounds)
            want = reference.section(a.bounds)
            assert np.array_equal(got, want), \
                f"rank {comm.rank} ghost mismatch"
        return True

    w = spmd_run(int(np.prod(dims)), body)
    assert all(w.results)
    return w


class TestExchange1D:
    def test_two_ranks(self):
        distributed_run((12,), (2,), (1, 1))

    def test_four_ranks(self):
        distributed_run((13,), (4,), (1, 1))

    def test_distance_two(self):
        distributed_run((16,), (2,), (2, 2))

    def test_asymmetric_distance(self):
        distributed_run((16,), (4,), (2, 0))


class TestExchange2D:
    def test_2x2(self):
        distributed_run((8, 8), (2, 2), (1, 1))

    def test_4x1(self):
        distributed_run((8, 6), (4, 1), (1, 1))

    def test_2x3_uneven(self):
        distributed_run((7, 9), (2, 3), (1, 1))

    def test_corners_via_two_phase(self):
        # the dimension-ordered exchange must deliver diagonal values
        # (needed by 9-point stencils); checked by full-field equality
        distributed_run((6, 6), (2, 2), (1, 1))


class TestExchange3D:
    def test_2x2x2(self):
        distributed_run((6, 6, 6), (2, 2, 2), (1, 1))

    def test_3x2x1(self):
        distributed_run((9, 6, 4), (3, 2, 1), (1, 1))


class TestAggregation:
    def test_multiple_arrays_one_message_per_neighbor(self):
        w = distributed_run((12,), (2,), (1, 1), arrays=3)
        sends = w.trace.messages(rank=0)
        # one aggregated message to the single neighbor (3 arrays inside)
        assert len(sends) == 1

    def test_exchange_event_recorded(self):
        w = distributed_run((12,), (2,), (1, 1))
        assert w.trace.count("exchange") == 2  # one per rank


class TestZeroCopyPool:
    def test_exchange_saves_copies_and_reuses_buffers(self):
        grid_shape, dims, dist = (64,), (2,), (2, 2)
        grid = GridGeometry(grid_shape)
        part = Partition(grid, dims)
        reference = global_field(grid_shape)
        ghosts = GhostSpec((dist,))
        pool = BufferPool()

        def body(comm):
            cart = CartComm(comm, dims)
            sub = part.subgrid(comm.rank)
            bounds = ghost_bounds(part, comm.rank, (0,),
                                  [(1, grid_shape[0])], ghosts)
            local = OffsetArray.from_bounds(bounds, name="v")
            local.set_section(list(sub.owned),
                              reference.section(list(sub.owned)))
            spec = HaloSpec(local, (0,), sub.owned, (dist,))
            ex = HaloExchanger(cart, [spec], pool=pool)
            ex.exchange()
            comm.barrier()  # round 1's buffers are all back in the pool
            ex.exchange()
            got = local.section(local.bounds)
            assert np.array_equal(got, reference.section(local.bounds))
            return True

        w = spmd_run(2, body)
        assert all(w.results)
        # the move path shipped each face without a send-side copy
        assert w.trace.saved_bytes() > 0
        stats = pool.stats()
        assert stats["hits"] > 0, "second exchange did not reuse buffers"
        assert stats["reused_bytes"] > 0

    def test_pool_recycles_released_buffers(self):
        pool = BufferPool()
        a = pool.acquire((4, 3), np.float64)
        pool.release(a)
        b = pool.acquire((4, 3), np.float64)
        assert b is a
        assert pool.stats() == {"hits": 1, "misses": 1,
                                "reused_bytes": a.nbytes, "pooled": 0,
                                "outstanding": 1, "leaks": 0, "drains": 0}
        # different shape or dtype must not alias
        c = pool.acquire((3, 4), np.float64)
        assert c is not a
        pool.release(b)
        d = pool.acquire((4, 3), np.float32)
        assert d is not b


class TestMixedDtype:
    def test_zero_width_face_keeps_spec_dtype(self):
        # a default-float64 empty here ships a mismatched section when
        # integer status arrays ride in an aggregated exchange
        a = OffsetArray((6,), dtype=np.int32, name="s")
        spec = HaloSpec(a, (0,), ((1, 6),), ((1, 0),))
        face = spec.send_section(0, -1)  # plus-distance 0: empty face
        assert face.size == 0
        assert face.dtype == np.int32

    def test_mixed_dtype_aggregated_exchange(self):
        # one float and one integer array in the same exchanger, with an
        # asymmetric distance so zero-width faces actually travel
        grid_shape, dims, dist = (12,), (2,), (2, 0)
        grid = GridGeometry(grid_shape)
        part = Partition(grid, dims)
        ref_f = global_field(grid_shape)
        ref_i = OffsetArray(grid_shape, dtype=np.int64)
        ref_i.data[:] = np.arange(grid_shape[0]) * 7 + 1
        ghosts = GhostSpec((dist,))

        def body(comm):
            cart = CartComm(comm, dims)
            sub = part.subgrid(comm.rank)
            bounds = ghost_bounds(part, comm.rank, (0,),
                                  [(1, grid_shape[0])], ghosts)
            lf = OffsetArray.from_bounds(bounds, name="f")
            li = OffsetArray.from_bounds(bounds, dtype=np.int64, name="s")
            lf.set_section(list(sub.owned),
                           ref_f.section(list(sub.owned)))
            li.set_section(list(sub.owned),
                           ref_i.section(list(sub.owned)))
            specs = [HaloSpec(a, (0,), sub.owned, (dist,))
                     for a in (lf, li)]
            HaloExchanger(cart, specs).exchange()
            assert li.data.dtype == np.int64
            assert np.array_equal(lf.section(lf.bounds),
                                  ref_f.section(lf.bounds))
            assert np.array_equal(li.section(li.bounds),
                                  ref_i.section(li.bounds))
            return True

        w = spmd_run(2, body)
        assert all(w.results)


#: (rank, kind, peer, nbytes, tag) of every event of one exchange() followed
#: by one begin()/finish() of combined point 3, rank by rank in program
#: order: float64 "f" and int32 "s" on an 8x6 grid cut 2x2, ghost widths
#: (1, 1) along dim 0 and (1, 0) along dim 1, so the dim-1 face shipped
#: toward the minus side is zero-width.  Taken from the per-call
#: implementation the face plan replaced.
PLAN_TRACE = [
    (0, 'halo_pack', None, 36, 65730),
    (0, 'send', 2, 36, 65730),
    (0, 'recv', 2, 36, 65728),
    (0, 'halo_unpack', None, 36, 65728),
    (0, 'halo_pack', None, 60, 65734),
    (0, 'send', 1, 60, 65734),
    (0, 'recv', 1, 0, 65732),
    (0, 'halo_unpack', None, 0, 65732),
    (0, 'exchange', None, 0, 3),
    (0, 'halo_pack', None, 36, 65730),
    (0, 'send', 2, 36, 65730),
    (0, 'halo_pack', None, 60, 65734),
    (0, 'send', 1, 60, 65734),
    (0, 'overlap', None, 0, 3),
    (0, 'recv', 2, 36, 65728),
    (0, 'halo_unpack', None, 36, 65728),
    (0, 'recv', 1, 0, 65732),
    (0, 'halo_unpack', None, 0, 65732),
    (0, 'exchange', None, 0, 3),
    (1, 'halo_pack', None, 48, 65730),
    (1, 'send', 3, 48, 65730),
    (1, 'recv', 3, 48, 65728),
    (1, 'halo_unpack', None, 48, 65728),
    (1, 'halo_pack', None, 0, 65732),
    (1, 'send', 0, 0, 65732),
    (1, 'recv', 0, 60, 65734),
    (1, 'halo_unpack', None, 60, 65734),
    (1, 'exchange', None, 0, 3),
    (1, 'halo_pack', None, 48, 65730),
    (1, 'send', 3, 48, 65730),
    (1, 'halo_pack', None, 0, 65732),
    (1, 'send', 0, 0, 65732),
    (1, 'overlap', None, 0, 3),
    (1, 'recv', 3, 48, 65728),
    (1, 'halo_unpack', None, 48, 65728),
    (1, 'recv', 0, 60, 65734),
    (1, 'halo_unpack', None, 60, 65734),
    (1, 'exchange', None, 0, 3),
    (2, 'halo_pack', None, 36, 65728),
    (2, 'send', 0, 36, 65728),
    (2, 'recv', 0, 36, 65730),
    (2, 'halo_unpack', None, 36, 65730),
    (2, 'halo_pack', None, 60, 65734),
    (2, 'send', 3, 60, 65734),
    (2, 'recv', 3, 0, 65732),
    (2, 'halo_unpack', None, 0, 65732),
    (2, 'exchange', None, 0, 3),
    (2, 'halo_pack', None, 36, 65728),
    (2, 'send', 0, 36, 65728),
    (2, 'halo_pack', None, 60, 65734),
    (2, 'send', 3, 60, 65734),
    (2, 'overlap', None, 0, 3),
    (2, 'recv', 0, 36, 65730),
    (2, 'halo_unpack', None, 36, 65730),
    (2, 'recv', 3, 0, 65732),
    (2, 'halo_unpack', None, 0, 65732),
    (2, 'exchange', None, 0, 3),
    (3, 'halo_pack', None, 48, 65728),
    (3, 'send', 1, 48, 65728),
    (3, 'recv', 1, 48, 65730),
    (3, 'halo_unpack', None, 48, 65730),
    (3, 'halo_pack', None, 0, 65732),
    (3, 'send', 2, 0, 65732),
    (3, 'recv', 2, 60, 65734),
    (3, 'halo_unpack', None, 60, 65734),
    (3, 'exchange', None, 0, 3),
    (3, 'halo_pack', None, 48, 65728),
    (3, 'send', 1, 48, 65728),
    (3, 'halo_pack', None, 0, 65732),
    (3, 'send', 2, 0, 65732),
    (3, 'overlap', None, 0, 3),
    (3, 'recv', 1, 48, 65730),
    (3, 'halo_unpack', None, 48, 65730),
    (3, 'recv', 2, 60, 65734),
    (3, 'halo_unpack', None, 60, 65734),
    (3, 'exchange', None, 0, 3),
]


class TestFacePlan:
    def test_trace_accounting_is_literal(self):
        grid_shape, dims = (8, 6), (2, 2)
        dist = ((1, 1), (1, 0))
        part = Partition(GridGeometry(grid_shape), dims)

        def body(comm):
            sub = part.subgrid(comm.rank)
            bounds = ghost_bounds(part, comm.rank, (0, 1),
                                  [(1, n) for n in grid_shape],
                                  GhostSpec(dist))
            arrays = (OffsetArray.from_bounds(bounds, name="f"),
                      OffsetArray.from_bounds(bounds, dtype=np.int32,
                                              name="s"))
            ex = HaloExchanger(CartComm(comm, dims),
                               [HaloSpec(a, (0, 1), sub.owned, dist)
                                for a in arrays], point_id=3)
            ex.exchange()
            comm.barrier()  # keep the split round's messages apart
            ex.begin()
            ex.finish()

        events = spmd_run(4, body).trace.snapshot()
        got = [(e.rank, e.kind, e.peer, e.nbytes, e.tag)
               for rank in range(4) for e in events
               if e.rank == rank and e.kind not in ("barrier", "rank")]
        assert got == PLAN_TRACE

    def test_reused_exchanger_delivers_corners_3x3(self):
        # nine-point corners ride the two-phase order: dim 1's faces must
        # be packed after dim 0's ghosts landed on *every* round, so a
        # plan that snapshotted values (not views) fails from round 2 on
        grid_shape, dims, dist = (9, 9), (3, 3), ((1, 1), (1, 1))
        part = Partition(GridGeometry(grid_shape), dims)
        reference = global_field(grid_shape)

        def body(comm):
            sub = part.subgrid(comm.rank)
            bounds = ghost_bounds(part, comm.rank, (0, 1),
                                  [(1, n) for n in grid_shape],
                                  GhostSpec(dist))
            local = OffsetArray.from_bounds(bounds, name="v")
            ex = HaloExchanger(CartComm(comm, dims),
                               [HaloSpec(local, (0, 1), sub.owned, dist)])
            owned = list(sub.owned)
            for round_ in range(1, 4):
                local.fill(-1.0)
                local.set_section(owned,
                                  reference.section(owned) * round_)
                ex.exchange()
                assert np.array_equal(
                    local.section(local.bounds),
                    reference.section(local.bounds) * round_), \
                    f"rank {comm.rank} round {round_}"
            return True

        assert all(spmd_run(9, body).results)


class TestErrors:
    def test_payload_count_mismatch(self):
        def body(comm):
            cart = CartComm(comm, (2,))
            a = OffsetArray.from_bounds([(1, 6)], name="v")
            sub_owned = ((1, 5),) if comm.rank == 0 else ((6, 10),)
            a = OffsetArray.from_bounds(
                [(1, 6)] if comm.rank == 0 else [(5, 10)], name="v")
            spec = HaloSpec(a, (0,), sub_owned, ((1, 1),))
            if comm.rank == 0:
                # rank 0 sends two arrays, rank 1 expects one
                HaloExchanger(cart, [spec, spec]).exchange()
            else:
                HaloExchanger(cart, [spec]).exchange()

        with pytest.raises(RuntimeCommError):
            spmd_run(2, body, timeout=5.0)

    def test_dim_map_rank_mismatch(self):
        a = OffsetArray((4, 4))
        with pytest.raises(RuntimeCommError):
            HaloSpec(a, (0,), ((1, 4), (1, 4)), ((1, 1), (1, 1)))
