"""The per-rank runtime behind the generated ``acfd_*`` calls.

The restructured SPMD program is rank-agnostic; every rank-dependent value
flows through one of these methods (the generated Python maps a call
``acfd_xyz(...)`` onto ``ctx.rt.xyz(...)``):

======================  ====================================================
``acfd_rank()``          this rank's id
``acfd_nprocs()``        world size
``acfd_lo(g)``           owned lower bound of grid dim *g* (1-based dim)
``acfd_hi(g)``           owned upper bound
``acfd_owns(g, c)``      does this rank own grid coordinate *c* on dim *g*
``acfd_lb(name, k)``     local declaration lower bound of array dim *k*
``acfd_ub(name, k)``     local declaration upper bound (ghosts included)
``acfd_exchange(k, …)``  aggregated halo exchange for combined sync *k*
``acfd_pipe_recv(p, …)`` pipeline receive before a self-dependent sweep
``acfd_pipe_send(p, …)`` pipeline send after a self-dependent sweep
``acfd_allreduce_*``     global max/min/sum of a scalar
``acfd_bcast(x)``        broadcast from rank 0
``acfd_barrier()``       barrier
``acfd_frame(it, …)``    frame boundary: checkpoint / restore / faults
======================  ====================================================
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from repro.codegen.plan import ParallelPlan
from repro.errors import CheckpointError, RuntimeCommError
from repro.interp.values import OffsetArray
from repro.partition.grid import split_extent
from repro.partition.halo import ghost_bounds
from repro.runtime.cart import CartComm
from repro.runtime.comm import Communicator
from repro.runtime.halo import HaloExchanger, HaloSpec, PipeExchanger


def _same_arrays(specs: list[HaloSpec], arrays) -> bool:
    """Were *specs* built for exactly these array objects?"""
    if len(specs) != len(arrays):
        return False
    for spec, arr in zip(specs, arrays):
        if spec.array is not arr:
            return False
    return True


class RankRuntime:
    """One rank's view of the parallel execution (the ``ctx.rt`` object)."""

    def __init__(self, comm: Communicator, plan: ParallelPlan, *,
                 faults=None, checkpoints=None) -> None:
        self.comm = comm
        self.plan = plan
        self.partition = plan.partition
        if comm.size != self.partition.size:
            raise RuntimeCommError(
                f"plan wants {self.partition.size} ranks, world has "
                f"{comm.size}")
        self.cart = CartComm(comm, self.partition.dims)
        self.subgrid = self.partition.subgrid(comm.rank)
        #: kept for the life of the run: one exchanger per combined sync
        #: id, one per pipe id (their face plans are frame-invariant)
        self._syncs: dict[int, HaloExchanger] = {}
        self._pipes: dict[int, PipeExchanger] = {}
        #: local declaration bounds per array name, filled on first use
        self._bounds: dict[str, list[tuple[int, int]]] = {}
        #: per grid dim, the owned (lo, hi) range of every slice
        self._slices = [split_extent(n, p) for n, p in
                        zip(self.partition.grid.shape, self.partition.dims)]
        #: optional :class:`repro.faults.FaultInjector`
        self.faults = faults
        #: optional :class:`repro.faults.Checkpointer`
        self.checkpoints = checkpoints
        self._ctx = None
        self._restored = False
        #: frame-loop trips ``frame`` let through since the run started
        #: or was restored; past the first, syncs send ``steady`` only
        self._trips = 0

    def bind_ctx(self, ctx) -> None:
        """Attach the rank's execution context (COMMON-block storage) so
        frame checkpoints can snapshot state the hook's arguments miss."""
        self._ctx = ctx

    # -- identity / geometry -----------------------------------------------------

    def rank(self) -> int:
        return self.comm.rank

    def nprocs(self) -> int:
        return self.comm.size

    def lo(self, g: int) -> int:
        """Owned lower bound of grid dim *g* (1-based)."""
        return self.subgrid.owned[g - 1][0]

    def hi(self, g: int) -> int:
        return self.subgrid.owned[g - 1][1]

    def owns(self, g: int, c) -> bool:
        lo, hi = self.subgrid.owned[g - 1]
        return lo <= int(c) <= hi

    def lb(self, name: str, adim: int) -> int:
        return self._local_bounds(name)[adim - 1][0]

    def ub(self, name: str, adim: int) -> int:
        return self._local_bounds(name)[adim - 1][1]

    def _local_bounds(self, name: str) -> list[tuple[int, int]]:
        bounds = self._bounds.get(name)
        if bounds is None:
            ap = self.plan.arrays[name]
            bounds = self._bounds[name] = ghost_bounds(
                self.partition, self.comm.rank, ap.dim_map,
                ap.original_bounds, ap.ghosts)
        return bounds

    # -- communication -------------------------------------------------------------

    def _specs(self, what: str, named_dists, arrays) -> list[HaloSpec]:
        """Halo specs pairing *arrays* with the (name, per-grid-dim
        (minus, plus) distances) list the plan holds for sync or pipe
        *what*."""
        if len(arrays) != len(named_dists):
            raise RuntimeCommError(
                f"{what}: {len(arrays)} arrays passed, plan has "
                f"{len(named_dists)}")
        return [HaloSpec(array=arr, dim_map=self.plan.arrays[name].dim_map,
                         owned=self.subgrid.owned, dist=dist)
                for (name, dist), arr in zip(named_dists, arrays)]

    def _sync_exchanger(self, sync_id: int, arrays) -> HaloExchanger | None:
        """The exchanger kept for combined sync *sync_id*; built on first
        use, and again whenever the call passes other array objects (a
        subroutine-local array re-created per call), since its face plan
        holds views of the arrays it was built for.

        From the second trip on only the sync's ``steady`` members travel
        (the entry-only ones are still fresh, see
        :mod:`repro.sync.freshness`): the exchanger is rebuilt once for
        the shorter list, and None stands for "nothing left to send"."""
        sync = self.plan.syncs[sync_id - 1]
        members = sync.arrays
        if self._trips > 1 and len(sync.steady) < len(members):
            arrays = [arr for arr, (name, _d) in zip(arrays, members)
                      if name not in sync.entry_only]
            members = sync.steady
            if not members:
                return None
        ex = self._syncs.get(sync_id)
        if ex is None or not _same_arrays(ex.specs, arrays):
            if ex is not None and ex.in_flight:
                raise RuntimeCommError(
                    f"sync {sync_id}: arrays changed while a begun "
                    f"exchange is unfinished")
            dims = range(self.plan.directives.ndims)
            named_dists = [
                (name, tuple(dists.get(g, (0, 0)) for g in dims))
                for name, dists in members]
            ex = self._syncs[sync_id] = HaloExchanger(
                self.cart,
                self._specs(f"sync {sync_id}", named_dists, arrays),
                point_id=sync_id)
        return ex

    def _in_halo(self, step) -> None:
        """Run exchange step *step* with live telemetry (if any) showing
        the rank in the halo state."""
        tele = self.comm.telemetry
        if tele is None:
            step()
            return
        prev = tele.enter(3)  # S_HALO
        try:
            step()
        finally:
            tele.enter(prev)

    def exchange(self, sync_id: int, *arrays: OffsetArray) -> None:
        """Aggregated halo exchange for combined sync point *sync_id*."""
        ex = self._sync_exchanger(int(sync_id), arrays)
        if ex is not None:
            self._in_halo(ex.exchange)

    def exchange_begin(self, sync_id: int, *arrays: OffsetArray) -> None:
        """Post the aggregated exchange nonblocking (overlap path).

        Until the matching ``exchange_finish`` the generated program runs
        the interior of the split consumer nest while the halo messages
        are in flight.
        """
        ex = self._sync_exchanger(int(sync_id), arrays)
        if ex is not None:
            self._in_halo(ex.begin)

    def exchange_finish(self, sync_id: int, *arrays: OffsetArray) -> None:
        """Wait on a begun exchange and unpack every ghost face."""
        sync_id = int(sync_id)
        ex = self._syncs.get(sync_id)
        if ex is None:
            raise RuntimeCommError(
                f"sync {sync_id}: exchange_finish without a begin")
        self._in_halo(ex.finish)

    def _pipe_exchanger(self, pipe_id: int, arrays) -> PipeExchanger:
        """The transfer plan kept for pipe *pipe_id* (see
        :meth:`_sync_exchanger` for when it is rebuilt)."""
        ex = self._pipes.get(pipe_id)
        if ex is None or not _same_arrays(ex.specs, arrays):
            pipe = self.plan.pipes[pipe_id - 1]
            uses = pipe.field_loop.uses
            dims = range(self.plan.directives.ndims)
            named_dists = [
                (name, tuple(uses[name].max_read_distance(g)
                             if name in uses else (0, 0) for g in dims))
                for name in pipe.arrays]
            ex = self._pipes[pipe_id] = PipeExchanger(
                self.cart,
                self._specs(f"pipe {pipe_id}", named_dists, arrays),
                pipe_id, pipe.pipeline_dims)
        return ex

    def pipe_recv(self, pipe_id: int, *arrays: OffsetArray) -> None:
        """Blocking receive of pipelined new values from minus neighbors."""
        self._pipe_exchanger(int(pipe_id), arrays).recv()

    def pipe_send(self, pipe_id: int, *arrays: OffsetArray) -> None:
        """Ship freshly computed plus-edge layers down the pipeline."""
        self._pipe_exchanger(int(pipe_id), arrays).send()

    # -- element probes -----------------------------------------------------------

    def get(self, array: OffsetArray, *subs) -> float:
        """Fetch one element of a distributed array, collectively.

        The owning rank broadcasts the value; every rank must call this
        (the restructurer emits the call outside any rank guard).
        """
        ap = self.plan.arrays[array.name]
        owner = self._owner_of(ap, [int(s) for s in subs])
        value = None
        if self.comm.rank == owner:
            value = array.get(*[int(s) for s in subs])
        return self.comm.bcast(value, root=owner)

    def _owner_of(self, ap, subs: list[int]) -> int:
        """Rank owning the grid point addressed by *subs*."""
        coords = []
        for g in range(self.partition.ndims):
            point = None
            for adim, mapped in enumerate(ap.dim_map):
                if mapped == g:
                    point = subs[adim]
                    break
            if point is None:
                coords.append(0)
                continue
            # locate the partition slice containing this grid point
            ranges = self._slices[g]
            for c, (lo, hi) in enumerate(ranges):
                if lo <= point <= hi:
                    coords.append(c)
                    break
            else:
                # boundary padding beyond the grid belongs to edge ranks
                coords.append(0 if point < ranges[0][0]
                              else self.partition.dims[g] - 1)
        return self.partition.rank_of(tuple(coords))

    # -- reductions / broadcast ------------------------------------------------------

    def allreduce_max(self, value):
        return self.comm.allreduce(value, "max")

    def allreduce_min(self, value):
        return self.comm.allreduce(value, "min")

    def allreduce_sum(self, value):
        return self.comm.allreduce(value, "sum")

    def bcast(self, value):
        return self.comm.bcast(value, root=0)

    def barrier(self) -> None:
        self.comm.barrier()

    # -- frame boundary (checkpoint / restore / fault injection) -------------------

    def frame(self, it, *arrays) -> int:
        """The ``acfd_frame`` hook at the top of the time loop.

        Returns 1 when the frame must be skipped (the generated code
        ``cycle``s): during recovery, frames before the restore point are
        fast-forwarded — their effects are already inside the checkpoint.
        Order matters: a due checkpoint is written *before* faults fire,
        so an injected crash at frame N leaves a frame-N snapshot to
        restore from.
        """
        it = int(it)
        record = self.comm.record
        if record is not None:
            now = perf_counter_ns()
            record("frame", None, 0, it, 0, now, now)
        ck = self.checkpoints
        if ck is not None:
            restore = ck.restore_frame
            if restore is not None and not self._restored:
                if it < restore:
                    return 1
                self._restore(it, arrays)
            elif ck.due(it):
                self._save(it, arrays)
        if self.faults is not None:
            self.faults.on_frame(self.comm.rank, it)
        self._trips += 1
        return 0

    def _snapshot(self, arrays) -> tuple[dict, dict]:
        """Split live state into (hook arrays by name, COMMON slots)."""
        commons: dict[tuple[str, int], object] = {}
        seen: set[int] = set()
        if self._ctx is not None:
            for block, slots in self._ctx.commons.items():
                for pos, slot in enumerate(slots):
                    if isinstance(slot, OffsetArray):
                        commons[(block, pos)] = slot.data
                        seen.add(id(slot))
                    else:
                        commons[(block, pos)] = slot
        named = {}
        for arr in arrays:
            # COMMON-resident status arrays are captured via their slot;
            # only function-local arrays need the by-name channel
            if isinstance(arr, OffsetArray) and id(arr) not in seen:
                named[arr.name] = arr.data
        return named, commons

    def _save(self, frame: int, arrays) -> None:
        t0 = perf_counter_ns()
        named, commons = self._snapshot(arrays)
        nbytes = self.checkpoints.save(self.comm.rank, frame, named,
                                       commons)
        if self.comm.record is not None:
            self.comm.record("checkpoint", None, nbytes, frame, 0,
                             t0, perf_counter_ns())

    def _restore(self, frame: int, arrays) -> None:
        t0 = perf_counter_ns()
        state = self.checkpoints.load(self.comm.rank)
        by_name = {arr.name: arr for arr in arrays
                   if isinstance(arr, OffsetArray)}
        nbytes = 0
        for name, saved in state.arrays.items():
            target = by_name.get(name)
            if target is None:
                raise CheckpointError(
                    f"rank {self.comm.rank}: checkpointed array {name!r} "
                    f"is not among the frame hook's arguments")
            # write *into* the live buffers, never rebind .data: the kept
            # exchangers' face plans hold views of them, and in-place
            # restore is what lets those plans survive recovery
            np.copyto(target.data, saved)
            nbytes += saved.nbytes
        for (block, pos), saved in state.commons.items():
            try:
                slot = self._ctx.commons[block][pos]
            except (TypeError, KeyError, IndexError):
                raise CheckpointError(
                    f"rank {self.comm.rank}: checkpointed COMMON slot "
                    f"/{block}/[{pos}] does not exist in this program")
            if isinstance(slot, OffsetArray):
                np.copyto(slot.data, saved)
            else:
                # scalar slot: generated code re-reads through the
                # commons list, so rebinding the entry is enough
                self._ctx.commons[block][pos] = saved.item()
            nbytes += saved.nbytes
        self._restored = True
        # restored ghosts are not vouched for: the trip that follows sends
        # every member, as the first trip of a run does
        self._trips = 0
        if self.comm.record is not None:
            self.comm.record("restore", None, nbytes, frame, 0,
                             t0, perf_counter_ns())
