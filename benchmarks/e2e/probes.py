"""Runtime probes: the message path timed from outside the program.

Each probe runs on the workload's executor and times, on rank 0 between
two clock reads around a loop, one primitive the generated programs
lean on.  Rank bodies are module-level so the process executor can
pickle them.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

from repro.interp.values import OffsetArray
from repro.partition.grid import GridGeometry
from repro.partition.halo import GhostSpec, ghost_bounds
from repro.partition.partitioner import Partition
from repro.runtime import CartComm, HaloExchanger, HaloSpec, spmd_run

ROUNDS = 200
LAUNCHES = 20


def _timed(rounds: int, step) -> float:
    """Seconds per call of *step*, after a tenth as many warm-up calls."""
    for _ in range(rounds // 10):
        step()
    t0 = time.perf_counter()
    for _ in range(rounds):
        step()
    return (time.perf_counter() - t0) / rounds


def _noop(comm):
    return None


def _pingpong(rounds: int, comm):
    payload = np.zeros(1024)  # 8 KiB of float64

    def step():
        if comm.rank == 0:
            comm.send(1, payload, tag=7)
            comm.recv(source=1, tag=7)
        else:
            comm.send(0, comm.recv(source=0, tag=7), tag=7)

    return _timed(rounds, step)


def _halo(rounds: int, grid: tuple, dims: tuple, narrays: int, comm):
    """All status arrays of the workload in one aggregated exchange,
    ghost width 1, over the workload's own partition."""
    part = Partition(GridGeometry(grid), dims)
    dim_map = tuple(range(len(grid)))
    width = tuple((1, 1) for _ in grid)
    bounds = ghost_bounds(part, comm.rank, dim_map,
                          [(1, n) for n in grid], GhostSpec(width))
    owned = part.subgrid(comm.rank).owned
    specs = [HaloSpec(OffsetArray.from_bounds(bounds, name=f"a{k}"),
                      dim_map, owned, width) for k in range(narrays)]
    ex = HaloExchanger(CartComm(comm, dims), specs)

    def split():
        ex.begin()
        ex.finish()

    return {"exchange": _timed(rounds, ex.exchange),
            "split": _timed(rounds, split),
            "allreduce": _timed(rounds, lambda: comm.allreduce(1.0))}


def run(workload) -> dict:
    """Every probe for *workload*; call before anything else has used the
    executor, so the first launch still pays for spawning the pool."""
    executor = workload.executor
    nranks = 1
    for p in workload.partition:
        nranks *= p

    t0 = time.perf_counter()
    spmd_run(2, _noop, executor=executor)
    first = time.perf_counter() - t0
    launches = []
    for _ in range(LAUNCHES):
        t0 = time.perf_counter()
        spmd_run(2, _noop, executor=executor)
        launches.append(time.perf_counter() - t0)
    launch = statistics.median(launches)

    pingpong = spmd_run(2, functools.partial(_pingpong, ROUNDS),
                        executor=executor).results[0]
    prog = workload.program
    halo = spmd_run(nranks,
                    functools.partial(_halo, ROUNDS, prog.grid,
                                      workload.partition,
                                      prog.status_arrays),
                    executor=executor).results[0]
    return {"runtime.pingpong_us": pingpong * 1e6,
            "runtime.exchange_us": halo["exchange"] * 1e6,
            "runtime.exchange_split_us": halo["split"] * 1e6,
            "runtime.allreduce_us": halo["allreduce"] * 1e6,
            "runtime.spmd_launch_ms": launch * 1e3,
            "runtime.pool_spawn_ms": (first - launch) * 1e3}
