"""In-process message-passing runtime (the cluster substrate).

The paper ran generated programs over PVM/MPI on a 6-node Pentium cluster.
No MPI implementation is available here, so this package provides a
from-scratch MPI-like runtime executing SPMD rank functions on threads:

* :func:`repro.runtime.world.spmd_run` — launch ``P`` ranks;
* :class:`repro.runtime.comm.Communicator` — point-to-point
  (send/recv/isend/irecv/sendrecv) and collectives (barrier, bcast,
  reduce, allreduce, gather, allgather, scatter);
* :class:`repro.runtime.comm.DeadlockDetector` — snapshots what every
  rank is blocked on and fails the world with the wait-for cycle when no
  progress is possible;
* :class:`repro.runtime.cart.CartComm` — Cartesian topology with shifts;
* :class:`repro.runtime.halo.HaloExchanger` — aggregated ghost-cell
  exchange for a set of status arrays (the runtime realisation of the
  paper's combined synchronizations); in-process its faces are packed
  through a shared :class:`repro.runtime.halo.BufferPool`;
* :class:`repro.runtime.trace.Trace` — per-rank message/sync counters
  plus wait-time and copy-savings accounting used to cross-check the
  compiler's predicted synchronization counts and feed the simulator.

Delivery semantics: receives match per (source, tag) with FIFO order per
pair; blocked receivers sleep on condition variables and are woken by the
matching ``put`` — there is no polling tick.  Payloads are copied once on
send (MPI buffered mode), except on the ``move=True`` fast path where the
sender hands over a freshly packed buffer — halo and pipeline exchanges
use it so each face section is copied exactly once.
"""

from repro.runtime.comm import Communicator, DeadlockDetector, Request
from repro.runtime.world import spmd_run, World
from repro.runtime.cart import CartComm
from repro.runtime.halo import BufferPool, HaloExchanger, HaloSpec, shared_pool
from repro.runtime.trace import Trace, TraceEvent

__all__ = [
    "Communicator",
    "DeadlockDetector",
    "Request",
    "World",
    "spmd_run",
    "CartComm",
    "BufferPool",
    "HaloExchanger",
    "HaloSpec",
    "shared_pool",
    "Trace",
    "TraceEvent",
]
