"""In-process message-passing runtime (the cluster substrate).

The paper ran generated programs over PVM/MPI on a 6-node Pentium cluster.
No MPI implementation is available here, so this package provides a
from-scratch MPI-like runtime executing SPMD rank functions on threads:

* :func:`repro.runtime.world.spmd_run` — launch ``P`` ranks;
* :class:`repro.runtime.comm.Communicator` — point-to-point
  (send/recv/isend/irecv/sendrecv) and collectives (barrier, bcast,
  reduce, allreduce, gather, allgather, scatter);
* :class:`repro.runtime.comm.DeadlockDetector` — the one deadlock rule
  of both executors: ranks note what they are blocked on, and once the
  world is all blocked, balanced and quiet the launcher fails it with
  the wait-for cycle;
* :class:`repro.runtime.cart.CartComm` — Cartesian topology with shifts;
* :class:`repro.runtime.halo.HaloExchanger` — aggregated ghost-cell
  exchange for a set of status arrays (the runtime realisation of the
  paper's combined synchronizations);
* :class:`repro.runtime.trace.Trace` — per-rank message/sync counters
  plus wait-time and copy-savings accounting used to cross-check the
  compiler's predicted synchronization counts and feed the simulator.

Delivery semantics: receives match per (source, tag) with FIFO order per
pair; blocked receivers sleep on condition variables and are woken by the
matching ``put`` — there is no polling tick.  Every payload is copied
once at the send (MPI buffered mode) and then belongs to the receiver;
a halo or pipeline face's copy out of its live views is that copy, so
each face section is copied exactly once on the way out.
"""

from repro.runtime.comm import Communicator, DeadlockDetector, Request
from repro.runtime.world import spmd_run, World
from repro.runtime.cart import CartComm
from repro.runtime.halo import HaloExchanger, HaloSpec
from repro.runtime.trace import Trace, TraceEvent

__all__ = [
    "Communicator",
    "DeadlockDetector",
    "Request",
    "World",
    "spmd_run",
    "CartComm",
    "HaloExchanger",
    "HaloSpec",
    "Trace",
    "TraceEvent",
]
