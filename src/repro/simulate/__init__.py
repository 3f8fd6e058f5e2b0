"""Cluster performance model (the paper's testbed substitute).

The paper measured wall-clock times on a dedicated cluster of 6 Pentium
workstations on Ethernet.  That hardware is not available, so Tables 2-5
are regenerated on a performance model with the same first-order effects:

* per-node compute rate with a **two-level memory model**: per-point cost
  rises when the rank's working set overflows the cache (the mechanism
  behind Table 3's efficiency recovery and Table 5's superlinear
  speedups) and explodes when it overflows RAM (the Table 4/5 discussion
  of out-of-memory slowdown);
* an **Ethernet-style network**: per-message latency plus bandwidth, with
  sends serialized through each node's NIC — neighbor count and face
  sizes drive the communication term (Table 2's 4-processor slowdown);
* **pipelined sweeps** for mirror-image-decomposed loops: ranks along the
  cut dimension proceed in wavefront order with configurable chunking,
  so computation and communication overlap only partially (the paper's
  explanation for case study 1's modest efficiency);
* **blocking exchanges**: every synchronization on a cut partition ends
  when its last participant finishes it, as PVM's did, so pipeline skew
  cannot flow across synchronization points.

The model replays fault-free runs, as the paper's tables report them.
Injected faults live on the runtime side only (:mod:`repro.faults`), so
a drift report's simulated ``fault`` share is always zero.

The simulator consumes the :class:`repro.codegen.schedule.FrameSchedule`
extracted from a compiled program, so simulated times respond to the same
compilation decisions (combining, partition shape, pipelining) the real
system made.
"""

from repro.simulate.machine import MachineModel, NodeModel
from repro.simulate.network import NetworkModel
from repro.simulate.cluster import ClusterSim, SimResult

__all__ = [
    "MachineModel",
    "NodeModel",
    "NetworkModel",
    "ClusterSim",
    "SimResult",
]
