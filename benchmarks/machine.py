"""Calibrated testbed model shared by the Table 1-5 benchmarks.

The paper measured on "a dedicated network of 6 Pentium workstations
connected by Ethernet" (§6).  The benchmarks replay the compiled programs
on the cluster model (``ClusterSim``) with this calibration:

* ``flop_time = 50 ns`` — a Pentium-class scalar FPU running compiled
  Fortran at ~20 Mflop/s sustained;
* ``cache 128 KiB / knee 3 MiB`` — L2 capacity and the point where the
  memory hierarchy degrades sharply (the knee produces Table 5's
  superlinear speedups when subgrids drop back under it);
* ``latency 1 ms, bandwidth 0.4 MB/s, shared medium`` — PVM-era software
  latency on 10 Mb/s *hub* Ethernet: every byte of an exchange crosses
  one collision domain, so total traffic (not per-link traffic) is what
  counts — the mechanism behind Table 2's four-processor slowdown;
* ``chunks = 1`` — whole-face pipelining for mirror-image-decomposed
  loops, matching this repo's actual runtime implementation (and the
  paper's observation that "computation and communication could not be
  fully overlapped");
* PVM blocking exchanges (the model's only kind): pipeline skew cannot
  flow across synchronization points;
* ``overlap = "on"`` — every provably safe interior/boundary split is
  modelled: the plan marks the sync and the simulator overlaps its
  exchange with the consumer nest's interior.  On this Ethernet a
  message is in flight for milliseconds, so each split has something to
  hide (``"auto"`` marks none: on the host's executors nothing is in
  flight).  The compiled program is the same in
  every mode: the split is modelled, not emitted.

Frame counts per experiment are chosen so the *sequential* simulated time
matches the paper's reported sequential seconds; speedups and efficiencies
then come entirely out of the model.
"""

from __future__ import annotations

import math
import pathlib

from repro.simulate import ClusterSim, MachineModel, NetworkModel, NodeModel

#: calibrated cluster model (see module docstring)
MACHINE = MachineModel(NodeModel(flop_time=5e-8))
NETWORK = NetworkModel(latency=1.0e-3, bandwidth=0.4e6, shared_medium=True)
CHUNKS = 1
OVERLAP = "on"

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def simulate(plan, frames: int, machine=MACHINE, network=NETWORK,
             chunks=CHUNKS):
    """Run the calibrated simulator on a compiled plan."""
    sim = ClusterSim(plan, machine=machine, network=network, chunks=chunks)
    return sim.run(frames)


def plan_for(acfd, partition):
    """The plan a table simulates for *partition* (``OVERLAP`` mode)."""
    return acfd.compile(partition=partition, overlap=OVERLAP).plan


def frames_for_seq_seconds(acfd, seconds: float, seq_partition) -> int:
    """Frame count making the sequential simulated run last *seconds*."""
    probe = simulate(plan_for(acfd, seq_partition), 50)
    per_frame = probe.total_time / 50
    return max(1, round(seconds / per_frame))


def emit(name: str, lines: list[str]) -> str:
    """Print a result table and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def fmt_partition(dims) -> str:
    return "x".join(str(d) for d in dims)


def speedup_row(label, part, t_seq, result):
    p = math.prod(part)
    s = t_seq / result.total_time
    return (f"{label:>12s} {fmt_partition(part):>9s} "
            f"{result.total_time:10.1f} {s:8.2f} {100 * s / p:7.0f}%")
