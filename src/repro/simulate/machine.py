"""Node performance model: CPU rate and the two-level memory hierarchy.

The model captures the effects the paper's analysis leans on:

* a base per-operation time (Pentium-era scalar floating point);
* a **cache factor**: when the per-rank working set exceeds the cache,
  stencil sweeps stream from memory and each operation effectively costs
  more.  Shrinking subgrids (more processors) pulls the working set back
  toward cache and *reduces per-point cost* — Table 3's 4-processor
  efficiency rise and Table 5's superlinear speedups;
* a **memory wall**: a working set beyond RAM pages to disk; the paper
  notes runs "slow down significantly" — modeled as a steep penalty
  (and reported so benchmarks can mark such configurations OOM).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NodeModel:
    """One workstation."""

    #: seconds per floating-point operation when data is cache-resident
    flop_time: float = 1.0e-8
    #: effective cache capacity in bytes (L2 of a Pentium-era box)
    cache_bytes: int = 128 * 1024
    #: beyond this working set the memory hierarchy degrades sharply
    #: (L2 + TLB reach exhausted; DRAM pressure) — the knee that produces
    #: Table 5's superlinear speedups when subgrids drop back under it
    knee_bytes: int = 3 * 1024 * 1024
    #: RAM capacity in bytes
    mem_bytes: int = 48 * 1024 * 1024
    #: multiplier on flop_time when the working set is fully out of cache
    cache_penalty: float = 0.3
    #: additional cost slope past the knee (per knee-multiple of excess)
    knee_penalty: float = 0.5
    #: multiplier once the working set exceeds RAM (paging)
    oom_penalty: float = 40.0

    def cost_factor(self, working_set_bytes: int) -> float:
        """Per-operation cost multiplier for a given working set."""
        if working_set_bytes <= 0:
            return 1.0
        factor = 1.0
        if working_set_bytes > self.cache_bytes:
            # miss fraction grows with the overflow share
            miss = 1.0 - self.cache_bytes / working_set_bytes
            factor += self.cache_penalty * miss
        if working_set_bytes > self.knee_bytes:
            factor += self.knee_penalty \
                * (working_set_bytes - self.knee_bytes) / self.knee_bytes
        if working_set_bytes > self.mem_bytes:
            overflow = (working_set_bytes - self.mem_bytes) / self.mem_bytes
            factor += self.oom_penalty * overflow
        return factor

    def op_time(self, working_set_bytes: int) -> float:
        """Seconds per operation at the given working set."""
        return self.flop_time * self.cost_factor(working_set_bytes)

    def is_oom(self, working_set_bytes: int) -> bool:
        return working_set_bytes > self.mem_bytes


@dataclass(frozen=True)
class MachineModel:
    """A homogeneous cluster: every node identical (dedicated, as in the
    paper's testbed)."""

    node: NodeModel = NodeModel()
    #: bytes per status-array value (the paper-era codes use REAL*4)
    value_bytes: int = 4
