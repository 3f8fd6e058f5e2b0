"""The seven workloads of the end-to-end benchmark.

A workload is one *solve* configuration: which generated Fortran
programs are compiled for which partitions, which compiled program is
run, on which executor and with which overlap mode.  Names and one-line
reasons live in ``BENCHMARK.json``; the long rationale is in the README.

Every run workload uses 2 ranks: this host has 2 cores, and more ranks
than cores would time the scheduler instead of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.aerofoil import aerofoil_source
from repro.apps.kernels import jacobi_5pt
from repro.apps.sprayer import sprayer_source


@dataclass(frozen=True)
class Program:
    """One generated Fortran program at a fixed grid and frame count."""

    kind: str  # "sprayer" | "aerofoil" | "jacobi"
    grid: tuple[int, ...]
    frames: int
    #: grid-shaped status arrays (sets the aggregated halo message size)
    status_arrays: int

    @property
    def key(self) -> str:
        """Names this program's grids in golden.json."""
        return (f"{self.kind}_{'x'.join(map(str, self.grid))}"
                f"_f{self.frames}")

    def frames_run(self, quick: bool) -> int:
        return max(1, self.frames // 20) if quick else self.frames

    def source(self, quick: bool = False) -> str:
        # eps=0 never converges early: every solve executes every frame
        frames = self.frames_run(quick)
        if self.kind == "sprayer":
            return sprayer_source(*self.grid, iters=frames, eps=0.0)
        if self.kind == "aerofoil":
            return aerofoil_source(*self.grid, iters=frames, eps=0.0)
        return jacobi_5pt(*self.grid, iters=frames, eps=0.0)

    def deck(self, seed: int) -> str | None:
        """The input deck drawn from *seed* (seed 0: the repo's usual)."""
        rng = random.Random(seed)
        if self.kind == "sprayer":
            if seed == 0:
                return "2.5 30\n"
            return f"{rng.uniform(2.0, 3.0):.4f} {rng.randint(10, 90)}\n"
        if self.kind == "aerofoil":
            if seed == 0:
                return "0.8\n"
            return f"{rng.uniform(0.7, 0.9):.4f}\n"
        return None  # the jacobi kernel reads no input

    def updates(self, quick: bool) -> int:
        """Grid-point updates of one run: points x frames executed."""
        points = 1
        for n in self.grid:
            points *= n
        return points * self.frames_run(quick)


SPRAYER = Program("sprayer", (300, 100), 200, 10)   # Table 3 grid
AEROFOIL = Program("aerofoil", (99, 41, 13), 1, 5)  # Table 2 grid
JACOBI = Program("jacobi", (64, 32), 1000, 2)
#: Table 1 counts do not depend on the frame bound, and compile_table1
#: runs its check program after the clock stops, so two frames suffice
SPRAYER_T1 = Program("sprayer", (300, 100), 2, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    #: (program, partition) compiled by one solve, in order
    compiles: tuple[tuple[Program, tuple[int, ...]], ...]
    executor: str
    overlap: str
    #: index into ``compiles`` of the program the solve runs
    run: int = 0
    #: False: the run happens after the solve's clock stops, as a check
    #: that the generated program is right (compile_table1)
    run_timed: bool = True

    @property
    def program(self) -> Program:
        return self.compiles[self.run][0]

    @property
    def partition(self) -> tuple[int, ...]:
        return self.compiles[self.run][1]


def _solve(name, program, partition, executor, overlap) -> Workload:
    return Workload(name, ((program, partition),), executor, overlap)


WORKLOADS: tuple[Workload, ...] = (
    _solve("sprayer_thread", SPRAYER, (2, 1), "thread", "auto"),
    _solve("sprayer_blocking", SPRAYER, (2, 1), "thread", "off"),
    _solve("sprayer_process", SPRAYER, (2, 1), "process", "auto"),
    _solve("aerofoil_thread", AEROFOIL, (2, 1, 1), "thread", "auto"),
    _solve("halo_latency_thread", JACOBI, (2, 1), "thread", "auto"),
    _solve("halo_latency_process", JACOBI, (2, 1), "process", "auto"),
    Workload(
        "compile_table1",
        tuple((AEROFOIL, p) for p in ((4, 1, 1), (1, 4, 1), (1, 1, 4),
                                      (4, 4, 1), (4, 1, 4), (1, 4, 4)))
        + tuple((SPRAYER_T1, p) for p in ((4, 1), (1, 4), (4, 4))),
        "thread", "auto", run=6, run_timed=False),
)

BY_NAME = {w.name: w for w in WORKLOADS}
