"""The benchmark's operation and its correctness gate.

One *solve* is generated Fortran source text -> ``AutoCFD.from_source``
-> ``.compile`` -> ``.run_parallel`` -> stitched global status arrays.
The program under test only ever receives source text and an input deck.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro import AutoCFD


@dataclass
class Solve:
    """Timings and outputs of one solve."""

    e2e_s: float
    run_s: float
    results: list  # one CompileResult per compile of the workload
    par: object    # ParallelResult of the workload's run


def sources_for(workload, quick: bool) -> dict:
    """Source text per distinct program of the workload."""
    return {prog: prog.source(quick)
            for prog in dict.fromkeys(p for p, _ in workload.compiles)}


def solve(workload, sources: dict, deck: str | None,
          overlap: str | None = None) -> Solve:
    t0 = time.perf_counter()
    results = [AutoCFD.from_source(sources[prog]).compile(
                   part, overlap=overlap or workload.overlap)
               for prog, part in workload.compiles]
    t1 = time.perf_counter()
    par = results[workload.run].run_parallel(input_text=deck,
                                             executor=workload.executor)
    t2 = time.perf_counter()
    return Solve((t2 if workload.run_timed else t1) - t0, t2 - t1,
                 results, par)


def digests(result, names) -> dict[str, str]:
    """SHA-256 per status array over dtype, shape and bytes: two grids
    have equal digests exactly when they are bitwise equal."""
    out = {}
    for name in sorted(names):
        data = np.ascontiguousarray(result.array(name).data)
        h = hashlib.sha256(f"{data.dtype.str}{data.shape}".encode())
        h.update(data)
        out[name] = h.hexdigest()
    return out


def oracle(workload, seed: int, quick: bool) -> dict[str, str]:
    """Digests of the sequential grids of the workload's run program."""
    prog = workload.program
    acfd = AutoCFD.from_source(prog.source(quick))
    seq = acfd.run_sequential(input_text=prog.deck(seed))
    names = acfd.directives.status_arrays
    for name in names:
        # NaN grids would compare equal bitwise and prove nothing
        if not np.isfinite(seq.array(name).data).all():
            raise ValueError(f"{workload.name}: sequential array {name!r} "
                             f"is not finite at seed {seed}")
    return digests(seq, names)


def sync_pairs(results) -> list[list[int]]:
    """Table 1's numbers: (syncs_before, syncs_after) per compile."""
    return [[r.report.syncs_before, r.report.syncs_after] for r in results]


def verify(done: Solve, want: dict, pairs: list) -> list[str]:
    """Reasons this solve fails the gate (empty: it passes).

    *want* maps status array -> sequential digest; *pairs* is the golden
    ``sync_pairs`` of the workload's compiles.
    """
    reasons = []
    got = digests(done.par, done.par.arrays)
    if sorted(got) != sorted(want):
        reasons.append(f"stitched arrays {sorted(got)} != sequential "
                       f"status arrays {sorted(want)}")
    reasons += [f"array {name!r} differs from the sequential grid"
                for name in got if name in want and got[name] != want[name]]
    if sync_pairs(done.results) != pairs:
        reasons.append(f"sync counts {sync_pairs(done.results)} != "
                       f"golden {pairs}")
    return reasons


def attempt(op, check) -> dict:
    """One gated solve: its timings, and ``failed`` with the reasons when
    it raised or its grids are wrong.  The solve's outputs die with this
    frame, so the next solve does not pay the collector for them."""
    try:
        done = op()
        sample = {"e2e_s": done.e2e_s, "run_s": done.run_s}
        reasons = check(done)
    except Exception:  # a failed solve is a result, not a crash
        sample, reasons = {}, [traceback.format_exc()]
    if reasons:
        sample["failed"] = reasons
    return sample


#: what burst() reads on this host while it is calm (2026-09-29)
REFERENCE_BURST_S = 3.2e-3


def burst() -> float:
    """Seconds for a fixed piece of pure-bytecode work that touches
    nothing of the program under test."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i
    return time.perf_counter() - t0


def host_slowdown() -> float:
    """How much slower than its calm self the host runs right now.

    This VM slows by 15-40% for seconds to minutes at a time (README,
    "The host").  A burst reads 3.2 ms when calm and tracks those phases;
    the first quartile of twelve ignores the spikes that hit single
    bursts.  run.py divides each solve time by the mean of the readings
    taken before and after it, and keeps both numbers in the record."""
    bursts = [burst() for _ in range(12)]
    return statistics.quantiles(bursts, n=4)[0] / REFERENCE_BURST_S


def measure(op, check, seconds: float = 0.0,
            count: int | None = None) -> list:
    """Closed loop, one solve at a time: run *op* until *seconds* have
    passed (or exactly *count* times), gating every result."""
    samples = []
    deadline = time.perf_counter() + seconds
    slowdown = host_slowdown()
    while True:
        gc.collect()
        sample = attempt(op, check)
        before, slowdown = slowdown, host_slowdown()
        sample["host_slowdown"] = (before + slowdown) / 2
        samples.append(sample)
        if count is None:
            finished = time.perf_counter() >= deadline
        else:
            finished = len(samples) >= count
        if finished:
            return samples
