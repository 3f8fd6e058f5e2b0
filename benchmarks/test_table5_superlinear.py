"""Table 5: superlinear performance of case study 2 (800 x 300).

Paper values (efficiency over the 2-processor system):

    procs  partition  time(s)  eff/2p
      2       2x1      2095     100%
      3       3x1      1249     112%
      4       2x2      1012     104%

Shape to reproduce: at this grid density a rank's working set at 2
processors overflows the memory-hierarchy knee; 3- and 4-processor
subgrids fit again, so efficiency *relative to the 2-processor baseline*
exceeds 100% (cache-driven superlinear speedup), with the 3-processor
gain larger than the 4-processor one.  There is no 1-processor row:
as §6.2 notes, a single workstation runs out of memory at this density —
the benchmark verifies that too.
"""

import math

from machine import MACHINE, emit, plan_for, simulate
from repro.apps.sprayer import sprayer_source
from repro.core import AutoCFD

PAPER = {(3, 1): 112, (2, 2): 104}


def test_table5(benchmark):
    acfd = AutoCFD.from_source(sprayer_source(n=800, m=300))

    # calibrate frames so the 2x1 run lasts ~2095 s
    base_plan = plan_for(acfd, (2, 1))
    probe = simulate(base_plan, 50)
    frames = max(1, round(2095.0 / (probe.total_time / 50)))
    base = simulate(base_plan, frames)

    benchmark.pedantic(
        lambda: simulate(plan_for(acfd, (2, 2)), frames),
        rounds=3, iterations=1)

    lines = [
        "Table 5: superlinear performance of case study 2 (800x300)",
        f"{frames} frames (calibrated to T2 = {base.total_time:.0f} s)",
        f"{'procs':>5s} {'partition':>9s} {'time(s)':>9s} {'eff/2p':>7s} "
        f"{'paper':>6s} {'ws/rank':>9s}",
        f"{2:>5d} {'2x1':>9s} {base.total_time:>9.0f} {'100%':>7s} "
        f"{'100%':>6s} {max(base.working_set) / 1e6:>7.1f}MB",
    ]
    eff = {}
    for part in [(3, 1), (2, 2)]:
        res = simulate(plan_for(acfd, part), frames)
        p = math.prod(part)
        e = base.total_time * 2 / (res.total_time * p)
        eff[part] = e
        lines.append(f"{p:>5d} {'x'.join(map(str, part)):>9s} "
                     f"{res.total_time:>9.0f} {100 * e:>6.0f}% "
                     f"{PAPER[part]:>5d}% "
                     f"{max(res.working_set) / 1e6:>7.1f}MB")

    # the missing 1-processor row: a single node's working set exceeds
    # the knee by far (the paper: "a workstation runs out of memory")
    seq = simulate(plan_for(acfd, (1, 1)), 10)
    node = MACHINE.node
    lines.append(f"(1-processor working set: "
                 f"{seq.working_set[0] / 1e6:.1f} MB — past the "
                 f"{node.knee_bytes / 1e6:.0f} MB memory-hierarchy knee)")
    emit("table5", lines)

    # shape: superlinear at 3 and 4, with 3 > 4 as in the paper
    assert eff[(3, 1)] > 1.0, "3-processor run must be superlinear"
    assert eff[(2, 2)] > 0.95
    assert eff[(3, 1)] > eff[(2, 2)], \
        "the 3-processor gain exceeds the 4-processor one (112% vs 104%)"
    assert seq.working_set[0] > node.knee_bytes
