"""Table 2: overall performance of case study 1 (aerofoil, 99 x 41 x 13).

Paper values:

    procs  partition  time(s)  speedup  efficiency
      1        -       1970       -         -
      2      2x1x1     1760      1.12      56%
      4      4x1x1     2341      0.84      21%
      6      3x2x1     1093      1.80      30%

Shape to reproduce: a modest speedup on 2 processors (the mirror-image
pipelined boundary-layer sweeps barely parallelize), a *slowdown relative
to 2 processors* at 4x1x1 (per-processor computation halves but the shared
Ethernet carries twice the traffic), and better behavior for the balanced
3x2x1 cut.  Frame count calibrated so the sequential run lasts ~1970 s.
"""

import math

from machine import emit, frames_for_seq_seconds, plan_for, simulate

PAPER = {(2, 1, 1): 1.12, (4, 1, 1): 0.84, (3, 2, 1): 1.80}
PARTS = [(2, 1, 1), (4, 1, 1), (2, 2, 1), (3, 2, 1)]


def test_table2(benchmark, aerofoil):
    frames = frames_for_seq_seconds(aerofoil, 1970.0, (1, 1, 1))
    seq = simulate(plan_for(aerofoil, (1, 1, 1)), frames)

    benchmark.pedantic(
        lambda: simulate(plan_for(aerofoil, (4, 1, 1)), frames),
        rounds=3, iterations=1)

    lines = [
        "Table 2: overall performance of case study 1 (aerofoil)",
        f"flow field 99x41x13, {frames} frames "
        f"(calibrated to T1 = {seq.total_time:.0f} s)",
        f"{'procs':>5s} {'partition':>9s} {'time(s)':>9s} {'speedup':>8s} "
        f"{'eff':>5s} {'paper speedup':>14s}",
        f"{1:>5d} {'-':>9s} {seq.total_time:>9.0f} {'-':>8s} {'-':>5s}",
    ]
    measured = {}
    for part in PARTS:
        res = simulate(plan_for(aerofoil, part), frames)
        p = math.prod(part)
        s = seq.total_time / res.total_time
        measured[part] = s
        paper = f"{PAPER[part]:.2f}" if part in PAPER else "-"
        lines.append(f"{p:>5d} {'x'.join(map(str, part)):>9s} "
                     f"{res.total_time:>9.0f} {s:>8.2f} "
                     f"{100 * s / p:>4.0f}% {paper:>14s}")
    emit("table2", lines)

    # shape assertions
    assert 0.9 < measured[(2, 1, 1)] < 1.6, \
        "2-processor speedup must be modest (paper: 1.12)"
    assert measured[(4, 1, 1)] < measured[(2, 1, 1)], \
        "the paper's 4x1x1 anomaly: 4 processors slower than 2"
    assert measured[(4, 1, 1)] < 1.1, \
        "4x1x1 must give (nearly) no speedup (paper: 0.84)"
    # every parallel efficiency is low: this workload is dominated by
    # self-dependent loops (paper: 21-56%)
    for part, s in measured.items():
        assert s / math.prod(part) < 0.7
