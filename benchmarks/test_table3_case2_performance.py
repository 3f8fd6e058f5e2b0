"""Table 3: overall performance of case study 2 (sprayer, 300 x 100).

Paper values:

    procs  partition  time(s)  speedup  efficiency
      1        -        362       -         -
      2       2x1       254      1.43      71%
      3       3x1       184      1.97      66%
      4       2x2       130      2.78      70%

Shape to reproduce: much better scalability than case study 1 (the
sprayer is Jacobi-style, no self-dependent loops), with efficiency
dropping from 2 to 3 processors because the middle rank's communication
doubles.
"""

import math

from machine import emit, frames_for_seq_seconds, plan_for, simulate

PAPER = {(2, 1): 1.43, (3, 1): 1.97, (2, 2): 2.78}


def test_table3(benchmark, sprayer):
    frames = frames_for_seq_seconds(sprayer, 362.0, (1, 1))
    seq = simulate(plan_for(sprayer, (1, 1)), frames)

    benchmark.pedantic(
        lambda: simulate(plan_for(sprayer, (2, 2)), frames),
        rounds=3, iterations=1)

    lines = [
        "Table 3: overall performance of case study 2 (sprayer)",
        f"flow field 300x100, {frames} frames "
        f"(calibrated to T1 = {seq.total_time:.0f} s)",
        f"{'procs':>5s} {'partition':>9s} {'time(s)':>9s} {'speedup':>8s} "
        f"{'eff':>5s} {'paper speedup':>14s}",
        f"{1:>5d} {'-':>9s} {seq.total_time:>9.0f} {'-':>8s} {'-':>5s}",
    ]
    measured = {}
    eff = {}
    for part in [(2, 1), (3, 1), (2, 2)]:
        res = simulate(plan_for(sprayer, part), frames)
        p = math.prod(part)
        s = seq.total_time / res.total_time
        measured[part] = s
        eff[part] = s / p
        lines.append(f"{p:>5d} {'x'.join(map(str, part)):>9s} "
                     f"{res.total_time:>9.0f} {s:>8.2f} "
                     f"{100 * s / p:>4.0f}% {PAPER[part]:>14.2f}")
    emit("table3", lines)

    # shape: clear speedups that beat case study 1 (the paper's contrast)
    assert measured[(2, 1)] < measured[(3, 1)]
    assert measured[(2, 2)] > 0.95 * measured[(3, 1)], \
        "4 processors must hold the 3-processor gain"
    assert measured[(2, 2)] > 2.0, "4-processor speedup must be real"
    # the 2->3 efficiency dip (middle rank communicates both ways)
    assert eff[(3, 1)] < eff[(2, 1)]
    # all efficiencies in a healthy band (paper: 66-71%)
    for part, e in eff.items():
        assert 0.5 < e <= 1.05, (part, e)
