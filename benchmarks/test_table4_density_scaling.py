"""Table 4: scaling of case study 2 with grid density (2 processors).

Paper values (2x1 partition):

    grid      T1(s)   T2(s)  speedup  efficiency
    40x15       45      45     1.00      50%
    60x23      108      66     1.64      82%
    80x30      199     140     1.42      71%
    100x38     331     218     1.52      76%
    120x45     472     276     1.71      86%
    140x53     712     403     1.77      88%
    160x60     908     519     1.75      87%

Shape to reproduce: parallel efficiency *rises with grid density* — the
computation/communication ratio grows with the grid, so the fixed
per-message cost amortizes (the paper's discussion of §6.2).  The paper's
measured series is noisy (82% at 60x23, then 71%); we assert the trend,
not the noise.  Frame counts per size are calibrated to the paper's T1.
"""

from machine import emit, frames_for_seq_seconds, plan_for, simulate
from repro.apps.sprayer import sprayer_source
from repro.core import AutoCFD

SIZES = [(40, 15, 45), (60, 23, 108), (80, 30, 199), (100, 38, 331),
         (120, 45, 472), (140, 53, 712), (160, 60, 908)]
PAPER_EFF = [50, 82, 71, 76, 86, 88, 87]


def test_table4(benchmark):
    lines = [
        "Table 4: scaling of case study 2 with grid density (2x1)",
        f"{'grid':>9s} {'T1(s)':>8s} {'T2(s)':>8s} {'speedup':>8s} "
        f"{'eff':>5s} {'paper eff':>10s}",
    ]

    def one_size(n, m, t1_target):
        acfd = AutoCFD.from_source(sprayer_source(n=n, m=m))
        frames = frames_for_seq_seconds(acfd, float(t1_target), (1, 1))
        t1 = simulate(plan_for(acfd, (1, 1)), frames)
        t2 = simulate(plan_for(acfd, (2, 1)), frames)
        return t1.total_time, t2.total_time

    benchmark.pedantic(lambda: one_size(40, 15, 45), rounds=2, iterations=1)

    effs = []
    for (n, m, t1_target), paper in zip(SIZES, PAPER_EFF):
        t1, t2 = one_size(n, m, t1_target)
        s = t1 / t2
        effs.append(s / 2)
        lines.append(f"{n:>4d}x{m:<4d} {t1:>8.0f} {t2:>8.0f} {s:>8.2f} "
                     f"{100 * s / 2:>4.0f}% {paper:>9d}%")
    emit("table4", lines)

    # shape: efficiency rises with density (allow tiny non-monotonic
    # wiggle like the paper's own data)
    assert effs[-1] > effs[0] + 0.2, "efficiency must grow with density"
    violations = sum(1 for a, b in zip(effs, effs[1:]) if b < a - 0.02)
    assert violations <= 1, f"trend must be (near-)monotone: {effs}"
    assert effs[-1] > 0.6, "large grids must be efficient (paper: 87%)"
