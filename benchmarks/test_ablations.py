"""Ablations of the design choices DESIGN.md calls out.

Each ablation disables one mechanism and measures its effect on the
quantity it exists to improve:

1. **combining** (the paper's central contribution): sync-point count and
   simulated frame time with the minimum-intersection combining on/off;
2. **redundant-pair elimination** (the "traditional" optimization the
   paper contrasts with): S_LDP size with/without the kill rule;
3. **partition shape** (§4.1): worst-rank communication volume across all
   factorizations vs the chosen one;
4. **mirror-image pipelining granularity**: simulated time of case study 1
   under whole-face vs chunked pipelining;
5. **halo aggregation**: messages per frame with aggregated vs per-array
   exchanges (measured on the real runtime's trace).
"""

import math

from machine import MACHINE, NETWORK, emit, simulate
from repro.apps.kernels import jacobi_5pt
from repro.core import AutoCFD
from repro.partition.partitioner import (
    Partition,
    communication_volume,
    factorizations,
)
from repro.simulate import ClusterSim


def test_ablation_combining(benchmark, sprayer):
    res_on = benchmark.pedantic(
        lambda: sprayer.compile(partition=(4, 1), combine=True),
        rounds=3, iterations=1)
    res_off = sprayer.compile(partition=(4, 1), combine=False)
    t_on = simulate(res_on.plan, 200).total_time
    t_off = simulate(res_off.plan, 200).total_time
    emit("ablation_combining", [
        "Ablation: combining non-redundant synchronizations (sprayer, 4x1)",
        f"{'':>12s} {'sync points':>12s} {'simulated time':>15s}",
        f"{'combining ON':>12s} {len(res_on.plan.syncs):>12d} "
        f"{t_on:>13.1f} s",
        f"{'combining OFF':>12s} {len(res_off.plan.syncs):>12d} "
        f"{t_off:>13.1f} s",
        f"speedup from combining: {t_off / t_on:.2f}x "
        f"({len(res_off.plan.syncs)} -> {len(res_on.plan.syncs)} points)",
    ])
    assert len(res_on.plan.syncs) < len(res_off.plan.syncs) / 3
    assert t_on < t_off


def test_ablation_redundant_elimination(benchmark, aerofoil):
    plan_on = benchmark.pedantic(
        lambda: aerofoil.compile(partition=(4, 1, 1),
                                 eliminate_redundant=True).plan,
        rounds=2, iterations=1)
    plan_off = aerofoil.compile(partition=(4, 1, 1),
                                eliminate_redundant=False).plan
    emit("ablation_redundant", [
        "Ablation: redundant-pair elimination (aerofoil, 4x1x1)",
        f"active pairs with kill rule:    {len(plan_on.active_pairs)}",
        f"active pairs without kill rule: {len(plan_off.active_pairs)}",
    ])
    assert len(plan_on.active_pairs) <= len(plan_off.active_pairs)


def test_ablation_partition_shape(benchmark, sprayer):
    grid = sprayer.grid
    rows = ["Ablation: partition shape sweep (sprayer grid 300x100, P=8)",
            f"{'dims':>8s} {'max rank comm':>14s} {'total comm':>11s}"]
    best = None

    def sweep():
        out = []
        for dims in factorizations(8, 2):
            try:
                p = Partition(grid, dims)
            except Exception:
                continue
            out.append((dims, *communication_volume(p)))
        return out

    results = benchmark.pedantic(sweep, rounds=3, iterations=1)
    for dims, max_c, total_c in sorted(results, key=lambda r: r[1]):
        rows.append(f"{'x'.join(map(str, dims)):>8s} {max_c:>14d} "
                    f"{total_c:>11d}")
        if best is None:
            best = dims
    chosen = sprayer.partition_for(8).dims
    rows.append(f"partitioner chose: {'x'.join(map(str, chosen))}")
    emit("ablation_partition", rows)
    assert chosen == best


def test_ablation_pipeline_granularity(benchmark, aerofoil):
    """On the calibrated hub network the wire dominates and chunking is
    invisible (that is itself a finding — see results); on a switched
    network the pipeline is the bottleneck and chunking pays."""
    from repro.simulate import NetworkModel

    plan = aerofoil.compile(partition=(4, 1, 1)).plan
    switched = NetworkModel(latency=2e-4, bandwidth=10e6,
                            shared_medium=False)

    def run(chunks, network):
        sim = ClusterSim(plan, machine=MACHINE, network=network,
                         chunks=chunks)
        result = sim.run(100)
        return result.total_time, max(result.pipe_wait)

    benchmark.pedantic(lambda: run(1, switched), rounds=2, iterations=1)
    rows = ["Ablation: mirror-image pipelining granularity "
            "(aerofoil, 4x1x1, switched network)",
            f"{'chunks':>7s} {'total':>9s} {'pipeline wait':>14s}"]
    times = {}
    waits = {}
    for chunks in (1, 2, 4, 8, 16):
        times[chunks], waits[chunks] = run(chunks, switched)
        rows.append(f"{chunks:>7d} {times[chunks]:>7.1f} s "
                    f"{waits[chunks]:>12.1f} s")
    hub_t1, hub_w1 = run(1, NETWORK)
    hub_t8, hub_w8 = run(8, NETWORK)
    rows.append(f"(calibrated hub network: chunks 1 -> 8 changes total "
                f"{hub_t1:.1f} s -> {hub_t8:.1f} s: the shared wire, not "
                f"the pipeline, is the bottleneck there)")
    emit("ablation_pipeline", rows)
    # switched network: finer chunking overlaps the wavefront better
    assert times[1] > times[4]
    assert waits[1] > waits[8]


def test_ablation_halo_aggregation(benchmark):
    """Aggregation measured on the *real runtime*: combining ships all
    arrays of a sync point in one message per neighbor."""
    src = jacobi_5pt(n=16, m=10, iters=5, eps=0.0)
    acfd = AutoCFD.from_source(src)

    def run(combine):
        res = acfd.compile(partition=(2, 1), combine=combine)
        out = res.run_parallel()
        return len(out.trace.messages(rank=0)), out

    benchmark.pedantic(lambda: run(True), rounds=2, iterations=1)
    msgs_combined, _ = run(True)
    msgs_separate, _ = run(False)
    emit("ablation_aggregation", [
        "Ablation: halo aggregation (jacobi 16x10, 2x1, runtime trace)",
        f"messages per rank, combined syncs:  {msgs_combined}",
        f"messages per rank, separate syncs:  {msgs_separate}",
    ])
    assert msgs_combined <= msgs_separate
