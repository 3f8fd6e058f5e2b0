"""Semantic equivalence: every kernel, sequential vs parallel, bitwise.

This is the system's central correctness claim: the generated SPMD
program, run on the in-process message-passing runtime, reproduces the
sequential program's status arrays exactly — Jacobi-type loops because
each point is computed from identical inputs, and pipelined Gauss-Seidel
loops because mirror-image decomposition preserves the sequential update
order.
"""

import numpy as np
import pytest

import repro.apps.kernels as K
from repro.core import AutoCFD
from repro.errors import CodegenError

KERNELS_2D = [
    ("jacobi_5pt", dict(n=18, m=12, iters=30)),
    ("jacobi_9pt", dict(n=18, m=12, iters=20)),
    ("gauss_seidel_2d", dict(n=16, m=12, iters=25)),
    ("sor_2d", dict(n=16, m=12, iters=25)),
    ("redblack_2d", dict(n=16, m=12, iters=20)),
    ("line_sweep_x", dict(n=18, m=10, iters=15)),
]

PARTITIONS_2D = [(2, 1), (1, 2), (2, 2), (3, 1), (4, 1), (2, 3)]


@pytest.mark.parametrize("kernel,params", KERNELS_2D,
                         ids=[k for k, _ in KERNELS_2D])
@pytest.mark.parametrize("partition", PARTITIONS_2D,
                         ids=["x".join(map(str, p)) for p in PARTITIONS_2D])
def test_kernel_parallel_equals_sequential(kernel, params, partition):
    src = getattr(K, kernel)(**params)
    acfd = AutoCFD.from_source(src)
    seq = acfd.run_sequential()
    result = acfd.compile(partition=partition).run_parallel()
    assert result.output() == seq.io.output()
    for name in acfd.directives.status_arrays:
        assert np.array_equal(result.array(name).data,
                              seq.array(name).data), \
            f"{kernel} {partition}: array {name!r} differs"


@pytest.mark.parametrize("partition", [(2, 1, 1), (1, 2, 1), (1, 1, 2),
                                       (2, 2, 1), (2, 1, 2), (2, 2, 2)],
                         ids=lambda p: "x".join(map(str, p)))
def test_heat3d_parallel_equals_sequential(partition):
    src = K.heat_3d(n=10, m=8, l=6, iters=15)
    acfd = AutoCFD.from_source(src)
    seq = acfd.run_sequential()
    result = acfd.compile(partition=partition).run_parallel()
    assert result.output() == seq.io.output()
    assert np.array_equal(result.array("u").data, seq.array("u").data)


class TestTraceCrossCheck:
    """The runtime must perform exactly the planned synchronizations."""

    def test_exchange_count_matches_plan(self):
        src = K.jacobi_5pt(n=14, m=10, iters=7, eps=0.0)
        acfd = AutoCFD.from_source(src)
        compiled = acfd.compile(partition=(2, 1))
        result = compiled.run_parallel()
        # exchanges per rank = init-section syncs once + frame syncs per
        # frame; bound it by plan counts
        frames = 7
        per_rank = result.trace.count("exchange", rank=0)
        n_syncs = len(compiled.plan.syncs)
        assert 0 < per_rank <= n_syncs * (frames + 1)
        # all ranks perform the same number of exchanges
        assert result.trace.count("exchange", rank=1) == per_rank

    def test_pipeline_messages_present_for_seidel(self):
        src = K.gauss_seidel_2d(n=12, m=8, iters=5, eps=0.0)
        acfd = AutoCFD.from_source(src)
        result = acfd.compile(partition=(2, 1)).run_parallel()
        assert result.trace.count("pipeline_send", rank=0) > 0

    def test_no_pipeline_for_jacobi(self):
        src = K.jacobi_5pt(n=14, m=10, iters=5, eps=0.0)
        acfd = AutoCFD.from_source(src)
        result = acfd.compile(partition=(2, 1)).run_parallel()
        assert result.trace.count("pipeline_send") == 0


class TestCombiningDoesNotChangeResults:
    def test_with_and_without_combining(self):
        src = K.jacobi_5pt(n=14, m=10, iters=10)
        acfd = AutoCFD.from_source(src)
        with_c = acfd.compile(partition=(2, 2), combine=True)
        without_c = acfd.compile(partition=(2, 2), combine=False)
        assert len(without_c.plan.syncs) >= len(with_c.plan.syncs)
        a = with_c.run_parallel()
        b = without_c.run_parallel()
        assert np.array_equal(a.array("v").data, b.array("v").data)


def _strided_update(src: str, loop: str) -> str:
    """*src* with its last interior i-sweep (the Jacobi copy-back nest)
    written as *loop*."""
    head, _, tail = src.rpartition("do i = 2, n - 1")
    return head + loop + tail


class TestStridedSweeps:
    """A loop with a known step longer than one over a cut dimension
    starts on its own lattice inside each rank's block."""

    @pytest.mark.parametrize("vectorize", [False, True],
                             ids=["scalar", "vector"])
    @pytest.mark.parametrize("partition", [(2, 1), (4, 1), (1, 4)],
                             ids=["2x1", "4x1", "1x4"])
    @pytest.mark.parametrize("loop", ["do i = 2, n - 1, 2",
                                      "do i = n - 1, 2, -2"],
                             ids=["up", "down"])
    def test_jacobi_is_bitwise(self, loop, partition, vectorize):
        acfd = AutoCFD.from_source(
            _strided_update(K.jacobi_5pt(30, 20, 20), loop))
        seq = acfd.run_sequential(vectorize=vectorize)
        par = acfd.compile(partition=partition).run_parallel(
            vectorize=vectorize)
        for name in ("v", "vnew"):
            assert np.array_equal(par.array(name).data, seq.array(name).data)

    def test_start_is_clamped_onto_the_lattice(self):
        compiled = AutoCFD.from_source(_strided_update(
            K.jacobi_5pt(30, 20, 20), "do i = n - 1, 2, -2")).compile(
                partition=(4, 1))
        assert ("do i = min0(n - 1, n - 1 - 2 * ((n - 1 - acfd_hi(1) + 1) "
                "/ 2)), max0(2, acfd_lo(1)), -2") \
            in compiled.parallel_source()

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_step_only_the_run_knows_keeps_the_edge_clamp(self, k):
        # the start moves onto its lattice inside the block and the stop
        # to the block's far edge, both on the step's run-time sign
        src = _strided_update(K.jacobi_5pt(30, 20, 20), "do i = 2, n - 1, k")
        src = src.replace("integer n, m, i, j, iter",
                          "integer n, m, i, j, iter, k").replace(
            "  eps = ", f"  k = {k}\n  eps = ")
        acfd = AutoCFD.from_source(src)
        compiled = acfd.compile(partition=(4, 1))
        assert ("do i = 2 + k * max0(0, min0((acfd_lo(1) - 2 + k - "
                "isign(1, k)) / k, (acfd_hi(1) - 2 + k - isign(1, k)) / k)), "
                "isign(1, k) * min0(isign(1, k) * (n - 1), "
                "max0(isign(1, k) * acfd_lo(1), isign(1, k) * acfd_hi(1))), "
                "k") in compiled.parallel_source()
        par = compiled.run_parallel()
        assert np.array_equal(par.array("v").data,
                              acfd.run_sequential().array("v").data)


def _descending_i(src: str) -> str:
    """*src* with every interior i-sweep running from n - 1 down to 2."""
    return src.replace("do i = 2, n - 1", "do i = n - 1, 2, -1")


class TestDescendingSweeps:
    """A loop with a negative step over a cut dimension: its bounds are
    clamped from the top of the rank's block down, and a self-dependent
    one is refused where its pipeline would have to flow downward."""

    @pytest.mark.parametrize("vectorize", [False, True],
                             ids=["scalar", "vector"])
    @pytest.mark.parametrize("partition", [(2, 1), (1, 2)],
                             ids=["2x1", "1x2"])
    def test_jacobi_is_bitwise(self, partition, vectorize):
        acfd = AutoCFD.from_source(_descending_i(K.jacobi_5pt(30, 20, 20)))
        compiled = acfd.compile(partition=partition)
        if partition == (2, 1):
            assert "do i = min0(n - 1, acfd_hi(1)), max0(2, acfd_lo(1)), -1" \
                in compiled.parallel_source()
        seq = acfd.run_sequential(vectorize=vectorize)
        par = compiled.run_parallel(vectorize=vectorize)
        for name in ("v", "vnew"):
            assert np.array_equal(par.array(name).data, seq.array(name).data)

    @pytest.mark.parametrize("vectorize", [False, True],
                             ids=["scalar", "vector"])
    def test_gauss_seidel_across_the_ascending_dim_is_bitwise(self,
                                                               vectorize):
        acfd = AutoCFD.from_source(
            _descending_i(K.gauss_seidel_2d(30, 20, 20)))
        seq = acfd.run_sequential(vectorize=vectorize)
        par = acfd.compile(partition=(1, 2)).run_parallel(
            vectorize=vectorize)
        assert np.array_equal(par.array("v").data, seq.array("v").data)

    @pytest.mark.parametrize("vectorize", [False, True],
                             ids=["scalar", "vector"])
    @pytest.mark.parametrize("partition", [(2, 1), (4, 1)],
                             ids=["2x1", "4x1"])
    def test_a_negative_step_only_the_run_knows_is_bitwise(self, partition,
                                                           vectorize):
        # k = -1 comes from the deck: the clamp follows the step's sign
        # at run time (an upward clamp ran past the block)
        src = K.jacobi_5pt(16, 8, 20).replace(
            "do i = 2, n - 1", "do i = n - 1, 2, k", 1).replace(
            "integer n, m, i, j, iter", "integer n, m, i, j, iter, k") \
            .replace("  eps = ", "  read (5, *) k\n  eps = ")
        acfd = AutoCFD.from_source(src)
        compiled = acfd.compile(partition=partition)
        assert "isign(1, k)" in compiled.parallel_source()
        for deck in ("-1\n", "-3\n", "2\n"):
            seq = acfd.run_sequential(input_text=deck, vectorize=vectorize)
            par = compiled.run_parallel(input_text=deck, vectorize=vectorize)
            assert par.output() == seq.io.output()
            for name in ("v", "vnew"):
                assert np.array_equal(par.array(name).data,
                                      seq.array(name).data), (deck, name)

    def test_gauss_seidel_across_the_descending_dim_is_refused(self):
        acfd = AutoCFD.from_source(
            _descending_i(K.gauss_seidel_2d(30, 20, 20)))
        with pytest.raises(CodegenError,
                           match="self-dependent loop on 'v' in 'seidel' "
                                 "sweeps cut dimension 0 downward"):
            acfd.compile(partition=(2, 1))

    def test_a_self_dependent_step_only_the_run_knows_is_refused(self):
        # with k = -1 from the deck the pipeline would flow against the
        # sweep; across the other dimension the loop runs as written
        src = K.gauss_seidel_2d(16, 12, 5).replace(
            "do i = 2, n - 1", "do i = n - 1, 2, k", 1).replace(
            "integer n, m, i, j, iter", "integer n, m, i, j, iter, k") \
            .replace("  eps = ", "  read (5, *) k\n  eps = ")
        acfd = AutoCFD.from_source(src)
        with pytest.raises(CodegenError,
                           match="self-dependent loop on 'v' in 'seidel' "
                                 "sweeps cut dimension 0 with 'do i' by "
                                 "step 'k', whose sign only the run knows"):
            acfd.compile(partition=(2, 1))
        seq = acfd.run_sequential(input_text="-1\n")
        par = acfd.compile(partition=(1, 2)).run_parallel(input_text="-1\n")
        assert par.output() == seq.io.output()
        assert np.array_equal(par.array("v").data, seq.array("v").data)

    def test_forward_reads_of_a_descending_sweep_are_refused(self):
        # v(i+1, j) is already updated when a downward sweep reads it: a
        # flow dependence no upward halo or pipe can carry
        src = _descending_i(K.gauss_seidel_2d(30, 20, 20)).replace(
            "v(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) "
            "+ v(i, j+1))", "v(i, j) = 0.5 * (v(i+1, j) + v(i, j))")
        acfd = AutoCFD.from_source(src)
        with pytest.raises(CodegenError, match="cut dimension 0 downward"):
            acfd.compile(partition=(2, 1))
        seq = acfd.run_sequential()
        par = acfd.compile(partition=(1, 2)).run_parallel()
        assert np.array_equal(par.array("v").data, seq.array("v").data)
