"""Vectorizing translation: which nests it takes, on which schedule,
and which it refuses.

The vectorizer may only fire on nests it can give a schedule that is
provably bitwise-identical to the scalar order, so the tests here check
both directions: dependence-free stencils (including parity-masked
red-black and constant-subscript boundary loops) run as whole slices,
direction-split sweeps run scalar loops over the carried variables only,
Gauss-Seidel runs hyperplane fronts, and what no schedule covers (a
mixed-sign diagonal, a masked temporary in a carried nest, a float sum,
a GOTO target) falls back with a recorded reason — and every accepted
nest still produces bitwise-identical results.
"""

import re
import time

import numpy as np
import pytest

from repro.apps import kernels
from repro.fortran.parser import parse_source
from repro.interp.pyback import compile_unit, run_compiled
from repro.interp.values import OffsetArray
from repro.interp.vectorize import _vfront_refs, _vfront_sizes, survey


def _both(src: str, inputs: str | None = None):
    """Run scalar and vectorized backends; compare output, return both."""
    from repro.interp.io_runtime import IoManager
    ios = [IoManager(), IoManager()]
    if inputs:
        for io in ios:
            io.provide_input(5, inputs)
    scalar = run_compiled(parse_source(src), io=ios[0], vectorize=False)
    vector = run_compiled(parse_source(src), io=ios[1], vectorize=True)
    assert scalar.io.output() == vector.io.output()
    return scalar, vector


def _assert_same_state(scalar, vector):
    assert set(scalar.values) == set(vector.values)
    for name, sv in scalar.values.items():
        vv = vector.values[name]
        if isinstance(sv, OffsetArray):
            assert sv.data.tobytes() == vv.data.tobytes(), name
        elif isinstance(sv, float) or isinstance(sv, np.floating):
            assert np.float64(sv).tobytes() == np.float64(vv).tobytes(), name
        else:
            assert sv == vv, name


class TestAccepts:
    def test_jacobi_nests_vectorize(self):
        cu = parse_source(kernels.jacobi_5pt(n=12, m=8, iters=4))
        compiled = compile_unit(cu, vectorize=True)
        stats = compiled.vector_stats
        # init nest, two boundary loops, update nest, copy-back nest
        assert stats["vectorized"] >= 5
        # only the frame loop (multi-statement body) stays scalar
        assert stats["fallback"] <= 1

    def test_constant_subscript_boundary_loop(self):
        # v(1, j) and v(n, j) with n a PARAMETER: provably disjoint rows.
        src = """\
program bnd
  implicit none
  integer j, n, m
  parameter (n = 8, m = 6)
  real v(n, m)
  do j = 1, m
    v(1, j) = 0.5
    v(n, j) = 1.5
    v(n - 1, j) = 2.5
  end do
  write (6, *) v(1, 1), v(n, 1)
end
"""
        stats = survey(parse_source(src))
        assert (stats["vectorized"], stats["fallback"]) == (1, 0), \
            stats["reasons"]

    def test_redblack_parity_masks(self):
        cu = parse_source(kernels.redblack_2d(n=10, m=8, iters=4))
        compiled = compile_unit(cu, vectorize=True)
        assert compiled.vector_stats["vectorized"] >= 2
        reasons = [r for _, _, r in compiled.vector_stats["reasons"]]
        assert not any("parity" in r for r in reasons)


def _nest(body: str, decls: str = "", n: int = 9, m: int = 7,
          loops: str = "do i = 2, n - 1\n    do j = 2, m - 1") -> str:
    """A 2-D program whose only interesting nest is *loops* + *body*."""
    return f"""\
program nest
  implicit none
  integer i, j, n, m
  parameter (n = {n}, m = {m})
  real v(n, m), w(n, m)
{decls}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.01 * i * i + 0.1 * j
      w(i, j) = 1.0 / (i + j)
    end do
  end do
  {loops}
{body}
    end do
  end do
  write (6, *) v(2, 2), v(n - 1, m - 1)
end
"""


class TestSchedules:
    @pytest.mark.parametrize("kernel", [kernels.gauss_seidel_2d,
                                        kernels.sor_2d])
    def test_gauss_seidel_and_sor_take_fronts(self, kernel):
        # the sweep reads updated values behind it and old values ahead
        # of it in both variables: no slice, no outer loop, but fronts
        src = kernel(n=60, m=40, iters=20, eps=0.0)
        stats = survey(parse_source(src))
        assert stats["modes"]["fronts"] == 1, stats
        assert [r for _, _, r in stats["reasons"]] \
            == ["DoLoop in nest body"]  # the frame loop only
        runs, best = {}, {}
        for vec in (False, True):
            prog = compile_unit(parse_source(src), vectorize=vec)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                runs[vec] = prog.run()
                times.append(time.perf_counter() - t0)
            best[vec] = min(times)
        # v, err, old, iter and the DO variables' exit values
        _assert_same_state(runs[False], runs[True])
        assert runs[False].io.output() == runs[True].io.output()
        # 96 fronts of at most 38 lanes against 2204 scalar iterations a
        # sweep: 2.8x (sor) and 3.8x (seidel) on the 2-core VM
        assert best[False] / best[True] >= 1.5, best

    @pytest.mark.parametrize("carried,body", [
        ("i", "v(i, j) = 0.46 * (v(i-1, j) + v(i+1, j)) + w(i, j)"),
        ("j", "v(i, j) = 0.46 * (v(i, j-1) + v(i, j+1)) + w(i, j)"),
    ], ids=["i", "j"])
    def test_direction_split_sweep_takes_carried_outer(self, carried, body):
        src = _nest(f"      {body}")
        cu = parse_source(src)
        compiled = compile_unit(cu, vectorize=True)
        assert compiled.vector_stats["modes"] == {
            "slice": 1, "carried-outer": 1, "fronts": 0}
        # one scalar loop, over the carried variable's DO values, and no
        # other Python loop or slice construction in the frame: each
        # pass indexes the plan's views by trip
        frame = compiled.source[compiled.source.index("_vz2k ="):]
        assert re.findall(r"for (\w+), f_(\w) in enumerate\(_vz2cv0\):",
                          frame) == [("_vz2it0", carried)]
        assert frame.count("for ") == 1 and "_vsl(" not in frame
        assert "_vz2w0 = _vz2r0[_vz2it0]" in frame
        _assert_same_state(*_both(src))

    def test_negative_and_strided_steps_keep_the_sweep_order(self):
        # the dependence runs along +i in index space but the loop walks
        # -i in steps of 2, j carries nothing in one nest and everything
        # (diagonally, one sign in trip space) in the other
        src = _nest("      v(i, j) = 0.5 * v(i+2, j) + w(i, j)",
                    loops="do i = n - 2, 1, -2\n    do j = 1, m")
        assert survey(parse_source(src))["modes"]["carried-outer"] == 1
        _assert_same_state(*_both(src))
        src = _nest("      v(i, j) = 0.5 * v(i+1, j-1) + w(i, j)",
                    loops="do i = n - 1, 1, -1\n    do j = 2, m")
        assert survey(parse_source(src))["modes"]["fronts"] == 1
        _assert_same_state(*_both(src))

    def test_fronts_keep_zero_trip_and_exit_values(self):
        # outer loop empty: j and old untouched, i = its start value
        src = _nest("      old = v(i, j)\n"
                    "      v(i, j) = 0.25 * (v(i-1, j) + v(i, j-1)) + old",
                    decls="  real old", loops="do i = 5, 4\n    do j = 2, m")
        assert survey(parse_source(src))["modes"]["fronts"] == 1
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert vector.scalar("i") == 5 and vector.scalar("old") == 0.0

    def test_front_plan_covers_the_box_once_in_sweep_order(self):
        ns = (4, 3, 5)
        sizes = _vfront_sizes(ns)
        assert sum(sizes) == 60 and len(sizes) == 4 + 3 + 5 - 2
        buf = np.arange(6 * 5 * 7, dtype=np.float64).reshape(6, 5, 7)
        coefs = ((0, 1), (1, -1), (2, 1))
        for view in (buf, buf.transpose(1, 0, 2).copy().transpose(1, 0, 2)):
            # flat keys on the C-contiguous buffer, index tuples on the
            # transposed one; the loop over j runs downwards (mult -1)
            keys, (ref,) = _vfront_refs(view, ns, coefs, ((1, 3, 1),))
            seen = np.concatenate([ref[k] for k in keys])
            want = view[1:5, 3:0:-1, 1:6]
            assert sorted(seen) == sorted(want.ravel())
            assert [len(ref[k]) for k in keys] == list(sizes)
            assert ref[keys[0]][0] == view[1, 3, 1]
            assert ref[keys[-1]][0] == view[4, 1, 5]
        assert not keys[0][0].flags.writeable  # shared between callers

    def test_front_view_refuses_an_out_of_range_shift(self):
        from repro.errors import InterpError
        buf = np.zeros((4, 4))
        with pytest.raises(InterpError, match="out of bounds"):
            _vfront_refs(buf, (4, 4), ((0, 1), (1, 1)), ((1, 0),))

    def test_disjoint_invariant_subscripts_under_a_scalar_loop(self):
        # triangular outer loop: no schedule for the (i, j, k) chain, so
        # the (j, k) nest is retried with i a plain scalar, where
        # u(i, ..) and u(i-1, ..) are the same expression plus different
        # constants: provably different planes
        src = """\
program tri
  implicit none
  integer i, j, k, n
  parameter (n = 7)
  real u(n, n, n)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        u(i, j, k) = 0.1 * i + 0.01 * j + 0.001 * k
      end do
    end do
  end do
  do i = 2, n
    do j = 1, i
      do k = 1, n
        u(i, j, k) = u(i - 1, j, k) + 0.5 * u(i, j, k)
      end do
    end do
  end do
  write (6, *) u(n, n, n)
end
"""
        stats = survey(parse_source(src))
        assert stats["modes"]["slice"] == 2, stats
        assert [r for _, _, r in stats["reasons"]] \
            == ["nest variable in invariant position"]
        _assert_same_state(*_both(src))


class TestRefuses:
    @pytest.mark.parametrize("body,decls,reason", [
        # trip-space signs differ: the front i+j=c holds both ends
        ("      v(i, j) = 0.5 * (v(i-1, j+1) + w(i, j))", "",
         "mixed-sign dependence vector (i-1, j+1) on v"),
        # which lane assigned last is not the last front's business
        ("      if (w(i, j) .gt. 0.2) then\n"
         "        old = v(i, j)\n"
         "        v(i, j) = 0.25 * (v(i-1, j) + v(i, j-1)) + old\n"
         "      end if", "  real old",
         "temporary old assigned under a varying mask in a carried nest"),
        ("      v(i, j) = 0.5 * (v(i-1, j) + v(i, j-1))\n"
         "      s = s + v(i, j)", "  real s",
         "floating-point sum reduction"),
        # (the jump is never taken; a label some GOTO names is enough)
        ("      v(i, j) = 0.5 * (v(i-1, j) + v(i, j-1))\n"
         "10    continue", "  if (n .lt. 0) goto 10",
         "GOTO-targeted label in nest body"),
    ], ids=["mixed-sign-diagonal", "masked-temp", "float-sum", "goto"])
    def test_carried_nest_without_a_schedule(self, body, decls, reason):
        src = _nest(body, decls)
        stats = survey(parse_source(src))
        assert stats["modes"]["fronts"] == stats["modes"][
            "carried-outer"] == 0
        assert any(reason in r for _, _, r in stats["reasons"]), \
            stats["reasons"]
        _assert_same_state(*_both(src))  # scalar order, still identical

    def test_variable_in_two_dimensions_falls_back(self):
        # w(i, i) is a diagonal, which no slice over the trip box is
        # (cut as one, it read the block w(i, j))
        src = _nest("      v(i, j) = w(i, i) + w(j, j)", n=7, m=7)
        stats = survey(parse_source(src))
        # the (i, j) nest, then its j loop retried under a scalar i
        assert [why for _, _, why in stats["reasons"]] == [
            "nest variable subscripts two dimensions of w"] * 2
        _assert_same_state(*_both(src))

    def test_float_sum_reduction_falls_back(self):
        # np.sum is pairwise; the scalar left fold is not — must refuse.
        src = """\
program fsum
  implicit none
  integer i
  real a(100), s
  do i = 1, 100
    a(i) = 1.0 / i
  end do
  s = 0.0
  do i = 1, 100
    s = s + a(i)
  end do
  write (6, *) s
end
"""
        stats = survey(parse_source(src))
        assert stats["fallback"] == 1 and stats["vectorized"] == 1
        assert any("sum" in r for _, _, r in stats["reasons"])


class TestSemantics:
    def test_zero_trip_loop_leaves_state_scalar_identical(self):
        # DO with zero iterations: body untouched, loop var still set to
        # the first untaken value (start + 0 * step).
        src = """\
program zt
  implicit none
  integer i, s
  real a(5)
  s = 7
  a(3) = 9.0
  do i = 5, 1
    a(i) = 1.0
    s = i
  end do
  write (6, *) s, i
end
"""
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert vector.scalar("s") == 7
        assert vector.scalar("i") == 5

    def test_loop_temp_final_value(self):
        # 'old' is a loop-local temp; after the nest it must hold the
        # value from the last iteration, exactly as the scalar order.
        src = """\
program tmp
  implicit none
  integer i
  real a(8), b(8), old
  do i = 1, 8
    a(i) = i * 1.5
    b(i) = 0.0
  end do
  do i = 2, 7
    old = a(i)
    a(i) = old * 2.0
    b(i) = old
  end do
  write (6, *) old
end
"""
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert float(vector.scalar("old")) == 7 * 1.5

    def test_int_and_minmax_reductions_vectorize(self):
        # integer sums and max/min folds are exact; float sums are not.
        src = """\
program red
  implicit none
  integer i, ksum
  real a(50), peak
  do i = 1, 50
    a(i) = abs(25.0 - i)
  end do
  ksum = 0
  peak = 0.0
  do i = 1, 50
    ksum = ksum + i
    peak = amax1(peak, a(i))
  end do
  write (6, *) ksum, peak
end
"""
        stats = survey(parse_source(src))
        assert (stats["vectorized"], stats["fallback"]) == (2, 0), \
            stats["reasons"]
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)

    def test_report_counts_flow_to_compiled_program(self):
        cu = parse_source(kernels.jacobi_5pt(n=10, m=8, iters=3))
        stats = compile_unit(cu, vectorize=True).vector_stats
        assert stats == survey(cu)

    def test_integer_target_truncates_a_real_expression(self):
        # the last operation cannot write an integer view: scratch, then
        # the one casting store the scalar backend's int() amounts to
        src = """\
program trunc
  implicit none
  integer i, k(9)
  real a(9)
  do i = 1, 9
    a(i) = 1.3 * (i - 5)
  end do
  do i = 1, 9
    k(i) = a(i) * 1.5
  end do
  write (6, *) k(1), k(9)
end
"""
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert [int(x) for x in vector.array("k").data] \
            == [-7, -5, -3, -1, 0, 1, 3, 5, 7]

    def test_division_is_typed_as_the_scalar_backend_types_it(self):
        # pyback types mod() integer whatever its arguments, so the
        # first quotient truncates in scalar mode: it must here too
        src = """\
program dv
  implicit none
  integer i
  real a(9), b(9)
  do i = 1, 9
    a(i) = 1.7 * i
  end do
  do i = 1, 9
    b(i) = mod(a(i), 2.0) / 2 + mod(i, 3) / 2 + a(i) / 2
  end do
  write (6, *) b(3), b(8)
end
"""
        _assert_same_state(*_both(src))

    def test_masked_store_may_read_its_own_target_shifted(self):
        # red-black: a lane reads the other colour's lanes of the array
        # it stores to.  The right-hand side is whole before the first
        # lane lands, whether it is scratch (prn) or a bare view (v)
        src = _nest("""\
      if (mod(i + j, 2) .eq. 0) then
        w(i, j) = 0.5 * w(i, j) + 0.125 * (w(i-1, j) + w(i+1, j) &
                + w(i, j-1) + w(i, j+1))
        v(i, j) = v(i-1, j)
      end if""")
        assert survey(parse_source(src))["modes"]["slice"] == 2
        _assert_same_state(*_both(src))

    def test_condition_without_lanes_is_evaluated_once(self):
        # an array element in the condition makes the IF a mask, but one
        # the same for every lane
        src = _nest("""\
      if (w(1, 1) .gt. 0.4) then
        v(i, j) = 2.0 * v(i, j)
      else if (w(2, 1) .gt. 0.3) then
        v(i, j) = -v(i, j)
      else
        v(i, j) = 0.0
      end if""")
        assert survey(parse_source(src))["modes"]["slice"] == 2
        _assert_same_state(*_both(src))


def _framed(body: str, units: str = "", decls: str = "",
            frames: int = 3) -> str:
    """*body* inside a frame loop over ``a`` and ``b`` in COMMON."""
    return f"""\
program framed
  implicit none
  integer i, j, it, n
  parameter (n = 12)
  common /f/ a(n, n), b(n, n)
  real a, b
{decls}
  do i = 1, n
    do j = 1, n
      a(i, j) = 0.01 * i * i + 0.1 * j
      b(i, j) = 1.0 / (i + j)
    end do
  end do
  do it = 1, {frames}
{body}
  end do
  write (6, *) a(2, 2), b(n - 1, n - 1)
end
{units}
"""


class TestPlans:
    """A nest is resolved when it first executes and looked up after
    that; ``plans_built`` counts the builds, never the hits."""

    def test_second_frame_executes_without_building(self):
        cu = parse_source(kernels.jacobi_5pt(n=12, m=8, iters=4, eps=0.0))
        compiled = compile_unit(cu, vectorize=True)
        run = compiled.run()
        # every nest ran, the two in the frame loop four times each
        assert run.plan_nests == compiled.vector_stats["vectorized"] == 5
        assert run.plans_built == 5
        scalar = compile_unit(cu, vectorize=False).run()
        assert (scalar.plan_nests, scalar.plans_built) == (0, 0)
        _assert_same_state(scalar, run)
        # a second run starts from a new context, and its own plans
        assert compiled.run().plans_built == 5

    def test_emitted_frame_only_looks_up_and_executes(self):
        cu = parse_source(kernels.jacobi_5pt(n=12, m=8, iters=4, eps=0.0))
        source = compile_unit(cu, vectorize=True).source
        frame = source[source.index("for _k"):source.index("ctx.io.write")]
        assert frame.count("_pl.get(") == 2
        # bounds, slices and views sit inside the build call, which the
        # ``or`` skips on a hit; nothing is wrapped to the box shape
        for line in frame.splitlines():
            if "_vplan_box(" not in line:
                assert "int(" not in line, line
        assert "_vsl(" not in source and "broadcast_to" not in source

    def test_parity_mask_is_computed_once_per_plan(self):
        # mod(i + j, 2) .eq. c reads index grids only: the plan owns the
        # mask, and the statements that fill it sit behind its flag
        cu = parse_source(kernels.redblack_2d(n=10, m=8, iters=4, eps=0.0))
        lines = compile_unit(cu, vectorize=True).source.splitlines()
        depth = {line.strip(): len(line) - len(line.lstrip())
                 for line in lines}
        fmods = [line for line in depth if line.startswith("_np.fmod(")]
        assert len(fmods) == 2
        for line in fmods:
            assert depth[line] == depth["_vz7b[0] = False"] \
                > depth["_np.copyto(_vz7r0, _vz7t2, 'unsafe', _vz7m0)"]
        _assert_same_state(*_both(kernels.redblack_2d(n=10, m=8, iters=4,
                                                      eps=0.0)))

    def test_dummy_bound_rebuilds_only_when_its_value_changes(self):
        # the sprayer's fans(fanspd, fanlo, fanhi)
        src = _framed("""\
    lo = 2
    if (it .gt. 4) lo = 5
    call fill(lo, n - 1, 0.5 * it)""", decls="  integer lo", units="""\
subroutine fill(lo, hi, x)
  implicit none
  integer n, j, lo, hi
  parameter (n = 12)
  common /f/ a(n, n), b(n, n)
  real a, b, x
  do j = lo, hi
    a(1, j) = a(1, j) + x
    b(j, 1) = x
  end do
end
""", frames=7)
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        # the init nest once, fill's nest for lo = 2 and for lo = 5
        assert (vector.plan_nests, vector.plans_built) == (2, 3)

    def test_two_call_sites_keep_one_plan_each(self):
        src = _framed("""\
    call damp(a, 0.5)
    call damp(b, 0.25)""", units="""\
subroutine damp(u, x)
  implicit none
  integer n, i, j
  parameter (n = 12)
  real u(n, n), x
  do i = 2, n - 1
    do j = 2, n - 1
      u(i, j) = x * u(i, j) + u(i, j)
    end do
  end do
end
""")
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        # three frames, two actuals: two plans, not six
        assert (vector.plan_nests, vector.plans_built) == (2, 3)

    def test_zero_trip_plan_leaves_inner_variables_alone(self):
        # the verdict is part of the plan: hit or build, j keeps the
        # value the init nest left and i takes its start value
        src = _framed("""\
    do i = 5, 4
      do j = 2, n
        a(i, j) = 0.0
      end do
    end do""")
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert (vector.scalar("i"), vector.scalar("j")) == (5, 13)
        assert (vector.plan_nests, vector.plans_built) == (2, 2)

    def test_a_rebound_buffer_gets_its_own_plan(self):
        # the key holds the buffers the views were cut from
        cu = parse_source(_framed("""\
    call damp(a, 0.5)""", units="""\
subroutine damp(u, x)
  implicit none
  integer n, i
  parameter (n = 12)
  real u(n, n), x, t(n)
  do i = 1, n
    t(i) = x * u(i, 1)
  end do
  do i = 1, n
    u(i, 2) = t(i)
  end do
end
"""))
        vector = compile_unit(cu, vectorize=True).run()
        _assert_same_state(compile_unit(cu, vectorize=False).run(), vector)
        # t is allocated per call: both of damp's nests rebuild per frame
        assert (vector.plan_nests, vector.plans_built) == (3, 7)
