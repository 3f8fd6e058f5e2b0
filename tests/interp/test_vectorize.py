"""Native nests: which nests run as C, and that they run bitwise equal
to the scalar order.

The nest shapes here are the ones the numpy vectorizer that preceded
the native nests had to schedule (whole slices, carried-outer loops,
hyperplane fronts) or refuse (a mixed-sign diagonal, a masked temporary
in a carried nest, a float sum, a diagonal read); the test names keep
those shapes' names.  C runs each of them in source order, so every one
is a native nest and every one leaves the state bitwise equal to the
scalar translation's; a nest holding a label some GOTO names stays
scalar with a recorded reason.  The argument tuples a rank binds per
nest and set of arrays are counted: a hit never builds one.
"""

import time

import numpy as np
import pytest

from repro.apps import kernels
from repro.fortran.parser import parse_source
from repro.interp.pyback import compile_unit, run_compiled
from repro.interp.values import OffsetArray
from repro.interp.native import survey


def _both(src: str, inputs: str | None = None):
    """Run the scalar and the native translation; compare output,
    return both."""
    from repro.interp.io_runtime import IoManager
    ios = [IoManager(), IoManager()]
    if inputs:
        for io in ios:
            io.provide_input(5, inputs)
    scalar = run_compiled(parse_source(src), io=ios[0], native=False)
    vector = run_compiled(parse_source(src), io=ios[1], native=True)
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
        compiled = compile_unit(cu, native=True)
        stats = compiled.nest_stats
        # init nest, two boundary loops, update nest, copy-back nest
        assert stats["native"] >= 5
        # only the frame loop (it leaves through EXIT) stays scalar
        assert stats["scalar"] <= 1

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
        assert (stats["native"], stats["scalar"]) == (1, 0), \
            stats["reasons"]

    def test_redblack_parity_masks(self):
        src = kernels.redblack_2d(n=10, m=8, iters=4)
        compiled = compile_unit(parse_source(src), native=True)
        assert compiled.nest_stats["native"] >= 2
        assert [r for _, _, r in compiled.nest_stats["reasons"]] \
            == ["ExitStmt in nest body"]  # the frame loop
        _assert_same_state(*_both(src))


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
        # of it in both variables: C walks it in source order
        src = kernel(n=60, m=40, iters=20, eps=0.0)
        stats = survey(parse_source(src))
        assert stats["scalar"] == 1 and stats["native"] >= 3, stats
        assert [r for _, _, r in stats["reasons"]] \
            == ["ExitStmt in nest body"]  # the frame loop only
        runs, best = {}, {}
        for vec in (False, True):
            prog = compile_unit(parse_source(src), native=vec)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                runs[vec] = prog.run()
                times.append(time.perf_counter() - t0)
            best[vec] = min(times)
        # v, err, old, iter and the DO variables' exit values
        _assert_same_state(runs[False], runs[True])
        assert runs[False].io.output() == runs[True].io.output()
        # the sweep in C against 2204 Python iterations a sweep
        assert best[False] / best[True] >= 1.5, best

    @pytest.mark.parametrize("carried,body", [
        ("i", "v(i, j) = 0.46 * (v(i-1, j) + v(i+1, j)) + w(i, j)"),
        ("j", "v(i, j) = 0.46 * (v(i, j-1) + v(i, j+1)) + w(i, j)"),
    ], ids=["i", "j"])
    def test_direction_split_sweep_takes_carried_outer(self, carried, body):
        src = _nest(f"      {body}")
        compiled = compile_unit(parse_source(src), native=True)
        assert (compiled.nest_stats["native"],
                compiled.nest_stats["scalar"]) == (2, 0)
        # no Python loop is left: the two adjacent nests are one call
        assert "for " not in compiled.source
        assert compiled.source.count("_nc.get(") == 1
        _assert_same_state(*_both(src))

    def test_negative_and_strided_steps_keep_the_sweep_order(self):
        # the dependence runs along +i in index space but the loop walks
        # -i in steps of 2, j carries nothing in one nest and everything
        # (diagonally, one sign in trip space) in the other
        src = _nest("      v(i, j) = 0.5 * v(i+2, j) + w(i, j)",
                    loops="do i = n - 2, 1, -2\n    do j = 1, m")
        assert survey(parse_source(src))["native"] == 2
        _assert_same_state(*_both(src))
        src = _nest("      v(i, j) = 0.5 * v(i+1, j-1) + w(i, j)",
                    loops="do i = n - 1, 1, -1\n    do j = 2, m")
        assert survey(parse_source(src))["native"] == 2
        _assert_same_state(*_both(src))

    def test_fronts_keep_zero_trip_and_exit_values(self):
        # outer loop empty: j and old untouched, i = its start value
        src = _nest("      old = v(i, j)\n"
                    "      v(i, j) = 0.25 * (v(i-1, j) + v(i, j-1)) + old",
                    decls="  real old", loops="do i = 5, 4\n    do j = 2, m")
        assert survey(parse_source(src))["native"] == 2
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert vector.scalar("i") == 5 and vector.scalar("old") == 0.0

    def test_disjoint_invariant_subscripts_under_a_scalar_loop(self):
        # a triangular nest: the inner bound reads the outer variable,
        # which C evaluates per outer iteration as the scalar order does
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
        assert (stats["native"], stats["scalar"]) == (2, 0), stats
        _assert_same_state(*_both(src))


class TestAffineForm:
    """Subscripts a PARAMETER offsets, a parity mask, an invariant
    quotient: each nest runs native, bitwise equal to the scalar
    order."""

    def test_parameter_offsets_are_stencil_offsets(self):
        src = _nest("      v(i, j) = 0.25 * (w(i - nh, j) + w(nh + i, j))",
                    decls="  integer nh\n  parameter (nh = 1)")
        stats = survey(parse_source(src))
        assert (stats["native"], stats["scalar"]) == (2, 0), stats
        _assert_same_state(*_both(src))

    def test_parameter_inside_a_parity_mask(self):
        # mod(i + j + n, 2) two-colours the lanes as mod(i + j, 2) does
        src = _nest("      if (mod(i + j + n, 2) .eq. 0) then\n"
                    "        v(i, j) = 0.25 * (v(i-1, j) + v(i+1, j)"
                    " + v(i, j-1) + v(i, j+1))\n"
                    "      end if", n=10)
        assert survey(parse_source(src))["native"] == 2
        _assert_same_state(*_both(src))

    def test_invariant_quotient_plus_constants_are_disjoint(self):
        # k / 2 is one opaque invariant value: rows k/2 and k/2 - 1 differ
        src = """\
program rows
  implicit none
  integer j, k, m
  parameter (m = 6)
  real v(8, m)
  k = 9
  do j = 1, m
    v(k / 2 - 1, j) = 0.5 * j
    v(k / 2, j) = 1.5
  end do
  do j = 1, m
    v(k / 2, j) = v(k / 2 - 1, j) + 0.25 * v(k / 2, j)
  end do
  write (6, *) v(3, 2), v(4, 2)
end
"""
        stats = survey(parse_source(src))
        assert (stats["native"], stats["scalar"]) == (2, 0), stats
        _assert_same_state(*_both(src))


class TestRefuses:
    @pytest.mark.parametrize("body,decls,reason", [
        # trip-space signs differ: no hyperplane front holds the sweep
        ("      v(i, j) = 0.5 * (v(i-1, j+1) + w(i, j))", "", None),
        # which lane assigned last decides the temporary's exit value
        ("      if (w(i, j) .gt. 0.2) then\n"
         "        old = v(i, j)\n"
         "        v(i, j) = 0.25 * (v(i-1, j) + v(i, j-1)) + old\n"
         "      end if", "  real old", None),
        ("      v(i, j) = 0.5 * (v(i-1, j) + v(i, j-1))\n"
         "      s = s + v(i, j)", "  real s", None),
        # (the jump is never taken; a label some GOTO names is enough)
        ("      v(i, j) = 0.5 * (v(i-1, j) + v(i, j-1))\n"
         "10    continue", "  if (n .lt. 0) goto 10",
         "GOTO-targeted label in nest body"),
    ], ids=["mixed-sign-diagonal", "masked-temp", "float-sum", "goto"])
    def test_carried_nest_without_a_schedule(self, body, decls, reason):
        # no slice schedule covers these; C runs them in source order
        src = _nest(body, decls)
        stats = survey(parse_source(src))
        if reason is None:
            assert (stats["native"], stats["scalar"]) == (2, 0), stats
        else:
            assert any(reason in r for _, _, r in stats["reasons"]), \
                stats["reasons"]
        _assert_same_state(*_both(src))

    def test_variable_in_two_dimensions_runs_native(self):
        # w(i, i) is a diagonal, which no slice over the trip box is
        src = _nest("      v(i, j) = w(i, i) + w(j, j)", n=7, m=7)
        stats = survey(parse_source(src))
        assert (stats["native"], stats["scalar"]) == (2, 0), stats
        _assert_same_state(*_both(src))

    def test_float_sum_reduction_runs_native(self):
        # the left fold in source order, as the scalar translation
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
        assert (stats["native"], stats["scalar"]) == (2, 0), stats
        scalar, native = _both(src)
        _assert_same_state(scalar, native)


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
        assert (stats["native"], stats["scalar"]) == (2, 0), \
            stats["reasons"]
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)

    def test_report_counts_flow_to_compiled_program(self):
        cu = parse_source(kernels.jacobi_5pt(n=10, m=8, iters=3))
        stats = compile_unit(cu, native=True).nest_stats
        verdicts = survey(cu)
        assert {key: stats[key] for key in verdicts} == verdicts

    def test_integer_target_truncates_a_real_expression(self):
        # the store truncates as numpy's int() of the value does
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
        assert survey(parse_source(src))["native"] == 2
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
        assert survey(parse_source(src))["native"] == 2
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
    """A native region is bound to the arrays it meets when it first
    executes with them and looked up after that; ``binds`` counts the
    argument tuples built, never the hits."""

    def test_second_frame_executes_without_building(self):
        cu = parse_source(kernels.jacobi_5pt(n=12, m=8, iters=4, eps=0.0))
        compiled = compile_unit(cu, native=True)
        run = compiled.run()
        # five nests, two regions: the three init nests, and the frame
        # loop's two, which ran four times
        assert compiled.nest_stats["native"] == 5
        assert run.regions_run == compiled.nest_stats["regions"] == 2
        assert run.binds == 2
        scalar = compile_unit(cu, native=False).run()
        assert (scalar.regions_run, scalar.binds) == (0, 0)
        _assert_same_state(scalar, run)
        # a second run starts from a new context, and binds its own
        assert compiled.run().binds == 2

    def test_emitted_frame_only_looks_up_and_executes(self):
        cu = parse_source(kernels.jacobi_5pt(n=12, m=8, iters=4, eps=0.0))
        source = compile_unit(cu, native=True).source
        frame = source[source.index("for _k"):source.index("ctx.io.write")]
        assert frame.count("_nc.get(") == 1
        # bounds and subscripts are the C function's business: the frame
        # passes no more than the scalars a nest reads
        assert frame.count("for ") == 1
        for line in frame.splitlines():
            if "_nc.bind(" not in line:
                assert "int(" not in line, line

    def test_dummy_bound_is_a_call_argument(self):
        # the sprayer's fans(fanspd, fanlo, fanhi): the bounds reach the
        # C function as arguments, so a new value binds nothing
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
        # the init nest once, fill's nest once
        assert (vector.regions_run, vector.binds) == (2, 2)

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
        # three frames, two actuals: two binds, not six
        assert (vector.regions_run, vector.binds) == (2, 3)

    def test_zero_trip_plan_leaves_inner_variables_alone(self):
        # j keeps the value the init nest left and i takes its start
        # value
        src = _framed("""\
    do i = 5, 4
      do j = 2, n
        a(i, j) = 0.0
      end do
    end do""")
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert (vector.scalar("i"), vector.scalar("j")) == (5, 13)
        # the init nest and this one, adjacent: one region
        assert (vector.regions_run, vector.binds) == (1, 1)

    def test_a_rebound_buffer_gets_its_own_plan(self):
        # the key holds the arrays the call was bound to
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
        vector = compile_unit(cu, native=True).run()
        _assert_same_state(compile_unit(cu, native=False).run(), vector)
        # t is allocated per call: damp's region (its two nests)
        # rebinds per frame
        assert (vector.regions_run, vector.binds) == (2, 4)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_sprayer_ranks_bind_each_nest_once(executor):
    from repro.apps.sprayer import SPRAYER_INPUT, sprayer_source
    from repro.core import AutoCFD
    acfd = AutoCFD.from_source(sprayer_source(40, 60, iters=3, eps=0.0))
    seq = acfd.run_sequential(input_text=SPRAYER_INPUT, native=False)
    par = acfd.compile(partition=(2, 1)).run_parallel(
        input_text=SPRAYER_INPUT, executor=executor, timeout=60.0)
    # per rank, its 38 nests are 11 regions (the init nest's, and one
    # per unit the frame calls), each bound once for all three frames
    assert par.region_counts == [(11, 11)] * 2
    assert (par.regions, par.fused) == (11, 10)
    for name in acfd.directives.status_arrays:
        assert (par.array(name).data.tobytes()
                == seq.array(name).data.tobytes()), name
