"""Intrinsic function semantics."""

import math

import pytest

from repro.errors import InterpError
from repro.interp.intrinsics import call_intrinsic


class TestNumeric:
    def test_abs_family(self):
        assert call_intrinsic("abs", [-2.5]) == 2.5
        assert call_intrinsic("iabs", [-3]) == 3
        assert call_intrinsic("dabs", [-1.0]) == 1.0

    def test_sqrt_exp_log(self):
        assert call_intrinsic("sqrt", [9.0]) == 3.0
        assert call_intrinsic("exp", [0.0]) == 1.0
        assert call_intrinsic("alog", [math.e]) == pytest.approx(1.0)
        assert call_intrinsic("log10", [100.0]) == pytest.approx(2.0)

    def test_trig(self):
        assert call_intrinsic("sin", [0.0]) == 0.0
        assert call_intrinsic("cos", [0.0]) == 1.0
        assert call_intrinsic("atan2", [1.0, 1.0]) == pytest.approx(math.pi / 4)

    def test_max_min_variadic(self):
        assert call_intrinsic("max", [1, 5, 3]) == 5
        assert call_intrinsic("amax1", [1.0, 5.0, 3.0]) == 5.0
        assert call_intrinsic("min0", [4, 2]) == 2
        assert call_intrinsic("amin1", [4.0, 2.0]) == 2.0

    def test_amax1_returns_float(self):
        assert isinstance(call_intrinsic("amax1", [1, 2]), float)

    def test_mod_sign_of_first_arg(self):
        assert call_intrinsic("mod", [7, 3]) == 1
        assert call_intrinsic("mod", [-7, 3]) == -1
        assert call_intrinsic("mod", [7, -3]) == 1

    def test_sign(self):
        assert call_intrinsic("sign", [3.0, -1.0]) == -3.0
        assert call_intrinsic("sign", [-3.0, 2.0]) == 3.0
        assert call_intrinsic("isign", [5, -1]) == -5

    def test_conversions(self):
        assert call_intrinsic("int", [3.9]) == 3
        assert call_intrinsic("int", [-3.9]) == -3
        assert call_intrinsic("nint", [3.6]) == 4
        assert call_intrinsic("float", [3]) == 3.0
        assert call_intrinsic("dble", [2]) == 2.0
        assert call_intrinsic("aint", [2.7]) == 2.0

    @pytest.mark.parametrize("x,want", [
        (0.5, 1), (-0.5, -1), (1.5, 2), (-1.5, -2), (2.5, 3), (-2.5, -3),
        (0.49999999999999994, 0), (-0.49999999999999994, 0), (2.4, 2),
        (-2.6, -3)])
    def test_nint_rounds_half_away_from_zero(self, x, want):
        assert call_intrinsic("nint", [x]) == want
        got = call_intrinsic("anint", [x])
        assert got == float(want) and math.copysign(1.0, got) \
            == math.copysign(1.0, x)

    def test_char_functions(self):
        assert call_intrinsic("len", ["abc"]) == 3
        assert call_intrinsic("index", ["hello", "ll"]) == 3
        assert call_intrinsic("ichar", ["A"]) == 65


class TestErrors:
    def test_unknown_intrinsic(self):
        with pytest.raises(InterpError):
            call_intrinsic("frobnicate", [1])

    def test_domain_error_wrapped(self):
        with pytest.raises(InterpError):
            call_intrinsic("sqrt", [-1.0])


#: the NINT / ANINT pins, through a program: the scalar translation calls
#: the intrinsics above, a native nest calls libm's llround / round
HALVES = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, -2.6]


def test_nint_and_anint_agree_on_both_paths():
    from repro.fortran.parser import parse_source
    from repro.interp.pyback import compile_unit
    data = ", ".join(repr(x) for x in HALVES)
    src = f"""\
program halves
  implicit none
  integer i, k({len(HALVES)})
  real x({len(HALVES)}), r({len(HALVES)})
  data x /{data}/
  do i = 1, {len(HALVES)}
    k(i) = nint(x(i))
    r(i) = anint(x(i))
  end do
end
"""
    runs = {}
    for native in (False, True):
        prog = compile_unit(parse_source(src), native=native)
        assert prog.nest_stats["native"] == int(native)
        runs[native] = prog.run()
    for native, run in runs.items():
        assert list(run.array("k").data) == [1, -1, 2, -2, 3, -3, 0, -3]
        assert run.array("r").data.tobytes() \
            == runs[False].array("r").data.tobytes()
    assert math.copysign(1.0, runs[True].array("r").data[6]) == 1.0
