"""Native nests: errors, the numpy-scalar kind, the compiler and the cache.

A native nest raises what the scalar translation raises, with the unit
and the source line: a subscript outside its array or one that
overflows 64 bits, a zero integer divisor, a real division by zero
between Python floats.  Without a C compiler every nest runs scalar,
bitwise equal, after one warning line.  Libraries are built at run time
only, once per program text, the cache keeps the most recently used,
and two processes racing for the same cold build run the compiler once.
"""

import os
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.apps.kernels import gauss_seidel_2d, jacobi_5pt, sor_2d
from repro.core import AutoCFD
from repro.errors import InterpError
from repro.fortran.parser import parse_source
from repro.interp import native
from repro.interp.pyback import compile_unit
from repro.interp.values import OffsetArray

#: a nest over a(1:8) whose subscript is i + off and whose divisor is d
NEST = """\
program errs
  implicit none
  integer i, k, off, d
  real a(8), x, y
  off = {off}
  d = {d}
  x = {x}
  y = 1.0
  do i = 1, 8
    a(i + off) = x
    k = i / d
    y = y / x
  end do
end
"""


def _run(src: str, native_: bool):
    prog = compile_unit(parse_source(src), native=native_)
    assert prog.nest_stats["native"] == int(native_)
    return prog.run()


@pytest.mark.parametrize("off,bad", [(1, 9), (-1, 0)],
                         ids=["above", "below"])
def test_a_subscript_outside_its_array_raises(off, bad):
    src = NEST.format(off=off, d=1, x=2.0)
    with pytest.raises(IndexError, match=rf"index {bad} is out of bounds "
                       rf"1:8 for dimension 1 of 'a' \(unit errs, line 10\)"):
        _run(src, True)
    # below the lower bound too: the scalar translation tests each
    # offset before numpy could wrap it to the far end
    with pytest.raises(IndexError):
        _run(src, False)


def test_a_subscript_that_overflows_into_range_raises_on_both_paths():
    # k * k is 2**64: wrapped to 64 bits it would be a(0), in bounds
    src = textwrap.dedent("""\
        program wraps
          implicit none
          integer i, k
          real a(0:8)
          k = 2**32
          do i = 1, 2
            a(k * k) = 1.0
          end do
        end
        """)
    for native_ in (False, True):
        with pytest.raises(IndexError):
            _run(src, native_)
    with pytest.raises(IndexError, match=r"subscript of 'a' overflows a "
                       r"64-bit integer \(unit wraps, line 7\)"):
        _run(src, True)


def test_a_zero_integer_divisor_raises_on_both_paths():
    src = NEST.format(off=0, d=0, x=2.0)
    for native_ in (False, True):
        with pytest.raises(InterpError, match="integer division by zero"):
            _run(src, native_)
    with pytest.raises(InterpError, match=r"\(unit errs, line 11\)"):
        _run(src, True)


def test_a_real_division_by_a_python_zero_raises_on_both_paths():
    src = NEST.format(off=0, d=1, x=0.0)
    for native_ in (False, True):
        with pytest.raises(ZeroDivisionError, match="float division"):
            _run(src, native_)


def test_a_numpy_zero_divides_to_infinity_on_both_paths():
    # x read from an array is a numpy scalar on the scalar path: no
    # exception, an infinity; the native nest carries that kind along
    src = NEST.format(off=0, d=1, x=0.0).replace(
        "  y = 1.0\n", "  y = 1.0\n  a(1) = 0.0\n  x = a(1)\n")
    with np.errstate(divide="ignore"):
        runs = [_run(src, native_) for native_ in (False, True)]
    for run in runs:
        assert run.scalar("y") == np.inf
    # the exit value keeps its kind: x is a numpy scalar after both
    assert [type(run.scalar("x")) for run in runs] == [np.float64] * 2


def _same_state(a, b) -> None:
    assert set(a.values) == set(b.values)
    for name, want in a.values.items():
        got = b.values[name]
        if isinstance(want, OffsetArray):
            assert want.data.tobytes() == got.data.tobytes(), name
        else:
            assert want == got, name


def test_without_a_compiler_every_nest_runs_scalar(monkeypatch, capsys):
    monkeypatch.setattr(native, "compiler", lambda: None)
    monkeypatch.setattr(native, "_warned", False)
    src = jacobi_5pt(n=12, m=8, iters=4)
    progs = [compile_unit(parse_source(src)) for _ in range(2)]
    for prog in progs:
        assert prog.library is None
        assert prog.nest_stats["native"] == 0
        assert "_nc.get(" not in prog.source
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no C compiler" in err, err
    _same_state(compile_unit(parse_source(src), native=False).run(),
                progs[0].run())


def test_compile_builds_nothing_and_the_run_builds_once(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_LIBS", {})
    cache = tmp_path / "acfd" / "native"
    result = AutoCFD.from_source(jacobi_5pt(n=16, m=8, iters=3)).compile(
        partition=(2, 1))
    assert result.report.vector_loops > 0
    assert not cache.exists()
    result.run_parallel()
    assert len(list(cache.glob("*.so"))) == 1


def test_a_quick_and_a_full_run_share_one_library():
    # the frame count is a DO bound: it reaches the C function in its
    # descriptor, not in the C text
    shas = {compile_unit(parse_source(jacobi_5pt(n=16, m=8, iters=iters,
                                                 eps=0.0))).library.sha
            for iters in (3, 60)}
    assert len(shas) == 1


def test_a_build_keeps_the_most_recently_used_libraries(tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_LIBS", {})
    monkeypatch.setattr(native, "CACHE_KEEP", 2)
    cache = tmp_path / "acfd" / "native"

    def load(kernel):
        native._LIBS.clear()  # a load in a new process
        return compile_unit(parse_source(kernel(n=12, m=8, iters=2))
                            ).library.sha

    first, second = load(jacobi_5pt), load(gauss_seidel_2d)
    for age, sha in enumerate((first, second)):
        os.utime(cache / f"{sha}.so", (1000 + age, 1000 + age))
    assert load(jacobi_5pt) == first  # a hit: now the newest
    third = load(sor_2d)
    assert {p.stem for p in cache.glob("*.so")} == {first, third}


RACER = textwrap.dedent("""\
    from repro.apps.kernels import sor_2d
    from repro.fortran.parser import parse_source
    from repro.interp.pyback import compile_unit
    run = compile_unit(parse_source(sor_2d(n=13, m=9, iters=2))).run()
    print(run.array("v").data.sum().hex())
    """)


def test_a_cold_build_raced_from_two_processes_runs_the_compiler_once(
        tmp_path):
    real = native.compiler()
    if real is None:
        pytest.skip("no C compiler on this host")
    log = tmp_path / "builds.log"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "cc"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'case " $* " in *" -shared "*) echo build >> "{log}";; esac\n'
        f'exec "{real}" "$@"\n')
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IEXEC)
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(sys.path))
    racers = [subprocess.Popen([sys.executable, "-c", RACER], env=env,
                               stdout=subprocess.PIPE, text=True)
              for _ in range(2)]
    outs = [proc.communicate(timeout=120)[0] for proc in racers]
    assert [proc.returncode for proc in racers] == [0, 0]
    assert outs[0] == outs[1] != ""
    assert log.read_text() == "build\n"
    assert len(list((tmp_path / "cache" / "acfd" / "native")
                    .glob("*.so"))) == 1


@pytest.mark.parametrize("expr,x,error", [
    ("sqrt(x)", -1.0, ValueError), ("log(x)", 0.0, ValueError),
    ("exp(x)", 1000.0, OverflowError), ("x ** 400", 10.0, OverflowError),
    ("0.0 ** (-x)", 1.0, ZeroDivisionError)],
    ids=["sqrt", "log", "exp", "pow-range", "pow-zero"])
def test_a_math_error_raises_on_both_paths(expr, x, error):
    src = NEST.format(off=0, d=1, x=x).replace("y = y / x", f"y = {expr}")
    for native_ in (False, True):
        with pytest.raises(error):
            _run(src, native_)


def test_mod_of_an_integer_element_is_an_integer_on_both_paths():
    # an element of an integer array is a numpy integer on the scalar
    # path: its MOD must still be an integer, as the native nest's is
    src = textwrap.dedent("""\
        program mods
          implicit none
          integer i, k, ia(6)
          do i = 1, 6
            ia(i) = 3 * i - 7
          end do
          do i = 1, 6
            k = mod(ia(i), 4)
            ia(i) = k + mod(ia(i), 3)
          end do
        end
        """)
    scalar, native_ = (compile_unit(parse_source(src), native=n).run()
                       for n in (False, True))
    _same_state(scalar, native_)
    for name in ("i", "k"):
        assert type(scalar.scalar(name)) is type(native_.scalar(name)) \
            is int, name


#: two nests over one box that fuse: the second reads its own target
#: one row ahead, which the first, through another name, has written
FUSED = """\
program fuse
  implicit none
  integer i, j
  real a(8, 8), b(8, 8)
  do i = 1, 8
    do j = 1, 8
      a(i, j) = 0.1 * i + 0.01 * j
      b(i, j) = 1.0 - 0.02 * i * j
    end do
  end do
  call two(a, {second})
end

subroutine two(x, y)
  implicit none
  integer i, j
  real x(8, 8), y(8, 8)
  do i = 2, 7
    do j = 2, 7
      x(i, j) = x(i, j) + 1.0
    end do
  end do
  do i = 2, 7
    do j = 2, 7
      y(i, j) = 0.5 * y(i + {off}, j)
    end do
  end do
end
"""


@pytest.mark.parametrize("second", ["b", "a"], ids=["distinct", "aliased"])
def test_a_fused_pair_equals_the_source_order(second):
    # through one buffer fusing would read y(i + 1, j) before x's +1:
    # bound to overlapping buffers, the region runs in source order
    src = FUSED.format(off=1, second=second)
    prog = compile_unit(parse_source(src))
    assert (prog.nest_stats["regions"], prog.nest_stats["fused"]) == (2, 1)
    _same_state(compile_unit(parse_source(src), native=False).run(),
                prog.run())


def test_a_fused_pair_raises_where_the_source_order_does():
    # y(i + 6, j) leaves y at i = 3: the entry check fails and the nests
    # run in source order, the first nest completing
    src = FUSED.format(off=6, second="b")
    with pytest.raises(IndexError):
        compile_unit(parse_source(src), native=False).run()
    with pytest.raises(IndexError, match=r"index 9 is out of bounds 1:8 "
                       r"for dimension 1 of 'y' \(unit two, line 25\)"):
        compile_unit(parse_source(src)).run()
