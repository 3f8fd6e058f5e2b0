"""Generated in-place nests: the native nests against the scalar order.

Random 2-D and 3-D nests that update an array in place through random
stencils (carried in any variable, Gauss-Seidel style), in a random
loop order, with negative, non-unit and variable steps, an optional
temporary, a max fold, a float sum, a red-black parity mask, a
triangular inner bound, and IF guards.  A second statement may read the
first one's target at the same and at a shifted subscript, and a read of
an array with longer rows lands at other strides.  The native nests
(``native=True``) must leave every array, scalar and DO variable
bitwise equal to the scalar translation (``native=False``).  The nest
runs once, or three times inside a frame loop, or as a subroutine the
frame loop calls from two sites with different actuals, so the call a
nest binds on its first execution is also the call later ones hit.

The example count comes from the active hypothesis profile: 100 in
tier-1, more under ``--hypothesis-profile=deep`` (CI).
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fortran.parser import parse_source
from repro.interp.pyback import compile_unit
from repro.interp.values import OffsetArray

VARS = "ijk"
#: what the generator must reach: nests carried in their first (outer)
#: variable, in a later one, in no variable at all, and each feature
FEATURES = ("carried-outer", "carried-inner", "uncarried", "sum",
            "redblack", "triangular", "held-step", "varying")


@st.composite
def offsets(draw, ndim: int):
    """A stencil offset: zero, star (one variable) or diagonal (two)."""
    off = [0] * ndim
    shape = draw(st.sampled_from(["zero", "star", "star", "diagonal"]))
    if shape == "star":
        off[draw(st.integers(0, ndim - 1))] = draw(
            st.sampled_from([-2, -1, 1, 2]))
    elif shape == "diagonal":
        for d in draw(st.permutations(range(ndim)))[:2]:
            off[d] = draw(st.sampled_from([-1, 1]))
    return tuple(off)


@st.composite
def nests(draw):
    ndim = draw(st.sampled_from([2, 2, 3]))
    # a step held in a variable has no sign the analysis can read
    loops = [(v, draw(st.sampled_from([1, 1, -1, 2, -2])),
              draw(st.integers(0, 9)) == 0)
             for v in draw(st.permutations(VARS[:ndim]))]
    stmts = [(draw(st.sampled_from("aac")),
              draw(st.one_of(st.just((0,) * ndim), offsets(ndim))),
              draw(st.lists(st.tuples(st.sampled_from("aaabc"),
                                      offsets(ndim)),
                            min_size=1, max_size=4)))
             for _ in range(draw(st.integers(1, 3)))]
    spec = {"ndim": ndim, "loops": loops, "stmts": stmts,
            "shape": draw(st.sampled_from(["once", "framed", "called"])),
            "temp": draw(st.booleans()), "fold": draw(st.booleans()),
            "guard": draw(st.sampled_from(
                [None, None, "uniform-on", "uniform-off", "varying",
                 "redblack"])),
            "sum": draw(st.booleans()),
            # the innermost loop stops at the outermost variable
            "triangular": draw(st.integers(0, 4)) == 0,
            # b = <first target> at the same and a shifted subscript
            "chain": draw(st.one_of(st.none(), offsets(ndim))),
            "other": draw(st.integers(0, 3)) == 0}
    return spec


def _ref(array: str, off: tuple) -> str:
    subs = ", ".join(v if o == 0 else f"{v}{o:+d}"
                     for v, o in zip(VARS, off))
    return f"{array}({subs})"


def render(spec: dict) -> str:
    ndim = spec["ndim"]
    names = VARS[:ndim]
    zero = (0,) * ndim
    ext = ", ".join(["n"] * ndim)
    steps = ", ".join("s" + v for v in names)
    decls = [
        "  implicit none",
        f"  integer n, it, {', '.join(names)}, {steps}",
        "  parameter (n = 8)",
        f"  real a({ext}), b({ext}), c({ext}), d({ext} + 2), tmp, big, flag,"
        " total",
    ]
    lines = ["program gen"] + decls + [
        f"  flag = {0.0 if spec['guard'] == 'uniform-off' else 1.0}",
        "  big = 0.0",
        "  total = 0.0",
    ]
    lines += [f"  do {v} = 1, n" for v in names]
    point = " + ".join(f"0.{d + 1} * {v}" for d, v in enumerate(names))
    lines += [f"    {_ref('a', zero)} = 0.01 * i * j + {point}",
              f"    {_ref('b', zero)} = 1.0 / ({' + '.join(names)})",
              f"    {_ref('c', zero)} = 0.5 - 0.02 * ({point})",
              f"    {_ref('d', zero)} = 0.3 + 0.01 * ({point})"]
    lines += ["  end do"] * ndim
    lines += [f"  s{v} = {step}" for v, step, _ in spec["loops"]]
    nest = []
    first = spec["loops"][0][0]
    for depth, (v, step, held) in enumerate(spec["loops"]):
        lo, hi = (3, 6) if step > 0 else (6, 3)  # offsets reach 1..n
        if spec["triangular"] and depth == len(spec["loops"]) - 1 > 0:
            # 3..first or 6..first: never past 3..6
            hi = first
        nest.append(f"  do {v} = {lo}, {hi}, {f's{v}' if held else step}")
    body = []
    if spec["temp"]:
        body.append(f"tmp = 0.5 * {_ref('a', zero)} + {_ref('b', zero)}")
    for k, (target, at, reads) in enumerate(spec["stmts"]):
        terms = [f"0.{2 + r} * {_ref(arr, off)}"
                 for r, (arr, off) in enumerate(reads)]
        if spec["temp"] and k == len(spec["stmts"]) - 1:
            terms.append("0.1 * tmp")
        if spec["other"] and k == 0:
            terms.append(f"0.7 * {_ref('d', zero)}")
        body.append(f"{_ref(target, at)} = {' + '.join(terms)}")
    if spec["chain"] is not None:
        first = spec["stmts"][0][0]
        body.append(f"{_ref('b', zero)} = 0.3 * {_ref(first, zero)} "
                    f"- 0.4 * {_ref(first, spec['chain'])}")
    guard = spec["guard"]
    if guard == "varying":
        body = ([f"if ({_ref('b', zero)} .gt. 0.12) then"]
                + ["  " + s for s in body] + ["end if"])
    elif guard == "redblack":
        body = ([f"if (mod({' + '.join(names)}, 2) .eq. 0) then"]
                + ["  " + s for s in body] + ["end if"])
    elif guard is not None:
        body[-1:] = ["if (flag .gt. 0.5) then", "  " + body[-1], "end if"]
    if spec["fold"]:
        body.append(f"big = amax1(big, abs({_ref('a', zero)}))")
    if spec["sum"]:
        body.append(f"total = total + {_ref('a', zero)}")
    nest += ["    " + s for s in body]
    nest += ["  end do"] * ndim
    tail = ["  write (6, *) big, total", "end"]
    if spec["shape"] == "once":
        lines += nest + tail
    elif spec["shape"] == "framed":
        # (the CONTINUE keeps the frame loop out of the nest's DO chain)
        lines += ["  do it = 1, 3", "  continue"] + nest + ["  end do"] + tail
    else:
        rest = f"d, tmp, big, flag, total, {', '.join(names)}, {steps}"
        lines += ["  do it = 1, 3",
                  f"    call sweep(a, b, c, {rest})",
                  f"    call sweep(c, b, a, {rest})",
                  "  end do"] + tail
        lines += [f"subroutine sweep(a, b, c, {rest})"] + decls + nest
        lines += ["end"]
    return "\n".join(lines) + "\n"


def _same(x, y) -> bool:
    if isinstance(x, OffsetArray):
        return x.data.tobytes() == y.data.tobytes()
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes() == np.float64(y).tobytes()
    return x == y


def _features(spec: dict) -> set:
    """What a spec exercises, for the coverage check."""
    out = {name for name in ("sum", "triangular") if spec[name]}
    if spec["guard"] in ("varying", "redblack"):
        out.add(spec["guard"])
    if any(held for _, _, held in spec["loops"]):
        out.add("held-step")
    order = [v for v, _, _ in spec["loops"]]
    carried = set()
    for target, at, reads in spec["stmts"]:
        for arr, off in reads:
            if arr == target and off != at:
                carried |= {VARS[d] for d in range(spec["ndim"])
                            if off[d] != at[d]}
    if not carried:
        out.add("uncarried")
    elif order[0] in carried:
        out.add("carried-outer")
    else:
        out.add("carried-inner")
    return out


def test_generated_nests_match_the_scalar_order():
    seen: Counter = Counter()

    @settings(derandomize=True, deadline=None, database=None)
    @given(nests())
    def check(spec):
        src = render(spec)
        scalar = compile_unit(parse_source(src), native=False).run()
        prog = compile_unit(parse_source(src), native=True)
        native = prog.run()
        assert scalar.io.output() == native.io.output(), src
        assert set(scalar.values) == set(native.values)
        for name, want in scalar.values.items():
            assert _same(want, native.values[name]), \
                f"{name} differs ({prog.nest_stats}):\n{src}"
        # the generated nest runs native: only a frame loop that calls
        # the nest's subroutine stays scalar
        assert [why for _, _, why in prog.nest_stats["reasons"]] \
            == (["CallStmt in nest body"] if spec["shape"] == "called"
                else []), src
        assert native.regions_run == prog.nest_stats["regions"], src
        seen.update(_features(spec))
        seen[spec["shape"]] += 1

    check()
    missing = [k for k in FEATURES + ("once", "framed", "called")
               if not seen[k]]
    assert not missing, f"generator never reached {missing}: {seen}"
