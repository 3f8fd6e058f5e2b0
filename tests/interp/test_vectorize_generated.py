"""Generated in-place nests: the vectorizing backend against the scalar one.

A first slice of the ROADMAP's generated-program item, scoped to the
schedules of :mod:`repro.analysis.vecsafety`: random 2-D and 3-D nests
that update an array in place through random stencils, in a random loop
order, with negative and non-unit steps, an optional temporary, max fold
and IF.  Every box skips part of each row, so a ``slice`` nest may take
either plan shape (box views, or one flat span per buffer); a second
statement may read the first one's target at the same and at a shifted
subscript, and a read of an array with longer rows must keep the box
plan.  Whatever the analysis decides for a nest (slice, carried-outer,
fronts, or a fallback), ``vectorize=True`` must leave every array,
scalar and DO variable bitwise equal to ``vectorize=False``.  The nest
runs once, or three times inside a frame loop, or as a subroutine the
frame loop calls from two sites with different actuals, so the plan a
nest builds on its first execution is also the plan later ones hit.

The example count comes from the active hypothesis profile: 100 in
tier-1 (about 3 s), more under ``--hypothesis-profile=deep`` (CI).
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.vecsafety import MODES
from repro.fortran.parser import parse_source
from repro.interp.pyback import compile_unit
from repro.interp.values import OffsetArray

VARS = "ijk"
#: the refusals the carried schedules added; the generator must reach
#: each of them as well as every mode
NEW_REASONS = ("mixed-sign dependence vector",
               "under a non-literal step",
               "assigned under a varying mask in a carried nest")


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
                [None, None, "uniform-on", "uniform-off", "varying"])),
            # b = <first target> at the same and a shifted subscript
            "chain": draw(st.one_of(st.none(), offsets(ndim))),
            "other": draw(st.integers(0, 3)) == 0}
    if draw(st.booleans()):
        # unit steps in storage order, so the rows of the box are runs of
        # memory with a gap between them, stores that are not in place,
        # and nothing else that keeps a nest from computing flat
        spec.update(loops=[(v, 1, False) for v in VARS[:ndim]],
                    temp=False,
                    stmts=[("c", at, reads) for _, at, reads in stmts])
        if spec["guard"] == "varying":
            spec["guard"] = None
    return spec


def _ref(array: str, off: tuple) -> str:
    subs = ", ".join(v if o == 0 else f"{v}{o:+d}"
                     for v, o in zip(VARS, off))
    return f"{array}({subs})"


#: plans a run builds when the generated nest got a schedule: one for
#: the init nest, one per actual set the generated nest is reached with
PLANS = {"once": 2, "framed": 2, "called": 3}
#: and the refusal its frame loop adds to the nest's own
FRAME_REASON = {"once": [], "framed": ["DoLoop in nest body"],
                "called": ["CallStmt in nest body"]}


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
        f"  real a({ext}), b({ext}), c({ext}), d({ext} + 2), tmp, big, flag",
    ]
    lines = ["program gen"] + decls + [
        f"  flag = {0.0 if spec['guard'] == 'uniform-off' else 1.0}",
        "  big = 0.0",
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
    for v, step, held in spec["loops"]:
        lo, hi = (3, 6) if step > 0 else (6, 3)  # offsets reach 1..n
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
    elif guard is not None:
        body[-1:] = ["if (flag .gt. 0.5) then", "  " + body[-1], "end if"]
    if spec["fold"]:
        body.append(f"big = amax1(big, abs({_ref('a', zero)}))")
    nest += ["    " + s for s in body]
    nest += ["  end do"] * ndim
    tail = ["  write (6, *) big", "end"]
    if spec["shape"] == "once":
        lines += nest + tail
    elif spec["shape"] == "framed":
        # (the CONTINUE keeps the frame loop out of the nest's DO chain)
        lines += ["  do it = 1, 3", "  continue"] + nest + ["  end do"] + tail
    else:
        rest = f"d, tmp, big, flag, {', '.join(names)}, {steps}"
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


def test_generated_nests_match_the_scalar_order():
    seen: Counter = Counter()

    @settings(derandomize=True, deadline=None, database=None)
    @given(nests())
    def check(spec):
        src = render(spec)
        scalar = compile_unit(parse_source(src), vectorize=False).run()
        prog = compile_unit(parse_source(src), vectorize=True)
        vector = prog.run()
        assert scalar.io.output() == vector.io.output(), src
        assert set(scalar.values) == set(vector.values)
        for name, want in scalar.values.items():
            assert _same(want, vector.values[name]), \
                f"{name} differs ({prog.vector_stats}):\n{src}"
        # the init nest is always one slice
        seen.update(m for m, n in prog.vector_stats["modes"].items()
                    if n > (m == "slice"))
        reasons = [why for _, _, why in prog.vector_stats["reasons"]]
        seen.update(r for why in reasons for r in NEW_REASONS if r in why)
        if reasons == FRAME_REASON[spec["shape"]]:
            # the nest got a schedule: later executions hit its plan
            assert (vector.plan_nests, vector.plans_built) \
                == (2, PLANS[spec["shape"]]), src
            seen[spec["shape"]] += 1
            # only the generated nest can be flat: the init nest reads
            # its index grids
            if spec["other"]:
                # d's rows are longer: its views have other strides
                assert vector.plans_flat == 0, src
            elif prog.vector_stats["modes"]["slice"] > 1:
                seen["flat" if vector.plans_flat else "box"] += 1

    check()
    missing = [k for k in MODES + NEW_REASONS + tuple(PLANS)
               + ("flat", "box") if not seen[k]]
    assert not missing, f"generator never reached {missing}: {seen}"
