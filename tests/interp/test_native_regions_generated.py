"""Generated runs of adjacent nests: one native region against the scalar order.

Random programs hold a run of two to four adjacent 2-D nests, one
region.  Each nest's box is the previous one's or another (a reversed
step among them, and one whose stop is a scalar an earlier nest may
write); the bodies write ``a``, ``b`` or ``c`` at ``(i, j)`` and read
``a`` to ``d`` at distance 0 or +-1, and may add a guarded operation
(``sqrt``), a float sum, a temporary, a write of the bound scalar or a
subscript the entry check cannot read (``j * 1``).  In a quarter of
the runs the first nest writes the scalar all later nests stop at; in
some others the first and the third nest share a box and the second,
over another, touches none of their arrays or reads the first's.  The run sits in the main
program once, or in a frame loop the region runs from twice.  The
native region (``native=True``) must leave every array, scalar and DO
variable bitwise equal to the scalar translation (``native=False``),
with the same type, and the fusion planner must reach every reason two
nests stay apart, fuse nests next to each other, and fuse nests across
an independent one it moves.

The example count comes from the active hypothesis profile: 100 in
tier-1, more under ``--hypothesis-profile=deep`` (CI).
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fortran.parser import parse_source
from repro.interp.native import APART
from repro.interp.pyback import compile_unit
from repro.interp.values import OffsetArray

#: (i header, j header): reads at +-1 stay inside 1..8
BOXES = (("2, 7", "2, 7"), ("2, 7", "3, 7"), ("7, 2, -1", "2, 7"),
         ("2, lim", "2, 7"))
OFFSETS = ((0, 0), (0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
EXTRAS = (None, None, None, "guard", "sum", "temp", "lim", "skew")


@st.composite
def runs(draw):
    # the first nest writes the scalar every later nest stops at
    bound = draw(st.integers(0, 3)) == 0
    nests = []
    box = draw(st.sampled_from(BOXES))
    for k in range(draw(st.integers(2, 4))):
        if k and draw(st.booleans()):
            box = draw(st.sampled_from(BOXES))
        stmts = [(draw(st.sampled_from("abc")),
                  draw(st.lists(st.tuples(st.sampled_from("abcddd"),
                                          st.sampled_from(OFFSETS)),
                                min_size=1, max_size=3)))
                 for _ in range(draw(st.integers(1, 2)))]
        extra = draw(st.sampled_from(EXTRAS))
        if bound:
            extra, box = ("lim", box) if k == 0 else (extra, BOXES[3])
        nests.append({"box": box, "stmts": stmts, "extra": extra})
    if len(nests) > 2 and not bound and draw(st.booleans()):
        # the first and the third over one box through a (the third
        # maybe guarded), the second over another through c and d only
        # (free to move past) or reading a (which pins the first)
        first, other = draw(st.permutations(BOXES[:3]))[:2]
        mine = [("a", [("a", (0, 0)), ("d", draw(st.sampled_from(OFFSETS)))])]
        middle = draw(st.sampled_from("da"))
        nests[0] = {"box": first, "stmts": mine, "extra": None}
        nests[1] = {"box": other, "extra": None,
                    "stmts": [("c", [(middle, (1, 0)), ("c", (0, 0))])]}
        nests[2] = {"box": first, "stmts": mine,
                    "extra": draw(st.sampled_from([None, None, "guard"]))}
    return {"nests": nests, "framed": draw(st.booleans())}


def _ref(array: str, off: tuple = (0, 0)) -> str:
    subs = [v if o == 0 else f"{v}{o:+d}" for v, o in zip("ij", off)]
    return f"{array}({', '.join(subs)})"


def _nest(nest: dict) -> list[str]:
    ihead, jhead = nest["box"]
    body = []
    extra = nest["extra"]
    if extra == "temp":
        body.append("t = 0.5 * d(i, j)")
    for target, reads in nest["stmts"]:
        terms = [f"0.{2 + r} * {_ref(a, off)}" for r, (a, off) in
                 enumerate(reads)]
        body.append(f"{_ref(target)} = {' + '.join(terms)}")
    last = _ref(nest["stmts"][-1][0])
    body += {"guard": [f"{last} = sqrt(abs({last}))"],
             "sum": [f"s = s + 0.5 * {last}"],
             "temp": [f"{last} = {last} + t"],
             "lim": ["lim = j"],
             "skew": [f"{last} = {last} + 0.1 * d(i, j * 1)"]}.get(extra, [])
    return ([f"  do i = {ihead}", f"    do j = {jhead}"]
            + [f"      {s}" for s in body] + ["    end do", "  end do"])


def render(spec: dict) -> tuple[str, list[int]]:
    """The program, and the line of each nest of the run."""
    lines = [
        "program gen",
        "  implicit none",
        "  integer n, i, j, lim, it",
        "  parameter (n = 8)",
        "  real a(n, n), b(n, n), c(n, n), d(n, n), s, t",
        "  do i = 1, n",
        "    do j = 1, n",
        "      a(i, j) = 0.01 * i * j + 0.1 * i",
        "      b(i, j) = 1.0 / (i + j)",
        "      c(i, j) = 0.5 - 0.02 * j",
        "      d(i, j) = 0.3 + 0.01 * (i - j)",
        "    end do",
        "  end do",
        "  lim = 7",
        "  s = 0.0",
        "  t = 0.0",
    ]
    if spec["framed"]:
        # the WRITE keeps the frame loop scalar: the run is its region
        lines += ["  do it = 1, 2", "  write (6, *) it"]
    starts = []
    for nest in spec["nests"]:
        starts.append(len(lines) + 1)
        lines += _nest(nest)
    if spec["framed"]:
        lines.append("  end do")
    lines += ["  write (6, *) s, t, lim", "end"]
    return "\n".join(lines) + "\n", starts


def _same(x, y) -> bool:
    if type(x) is not type(y):
        return False
    if isinstance(x, OffsetArray):
        return x.data.tobytes() == y.data.tobytes()
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes() == np.float64(y).tobytes()
    return x == y


def _features(spec: dict, starts: list[int], pairs: list) -> set:
    """What a run exercised, for the coverage check."""
    out = {APART.get(why, why) if why else "fused" for *_, why in pairs}
    # nests fused across one that is not in their pass: it moved
    passes = {line: {line} for line in starts}
    for _, first, second, why in pairs:
        if why is None:
            passes[first].add(second)
            passes[second] = passes[first]
            if any(starts[k] not in passes[first]
                   for k in range(starts.index(first) + 1,
                                  starts.index(second))):
                out.add("moved")
    extras = [nest["extra"] for nest in spec["nests"]]
    if "lim" in extras and any(nest["box"] == BOXES[3] for nest in
                               spec["nests"][extras.index("lim") + 1:]):
        out.add("bound-flows")
    out.update(extra for extra in extras if extra)
    return out


def test_generated_runs_match_the_scalar_order():
    seen: Counter = Counter()

    @settings(derandomize=True, deadline=None, database=None)
    @given(runs())
    def check(spec):
        src, starts = render(spec)
        scalar = compile_unit(parse_source(src), native=False).run()
        prog = compile_unit(parse_source(src), native=True)
        native = prog.run()
        assert scalar.io.output() == native.io.output(), src
        assert set(scalar.values) == set(native.values)
        for name, want in scalar.values.items():
            assert _same(want, native.values[name]), \
                f"{name}: {want!r} vs {native.values[name]!r}:\n{src}"
        stats = prog.nest_stats
        # the init nest, and the run as one region
        assert (stats["native"], stats["regions"]) \
            == (1 + len(spec["nests"]), 2), src
        assert native.regions_run == native.binds == 2, src
        pairs = [pair for pair in stats["pairs"] if pair[0] == "gen"]
        assert stats["fused"] == sum(why is None for *_, why in pairs)
        seen.update(_features(spec, starts, pairs))

    check()
    want = list(APART.values()) + ["fused", "moved", "bound-flows",
                                    "guard", "sum", "temp", "skew"]
    missing = [k for k in want if not seen[k]]
    assert not missing, f"generator never reached {missing}: {seen}"
