"""Generated frame-loop programs: the SPMD run against the sequential one.

First cut of the ROADMAP's generated-program item on the SPMD side,
scoped to what :mod:`repro.sync.freshness` reasons about.  A program is
an init nest, a frame loop of 2-6 Jacobi-style nests with drawn writer
and reader arrays and stencil reach (one or two cells, along either
dimension, one side or both), each nest plain, under an IF arm that
runs every other frame, or inside an inner loop, optionally a subroutine
called from two sites, a jump (``GOTO``, computed ``GOTO``, ``CYCLE``)
and a reader after the loop.  Now and then one main-body nest also
reduces a scalar ``r`` (``max``, ``min`` or a ``sum`` of whole numbers,
exact in any order) that an ``exit`` test, a print after the loop, or
both read.  Every program is compiled at 2x1, 1x2 and 2x2, and one with
a reduction also at 4x1 (now and then with combining off, which is what
leaves a narrow delivery ahead of a wide member), run on the thread
executor, and every status array must come out bitwise equal to
``run_sequential``, the printed lines identical: a member demoted to
entry-only that was in fact stale shows up as a wrong grid, a reduction
folded wrong as another frame count or another printed value.

The generator must reach entry-only members, members needed on every
frame, each reason the pass refuses with, a reduction folded on a halo round's faces (at 2x1, 1x2 or 2x2),
one riding a round an allreduce then completes (4x1) and one kept on
its own allreduce.  The example count is twice the active hypothesis
profile's: 200 in tier-1, more under ``--hypothesis-profile=deep`` (CI).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.plan import folds_in_one_round
from repro.core import AutoCFD

ARRAYS = "abc"
PARTITIONS = ((2, 1), (1, 2), (2, 2))
#: where a riding reduction is folded by an allreduce after the round
FALLBACK = (4, 1)
#: what the generator has to reach: verdicts, refusal reasons (as the
#: pass words them) and the placements a demoted member sat under
VERDICTS = ("entry-only", "needed")
REASONS = ("two or more cut dimensions", "leaves only widths",
           "holds a GOTO", "holds a computed GOTO", "holds a CYCLE",
           "outside the frame loop")
PLACEMENTS = ("arm", "inner", "call")
#: how a reduction's global value was formed: on a round's faces, by an
#: allreduce after the round it rides, or by its own allreduce
FOLDS = ("faces", "after the round", "own allreduce")

#: per reduction op: the frame's first value of ``r``, its update from
#: the nest's freshly written point ``w``, and exit thresholds (the test
#: leaves the frame loop once ``r`` is beyond one)
REDUCTIONS = {
    "max": ("0.0", "r = amax1(r, {w})", ".gt.", ("0.3", "0.8", "2.0")),
    "min": ("100.0", "r = amin1(r, {w})", ".lt.", ("-0.3", "0.05", "0.4")),
    "sum": ("0.0", "r = r + aint(8.0 * {w})", ".gt.", ("20.0", "60.0",
                                                       "150.0")),
}


@st.composite
def nests(draw):
    """(writer, reads, placement): reads are (array, dim, reach, sides);
    the writer itself is only ever read in place (no self-dependence,
    so no pipelines: those have their own suites)."""
    writer = draw(st.sampled_from(ARRAYS))
    others = [x for x in ARRAYS if x != writer]
    reads = draw(st.lists(
        st.tuples(st.sampled_from(others), st.integers(0, 1),
                  st.sampled_from([1, 1, 2]),
                  st.sampled_from(["both", "both", "minus", "plus"])),
        min_size=1, max_size=2))
    placement = draw(st.sampled_from(["plain", "plain", "arm", "inner"]))
    return writer, reads, placement


@st.composite
def programs(draw):
    body = draw(st.lists(nests(), min_size=2, max_size=6))
    sub = None
    if draw(st.integers(0, 3)) == 0:
        sites = sorted(draw(st.lists(st.integers(0, len(body)),
                                     min_size=2, max_size=2)))
        sub = (draw(nests()), sites)
    jump = draw(st.sampled_from([None] * 5 + ["goto", "computed", "cycle"]))
    red = None
    if draw(st.integers(0, 2)) == 0:
        op = draw(st.sampled_from(sorted(REDUCTIONS)))
        red = (op, draw(st.integers(0, len(body) - 1)),
               draw(st.sampled_from(["exit", "after", "both"])),
               draw(st.sampled_from(REDUCTIONS[op][3])))
    return {"body": body, "sub": sub, "jump": jump,
            "jump_at": draw(st.integers(0, len(body))),
            "post": draw(nests()) if draw(st.integers(0, 4)) == 0 else None,
            "combine": draw(st.integers(0, 5)) != 0, "red": red}


def _nest(spec, pad: str, reduce: str | None = None) -> list[str]:
    writer, reads = spec[:2]
    terms = [f"0.1 * {writer}(i, j)"]
    for array, dim, reach, sides in reads:
        for sign in {"both": (-1, 1), "minus": (-1,), "plus": (1,)}[sides]:
            sub = ("i", "j")
            at = ", ".join(f"{v}{sign * reach:+d}" if d == dim else v
                           for d, v in enumerate(sub))
            terms.append(f"0.2 * {array}({at})")
    update = [] if reduce is None \
        else [f"{pad}    {reduce.format(w=f'{writer}(i, j)')}"]
    return [f"{pad}do i = 3, n - 2",
            f"{pad}  do j = 3, m - 2",
            f"{pad}    {writer}(i, j) = {' + '.join(terms)}"] + update + [
            f"{pad}  end do",
            f"{pad}end do"]


DECLS = ["  implicit none",
         "  integer n, m, i, j, k, it",
         "  parameter (n = 12, m = 10)",
         "  common /fld/ a(n, m), b(n, m), c(n, m)",
         "  real a, b, c"]


def render(spec: dict) -> str:
    red = spec.get("red")
    lines = ["!$acfd status a, b, c", "!$acfd grid 12 10",
             "!$acfd distance 2", "!$acfd frame it",
             "program gen"] + DECLS + ["  real r"] * (red is not None) + [
        "  do i = 1, n",
        "    do j = 1, m",
        "      a(i, j) = 0.01 * i * j + 0.1 * i",
        "      b(i, j) = 1.0 / (i + j)",
        "      c(i, j) = 0.5 - 0.02 * (i + 2 * j)",
        "    end do",
        "  end do",
        "  do it = 1, 3"]
    reduce = None
    if red is not None:
        first, reduce, beyond, _limits = REDUCTIONS[red[0]]
        lines.append(f"    r = {first}")
    jump = {"goto": "    if (it .eq. 2) goto 10",
            "computed": "    goto (10, 20), it",
            "cycle": "    if (it .eq. 2) cycle"}.get(spec["jump"])
    items: list = []  # the frame body: nests and single statements
    for pos in range(len(spec["body"]) + 1):
        if jump is not None and pos == spec["jump_at"]:
            items.append(jump)
        if spec["sub"] is not None:
            items += ["    call step()"] * spec["sub"][1].count(pos)
        items += [(*nest, reduce if red and red[1] == pos else None)
                  for nest in spec["body"][pos:pos + 1]]
    if red is not None and red[2] != "after":
        items.append(f"    if (r {beyond} {red[3]}) exit")
    in_loop = False
    for item in items + ["  end do"]:
        # neighbouring inner nests share one loop, so what one writes the
        # other may read on that loop's own next trip
        inner = not isinstance(item, str) and item[2] == "inner"
        if in_loop != inner:
            lines.append("    do k = 1, 2" if inner else "    end do")
            in_loop = inner
        if isinstance(item, str):
            lines.append(item)
        elif item[2] == "arm":
            lines += ["    if (mod(it, 2) .eq. 1) then"] \
                + _nest(item, "      ", item[3]) + ["    end if"]
        else:
            lines += _nest(item, "      " if inner else "    ", item[3])
    if spec["jump"] in ("goto", "computed"):
        lines[-1:-1] = ["10  continue", "20  continue"]
    if spec["post"] is not None:
        lines += _nest(spec["post"], "  ")
    if red is not None:
        lines.append("  write (6, *) 'it', it"
                     + (", 'r', r" if red[2] != "exit" else ""))
    lines.append("end")
    if spec["sub"] is not None:
        lines += ["subroutine step()"] + DECLS \
            + _nest(spec["sub"][0], "  ") + ["end"]
    return "\n".join(lines) + "\n"


def _note(seen: Counter, spec: dict, plan) -> None:
    """Count the verdicts, reasons, placements and reduction folds this
    plan reached."""
    for red in plan.reductions:
        for r in red.reductions:
            if r.var not in red.rides:
                seen["own allreduce"] += 1
            elif folds_in_one_round(plan.partition.dims):
                seen["faces"] += 1
            else:
                seen["after the round"] += 1
    for sync in plan.syncs:
        for name, _dists in sync.arrays:
            if name in sync.entry_only:
                seen["entry-only"] += 1
            elif name not in sync.refusals:
                seen["needed"] += 1
        for reason in sync.refusals.values():
            seen.update(r for r in REASONS if r in reason)
    if any(s.entry_only for s in plan.syncs):
        seen.update(nest[2] for nest in spec["body"])
        if spec["sub"] is not None:
            seen["call"] += 1


def test_generated_frame_programs_match_the_sequential_run():
    seen: Counter = Counter()

    # twice the profile's count: each program runs once per partition
    @settings(derandomize=True, deadline=None, database=None,
              max_examples=2 * settings.default.max_examples)
    @given(programs())
    def check(spec):
        src = render(spec)
        acfd = AutoCFD.from_source(src)
        seq = acfd.run_sequential()
        want = {name: seq.array(name).data.tobytes() for name in ARRAYS}
        for dims in PARTITIONS + (FALLBACK,) * (spec["red"] is not None):
            result = acfd.compile(partition=dims, combine=spec["combine"])
            plan = result.plan
            for sync in plan.syncs:
                assert [m for m in sync.arrays
                        if m[0] not in sync.entry_only] == sync.steady
                assert not set(sync.entry_only) & set(sync.refusals)
            _note(seen, spec, plan)
            par = result.run_parallel(timeout=60.0)
            assert par.output() == seq.io.output(), (dims, src)
            for name in ARRAYS:
                assert par.array(name).data.tobytes() == want[name], \
                    (f"{name} differs at {dims}, "
                     f"combine {spec['combine']}; "
                     f"{result.report.freshness_lines()}:\n{src}")

    check()
    missing = [k for k in VERDICTS + REASONS + PLACEMENTS + FOLDS
               if not seen[k]]
    assert not missing, f"generator never reached {missing}: {seen}"
