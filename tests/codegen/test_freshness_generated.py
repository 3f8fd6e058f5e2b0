"""Generated frame-loop programs: the SPMD run against the sequential one.

First cut of the ROADMAP's generated-program item on the SPMD side,
scoped to what :mod:`repro.sync.freshness` reasons about.  A program is
an init nest, a frame loop of 2-6 Jacobi-style nests with drawn writer
and reader arrays and stencil reach (one or two cells, along either
dimension, one side or both), each nest plain, under an IF arm that
runs every other frame, or inside an inner loop, optionally a subroutine
called from two sites, a jump (``GOTO``, computed ``GOTO``, ``CYCLE``)
and a reader after the loop.  Every program is compiled at 2x1, 1x2 and
2x2 with overlap ``auto`` and ``off`` (and now and then with combining
off, which is what leaves a narrow delivery ahead of a wide member), run
on the thread executor, and every status array must come out bitwise
equal to ``run_sequential``: a member demoted to entry-only that was in
fact stale shows up as a wrong grid.

The generator must reach entry-only members, members needed on every
frame, and each reason the pass refuses with.  The example count comes
from the active hypothesis profile: 100 in tier-1, more under
``--hypothesis-profile=deep`` (CI).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutoCFD

ARRAYS = "abc"
PARTITIONS = ((2, 1), (1, 2), (2, 2))
#: what the generator has to reach: verdicts, refusal reasons (as the
#: pass words them), and the placements a demoted member sat under
VERDICTS = ("entry-only", "needed")
REASONS = ("two or more cut dimensions", "leaves only widths",
           "holds a GOTO", "holds a computed GOTO", "holds a CYCLE",
           "outside the frame loop")
PLACEMENTS = ("arm", "inner", "call")


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
    return {"body": body, "sub": sub, "jump": jump,
            "jump_at": draw(st.integers(0, len(body))),
            "post": draw(nests()) if draw(st.integers(0, 4)) == 0 else None,
            "combine": draw(st.integers(0, 5)) != 0}


def _nest(spec, pad: str) -> list[str]:
    writer, reads, _placement = spec
    terms = [f"0.1 * {writer}(i, j)"]
    for array, dim, reach, sides in reads:
        for sign in {"both": (-1, 1), "minus": (-1,), "plus": (1,)}[sides]:
            sub = ("i", "j")
            at = ", ".join(f"{v}{sign * reach:+d}" if d == dim else v
                           for d, v in enumerate(sub))
            terms.append(f"0.2 * {array}({at})")
    return [f"{pad}do i = 3, n - 2",
            f"{pad}  do j = 3, m - 2",
            f"{pad}    {writer}(i, j) = {' + '.join(terms)}",
            f"{pad}  end do",
            f"{pad}end do"]


DECLS = ["  implicit none",
         "  integer n, m, i, j, k, it",
         "  parameter (n = 12, m = 10)",
         "  common /fld/ a(n, m), b(n, m), c(n, m)",
         "  real a, b, c"]


def render(spec: dict) -> str:
    lines = ["!$acfd status a, b, c", "!$acfd grid 12 10",
             "!$acfd distance 2", "!$acfd frame it",
             "program gen"] + DECLS + [
        "  do i = 1, n",
        "    do j = 1, m",
        "      a(i, j) = 0.01 * i * j + 0.1 * i",
        "      b(i, j) = 1.0 / (i + j)",
        "      c(i, j) = 0.5 - 0.02 * (i + 2 * j)",
        "    end do",
        "  end do",
        "  do it = 1, 3"]
    jump = {"goto": "    if (it .eq. 2) goto 10",
            "computed": "    goto (10, 20), it",
            "cycle": "    if (it .eq. 2) cycle"}.get(spec["jump"])
    items: list = []  # the frame body: nests and single statements
    for pos in range(len(spec["body"]) + 1):
        if jump is not None and pos == spec["jump_at"]:
            items.append(jump)
        if spec["sub"] is not None:
            items += ["    call step()"] * spec["sub"][1].count(pos)
        items += spec["body"][pos:pos + 1]
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
                + _nest(item, "      ") + ["    end if"]
        else:
            lines += _nest(item, "      " if inner else "    ")
    if spec["jump"] in ("goto", "computed"):
        lines[-1:-1] = ["10  continue", "20  continue"]
    if spec["post"] is not None:
        lines += _nest(spec["post"], "  ")
    lines.append("end")
    if spec["sub"] is not None:
        lines += ["subroutine step()"] + DECLS \
            + _nest(spec["sub"][0], "  ") + ["end"]
    return "\n".join(lines) + "\n"


def _note(seen: Counter, spec: dict, plan) -> None:
    """Count the verdicts, reasons and placements this plan reached."""
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

    @settings(derandomize=True, deadline=None, database=None)
    @given(programs())
    def check(spec):
        src = render(spec)
        acfd = AutoCFD.from_source(src)
        seq = acfd.run_sequential()
        want = {name: seq.array(name).data.tobytes() for name in ARRAYS}
        for dims in PARTITIONS:
            for overlap in ("auto", "off"):
                result = acfd.compile(partition=dims, overlap=overlap,
                                      combine=spec["combine"])
                plan = result.plan
                for sync in plan.syncs:
                    assert [m for m in sync.arrays
                            if m[0] not in sync.entry_only] == sync.steady
                    assert not set(sync.entry_only) & set(sync.refusals)
                if overlap == "auto":
                    _note(seen, spec, plan)
                par = result.run_parallel(timeout=60.0)
                for name in ARRAYS:
                    assert par.array(name).data.tobytes() == want[name], \
                        (f"{name} differs at {dims}, overlap {overlap}, "
                         f"combine {spec['combine']}; "
                         f"{result.report.freshness_lines()}:\n{src}")

    check()
    missing = [k for k in VERDICTS + REASONS + PLACEMENTS if not seen[k]]
    assert not missing, f"generator never reached {missing}: {seen}"
