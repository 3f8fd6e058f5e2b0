"""Branch-structure rules for regions (§5.2, Figure 7)."""

import numpy as np
import pytest

from repro.analysis.dependency import build_sldp
from repro.analysis.frame import build_frame_program
from repro.core import AutoCFD
from repro.fortran import ast as A
from repro.fortran.parser import parse_source
from repro.sync.regions import upper_bound_region


def region_for(src: str, array="v", kind=None):
    frame = build_frame_program(parse_source(src))
    pairs = [p for p in build_sldp(frame)
             if p.array == array and (kind is None or p.kind == kind)]
    assert len(pairs) == 1, pairs
    return frame, pairs[0], upper_bound_region(frame, pairs[0])


class TestCase1Goto:
    """Fig 7(a): a goto ends the region just before it."""

    def test_region_truncated_at_goto(self):
        src = """\
!$acfd status v, w
!$acfd grid 8 8
program p
  integer i, j, k
  real v(8, 8), w(8, 8)
  do i = 1, 8
    do j = 1, 8
      v(i, j) = 1.0
    end do
  end do
  k = 1
  if (k .gt. 0) goto 50
50 continue
  k = 2
  do i = 2, 7
    do j = 2, 7
      w(i, j) = v(i - 1, j)
    end do
  end do
end
"""
        frame, pair, region = region_for(src, kind="forward")
        gotos = [n for n in frame.nodes
                 if n.kind == "stmt" and isinstance(n.stmt, A.Goto)]
        assert gotos
        assert region.end <= min(g.open for g in gotos)
        assert region.end < pair.reader.open
        # before the IF, not inside its arm: a sync there would run only
        # when the jump is taken (found by the generated frame programs)
        assert frame.node_at_open(region.end).kind == "if"
        assert frame.node_at_open(region.allowed[-1]).kind == "if"


class TestCase2IfWithReader:
    """Fig 7(b)/(c): an IF block containing an R-type loop ends the
    region before the block; without one, the block is only excluded."""

    SRC_WITH_READER = """\
!$acfd status v, w
!$acfd grid 8 8
program p
  integer i, j
  logical flag
  real v(8, 8), w(8, 8)
  do i = 1, 8
    do j = 1, 8
      v(i, j) = 1.0
    end do
  end do
  if (flag) then
    do i = 2, 7
      do j = 2, 7
        w(i, j) = v(i, j - 1)
      end do
    end do
  end if
  do i = 2, 7
    do j = 2, 7
      w(i, j) = v(i - 1, j)
    end do
  end do
end
"""

    def test_region_ends_before_if_with_reader(self):
        frame, pairs = (build_frame_program(parse_source(self.SRC_WITH_READER)),
                        None)
        pairs = build_sldp(frame)
        v_pairs = [p for p in pairs if p.array == "v"]
        assert len(v_pairs) == 2  # conditional reader + main reader
        if_nodes = [n for n in frame.nodes if n.kind == "if"]
        assert len(if_nodes) == 1
        for pair in v_pairs:
            region = upper_bound_region(frame, pair)
            assert region.end <= if_nodes[0].open

    def test_if_without_reader_only_excluded(self):
        src = """\
!$acfd status v, w
!$acfd grid 8 8
program p
  integer i, j
  logical flag
  real v(8, 8), w(8, 8), z
  do i = 1, 8
    do j = 1, 8
      v(i, j) = 1.0
    end do
  end do
  if (flag) then
    z = 1.0
  end if
  do i = 2, 7
    do j = 2, 7
      w(i, j) = v(i - 1, j)
    end do
  end do
end
"""
        frame, pair, region = region_for(src, kind="forward")
        if_node = [n for n in frame.nodes if n.kind == "if"][0]
        # region extends past the IF...
        assert region.end == pair.reader.open
        assert region.end > if_node.close
        # ...but no placement inside it
        for p in region.allowed:
            assert not (if_node.open < p <= if_node.close)
        assert if_node.open in region.allowed


class TestCase3StartInsideArm:
    """Fig 7(d)/(e): a starting point inside an IF arm hoists out unless
    an R-type loop follows in the *same* arm."""

    def test_hoists_out_of_arm(self):
        src = """\
!$acfd status v, w
!$acfd grid 8 8
program p
  integer i, j
  logical flag
  real v(8, 8), w(8, 8)
  if (flag) then
    do i = 1, 8
      do j = 1, 8
        v(i, j) = 1.0
      end do
    end do
  end if
  do i = 2, 7
    do j = 2, 7
      w(i, j) = v(i - 1, j)
    end do
  end do
end
"""
        frame, pair, region = region_for(src, kind="forward")
        if_node = [n for n in frame.nodes if n.kind == "if"][0]
        assert region.start == if_node.close + 1

    def test_fig7e_reader_in_other_arm_does_not_pin(self):
        src = """\
!$acfd status v, w
!$acfd grid 8 8
program p
  integer i, j
  logical flag
  real v(8, 8), w(8, 8)
  if (flag) then
    do i = 1, 8
      do j = 1, 8
        v(i, j) = 1.0
      end do
    end do
  else
    do i = 2, 7
      do j = 2, 7
        w(i, j) = v(i, j - 1)
      end do
    end do
  end if
  do i = 2, 7
    do j = 2, 7
      w(i, j) = v(i - 1, j)
    end do
  end do
end
"""
        frame = build_frame_program(parse_source(src))
        pairs = build_sldp(frame)
        if_node = [n for n in frame.nodes if n.kind == "if"][0]
        # the pair whose reader is the final loop: its start hoists out of
        # the if-then arm even though the ELSE arm holds an R-type loop —
        # "they cannot be executed at the same time" (Fig 7e)
        main_reader_pairs = [
            p for p in pairs
            if p.array == "v" and p.reader.open > if_node.close]
        assert main_reader_pairs
        region = upper_bound_region(frame, main_reader_pairs[0])
        assert region.start == if_node.close + 1

    def test_reader_later_in_same_arm_pins(self):
        src = """\
!$acfd status v, w
!$acfd grid 8 8
program p
  integer i, j
  logical flag
  real v(8, 8), w(8, 8)
  if (flag) then
    do i = 1, 8
      do j = 1, 8
        v(i, j) = 1.0
      end do
    end do
    do i = 2, 7
      do j = 2, 7
        w(i, j) = v(i, j - 1)
      end do
    end do
  end if
end
"""
        frame = build_frame_program(parse_source(src))
        pairs = [p for p in build_sldp(frame) if p.array == "v"]
        assert len(pairs) == 1
        region = upper_bound_region(frame, pairs[0])
        if_node = [n for n in frame.nodes if n.kind == "if"][0]
        # start stays inside the arm
        assert region.start <= if_node.close
        assert region.start == pairs[0].writer.close + 1


JUMPS = pytest.mark.parametrize("jump", [
    "    if (r .lt. 0.05) exit\n", "    if (it .eq. 3) cycle\n"],
    ids=["exit", "cycle"])


class TestJumpPastTheLoop:
    """An EXIT from the frame loop, or a CYCLE on its last trip, skips
    the rest of its body: a sync the reader after the loop needs may sit
    before the jump's IF or after the loop, never between them."""

    SRC = """\
!$acfd status a, c
!$acfd grid 12 10
!$acfd frame it
program gen
  implicit none
  integer n, m, i, j, it
  parameter (n = 12, m = 10)
  real a(n, m), c(n, m), r
  do i = 1, n
    do j = 1, m
      a(i, j) = 0.01 * i * j + 0.1 * i
      c(i, j) = 0.5 - 0.02 * (i + 2 * j)
    end do
  end do
  do it = 1, 3
    r = 100.0
    do i = 3, n - 2
      do j = 3, m - 2
        a(i, j) = 0.1 * a(i, j) + 0.2 * c(i-1, j) + 0.2 * c(i+1, j)
        r = amin1(r, a(i, j))
      end do
    end do
    do i = 3, n - 2
      do j = 3, m - 2
        c(i, j) = 0.1 * c(i, j) + 0.2 * a(i-1, j) + 0.2 * a(i+1, j)
      end do
    end do
    if (r .lt. 0.05) exit
  end do
  do i = 3, n - 2
    do j = 3, m - 2
      a(i, j) = 0.1 * a(i, j) + 0.2 * c(i-1, j) + 0.2 * c(i+1, j)
    end do
  end do
  write (6, *) 'it', it
end
"""

    @JUMPS
    def test_the_jumped_over_slots_are_left_out(self, jump):
        frame = build_frame_program(parse_source(
            self.SRC.replace("    if (r .lt. 0.05) exit\n", jump)))
        loop = frame.frame_loop()
        exit_if = next(n for n in frame.nodes if n.kind == "if")
        for pair in build_sldp(frame):
            region = upper_bound_region(frame, pair)
            if pair.array == "c" and pair.reader.open > loop.close:
                assert region.allowed
                assert not [s for s in region.allowed
                            if exit_if.open < s <= loop.close]

    @JUMPS
    def test_the_jumping_run_is_bitwise(self, jump):
        acfd = AutoCFD.from_source(
            self.SRC.replace("    if (r .lt. 0.05) exit\n", jump))
        seq = acfd.run_sequential()
        assert seq.io.output() == ("it 2" if "exit" in jump else "it 4")
        for dims in ((2, 1), (4, 1)):
            par = acfd.compile(partition=dims).run_parallel()
            assert par.output() == seq.io.output()
            for name in ("a", "c"):
                assert np.array_equal(par.array(name).data,
                                      seq.array(name).data), (dims, name)
