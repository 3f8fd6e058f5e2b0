"""Field-loop identification and the A/R/C/O taxonomy of Figure 1."""

from repro.analysis.field_loops import LoopRole, classify_unit
from repro.fortran.parser import parse_source

#: Figure 1 of the paper, as one program: four loop types over v.
FIGURE1 = """\
!$acfd status v, w
!$acfd grid 10 10
program fig1
  implicit none
  integer i, j, m, n
  parameter (m = 10, n = 10)
  real v(m, n), w(m, n), x
  do i = 1, m
    do j = 1, n
      v(i, j) = float(i + j)
    end do
  end do
  do i = 1, m
    do j = 1, n
      x = v(i - 1, j) * 2.0
    end do
  end do
  do i = 1, m
    do j = 1, n
      v(i, j) = v(i - 1, j + 1) + 1.0
    end do
  end do
  do i = 1, m
    do j = 1, n
      w(i, j) = float(i)
    end do
  end do
end program fig1
"""


def classify(src: str):
    cu = parse_source(src)
    return classify_unit(cu.main, cu.directives)


class TestFigure1Taxonomy:
    def test_four_field_loops(self):
        cls = classify(FIGURE1)
        assert len(cls.field_loops) == 4

    def test_a_type(self):
        cls = classify(FIGURE1)
        assert cls.field_loops[0].role("v") is LoopRole.A

    def test_r_type(self):
        cls = classify(FIGURE1)
        assert cls.field_loops[1].role("v") is LoopRole.R

    def test_c_type(self):
        cls = classify(FIGURE1)
        assert cls.field_loops[2].role("v") is LoopRole.C
        assert cls.field_loops[2].is_self_dependent

    def test_o_type(self):
        cls = classify(FIGURE1)
        assert cls.field_loops[3].role("v") is LoopRole.O
        assert cls.field_loops[3].role("w") is LoopRole.A


class TestSweeps:
    def test_both_dims_swept(self):
        cls = classify(FIGURE1)
        assert cls.field_loops[0].sweeps == {0: "i", 1: "j"}

    def test_frame_loop_not_field_loop(self):
        cls = classify("""\
!$acfd status v
!$acfd grid 6 6
program p
  integer it, i, j
  real v(6, 6)
  do it = 1, 10
    do i = 1, 6
      do j = 1, 6
        v(i, j) = float(it)
      end do
    end do
  end do
end
""")
        assert len(cls.field_loops) == 1
        assert cls.field_loops[0].loop.var == "i"

    def test_boundary_loop_sweeps_one_dim(self):
        cls = classify("""\
!$acfd status v
!$acfd grid 6 6
program p
  integer j
  real v(6, 6)
  do j = 1, 6
    v(1, j) = 0.0
  end do
end
""")
        fl = cls.field_loops[0]
        assert fl.sweeps == {1: "j"}
        assert fl.uses["v"].fixed_dims == {0: 1}

    def test_two_adjacent_field_loops_in_one_outer(self):
        cls = classify("""\
!$acfd status v
!$acfd grid 6 6
program p
  integer it, i, j
  real v(6, 6)
  do it = 1, 3
    do i = 1, 6
      do j = 1, 6
        v(i, j) = 1.0
      end do
    end do
    do i = 1, 6
      do j = 1, 6
        v(i, j) = v(i, j) * 2.0
      end do
    end do
  end do
end
""")
        assert len(cls.field_loops) == 2

    def test_nested_field_loop_keeps_the_reads_in_its_bounds(self):
        # the field loop sits below the frame loop: its uses come from
        # the frame loop's walk, its own bounds' reads included
        cls = classify("""\
!$acfd status v
!$acfd grid 6 6
program p
  integer it, i, j
  integer v(6, 6)
  do it = 1, 3
    do i = v(1, 1), 6
      do j = 1, 6
        v(i, j) = v(i, j) + v(1, j)
      end do
    end do
  end do
end
""")
        (fl,) = cls.field_loops
        assert fl.loop.var == "i"
        use = fl.uses["v"]
        assert [tuple(sub.const for sub in access.subs)
                for access in use.reads] == [(1, 1), (None, None), (1, None)]
        assert use.fixed_dims == {0: 1, 1: 1}


class TestOffsets:
    def test_read_offsets_recorded(self):
        cls = classify(FIGURE1)
        use = cls.field_loops[2].uses["v"]
        assert use.read_offsets[0] == {-1}
        assert use.read_offsets[1] == {1}

    def test_max_read_distance(self):
        cls = classify("""\
!$acfd status v, w
!$acfd grid 8 8
!$acfd distance 2
program p
  integer i, j
  real v(8, 8), w(8, 8)
  do i = 3, 6
    do j = 3, 6
      w(i, j) = v(i - 2, j) + v(i + 1, j)
    end do
  end do
end
""")
        use = cls.field_loops[0].uses["v"]
        assert use.max_read_distance(0) == (2, 1)
        assert use.max_read_distance(1) == (0, 0)

    def test_irregular_flag(self):
        cls = classify("""\
!$acfd status v
!$acfd grid 8 8
program p
  integer i, j, g(8)
  real v(8, 8)
  do i = 1, 8
    do j = 1, 8
      v(i, j) = v(g(i), j)
    end do
  end do
end
""")
        assert cls.field_loops[0].uses["v"].irregular
        assert cls.field_loops[0].is_self_dependent


class TestPackedArrays:
    def test_extended_dims_not_swept(self):
        cls = classify("""\
!$acfd status q
!$acfd grid 6 6
program p
  integer i, j, s
  real q(6, 6, 3)
  do s = 1, 3
    do i = 1, 6
      do j = 1, 6
        q(i, j, s) = float(s)
      end do
    end do
  end do
end
""")
        # the s loop does not sweep a status dim, so the field loop root
        # is the i loop
        assert len(cls.field_loops) == 1
        fl = cls.field_loops[0]
        assert fl.loop.var == "i"
        assert fl.sweeps == {0: "i", 1: "j"}

    def test_explicit_dims_directive(self):
        cls = classify("""\
!$acfd status q
!$acfd grid 6 6
!$acfd dims q 0 1 2
program p
  integer i, j, s
  real q(3, 6, 6)
  do s = 1, 3
    do i = 1, 6
      do j = 1, 6
        q(s, i, j) = q(s, i - 1, j)
      end do
    end do
  end do
end
""")
        fl = cls.field_loops[0]
        assert fl.sweeps == {0: "i", 1: "j"}
        assert fl.uses["q"].read_offsets[0] == {-1}
