"""Ghost freshness across the frame loop's back edge: verdict by verdict.

Each test compiles a small program and reads what
:mod:`repro.sync.freshness` decided for its syncs; the generated
programs of ``tests/codegen/test_freshness_generated.py`` check the same
verdicts bitwise on running code.
"""

import pytest

from repro.apps import kernels
from repro.core import AutoCFD

from tests.conftest import JACOBI_BC_SRC, JACOBI_SRC, SEIDEL_SRC


def verdicts(src: str, dims, **kwargs):
    plan = AutoCFD.from_source(src).compile(partition=dims, **kwargs).plan
    return plan, [(s.entry_only, s.refusals) for s in plan.syncs]


def sub_src(**kwargs) -> str:
    return kernels.jacobi_5pt_sub(n=12, m=8, iters=4, **kwargs)


SMOOTH_SRC = """\
!$acfd status v, vnew
!$acfd grid 12 8
!$acfd frame iter
program twice
  implicit none
  integer n, m, i, j, iter
  parameter (n = 12, m = 8)
  common /fld/ v(n, m), vnew(n, m)
  real v, vnew
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.1 * i + 0.01 * j
      vnew(i, j) = 0.0
    end do
  end do
  call smooth()
  do iter = 1, 4
    call smooth()
  end do
end program twice

subroutine smooth()
  implicit none
  integer n, m, i, j
  parameter (n = 12, m = 8)
  common /fld/ v(n, m), vnew(n, m)
  real v, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = 0.5 * (v(i, j) + vnew(i, j))
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = 0.25 * (v(i-1, j) + v(i+1, j))
    end do
  end do
end
"""


class TestEntryOnly:
    def test_jacobi_top_sync_is_fresh_from_the_bottom_one(self):
        plan, got = verdicts(JACOBI_SRC, (2, 1))
        assert got == [({"v": [2]}, {}), ({}, {})]
        one, two = plan.syncs
        assert one.steady == [] and one.arrays != []
        assert two.steady is two.arrays  # nothing demoted: the same list

    def test_sync_ids_sites_and_counts_do_not_move(self):
        fresh = AutoCFD.from_source(JACOBI_SRC).compile(partition=(2, 1))
        assert (fresh.plan.syncs_before, fresh.plan.syncs_after) == (3, 2)
        text = fresh.parallel_source()
        assert "call acfd_exchange(1, v)" in text
        assert "call acfd_exchange(2, v)" in text

    def test_pipelined_sweep_kills_and_the_bottom_sync_covers(self):
        # the Gauss-Seidel nest writes v (role C): sync 2 after it stays,
        # sync 1 ahead of it is fresh from sync 2 across the back edge
        _plan, got = verdicts(SEIDEL_SRC, (2, 1))
        assert got == [({"v": [2]}, {}), ({}, {})]

    def test_sync_in_an_inner_loop_is_checked_at_every_execution(self):
        # packed_states_2d runs sync 1 once per state inside ``do s``;
        # q is only written after that loop, so all three executions
        # find it fresh (from sync 2, and from sync 1's first trip)
        plan, got = verdicts(kernels.packed_states_2d(), (2, 1))
        assert got == [({"q": [2]}, {}), ({}, {})]
        assert plan.syncs[0].insertion[2] == "before"
        assert len(plan.syncs[0].insertion[1]) == 3  # frame / do s / nest

    def test_part_of_a_sync_can_leave(self):
        from repro.apps.sprayer import sprayer_source
        plan, _got = verdicts(sprayer_source(n=48, m=20, iters=4), (2, 1))
        one = plan.syncs[0]
        assert [n for n, _d in one.arrays] == ["pr", "sw", "vx"]
        assert one.entry_only == {"pr": [7]}
        assert [n for n, _d in one.steady] == ["sw", "vx"]
        assert all(s.steady is s.arrays for s in plan.syncs[1:])

    def test_nothing_is_entry_only_on_the_aerofoil(self):
        from repro.apps.aerofoil import aerofoil_source
        plan, _got = verdicts(aerofoil_source(nx=25, ny=11, nz=7, iters=2),
                              (2, 1, 1))
        assert all(s.steady is s.arrays for s in plan.syncs)


class TestKills:
    def test_write_at_the_top_of_the_frame_keeps_the_sync(self):
        _plan, got = verdicts(JACOBI_BC_SRC, (2, 1))
        assert got == [({}, {}), ({}, {})]

    def test_write_under_an_if_arm_kills_on_the_meet(self):
        src = JACOBI_BC_SRC.replace(
            "    do i = 1, n\n      v(i, 1) = 1.0\n    end do\n",
            "    if (mod(iter, 2) .eq. 0) then\n"
            "      do i = 1, n\n        v(i, 1) = 1.0\n      end do\n"
            "    end if\n")
        assert src != JACOBI_BC_SRC
        _plan, got = verdicts(src, (2, 1))
        assert got == [({}, {}), ({}, {})]

    def test_scalar_boundary_assignment_kills(self):
        # not a field loop, guarded by acfd_owns in the SPMD program
        src = JACOBI_SRC.replace("    err = 0.0\n",
                                 "    err = 0.0\n    v(3, 1) = 1.0\n")
        _plan, got = verdicts(src, (2, 1))
        assert got == [({}, {}), ({}, {})]

    def test_aliased_actual_argument_kills(self):
        # touch() never writes, but it sees v under the name w, which
        # the by-name walk of its body cannot follow
        src = sub_src().replace("    call relaxx()",
                                "    call touch(v)\n    call relaxx()")
        src += ("\nsubroutine touch(w)\n  implicit none\n"
                "  integer n, m\n  parameter (n = 12, m = 8)\n"
                "  real w(n, m)\nend\n")
        _plan, base = verdicts(sub_src(), (2, 1))
        assert base[0] == ({"v": [2]}, {})
        _plan, got = verdicts(src, (2, 1))
        assert got[0] == ({}, {})


class TestRefusals:
    def test_two_cut_dimensions(self):
        _plan, got = verdicts(JACOBI_SRC, (2, 2))
        for entry_only, refusals in got:
            assert not entry_only
            assert "two or more cut dimensions" in refusals["v"]

    def test_one_cut_dimension_of_a_two_dimension_stencil_is_fine(self):
        # line_sweep_x reads along x only: at 2x2 its member has ghost
        # width on one cut dimension and is demoted as at 2x1
        _plan, got = verdicts(kernels.line_sweep_x(), (2, 2))
        assert got == [({"v": [2]}, {}), ({}, {})]

    @pytest.mark.parametrize("jump,word", [
        ("    if (err .lt. 0.0) goto 10\n", "GOTO"),
        ("    goto (10, 10), iter\n", "computed GOTO"),
        ("    if (err .lt. 0.0) cycle\n", "CYCLE"),
    ])
    def test_jump_in_the_frame_body(self, jump, word):
        src = JACOBI_SRC.replace("    err = 0.0\n", "    err = 0.0\n" + jump) \
            .replace("    if (err .lt. eps) exit\n",
                     "    if (err .lt. eps) exit\n10  continue\n")
        _plan, got = verdicts(src, (2, 1))
        for entry_only, refusals in got:
            assert not entry_only
            assert f"holds a {word} (line" in refusals["v"]

    def test_exit_from_the_frame_loop_is_no_jump(self):
        assert "    if (err .lt. eps) exit\n" in JACOBI_SRC
        _plan, got = verdicts(JACOBI_SRC, (2, 1))
        assert got[0] == ({"v": [2]}, {})

    def test_sync_outside_the_frame_loop(self):
        # v is never written in the loop, so the sync ahead of the
        # stencil is fresh from its own first trip; the reader after the
        # loop gets a sync of its own, which runs once and is left alone
        src = JACOBI_SRC.replace(
            "    do i = 2, n - 1\n      do j = 2, m - 1\n"
            "        v(i, j) = vnew(i, j)\n      end do\n    end do\n", "") \
            .replace(
            "  write (6, *) iter, err\n",
            "  do i = 2, n - 1\n    do j = 2, m - 1\n"
            "      v(i, j) = vnew(i-1, j) + vnew(i+1, j)\n"
            "    end do\n  end do\n  write (6, *) iter, err\n")
        assert src.count("v(i, j) = vnew") == 1
        plan, got = verdicts(src, (2, 1))
        frame_loop = plan.frame.frame_loop()
        assert [s.placement_slot > frame_loop.close for s in plan.syncs] \
            == [False, True]
        assert got == [({"v": [1]}, {}),
                       ({}, {"vnew": "the sync runs outside the frame loop"})]

    def test_sync_in_a_subroutine_also_called_outside_the_loop(self):
        # smooth() copies back and relaxes again, so a sync sits inside
        # it; it is called once ahead of the loop as well, and the one
        # emitted call would then run at both sites, one of them outside
        src = SMOOTH_SRC
        plan, _got = verdicts(src, (2, 1))
        inside_callee = [s for s in plan.syncs if s.insertion[0] == "smooth"]
        assert inside_callee
        for sync in inside_callee:
            assert sync.refusals == {
                "v": "the sync runs outside the frame loop"}
        # called from the loop alone, the same sync is fresh from itself:
        # nothing writes v between one execution and the next
        plan, _got = verdicts(src.replace("  call smooth()\n  do iter",
                                          "  do iter"), (2, 1))
        assert [s.refusals for s in plan.syncs
                if s.insertion[0] == "smooth"] == [{}]

    def test_no_frame_loop(self):
        src = JACOBI_SRC.replace("!$acfd frame iter\n", "")
        _plan, got = verdicts(src, (2, 1))
        assert got and all(
            r == {"v": "the program has no frame loop"} and not e
            for e, r in got)

    def test_frame_loop_nested_in_another_loop(self):
        src = JACOBI_SRC.replace("  integer n, m, i, j, iter\n",
                                 "  integer n, m, i, j, iter, pass\n") \
            .replace("  do iter = 1, 120\n",
                     "  do pass = 1, 2\n  do iter = 1, 120\n") \
            .replace("  write (6, *) iter, err\n",
                     "  end do\n  write (6, *) iter, err\n")
        _plan, got = verdicts(src, (2, 1))
        assert got and all("runs more than once" in r["v"] and not e
                           for e, r in got)

    def test_narrower_covering_delivery(self):
        # with combining off every pair keeps its own sync: the one for
        # the width-1 reader runs first and leaves one layer fresh, the
        # one for the width-2 reader still has to send
        src = kernels.wide_stencil_2d().replace(
            "    err = 0.0\n",
            "    err = 0.0\n"
            "    do i = 3, n - 2\n      do j = 3, m - 2\n"
            "        vn(i, j) = v(i-1, j) + v(i+1, j)\n"
            "      end do\n    end do\n")
        plan, _got = verdicts(src, (2, 1), combine=False)
        narrow = [r["v"] for s in plan.syncs
                  for r in [s.refusals] if "v" in r]
        assert narrow and all(
            "leaves only widths (1, 1) fresh on grid dimension 1, "
            "(2, 2) needed" in r for r in narrow)


class TestRuntimeCounts:
    """Per-frame message counts on the kernels: exact, both executors."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_jacobi_sends_one_exchange_per_frame(self, executor):
        frames = 6
        src = kernels.jacobi_5pt(n=24, m=16, iters=frames, eps=0.0)
        acfd = AutoCFD.from_source(src)
        par = acfd.compile(partition=(2, 1)).run_parallel(executor=executor)
        seq = acfd.run_sequential()
        for name in ("v", "vnew"):
            assert par.array(name).data.tobytes() \
                == seq.array(name).data.tobytes()
        stats = par.comm_stats
        # two ranks, one neighbor each: sync 2 every frame, sync 1 once
        assert stats["sends"] == 2 * frames + 2
        assert par.trace.count("exchange") == 2 * frames + 2
        assert par.trace.count("allreduce") == 2 * frames
        # frames are counted from the hook's events, not from the first
        # exchange, which no longer recurs
        assert len(par.timeline().frames()) == frames


class TestInnerLoopFixpoint:
    """The placer never leaves a sync at the top of an inner loop without
    one at its bottom, so the case is built by hand: a sync ahead of the
    inner loop, one at the top of its body, and a write after that."""

    SRC = """\
!$acfd status v, vnew
!$acfd grid 12 8
!$acfd frame iter
program inner
  implicit none
  integer n, m, i, j, k, iter
  parameter (n = 12, m = 8)
  real v(n, m), vnew(n, m)
  do iter = 1, 4
    do k = 1, 2
      do i = 2, n - 1
        do j = 2, m - 1
          vnew(i, j) = 0.5 * (v(i-1, j) + v(i+1, j))
        end do
      end do
      do i = 2, n - 1
        do j = 2, m - 1
          v(i, j) = vnew(i, j)
        end do
      end do
    end do
  end do
end
"""

    def _analyze(self, src: str):
        from repro.analysis.frame import build_frame_program
        from repro.codegen.plan import PlannedSync
        from repro.fortran.parser import parse_source
        from repro.sync.freshness import analyze_freshness
        inner = (("body", 0), ("body", 0))  # frame loop / do k
        syncs = [PlannedSync(k + 1, ("inner", path, "before"),
                             [("v", {0: (1, 1)})], 1, 0)
                 for k, path in enumerate([inner, inner + (("body", 0),)])]
        cu = parse_source(src)
        frame = build_frame_program(cu)
        analyze_freshness(frame, syncs, (0,), frame.frame_loop(), cu)
        return [(s.entry_only, s.refusals) for s in syncs]

    def test_write_later_in_the_inner_loop_reaches_its_top(self):
        # on the inner loop's second trip v was just written: the sync at
        # the top of the body is needed, though on the first it finds v
        # fresh from the sync ahead of the loop; that one, in turn, is
        # never covered (the copy nest runs after every delivery)
        assert self._analyze(self.SRC) == [({}, {}), ({}, {})]

    def test_without_the_write_the_inner_sync_covers_itself(self):
        src = self.SRC.replace("v(i, j) = vnew(i, j)",
                               "vnew(i, j) = 2.0 * vnew(i, j)")
        assert self._analyze(src) == [({"v": [1, 2]}, {}),
                                      ({"v": [1, 2]}, {})]
