"""Case study 2: flow simulation of sprayers (2-D, Jacobi-dominated).

The paper's 6,100-line sprayer code "studies the air velocity for
variations of sprayers, such as the sprayer fan speeds and fan positions".
This generator reproduces its *computational* character:

* a 2-D flow field (default 300 x 100, Table 3's size);
* status arrays for the velocity components, pressure, and swirl, in
  double-buffered pairs held in COMMON blocks across subroutines;
* one frame = state save, fan source terms, direction-split momentum
  relaxation sweeps, pressure update, swirl transport, and a convergence
  pass — all Jacobi-style (A-type/R-type pairs, no self-dependence),
  which is why this case parallelizes much better than case study 1
  (Table 3 vs Table 2);
* the relaxation sweeps are *direction-split* (each references along one
  dimension only — §4.2 case 2), so the Table 1 synchronization counts
  for an X cut and a Y cut are nearly disjoint and the 4x4 count is
  close to their sum, exactly as in the paper (72 + 69 vs 141);
* fan speed and fan position are *read from input* (the restructurer
  turns this into a rank-0 read + broadcast); the fan spans the rows
  ``fanpos - 5 .. fanpos + 5``, cut off where the wall ends, so every
  grid takes every deck.

``stages`` scales the number of relaxation passes per frame and thereby
the loop/pair counts; the default is tuned so the Table 1 synchronization
numbers land near the paper's (~70 before, ~7 after, ~90% reduction).
"""

from __future__ import annotations


def _momentum_stage(s: int, n: int, m: int) -> str:
    c = 0.46 + 0.005 * s
    return f"""\
subroutine momentum{s}()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /flow/ vx(n, m), vy(n, m), pr(n, m), sw(n, m)
  common /work/ vxn(n, m), vyn(n, m), prn(n, m), swn(n, m)
  real vx, vy, pr, sw, vxn, vyn, prn, swn
! x-sweep: vx relaxed along the flow direction only
  do i = 2, n - 1
    do j = 1, m
      vxn(i, j) = {c} * (vx(i-1, j) + vx(i+1, j)) &
        + 0.02 * (pr(i-1, j) - pr(i+1, j))
    end do
  end do
! y-sweep: vy relaxed across the flow only
  do i = 1, n
    do j = 2, m - 1
      vyn(i, j) = {c} * (vy(i, j-1) + vy(i, j+1)) &
        + 0.02 * (pr(i, j-1) - pr(i, j+1))
    end do
  end do
! upwind advection of vx along x (direction-specific references)
  do i = 2, n - 1
    do j = 1, m
      vxn(i, j) = vxn(i, j) + 0.01 * (vx(i-1, j) - vx(i, j))
    end do
  end do
! cross-coupling of vy along y
  do i = 1, n
    do j = 2, m - 1
      vyn(i, j) = vyn(i, j) + 0.01 * (vy(i, j-1) - vy(i, j))
    end do
  end do
! copy back (no cross-point references)
  do i = 2, n - 1
    do j = 2, m - 1
      vx(i, j) = vxn(i, j)
      vy(i, j) = vyn(i, j)
    end do
  end do
end subroutine momentum{s}
"""


def sprayer_source(n: int = 300, m: int = 100, iters: int = 60,
                   eps: float = 1.0e-6, stages: int = 5) -> str:
    """Generate the sprayer flow simulation.

    Args:
        n, m: flow-field extents (paper: 300 x 100; Table 4 sweeps them).
        iters: frame-loop bound.
        eps: convergence threshold on the velocity residual.
        stages: relaxation passes per frame (loop-count scale knob).
    """
    relax_subs = "\n".join(_momentum_stage(s, n, m) for s in range(stages))
    relax_calls = "\n".join(f"    call momentum{s}()" for s in range(stages))
    return f"""\
!$acfd status vx, vy, pr, sw, vxn, vyn, prn, swn, vxo, vyo
!$acfd grid {n} {m}
!$acfd frame iter
program sprayer
  implicit none
  integer n, m, i, j, iter, fanlo, fanhi
  parameter (n = {n}, m = {m})
  common /flow/ vx(n, m), vy(n, m), pr(n, m), sw(n, m)
  common /work/ vxn(n, m), vyn(n, m), prn(n, m), swn(n, m)
  common /old/ vxo(n, m), vyo(n, m)
  common /conv/ err
  real vx, vy, pr, sw, vxn, vyn, prn, swn, vxo, vyo
  real err, eps, fanspd
  integer fanpos
! fan speed and fan position come from the study input deck
  read (5, *) fanspd, fanpos
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      vx(i, j) = 0.0
      vy(i, j) = 0.0
      pr(i, j) = 1.0
      sw(i, j) = 0.0
    end do
  end do
  fanlo = max0(1, fanpos - 5)
  fanhi = min0(m, fanpos + 5)
  do iter = 1, {iters}
    call savestate()
    call fans(fanspd, fanlo, fanhi)
{relax_calls}
    call pressure()
    call swirl()
    call convergence(eps)
    if (err .lt. eps) exit
  end do
  write (6, *) 'frames', iter, 'residual', err
end program sprayer

{relax_subs}
subroutine savestate()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /flow/ vx(n, m), vy(n, m), pr(n, m), sw(n, m)
  common /old/ vxo(n, m), vyo(n, m)
  real vx, vy, pr, sw, vxo, vyo
! keep the frame's starting state for the convergence test
  do i = 1, n
    do j = 1, m
      vxo(i, j) = vx(i, j)
      vyo(i, j) = vy(i, j)
    end do
  end do
end subroutine savestate

subroutine fans(fanspd, fanlo, fanhi)
  implicit none
  integer n, m, i, j, fanlo, fanhi
  parameter (n = {n}, m = {m})
  common /flow/ vx(n, m), vy(n, m), pr(n, m), sw(n, m)
  real vx, vy, pr, sw, fanspd
! the fan blows along the left boundary between fanlo and fanhi
  do j = 1, m
    vx(1, j) = 0.0
  end do
  do j = fanlo, fanhi
    vx(1, j) = fanspd
    sw(1, j) = 0.1 * fanspd
  end do
! outflow at the right boundary follows the interior
  do j = 1, m
    vx(n, j) = vx(n - 1, j)
    vy(n, j) = vy(n - 1, j)
  end do
! solid walls top and bottom
  do i = 1, n
    vy(i, 1) = 0.0
    vy(i, m) = 0.0
  end do
end subroutine fans

subroutine pressure()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /flow/ vx(n, m), vy(n, m), pr(n, m), sw(n, m)
  common /work/ vxn(n, m), vyn(n, m), prn(n, m), swn(n, m)
  real vx, vy, pr, sw, vxn, vyn, prn, swn
! pressure relaxation along x driven by vx divergence
  do i = 2, n - 1
    do j = 1, m
      prn(i, j) = 0.48 * (pr(i-1, j) + pr(i+1, j)) &
        - 0.05 * (vx(i+1, j) - vx(i-1, j))
    end do
  end do
! pressure relaxation along y driven by vy divergence
  do i = 1, n
    do j = 2, m - 1
      prn(i, j) = 0.5 * prn(i, j) + 0.24 * (pr(i, j-1) + pr(i, j+1)) &
        - 0.02 * (vy(i, j+1) - vy(i, j-1))
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      pr(i, j) = prn(i, j)
    end do
  end do
end subroutine pressure

subroutine swirl()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /flow/ vx(n, m), vy(n, m), pr(n, m), sw(n, m)
  common /work/ vxn(n, m), vyn(n, m), prn(n, m), swn(n, m)
  real vx, vy, pr, sw, vxn, vyn, prn, swn
! swirl transport: advection by the local flow, split by direction
  do i = 2, n - 1
    do j = 1, m
      swn(i, j) = 0.45 * (sw(i-1, j) + sw(i+1, j)) + 0.1 * sw(i, j) &
        + 0.02 * vx(i, j) * (sw(i-1, j) - sw(i, j))
    end do
  end do
  do i = 1, n
    do j = 2, m - 1
      swn(i, j) = swn(i, j) + 0.01 * vy(i, j) * (sw(i, j-1) - sw(i, j))
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      sw(i, j) = swn(i, j)
    end do
  end do
end subroutine swirl

subroutine convergence(eps)
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /flow/ vx(n, m), vy(n, m), pr(n, m), sw(n, m)
  common /old/ vxo(n, m), vyo(n, m)
  common /conv/ err
  real vx, vy, pr, sw, vxo, vyo
  real err, eps
! residual: how far the velocity field moved this frame
  err = 0.0
  do i = 2, n - 1
    do j = 2, m - 1
      err = amax1(err, abs(vx(i, j) - vxo(i, j)))
      err = amax1(err, abs(vy(i, j) - vyo(i, j)))
    end do
  end do
end subroutine convergence
"""


#: canonical input deck for the sprayer study (fan speed, fan position)
SPRAYER_INPUT = "2.5 50\n"
