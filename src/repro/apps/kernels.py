"""Stencil kernel gallery: the paper's computation model in miniature.

Each generator emits a complete, runnable Fortran program (directives
included) exercising one classic CFD iteration scheme:

* :func:`jacobi_5pt` / :func:`jacobi_9pt` — the five/nine-point stencils
  §2 names as CFD kernels (A-type + R-type loop pairs);
* :func:`gauss_seidel_2d` — the canonical self-dependent loop of
  Figure 3(b), parallelized by mirror-image decomposition;
* :func:`sor_2d` — successive over-relaxation (weighted Gauss-Seidel);
* :func:`redblack_2d` — two-color relaxation (two A/R loop pairs with
  offset-only cross-dependence);
* :func:`line_sweep_x` — a direction-specific loop (paper §4.2 case 2:
  references only along one dimension);
* :func:`heat_3d` — a 3-D seven-point stencil.

All take grid extents, iteration count, and convergence threshold so the
test suite can run them small and the benchmarks large.
"""

from __future__ import annotations


def jacobi_5pt(n: int = 40, m: int = 24, iters: int = 200,
               eps: float = 1.0e-5) -> str:
    """Five-point Jacobi relaxation with convergence test."""
    return f"""\
!$acfd status v, vnew
!$acfd grid {n} {m}
!$acfd frame iter
program jacobi5
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  real v(n, m), vnew(n, m), err, eps
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.0
    end do
  end do
  do i = 1, n
    v(i, 1) = 1.0
    v(i, m) = 2.0
  end do
  do j = 1, m
    v(1, j) = 0.5
    v(n, j) = 1.5
  end do
  do iter = 1, {iters}
    err = 0.0
    do i = 2, n - 1
      do j = 2, m - 1
        vnew(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
        err = amax1(err, abs(vnew(i, j) - v(i, j)))
      end do
    end do
    do i = 2, n - 1
      do j = 2, m - 1
        v(i, j) = vnew(i, j)
      end do
    end do
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program jacobi5
"""


def jacobi_9pt(n: int = 40, m: int = 24, iters: int = 150,
               eps: float = 1.0e-5) -> str:
    """Nine-point Jacobi (corners travel via the two-phase exchange)."""
    return f"""\
!$acfd status v, vnew
!$acfd grid {n} {m}
!$acfd frame iter
program jacobi9
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  real v(n, m), vnew(n, m), err, eps
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.01 * float(i) + 0.02 * float(j)
    end do
  end do
  do iter = 1, {iters}
    err = 0.0
    do i = 2, n - 1
      do j = 2, m - 1
        vnew(i, j) = 0.125 * (v(i-1, j) + v(i+1, j) + v(i, j-1) &
          + v(i, j+1)) + 0.125 * (v(i-1, j-1) + v(i-1, j+1) &
          + v(i+1, j-1) + v(i+1, j+1)) - 0.0001
        err = amax1(err, abs(vnew(i, j) - v(i, j)))
      end do
    end do
    do i = 2, n - 1
      do j = 2, m - 1
        v(i, j) = vnew(i, j)
      end do
    end do
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program jacobi9
"""


def gauss_seidel_2d(n: int = 30, m: int = 20, iters: int = 150,
                    eps: float = 1.0e-5) -> str:
    """Figure 3(b): the self-dependent loop needing mirror-image
    decomposition (reads both updated and old neighbor values)."""
    return f"""\
!$acfd status v
!$acfd grid {n} {m}
!$acfd frame iter
program seidel
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  real v(n, m), err, eps, old
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.0
    end do
  end do
  do i = 1, n
    v(i, 1) = 1.0
    v(i, m) = 2.0
  end do
  do j = 1, m
    v(1, j) = 0.5
    v(n, j) = 1.5
  end do
  do iter = 1, {iters}
    err = 0.0
    do i = 2, n - 1
      do j = 2, m - 1
        old = v(i, j)
        v(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
        err = amax1(err, abs(v(i, j) - old))
      end do
    end do
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program seidel
"""


def sor_2d(n: int = 30, m: int = 20, iters: int = 120, omega: float = 1.5,
           eps: float = 1.0e-5) -> str:
    """Successive over-relaxation: weighted self-dependent sweep."""
    return f"""\
!$acfd status v
!$acfd grid {n} {m}
!$acfd frame iter
program sor
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  real v(n, m), err, eps, old, w, upd
  eps = {eps:e}
  w = {omega}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.0
    end do
  end do
  do j = 1, m
    v(1, j) = 1.0
  end do
  do iter = 1, {iters}
    err = 0.0
    do i = 2, n - 1
      do j = 2, m - 1
        old = v(i, j)
        upd = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
        v(i, j) = old + w * (upd - old)
        err = amax1(err, abs(v(i, j) - old))
      end do
    end do
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program sor
"""


def redblack_2d(n: int = 32, m: int = 20, iters: int = 120,
                eps: float = 1.0e-5) -> str:
    """Red-black relaxation: two half-sweeps with cross dependences."""
    return f"""\
!$acfd status v
!$acfd grid {n} {m}
!$acfd frame iter
program redblack
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  real v(n, m), err, eps, old
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.0
    end do
  end do
  do j = 1, m
    v(1, j) = 1.0
    v(n, j) = 2.0
  end do
  do iter = 1, {iters}
    err = 0.0
    do i = 2, n - 1
      do j = 2, m - 1
        if (mod(i + j, 2) .eq. 0) then
          old = v(i, j)
          v(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
          err = amax1(err, abs(v(i, j) - old))
        end if
      end do
    end do
    do i = 2, n - 1
      do j = 2, m - 1
        if (mod(i + j, 2) .eq. 1) then
          old = v(i, j)
          v(i, j) = 0.25 * (v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1))
          err = amax1(err, abs(v(i, j) - old))
        end if
      end do
    end do
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program redblack
"""


def line_sweep_x(n: int = 40, m: int = 24, iters: int = 100,
                 eps: float = 1.0e-4) -> str:
    """Direction-specific references (§4.2 case 2): stencil along X only,
    so a partition cutting only Y needs no synchronization for it."""
    return f"""\
!$acfd status v, vn
!$acfd grid {n} {m}
!$acfd frame iter
program linesweep
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  real v(n, m), vn(n, m), err, eps
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      v(i, j) = float(i) * 0.1
    end do
  end do
  do iter = 1, {iters}
    err = 0.0
    do i = 2, n - 1
      do j = 1, m
        vn(i, j) = 0.5 * (v(i-1, j) + v(i+1, j))
        err = amax1(err, abs(vn(i, j) - v(i, j)))
      end do
    end do
    do i = 2, n - 1
      do j = 1, m
        v(i, j) = vn(i, j)
      end do
    end do
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program linesweep
"""


def heat_3d(n: int = 16, m: int = 12, l: int = 10, iters: int = 60,
            eps: float = 1.0e-4) -> str:
    """3-D seven-point heat diffusion."""
    return f"""\
!$acfd status u, un
!$acfd grid {n} {m} {l}
!$acfd frame iter
program heat3d
  implicit none
  integer n, m, l, i, j, k, iter
  parameter (n = {n}, m = {m}, l = {l})
  real u(n, m, l), un(n, m, l), err, eps
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      do k = 1, l
        u(i, j, k) = 0.0
      end do
    end do
  end do
  do j = 1, m
    do k = 1, l
      u(1, j, k) = 1.0
      u(n, j, k) = 2.0
    end do
  end do
  do iter = 1, {iters}
    err = 0.0
    do i = 2, n - 1
      do j = 2, m - 1
        do k = 2, l - 1
          un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
            + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0
          err = amax1(err, abs(un(i, j, k) - u(i, j, k)))
        end do
      end do
    end do
    do i = 2, n - 1
      do j = 2, m - 1
        do k = 2, l - 1
          u(i, j, k) = un(i, j, k)
        end do
      end do
    end do
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program heat3d
"""

def wide_stencil_2d(n: int = 32, m: int = 20, iters: int = 40,
                    eps: float = 1.0e-4) -> str:
    """Dependency distance 2 (§4.2 case 5): a fourth-order five-point
    stencil reaching two cells each way, as multigrid-style codes do."""
    return f"""\
!$acfd status v, vn
!$acfd grid {n} {m}
!$acfd distance 2
!$acfd frame iter
program wide
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  real v(n, m), vn(n, m), err, eps
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.02 * float(i) - 0.01 * float(j)
    end do
  end do
  do iter = 1, {iters}
    err = 0.0
    do i = 3, n - 2
      do j = 3, m - 2
        vn(i, j) = 0.125 * (-v(i-2, j) + 4.0 * v(i-1, j) &
          + 4.0 * v(i+1, j) - v(i+2, j)) &
          + 0.125 * (-v(i, j-2) + 4.0 * v(i, j-1) &
          + 4.0 * v(i, j+1) - v(i, j+2)) - 0.5 * v(i, j)
        err = amax1(err, abs(vn(i, j) - v(i, j)))
      end do
    end do
    do i = 3, n - 2
      do j = 3, m - 2
        v(i, j) = vn(i, j)
      end do
    end do
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program wide
"""


def packed_states_2d(n: int = 24, m: int = 16, ns: int = 3,
                     iters: int = 20) -> str:
    """Packed status arrays (§4.2 case 4): several flow variables live in
    one higher-rank array whose trailing dimension is *not* a grid
    dimension and must not participate in partitioning."""
    return f"""\
!$acfd status q, qn
!$acfd grid {n} {m}
!$acfd dims q 1 2 0
!$acfd dims qn 1 2 0
!$acfd frame iter
program packed
  implicit none
  integer n, m, ns, i, j, s, iter
  parameter (n = {n}, m = {m}, ns = {ns})
  real q(n, m, ns), qn(n, m, ns), err
  do s = 1, ns
    do i = 1, n
      do j = 1, m
        q(i, j, s) = 0.1 * float(i) + 0.01 * float(j * s)
      end do
    end do
  end do
  do iter = 1, {iters}
    err = 0.0
    do s = 1, ns
      do i = 2, n - 1
        do j = 2, m - 1
          qn(i, j, s) = 0.25 * (q(i-1, j, s) + q(i+1, j, s) &
            + q(i, j-1, s) + q(i, j+1, s))
          err = amax1(err, abs(qn(i, j, s) - q(i, j, s)))
        end do
      end do
    end do
    do s = 1, ns
      do i = 2, n - 1
        do j = 2, m - 1
          q(i, j, s) = qn(i, j, s)
        end do
      end do
    end do
  end do
  write (6, *) 'err', err
end program packed
"""


def jacobi_5pt_sub(n: int = 40, m: int = 24, iters: int = 200,
                   eps: float = 1.0e-5) -> str:
    """Direction-split five-point Jacobi behind ``call`` boundaries.

    The sprayer shape in miniature: status arrays in COMMON, the
    relaxation direction-split across two single-call-site subroutines
    (x-pass with the convergence reduction, then y-pass), plus a
    copy-back subroutine.  Because ``v``'s ghosts are consumed by *two*
    callees, the combined sync stays in the main program before
    ``call relaxx()``.
    """
    return f"""\
!$acfd status v, vnew
!$acfd grid {n} {m}
!$acfd frame iter
program jacobi5s
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  common /fld/ v(n, m), vnew(n, m)
  common /cnv/ err
  real v, vnew, err, eps
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.0
    end do
  end do
  do i = 1, n
    v(i, 1) = 1.0
    v(i, m) = 2.0
  end do
  do j = 1, m
    v(1, j) = 0.5
    v(n, j) = 1.5
  end do
  do iter = 1, {iters}
    call relaxx()
    call relaxy()
    call copyback()
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program jacobi5s

subroutine relaxx()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /fld/ v(n, m), vnew(n, m)
  common /cnv/ err
  real v, vnew, err
  err = 0.0
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = 0.25 * (v(i-1, j) + v(i+1, j))
      err = amax1(err, abs(vnew(i, j) - v(i, j)))
    end do
  end do
end

subroutine relaxy()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /fld/ v(n, m), vnew(n, m)
  real v, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = vnew(i, j) + 0.25 * (v(i, j-1) + v(i, j+1))
    end do
  end do
end

subroutine copyback()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /fld/ v(n, m), vnew(n, m)
  real v, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = vnew(i, j)
    end do
  end do
end
"""


def jacobi_9pt_sub(n: int = 40, m: int = 24, iters: int = 150,
                   eps: float = 1.0e-5) -> str:
    """Direction-split nine-point Jacobi behind ``call`` boundaries.

    The x-pass reads the corner neighbors behind a call: on a two-cut
    partition the exchange must refresh the corner ghosts; on a
    single-cut partition the one exchanged face covers them.
    """
    return f"""\
!$acfd status v, vnew
!$acfd grid {n} {m}
!$acfd frame iter
program jacobi9s
  implicit none
  integer n, m, i, j, iter
  parameter (n = {n}, m = {m})
  common /fld/ v(n, m), vnew(n, m)
  common /cnv/ err
  real v, vnew, err, eps
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.01 * float(i) + 0.02 * float(j)
    end do
  end do
  do iter = 1, {iters}
    call smooth9x()
    call smooth9y()
    call copyback9()
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program jacobi9s

subroutine smooth9x()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /fld/ v(n, m), vnew(n, m)
  common /cnv/ err
  real v, vnew, err
  err = 0.0
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = 0.125 * (v(i-1, j) + v(i+1, j)) &
        + 0.125 * (v(i-1, j-1) + v(i-1, j+1) &
        + v(i+1, j-1) + v(i+1, j+1)) - 0.0001
      err = amax1(err, abs(vnew(i, j) - v(i, j)))
    end do
  end do
end

subroutine smooth9y()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /fld/ v(n, m), vnew(n, m)
  real v, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      vnew(i, j) = vnew(i, j) + 0.125 * (v(i, j-1) + v(i, j+1))
    end do
  end do
end

subroutine copyback9()
  implicit none
  integer n, m, i, j
  parameter (n = {n}, m = {m})
  common /fld/ v(n, m), vnew(n, m)
  real v, vnew
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = vnew(i, j)
    end do
  end do
end
"""


def heat_3d_sub(n: int = 16, m: int = 12, l: int = 10, iters: int = 60,
                eps: float = 1.0e-4) -> str:
    """Direction-split 3-D heat diffusion behind ``call`` boundaries."""
    return f"""\
!$acfd status u, un
!$acfd grid {n} {m} {l}
!$acfd frame iter
program heat3ds
  implicit none
  integer n, m, l, i, j, k, iter
  parameter (n = {n}, m = {m}, l = {l})
  common /fld/ u(n, m, l), un(n, m, l)
  common /cnv/ err
  real u, un, err, eps
  eps = {eps:e}
  do i = 1, n
    do j = 1, m
      do k = 1, l
        u(i, j, k) = 0.0
      end do
    end do
  end do
  do j = 1, m
    do k = 1, l
      u(1, j, k) = 1.0
      u(n, j, k) = 2.0
    end do
  end do
  do iter = 1, {iters}
    call diffx()
    call diffyz()
    call copyback3()
    if (err .lt. eps) exit
  end do
  write (6, *) 'iters', iter, 'err', err
end program heat3ds

subroutine diffx()
  implicit none
  integer n, m, l, i, j, k
  parameter (n = {n}, m = {m}, l = {l})
  common /fld/ u(n, m, l), un(n, m, l)
  common /cnv/ err
  real u, un, err
  err = 0.0
  do i = 2, n - 1
    do j = 2, m - 1
      do k = 2, l - 1
        un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k)) / 6.0
        err = amax1(err, abs(un(i, j, k) - u(i, j, k)))
      end do
    end do
  end do
end

subroutine diffyz()
  implicit none
  integer n, m, l, i, j, k
  parameter (n = {n}, m = {m}, l = {l})
  common /fld/ u(n, m, l), un(n, m, l)
  real u, un
  do i = 2, n - 1
    do j = 2, m - 1
      do k = 2, l - 1
        un(i, j, k) = un(i, j, k) + (u(i, j-1, k) + u(i, j+1, k) &
          + u(i, j, k-1) + u(i, j, k+1)) / 6.0
      end do
    end do
  end do
end

subroutine copyback3()
  implicit none
  integer n, m, l, i, j, k
  parameter (n = {n}, m = {m}, l = {l})
  common /fld/ u(n, m, l), un(n, m, l)
  real u, un
  do i = 2, n - 1
    do j = 2, m - 1
      do k = 2, l - 1
        u(i, j, k) = un(i, j, k)
      end do
    end do
  end do
end
"""
