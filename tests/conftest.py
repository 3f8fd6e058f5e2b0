"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.fortran import parse_source

#: ``pytest --hypothesis-profile=deep``: CI's second, longer pass over
#: the generated-program tests (tier-1 keeps hypothesis' default count)
settings.register_profile("deep", max_examples=1500)


def parse(src: str, **kwargs):
    """Parse helper with resolution on."""
    return parse_source(src, **kwargs)


def parse_main(src: str):
    """Parse and return the main program unit."""
    return parse_source(src).main


JACOBI_SRC = """\
!$acfd status v, vnew
!$acfd grid 24 16
!$acfd frame iter
program jacobi
  implicit none
  integer n, m, i, j, iter
  parameter (n = 24, m = 16)
  real v(n, m), vnew(n, m), err, eps
  eps = 1.0e-4
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.0
    end do
  end do
  do i = 1, n
    v(i, 1) = 1.0
    v(i, m) = 2.0
  end do
  do iter = 1, 120
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
  write (6, *) iter, err
end program jacobi
"""

def with_boundary_refresh(src: str) -> str:
    """*src* re-imposing a boundary row of ``v`` at the top of every frame.

    The write makes ``v``'s ghosts stale there, so the top-of-frame
    exchange is needed on every trip; without it the freshness pass
    demotes that exchange to entry-only and its consumer nest is no
    longer split, which the overlap tests are about.
    """
    assert src.count("    err = 0.0\n") == 1
    return src.replace("    err = 0.0\n",
                       "    err = 0.0\n"
                       "    do i = 1, n\n"
                       "      v(i, 1) = 1.0\n"
                       "    end do\n")


JACOBI_BC_SRC = with_boundary_refresh(JACOBI_SRC)

SEIDEL_SRC = """\
!$acfd status v
!$acfd grid 20 14
!$acfd frame iter
program seidel
  implicit none
  integer n, m, i, j, iter
  parameter (n = 20, m = 14)
  real v(n, m), err, eps, old
  eps = 1.0e-5
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.0
    end do
  end do
  do j = 1, m
    v(1, j) = 1.0
    v(n, j) = 2.0
  end do
  do iter = 1, 80
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
  write (6, *) iter, err
end program seidel
"""


@pytest.fixture
def jacobi_cu():
    return parse_source(JACOBI_SRC)


@pytest.fixture
def seidel_cu():
    return parse_source(SEIDEL_SRC)


def arrays_equal(a, b) -> bool:
    """Bitwise equality of two OffsetArrays."""
    return (a.lower == b.lower and a.shape == b.shape
            and np.array_equal(a.data, b.data))
