"""Whole-program compiles of the gallery and both paper apps.

``restructure()`` keeps the source's unit list, and ``compile(overlap=...)``
is accepted and changes nothing: every halo exchange is blocking in each
mode.
"""

import functools

import pytest

from repro.apps import kernels
from repro.core import AutoCFD
from repro.errors import CodegenError


def _programs() -> dict:
    """name -> source generator: the gallery, its subroutine-bodied
    variants, and both paper apps at full grid size (few frames)."""
    from repro.apps.aerofoil import aerofoil_source
    from repro.apps.sprayer import sprayer_source
    from tests.interp.test_executor_equivalence import CASES
    return {**dict(CASES),
            "jacobi_5pt_sub": kernels.jacobi_5pt_sub,
            "jacobi_9pt_sub": kernels.jacobi_9pt_sub,
            "heat_3d_sub": kernels.heat_3d_sub,
            "sprayer": lambda: sprayer_source(iters=2),
            "aerofoil": lambda: aerofoil_source(iters=1)}


@functools.lru_cache(maxsize=None)
def _program(name: str) -> AutoCFD:
    return AutoCFD.from_source(_programs()[name]())


def _dims(acfd: AutoCFD, cuts: tuple[int, ...]) -> tuple[int, ...]:
    return cuts + (1,) * (len(acfd.grid.shape) - 2)


class TestRestructureKeepsTheUnitList:
    """restructure() rewrites units in place and never adds one."""

    @pytest.mark.parametrize("cuts", [(2, 1), (1, 2), (2, 2)],
                             ids=["2x1", "1x2", "2x2"])
    @pytest.mark.parametrize("name", sorted(_programs()))
    def test_spmd_program_has_the_source_units(self, name, cuts):
        acfd = _program(name)
        result = acfd.compile(partition=_dims(acfd, cuts))
        assert [u.name for u in result.spmd_cu.units] \
            == [u.name for u in acfd.cu.units]


class TestModes:
    """Each overlap mode emits the one blocking program."""

    @pytest.mark.parametrize("cuts", [(2, 1), (2, 2)], ids=["2x1", "2x2"])
    @pytest.mark.parametrize("name", sorted(_programs()))
    def test_every_mode_emits_one_program(self, name, cuts):
        acfd = _program(name)
        outputs = set()
        for mode in ("auto", "on", "off"):
            result = acfd.compile(partition=_dims(acfd, cuts), overlap=mode)
            report = result.report
            outputs.add((result.parallel_source(), result.mpi_source(),
                         report.syncs_before, report.syncs_after,
                         report.overlap_syncs, tuple(report.overlap_refusals)))
        assert len(outputs) == 1
        (_par, mpi, _before, _after, marked, refusals), = outputs
        assert (marked, refusals) == (0, ())
        assert "mpi_isend" not in mpi and "mpi_waitall" not in mpi

    def test_invalid_mode_rejected(self):
        with pytest.raises(CodegenError, match="overlap mode 'maybe'"):
            _program("jacobi_5pt").compile(partition=(2, 1),
                                           overlap="maybe")
