"""AutoCFD driver API and end-to-end integration checks."""

import numpy as np
import pytest

from repro.core import AutoCFD
from repro.errors import DirectiveError, PartitionError
from repro.fortran.parser import parse_source

from tests.conftest import JACOBI_SRC, SEIDEL_SRC


class TestConstruction:
    def test_from_source(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        assert acfd.grid.shape == (24, 16)

    def test_missing_directives_rejected(self):
        with pytest.raises(DirectiveError):
            AutoCFD.from_source("program p\nreal v(4, 4)\nend\n")

    def test_auto_status_extends(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        # vnew is grid-shaped: auto-added even though only v was declared
        assert "vnew" in acfd.directives.status_arrays

    def test_auto_status_skips_wrong_shape(self):
        src = JACOBI_SRC.replace("real v(n, m), vnew(n, m)",
                                 "real v(n, m), vnew(n, m), tiny(3)")
        acfd = AutoCFD.from_source(src)
        assert "tiny" not in acfd.directives.status_arrays

    def test_from_file(self, tmp_path):
        path = tmp_path / "prog.f90"
        path.write_text(JACOBI_SRC)
        acfd = AutoCFD.from_file(str(path))
        assert acfd.cu.main.name == "jacobi"


class TestCompileApi:
    def test_partition_tuple(self):
        res = AutoCFD.from_source(JACOBI_SRC).compile(partition=(2, 1))
        assert res.plan.partition.dims == (2, 1)

    def test_processors_selects_partition(self):
        res = AutoCFD.from_source(JACOBI_SRC).compile(processors=2)
        assert res.plan.partition.size == 2
        # longest dimension (24) is cut
        assert res.plan.partition.dims == (2, 1)

    def test_partition_directive_used(self):
        src = JACOBI_SRC.replace("!$acfd frame iter",
                                 "!$acfd frame iter\n!$acfd partition 2 2")
        res = AutoCFD.from_source(src).compile()
        assert res.plan.partition.dims == (2, 2)

    def test_no_partition_anywhere_raises(self):
        with pytest.raises(PartitionError):
            AutoCFD.from_source(JACOBI_SRC).compile()

    def test_report_row(self):
        res = AutoCFD.from_source(JACOBI_SRC).compile(partition=(2, 1))
        row = res.report.row()
        assert "jacobi" in row
        assert "2x1" in row
        header = type(res.report).header()
        assert "partition" in header

    def test_parallel_source_text(self):
        res = AutoCFD.from_source(JACOBI_SRC).compile(partition=(2, 1))
        assert "acfd_exchange" in res.parallel_source()


class TestEndToEnd:
    def test_jacobi_bitwise(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        seq = acfd.run_sequential()
        par = acfd.compile(partition=(2, 2)).run_parallel()
        assert np.array_equal(par.array("v").data, seq.array("v").data)

    def test_seidel_bitwise(self):
        acfd = AutoCFD.from_source(SEIDEL_SRC)
        seq = acfd.run_sequential()
        par = acfd.compile(partition=(2, 2)).run_parallel()
        assert np.array_equal(par.array("v").data, seq.array("v").data)

    def test_generated_source_reparses_and_compiles(self):
        res = AutoCFD.from_source(JACOBI_SRC).compile(partition=(2, 1))
        text = res.parallel_source()
        cu = parse_source(text)
        assert cu.main.name == "jacobi"
        # the reparsed program still carries the acfd calls
        from repro.fortran import ast as A
        calls = [s for s in A.walk_statements(cu.main.body)
                 if isinstance(s, A.CallStmt)
                 and s.name.startswith("acfd_")]
        assert calls

    def test_scalar_and_output_access(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        par = acfd.compile(partition=(2, 1)).run_parallel()
        assert par.output()
        assert par.scalar("iter") >= 1
