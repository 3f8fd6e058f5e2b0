"""What the compiler emits for every pinned program, by digest.

``fixtures/emitted_pins.json`` holds one entry per program and partition:
the twelve gallery kernels (subroutine-bodied variants included), the
sprayer at 300x100 and the aerofoil at 99x41x13, each at 2x1, 1x2, 2x2
and 4x1 (a 3-D grid is left uncut in k).  An entry records the sha256 of
``parallel_source()``, of ``mpi_source()`` and of the pyback translation
of the SPMD and of the sequential program (its Python source and the C
text of its native nests), the nest verdicts (the native nest count
and each scalar nest's ``fallback_reasons``), the Table 1 counts and the
reduction lines; a compile the restructurer refuses records the
``CodegenError`` text instead.  A change that moves any of these shows
here, entry by entry.

Regenerate the fixture from the repository root with::

    PYTHONPATH=src python -m tests.codegen.test_emitted_pins
"""

import functools
import hashlib
import json
import pathlib

import pytest

from repro.core import AutoCFD
from repro.errors import CodegenError
from repro.interp.native import program_text
from repro.interp.pyback import translate

from tests.analysis.test_classification_pins import _programs

PINS_PATH = pathlib.Path(__file__).parent / "fixtures" / "emitted_pins.json"

CUTS = ((2, 1), (1, 2), (2, 2), (4, 1))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pyback_sha(cu) -> str:
    """Digest of the pyback translation of *cu*: its Python source, a
    NUL byte and the C text of its native nests (nothing is built)."""
    source, nests, _stats = translate(cu)
    return _sha(source + "\0" + program_text(nests))


@functools.lru_cache(maxsize=None)
def _acfd(name: str) -> AutoCFD:
    return AutoCFD.from_source(_programs()[name]())


@functools.lru_cache(maxsize=None)
def _sequential_sha(name: str) -> str:
    return _pyback_sha(_acfd(name).cu)


def entry(name: str, cuts: tuple) -> dict:
    """The pinned form of one compile."""
    acfd = _acfd(name)
    dims = cuts + (1,) * (len(acfd.grid.shape) - 2)
    try:
        result = acfd.compile(partition=dims)
    except CodegenError as exc:
        return {"codegen_error": str(exc)}
    report = result.report
    return {"parallel_sha256": _sha(result.parallel_source()),
            "mpi_sha256": _sha(result.mpi_source()),
            "spmd_pyback_sha256": _pyback_sha(result.spmd_cu),
            "sequential_pyback_sha256": _sequential_sha(name),
            "native_nests": report.vector_loops,
            "fallback_reasons": [list(r) for r in report.fallback_reasons],
            "table1": [report.syncs_before, report.syncs_after],
            "reduction_lines": report.reduction_lines()}


def _key(name: str, cuts: tuple) -> str:
    return f"{name} {'x'.join(map(str, cuts))}"


def build_pins() -> str:
    """The pins file: one compile a line."""
    lines = [f" {json.dumps(_key(name, cuts))}: "
             f"{json.dumps(entry(name, cuts), sort_keys=True)}"
             for name in sorted(_programs()) for cuts in CUTS]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_program_and_cut(pins):
    assert sorted(pins) == sorted(_key(name, cuts) for name in _programs()
                                  for cuts in CUTS)


@pytest.mark.parametrize("cuts", CUTS, ids=["2x1", "1x2", "2x2", "4x1"])
@pytest.mark.parametrize("name", sorted(_programs()))
def test_emitted_program_matches_the_pins(name, cuts, pins):
    assert entry(name, cuts) == pins[_key(name, cuts)]


if __name__ == "__main__":
    PINS_PATH.write_text(build_pins())
    print(f"wrote {PINS_PATH}")
