"""Every nest verdict of the generated programs, pinned.

``fixtures/nest_verdict_pins.json`` records, for every program the
classification pins cover (the kernel gallery, its subroutine-bodied
variants and both paper apps at their full grids) at 2x1, 1x2 and 2x2,
the report's schedule counts (``vector_modes``) and each scalar
fallback with its unit, line and reason (``fallback_reasons``).  It was
written by ``build_pins()``; a change to the subscript analysis, the
nest verdict or the restructurer that moves any nest between schedules,
or changes why one falls back, shows here.
"""

import functools
import json
import pathlib

import pytest

from repro.core import AutoCFD

from tests.analysis.test_classification_pins import _programs

PINS_PATH = pathlib.Path(__file__).parent / "fixtures" \
    / "nest_verdict_pins.json"

CUTS = ((2, 1), (1, 2), (2, 2))


@functools.lru_cache(maxsize=None)
def _acfd(name: str) -> AutoCFD:
    return AutoCFD.from_source(_programs()[name]())


def verdicts(name: str, cuts: tuple) -> dict:
    """The pinned form of one compile's nest verdicts."""
    acfd = _acfd(name)
    dims = cuts + (1,) * (len(acfd.grid.shape) - 2)
    report = acfd.compile(partition=dims).report
    return {"vector_modes": dict(report.vector_modes),
            "fallback_reasons": [list(entry)
                                 for entry in report.fallback_reasons]}


def _key(name: str, cuts: tuple) -> str:
    return f"{name} {'x'.join(map(str, cuts))}"


def build_pins() -> str:
    """The pins file: one compile a line."""
    lines = [f" {json.dumps(_key(name, cuts))}: "
             f"{json.dumps(verdicts(name, cuts), sort_keys=True)}"
             for name in sorted(_programs()) for cuts in CUTS]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_program_and_cut(pins):
    assert sorted(pins) == sorted(_key(name, cuts) for name in _programs()
                                  for cuts in CUTS)


@pytest.mark.parametrize("cuts", CUTS, ids=["2x1", "1x2", "2x2"])
@pytest.mark.parametrize("name", sorted(_programs()))
def test_nest_verdicts_match_the_pins(name, cuts, pins):
    assert verdicts(name, cuts) == pins[_key(name, cuts)]
