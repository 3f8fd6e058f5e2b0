"""The parser's output pinned on every program the compiler is tested on.

``fixtures/ast_pins.json`` holds, for each program of the classification
pins (the kernel gallery, its subroutine-bodied variants, the sprayer at
300x100 and the aerofoil at 99x41x13), the sha256 of ``repr()`` of the
raw AST (``resolve=False``) and of the resolved AST.  It was written by
``build_pins()`` with the ten-level recursive-descent expression parser
that the precedence-climbing loop replaced; the new parser must build the
same trees, node for node, source line numbers included.

Regenerate (only when the AST is meant to change)::

    PYTHONPATH=src python -c "from tests.fortran.test_ast_pins import \\
        build_pins; print(build_pins(), end='')" \\
        > tests/fortran/fixtures/ast_pins.json
"""

import hashlib
import json
import pathlib

import pytest

from repro.fortran import parse_source

from tests.analysis.test_classification_pins import _programs

PINS_PATH = pathlib.Path(__file__).parent / "fixtures" / "ast_pins.json"


def digests(source: str) -> dict:
    """sha256 of the raw and of the resolved AST's ``repr()``."""
    def sha(cu) -> str:
        return hashlib.sha256(repr(cu).encode()).hexdigest()
    return {"raw": sha(parse_source(source, resolve=False)),
            "resolved": sha(parse_source(source))}


def build_pins() -> str:
    """The pins file: program name -> its two digests."""
    pins = {name: digests(gen()) for name, gen in _programs().items()}
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_every_pinned_program_is_checked(pins):
    assert set(pins) == set(_programs())


@pytest.mark.parametrize("name", sorted(_programs()))
def test_ast_matches_the_pins(name, pins):
    assert digests(_programs()[name]()) == pins[name]
