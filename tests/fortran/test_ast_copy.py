"""``copy_node``: the restructurer's structural clone of the AST."""

import copy

import pytest

from repro.apps.aerofoil import aerofoil_source
from repro.apps.sprayer import sprayer_source
from repro.fortran import ast as A
from repro.fortran.parser import parse_source
from repro.fortran.printer import print_compilation_unit

from tests.conftest import JACOBI_SRC, SEIDEL_SRC

SOURCES = {"jacobi": lambda: JACOBI_SRC, "seidel": lambda: SEIDEL_SRC,
           "sprayer": sprayer_source, "aerofoil": aerofoil_source}


def _containers(node, out):
    """ids of every node, list and tuple reachable through fields."""
    out.add(id(node))
    for value in vars(node).values():
        stack = [value]
        while stack:
            v = stack.pop()
            if isinstance(v, (A.Expr, A.Stmt, A.ProgramUnit)):
                _containers(v, out)
            elif isinstance(v, (list, tuple)):
                out.add(id(v))
                stack.extend(v)
    return out


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_clone_equals_deepcopy_and_shares_no_node(name):
    cu = parse_source(SOURCES[name]())
    clone = A.copy_node(cu)
    assert clone == cu == copy.deepcopy(cu)
    assert print_compilation_unit(clone) == print_compilation_unit(cu)
    assert [set(vars(a)) for a in A.walk(clone)] \
        == [set(vars(b)) for b in A.walk(cu)]
    shared = _containers(clone, set()) & _containers(cu, set())
    # an empty tuple is one object in CPython; nothing else may be shared
    assert shared <= {id(())}
    assert all(u.symbols is None for u in clone.units)
    assert all(u.symbols is not None for u in cu.units)
    assert clone.directives is cu.directives


def test_mutating_the_clone_leaves_the_original():
    cu = parse_source(JACOBI_SRC)
    text = print_compilation_unit(cu)
    clone = A.copy_node(cu)
    loop = next(s for s in A.walk_statements(clone.main.body)
                if isinstance(s, A.DoLoop))
    loop.start = A.IntLit(99)
    loop.body.clear()
    clone.main.decls.pop()
    assert print_compilation_unit(cu) == text
