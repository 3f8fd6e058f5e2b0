"""Field-loop classification pinned, and checked against a per-loop scan.

``classify_unit`` finds every loop's swept dimensions in one walk per
loop-forest root.  Two checks hold it to what the classifier computed
when it scanned each loop's body on its own:

* ``fixtures/classification_pins.json`` records, for every unit of the
  kernel gallery, its subroutine-bodied variants and both paper apps at
  their full grids, each field loop's path, variable and ``sweeps`` (in
  order) and, per status array, the role, read and write offsets,
  ``fixed_dims`` and ``irregular``.  It was written by ``build_pins()``
  with the per-loop classifier;
* ``per_loop_classification`` below *is* that per-loop classifier (one
  scan of each loop's body for its sweeps, one more of each field loop's
  nest for its uses).  On generated frame programs the two must find the
  same field loops with equal sweeps and equal uses, access lists
  included.
"""

import functools
import json
import pathlib

import pytest
from hypothesis import given, settings

from repro.analysis.field_loops import (ArrayUse, FieldLoop,
                                        _status_dim_vars, classify_unit)
from repro.analysis.loops import build_loop_forest
from repro.analysis.stencil import SubscriptKind, array_access_patterns
from repro.apps import kernels
from repro.core import AutoCFD

from tests.codegen.test_freshness_generated import programs, render

PINS_PATH = pathlib.Path(__file__).parent / "fixtures" \
    / "classification_pins.json"


def _programs() -> dict:
    """name -> source generator: the gallery, its subroutine-bodied
    variants, the sprayer at 300x100 and the aerofoil at 99x41x13."""
    from repro.apps.aerofoil import aerofoil_source
    from repro.apps.sprayer import sprayer_source
    from tests.interp.test_executor_equivalence import CASES
    return {**dict(CASES),
            "jacobi_5pt_sub": kernels.jacobi_5pt_sub,
            "jacobi_9pt_sub": kernels.jacobi_9pt_sub,
            "heat_3d_sub": kernels.heat_3d_sub,
            "sprayer": lambda: sprayer_source(300, 100, iters=2),
            "aerofoil": lambda: aerofoil_source(99, 41, 13, iters=1)}


@functools.lru_cache(maxsize=None)
def _cu(name: str):
    return AutoCFD.from_source(_programs()[name]()).cu


def pin(field_loops) -> list:
    """The JSON form of a unit's field loops; order-sensitive lists
    wherever the classifier's dicts keep an insertion order."""
    return [{"path": [list(step) for step in fl.loop.path],
             "var": fl.loop.var,
             "sweeps": [[g, var] for g, var in fl.sweeps.items()],
             "uses": [[name, {
                 "role": use.role.value,
                 "read_offsets": [[g, sorted(offs)]
                                  for g, offs in use.read_offsets.items()],
                 "write_offsets": [[g, sorted(offs)]
                                   for g, offs in use.write_offsets.items()],
                 "fixed_dims": [[g, c] for g, c in use.fixed_dims.items()],
                 "irregular": use.irregular}]
                 for name, use in fl.uses.items()]}
            for fl in field_loops]


def build_pins() -> str:
    """The pins file: program name -> unit name -> pinned field loops,
    one field loop a line."""
    programs = []
    for name in sorted(_programs()):
        cu = _cu(name)
        units = []
        for unit in cu.units:
            loops = ",\n".join(
                "   " + json.dumps(entry)
                for entry in pin(classify_unit(unit, cu.directives)
                                 .field_loops))
            units.append(f"  {json.dumps(unit.name)}: "
                         + (f"[\n{loops}\n  ]" if loops else "[]"))
        programs.append(f" {json.dumps(name)}: {{\n" + ",\n".join(units)
                        + "\n }")
    return "{\n" + ",\n".join(programs) + "\n}\n"


# -- the per-loop classifier: one body scan per loop, one per field loop ----

def per_loop_classification(unit, directives) -> list[FieldLoop]:
    forest = build_loop_forest(unit)
    table = unit.symbols
    status_set = {a for a in directives.status_arrays
                  if table.get(a) is not None and table.get(a).is_array}
    invariants = {s.name: int(s.param_value)
                  for s in table.symbols.values()
                  if s.is_parameter and isinstance(s.param_value, (int,))}

    def loop_sweeps(loop) -> dict[int, str]:
        sweeps: dict[int, str] = {}
        for access in array_access_patterns(
                loop.stmt.body, status_set,
                set(loop.nest_vars) | {loop.var}, invariants):
            dim_map = directives.status_dims(
                access.array, table.get(access.array).array.rank)
            for g, var in _status_dim_vars(access, dim_map).items():
                if var == loop.var:
                    sweeps.setdefault(g, var)
        return sweeps

    sweeping = {id(loop.stmt): sw for loop in forest.all_loops
                if (sw := loop_sweeps(loop))}
    field_loops: list[FieldLoop] = []
    for loop in forest.all_loops:
        if id(loop.stmt) not in sweeping:
            continue
        node = loop.parent
        while node is not None and id(node.stmt) not in sweeping:
            node = node.parent
        if node is not None:
            continue
        fl = FieldLoop(loop, unit, index=len(field_loops))
        fl.sweeps.update(sweeping[id(loop.stmt)])
        for desc in loop.descendants:
            fl.sweeps.update(sweeping.get(id(desc.stmt), {}))
        for access in array_access_patterns([loop.stmt], status_set,
                                            set(loop.nest_vars), invariants):
            use = fl.uses.setdefault(access.array, ArrayUse(access.array))
            dim_map = directives.status_dims(
                access.array, table.get(access.array).array.rank)
            (use.writes if access.is_write else use.reads).append(access)
            offsets = use.write_offsets if access.is_write \
                else use.read_offsets
            for adim, sub in enumerate(access.subs):
                g = dim_map[adim]
                if g is None:
                    continue
                if sub.kind is SubscriptKind.INDUCTION:
                    offsets.setdefault(g, set()).add(sub.offset)
                elif sub.kind is SubscriptKind.CONSTANT:
                    use.fixed_dims.setdefault(g, sub.const)
                elif sub.kind is SubscriptKind.STRIDED:
                    offsets.setdefault(g, set()).update(
                        {-sub.distance, sub.distance})
                else:
                    use.irregular = True
        field_loops.append(fl)
    return field_loops


def assert_same_classification(unit, directives) -> None:
    got = classify_unit(unit, directives)
    want = per_loop_classification(unit, directives)
    assert [fl.loop.stmt for fl in got.field_loops] \
        == [fl.loop.stmt for fl in want]
    for a, b in zip(got.field_loops, want):
        assert list(a.sweeps.items()) == list(b.sweeps.items())
        assert list(a.uses) == list(b.uses)
        assert a.uses == b.uses
        assert a.index == b.index
        assert got.field_loop_at(a.loop.path) is a


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_program(pins):
    assert sorted(pins) == sorted(_programs())


@pytest.mark.parametrize("name", sorted(_programs()))
def test_classification_matches_the_pins(name, pins):
    cu = _cu(name)
    assert sorted(pins[name]) == sorted(u.name for u in cu.units)
    for unit in cu.units:
        got = pin(classify_unit(unit, cu.directives).field_loops)
        assert got == pins[name][unit.name], (name, unit.name)


@pytest.mark.parametrize("name", sorted(_programs()))
def test_per_loop_scan_agrees_on_the_pinned_programs(name):
    cu = _cu(name)
    for unit in cu.units:
        assert_same_classification(unit, cu.directives)


@settings(derandomize=True, deadline=None, database=None)
@given(programs())
def test_per_loop_scan_agrees_on_generated_frame_programs(spec):
    cu = AutoCFD.from_source(render(spec)).cu
    for unit in cu.units:
        assert_same_classification(unit, cu.directives)
