"""Field-loop identification and A/R/C/O classification (paper Figure 1).

A *field loop* is an outermost DO loop whose nest sweeps at least one
status dimension of at least one status array.  Relative to one status
array ``v`` a field loop is:

* **A-type** (assignment-only): the nest writes ``v`` and never reads it;
* **R-type** (reference-only): reads ``v`` and never writes it;
* **C-type** (combined): both — when read offsets are non-zero these are
  the *self-dependent* loops of §4.2 / Figure 3;
* **O-type** (unrelated): touches ``v`` not at all.

The classifier also extracts everything the dependency test needs: per
grid dimension the read/write offset sets (→ dependency direction and
distance), irregular accesses, fixed (boundary) dimensions, and the loop
variable sweeping each grid dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.loops import LoopForest, LoopInfo, Path, build_loop_forest
from repro.analysis.stencil import (
    AccessPattern,
    ArrayAccess,
    SubscriptKind,
    enclosed_accesses,
    int_parameters,
)
from repro.fortran import ast as A
from repro.fortran.directives import AcfdDirectives
from repro.fortran.symbols import SymbolTable


class LoopRole(str, Enum):
    A = "A"  # assignment-only
    R = "R"  # reference-only
    C = "C"  # combined
    O = "O"  # unrelated


@dataclass
class ArrayUse:
    """How one field loop touches one status array."""

    array: str
    reads: list[AccessPattern] = field(default_factory=list)
    writes: list[AccessPattern] = field(default_factory=list)
    #: per grid dim: set of signed read offsets (None entry = irregular)
    read_offsets: dict[int, set[int]] = field(default_factory=dict)
    write_offsets: dict[int, set[int]] = field(default_factory=dict)
    irregular: bool = False
    #: grid dims referenced only at constant subscripts (boundary code)
    fixed_dims: dict[int, int | None] = field(default_factory=dict)

    @property
    def role(self) -> LoopRole:
        if self.writes and self.reads:
            return LoopRole.C
        if self.writes:
            return LoopRole.A
        if self.reads:
            return LoopRole.R
        return LoopRole.O

    def max_read_distance(self, grid_dim: int) -> tuple[int, int]:
        """(minus, plus) reach of reads along *grid_dim*."""
        offsets = self.read_offsets.get(grid_dim, set())
        minus = max((-o for o in offsets if o < 0), default=0)
        plus = max((o for o in offsets if o > 0), default=0)
        return minus, plus


@dataclass
class FieldLoop:
    """An outermost status-sweeping loop with its classification."""

    loop: LoopInfo
    unit: A.ProgramUnit
    #: grid dim -> loop variable sweeping it (absent = not swept here)
    sweeps: dict[int, str] = field(default_factory=dict)
    uses: dict[str, ArrayUse] = field(default_factory=dict)
    index: int = 0  # position among the unit's field loops

    def role(self, array: str) -> LoopRole:
        use = self.uses.get(array)
        return use.role if use is not None else LoopRole.O

    @property
    def assigned_arrays(self) -> list[str]:
        return sorted(a for a, u in self.uses.items() if u.writes)

    @property
    def referenced_arrays(self) -> list[str]:
        return sorted(a for a, u in self.uses.items() if u.reads)

    @property
    def is_self_dependent(self) -> bool:
        """C-type on some array with offset (or irregular) reads."""
        for use in self.uses.values():
            if use.role is LoopRole.C:
                if use.irregular:
                    return True
                for offsets in use.read_offsets.values():
                    if any(o != 0 for o in offsets):
                        return True
        return False

    def __repr__(self) -> str:  # pragma: no cover
        roles = {a: u.role.value for a, u in self.uses.items()}
        return f"FieldLoop({self.loop.var}@{self.loop.stmt.line}, {roles})"


@dataclass
class UnitClassification:
    """All field loops of a unit plus the loop forest they came from."""

    unit: A.ProgramUnit
    forest: LoopForest
    field_loops: list[FieldLoop]
    #: field loop by its loop's structural path in the unit
    by_path: dict[Path, FieldLoop]

    def field_loop_at(self, path: Path) -> FieldLoop | None:
        return self.by_path.get(path)


def _status_dim_vars(access: AccessPattern,
                     dim_map: tuple[int | None, ...]) -> dict[int, str]:
    """grid dim -> induction variable for one access."""
    out: dict[int, str] = {}
    for adim, sub in enumerate(access.subs):
        g = dim_map[adim]
        if g is not None and sub.kind is SubscriptKind.INDUCTION:
            out[g] = sub.var  # type: ignore[assignment]
    return out


def classify_unit(unit: A.ProgramUnit,
                  directives: AcfdDirectives) -> UnitClassification:
    """Find and classify all field loops of one program unit.

    One walk per loop-forest root collects every status-array access
    with its subscripts' affine forms.  Against the root's nest
    variables they give every loop's swept dimensions: an access sweeps
    grid dim g for each enclosing loop whose variable is its INDUCTION
    variable on g.  A form does not depend on which names are loop
    variables, so a field loop below a non-sweeping ancestor (the frame
    loop) takes the accesses its statement holds from the same walk and
    derives their kinds against its own nest variables.
    """
    forest = build_loop_forest(unit)
    table: SymbolTable = unit.symbols  # type: ignore[assignment]
    status = [a for a in directives.status_arrays
              if table.get(a) is not None and table.get(a).is_array]
    status_set = set(status)
    params = int_parameters(table)

    # Which loops sweep a status dimension with their own variable?
    sweeping: dict[int, dict[int, str]] = {}
    #: per DO loop: its root walk's accesses, the slice its statement
    #: holds, and the root walk's patterns
    walks: dict[int, tuple[list[ArrayAccess], slice, list]] = {}
    for root in forest.roots:
        found, held = enclosed_accesses([root.stmt], status_set, params)
        root_vars = set(root.nest_vars)
        patterns = [access.pattern(root_vars) for access in found]
        for key, span in held.items():
            walks[key] = (found, span, patterns)
        for access, pattern in zip(found, patterns):
            if not access.loops:
                continue  # in the root's own bounds
            dim_map = directives.status_dims(
                access.array, table.get(access.array).array.rank)
            for g, var in _status_dim_vars(pattern, dim_map).items():
                for stmt in access.loops:
                    if stmt.var == var:
                        sweeping.setdefault(id(stmt), {}).setdefault(g, var)

    # Field loops: sweeping loops with no sweeping ancestor.
    field_loops: list[FieldLoop] = []
    by_path: dict[Path, FieldLoop] = {}
    for loop in forest.all_loops:
        if id(loop.stmt) not in sweeping:
            continue
        node = loop.parent
        while node is not None and id(node.stmt) not in sweeping:
            node = node.parent
        if node is not None:
            continue
        fl = FieldLoop(loop, unit, index=len(field_loops))
        # aggregate sweeps over the nest
        fl.sweeps.update(sweeping[id(loop.stmt)])
        for desc in loop.descendants:
            fl.sweeps.update(sweeping.get(id(desc.stmt), {}))
        found, span, patterns = walks[id(loop.stmt)]
        if loop.parent is None:
            accesses = patterns
        else:
            nest_vars = set(loop.nest_vars)
            accesses = [access.pattern(nest_vars) for access in found[span]]
        _collect_uses(fl, accesses, table, directives)
        field_loops.append(fl)
        by_path[loop.path] = fl
    return UnitClassification(unit, forest, field_loops, by_path)


def _collect_uses(fl: FieldLoop, accesses: list[AccessPattern],
                  table: SymbolTable, directives: AcfdDirectives) -> None:
    for access in accesses:
        use = fl.uses.setdefault(access.array, ArrayUse(access.array))
        sym = table.get(access.array)
        dim_map = directives.status_dims(access.array, sym.array.rank)
        (use.writes if access.is_write else use.reads).append(access)
        for adim, sub in enumerate(access.subs):
            g = dim_map[adim]
            if g is None:
                continue
            if sub.kind is SubscriptKind.INDUCTION:
                target = (use.write_offsets if access.is_write
                          else use.read_offsets)
                target.setdefault(g, set()).add(sub.offset)
            elif sub.kind is SubscriptKind.CONSTANT:
                use.fixed_dims.setdefault(g, sub.const)
            elif sub.kind is SubscriptKind.STRIDED:
                # strided accesses reach up to distance coeff+offset
                target = (use.write_offsets if access.is_write
                          else use.read_offsets)
                reach = sub.distance
                target.setdefault(g, set()).update({-reach, reach})
            else:
                use.irregular = True
