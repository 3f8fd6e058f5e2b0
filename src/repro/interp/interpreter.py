"""Tree-walking reference interpreter for the Fortran subset.

This executor favours clarity over speed; it is the semantic ground truth
against which the fast Python backend (:mod:`repro.interp.pyback`) and the
generated SPMD programs are validated.

Semantics implemented:

* F77 implicit typing (I-N integer) unless declared, ``implicit none``
  honoured via declarations;
* DO trip-count semantics (``max(0, (stop - start + step) // step)``),
  labeled and block form, EXIT/CYCLE, DO WHILE;
* GOTO to any label visible in an enclosing statement list (forward or
  backward, including jumps that leave loops);
* copy-in/copy-out argument association, adjustable array dummies;
* positional COMMON block association across program units;
* list-directed READ/WRITE with implied-DO loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InterpError
from repro.fortran import ast as A
from repro.fortran.intrinsics_table import is_intrinsic
from repro.fortran.symbols import SymbolTable, resolve_compilation_unit
from repro.interp.intrinsics import call_intrinsic
from repro.interp.io_runtime import IoManager
from repro.interp.values import DTYPES, OffsetArray, coerce_assign, fortran_div


class _GotoSignal(Exception):
    def __init__(self, label: int) -> None:
        self.label = label


class _ExitSignal(Exception):
    pass


class _CycleSignal(Exception):
    pass


class _ReturnSignal(Exception):
    pass


class _StopSignal(Exception):
    def __init__(self, message: str | None) -> None:
        self.message = message


class ScalarCell:
    """A mutable scalar slot (used for COMMON members so that all program
    units alias one storage location)."""

    __slots__ = ("value",)

    def __init__(self, value=0) -> None:
        self.value = value


@dataclass
class Scope:
    """One activation record."""

    unit: A.ProgramUnit
    table: SymbolTable
    values: dict[str, object] = field(default_factory=dict)

    def lookup(self, name: str):
        try:
            value = self.values[name]
        except KeyError:
            # Implicitly-typed scalar used before assignment: Fortran says
            # undefined; we default-initialize to zero like most compilers
            # with -finit-local-zero, which the workloads rely on not at all.
            sym = self.table.get(name)
            type_name = sym.type_name if sym else "real"
            value = coerce_assign(type_name, 0)
            self.values[name] = value
        if isinstance(value, ScalarCell):
            return value.value
        return value

    def assign(self, name: str, value) -> None:
        sym = self.table.get(name)
        type_name = sym.type_name if sym else "real"
        coerced = coerce_assign(type_name, value)
        existing = self.values.get(name)
        if isinstance(existing, ScalarCell):
            existing.value = coerced
        else:
            self.values[name] = coerced


class Interpreter:
    """Executes a resolved compilation unit.

    Args:
        cu: parsed (and resolved) compilation unit.
        io: I/O manager; a fresh one is created when omitted.
        max_steps: execution budget in executed statements; exceeded budget
            raises :class:`repro.errors.InterpError` (guards tests against
            accidental infinite loops).
    """

    def __init__(self, cu: A.CompilationUnit, io: IoManager | None = None,
                 max_steps: int = 200_000_000) -> None:
        self.cu = cu
        for unit in cu.units:
            if unit.symbols is None:
                resolve_compilation_unit(cu)
                break
        self.io = io if io is not None else IoManager()
        self.units = {u.name: u for u in cu.units}
        self.commons: dict[str, list[object]] = {}
        self.max_steps = max_steps
        self.steps = 0
        self.final_scope: Scope | None = None

    # -- public API --------------------------------------------------------------

    def run(self, unit_name: str | None = None) -> Scope:
        """Execute the main program (or a named unit with no arguments)."""
        unit = self.units[unit_name] if unit_name else self.cu.main
        scope = self._make_scope(unit, actuals=None, caller=None)
        try:
            self._exec_body(scope, unit.body)
        except _StopSignal:
            pass
        except _ReturnSignal:
            pass
        self.final_scope = scope
        return scope

    def array(self, scope_or_name, name: str | None = None) -> OffsetArray:
        """Fetch an array from a scope (or from the final main scope)."""
        if name is None:
            scope, name = self.final_scope, scope_or_name
        else:
            scope = scope_or_name
        if scope is None:
            raise InterpError("program has not been run")
        value = scope.values.get(name)
        if not isinstance(value, OffsetArray):
            raise InterpError(f"{name!r} is not an array in this scope")
        return value

    # -- scope construction --------------------------------------------------------

    def _make_scope(self, unit: A.ProgramUnit,
                    actuals: list | None, caller: Scope | None) -> Scope:
        table: SymbolTable = unit.symbols  # type: ignore[assignment]
        scope = Scope(unit, table)

        # 1. parameters
        for sym in table.symbols.values():
            if sym.is_parameter:
                scope.values[sym.name] = sym.param_value

        # 2. dummy arguments (arrays alias; scalars copy-in)
        if actuals is not None:
            if len(actuals) != len(unit.args):
                raise InterpError(
                    f"call to {unit.name!r}: {len(actuals)} actuals for "
                    f"{len(unit.args)} dummies")
            for dummy, actual in zip(unit.args, actuals):
                scope.values[dummy] = actual

        # 3. COMMON blocks: bind positional slots
        for block, members in table.common_blocks.items():
            slots = self.commons.setdefault(block, [])
            for pos, member in enumerate(members):
                sym = table.require(member)
                if pos >= len(slots):
                    if sym.is_array:
                        slots.append(self._allocate(sym, scope))
                    else:
                        slots.append(ScalarCell(coerce_assign(sym.type_name, 0)))
                slot = slots[pos]
                if sym.is_array and not isinstance(slot, OffsetArray):
                    raise InterpError(
                        f"common /{block}/ member {member!r}: array/scalar "
                        f"mismatch across units")
                scope.values[member] = slot

        # 4. local arrays
        for sym in table.symbols.values():
            if sym.is_array and sym.name not in scope.values:
                scope.values[sym.name] = self._allocate(sym, scope)

        # 5. DATA initialization
        for stmt in unit.decls:
            if isinstance(stmt, A.DataStmt):
                self._apply_data(scope, stmt)
        return scope

    def _allocate(self, sym, scope: Scope) -> OffsetArray:
        bounds = []
        for lo, hi in sym.array.bounds:
            bounds.append((int(self._eval(scope, lo)),
                           int(self._eval(scope, hi))))
        dtype = DTYPES.get(sym.type_name, np.float64)
        return OffsetArray.from_bounds(bounds, dtype, sym.name)

    def _apply_data(self, scope: Scope, stmt: A.DataStmt) -> None:
        values = [self._eval(scope, v) for v in stmt.values]
        pos = 0
        for name in stmt.names:
            target = scope.values.get(name)
            if isinstance(target, OffsetArray):
                count = int(np.prod(target.shape))
                chunk = values[pos:pos + count]
                if len(chunk) == 1:
                    target.fill(chunk[0])
                    pos += 1
                else:
                    flat = np.array(chunk, dtype=target.data.dtype)
                    target.data[...] = flat.reshape(target.shape, order="F")
                    pos += count
            else:
                scope.assign(name, values[pos])
                pos += 1

    # -- statement execution -----------------------------------------------------

    def _exec_body(self, scope: Scope, body: list[A.Stmt]) -> None:
        """Execute a statement list with local GOTO label resolution."""
        labels = {s.label: i for i, s in enumerate(body) if s.label is not None}
        index = 0
        while index < len(body):
            stmt = body[index]
            try:
                self._exec_stmt(scope, stmt)
            except _GotoSignal as sig:
                if sig.label in labels:
                    index = labels[sig.label]
                    continue
                raise
            index += 1

    def _budget(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError(f"execution budget exceeded "
                              f"({self.max_steps} statements)")

    def _exec_stmt(self, scope: Scope, stmt: A.Stmt) -> None:
        self._budget()
        method = self._DISPATCH.get(type(stmt))
        if method is None:
            if isinstance(stmt, (A.Declaration, A.DimensionStmt,
                                 A.ParameterStmt, A.CommonStmt, A.DataStmt,
                                 A.ImplicitStmt, A.SaveStmt, A.ExternalStmt,
                                 A.IntrinsicStmt, A.FormatStmt,
                                 A.DirectiveStmt)):
                return  # specification statements are no-ops at run time
            raise InterpError(f"cannot execute {type(stmt).__name__} "
                              f"(line {stmt.line})")
        method(self, scope, stmt)

    def _exec_assign(self, scope: Scope, stmt: A.Assign) -> None:
        value = self._eval(scope, stmt.value)
        target = stmt.target
        if isinstance(target, A.Var):
            scope.assign(target.name, value)
        elif isinstance(target, A.ArrayRef):
            arr = scope.values.get(target.name)
            if not isinstance(arr, OffsetArray):
                raise InterpError(f"{target.name!r} is not an array "
                                  f"(line {stmt.line})")
            subs = [int(self._eval(scope, s)) for s in target.subs]
            if arr.data.dtype == np.int64:
                value = int(value)
            arr.set(value, *subs)
        else:
            raise InterpError(f"bad assignment target (line {stmt.line})")

    def _exec_do(self, scope: Scope, stmt: A.DoLoop) -> None:
        start = self._eval(scope, stmt.start)
        stop = self._eval(scope, stmt.stop)
        step = self._eval(scope, stmt.step) if stmt.step is not None else 1
        if step == 0:
            raise InterpError(f"zero DO step (line {stmt.line})")
        start, stop, step = int(start), int(stop), int(step)
        trips = max(0, (stop - start + step) // step)
        value = start
        for _ in range(trips):
            scope.assign(stmt.var, value)
            try:
                self._exec_body(scope, stmt.body)
            except _ExitSignal:
                return
            except _CycleSignal:
                pass
            value += step
        # Fortran leaves the DO variable at its first out-of-range value.
        scope.assign(stmt.var, value)

    def _exec_do_while(self, scope: Scope, stmt: A.DoWhile) -> None:
        while self._eval(scope, stmt.cond):
            self._budget()
            try:
                self._exec_body(scope, stmt.body)
            except _ExitSignal:
                return
            except _CycleSignal:
                pass

    def _exec_if_block(self, scope: Scope, stmt: A.IfBlock) -> None:
        for cond, body in stmt.arms:
            if cond is None or self._eval(scope, cond):
                self._exec_body(scope, body)
                return

    def _exec_logical_if(self, scope: Scope, stmt: A.LogicalIf) -> None:
        if self._eval(scope, stmt.cond):
            self._exec_stmt(scope, stmt.stmt)

    def _exec_goto(self, scope: Scope, stmt: A.Goto) -> None:
        raise _GotoSignal(stmt.target)

    def _exec_computed_goto(self, scope: Scope, stmt: A.ComputedGoto) -> None:
        selector = int(self._eval(scope, stmt.selector))
        if 1 <= selector <= len(stmt.targets):
            raise _GotoSignal(stmt.targets[selector - 1])
        # out-of-range computed GOTO falls through

    def _exec_continue(self, scope: Scope, stmt: A.Continue) -> None:
        pass

    def _exec_call(self, scope: Scope, stmt: A.CallStmt) -> None:
        unit = self.units.get(stmt.name)
        if unit is None:
            raise InterpError(f"call to unknown subroutine {stmt.name!r} "
                              f"(line {stmt.line})")
        self._invoke(scope, unit, stmt.args)

    def _exec_return(self, scope: Scope, stmt: A.ReturnStmt) -> None:
        raise _ReturnSignal()

    def _exec_stop(self, scope: Scope, stmt: A.StopStmt) -> None:
        raise _StopSignal(stmt.message)

    def _exec_exit(self, scope: Scope, stmt: A.ExitStmt) -> None:
        raise _ExitSignal()

    def _exec_cycle(self, scope: Scope, stmt: A.CycleStmt) -> None:
        raise _CycleSignal()

    def _exec_read(self, scope: Scope, stmt: A.ReadStmt) -> None:
        unit = int(self._eval(scope, stmt.unit)) if stmt.unit is not None else 5
        for item in self._expand_io_items(scope, stmt.items):
            value = self.io.read_value(unit)
            if isinstance(item, A.Var):
                scope.assign(item.name, value)
            elif isinstance(item, A.ArrayRef):
                arr = scope.values[item.name]
                subs = [int(self._eval(scope, s)) for s in item.subs]
                arr.set(value, *subs)
            else:
                raise InterpError(f"bad READ item (line {stmt.line})")

    def _exec_write(self, scope: Scope, stmt: A.WriteStmt) -> None:
        unit = int(self._eval(scope, stmt.unit)) if stmt.unit is not None else 6
        parts = [self._eval(scope, item)
                 for item in self._expand_io_items(scope, stmt.items)]
        self.io.write_line(unit, parts)

    def _exec_open(self, scope: Scope, stmt: A.OpenStmt) -> None:
        unit = int(self._eval(scope, stmt.unit)) if stmt.unit is not None else 0
        filename = None
        if stmt.filename is not None:
            filename = self._eval(scope, stmt.filename)
        self.io.open(unit, filename)

    def _exec_close(self, scope: Scope, stmt: A.CloseStmt) -> None:
        unit = int(self._eval(scope, stmt.unit)) if stmt.unit is not None else 0
        self.io.close(unit)

    _DISPATCH = {}

    def _expand_io_items(self, scope: Scope, items: list[A.Expr]):
        """Expand implied-DO loops in an I/O list."""
        for item in items:
            if isinstance(item, A.ImpliedDo):
                start = int(self._eval(scope, item.start))
                stop = int(self._eval(scope, item.stop))
                step = int(self._eval(scope, item.step)) if item.step else 1
                trips = max(0, (stop - start + step) // step)
                value = start
                for _ in range(trips):
                    scope.assign(item.var, value)
                    yield from self._expand_io_items(scope, item.items)
                    value += step
            else:
                yield item

    # -- calls --------------------------------------------------------------------

    def _invoke(self, caller: Scope, unit: A.ProgramUnit,
                arg_exprs: list[A.Expr]):
        """Invoke a subroutine/function with copy-in/copy-out semantics."""
        actuals: list[object] = []
        writeback: list[tuple[int, A.Expr]] = []
        for i, expr in enumerate(arg_exprs):
            if isinstance(expr, A.Var):
                value = caller.values.get(expr.name)
                if isinstance(value, OffsetArray):
                    actuals.append(value)  # arrays alias
                else:
                    actuals.append(caller.lookup(expr.name))
                    writeback.append((i, expr))
            elif isinstance(expr, A.ArrayRef):
                actuals.append(self._eval(caller, expr))
                writeback.append((i, expr))
            else:
                actuals.append(self._eval(caller, expr))
        scope = self._make_scope(unit, actuals, caller)
        try:
            self._exec_body(scope, unit.body)
        except _ReturnSignal:
            pass
        # copy-out scalars
        for i, expr in writeback:
            dummy = unit.args[i]
            new_value = scope.values.get(dummy)
            if isinstance(new_value, (OffsetArray, ScalarCell)):
                continue
            if isinstance(expr, A.Var):
                caller.assign(expr.name, new_value)
            else:
                arr = caller.values[expr.name]
                subs = [int(self._eval(caller, s)) for s in expr.subs]
                arr.set(new_value, *subs)
        if unit.kind == "function":
            result = scope.values.get(unit.name)
            if result is None:
                raise InterpError(f"function {unit.name!r} did not set its "
                                  f"result")
            return result
        return None

    # -- expression evaluation -------------------------------------------------------

    def _eval(self, scope: Scope, expr: A.Expr):
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.RealLit):
            return expr.value
        if isinstance(expr, A.LogicalLit):
            return expr.value
        if isinstance(expr, A.StringLit):
            return expr.value
        if isinstance(expr, A.Var):
            return scope.lookup(expr.name)
        if isinstance(expr, A.ArrayRef):
            arr = scope.values.get(expr.name)
            if not isinstance(arr, OffsetArray):
                raise InterpError(f"{expr.name!r} is not an array")
            subs = [int(self._eval(scope, s)) for s in expr.subs]
            return arr.get(*subs)
        if isinstance(expr, A.BinOp):
            return self._eval_binop(scope, expr)
        if isinstance(expr, A.UnOp):
            operand = self._eval(scope, expr.operand)
            if expr.op == "-":
                return -operand
            if expr.op == "+":
                return operand
            return not operand
        if isinstance(expr, A.FuncCall):
            unit = self.units.get(expr.name)
            if unit is not None and unit.kind == "function":
                return self._invoke(scope, unit, expr.args)
            if is_intrinsic(expr.name):
                args = [self._eval(scope, a) for a in expr.args]
                return call_intrinsic(expr.name, args)
            raise InterpError(f"unknown function {expr.name!r}")
        if isinstance(expr, A.Apply):
            raise InterpError(f"unresolved Apply node {expr.name!r} — "
                              f"run symbol resolution first")
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binop(self, scope: Scope, expr: A.BinOp):
        op = expr.op
        if op == ".and.":
            return bool(self._eval(scope, expr.left)) and \
                bool(self._eval(scope, expr.right))
        if op == ".or.":
            return bool(self._eval(scope, expr.left)) or \
                bool(self._eval(scope, expr.right))
        left = self._eval(scope, expr.left)
        right = self._eval(scope, expr.right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return fortran_div(left, right)
        if op == "**":
            return left ** right
        if op == ".lt.":
            return left < right
        if op == ".le.":
            return left <= right
        if op == ".gt.":
            return left > right
        if op == ".ge.":
            return left >= right
        if op == ".eq.":
            return left == right
        if op == ".ne.":
            return left != right
        if op == ".eqv.":
            return bool(left) == bool(right)
        if op == ".neqv.":
            return bool(left) != bool(right)
        if op == "//":
            return str(left) + str(right)
        raise InterpError(f"unknown operator {op!r}")


Interpreter._DISPATCH = {
    A.Assign: Interpreter._exec_assign,
    A.DoLoop: Interpreter._exec_do,
    A.DoWhile: Interpreter._exec_do_while,
    A.IfBlock: Interpreter._exec_if_block,
    A.LogicalIf: Interpreter._exec_logical_if,
    A.Goto: Interpreter._exec_goto,
    A.ComputedGoto: Interpreter._exec_computed_goto,
    A.Continue: Interpreter._exec_continue,
    A.CallStmt: Interpreter._exec_call,
    A.ReturnStmt: Interpreter._exec_return,
    A.StopStmt: Interpreter._exec_stop,
    A.ExitStmt: Interpreter._exec_exit,
    A.CycleStmt: Interpreter._exec_cycle,
    A.ReadStmt: Interpreter._exec_read,
    A.WriteStmt: Interpreter._exec_write,
    A.OpenStmt: Interpreter._exec_open,
    A.CloseStmt: Interpreter._exec_close,
}

