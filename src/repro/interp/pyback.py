"""Fast executor: translate Fortran AST to Python source and ``exec`` it.

The tree-walking interpreter is the semantic reference but is too slow for
whole CFD workloads; this backend translates each program unit into a plain
Python function over numpy-backed :class:`repro.interp.values.OffsetArray`
buffers and runs typically 10-50x faster.  Both executors are cross-checked
in the test suite.

Translation notes:

* Fortran identifiers are mangled with an ``f_`` prefix so keywords can't
  collide; array element access compiles to direct numpy indexing with the
  lower bounds unpacked into locals at entry (``f_v_d[f_i - f_v_l0, ...]``).
* GOTO compiles to a resumable dispatch loop per labeled statement list:
  the generated code raises ``_Goto(label)`` and the owning list catches it
  and re-enters at the target index.
* Subroutine scalars follow F77 copy-in/copy-out: every generated unit
  returns its scalar dummies as a tuple which the call site unpacks back
  into writable actuals.
* COMMON blocks live in ``ctx.commons[block]`` as positional slot lists
  shared by all units (scalars accessed through the slot list to preserve
  aliasing; arrays bound to locals at entry).
* The SPMD code generator injects calls to runtime primitives
  (``acfd_*``); every such call binds by its prefix to the same-named
  method of ``ctx.rt``, so the same backend executes generated parallel
  programs.
* A DO nest :mod:`repro.interp.native` accepts becomes a C function:
  the emitted code looks its call up on ``ctx.natives`` (binding it to
  the nest's arrays on a miss), passes the scalars it reads and assigns
  the exit values it returns.
"""

from __future__ import annotations

import io as _io
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CodegenError, InterpError
from repro.fortran import ast as A
from repro.fortran.intrinsics_table import INTEGER_RESULT, is_intrinsic
from repro.fortran.symbols import SymbolTable, resolve_compilation_unit
from repro.interp.intrinsics import INTRINSIC_IMPLS
from repro.interp.io_runtime import IoManager
from repro.interp.values import (DTYPES, OffsetArray, do_trips, fortran_div,
                                 type_code)
from repro.interp import native as _native


class _Goto(Exception):
    def __init__(self, label: int) -> None:
        self.label = label


class _Return(Exception):
    pass


class _Stop(Exception):
    def __init__(self, message=None) -> None:
        self.message = message


class _ExitLoop(Exception):
    pass


class _CycleLoop(Exception):
    pass


@dataclass
class Ctx:
    """Execution context shared by all generated unit functions."""

    io: IoManager
    commons: dict[str, list] = field(default_factory=dict)
    rt: object = None  # SPMD runtime adapter (rank-local), if any
    #: the native nests this context has bound to its arrays
    natives: _native.NativeNests = field(
        default_factory=lambda: _native.NativeNests(None))


class _UnitCompiler:
    """Compiles one program unit into Python source."""

    def __init__(self, unit: A.ProgramUnit, all_units: dict[str, A.ProgramUnit],
                 native: bool = False,
                 stats: dict | None = None,
                 nests: list | None = None) -> None:
        self.unit = unit
        self.table: SymbolTable = unit.symbols  # type: ignore[assignment]
        self.all_units = all_units
        self.native = native
        self.stats = stats if stats is not None else _native.new_stats()
        #: the native nests of the whole program, in call-number order
        self.nests = nests if nests is not None else []
        self.lines: list[str] = []
        self.depth = 1
        self.tmp = 0
        self.targeted_labels = A.goto_targets(self.unit)
        self.common_pos: dict[str, tuple[str, int]] = {}
        for block, members in self.table.common_blocks.items():
            for pos, member in enumerate(members):
                self.common_pos[member] = (block, pos)

    # -- small helpers ---------------------------------------------------------

    def w(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def fresh(self, stem: str) -> str:
        self.tmp += 1
        return f"_{stem}{self.tmp}"

    # -- typing ----------------------------------------------------------------

    def expr_type(self, e: A.Expr) -> str:
        """'i' integer, 'r' real, 'l' logical, 's' string, '?' unknown."""
        if isinstance(e, A.IntLit):
            return "i"
        if isinstance(e, A.RealLit):
            return "r"
        if isinstance(e, A.LogicalLit):
            return "l"
        if isinstance(e, A.StringLit):
            return "s"
        if isinstance(e, A.Var):
            sym = self.table.get(e.name)
            return type_code(sym.type_name if sym else "real")
        if isinstance(e, A.ArrayRef):
            sym = self.table.get(e.name)
            return type_code(sym.type_name if sym else "real")
        if isinstance(e, A.UnOp):
            if e.op == ".not.":
                return "l"
            return self.expr_type(e.operand)
        if isinstance(e, A.BinOp):
            if e.op in (".and.", ".or.", ".eqv.", ".neqv.", ".lt.", ".le.",
                        ".gt.", ".ge.", ".eq.", ".ne."):
                return "l"
            if e.op == "//":
                return "s"
            lt, rt = self.expr_type(e.left), self.expr_type(e.right)
            if lt == "i" and rt == "i":
                return "i"
            if "?" in (lt, rt):
                return "?"
            return "r"
        if isinstance(e, A.FuncCall):
            if e.name in INTEGER_RESULT:
                return "i"
            if is_intrinsic(e.name):
                # type-preserving intrinsics (abs/max/min/mod/sign)
                if e.name in ("abs", "max", "min", "mod", "sign"):
                    types = {self.expr_type(a) for a in e.args}
                    return "i" if types == {"i"} else "r"
                return "r"
            target = self.all_units.get(e.name)
            if target is not None and target.kind == "function":
                rtype = target.result_type
                if rtype is None:
                    rtype = ("integer" if e.name[:1] in "ijklmn" else "real")
                return type_code(rtype)
            return "?"
        return "?"

    # -- expression translation ---------------------------------------------------

    def expr(self, e: A.Expr) -> str:
        if isinstance(e, A.IntLit):
            return str(e.value)
        if isinstance(e, A.RealLit):
            return repr(e.value)
        if isinstance(e, A.LogicalLit):
            return "True" if e.value else "False"
        if isinstance(e, A.StringLit):
            return repr(e.value)
        if isinstance(e, A.Var):
            return self.var_read(e.name)
        if isinstance(e, A.ArrayRef):
            return self.array_elem(e.name, e.subs)
        if isinstance(e, A.UnOp):
            if e.op == ".not.":
                return f"(not {self.expr(e.operand)})"
            return f"({e.op}{self.expr(e.operand)})"
        if isinstance(e, A.BinOp):
            return self.binop(e)
        if isinstance(e, A.FuncCall):
            return self.funccall(e)
        if isinstance(e, A.Apply):
            # declaration bounds are not visited by the resolver; treat an
            # Apply surviving there as a function call
            return self.funccall(A.FuncCall(e.name, e.args))
        raise CodegenError(f"cannot translate expression {type(e).__name__}")

    def var_read(self, name: str) -> str:
        if name in self.common_pos:
            block, pos = self.common_pos[name]
            sym = self.table.get(name)
            if sym is not None and sym.is_array:
                return f"f_{name}"
            return f"_c_{_mangle_block(block)}[{pos}]"
        return f"f_{name}"

    def array_elem(self, name: str, subs: list[A.Expr]) -> str:
        idx = ", ".join(f"{self.expr(s)} - f_{name}_l{d}"
                        for d, s in enumerate(subs))
        return f"f_{name}_d[{idx}]"

    def binop(self, e: A.BinOp) -> str:
        op_map = {
            "+": "+", "-": "-", "*": "*",
            ".lt.": "<", ".le.": "<=", ".gt.": ">", ".ge.": ">=",
            ".eq.": "==", ".ne.": "!=",
        }
        left = self.expr(e.left)
        right = self.expr(e.right)
        if e.op in op_map:
            return f"({left} {op_map[e.op]} {right})"
        if e.op == "/":
            lt, rt = self.expr_type(e.left), self.expr_type(e.right)
            if lt == "i" and rt == "i":
                return f"_idiv({left}, {right})"
            if "?" in (lt, rt):
                return f"_fdiv({left}, {right})"
            return f"({left} / {right})"
        if e.op == "**":
            return f"({left} ** {right})"
        if e.op == ".and.":
            return f"({left} and {right})"
        if e.op == ".or.":
            return f"({left} or {right})"
        if e.op == ".eqv.":
            return f"(bool({left}) == bool({right}))"
        if e.op == ".neqv.":
            return f"(bool({left}) != bool({right}))"
        if e.op == "//":
            return f"(str({left}) + str({right}))"
        raise CodegenError(f"unknown operator {e.op!r}")

    def funccall(self, e: A.FuncCall) -> str:
        if e.name.startswith("acfd_"):
            # SPMD runtime primitive injected by the restructurer; arrays
            # pass whole (the frame hook snapshots them by name)
            args = ", ".join(self.expr_for_call(a) for a in e.args)
            return f"ctx.rt.{e.name[5:]}({args})"
        target = self.all_units.get(e.name)
        if target is not None and target.kind == "function":
            args = ", ".join(self.expr(a) for a in e.args)
            return f"u_{e.name}(ctx, {args})[0]" if args else f"u_{e.name}(ctx)[0]"
        if is_intrinsic(e.name):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"_in_{e.name}({args})"
        raise CodegenError(f"unknown function {e.name!r} in unit "
                           f"{self.unit.name!r}")

    # -- statement translation ------------------------------------------------------

    def block(self, stmts: list[A.Stmt]) -> None:
        """Translate a statement list, with GOTO dispatch when needed."""
        owned = [s.label for s in stmts
                 if s.label is not None and s.label in self.targeted_labels]
        if not owned:
            if not stmts:
                self.w("pass")
            for s in stmts:
                self.stmt(s)
            return
        pc = self.fresh("pc")
        label_index = {s.label: i for i, s in enumerate(stmts)
                       if s.label is not None and s.label in self.targeted_labels}
        self.w(f"{pc} = 0")
        self.w(f"while {pc} is not None:")
        self.depth += 1
        self.w("try:")
        self.depth += 1
        for i, s in enumerate(stmts):
            self.w(f"if {pc} <= {i}:")
            self.depth += 1
            self.stmt(s)
            self.depth -= 1
        self.w(f"{pc} = None")
        self.depth -= 1
        self.w("except _Goto as _g:")
        self.depth += 1
        first = True
        for label, i in label_index.items():
            kw = "if" if first else "elif"
            self.w(f"{kw} _g.label == {label}:")
            self.depth += 1
            self.w(f"{pc} = {i}")
            self.depth -= 1
            first = False
        self.w("else:")
        self.depth += 1
        self.w("raise")
        self.depth -= 2
        self.depth -= 1

    def stmt(self, s: A.Stmt) -> None:
        if isinstance(s, A.Assign):
            self.assign(s)
        elif isinstance(s, A.DoLoop):
            self.do_loop(s)
        elif isinstance(s, A.DoWhile):
            self.w(f"while {self.expr(s.cond)}:")
            self.depth += 1
            self.w("try:")
            self.depth += 1
            self.block(s.body)
            self.depth -= 1
            self.w("except _ExitLoop:")
            self.depth += 1
            self.w("break")
            self.depth -= 1
            self.w("except _CycleLoop:")
            self.depth += 1
            self.w("pass")
            self.depth -= 2
        elif isinstance(s, A.IfBlock):
            for i, (cond, body) in enumerate(s.arms):
                if cond is None:
                    self.w("else:")
                else:
                    kw = "if" if i == 0 else "elif"
                    self.w(f"{kw} {self.expr(cond)}:")
                self.depth += 1
                self.block(body)
                self.depth -= 1
        elif isinstance(s, A.LogicalIf):
            self.w(f"if {self.expr(s.cond)}:")
            self.depth += 1
            self.stmt(s.stmt)
            self.depth -= 1
        elif isinstance(s, A.Goto):
            self.w(f"raise _Goto({s.target})")
        elif isinstance(s, A.ComputedGoto):
            sel = self.fresh("sel")
            self.w(f"{sel} = int({self.expr(s.selector)})")
            self.w(f"if 1 <= {sel} <= {len(s.targets)}:")
            self.depth += 1
            self.w(f"raise _Goto({s.targets!r}[{sel} - 1])")
            self.depth -= 1
        elif isinstance(s, A.Continue):
            self.w("pass")
        elif isinstance(s, A.CallStmt):
            self.call(s)
        elif isinstance(s, A.ReturnStmt):
            self.w("raise _Return()")
        elif isinstance(s, A.StopStmt):
            self.w(f"raise _Stop({s.message!r})")
        elif isinstance(s, A.ExitStmt):
            # EXIT must leave the innermost *Fortran* loop, not whatever
            # Python loop (e.g. a GOTO dispatch loop) happens to enclose it.
            self.w("raise _ExitLoop()")
        elif isinstance(s, A.CycleStmt):
            self.w("raise _CycleLoop()")
        elif isinstance(s, A.ReadStmt):
            self.read(s)
        elif isinstance(s, A.WriteStmt):
            self.write(s)
        elif isinstance(s, A.OpenStmt):
            unit = self.expr(s.unit) if s.unit is not None else "0"
            fname = self.expr(s.filename) if s.filename is not None else "None"
            self.w(f"ctx.io.open(int({unit}), {fname})")
        elif isinstance(s, A.CloseStmt):
            unit = self.expr(s.unit) if s.unit is not None else "0"
            self.w(f"ctx.io.close(int({unit}))")
        elif isinstance(s, (A.FormatStmt, A.DirectiveStmt)):
            self.w("pass")
        else:
            raise CodegenError(f"cannot translate {type(s).__name__} "
                               f"(line {s.line})")

    def assign(self, s: A.Assign) -> None:
        value = self.expr(s.value)
        target = s.target
        if isinstance(target, A.Var):
            name = target.name
            sym = self.table.get(name)
            ttype = type_code(sym.type_name if sym else "real")
            vtype = self.expr_type(s.value)
            if ttype == "i" and vtype != "i":
                value = f"int({value})"
            elif ttype == "r" and vtype == "i":
                value = f"float({value})"
            if name in self.common_pos and not (sym and sym.is_array):
                block, pos = self.common_pos[name]
                self.w(f"_c_{_mangle_block(block)}[{pos}] = {value}")
            else:
                # function-result variable assignment included
                self.w(f"f_{name} = {value}")
        elif isinstance(target, A.ArrayRef):
            self.w(f"{self.array_elem(target.name, target.subs)} = {value}")
        else:
            raise CodegenError(f"bad assignment target (line {s.line})")

    def do_loop(self, s: A.DoLoop) -> None:
        if self.native and _native.try_emit_nest(self, s):
            return
        var = f"f_{s.var}"
        start = self.expr(s.start)
        stop = self.expr(s.stop)
        step = self.expr(s.step) if s.step is not None else "1"
        st = self.fresh("s")
        stp = self.fresh("d")
        k = self.fresh("k")
        n = self.fresh("n")
        self.w(f"{st} = int({start})")
        self.w(f"{stp} = int({step})")
        self.w(f"{n} = _do_trips({st}, int({stop}), {stp})")
        self.w(f"for {k} in range({n}):")
        self.depth += 1
        self.w(f"{var} = {st} + {k} * {stp}")
        self.w("try:")
        self.depth += 1
        self.block(s.body)
        self.depth -= 1
        self.w("except _ExitLoop:")
        self.depth += 1
        self.w("break")
        self.depth -= 1
        self.w("except _CycleLoop:")
        self.depth += 1
        self.w("pass")
        self.depth -= 2
        self.w("else:")
        self.depth += 1
        self.w(f"{var} = {st} + {n} * {stp}")
        self.depth -= 1

    def call(self, s: A.CallStmt) -> None:
        arg_texts = [self.expr_for_call(a) for a in s.args]
        if s.name.startswith("acfd_"):
            # a runtime primitive returns the new values of the scalar
            # variables it was passed (a halo round's reductions)
            call_text = f"ctx.rt.{s.name[5:]}({', '.join(arg_texts)})"
            scalar_slots = [k for k, a in enumerate(s.args)
                            if isinstance(a, A.Var) and not (
                                (sym := self.table.get(a.name)) is not None
                                and sym.is_array)]
        else:
            target = self.all_units.get(s.name)
            if target is None:
                raise CodegenError(f"call to unknown subroutine {s.name!r} "
                                   f"(line {s.line})")
            call_text = (f"u_{s.name}(ctx, {', '.join(arg_texts)})"
                         if arg_texts else f"u_{s.name}(ctx)")
            # copy-out: scalar dummies come back as a tuple in dummy order
            scalar_slots = _scalar_dummy_indices(target)
        if not scalar_slots:
            self.w(call_text)
            return
        ret = self.fresh("r")
        self.w(f"{ret} = {call_text}")
        for out_pos, arg_index in enumerate(scalar_slots):
            if arg_index >= len(s.args):
                continue
            actual = s.args[arg_index]
            if isinstance(actual, A.Var):
                sym = self.table.get(actual.name)
                if sym is not None and sym.is_array:
                    continue
                if actual.name in self.common_pos:
                    block, pos = self.common_pos[actual.name]
                    self.w(f"_c_{_mangle_block(block)}[{pos}] = {ret}[{out_pos}]")
                else:
                    self.w(f"f_{actual.name} = {ret}[{out_pos}]")
            elif isinstance(actual, A.ArrayRef):
                self.w(f"{self.array_elem(actual.name, actual.subs)} = "
                       f"{ret}[{out_pos}]")

    def expr_for_call(self, e: A.Expr) -> str:
        """Actual-argument translation: whole arrays pass the OffsetArray."""
        if isinstance(e, A.Var):
            sym = self.table.get(e.name)
            if sym is not None and sym.is_array:
                return f"f_{e.name}"
        return self.expr(e)

    def read(self, s: A.ReadStmt) -> None:
        unit = (f"int({self.expr(s.unit)})" if s.unit is not None else "5")
        self._io_items(s.items, lambda item: self._read_item(unit, item))

    def _read_item(self, unit: str, item: A.Expr) -> None:
        value = f"ctx.io.read_value({unit})"
        if isinstance(item, A.Var):
            sym = self.table.get(item.name)
            if sym is not None and sym.type_name == "integer":
                value = f"int({value})"
            if item.name in self.common_pos and not (sym and sym.is_array):
                block, pos = self.common_pos[item.name]
                self.w(f"_c_{_mangle_block(block)}[{pos}] = {value}")
            else:
                self.w(f"f_{item.name} = {value}")
        elif isinstance(item, A.ArrayRef):
            self.w(f"{self.array_elem(item.name, item.subs)} = {value}")
        else:
            raise CodegenError("bad READ item")

    def write(self, s: A.WriteStmt) -> None:
        unit = (f"int({self.expr(s.unit)})" if s.unit is not None else "6")
        parts = self.fresh("w")
        self.w(f"{parts} = []")
        self._io_items(s.items,
                       lambda item: self.w(f"{parts}.append({self.expr(item)})"))
        self.w(f"ctx.io.write_line({unit}, {parts})")

    def _io_items(self, items: list[A.Expr], emit_one) -> None:
        for item in items:
            if isinstance(item, A.ImpliedDo):
                var = f"f_{item.var}"
                start = self.expr(item.start)
                stop = self.expr(item.stop)
                step = self.expr(item.step) if item.step else "1"
                self.w(f"for {var} in _do_iter(int({start}), int({stop}), "
                       f"int({step})):")
                self.depth += 1
                self._io_items(item.items, emit_one)
                self.depth -= 1
            else:
                emit_one(item)

    # -- unit assembly ---------------------------------------------------------------

    def compile(self) -> str:
        unit = self.unit
        table = self.table
        params = ["ctx"] + [f"f_{a}" for a in unit.args]
        self.lines.append(f"def u_{unit.name}({', '.join(params)}):")

        dummies = set(unit.args)
        if self.native:
            self.w("_nc = ctx.natives")

        # parameters
        for sym in table.symbols.values():
            if sym.is_parameter:
                self.w(f"f_{sym.name} = {sym.param_value!r}")

        # common blocks
        for block, members in table.common_blocks.items():
            self.w(f"_c_{_mangle_block(block)} = ctx.commons[{block!r}]")
            for pos, member in enumerate(members):
                sym = table.require(member)
                if sym.is_array:
                    self.w(f"f_{member} = _c_{_mangle_block(block)}[{pos}]")

        # local arrays (dummies and commons are already bound)
        for sym in sorted(table.symbols.values(), key=lambda s: s.name):
            if sym.is_array and sym.name not in dummies \
                    and sym.common_block is None:
                bounds = ", ".join(
                    f"(int({self.expr(lo)}), int({self.expr(hi)}))"
                    for lo, hi in sym.array.bounds)
                dtype = f"_DT[{sym.type_name!r}]"
                self.w(f"f_{sym.name} = OffsetArray.from_bounds([{bounds}], "
                       f"{dtype}, {sym.name!r})")

        # unpack array data and lower bounds
        for sym in sorted(table.symbols.values(), key=lambda s: s.name):
            if sym.is_array:
                self.w(f"f_{sym.name}_d = f_{sym.name}.data")
                for d in range(sym.array.rank):
                    self.w(f"f_{sym.name}_l{d} = f_{sym.name}.lower[{d}]")

        # zero-initialize scalars (except dummies/parameters)
        for sym in sorted(table.symbols.values(), key=lambda s: s.name):
            if (sym.is_array or sym.is_parameter or sym.name in dummies
                    or sym.common_block is not None or sym.is_external):
                continue
            if self.all_units.get(sym.name) is not None:
                if sym.name != unit.name:
                    continue  # references to other units are not scalars
            init = {"i": "0", "r": "0.0", "l": "False", "s": "''"}[
                type_code(sym.type_name)]
            self.w(f"f_{sym.name} = {init}")

        # DATA initialization
        for stmt in unit.decls:
            if isinstance(stmt, A.DataStmt):
                self._emit_data(stmt)

        self.w("try:")
        self.depth += 1
        self.block(unit.body)
        self.depth -= 1
        self.w("except _Return:")
        self.depth += 1
        self.w("pass")
        self.depth -= 1

        # returns: function result first, then scalar dummies (copy-out)
        ret_parts: list[str] = []
        if unit.kind == "function":
            ret_parts.append(f"f_{unit.name}")
        for arg in unit.args:
            sym = table.get(arg)
            if sym is None or not sym.is_array:
                ret_parts.append(f"f_{arg}")
        if unit.kind == "program":
            # expose final state for inspection
            names = sorted(sym.name for sym in table.symbols.values()
                           if not sym.is_external
                           and self.all_units.get(sym.name) is None)
            items = ", ".join(f"{n!r}: {self.var_read(n)}" for n in names
                              if not (table.require(n).is_parameter))
            self.w(f"return {{{items}}}")
        else:
            self.w(f"return ({', '.join(ret_parts)}{',' if ret_parts else ''})")
        return "\n".join(self.lines)

    def _emit_data(self, stmt: A.DataStmt) -> None:
        values = list(stmt.values)
        pos = 0
        for name in stmt.names:
            sym = self.table.get(name)
            if sym is not None and sym.is_array:
                shape = [int(self.table.eval_const(hi))
                         - int(self.table.eval_const(lo)) + 1
                         for lo, hi in sym.array.bounds]
                count = int(np.prod(shape))
                chunk = values[pos:pos + count]
                if len(chunk) == 1:
                    self.w(f"f_{name}.fill({self.expr(chunk[0])})")
                    pos += 1
                else:
                    flat = ", ".join(self.expr(v) for v in chunk)
                    self.w(f"f_{name}.data[...] = _np.array([{flat}])"
                           f".reshape({tuple(shape)!r}, order='F')")
                    pos += count
            else:
                self.assign(A.Assign(target=A.Var(name), value=values[pos]))
                pos += 1


def _mangle_block(block: str) -> str:
    return block if block else "blank"


def _scalar_dummy_indices(unit: A.ProgramUnit) -> list[int]:
    """Dummy positions returned by the generated unit (copy-out tuple)."""
    table: SymbolTable = unit.symbols  # type: ignore[assignment]
    out = []
    for i, arg in enumerate(unit.args):
        sym = table.get(arg)
        if sym is None or not sym.is_array:
            out.append(i)
    return out


@dataclass
class CompiledProgram:
    """A compiled compilation unit: one Python callable per program unit."""

    cu: A.CompilationUnit
    source: str
    namespace: dict
    #: {"native": n, "scalar": n, "reasons": [(unit, line, why)]}
    nest_stats: dict = field(default_factory=dict)
    #: the loaded native nests (None: every nest runs scalar)
    library: _native.NativeLibrary | None = None

    def function(self, name: str):
        return self.namespace[f"u_{name}"]

    def make_ctx(self, io: IoManager | None = None, rt: object = None) -> Ctx:
        """Create an execution context with COMMON storage allocated."""
        ctx = Ctx(io=io if io is not None else IoManager(), rt=rt,
                  natives=_native.NativeNests(self.library))
        self._allocate_commons(ctx)
        return ctx

    def _allocate_commons(self, ctx: Ctx) -> None:
        for unit in self.cu.units:
            table: SymbolTable = unit.symbols  # type: ignore[assignment]
            for block, members in table.common_blocks.items():
                slots = ctx.commons.setdefault(block, [])
                for pos, member in enumerate(members):
                    sym = table.require(member)
                    if pos < len(slots):
                        continue
                    if sym.is_array:
                        bounds = [(self._eval_bound(table, lo, ctx.rt),
                                   self._eval_bound(table, hi, ctx.rt))
                                  for lo, hi in sym.array.bounds]
                        slots.append(OffsetArray.from_bounds(
                            bounds, DTYPES.get(sym.type_name, np.float64),
                            member))
                    else:
                        slots.append(0.0 if type_code(sym.type_name) == "r"
                                     else 0)

    @staticmethod
    def _eval_bound(table: SymbolTable, expr: A.Expr, rt: object) -> int:
        """COMMON bound: compile-time constant, or an acfd_lb/acfd_ub call
        resolved through the rank runtime (SPMD ghosted declarations)."""
        if isinstance(expr, (A.FuncCall, A.Apply)) \
                and expr.name.startswith("acfd_") and rt is not None:
            args = []
            for a in expr.args:
                if isinstance(a, A.StringLit):
                    args.append(a.value)
                elif isinstance(a, A.IntLit):
                    args.append(a.value)
                else:
                    args.append(int(table.eval_const(a)))
            return int(getattr(rt, expr.name[5:])(*args))
        return int(table.eval_const(expr))

    def run(self, io: IoManager | None = None, rt: object = None,
            unit: str | None = None, args: tuple = ()) -> "RunResult":
        """Execute the main program (or a named unit)."""
        ctx = self.make_ctx(io, rt)
        name = unit if unit is not None else self.cu.main.name
        fn = self.function(name)
        try:
            result = fn(ctx, *args)
        except _Stop:
            result = {}
        return RunResult(ctx=ctx, values=result if isinstance(result, dict)
                         else {})


@dataclass
class RunResult:
    """Final state of a compiled program run."""

    ctx: Ctx
    values: dict

    @property
    def binds(self) -> int:
        """Argument tuples this run built for its native nests (hits do
        not count): one per nest it ran and set of arrays it ran on."""
        return self.ctx.natives.built

    @property
    def nests_run(self) -> int:
        """Native nests this run executed at least once."""
        return self.ctx.natives.nests

    def array(self, name: str) -> OffsetArray:
        value = self.values.get(name)
        if isinstance(value, OffsetArray):
            return value
        raise InterpError(f"{name!r} is not an array in the final state "
                          f"(STOP before normal end?)")

    def scalar(self, name: str):
        if name not in self.values:
            raise InterpError(f"{name!r} not in the final state")
        return self.values[name]

    @property
    def io(self) -> IoManager:
        return self.ctx.io


def translate(cu: A.CompilationUnit, *, native: bool = True
              ) -> tuple[str, list, dict]:
    """The Python source of *cu*, its native nests and their tally;
    builds nothing.

    Args:
        cu: resolved compilation unit (resolved here if it is not).
        native: call a compiled C function for every nest
            :mod:`repro.interp.native` accepts; ``False`` keeps every
            nest in the scalar translation (the reference the native
            nests are checked against).
    """
    if any(unit.symbols is None for unit in cu.units):
        resolve_compilation_unit(cu)
    stats = _native.new_stats()
    nests: list = []
    units = {u.name: u for u in cu.units}
    source = "\n\n".join(
        _UnitCompiler(unit, units, native=native, stats=stats,
                      nests=nests).compile() for unit in cu.units)
    return source, nests, stats


def compile_unit(cu: A.CompilationUnit, *,
                 native: bool = True) -> CompiledProgram:
    """Translate a compilation unit to Python, build or load its native
    nests (:func:`repro.interp.native.load`), and return the compiled
    form.  With no C compiler on the host every nest runs scalar."""
    from repro.obs import spans as obs
    with obs.span("pyback-compile", cat="compile") as sp:
        source, nests, stats = translate(cu, native=native)
        library = _native.load(nests) if nests else None
        if nests and library is None:
            source, nests, stats = translate(cu, native=False)
        sp.args["units"] = len(cu.units)
        sp.args["source_lines"] = source.count("\n") + 1
        sp.args["native_nests"] = stats["native"]
        sp.args["scalar_nests"] = stats["scalar"]
    obs.counter("pyback.nests.native").inc(stats["native"])
    obs.counter("pyback.nests.scalar").inc(stats["scalar"])
    namespace: dict = {
        "OffsetArray": OffsetArray,
        "_np": np,
        "_DT": DTYPES,
        "_f64": np.float64,
        "_i64": np.int64,
        "_do_trips": do_trips,
        "_do_iter": lambda a, b, s: range(a, b + (1 if s > 0 else -1), s),
        "_idiv": lambda a, b: fortran_div(int(a), int(b)),
        "_fdiv": fortran_div,
        "_Goto": _Goto,
        "_Return": _Return,
        "_Stop": _Stop,
        "_ExitLoop": _ExitLoop,
        "_CycleLoop": _CycleLoop,
    }
    for name, impl in INTRINSIC_IMPLS.items():
        namespace[f"_in_{name}"] = impl
    try:
        code = compile(source, f"<pyback:{cu.filename}>", "exec")
    except SyntaxError as exc:  # pragma: no cover - codegen bug guard
        raise CodegenError(f"generated Python does not compile: {exc}\n"
                           f"{source}") from exc
    exec(code, namespace)
    return CompiledProgram(cu=cu, source=source, namespace=namespace,
                           nest_stats=stats, library=library)


def run_compiled(cu: A.CompilationUnit, io: IoManager | None = None, *,
                 native: bool = True) -> RunResult:
    """Compile and run a program in one call."""
    from repro.obs import spans as obs
    prog = compile_unit(cu, native=native)
    with obs.span("execute-sequential", cat="execute"):
        return prog.run(io=io)
