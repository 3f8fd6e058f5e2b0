"""The SPMD restructuring transformation (paper §3, last paragraph).

Takes the sequential AST plus a :class:`repro.codegen.plan.ParallelPlan`
and produces the parallel SPMD program:

1. **communication statements** — ``call acfd_exchange(k, arrays...)`` at
   every combined synchronization point; ``call acfd_pipe_recv/send``
   around pipelined self-dependent loops (a reduction riding a sync is
   passed after its arrays, ``call acfd_exchange(2, v, err)``);
   ``x = acfd_allreduce_max(x)`` after the other reduction loops;
2. **loop indices** — field-loop bounds clamped to the rank's owned range
   (``do i = max0(2, acfd_lo(1)), min0(n-1, acfd_hi(1))``);
3. **array sizes** — status arrays re-declared over the local owned block
   plus ghost layers (``v(acfd_lb('v', 1):acfd_ub('v', 1), ...)``), still
   indexed in global coordinates;
4. **read statements** — rank 0 reads, then broadcasts
   (``x = acfd_bcast(x)``); writes execute on rank 0 only;
5. **boundary code** — constant-subscript writes guarded by ownership
   tests (``if (acfd_owns(1, 1)) ...``).

All rank-dependent values flow through ``acfd_*`` runtime calls, so one
transformed program serves every rank (SPMD), exactly like the paper's
generated PVM/MPI Fortran.

Every decision is the plan's (``build_plan`` also records the overlap
verdict); this pass only writes.  It copies the source program and walks
the copy once by the source program's paths: loop bounds are clamped
through the plan's field-loop classification, the statements
:func:`repro.codegen.plan.planned_statements` lists are laid in, and
boundary writes are guarded.  Declarations and I/O follow, and the
result is resolved once.
"""

from __future__ import annotations

from copy import deepcopy

from repro.analysis.loops import Path, known_step, spliced
from repro.analysis.stencil import (Affine, SubscriptKind, affine_form,
                                    int_parameters, subscript_info)
from repro.codegen.plan import ParallelPlan, planned_statements
from repro.errors import CodegenError
from repro.fortran import ast as A
from repro.fortran.symbols import resolve_compilation_unit


def _fn(name: str, *args: A.Expr) -> A.FuncCall:
    return A.FuncCall(name, list(args))


def _int(v: int) -> A.IntLit:
    return A.IntLit(v)


def _lattice_start(start: A.Expr, edge: A.Expr, step: int) -> A.Expr:
    """The first of ``start, start + step, ...`` inside the block whose
    near *edge* is given: the distance to *edge* rounded up to a multiple
    of the step (truncating division, exact when it is not negative; the
    ``max0``/``min0`` keeps *start* when it is already inside)."""
    up = step > 0
    k, s = _int(abs(step)), deepcopy(start)
    dist = A.BinOp("-", edge, s) if up else A.BinOp("-", s, edge)
    dist = A.BinOp("+", dist, _int(abs(step) - 1))
    moved = A.BinOp("+" if up else "-", deepcopy(start), A.BinOp(
        "*", deepcopy(k), A.BinOp("/", dist, deepcopy(k))))
    return _fn("max0" if up else "min0", start, moved)


def _clamp_either_way(start: A.Expr, stop: A.Expr, step: A.Expr,
                      lo: A.Expr, hi: A.Expr) -> tuple[A.Expr, A.Expr]:
    """Bounds for a loop whose step only the run knows, clamped to the
    block ``[lo, hi]`` on the step's run-time sign ``sg = isign(1, k)``.
    The start moves ``max0(0, min0(a, b))`` steps on, where ``a`` and
    ``b`` are the steps to *lo* and to *hi* rounded away from the start
    (``(d + k - sg) / k`` with truncating division is the ceiling of
    ``d / k`` whenever that is positive): going up the fewer steps are
    the ones to *lo*, going down the ones to *hi*.  The stop is the
    nearer of *stop* and the far edge in the step's direction:
    ``sg * min0(sg * stop, max0(sg * lo, sg * hi))``."""
    def sg() -> A.Expr:
        return _fn("isign", _int(1), deepcopy(step))

    def steps_to(edge: A.Expr) -> A.Expr:
        dist = A.BinOp("-", deepcopy(edge), deepcopy(start))
        return A.BinOp("/", A.BinOp("-", A.BinOp("+", dist, deepcopy(step)),
                                    sg()), deepcopy(step))

    moved = _fn("max0", _int(0), _fn("min0", steps_to(lo), steps_to(hi)))
    new_start = A.BinOp("+", deepcopy(start),
                        A.BinOp("*", deepcopy(step), moved))
    far = _fn("max0", A.BinOp("*", sg(), deepcopy(lo)),
              A.BinOp("*", sg(), deepcopy(hi)))
    new_stop = A.BinOp("*", sg(), _fn("min0", A.BinOp("*", sg(), stop),
                                      far))
    return new_start, new_stop


def _mismatch(unit_name: str) -> CodegenError:
    return CodegenError(f"the loops of unit {unit_name!r} do not match the "
                        f"plan's field-loop classification")


class Restructurer:
    """Writes the plan into a structural copy of the sequential program."""

    def __init__(self, plan: ParallelPlan) -> None:
        self.plan = plan
        self.cu = A.copy_node(plan.cu)
        self.directives = plan.directives
        self.cut = set(plan.partition.cut_dims)
        self._probe_counter = 0
        self._placed = planned_statements(plan)
        self._clamp = self._clamp_table()

    # -- public -------------------------------------------------------------------

    def run(self) -> A.CompilationUnit:
        for unit in self.cu.units:
            # the unit being written: its symbols and integer PARAMETERs
            self.table = self.plan.cu.unit(unit.name).symbols
            self.params = int_parameters(self.table)
            self._rewrite_declarations(unit)
            self._walk_body(unit.body, unit.name, (), {})
            self._transform_io(unit)
        if self._clamp:
            raise _mismatch(next(iter(self._clamp))[0])
        # resolve: new statements reference acfd_* externals
        resolve_compilation_unit(self.cu)
        return self.cu

    def _clamp_table(self) -> dict[tuple[str, Path], tuple[str, dict]]:
        """(unit, path) -> (loop variable, loop variable -> cut grid dim)
        for every DO loop of a field nest, from the plan's classification
        of the source program; the walk pops each entry at its loop."""
        clamp: dict[tuple[str, Path], tuple[str, dict]] = {}
        for name, cls in self.plan.frame.classifications.items():
            for fl in cls.field_loops:
                var_to_dim = {var: g for g, var in fl.sweeps.items()
                              if g in self.cut}
                for loop in [fl.loop, *fl.loop.descendants]:
                    clamp[(name, loop.path)] = (loop.var, var_to_dim)
        return clamp

    # -- declarations ------------------------------------------------------------

    def _rewrite_declarations(self, unit: A.ProgramUnit) -> None:
        def rewrite_entities(entities: list[tuple[str, list[A.Expr]]]) -> None:
            for pos, (name, dims) in enumerate(entities):
                ap = self.plan.arrays.get(name)
                if ap is None or not dims:
                    continue
                new_dims: list[A.Expr] = []
                for adim, dim in enumerate(dims):
                    g = ap.dim_map[adim] if adim < len(ap.dim_map) else None
                    if g is None or g not in self.cut:
                        new_dims.append(dim)
                        continue
                    lo = _fn("acfd_lb", A.StringLit(name), _int(adim + 1))
                    hi = _fn("acfd_ub", A.StringLit(name), _int(adim + 1))
                    new_dims.append(A.RangeExpr(lo, hi))
                entities[pos] = (name, new_dims)

        for stmt in unit.decls:
            if isinstance(stmt, (A.Declaration, A.DimensionStmt,
                                 A.CommonStmt)):
                rewrite_entities(stmt.entities)

    # -- loop bounds, ownership guards, planned statements ---------------------------

    def _walk_body(self, body: list[A.Stmt], unit_name: str, prefix: Path,
                   env: dict[str, int]) -> None:
        """Clamp, guard and lay the planned statements into *body*, the
        list at *prefix*; paths are the source program's, so every list
        is rewritten after its statements' own lists."""
        out: list[A.Stmt] = []
        for path, stmt in spliced(body, unit_name, prefix, self._placed):
            out.append(stmt)
            if path is None:
                continue  # a planned statement
            var, var_to_dim = self._clamp.pop((unit_name, path), ("", {}))
            if var and not (isinstance(stmt, A.DoLoop) and stmt.var == var):
                raise _mismatch(unit_name)
            if isinstance(stmt, A.DoLoop):
                new_env = dict(env)
                new_env.pop(stmt.var, None)
                g = var_to_dim.get(stmt.var)
                if g is not None:
                    lo = _fn("acfd_lo", _int(g + 1))
                    hi = _fn("acfd_hi", _int(g + 1))
                    # a downward sweep starts at the top of the block; a
                    # step longer than one starts on its lattice; a step
                    # only the run knows is clamped on its sign
                    step = known_step(stmt, self.table)
                    if step is None:
                        stmt.start, stmt.stop = _clamp_either_way(
                            stmt.start, stmt.stop, stmt.step, lo, hi)
                    else:
                        near, far = (hi, lo) if step < 0 else (lo, hi)
                        up = near is lo
                        stmt.start = (
                            _lattice_start(stmt.start, near, step)
                            if abs(step) > 1 else
                            _fn("max0" if up else "min0", stmt.start, near))
                        stmt.stop = _fn("min0" if up else "max0",
                                        stmt.stop, far)
                    new_env[stmt.var] = g
                self._walk_body(stmt.body, unit_name, path, new_env)
            elif isinstance(stmt, A.DoWhile):
                self._walk_body(stmt.body, unit_name, path, env)
            elif isinstance(stmt, A.IfBlock):
                for k, (_cond, arm) in enumerate(stmt.arms):
                    self._walk_body(arm, unit_name, path + (("arm", k),),
                                    env)
            elif isinstance(stmt, A.Assign):
                guard, guarded_dims = self._ownership_guard(stmt, env,
                                                            unit_name)
                self._check_global_reads(stmt.value, env, unit_name,
                                         guarded_dims, stmt.line)
                if guard is not None:
                    out[-1] = A.IfBlock(arms=[(guard, [stmt])],
                                        line=stmt.line, label=stmt.label)
                    stmt.label = None
        body[:] = out

    def _ownership_guard(self, stmt: A.Assign, env: dict[str, int],
                         unit_name: str
                         ) -> tuple[A.Expr | None, dict[int, Affine]]:
        """Guard condition for boundary (constant-subscript) writes.

        Returns (guard expression or None, guarded dims with the affine
        forms of their guarded subscripts).
        """
        if not isinstance(stmt.target, A.ArrayRef):
            return None, {}
        name = stmt.target.name
        ap = self.plan.arrays.get(name)
        if ap is None:
            return None, {}
        loop_vars = set(env)
        conds: list[A.Expr] = []
        guarded_dims: dict[int, Affine] = {}
        for adim, sub in enumerate(stmt.target.subs):
            g = ap.dim_map[adim]
            if g is None or g not in self.cut:
                continue
            form = affine_form(sub, self.params)
            info = subscript_info(form, loop_vars)
            if info.kind is SubscriptKind.INDUCTION and info.var in env \
                    and env[info.var] == g:
                continue  # covered by the clamped loop bounds
            if info.kind is SubscriptKind.CONSTANT:
                conds.append(_fn("acfd_owns", _int(g + 1), sub))
                guarded_dims[g] = form
                continue
            raise CodegenError(
                f"unsupported subscript on cut dimension {g} of status "
                f"array {name!r} in unit {unit_name!r} "
                f"(line {stmt.line}): only induction and constant "
                f"subscripts can be partitioned")
        if not conds:
            return None, guarded_dims
        guard = conds[0]
        for extra in conds[1:]:
            guard = A.BinOp(".and.", guard, extra)
        return guard, guarded_dims

    def _check_global_reads(self, expr: A.Expr, env: dict[str, int],
                            unit_name: str, guarded_dims: dict[int, Affine],
                            line: int) -> None:
        """Reject reads that would need data from a non-neighbor rank.

        A fixed-subscript read on a cut dimension is only legal when the
        statement's write guard pins execution to a rank owning a nearby
        coordinate (e.g. ``v(n, j) = v(n - 1, j)``): the read must sit
        within the dependency distance of the guarded coordinate, so it
        is locally owned or halo-covered.
        """
        loop_vars = set(env)
        max_dist = max(1, self.directives.max_distance)
        for node in A.walk(expr):
            if not isinstance(node, A.ArrayRef):
                continue
            ap = self.plan.arrays.get(node.name)
            if ap is None:
                continue
            for adim, sub in enumerate(node.subs):
                g = ap.dim_map[adim]
                if g is None or g not in self.cut:
                    continue
                form = affine_form(sub, self.params)
                if subscript_info(form, loop_vars).kind \
                        is not SubscriptKind.CONSTANT:
                    continue
                # the read sits within reach of the guarded coordinate:
                # the same invariant terms, constants max_dist apart
                anchor = guarded_dims.get(g)
                if anchor is not None and anchor.coeffs == form.coeffs \
                        and abs(anchor.const - form.const) <= max_dist:
                    continue
                raise CodegenError(
                    f"status array {node.name!r} is read at a fixed "
                    f"subscript on cut dimension {g} in unit "
                    f"{unit_name!r} (line {line}); such global reads "
                    f"need the owning rank's data everywhere — leave "
                    f"dimension {g} uncut or restructure the code")

    # -- I/O ------------------------------------------------------------------------

    def _transform_io(self, unit: A.ProgramUnit) -> None:
        self._transform_io_body(unit.body, unit.name)

    def _transform_io_body(self, body: list[A.Stmt], unit_name: str) -> None:
        i = 0
        while i < len(body):
            stmt = body[i]
            if isinstance(stmt, (A.DoLoop, A.DoWhile)):
                self._transform_io_body(stmt.body, unit_name)
            elif isinstance(stmt, A.IfBlock):
                for _cond, arm_body in stmt.arms:
                    self._transform_io_body(arm_body, unit_name)
            elif isinstance(stmt, A.ReadStmt):
                replacement = self._transform_read(stmt, unit_name)
                body[i:i + 1] = replacement
                i += len(replacement)
                continue
            elif isinstance(stmt, A.WriteStmt):
                fetches = self._extract_probe_fetches(stmt, unit_name)
                guard = A.BinOp(".eq.", _fn("acfd_rank"), _int(0))
                wrapped = A.IfBlock(arms=[(guard, [stmt])], line=stmt.line,
                                    label=stmt.label)
                stmt.label = None
                body[i:i + 1] = fetches + [wrapped]
                i += len(fetches)
            elif isinstance(stmt, (A.OpenStmt, A.CloseStmt)):
                guard = A.BinOp(".eq.", _fn("acfd_rank"), _int(0))
                body[i] = A.IfBlock(arms=[(guard, [stmt])], line=stmt.line,
                                    label=stmt.label)
                stmt.label = None
            i += 1

    def _extract_probe_fetches(self, stmt: A.WriteStmt,
                               unit_name: str) -> list[A.Stmt]:
        """Distributed-array probes in WRITE lists.

        ``write (6,*) v(n/2, m/2)`` would read a possibly-remote element
        on rank 0; the element is fetched collectively first (the owner
        broadcasts it via ``acfd_get``) and the write prints the local
        temporary.
        """
        fetches: list[A.Stmt] = []
        for pos, item in enumerate(stmt.items):
            if not isinstance(item, A.ArrayRef):
                continue
            if item.name not in self.plan.arrays:
                continue
            self._probe_counter += 1
            tmp = A.Var(f"acfd_probe{self._probe_counter}")
            fetches.append(A.Assign(
                target=tmp,
                value=_fn("acfd_get", A.Var(item.name), *item.subs),
                line=stmt.line))
            stmt.items[pos] = tmp
        return fetches

    def _transform_read(self, stmt: A.ReadStmt,
                        unit_name: str) -> list[A.Stmt]:
        """rank 0 reads; values broadcast to every rank."""
        for item in stmt.items:
            if not isinstance(item, A.Var):
                raise CodegenError(
                    f"READ of non-scalar item in unit {unit_name!r} "
                    f"(line {stmt.line}) is not supported by the "
                    f"restructurer; read scalars and fill status arrays "
                    f"in field loops")
        guard = A.BinOp(".eq.", _fn("acfd_rank"), _int(0))
        out: list[A.Stmt] = [A.IfBlock(arms=[(guard, [stmt])],
                                       line=stmt.line, label=stmt.label)]
        stmt.label = None
        for item in stmt.items:
            out.append(A.Assign(target=A.Var(item.name),
                                value=_fn("acfd_bcast", A.Var(item.name))))
        return out


def restructure(plan: ParallelPlan) -> A.CompilationUnit:
    """Produce the SPMD program for *plan* (neither the plan nor its
    source AST is touched)."""
    return Restructurer(plan).run()
