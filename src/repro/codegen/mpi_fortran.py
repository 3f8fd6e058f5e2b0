"""Emit the generated program as Fortran with an explicit MPI runtime.

The paper's pre-compiler output is Fortran with PVM/MPI calls.  Our
executable target is the Python backend, but for fidelity this module
prints the same artifact: the transformed SPMD program plus a generated
``acfd`` runtime library in Fortran whose wrappers contain the actual
``mpi_*`` calls — per-sync aggregated ``mpi_sendrecv`` exchanges, the
pipeline sends/receives, and the reduction/broadcast wrappers, all
specialized with the plan's geometry.  A reduction riding a combined
sync travels in that sync's face messages: its partial is packed behind
the arrays and folded as each face arrives.  Broadcasts and allreduces
call one library function per Fortran type they carry (an integer
broadcast is ``acfd_bcast_int`` over ``mpi_integer``, and so is a probe's
``acfd_get`` of an integer array); the program text printed here names
that function, the SPMD program keeps the generic call.  Each printed
unit declares the type of every library function it calls and of the
temporary each probe fetches into, so the program compiles under
``implicit none``.
"""

from __future__ import annotations

from repro.codegen.plan import ParallelPlan, PlannedSync, folds_in_one_round
from repro.errors import CodegenError
from repro.fortran import ast as A
from repro.fortran.printer import print_compilation_unit

_HEADER = """\
c ==================================================================
c  parallel SPMD program generated by Auto-CFD
c  partition: {partition}   grid: {grid}
c  combined synchronization points: {nsyncs}   pipelines: {npipes}
c ==================================================================
"""


#: how a fold of two partials is written, per reduction op
_FOLD = {"max": "max({a}, {b})", "min": "min({a}, {b})", "sum": "{a} + {b}"}
#: per Fortran type a library call carries: the suffix of its function
#: name and its MPI datatype (``real`` keeps the untyped names)
_TYPED = {"real": ("", "mpi_real"), "integer": ("_int", "mpi_integer"),
          "doubleprecision": ("_dble", "mpi_double_precision"),
          "logical": ("_log", "mpi_logical")}
#: the library calls the restructurer emits as ``x = <call>(x)``
_LIBRARY = tuple(f"acfd_allreduce_{op}" for op in _FOLD) + ("acfd_bcast",)
#: the type of each library function whose name does not say it (the
#: others are typed by what they carry)
_RESULT = {"acfd_rank": "integer", "acfd_nprocs": "integer",
           "acfd_lo": "integer", "acfd_hi": "integer",
           "acfd_lb": "integer", "acfd_ub": "integer",
           "acfd_frame": "integer", "acfd_owns": "logical"}


def _typed(name: str, type_name: str) -> str:
    return name + _TYPED[type_name][0]


def _allreduces(plan: ParallelPlan, sync: PlannedSync,
                pad: str = "  ") -> list[str]:
    """The library's allreduce of each reduction riding *sync*."""
    table = plan.cu.unit(sync.insertion[0]).symbols
    return [f"{pad}{var} = "
            + _typed(f"acfd_allreduce_{op}", table.require(var).type_name)
            + f"({var})" for var, op in sync.reductions]


def _partial_slots(reductions: list[tuple[str, str]], types: list[str]
                   ) -> tuple[list[tuple[str, str, str, str]], int]:
    """Where each riding partial travels behind the packed faces:
    ``(var, op, pack statement, the neighbour's value)`` per partial and
    the real elements they take.  A real partial is stored as it is;
    any other type's bits are copied with ``transfer`` into as many
    numeric storage units as it fills (one for an integer, two for a
    double precision), so it arrives exact."""
    out, end = [], 0
    for (var, op), type_name in zip(reductions, types):
        units = 2 if type_name == "doubleprecision" else 1
        span = f"acfd_len + {end + 1}" + (
            f":acfd_len + {end + units}" if units > 1 else "")
        end += units
        if type_name == "real":
            pack, theirs = var, f"acfd_recvbuf({span})"
        else:
            mold = f"acfd_sendbuf(1{':' + str(units) if units > 1 else ''})"
            pack = f"transfer({var}, {mold})"
            theirs = f"transfer(acfd_recvbuf({span}), {var})"
        out.append((var, op, f"acfd_sendbuf({span}) = {pack}", theirs))
    return out, end


def _first_frame_guard(plan: ParallelPlan, sync: PlannedSync) -> list[str]:
    """Which members travel when: the entry-only ones are still fresh
    after the first frame (``acfd_frame`` counts ``acfd_trip``), so the
    pack, unpack and face-length routines consult ``acfd_members``.  A
    sync left with nothing to send still reduces what rides it."""
    if not sync.entry_only:
        return []
    lines = [f"c  entry-only: {name} (still fresh from sync "
             f"{', '.join(str(s) for s in via)}), sent on the first "
             f"frame only"
             for name, via in sync.entry_only.items()]
    if sync.steady:
        kept = ", ".join(name for name, _d in sync.steady)
        lines += [f"c  acfd_members: 0 = every array, 1 = {kept}",
                  f"  acfd_members({sync.sync_id}) = 1",
                  f"  if (acfd_trip .le. 1) acfd_members({sync.sync_id}) "
                  f"= 0"]
    elif sync.reductions:
        lines += ["  if (acfd_trip .gt. 1) then"] \
            + _allreduces(plan, sync, "    ") + ["    return", "  end if"]
    else:
        lines.append("  if (acfd_trip .gt. 1) return")
    return lines


def _exchange_subroutine(plan: ParallelPlan, sync: PlannedSync) -> str:
    """One aggregated exchange wrapper with mpi_sendrecv per neighbor.

    Reductions riding the sync are passed after its arrays.  Where every
    cut dimension has two ranks their partials are packed into each face
    message behind the arrays and folded, lower coordinate on the left,
    as each face arrives; elsewhere the library's ``acfd_allreduce_<op>``
    follows the faces."""
    fold = bool(sync.reductions) and folds_in_one_round(plan.partition.dims)
    lines = []
    args = ", ".join([name for name, _d in sync.arrays]
                     + [var for var, _op in sync.reductions])
    lines.append(f"subroutine acfd_exchange_{sync.sync_id}({args})")
    lines.append("  include 'mpif.h'")
    lines.append("  include 'acfd_geom.h'")
    lines.extend(_array_decls(plan, sync))
    lines.append("  integer ierr, status(mpi_status_size)")
    table = plan.cu.unit(sync.insertion[0]).symbols
    types = [table.require(var).type_name for var, _op in sync.reductions]
    lines += [f"  {t} {var}" for (var, _op), t in zip(sync.reductions, types)]
    partials, units = _partial_slots(sync.reductions, types)
    if fold:
        lines.append("  integer acfd_len")
    lines.extend(_first_frame_guard(plan, sync))
    for g in plan.partition.cut_dims:
        for direction, side in ((-1, "minus"), (1, "plus")):
            length = f"acfd_facelen({sync.sync_id}, {g + 1})"
            lines.append(f"c  face exchange, grid dim {g + 1}, "
                         f"{side} neighbor (aggregated: "
                         f"{len(sync.arrays)} arrays"
                         + (f" and {len(sync.reductions)} partials"
                            if fold else "") + ", one message)")
            lines.append(f"  if (acfd_nbr({g + 1}, {direction}) .ge. 0) then")
            lines.append(f"    call acfd_pack_faces({sync.sync_id}, "
                         f"{g + 1}, {direction}, acfd_sendbuf)")
            if fold:
                lines.append(f"    acfd_len = {length}")
                lines += [f"    {pack}" for _v, _o, pack, _t in partials]
                length = f"acfd_len + {units}"
            lines.append(f"    call mpi_sendrecv(acfd_sendbuf, {length}, "
                         f"mpi_real, acfd_nbr({g + 1}, {direction}), "
                         f"{sync.sync_id}, acfd_recvbuf, {length}, "
                         f"mpi_real, acfd_nbr({g + 1}, {direction}), "
                         f"{sync.sync_id}, mpi_comm_world, status, ierr)")
            lines.append(f"    call acfd_unpack_faces({sync.sync_id}, "
                         f"{g + 1}, {direction}, acfd_recvbuf)")
            if fold:
                lines.append("c    fold the neighbor's partials, lower "
                             "coordinate on the left")
                for var, op, _pack, theirs in partials:
                    a, b = (theirs, var) if direction < 0 else (var, theirs)
                    lines.append(f"    {var} = "
                                 + _FOLD[op].format(a=a, b=b))
            lines.append("  end if")
    if sync.reductions and not fold:
        lines.append("c  a cut dimension has more than two ranks: the "
                     "reductions fold in an allreduce")
        lines += _allreduces(plan, sync)
    lines.append(f"end subroutine acfd_exchange_{sync.sync_id}")
    return "\n".join(lines)


def _array_decls(plan: ParallelPlan, sync: PlannedSync) -> list[str]:
    return [f"  {plan.arrays[name].type_name} {name}"
            f"({_local_dims(plan, name)})" for name, _d in sync.arrays]


def _local_dims(plan: ParallelPlan, name: str) -> str:
    """The bounds of a rank's piece of array *name*, as declared."""
    ap = plan.arrays[name]
    return ", ".join(
        f"acfd_lb{adim + 1}:acfd_ub{adim + 1}"
        if ap.dim_map[adim] is not None else
        f"{lo}:{hi}"
        for adim, (lo, hi) in enumerate(ap.original_bounds))


def _typed_calls(spmd_cu: A.CompilationUnit
                 ) -> tuple[A.CompilationUnit, set[tuple[str, str]],
                            dict[str, tuple[str, list[str]]]]:
    """A copy of the program in which each ``x = acfd_bcast(x)`` or ``x =
    acfd_allreduce_<op>(x)`` calls the function of *x*'s type, each
    ``t = acfd_get(a, ...)`` the function of *a*'s type, and each unit
    declares the type of every library function it calls and of every
    probe temporary *t*; the ``(library function, type)`` pairs of the
    assignments; and per ``acfd_get`` function its type and the arrays
    it fetches from."""
    out = A.copy_node(spmd_cu)
    used = set()
    gets: dict[str, tuple[str, list[str]]] = {}
    for unit, twin in zip(spmd_cu.units, out.units):
        table = unit.symbols
        calls: dict[str, str] = {}
        temps: dict[str, str] = {}
        for node, copy in zip(A.walk(unit), A.walk(twin)):
            if isinstance(node, A.Assign) \
                    and isinstance(node.value, A.FuncCall) \
                    and node.value.name == "acfd_get":
                temps[node.target.name] = table.require(
                    node.value.args[0].name).type_name
            if not isinstance(node, A.FuncCall):
                continue
            if node.name in _RESULT:
                calls[node.name] = _RESULT[node.name]
            elif node.name in _LIBRARY or node.name == "acfd_get":
                # typed by what it carries: x, or the array a
                type_name = table.require(node.args[0].name).type_name
                copy.name = _typed(node.name, type_name)
                if node.name in _LIBRARY:
                    used.add((node.name, type_name))
                else:
                    arrays = gets.setdefault(copy.name, (type_name, []))[1]
                    if node.args[0].name not in arrays:
                        arrays.append(node.args[0].name)
                calls[copy.name] = type_name
        # after IMPLICIT NONE, ahead of the declarations whose bounds
        # call acfd_lb / acfd_ub
        at = max((i + 1 for i, d in enumerate(twin.decls)
                  if isinstance(d, A.ImplicitStmt)), default=0)
        twin.decls[at:at] = [
            A.Declaration(type_name=t, entities=[
                (name, []) for name in sorted(names) if names[name] == t])
            for names in (calls, temps)
            for t in _TYPED if t in names.values()]
    return out, used, gets


def _runtime_library(plan: ParallelPlan, calls: set[tuple[str, str]],
                     gets: dict[str, tuple[str, list[str]]]) -> str:
    """The library: setup, one exchange wrapper per sync, the pipeline
    wrappers, the reduction and broadcast functions of *calls* and the
    probe fetches of *gets*."""
    parts = []
    parts.append("""\
subroutine acfd_init()
  include 'mpif.h'
  include 'acfd_geom.h'
  integer ierr
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, acfd_myrank, ierr)
  call mpi_comm_size(mpi_comm_world, acfd_np, ierr)
  call acfd_setup_geometry()
end subroutine acfd_init""")
    for sync in plan.syncs:
        parts.append(_exchange_subroutine(plan, sync))
    for pipe in plan.pipes:
        args = ", ".join(pipe.arrays)
        dims = ", ".join(str(g + 1) for g in pipe.pipeline_dims)
        parts.append(f"""\
subroutine acfd_pipe_recv_{pipe.pipe_id}({args})
  include 'mpif.h'
  include 'acfd_geom.h'
  integer ierr, status(mpi_status_size)
c  mirror-image decomposition: receive pipelined new values from the
c  minus neighbors on dims ({dims}) before sweeping
  call mpi_recv(acfd_recvbuf, acfd_pipelen({pipe.pipe_id}), mpi_real,
     &          acfd_nbr({dims}, -1), {1000 + pipe.pipe_id},
     &          mpi_comm_world, status, ierr)
  call acfd_unpack_pipe({pipe.pipe_id}, acfd_recvbuf)
end subroutine acfd_pipe_recv_{pipe.pipe_id}

subroutine acfd_pipe_send_{pipe.pipe_id}({args})
  include 'mpif.h'
  include 'acfd_geom.h'
  integer ierr
  call acfd_pack_pipe({pipe.pipe_id}, acfd_sendbuf)
  call mpi_send(acfd_sendbuf, acfd_pipelen({pipe.pipe_id}), mpi_real,
     &          acfd_nbr({dims}, 1), {1000 + pipe.pipe_id},
     &          mpi_comm_world, ierr)
end subroutine acfd_pipe_send_{pipe.pipe_id}""")
    # the real max and broadcast always, the allreduce of each op a
    # reduction uses in the reduced scalar's type, and every call's
    needed = calls | {("acfd_allreduce_max", "real"), ("acfd_bcast", "real")}
    needed |= {(f"acfd_allreduce_{r.op}",
                plan.cu.unit(rp.unit).symbols.require(r.var).type_name)
               for rp in plan.reductions for r in rp.reductions}
    parts += [_library_function(name, type_name) for name in _LIBRARY
              for type_name in _TYPED if (name, type_name) in needed]
    parts += [_get_function(plan, fn, type_name, arrays)
              for fn, (type_name, arrays) in sorted(gets.items())]
    frame_stub = _frame_stub(plan)
    if frame_stub:
        parts.append(frame_stub)
    return "\n\n".join(parts)


def _library_function(name: str, type_name: str) -> str:
    """The broadcast or allreduce function *name* over *type_name*."""
    fn, mpi_type = _typed(name, type_name), _TYPED[type_name][1]
    if name == "acfd_bcast":
        decl, result = f"{type_name} x", "x"
        call = f"mpi_bcast(x, 1, {mpi_type}, 0, mpi_comm_world, ierr)"
    else:
        decl, result = f"{type_name} x, y", "y"
        call = (f"mpi_allreduce(x, y, 1, {mpi_type}, "
                f"mpi_{name.rsplit('_', 1)[1]}, mpi_comm_world, ierr)")
    return (f"{type_name} function {fn}(x)\n"
            f"  include 'mpif.h'\n"
            f"  {decl}\n"
            f"  integer ierr\n"
            f"  call {call}\n"
            f"  {fn} = {result}\n"
            f"end function {fn}")


def _get_function(plan: ParallelPlan, fn: str, type_name: str,
                  arrays: list[str]) -> str:
    """The probe fetch *fn*: every rank calls it, the rank that owns the
    element (found by a max over the ranks' claims) broadcasts it.  Its
    dummy array takes the shape of the *arrays* it fetches from, which
    must share one shape: Fortran 77 has no generic functions."""
    shapes = {name: _local_dims(plan, name) for name in arrays}
    if len(set(shapes.values())) > 1:
        raise CodegenError(
            f"probes of {', '.join(arrays)} share {fn} but the arrays "
            f"differ in shape ({'; '.join(shapes.values())})")
    ap = plan.arrays[arrays[0]]
    subs = [f"i{k + 1}" for k in range(len(ap.original_bounds))]
    owns = " .and. ".join(
        f"acfd_owns({g + 1}, {sub})"
        for g, sub in zip(ap.dim_map, subs) if g is not None) or ".true."
    mpi_type = _TYPED[type_name][1]
    return (f"{type_name} function {fn}(a, {', '.join(subs)})\n"
            f"  include 'mpif.h'\n"
            f"  include 'acfd_geom.h'\n"
            f"  {type_name} a({shapes[arrays[0]]})\n"
            f"  integer {', '.join(subs)}\n"
            f"  integer ierr, mine, owner\n"
            f"  logical acfd_owns\n"
            f"  mine = -1\n"
            f"  if ({owns}) mine = acfd_myrank\n"
            f"  call mpi_allreduce(mine, owner, 1, mpi_integer, mpi_max, "
            f"mpi_comm_world, ierr)\n"
            f"  if (acfd_myrank .eq. owner) {fn} = a({', '.join(subs)})\n"
            f"  call mpi_bcast({fn}, 1, {mpi_type}, owner, mpi_comm_world, "
            f"ierr)\n"
            f"end function {fn}")


def _frame_stub(plan: ParallelPlan) -> str:
    """``acfd_frame`` matching the generated hook's argument list.

    Checkpoint/restart and fault injection live in the in-process
    harness; on a real cluster the hook returns 0, no frame skips, and
    all it does is count the trips the entry-only members go by.
    """
    node = plan.frame.frame_loop()
    if node is None:
        return ""
    names: list[str] = []
    try:
        table = plan.cu.unit(node.unit_name).symbols
    except KeyError:
        table = None
    if table is not None:
        for name in plan.arrays:
            sym = table.get(name)
            if sym is not None and sym.is_array:
                names.append(name)
    args = ", ".join(["it"] + names)
    decls = "".join(f"\n  {plan.arrays[n].type_name} {n}(*)"
                    for n in names)
    return (f"integer function acfd_frame({args})\n"
            f"  include 'acfd_geom.h'\n"
            f"  integer it{decls}\n"
            f"  acfd_trip = acfd_trip + 1\n"
            f"  acfd_frame = 0\n"
            f"end function acfd_frame")


def print_mpi_fortran(plan: ParallelPlan, spmd_cu: A.CompilationUnit) -> str:
    """The complete generated artifact: SPMD program + MPI runtime."""
    header = _HEADER.format(
        partition="x".join(str(p) for p in plan.partition.dims),
        grid="x".join(str(n) for n in plan.directives.grid_shape),
        nsyncs=len(plan.syncs),
        npipes=len(plan.pipes))
    program_cu, calls, gets = _typed_calls(spmd_cu)
    program = print_compilation_unit(program_cu)
    library = _runtime_library(plan, calls, gets)
    return (f"{header}\n{program}\n"
            f"c ------------------- generated MPI runtime "
            f"-------------------\n{library}\n")
