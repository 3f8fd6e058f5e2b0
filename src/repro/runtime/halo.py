"""Aggregated halo (ghost-cell) exchange for partitioned status arrays.

One :class:`HaloExchanger` realises one *combined synchronization point*
from the pre-compiler: all status arrays that the combined point covers are
packed into **one message per neighbor** — the paper's "corresponding
communications are aggregated" (§5.1.2).

Copy discipline: everything about a face transfer except the values is
fixed by the partition and the dependency distances, so it is resolved
once.  On first use an exchanger builds its *face plan*: per grid
dimension and direction the neighbor rank, the tag, the live numpy
**views** of every array's send face and ghost face, and the byte counts
the trace reports.  Every later call only executes the plan: it asks
the communicator to send each face at the moment it is due (so later
dimensions still see the ghosts earlier ones delivered) and to receive
each ghost face.  How a face travels is the communicator's business,
under one ownership rule: a payload is copied once at the send and then
belongs to the receiver.  In-process each send view is copied into a
fresh contiguous array that the receiver assigns into its ghost view
and drops; across processes the views are written straight into the
channel slot and read straight out into the ghost views
(:mod:`repro.runtime.procexec`).  Identity rule: the views
alias the ``.data`` buffers the arrays had when the plan was built, so a
plan is reused only while every spec's array still holds that same
buffer (checked on each call, against held references); an array whose
``.data`` was rebound gets a fresh plan.  Writing *into* a buffer
(``np.copyto(arr.data, ...)``, as checkpoint restore does) keeps the plan.

Geometry convention: each rank owns an inclusive global index range per
grid dimension; its local arrays are declared with ghost layers around the
owned block (the restructurer sizes them), so sections can be addressed in
*global* Fortran coordinates throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from repro.errors import RuntimeCommError
from repro.interp.values import OffsetArray
from repro.runtime.cart import CartComm
from repro.runtime.comm import REDUCE_OPS

#: Tag space for halo messages: tag = base + point_id * 64 + dim * 4
#: + (direction + 1).
_HALO_TAG_BASE = 1 << 16

#: Tag space for pipelined-sweep transfers: tag = base + pipe_id * 8 + dim.
_PIPE_TAG_BASE = 1 << 17

#: The halo tag space ends where the pipeline tag space begins, which
#: caps the combined-point id: point_id * 64 must stay below 2**17 - 2**16.
MAX_HALO_POINTS = (_PIPE_TAG_BASE - _HALO_TAG_BASE) // 64


def halo_tag(point_id: int, dim: int, direction: int) -> int:
    """Message tag for one (combined sync, dim, direction) face transfer."""
    if not 0 <= point_id < MAX_HALO_POINTS:
        raise RuntimeCommError(
            f"halo point_id {point_id} outside [0, {MAX_HALO_POINTS}): "
            f"its tags would stride into the pipeline tag space")
    return _HALO_TAG_BASE + point_id * 64 + dim * 4 + (direction + 1)


@dataclass
class HaloSpec:
    """One array's participation in a halo exchange.

    Attributes:
        array: the local (ghosted) array, indexed in global coordinates.
        dim_map: per array-dimension: which grid dimension it carries, or
            ``None`` for extended (packed/status-count) dimensions.
        owned: inclusive global (lo, hi) owned range per *grid* dimension.
        dist: per grid dimension, (minus, plus) ghost widths — how far
            references reach in each direction (dependency distance).
    """

    array: OffsetArray
    dim_map: tuple[int | None, ...]
    owned: tuple[tuple[int, int], ...]
    dist: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.dim_map) != self.array.rank:
            raise RuntimeCommError(
                f"halo spec for {self.array.name!r}: dim_map rank mismatch")

    def _ranges(self, grid_dim: int,
                face_range: tuple[int, int]) -> list[tuple[int, int]]:
        """Full-array section ranges with *grid_dim* restricted to a face."""
        ranges: list[tuple[int, int]] = []
        for adim in range(self.array.rank):
            g = self.dim_map[adim]
            if g == grid_dim:
                ranges.append(face_range)
            elif g is not None:
                # other partitioned dims: owned range only (corners are not
                # needed by 5/9-point star stencils along one axis at a time;
                # 9-point corner values travel via the two-phase exchange
                # order: dim 0 first including ghosts, then dim 1)
                lo, hi = self.owned[g]
                d_lo, d_hi = self.dist[g]
                blo, bhi = self.array.bounds[adim]
                ranges.append((max(blo, lo - d_lo), min(bhi, hi + d_hi)))
            else:
                ranges.append(self.array.bounds[adim])
        return ranges

    def send_section(self, grid_dim: int, direction: int) -> np.ndarray:
        """Live view of the owned face layers the neighbor in *direction*
        needs (an empty array of the spec's dtype for a zero-width face)."""
        lo, hi = self.owned[grid_dim]
        d_minus, d_plus = self.dist[grid_dim]
        if direction > 0:
            width = d_minus  # neighbor's minus-side ghost width
            face = (hi - width + 1, hi)
        else:
            width = d_plus
            face = (lo, lo + width - 1)
        if width == 0:
            # dtype must follow the spec array: aggregated exchanges mix
            # float and integer status arrays, and a default-float64 empty
            # would ship a mismatched section for the integer ones
            return np.empty(0, self.array.data.dtype)
        return self.array.section(self._ranges(grid_dim, face))

    def ghost_section(self, grid_dim: int,
                      direction: int) -> np.ndarray | None:
        """Live view of the ghost layers filled from the neighbor in
        *direction*, or None when the array keeps no ghosts there."""
        lo, hi = self.owned[grid_dim]
        d_minus, d_plus = self.dist[grid_dim]
        if direction > 0:
            if d_plus == 0:
                return None
            face = (hi + 1, hi + d_plus)
        else:
            if d_minus == 0:
                return None
            face = (lo - d_minus, lo - 1)
        return self.array.section(self._ranges(grid_dim, face))


class _Face:
    """One neighbor's share of a face plan: the peer, the tag, and per
    spec the live view the transfer reads (a send face) or writes (a
    ghost face; None where that array keeps no ghosts on this side)."""

    __slots__ = ("peer", "tag", "views", "nbytes", "wire", "floats")

    def __init__(self, peer: int, tag: int,
                 views: list[np.ndarray | None],
                 floats: np.ndarray | None = None) -> None:
        self.peer = peer
        self.tag = tag
        self.views = views
        #: what the halo_pack / halo_unpack event of this face reports
        self.nbytes = sum(int(v.nbytes) for v in views if v is not None)
        #: the process executor's fixed part of this face's messages
        #: (``repro.runtime.procexec._Wire``), set at the first crossing
        self.wire = None
        #: the float64 view of the partials section that ends *views*
        #: (:class:`HaloExchanger` with reductions), else None
        self.floats = floats


def _carrying(peer: int, tag: int, views: list,
              partials: np.ndarray | None) -> _Face:
    """A face of *views*, and of the *partials* section if there is one."""
    if partials is None:
        return _Face(peer, tag, views)
    return _Face(peer, tag, views + [partials], partials.view(np.float64))


class _FacePlan:
    """Every face of one set of specs: per grid dimension a (send faces,
    ghost faces) pair in execution order, the same faces flat, and the
    ``.data`` buffer of every spec the views alias."""

    __slots__ = ("by_dim", "sends", "ghosts", "data")

    def __init__(self, by_dim: list[tuple[list[_Face], list[_Face]]],
                 data: list[np.ndarray]) -> None:
        self.by_dim = by_dim
        self.sends = [face for sends, _ghosts in by_dim for face in sends]
        self.ghosts = [face for _sends, ghosts in by_dim for face in ghosts]
        self.data = data


_INTS = (int, np.integer)


def _pack(face: _Face, values) -> None:
    """Write *values* into the partials section of send *face*: an
    integer as it is, any other number as its float64 bits."""
    words, floats = face.views[-1], face.floats
    for k, value in enumerate(values):
        if value.__class__ is not float and isinstance(value, _INTS):
            words[k] = value
        else:
            floats[k] = value


def _fold(folds, values, face: _Face, lower: bool) -> list:
    """*values* with the neighbor's partials in ghost *face* folded in
    (*lower*: the neighbor's coordinate is the lower, so its value goes
    on the left), each read back as the type of this rank's value."""
    words, bits = face.views[-1].tolist(), face.floats.tolist()
    out = []
    for k, (fold, mine) in enumerate(zip(folds, values)):
        kind = mine.__class__
        theirs = (bits[k] if kind is float
                  else kind(words[k] if isinstance(mine, _INTS) else bits[k]))
        out.append(fold(theirs, mine) if lower else fold(mine, theirs))
    return out


class _FaceTransfers:
    """A set of arrays' face transfers over a Cartesian comm: the plan is
    built on first use, every call executes it.

    Subclasses say which faces exist and under which tags
    (:meth:`_layout`) and in which order they run; the transfer of one
    face, with its copies and trace events, is the communicator's
    (:meth:`Communicator.send_face` / :meth:`Communicator.recv_face`).
    """

    #: a 1-d section every send face carries after the arrays (and every
    #: ghost face receives into a buffer of its own); None: no extra
    partials: np.ndarray | None = None

    def __init__(self, cart: CartComm, specs: list[HaloSpec]) -> None:
        self.cart = cart
        self.specs = specs
        self._plan: _FacePlan | None = None

    def _layout(self):
        """Yield ``(dim, direction, send_tag, recv_tag)`` per potential
        face in execution order; a None tag means no transfer that way."""
        raise NotImplementedError

    def _faces(self) -> _FacePlan:
        """The plan, rebuilt when any array's ``.data`` was rebound (the
        held references keep an ``id`` from being recycled)."""
        plan = self._plan
        if plan is not None:
            for spec, data in zip(self.specs, plan.data):
                if spec.array.data is not data:
                    break
            else:
                return plan
        by_dim: dict[int, tuple[list[_Face], list[_Face]]] = {}
        extra = self.partials
        for dim, direction, send_tag, recv_tag in self._layout():
            sends, ghosts = by_dim.setdefault(dim, ([], []))
            peer = self.cart.neighbor(dim, direction)
            if peer is None:
                continue
            if send_tag is not None:
                views = [s.send_section(dim, direction) for s in self.specs]
                sends.append(_carrying(peer, send_tag, views, extra))
            if recv_tag is not None:
                views = [s.ghost_section(dim, direction) for s in self.specs]
                ghosts.append(_carrying(
                    peer, recv_tag, views,
                    None if extra is None else np.empty_like(extra)))
        plan = self._plan = _FacePlan(list(by_dim.values()),
                                      [s.array.data for s in self.specs])
        return plan


class HaloExchanger(_FaceTransfers):
    """Exchanges ghost layers for a set of arrays over a Cartesian comm.

    With reduction *ops* (names in :data:`REDUCE_OPS`) the round also
    folds reductions: every face carries the rank's running values as
    one more section, ``partials`` (an integer as it is, a float as its
    float64 bits, so either crosses exactly), and each dimension's
    received values fold into them, so that after the last dimension
    every rank holds the global values.  That takes one neighbor per
    dimension (two ranks on every cut dimension): folding dimension by
    dimension is then recursive doubling from the highest rank bit
    down, the order ``allreduce`` folds in.
    """

    def __init__(self, cart: CartComm, specs: list[HaloSpec],
                 point_id: int = 0, ops=()) -> None:
        if not 0 <= point_id < MAX_HALO_POINTS:
            raise RuntimeCommError(
                f"combined sync point id {point_id} exceeds the halo tag "
                f"space (max {MAX_HALO_POINTS - 1}); tags would collide "
                f"with pipeline transfers")
        super().__init__(cart, specs)
        self.point_id = point_id
        self._folds = [REDUCE_OPS[op] for op in ops]
        if ops:
            self.partials = np.zeros(len(ops), np.int64)
        #: between begin() and finish()?
        self.in_flight = False
        self._t_begin0 = 0
        self._t_begin1 = 0

    def _layout(self):
        for dim in range(self.cart.ndims):
            for direction in (-1, 1):
                # our ghosts on side `direction` come from that neighbor's
                # send in direction `-direction`; it used its own direction
                # value in the tag.
                yield (dim, direction,
                       halo_tag(self.point_id, dim, direction),
                       halo_tag(self.point_id, dim, -direction))

    def exchange(self, values=()) -> list:
        """One aggregated exchange: one message per neighbor, all arrays.

        Dimensions are exchanged in order; each later dimension's sections
        include the ghost layers already received for earlier dimensions,
        which transports the diagonal (corner) values nine-point stencils
        need without dedicated corner messages.

        *values* are this rank's partials of the exchanger's reduction
        ops; each dimension's neighbor value folds in with the lower
        coordinate on the left, converted to the type of this rank's own
        value.  Returns the folded values.

        Tracing: besides the per-message send/recv events, each pack and
        unpack copy is recorded as a ``halo_pack`` / ``halo_unpack`` span
        and the whole exchange as an enveloping ``exchange`` span, so the
        timeline can separate halo copying from blocked waiting.
        """
        if self.in_flight:
            raise RuntimeCommError(
                f"halo exchange {self.point_id} run blocking while a "
                f"begun one is unfinished")
        comm = self.cart.comm
        record = comm.record
        tx0 = perf_counter_ns() if record is not None else 0
        acc = list(values)
        for sends, ghosts in self._faces().by_dim:
            if acc and sends:
                # every send face holds the one partials array
                _pack(sends[0], acc)
            for face in sends:
                comm.send_face(face)
            for face in ghosts:
                comm.recv_face(face)
                if acc:
                    acc = _fold(self._folds, acc, face,
                                face.peer < comm.rank)
        if record is not None:
            record("exchange", None, 0, self.point_id, 0,
                   tx0, perf_counter_ns())
        return acc

    def begin(self) -> None:
        """Start the whole aggregated exchange without completing it.

        Every face of every dimension is shipped at once.  Unlike
        :meth:`exchange`, *no* ghost layer is touched here: the incoming
        payloads stay queued in the transport until :meth:`finish`
        receives them, so the caller can keep computing on interior
        cells — and even keep *reading* the current ghost values — while
        the messages are in flight.  That queueing is the double buffer:
        frame N+1's receives cannot clobber the faces frame N's boundary
        strip still reads, because ghosts are only written in the
        matching ``finish()``.

        Corner caveat: because every dimension's faces are shipped before
        any ghost arrives, the sections shipped for later dimensions
        carry *stale* ghost values in the regions the blocking path
        would have refreshed first (the two-phase corner propagation in
        :meth:`exchange`).  Callers that need diagonal/corner ghost
        values must use the blocking path.  No generated program calls
        this pair (it always runs :meth:`exchange`); the plan's overlap
        verdict refuses such syncs for the cluster model, and the
        benchmark's exchange probes time the pair directly.
        """
        if self.in_flight:
            raise RuntimeCommError(
                f"halo exchange {self.point_id} begun twice without finish")
        comm = self.cart.comm
        timed = comm.record is not None
        self._t_begin0 = perf_counter_ns() if timed else 0
        for face in self._faces().sends:
            comm.send_face(face)
        self.in_flight = True
        self._t_begin1 = perf_counter_ns() if timed else 0

    def finish(self) -> None:
        """Complete a begun exchange: receive every ghost face.

        The window between ``begin()`` returning and ``finish()`` being
        entered is recorded as an ``overlap`` span — halo latency hidden
        behind the caller's interior compute — and the whole
        begin-to-finish extent as the usual ``exchange`` envelope, so
        frame inference and roll-ups see the same shape as the blocking
        path.
        """
        if not self.in_flight:
            raise RuntimeCommError(
                f"halo exchange {self.point_id} finished without begin")
        self.in_flight = False
        comm = self.cart.comm
        record = comm.record
        if record is not None:
            record("overlap", None, 0, self.point_id, 0,
                   self._t_begin1, perf_counter_ns())
        for face in self._faces().ghosts:
            comm.recv_face(face)
        if record is not None:
            record("exchange", None, 0, self.point_id, 0,
                   self._t_begin0, perf_counter_ns())


class PipeExchanger(_FaceTransfers):
    """Pipelined (mirror-image) sweep transfers for one self-dependent
    nest: along each pipeline dimension new values arrive from the minus
    neighbor before the sweep and the freshly computed plus-edge layers
    leave after it."""

    def __init__(self, cart: CartComm, specs: list[HaloSpec], pipe_id: int,
                 dims: tuple[int, ...]) -> None:
        super().__init__(cart, specs)
        self.pipe_id = pipe_id
        self.dims = tuple(dims)

    def _layout(self):
        for dim in self.dims:
            tag = _PIPE_TAG_BASE + self.pipe_id * 8 + dim
            yield dim, -1, None, tag
            yield dim, 1, tag, None

    def recv(self) -> None:
        """Blocking receive of pipelined new values from minus neighbors."""
        comm = self.cart.comm
        record = comm.record
        t0 = perf_counter_ns() if record is not None else 0
        for face in self._faces().ghosts:
            comm.recv_face(face)
        if record is not None:
            record("pipeline_recv", None, 0, self.pipe_id, 0,
                   t0, perf_counter_ns())

    def send(self) -> None:
        """Ship freshly computed plus-edge layers down the pipeline."""
        comm = self.cart.comm
        record = comm.record
        for face in self._faces().sends:
            if record is not None:
                # marker only: send_face records the message itself
                now = perf_counter_ns()
                record("pipeline_send", face.peer, 0, face.tag, 0,
                       now, now)
            comm.send_face(face)
