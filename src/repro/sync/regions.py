"""Upper-bound synchronization region generation (§5.1.1, Fig. 5).

For a dependent pair ``L^A → L^R`` the legal region spans from right after
``L^A`` to right before ``L^R``.  The *upper-bound* region additionally:

* hoists the starting point outward through enclosing loops that contain
  no R-type loop of the dependent array (Fig. 5 — a loop iterates, so any
  reader inside it pins the region);
* hoists through IF arms that contain no further R-type loop in the same
  arm (Fig. 7 d-e) and through subroutine-call instances with no reader
  left after the start (§5.3 — the frame program is inlined, so caller
  hoisting is just another container kind);
* for loop-carried pairs (reader textually at or before the writer inside
  a common loop — Fig. 5(b) case 2) the region runs to the end of the
  carrier loop's body, synchronizing once per carried iteration;
* truncates at ``goto`` statements and reader-containing IF blocks, and
  leaves out the slots an ``exit`` or ``cycle`` jumps over on the way to
  the reader (:mod:`repro.sync.branches`);
* excludes the interiors of all nested structures from *placement*
  (unrelated loops and IF blocks: a sync point placed inside them would
  execute redundantly) — the slot model's interior exclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dependency import DependencePair
from repro.analysis.frame import FrameProgram, InstanceNode
from repro.errors import AnalysisError
from repro.fortran import ast as A
from repro.sync.branches import jump_gaps, truncate_for_branches
from repro.sync.interproc import subtree_has_rtype, subtree_has_rtype_after


@dataclass
class SyncRegion:
    """The upper-bound synchronization region of one dependent pair."""

    pair: DependencePair
    start: int  # first legal placement slot
    end: int    # last legal placement slot (inclusive)
    allowed: list[int] = field(default_factory=list)

    @property
    def array(self) -> str:
        return self.pair.array

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SyncRegion({self.array}, [{self.start}, {self.end}], "
                f"{len(self.allowed)} slots)")


def _hoist_start(frame: FrameProgram, pair: DependencePair) -> int:
    """Move the starting point outward as far as legality allows.

    Returns the starting slot (right after the node we end up behind).
    """
    node: InstanceNode = pair.writer
    limit = pair.carrier  # carried pairs must stay inside the carrier
    while True:
        parent = node.parent
        if parent is None or parent.kind == "root":
            break
        if limit is not None and parent is limit:
            break
        if parent.kind == "loop":
            # Fig. 5: a loop iterates — any reader inside it, before or
            # after the A-loop, pins the region inside.
            if subtree_has_rtype(parent, pair.array):
                break
            node = parent
            continue
        if parent.kind == "arm":
            # Fig. 7(d-e): readers in *other* arms cannot co-execute with
            # this arm; only a reader later in the same arm pins us.
            if subtree_has_rtype_after(parent, node.close + 1, pair.array):
                break
            # hop over the whole IF node
            if_node = parent.parent
            if if_node is None or if_node.kind != "if":
                raise AnalysisError("arm instance without IF parent")
            node = if_node
            continue
        if parent.kind == "if":
            node = parent
            continue
        if parent.kind == "call":
            # §5.3: a region at the end of a subroutine body moves out to
            # the caller unless a reader remains after it in this call.
            if subtree_has_rtype_after(parent, node.close + 1, pair.array):
                break
            node = parent
            continue
        break
    return node.close + 1


def upper_bound_region(frame: FrameProgram,
                       pair: DependencePair) -> SyncRegion:
    """Build the upper-bound synchronization region for one pair."""
    start = _hoist_start(frame, pair)
    if pair.kind == "forward":
        end = pair.reader.open
    else:
        carrier = pair.carrier
        if carrier is None:
            raise AnalysisError(f"carried pair without carrier: {pair}")
        end = carrier.close
    if end < start:
        # Degenerate (writer immediately precedes the loop end): the only
        # legal point is right after the writer.
        start = pair.writer.close + 1
        end = max(end, start)
    end = truncate_for_branches(frame, start, end, pair.array)
    if end < start:
        # Truncation (e.g. a goto right after the writer) can close the
        # window entirely; fall back to the always-legal point just after
        # the writer loop.
        start = pair.writer.close + 1
        end = start
    gaps = jump_gaps(frame, start, end)
    allowed = [p for p in frame.allowed_slots(start, end)
               if not any(lo < p <= hi for lo, hi in gaps)]
    if not allowed:
        # Interior exclusions removed everything (start lies inside a
        # structure whose interior is banned for *other* regions but is
        # fine for this pair): the point right after the writer is legal.
        allowed = [pair.writer.close + 1]
        start = end = allowed[0]
    return SyncRegion(pair=pair, start=start, end=end, allowed=allowed)


#: statements a reduction's global value may not be formed behind: a
#: path through them leaves the stretch without passing the point
_JUMPS = (A.Goto, A.ComputedGoto, A.ExitStmt, A.CycleStmt, A.ReturnStmt,
          A.StopStmt)


def _own_exprs(node: InstanceNode) -> list:
    """What *node* itself evaluates, apart from its children."""
    stmt = node.stmt
    if node.kind == "stmt" or node.kind == "call":
        return [stmt]
    if node.kind == "if":
        if isinstance(stmt, A.LogicalIf):
            return [stmt.cond]
        return [cond for cond, _body in stmt.arms if cond is not None]
    if node.kind == "loop":
        if isinstance(stmt, A.DoWhile):
            return [stmt.cond]
        return [e for e in (stmt.start, stmt.stop, stmt.step) if e is not None]
    return []


def reduction_region(frame: FrameProgram, loop: InstanceNode, touches,
                     leaves_calls: bool) -> list[int]:
    """The slots where a scalar reduced in field loop *loop* can take its
    global value: from right after the loop to the first statement that
    *touches* the scalar (``touches(node, exprs)``, *exprs* what the node
    itself evaluates), a jump or a labeled statement.  The stretch stays
    inside the loop or IF arm around *loop*: a reduction formed outside a
    loop would fold one partial per trip, and one formed outside an arm
    would run on the paths that never reduced.  It leaves a subroutine
    for its caller only when *leaves_calls* (the scalar lives on after
    the call).  Slots inside a structure of the stretch are left out, as
    for every region."""
    container = loop.parent
    while leaves_calls and container.kind == "call":
        container = container.parent
    end = container.close
    for node in frame.nodes:  # in slot order
        if node.open <= loop.close:
            continue
        if node.open > end:
            break
        stmt = node.stmt
        if ((node.kind == "stmt" and isinstance(stmt, _JUMPS))
                or (stmt is not None and stmt.label is not None
                    and node.kind != "arm")
                or touches(node, _own_exprs(node))):
            top = node
            while top.parent is not None and top.parent.open > loop.close:
                top = top.parent
            end = min(end, top.open)
            break
    return frame.allowed_slots(loop.close + 1, end)
