"""Branch-structure rules for synchronization regions (§5.2, Fig. 7).

Three rules shape a region around control flow:

1. a ``goto`` inside the region ends it just before the ``goto`` (before
   the IF statement, when the ``goto`` is conditional);
2. an IF/ELSE block inside the region ends it just before the block when
   the block contains an R-type loop of the dependent array; otherwise
   the block is merely excluded from placement (handled by the interior
   exclusions of the frame-program slot model);
3. a starting point inside an IF arm may move out when the *same arm*
   holds no further R-type loop — Fig. 7(e)'s insight that an R-loop in
   the *other* arm cannot execute together with the A-loop, so it does
   not pin the region.

Rule 3 lives in :mod:`repro.sync.regions` (it is a hoisting rule); this
module implements the forward truncation of rules 1-2, and the
counterpart of rule 1 for the jumps that stay structured: an ``exit`` or
``cycle`` inside a region that reaches the end of the loop it jumps in
skips every slot from its IF to that end, so those slots are no
placement for the pair (:func:`jump_gaps`): an ``exit`` that leaves the
loop for a reader past it, or a ``cycle`` taken on a trip after the
write, would bypass the sync.
"""

from __future__ import annotations

from repro.analysis.frame import FrameProgram, InstanceNode
from repro.fortran import ast as A
from repro.sync.interproc import subtree_has_rtype


def _goto_nodes(frame: FrameProgram, start: int, end: int):
    for node in frame.jumps:
        if isinstance(node.stmt, (A.Goto, A.ComputedGoto)) \
                and start <= node.open <= end:
            yield node


def _if_nodes(frame: FrameProgram, start: int, end: int):
    # any IF block that *begins* inside the region counts: if it holds an
    # R-type loop the region must close before the block, even when the
    # block extends past the region's nominal end (reader inside an arm)
    for node in frame.nodes:
        if node.kind == "if" and start <= node.open <= end:
            yield node


def _outermost_if(node: InstanceNode, start: int) -> InstanceNode:
    """*node*, or the outermost IF (or arm) around it that opens at or
    after *start*."""
    for anc in node.ancestors():
        if anc.kind not in ("if", "arm") or anc.open < start:
            break
        node = anc
    return node


def jump_gaps(frame: FrameProgram, start: int,
              end: int) -> list[tuple[int, int]]:
    """Per ``exit`` in ``[start, end]`` of a loop that closes before
    *end*, and per ``cycle`` there of one that closes at or before it:
    the slots ``(open, close]`` it jumps over, from its IF to the loop's
    end.  (A region that ends at the loop's end serves the loop's next
    trip, which an ``exit`` never takes.)"""
    gaps = []
    for node in frame.jumps:
        if (isinstance(node.stmt, (A.ExitStmt, A.CycleStmt))
                and start <= node.open <= end):
            loops = node.enclosing_loops()
            if loops and (loops[0].close < end
                          or (loops[0].close == end
                              and isinstance(node.stmt, A.CycleStmt))):
                gaps.append((_outermost_if(node, start).open,
                             loops[0].close))
    return gaps


def truncate_for_branches(frame: FrameProgram, start: int, end: int,
                          array: str) -> int:
    """Apply rules 1-2: return the truncated region end."""
    new_end = end
    for node in _goto_nodes(frame, start, new_end):
        # ``if (c) goto 10``: a sync just before the goto would sit in
        # the IF's arm and run only when the jump is taken, so the
        # region closes before the outermost IF that opens inside it
        node = _outermost_if(node, start)
        if node.open < new_end:
            new_end = node.open
    for node in _if_nodes(frame, start, new_end):
        if subtree_has_rtype(node, array) and node.open < new_end:
            new_end = node.open
    return new_end
