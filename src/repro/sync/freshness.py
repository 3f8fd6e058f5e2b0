"""Ghost freshness across the frame loop's back edge.

Region combining places one synchronization per group of dependent
pairs, but the pair *init loop → reader* and the loop-carried pair
*writer → reader of the next frame* get separate regions, so a Jacobi
frame ends in ``exchange(2, v)`` and the next one starts with
``exchange(1, v)`` with no write to ``v`` in between.  This pass asks,
for every member ``(sync, array)`` inside the frame loop, whether the
ghosts it would deliver are already *fresh* when it runs.

The fact is, per status array and cut grid dimension, the (minus, plus)
ghost widths that equal the neighbor's owned values, with the syncs that
delivered them.  A sync *generates* the widths of the members it sends;
any statement instance that may write the array (an assignment in or
out of a field loop, a ``READ``, a whole-array actual argument) *kills*
them; IF arms, inner loops, ``EXIT`` and ``RETURN`` meet by intersection.
The frame loop is solved twice over the inlined frame program: the
first trip from "nothing fresh" with every member sending, the later
trips from the back-edge fixpoint with only the *steady* members
sending.  A member whose widths are covered at every execution in the
second solution is **entry-only**: it travels on the first executed trip
(and the first after a checkpoint restore) and never again.  Whatever
was fresh on entry cannot change the verdict, because each member
delivers its own widths on the first trip.

Sync points, their ids and the emitted call sites do not change; only
``PlannedSync.steady`` shrinks.  Members the pass cannot vouch for are
refused with a reason and stay in ``steady``.
"""

from __future__ import annotations

from repro.analysis.frame import FrameProgram, InstanceNode
from repro.fortran import ast as A

_JUMPS = {A.Goto: "GOTO", A.ComputedGoto: "computed GOTO",
          A.CycleStmt: "CYCLE"}


def _meet(a, b):
    """Intersection of two facts ``{(array, grid dim): (minus, plus,
    delivering sync ids)}``; None is an unreachable point, its identity."""
    if a is None:
        return b
    if b is None:
        return a
    out = {}
    for key, (minus, plus, src) in a.items():
        other = b.get(key)
        if other is not None:
            out[key] = (min(minus, other[0]), min(plus, other[1]),
                        src | other[2])
    return out


def _hot_dims(dists: dict, cut) -> list[int]:
    return [g for g in cut if dists.get(g, (0, 0)) != (0, 0)]


class _Flow:
    """One walk of the instance tree; the frame loop drives the solves."""

    def __init__(self, syncs, cut, status: set[str], units: dict,
                 frame_loop: InstanceNode) -> None:
        self.cut = cut
        self.status = status
        self.units = units
        self.frame_loop = frame_loop
        #: static insertion (unit, path, mode) -> syncs emitted there; a
        #: subroutine inlined twice executes them at both instances
        self.at: dict[tuple, list] = {}
        for sync in syncs:
            self.at.setdefault(tuple(sync.insertion), []).append(sync)
        self.inside = False
        #: syncs with an execution outside the frame loop
        self.outside: set[int] = set()
        #: members whose delivery is switched off in the current solve
        self.excluded: set[tuple[int, str]] = set()
        #: sync id -> meet of the states it ran in during the current solve
        self.seen: dict[int, dict | None] = {}
        #: per open loop / inlined call, the meet of the states at its
        #: EXIT / RETURN statements
        self.exits: list = []
        self.returns: list = []
        self._summaries: dict[int, frozenset[str] | None] = {}
        self.by_id = {s.sync_id: s for s in syncs}
        #: the verdicts, filled by the frame loop
        self.entry_only: dict[tuple[int, str], frozenset[int]] = {}
        self.narrow: dict[tuple[int, str], str] = {}

    # -- transfer functions ---------------------------------------------------

    def _written(self, stmt: A.Stmt) -> set[str]:
        """Status arrays *stmt* may write (its own effect, not its body's)."""
        names: set[str] = set()
        if isinstance(stmt, A.Assign):
            names.add(getattr(stmt.target, "name", ""))
        elif isinstance(stmt, A.ReadStmt):
            for item in stmt.items:
                names.update(n.name for n in A.walk(item)
                             if isinstance(n, (A.Var, A.ArrayRef)))
        elif isinstance(stmt, A.CallStmt):
            # a whole array handed to a routine may be written under the
            # dummy's name, which the by-name walk of the body cannot see
            callee = self.units.get(stmt.name)
            dummies = callee.args if callee is not None else []
            for pos, arg in enumerate(stmt.args):
                if isinstance(arg, A.Var) and not (
                        pos < len(dummies) and dummies[pos] == arg.name):
                    names.add(arg.name)
        return names & self.status

    def _summary(self, node: InstanceNode) -> frozenset[str] | None:
        """The arrays the subtree of *node* may write, when that is all it
        does to the fact: no sync runs inside it and nothing jumps out of
        it.  None otherwise.  A field-loop nest is one kill, not a walk."""
        try:
            return self._summaries[id(node)]
        except KeyError:
            pass
        names: set[str] | None = set()
        if isinstance(node.stmt, (A.ExitStmt, A.ReturnStmt, A.StopStmt)) \
                or any((node.unit_name, node.path, mode) in self.at
                       for mode in ("append_body", "append_arm")):
            names = None
        elif node.kind in ("stmt", "call"):
            names = self._written(node.stmt)
        for child in node.children:
            sub = self._summary(child)  # always taken: fills the cache
            if sub is None or any(
                    (child.unit_name, child.path, mode) in self.at
                    for mode in ("before", "after")):
                names = None
            elif names is not None:
                names |= sub
        out = self._summaries[id(node)] = \
            None if names is None else frozenset(names)
        return out

    def _syncs(self, node: InstanceNode, mode: str, state):
        """Run the syncs emitted at (*node*, *mode*) in *state*."""
        for sync in self.at.get((node.unit_name, node.path, mode), ()):
            sid = sync.sync_id
            if not self.inside:
                self.outside.add(sid)
            if state is None:
                continue
            self.seen[sid] = _meet(self.seen.get(sid), state)
            state = dict(state)
            for name, dists in sync.arrays:
                if (sid, name) in self.excluded:
                    continue
                for g in _hot_dims(dists, self.cut):
                    minus, plus = dists[g]
                    old = state.get((name, g))
                    src = frozenset((sid,))
                    if old is not None and (old[0] > minus or old[1] > plus):
                        minus, plus = max(minus, old[0]), max(plus, old[1])
                        src |= old[2]
                    state[(name, g)] = (minus, plus, src)
        return state

    def _body(self, nodes: list[InstanceNode], state):
        for node in nodes:
            state = self._node(node, state)
        return state

    def _node(self, node: InstanceNode, state):
        state = self._syncs(node, "before", state)
        stmt = node.stmt
        written = self._summary(node)
        if written is not None:
            if written and state:
                state = {k: v for k, v in state.items()
                         if k[0] not in written}
        elif node.kind == "stmt":  # a jump: its state joins the target's
            if isinstance(stmt, A.ExitStmt) and self.exits:
                self.exits[-1] = _meet(self.exits[-1], state)
            elif isinstance(stmt, A.ReturnStmt) and self.returns:
                self.returns[-1] = _meet(self.returns[-1], state)
            state = None
        elif node.kind == "call":
            self.returns.append(None)
            if state:
                doomed = self._written(stmt)
                state = {k: v for k, v in state.items()
                         if k[0] not in doomed}
            state = _meet(self._body(node.children, state),
                          self.returns.pop())
        elif node.kind == "if":
            has_else = isinstance(stmt, A.IfBlock) \
                and stmt.arms[-1][0] is None
            out = None if has_else else state
            for arm in node.children:
                out = _meet(out, self._syncs(
                    arm, "append_arm", self._body(arm.children, state)))
            state = out
        elif node is self.frame_loop:
            state = self._solve_frame_loop(node)
        elif node.kind == "loop":
            state = self._loop(node, state)
        return self._syncs(node, "after", state)

    def run(self, root: InstanceNode) -> None:
        state = self._syncs(root, "prepend", {})
        self._syncs(root, "append", self._body(root.children, state))

    def _trip(self, loop: InstanceNode, head):
        return self._syncs(loop, "append_body",
                           self._body(loop.children, head))

    def _loop(self, loop: InstanceNode, state):
        """Zero or more trips: the state after is the meet of the state
        before, the fixpoint after a trip, and every EXIT."""
        self.exits.append(None)
        while True:
            new = _meet(state, self._trip(loop, state))
            if new == state:
                break
            state = new
        return _meet(state, self.exits.pop())

    # -- the frame loop ----------------------------------------------------------

    def _solve_frame_loop(self, loop: InstanceNode):
        self.inside = True
        self.exits.append(None)
        # first trip: nothing assumed fresh, every member delivers
        after_first = self._trip(loop, {})
        demoted: set | None = None
        while True:
            # later trips: demoted members deliver nothing; a demotion
            # that does not survive without the others' is taken back
            self.excluded = demoted or set()
            self.seen = {}
            self.entry_only, self.narrow = {}, {}
            head = after_first
            while True:
                new = _meet(head, self._trip(loop, head))
                if new == head:
                    break
                head = new
            self._classify()
            kept = set(self.entry_only) if demoted is None \
                else demoted & set(self.entry_only)
            if kept == demoted:
                break
            demoted = kept
        self.exits.pop()
        self.inside = False
        return {}

    def _classify(self) -> None:
        """Which in-loop members does the back-edge solution cover?"""
        for sid, state in self.seen.items():
            if state is None:
                continue
            for name, dists in self.by_id[sid].arrays:
                hot = _hot_dims(dists, self.cut)
                if len(hot) != 1:
                    continue
                fresh = state.get((name, hot[0]))
                if fresh is None:
                    continue
                need = dists[hot[0]]
                if fresh[0] >= need[0] and fresh[1] >= need[1]:
                    self.entry_only[(sid, name)] = fresh[2]
                else:
                    via = ", ".join(str(s) for s in sorted(fresh[2]))
                    self.narrow[(sid, name)] = (
                        f"sync {via} leaves only widths {fresh[:2]} fresh "
                        f"on grid dimension {hot[0] + 1}, {tuple(need)} "
                        f"needed")


def _frame_loop_refusal(frame: FrameProgram, loop: InstanceNode | None
                        ) -> str | None:
    """Why no member of this program may be demoted, else None."""
    if loop is None:
        return "the program has no frame loop"
    twins = [n for n in frame.nodes if n.location == loop.location]
    if len(twins) > 1 or loop.enclosing_loops():
        return ("the frame loop runs more than once (nested in a loop or "
                "inlined at several call sites)")
    for node in frame.nodes:
        if node.kind == "stmt" and loop.open < node.open < loop.close:
            jump = _JUMPS.get(type(node.stmt))
            if jump is not None:
                return (f"the frame loop's body holds a {jump} "
                        f"(line {node.stmt.line})")
    return None


def analyze_freshness(frame: FrameProgram, syncs, cut_dims,
                      frame_loop: InstanceNode | None, cu) -> None:
    """Fill ``steady``, ``entry_only`` and ``refusals`` of every sync
    (fresh from the planner: all members steady, nothing decided).

    Args:
        frame: the inlined frame program the syncs were placed on.
        syncs: the plan's :class:`~repro.codegen.plan.PlannedSync` list.
        cut_dims: grid dimensions the partition cuts.
        frame_loop: the frame loop's instance node, or None.
        cu: the compilation unit (dummy-argument names of callees).
    """
    cut = sorted(cut_dims)
    if not syncs:
        return
    everywhere = _frame_loop_refusal(frame, frame_loop)
    flow = None
    if everywhere is None:
        flow = _Flow(syncs, cut, set(frame.directives.status_arrays),
                     {u.name: u for u in cu.units}, frame_loop)
        flow.run(frame.root)
    for sync in syncs:
        sid = sync.sync_id
        for name, dists in sync.arrays:
            if everywhere is not None:
                sync.refusals[name] = everywhere
            elif sid in flow.outside or sid not in flow.seen:
                sync.refusals[name] = "the sync runs outside the frame loop"
            elif len(_hot_dims(dists, cut)) > 1:
                sync.refusals[name] = (
                    "ghost width on two or more cut dimensions (corners "
                    "travel only through the blocking exchange's "
                    "dimension order)")
            elif (sid, name) in flow.entry_only:
                sync.entry_only[name] = sorted(flow.entry_only[(sid, name)])
            elif (sid, name) in flow.narrow:
                sync.refusals[name] = flow.narrow[(sid, name)]
        if sync.entry_only:
            sync.steady = [m for m in sync.arrays
                           if m[0] not in sync.entry_only]
