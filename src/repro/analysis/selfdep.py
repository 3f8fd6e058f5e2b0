"""Self-dependent field loops and mirror-image decomposition (§4.2, Fig. 3-4).

A *self-dependent* field loop both assigns and references the same status
array with non-zero offsets — a C-type loop whose dependence graph has
edges inside itself.  Three classes arise:

* **wavefront** (Fig. 3a): all dependences respect the lexicographic
  iteration order (every read offset vector is lexicographically
  negative) — parallelizable by wavefront / loop skewing; across a block
  partition this becomes a forward pipeline.
* **mirror** (Fig. 3b): dependences exist in *both* orientations (e.g.
  classic Gauss-Seidel reading ``v(i-1,j)`` new and ``v(i+1,j)`` old).
  Traditional methods fail; Auto-CFD's *mirror-image decomposition*
  splits the dependence graph by access direction into a *backward*
  subgraph (reads of already-updated elements → pipelined new values
  from the minus-side neighbor) and a *forward* subgraph (reads of
  not-yet-updated elements → old values pre-exchanged from the plus-side
  neighbor), then pipelines the backward subgraph.  Executing the sweep
  rank-by-rank in partition order with those two data sources reproduces
  the sequential semantics exactly.
* **serial**: irregular self-dependence (indirect subscripts) — not
  parallelizable; the loop is replicated with owner-guarded writes.

:class:`MirrorDecomposition` materializes the decomposition as two edge
sets over a small sample of the dependence graph so the Figure-4 unit
tests can inspect it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.field_loops import ArrayUse, FieldLoop


class SelfDepClass(str, Enum):
    NONE = "none"            # not self-dependent
    WAVEFRONT = "wavefront"  # Fig. 3a: one orientation only
    MIRROR = "mirror"        # Fig. 3b: both orientations
    SERIAL = "serial"        # irregular; cannot decompose


@dataclass(frozen=True)
class DependenceEdge:
    """One dependence-graph edge between grid points (offset vector)."""

    offset: tuple[int, ...]

    @property
    def lexicographic_sign(self) -> int:
        """+1 if the offset vector is lexicographically positive."""
        for c in self.offset:
            if c > 0:
                return 1
            if c < 0:
                return -1
        return 0


@dataclass
class MirrorDecomposition:
    """The split of a self-dependent loop's reads by access direction."""

    array: str
    #: reads of already-updated elements (lexicographically earlier):
    #: served by pipelined new values
    backward: list[tuple[int, ...]] = field(default_factory=list)
    #: reads of not-yet-updated elements: served by pre-exchanged old
    #: values
    forward: list[tuple[int, ...]] = field(default_factory=list)
    #: grid dims that need a pipeline (some backward offset is non-zero)
    pipeline_dims: list[int] = field(default_factory=list)
    #: grid dims that need an old-value halo on the plus side
    halo_dims: list[int] = field(default_factory=list)

    def subgraph_edges(self, extent: tuple[int, ...],
                       orientation: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Materialize one decomposed subgraph over a small grid (Fig. 4).

        Returns dependence edges (source point -> dependent point) for the
        requested orientation over the full ``extent`` box, suitable for
        plotting or structural assertions.
        """
        offsets = self.backward if orientation == "backward" else self.forward
        edges = []
        points = _box(extent)
        inside = set(points)
        for p in points:
            for off in offsets:
                q = tuple(a + b for a, b in zip(p, off))
                if q in inside:
                    edges.append((q, p))  # value at q feeds update of p
        return edges


def _box(extent: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = [()]
    for n in extent:
        out = [p + (i,) for p in out for i in range(n)]
    return out


@dataclass
class SelfDepPlan:
    """Parallelization decision for one self-dependent field loop."""

    field_loop: FieldLoop
    array: str
    klass: SelfDepClass
    decomposition: MirrorDecomposition | None = None


def _offset_vectors(use: ArrayUse, ndims: int) -> list[tuple[int, ...]]:
    """Enumerate read offset vectors over grid dims.

    Star vectors are built from the aggregated per-dimension offsets (one
    non-zero component at a time), which matches the five/nine-point star
    stencils of the paper's computation model; a diagonal read like
    ``v(i-1, j-1)`` yields the two star components, whose lexicographic
    signs classify identically.
    """
    vectors: set[tuple[int, ...]] = set()
    for g, offsets in use.read_offsets.items():
        for off in offsets:
            if off != 0:
                vec = [0] * ndims
                vec[g] = off
                vectors.add(tuple(vec))
    if not vectors and use.reads:
        vectors.add(tuple([0] * ndims))
    return sorted(vectors)


def analyze_self_dependence(fl: FieldLoop, ndims: int) -> list[SelfDepPlan]:
    """Classify every self-dependent array of a field loop.

    Args:
        fl: a classified field loop.
        ndims: flow-field rank.

    Returns one plan per C-type array with non-trivial self-dependence.
    """
    plans: list[SelfDepPlan] = []
    for array, use in sorted(fl.uses.items()):
        if not (use.writes and use.reads):
            continue
        if use.irregular:
            plans.append(SelfDepPlan(fl, array, SelfDepClass.SERIAL))
            continue
        vectors = [v for v in _offset_vectors(use, ndims)
                   if any(c != 0 for c in v)]
        if not vectors:
            continue  # reads only at offset 0: updates in place, no deps
        signs = {DependenceEdge(v).lexicographic_sign for v in vectors}
        backward = [v for v in vectors
                    if DependenceEdge(v).lexicographic_sign < 0]
        forward = [v for v in vectors
                   if DependenceEdge(v).lexicographic_sign > 0]
        decomposition = MirrorDecomposition(
            array=array,
            backward=backward,
            forward=forward,
            pipeline_dims=sorted({g for v in backward
                                  for g, c in enumerate(v) if c != 0}),
            halo_dims=sorted({g for v in forward
                              for g, c in enumerate(v) if c != 0}),
        )
        if signs <= {-1}:
            klass = SelfDepClass.WAVEFRONT
        elif signs <= {1}:
            # reads strictly ahead of the sweep: an anti-dependence-only
            # loop (Jacobi-in-place reading old forward values); the
            # mirror machinery handles it with an empty pipeline
            klass = SelfDepClass.WAVEFRONT
        else:
            klass = SelfDepClass.MIRROR
        plans.append(SelfDepPlan(fl, array, klass, decomposition))
    return plans
