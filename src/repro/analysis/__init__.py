"""Program analysis: field loops, dependencies, self-dependence.

This package implements §2 and §4 of the paper:

* :mod:`repro.analysis.loops` — loop-nest structure and the paper's
  Definitions 6.1-6.4 (inner/outer, direct inner/outer, adjacent, simple);
* :mod:`repro.analysis.stencil` — subscript pattern analysis (affine
  offsets, dependency distances, irregular accesses);
* :mod:`repro.analysis.field_loops` — A/R/C/O field-loop classification
  (Figure 1);
* :mod:`repro.analysis.frame` — the inlined *frame program*: one
  linearized instance tree of the whole computation with subroutine calls
  expanded, giving every loop instance a program position (the
  "analysis after partitioning" coordinate system);
* :mod:`repro.analysis.dependency` — the S_LDP dependent-loop-pair set
  (§4.2, cases 1-5);
* :mod:`repro.analysis.selfdep` — self-dependent loop detection and
  mirror-image decomposition (Figures 3-4);
* :mod:`repro.analysis.reductions` — convergence-reduction recognition;
* :mod:`repro.analysis.callgraph` — call graph, R-type-loop presence per
  subroutine (§5.3);
* :mod:`repro.analysis.overlap` — the per-sync halo-overlap verdict
  ``build_plan`` records on the plan.
"""

from repro.analysis.loops import LoopInfo, LoopForest, build_loop_forest
from repro.analysis.stencil import (
    AccessPattern,
    SubscriptKind,
    analyze_subscript,
    array_access_patterns,
)
from repro.analysis.field_loops import (
    FieldLoop,
    LoopRole,
    classify_unit,
)
from repro.analysis.frame import FrameProgram, InstanceNode, build_frame_program
from repro.analysis.dependency import DependencePair, build_sldp
from repro.analysis.selfdep import (
    MirrorDecomposition,
    SelfDepClass,
    analyze_self_dependence,
)
from repro.analysis.reductions import Reduction, find_reductions
from repro.analysis.callgraph import CallGraph, build_call_graph

__all__ = [
    "LoopInfo", "LoopForest", "build_loop_forest",
    "AccessPattern", "SubscriptKind", "analyze_subscript",
    "array_access_patterns",
    "FieldLoop", "LoopRole", "classify_unit",
    "FrameProgram", "InstanceNode", "build_frame_program",
    "DependencePair", "build_sldp",
    "MirrorDecomposition", "SelfDepClass", "analyze_self_dependence",
    "Reduction", "find_reductions",
    "CallGraph", "build_call_graph",
]
