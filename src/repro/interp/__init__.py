"""Execution of Fortran programs: reference interpreter and fast backend.

Two executors share identical semantics:

* :class:`repro.interp.interpreter.Interpreter` — a tree-walking reference
  interpreter, used by the test suite as ground truth;
* :mod:`repro.interp.pyback` — a translator from the AST to Python source
  (plain loops over :class:`repro.interp.values.OffsetArray` buffers),
  roughly an order of magnitude faster, used to run the CFD workloads and
  the generated SPMD programs.

Cross-checking the two executors on random kernels is part of the property
test suite.
"""

from repro.interp.values import OffsetArray
from repro.interp.interpreter import Interpreter
from repro.interp.pyback import compile_unit, run_compiled

__all__ = [
    "OffsetArray",
    "Interpreter",
    "compile_unit",
    "run_compiled",
]
