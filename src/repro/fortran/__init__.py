"""Fortran front end: lexer, parser, AST, printer, symbols, directives.

This package implements a from-scratch front end for the Fortran 77/90
subset used by structured CFD programs — the input language of the Auto-CFD
pre-compiler.  Both fixed-form (F77 column rules) and free-form layouts are
accepted.

Typical use::

    from repro.fortran import parse_source
    unit = parse_source(src_text)

`parse_source` returns a :class:`repro.fortran.ast.CompilationUnit` holding
one or more program units (PROGRAM / SUBROUTINE / FUNCTION) with resolved
symbol tables and any ``$acfd`` directives attached.
"""

from repro.fortran.ast import (
    CompilationUnit,
    ProgramUnit,
    walk,
    walk_statements,
)
from repro.fortran.parser import parse_source
from repro.fortran.printer import print_unit, print_compilation_unit
from repro.fortran.directives import AcfdDirectives

__all__ = [
    "CompilationUnit",
    "ProgramUnit",
    "AcfdDirectives",
    "parse_source",
    "print_unit",
    "print_compilation_unit",
    "walk",
    "walk_statements",
]
