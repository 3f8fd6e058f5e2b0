"""Exception hierarchy for the Auto-CFD reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at the pipeline boundary.  Front-end errors carry
source coordinates (file, line, column) so that diagnostics point back at the
offending Fortran statement.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SourceError(ReproError):
    """An error tied to a location in a Fortran source file."""

    def __init__(self, message: str, *, filename: str = "<input>",
                 line: int = 0, column: int = 0) -> None:
        self.filename = filename
        self.line = line
        self.column = column
        super().__init__(f"{filename}:{line}:{column}: {message}")

    @property
    def bare_message(self) -> str:
        """The message without the location prefix."""
        text = str(self)
        return text.split(": ", 1)[1] if ": " in text else text


class LexError(SourceError):
    """Raised when the lexer cannot tokenize a logical line."""


class ParseError(SourceError):
    """Raised when the parser cannot build a statement or program unit."""


class SemanticError(SourceError):
    """Raised during symbol resolution and type checking."""


class DirectiveError(SourceError):
    """Raised for malformed or inconsistent ``c$acfd`` directives."""


class AnalysisError(ReproError):
    """Raised when dependency / field-loop analysis cannot proceed."""


class PartitionError(ReproError):
    """Raised for invalid grid partitions (bad shape, zero-size subgrid...)."""


class CodegenError(ReproError):
    """Raised when the restructuring phase cannot transform a program."""


class RuntimeCommError(ReproError):
    """Raised by the in-process message-passing runtime (bad rank, mismatched
    collective participation, deadlock watchdog trips...)."""


class RuntimeDeadlockError(RuntimeCommError):
    """Raised when the deadlock detector proves no rank can make progress;
    the message carries the wait-for cycle and a full blocked-rank snapshot."""


class InjectedFaultError(ReproError):
    """Raised when a :mod:`repro.faults` plan crashes a rank on purpose.

    Deliberately *not* a :class:`RuntimeCommError`: the launcher's
    root-cause priority must attribute the failure to the injected crash,
    not to the communication cascade it triggers."""


class CheckpointError(ReproError):
    """Raised by the frame-boundary checkpoint store (missing or
    unreadable snapshot, no common restart frame across ranks...)."""


class InterpError(ReproError):
    """Raised by the Fortran interpreter / Python backend at execution time."""


class SimulationError(ReproError):
    """Raised by the cluster simulator."""
