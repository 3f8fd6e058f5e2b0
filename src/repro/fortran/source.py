"""Assembly of physical Fortran source lines into logical statements.

Fortran is line-oriented: one statement per *logical line*, where a logical
line is a physical line plus any continuation lines.  This module handles
both layouts:

* **fixed form** (classic F77): columns 1-5 hold an optional numeric label,
  column 6 non-blank/non-zero marks a continuation, columns 7-72 hold the
  statement text, ``c``/``C``/``*`` in column 1 marks a comment.
* **free form** (F90 style): a trailing ``&`` continues the statement,
  ``!`` starts a comment, an optional leading integer is the label.

Auto-CFD directives (``c$acfd ...`` in fixed form, ``!$acfd ...`` in free
form) are structurally comments but are surfaced as special logical lines so
the directive parser can see them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import LexError

#: Sentinels recognised as the directive prefix (case-insensitive).
DIRECTIVE_PREFIXES = ("$acfd",)

_FIXED_COMMENT = ("c", "C", "*", "!")
_LABEL_RE = re.compile(r"^\s*(\d{1,5})\s+")


@dataclass
class LogicalLine:
    """One assembled Fortran statement.

    Attributes:
        text: statement text with continuations joined, comments stripped.
        line: 1-based physical line number of the first physical line.
        label: numeric statement label, or ``None``.
        is_directive: True for ``$acfd`` directive lines.
    """

    text: str
    line: int
    label: int | None = None
    is_directive: bool = False


@dataclass
class SourceFile:
    """A Fortran source file split into logical lines."""

    filename: str
    lines: list[LogicalLine] = field(default_factory=list)


def _strip_quoted_comment(text: str) -> str:
    """Remove a trailing ``!`` comment, respecting quoted strings."""
    if "!" not in text:
        return text
    out = []
    in_quote: str | None = None
    i = 0
    while i < len(text):
        ch = text[i]
        if in_quote:
            out.append(ch)
            if ch == in_quote:
                # Doubled quote inside a string is an escaped quote.
                if i + 1 < len(text) and text[i + 1] == in_quote:
                    out.append(text[i + 1])
                    i += 2
                    continue
                in_quote = None
            i += 1
            continue
        if ch in ("'", '"'):
            in_quote = ch
            out.append(ch)
        elif ch == "!":
            break
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def detect_form(text: str) -> str:
    """Heuristically detect ``"fixed"`` vs ``"free"`` source form.

    Free-form markers: any line with a trailing ``&``, statements starting
    before column 7, or ``!$acfd`` directives.  Fixed-form markers: comment
    characters in column 1 or continuation characters in column 6.  The
    heuristic strongly favours free form, which is what this repo's
    workload generators emit.
    """
    for raw in text.splitlines():
        if not raw.strip():
            continue
        stripped = raw.rstrip()
        if stripped.endswith("&"):
            return "free"
        if raw[:1] in _FIXED_COMMENT and not raw.lstrip().startswith("!"):
            # 'c' in column 1 only means comment in fixed form; but a free
            # form line could legitimately start with an identifier such as
            # 'call'.  Treat 'c$acfd' and 'c ' as fixed markers.
            lower = raw.lower()
            if lower.startswith("c$") or lower.startswith("c ") or raw[0] == "*":
                return "fixed"
        body = raw.expandtabs()
        if len(body) > 6 and body[5] not in (" ", "0") and body[:5].strip().isdigit():
            return "fixed"
        # First significant line that begins with a keyword before column 7
        # suggests free form.
        if raw[:1] not in _FIXED_COMMENT and raw.lstrip() == raw.rstrip() and raw[:6].strip():
            if not raw[:5].strip().isdigit():
                return "free"
    return "free"


def split_free_form(text: str, filename: str = "<input>") -> SourceFile:
    """Assemble free-form source into logical lines."""
    src = SourceFile(filename)
    pending: list[str] = []
    pending_line = 0
    pending_label: int | None = None

    def flush() -> None:
        nonlocal pending, pending_label
        if pending:
            joined = " ".join(p.strip() for p in pending).strip()
            if joined:
                src.lines.append(LogicalLine(joined, pending_line, pending_label))
            pending = []
            pending_label = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        low = stripped.lower()
        if low.startswith("!"):
            for prefix in DIRECTIVE_PREFIXES:
                if low.startswith("!" + prefix):
                    flush()
                    src.lines.append(LogicalLine(
                        stripped[1 + len(prefix):].strip(), lineno,
                        is_directive=True))
                    break
            continue
        body = _strip_quoted_comment(stripped).rstrip()
        if not body:
            continue
        continued = body.endswith("&")
        if continued:
            body = body[:-1].rstrip()
        if pending:
            if body.startswith("&"):
                body = body[1:].lstrip()
            pending.append(body)
        else:
            label = None
            m = _LABEL_RE.match(body)
            if m:
                label = int(m.group(1))
                body = body[m.end():]
            pending = [body]
            pending_line = lineno
            pending_label = label
        if not continued:
            flush()
    if pending:
        raise LexError("source ends inside a continued statement",
                       filename=filename, line=pending_line)
    return src


def split_fixed_form(text: str, filename: str = "<input>") -> SourceFile:
    """Assemble fixed-form (F77 column-rule) source into logical lines."""
    src = SourceFile(filename)
    pending: list[str] = []
    pending_line = 0
    pending_label: int | None = None

    def flush() -> None:
        nonlocal pending, pending_label
        if pending:
            joined = " ".join(p.strip() for p in pending).strip()
            if joined:
                src.lines.append(LogicalLine(joined, pending_line, pending_label))
            pending = []
            pending_label = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw[:1] in _FIXED_COMMENT:
            low = raw.lower()
            for prefix in DIRECTIVE_PREFIXES:
                if low.startswith(raw[0].lower() + prefix):
                    flush()
                    src.lines.append(LogicalLine(
                        raw[1 + len(prefix):].strip(), lineno,
                        is_directive=True))
                    break
            continue
        line = raw.expandtabs().rstrip()
        line = line[:72]
        label_field = line[:5]
        cont_field = line[5:6]
        stmt_field = _strip_quoted_comment(line[6:])
        if cont_field.strip() and cont_field != "0":
            if not pending:
                raise LexError("continuation line without initial line",
                               filename=filename, line=lineno)
            pending.append(stmt_field)
            continue
        flush()
        label = int(label_field) if label_field.strip() else None
        if not stmt_field.strip() and label is None:
            continue
        pending = [stmt_field]
        pending_line = lineno
        pending_label = label
    flush()
    return src


def split_source(text: str, filename: str = "<input>",
                 form: str | None = None) -> SourceFile:
    """Split Fortran source text into logical lines.

    Args:
        text: full source text.
        filename: used in diagnostics.
        form: ``"fixed"``, ``"free"``, or ``None`` to auto-detect.
    """
    if form is None:
        form = detect_form(text)
    if form == "fixed":
        return split_fixed_form(text, filename)
    if form == "free":
        return split_free_form(text, filename)
    raise LexError(f"unknown source form {form!r}", filename=filename)
