"""Tokenizer for a single Fortran logical line.

Fortran keywords are not reserved words; the parser decides keyword-ness by
context, so the lexer only produces generic ``NAME`` tokens for identifiers.
Dot-delimited operators (``.lt.``, ``.and.``, ``.true.``...) are folded into
canonical symbolic kinds so downstream code never needs to handle both
spellings of a comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.errors import LexError


class T(Enum):
    """Token kinds."""

    NAME = auto()
    INT = auto()
    REAL = auto()
    STRING = auto()
    # operators / punctuation
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    POWER = auto()
    CONCAT = auto()
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    EQUALS = auto()
    COLON = auto()
    DOUBLECOLON = auto()
    PERCENT = auto()
    # relational
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    EQ = auto()
    NE = auto()
    # logical
    AND = auto()
    OR = auto()
    NOT = auto()
    EQV = auto()
    NEQV = auto()
    TRUE = auto()
    FALSE = auto()
    END = auto()  # end of logical line


#: Map from dot-operator spelling (lowercase, without dots) to token kind.
DOT_OPERATORS = {
    "lt": T.LT, "le": T.LE, "gt": T.GT, "ge": T.GE,
    "eq": T.EQ, "ne": T.NE,
    "and": T.AND, "or": T.OR, "not": T.NOT,
    "eqv": T.EQV, "neqv": T.NEQV,
    "true": T.TRUE, "false": T.FALSE,
}


@dataclass
class Token:
    """A lexical token with its source column (0-based within the line)."""

    kind: T
    text: str
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"


#: A digit string followed by a dot-operator (``3.eq.n``) is an integer:
#: the ``real`` pattern may not take its dot
_NOT_DOT_OPERATOR = "(?!(?i:" + "|".join(DOT_OPERATORS) + r")\.)"

#: Each match skips leading blanks and takes one token; ``bad`` catches a
#: character no token can start with, so matches never skip text.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<real>(\d+\.""" + _NOT_DOT_OPERATOR + r"""\d*|\.\d+)([edED][+-]?\d+)?
           |\d+[edED][+-]?\d+)
  | (?P<int>\d+)
  | (?P<dotop>\.[A-Za-z]+\.)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
  | (?P<op>\*\*|//|::|<=|>=|==|/=|<|>|[-+*/(),=:%])
  | (?P<bad>\S))
    """,
    re.VERBOSE,
)

_SYMBOL_OPS = {
    "**": T.POWER, "//": T.CONCAT, "::": T.DOUBLECOLON,
    "<=": T.LE, ">=": T.GE, "==": T.EQ, "/=": T.NE, "<": T.LT, ">": T.GT,
    "+": T.PLUS, "-": T.MINUS, "*": T.STAR, "/": T.SLASH,
    "(": T.LPAREN, ")": T.RPAREN, ",": T.COMMA, "=": T.EQUALS,
    ":": T.COLON, "%": T.PERCENT,
}

#: kind of the token each literal group of ``_TOKEN_RE`` matches
_GROUP_KINDS = {"name": T.NAME, "int": T.INT, "real": T.REAL,
                "string": T.STRING}


def tokenize(text: str, *, filename: str = "<input>",
             line: int = 0) -> list[Token]:
    """Tokenize one logical line into a token list ending with an END token.

    A ``.`` after digits belongs to a ``REAL`` unless it starts a
    dot-operator, so dot-operators are unambiguous at this point.
    """
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        value = m.group(group)
        column = m.start(group)
        if group == "op":
            kind = _SYMBOL_OPS[value]
        elif group == "dotop":
            kind = DOT_OPERATORS.get(value[1:-1].lower())
            if kind is None:
                raise LexError(f"unknown operator {value!r}",
                               filename=filename, line=line,
                               column=column + 1)
        elif group == "bad":
            raise LexError(f"unexpected character {value!r}",
                           filename=filename, line=line, column=column + 1)
        else:
            kind = _GROUP_KINDS[group]
        tokens.append(Token(kind, value, column))
    tokens.append(Token(T.END, "", len(text)))
    return tokens
