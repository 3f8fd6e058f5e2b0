"""The precedence-climbing expression parser against the ladder it replaced.

``parse_expression`` is one precedence-climbing loop over a table of
binary operators.  Before it, every expression descended ten functions,
one per precedence level; that ladder is kept below (``ladder_expression``
and its helpers, primaries included, so it recurses only into itself) as
the oracle.  On generated expressions, well formed or not, both parsers
must build the same AST (compared by ``repr()``, so real-literal spellings
count), stop at the same token, or raise the same error.

The example count comes from the active hypothesis profile: 100 in
tier-1, more under ``--hypothesis-profile=deep`` (CI).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.fortran import ast as A
from repro.fortran.parser import _TokenStream, parse_expression, parse_source
from repro.fortran.tokens import T, tokenize

# -- the oracle: one function per precedence level ---------------------------

_REL_OPS = {T.LT: ".lt.", T.LE: ".le.", T.GT: ".gt.", T.GE: ".ge.",
            T.EQ: ".eq.", T.NE: ".ne."}


def ladder_expression(ts: _TokenStream) -> A.Expr:
    return _parse_eqv(ts)


def _parse_eqv(ts):
    left = _parse_or(ts)
    while ts.peek().kind in (T.EQV, T.NEQV):
        op = ".eqv." if ts.next().kind is T.EQV else ".neqv."
        left = A.BinOp(op, left, _parse_or(ts))
    return left


def _parse_or(ts):
    left = _parse_and(ts)
    while ts.peek().kind is T.OR:
        ts.next()
        left = A.BinOp(".or.", left, _parse_and(ts))
    return left


def _parse_and(ts):
    left = _parse_not(ts)
    while ts.peek().kind is T.AND:
        ts.next()
        left = A.BinOp(".and.", left, _parse_not(ts))
    return left


def _parse_not(ts):
    if ts.peek().kind is T.NOT:
        ts.next()
        return A.UnOp(".not.", _parse_not(ts))
    return _parse_relational(ts)


def _parse_relational(ts):
    left = _parse_concat(ts)
    if ts.peek().kind in _REL_OPS:
        op = _REL_OPS[ts.next().kind]
        return A.BinOp(op, left, _parse_concat(ts))
    return left


def _parse_concat(ts):
    left = _parse_additive(ts)
    while ts.peek().kind is T.CONCAT:
        ts.next()
        left = A.BinOp("//", left, _parse_additive(ts))
    return left


def _parse_additive(ts):
    if ts.peek().kind in (T.PLUS, T.MINUS):
        op = "+" if ts.next().kind is T.PLUS else "-"
        return _parse_additive_rest(A.UnOp(op, _parse_multiplicative(ts)), ts)
    return _parse_additive_rest(_parse_multiplicative(ts), ts)


def _parse_additive_rest(left, ts):
    while ts.peek().kind in (T.PLUS, T.MINUS):
        op = "+" if ts.next().kind is T.PLUS else "-"
        left = A.BinOp(op, left, _parse_multiplicative(ts))
    return left


def _parse_multiplicative(ts):
    left = _parse_power(ts)
    while ts.peek().kind in (T.STAR, T.SLASH):
        op = "*" if ts.next().kind is T.STAR else "/"
        left = A.BinOp(op, left, _parse_power(ts))
    return left


def _parse_power(ts):
    base = _parse_primary(ts)
    if ts.peek().kind is T.POWER:
        ts.next()
        if ts.peek().kind in (T.PLUS, T.MINUS):
            op = "+" if ts.next().kind is T.PLUS else "-"
            return A.BinOp("**", base, A.UnOp(op, _parse_power(ts)))
        return A.BinOp("**", base, _parse_power(ts))
    return base


def _parse_primary(ts):
    tok = ts.peek()
    if tok.kind is T.INT:
        ts.next()
        return A.IntLit(int(tok.text))
    if tok.kind is T.REAL:
        ts.next()
        return A.RealLit(float(tok.text.lower().replace("d", "e")), tok.text)
    if tok.kind is T.STRING:
        ts.next()
        quote = tok.text[0]
        return A.StringLit(tok.text[1:-1].replace(quote + quote, quote))
    if tok.kind is T.TRUE:
        ts.next()
        return A.LogicalLit(True)
    if tok.kind is T.FALSE:
        ts.next()
        return A.LogicalLit(False)
    if tok.kind is T.LPAREN:
        ts.next()
        expr = ladder_expression(ts)
        ts.expect(T.RPAREN, "')'")
        return expr
    if tok.kind is T.NAME:
        ts.next()
        name = tok.text.lower()
        if ts.peek().kind is T.LPAREN:
            ts.next()
            args = []
            if ts.peek().kind is not T.RPAREN:
                args.append(_parse_subscript(ts))
                while ts.accept(T.COMMA) is not None:
                    args.append(_parse_subscript(ts))
            ts.expect(T.RPAREN, "')'")
            return A.Apply(name, args)
        return A.Var(name)
    raise ts.error(f"expected expression, found {tok.text!r}")


def _parse_subscript(ts):
    lo = None
    if ts.peek().kind is not T.COLON:
        lo = ladder_expression(ts)
        if ts.peek().kind is not T.COLON:
            return lo
    ts.next()
    hi = None
    if ts.peek().kind not in (T.COMMA, T.RPAREN):
        hi = ladder_expression(ts)
    return A.RangeExpr(lo, hi)


# -- comparing the two -------------------------------------------------------

def outcome(parse, text: str) -> tuple:
    """What *parse* makes of *text*: the AST's repr and the index of the
    first token it left, or the error it raised."""
    ts = _TokenStream(tokenize(text), "<expr>", 1)
    try:
        tree = parse(ts)
    except ParseError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", repr(tree), ts.pos)


ATOMS = ["a", "B", "x1", "1", "2", "2.5", "1.d0", "3.e2", ".true.",
         ".FALSE.", "'s'", "'it''s'", "v(i, j)", "f(x, 1:n)", "g()",
         "w(:, k:)"]
PREFIXES = ["-", "+", ".not.", ".not. .not."]
BINARY = ["+", "-", "*", "/", "**", "//", ".lt.", ".le.", ".gt.", ".ge.",
          ".eq.", ".ne.", "<", ">=", "==", "/=", ".and.", ".or.", ".eqv.",
          ".neqv.", "** -", "** +", "* -", "// -"]


def expressions():
    """Expression text: atoms joined by any binary operator, any prefix
    in any place, parentheses, nested in subscripts; many are malformed
    (a second relational operator, a sign after ``*``), on purpose."""
    def extend(inner):
        return st.one_of(
            st.builds(lambda e: f"({e})", inner),
            st.builds(lambda p, e: f"{p} {e}", st.sampled_from(PREFIXES),
                      inner),
            st.builds(lambda a, op, b: f"{a} {op} {b}", inner,
                      st.sampled_from(BINARY), inner),
            st.builds(lambda a, b: f"h({a}, {b})", inner, inner))
    return st.recursive(st.sampled_from(ATOMS), extend, max_leaves=10)


def token_soups():
    """Short runs of arbitrary tokens: mostly malformed."""
    pieces = ATOMS + PREFIXES + BINARY + ["(", ")", ",", ":"]
    return st.lists(st.sampled_from(pieces), min_size=1,
                    max_size=8).map(" ".join)


@settings(derandomize=True, deadline=None, database=None)
@given(expressions())
def test_generated_expressions_parse_like_the_ladder(text):
    assert outcome(parse_expression, text) == outcome(ladder_expression, text)


@settings(derandomize=True, deadline=None, database=None)
@given(token_soups())
def test_token_soups_parse_like_the_ladder(text):
    assert outcome(parse_expression, text) == outcome(ladder_expression, text)


@pytest.mark.parametrize("text", [
    "a ** b ** c",
    "a ** -b ** c",
    "-a ** b * c + d",
    ".not. .not. a .and. b .eqv. c .neqv. d .or. e",
    "a // b // -c .eq. d // e",
    ".not. a + b .lt. c",
    "-(a) ** +(-b)",
])
def test_well_formed_expressions(text):
    new = outcome(parse_expression, text)
    assert new[0] == "ok" and new[2] == len(tokenize(text)) - 1
    assert new == outcome(ladder_expression, text)


@pytest.mark.parametrize("text", [
    "1 .lt. 2 .lt. 3",
    ".not. 1 .lt. 2 .lt. 3",
    "a .and. b .lt. c .lt. d",
    "2.0 * -1.0",
    "a ** * b",
])
def test_malformed_expressions_fail_like_the_ladder(text):
    new = outcome(parse_expression, text)
    assert new == outcome(ladder_expression, text)
    # both raise, or both stop short of the end of the line
    assert new[0] == "error" or new[2] < len(tokenize(text)) - 1
    with pytest.raises(ParseError):
        parse_source(f"x = {text}\nend\n", resolve=False)
