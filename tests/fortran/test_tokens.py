"""Tests for the line tokenizer."""

import pytest

from repro.errors import LexError
from repro.fortran.tokens import T, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop END


def texts(text):
    return [t.text for t in tokenize(text)][:-1]


class TestBasicTokens:
    def test_names_and_ints(self):
        assert kinds("foo 42 bar") == [T.NAME, T.INT, T.NAME]

    def test_real_forms(self):
        for text in ("1.5", ".5", "2.", "1e3", "1.5e-3", "2.5E+10",
                     "1d0", "3.14d-2"):
            toks = tokenize(text)
            assert toks[0].kind is T.REAL, text

    def test_int_not_real(self):
        assert kinds("123") == [T.INT]

    def test_arithmetic_operators(self):
        assert kinds("a + b - c * d / e ** f") == [
            T.NAME, T.PLUS, T.NAME, T.MINUS, T.NAME, T.STAR, T.NAME,
            T.SLASH, T.NAME, T.POWER, T.NAME]

    def test_power_vs_star_star(self):
        assert kinds("a ** b") == [T.NAME, T.POWER, T.NAME]
        assert kinds("a * * b") == [T.NAME, T.STAR, T.STAR, T.NAME]

    def test_parens_commas(self):
        assert kinds("v(i, j)") == [T.NAME, T.LPAREN, T.NAME, T.COMMA,
                                    T.NAME, T.RPAREN]

    def test_columns(self):
        toks = tokenize("ab + cd")
        assert toks[0].column == 0
        assert toks[1].column == 3
        assert toks[2].column == 5


class TestDotOperators:
    @pytest.mark.parametrize("text,kind", [
        (".lt.", T.LT), (".le.", T.LE), (".gt.", T.GT), (".ge.", T.GE),
        (".eq.", T.EQ), (".ne.", T.NE), (".and.", T.AND), (".or.", T.OR),
        (".not.", T.NOT), (".true.", T.TRUE), (".false.", T.FALSE),
        (".eqv.", T.EQV), (".neqv.", T.NEQV),
    ])
    def test_each(self, text, kind):
        assert kinds(f"a {text} b")[1] is kind or kinds(f"{text}")[0] is kind

    def test_case_insensitive(self):
        assert kinds("a .LT. b")[1] is T.LT

    def test_modern_spellings(self):
        assert kinds("a <= b")[1] is T.LE
        assert kinds("a == b")[1] is T.EQ
        assert kinds("a /= b")[1] is T.NE
        assert kinds("a < b")[1] is T.LT
        assert kinds("a >= b")[1] is T.GE

    def test_unknown_dot_operator_raises(self):
        with pytest.raises(LexError):
            tokenize("a .foo. b")

    def test_real_then_dot_op(self):
        # `1..lt.` style: the real consumes one dot
        toks = tokenize("1. .lt. x")
        assert toks[0].kind is T.REAL
        assert toks[1].kind is T.LT

    @pytest.mark.parametrize("text,expected", [
        ("3.eq.n", [T.INT, T.EQ, T.NAME]),
        ("5.lt.n", [T.INT, T.LT, T.NAME]),
        ("3.EQ.n", [T.INT, T.EQ, T.NAME]),
        ("1.and.x", [T.INT, T.AND, T.NAME]),
        ("1.neqv.x", [T.INT, T.NEQV, T.NAME]),
        ("2.e5", [T.REAL]),
        ("1.d0", [T.REAL]),
        ("1.5.eq.n", [T.REAL, T.EQ, T.NAME]),
    ])
    def test_integer_before_dot_operator(self, text, expected):
        assert kinds(text) == expected

    def test_integer_before_dot_operator_parses(self):
        from repro.fortran import ast as A
        from repro.fortran.parser import parse_source
        body = parse_source("program p\nif (3.eq.n) x = 1\nx = 5.lt.n\n"
                            "end\n", resolve=False).main.body
        assert body[0].cond == A.BinOp(".eq.", A.IntLit(3), A.Var("n"))
        assert body[1].value == A.BinOp(".lt.", A.IntLit(5), A.Var("n"))


class TestStrings:
    def test_single_quotes(self):
        toks = tokenize("'hello'")
        assert toks[0].kind is T.STRING
        assert toks[0].text == "'hello'"

    def test_doubled_quote_escape(self):
        toks = tokenize("'it''s'")
        assert toks[0].kind is T.STRING
        assert toks[0].text == "'it''s'"

    def test_double_quotes(self):
        assert tokenize('"hi"')[0].kind is T.STRING


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("a @ b", line=7)
        assert exc_info.value.line == 7

    def test_end_token_always_present(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is T.END
