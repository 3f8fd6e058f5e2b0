"""Subscript pattern analysis and dependency distances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stencil import (
    SubscriptKind,
    analyze_subscript,
    array_access_patterns,
)
from repro.fortran import ast as A
from repro.fortran.parser import _TokenStream, parse_expression, parse_source
from repro.fortran.tokens import tokenize


def sub(text: str, loop_vars=("i", "j"), invariants=None):
    ts = _TokenStream(tokenize(text), "<t>", 1)
    return analyze_subscript(parse_expression(ts), set(loop_vars),
                             invariants)


class TestClassification:
    def test_plain_induction(self):
        info = sub("i")
        assert info.kind is SubscriptKind.INDUCTION
        assert info.var == "i"
        assert info.offset == 0

    def test_positive_offset(self):
        info = sub("i + 2")
        assert info.offset == 2
        assert info.distance == 2

    def test_negative_offset(self):
        info = sub("i - 1")
        assert info.offset == -1
        assert info.distance == 1

    def test_reversed_form(self):
        info = sub("1 + i")
        assert info.kind is SubscriptKind.INDUCTION
        assert info.offset == 1

    def test_constant_literal(self):
        info = sub("3")
        assert info.kind is SubscriptKind.CONSTANT
        assert info.const == 3

    def test_constant_arith(self):
        info = sub("2 + 3")
        assert info.const == 5

    def test_parameter_invariant(self):
        info = sub("n", invariants={"n": 40})
        assert info.kind is SubscriptKind.CONSTANT
        assert info.const == 40

    def test_invariant_scalar_unknown_value(self):
        info = sub("k0")
        assert info.kind is SubscriptKind.CONSTANT
        assert info.const is None

    def test_invariant_arith(self):
        info = sub("k0 + 1")
        assert info.kind is SubscriptKind.CONSTANT

    def test_strided(self):
        info = sub("2 * i")
        assert info.kind is SubscriptKind.STRIDED
        assert info.coeff == 2
        assert info.distance == 2

    def test_strided_with_offset(self):
        info = sub("2 * i - 1")
        assert info.kind is SubscriptKind.STRIDED
        assert info.distance == 3

    def test_irregular_indirect(self):
        info = sub("g(i)")
        assert info.kind is SubscriptKind.IRREGULAR

    def test_two_vars_irregular(self):
        info = sub("i + j")
        assert info.kind is SubscriptKind.IRREGULAR

    def test_negated_induction(self):
        info = sub("-i + 5")
        assert info.kind is SubscriptKind.STRIDED
        assert info.coeff == -1


@given(off=st.integers(-3, 3), scale=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_property_affine_forms(off, scale):
    sign = "+" if off >= 0 else "-"
    text = f"{scale} * i {sign} {abs(off)}"
    info = sub(text)
    if scale == 1:
        assert info.kind is SubscriptKind.INDUCTION
        assert info.offset == off
    else:
        assert info.kind is SubscriptKind.STRIDED
        assert info.coeff == scale


class TestAccessCollection:
    SRC = """\
program p
  integer i, j, n
  parameter (n = 10)
  real v(n, n), w(n, n)
  do i = 2, n - 1
    do j = 2, n - 1
      v(i, j) = w(i - 1, j) + w(i + 1, j) - v(i, n)
    end do
  end do
end
"""

    def accesses(self):
        cu = parse_source(self.SRC)
        loop = cu.main.body[0]
        return array_access_patterns([loop], {"v", "w"}, {"i", "j"},
                                     {"n": 10})

    def test_writes_and_reads_split(self):
        acc = self.accesses()
        writes = [a for a in acc if a.is_write]
        reads = [a for a in acc if not a.is_write]
        assert len(writes) == 1
        assert writes[0].array == "v"
        assert len(reads) == 3

    def test_offsets(self):
        acc = self.accesses()
        w_reads = sorted((a for a in acc if a.array == "w"),
                         key=lambda a: a.subs[0].offset)
        assert w_reads[0].offset_along(0) == -1
        assert w_reads[1].offset_along(0) == 1

    def test_boundary_read_constant(self):
        acc = self.accesses()
        v_read = [a for a in acc if a.array == "v" and not a.is_write][0]
        assert v_read.subs[1].kind is SubscriptKind.CONSTANT
        assert v_read.subs[1].const == 10

    def test_read_in_if_condition_found(self):
        cu = parse_source("""\
program p
  real v(5)
  integer i
  do i = 1, 5
    if (v(i) .gt. 0.0) then
      x = 1.0
    end if
  end do
end
""")
        acc = array_access_patterns([cu.main.body[0]], {"v"}, {"i"})
        assert len(acc) == 1
        assert not acc[0].is_write

    def test_read_stmt_target_is_write(self):
        cu = parse_source("""\
program p
  real v(5)
  read (5, *) v(1)
end
""")
        acc = array_access_patterns(list(cu.main.body), {"v"}, set())
        assert acc[0].is_write


# -- the affine form against evaluation --------------------------------------

#: loop variables, other integer scalars and PARAMETERs of the generated
#: subscripts
LOOP_VARS, SCALARS, PARAMS = ("i", "j"), ("k", "l"), ("n", "m")


def _tree(text: str) -> A.Expr:
    return parse_expression(_TokenStream(tokenize(text), "<t>", 1))


def _evaluate(expr: A.Expr, env: dict) -> int:
    """*expr* in Fortran integer arithmetic (``/`` truncates toward
    zero); ZeroDivisionError on a zero divisor."""
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.Var):
        return env[expr.name]
    if isinstance(expr, A.UnOp):
        value = _evaluate(expr.operand, env)
        return -value if expr.op == "-" else value
    left, right = _evaluate(expr.left, env), _evaluate(expr.right, env)
    if expr.op == "/":
        q = abs(left) // abs(right)
        return q if (left >= 0) == (right >= 0) else -q
    return {"+": left + right, "-": left - right,
            "*": left * right}[expr.op]


def _subscripts():
    leaves = st.one_of(st.integers(0, 9).map(str),
                       st.sampled_from(LOOP_VARS + SCALARS + PARAMS))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from("+-"), inner).map(
            lambda t: f"({t[0]}{t[1]})")), max_leaves=8)


def _points():
    value = st.integers(-40, 40)
    return st.fixed_dictionaries(
        {name: value for name in LOOP_VARS + SCALARS + PARAMS})


@given(text=_subscripts(), point=_points(), moved=_points())
@settings(deadline=None)
def test_property_form_evaluates_as_the_expression(text, point, moved):
    from hypothesis import assume

    from repro.analysis.stencil import affine_form
    expr = _tree(text)
    params = {name: point[name] for name in PARAMS}
    try:
        want = _evaluate(expr, point)
    except ZeroDivisionError:
        assume(False)
    form = affine_form(expr, params)
    assert form is not None
    # a term is a scalar name or the printed text of an opaque value
    got = form.const + sum(
        c * (point[t] if t in point else _evaluate(_tree(t), point))
        for t, c in form.coeffs)
    assert got == want, (text, form)
    # every kind read off the form holds at the point, and a CONSTANT
    # one whatever values the loop variables take
    info = analyze_subscript(expr, set(LOOP_VARS), params)
    if info.kind is SubscriptKind.CONSTANT:
        if info.const is not None:
            assert want == info.const
        elsewhere = {**point, **{v: moved[v] for v in LOOP_VARS}}
        try:
            assert _evaluate(expr, elsewhere) == want
        except ZeroDivisionError:
            pass
    elif info.kind is not SubscriptKind.IRREGULAR:
        assert want == info.coeff * point[info.var] + info.offset


class TestFormFolds:
    """What the one affine form proves beyond a literal offset."""

    def test_parameter_offset_is_an_induction(self):
        info = sub("i - nh", invariants={"nh": 2})
        assert info.kind is SubscriptKind.INDUCTION
        assert info.offset == -2

    def test_parameter_coefficient_is_a_stride(self):
        info = sub("ns * i + 1", invariants={"ns": 3})
        assert (info.kind, info.coeff, info.offset) \
            == (SubscriptKind.STRIDED, 3, 1)

    def test_division_folds_between_constants_only(self):
        assert sub("n / 2", invariants={"n": -7}).const == -3
        assert sub("7 / (-2)").const == -3
        assert sub("(n + 1) / 2", invariants={"n": 8}).const == 4
        assert sub("i / 2").kind is SubscriptKind.IRREGULAR
        info = sub("k0 / 2")
        assert (info.kind, info.const) == (SubscriptKind.CONSTANT, None)

    def test_cancelled_variable_leaves_an_induction(self):
        info = sub("i + j - j")
        assert (info.kind, info.var, info.offset) \
            == (SubscriptKind.INDUCTION, "i", 0)
        info = sub("k0 + i - i")
        assert (info.kind, info.const) == (SubscriptKind.CONSTANT, None)
