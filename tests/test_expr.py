import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdelay import expr
from coopdelay.expr import (
    BinOp,
    Call,
    EvalDomainError,
    Expression,
    Neg,
    Num,
    ParseError,
    Var,
    parse,
)


def test_parse_power_plus():
    e = parse("x^2+x")
    assert e.root == BinOp("+", BinOp("^", Var(), Num(2.0)), Var())


def test_parse_division_precedence():
    e = parse("1+x/2")
    assert e.root == BinOp("+", Num(1.0), BinOp("/", Var(), Num(2.0)))


def test_incomplete_call_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("2+sin")
    assert exc.value.position == 6


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("2+foo")


def test_eval_basic():
    assert parse("x^2+x").evaluate(1.0) == 2.0
    assert parse("1+x/2").evaluate(2.0) == 2.0


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        parse("ln(x)").evaluate(-1.0)
    with pytest.raises(EvalDomainError):
        parse("sqrt(x)").evaluate(-4.0)
    with pytest.raises(EvalDomainError):
        parse("1/x").evaluate(0.0)
    with pytest.raises(EvalDomainError):
        parse("exp(x)").evaluate(1e4)  # overflow must be signaled


def test_negative_base_fractional_power_is_domain_error():
    with pytest.raises(EvalDomainError):
        parse("x^0.5").evaluate(-2.0)


def test_power_right_associative():
    assert parse("2^3^2").evaluate(0.0) == 2.0**9


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2").evaluate(3.0) == -9.0
    assert parse("(-x)^2").evaluate(3.0) == 9.0


def test_two_argument_functions():
    assert parse("min(x, 3)").evaluate(5.0) == 3.0
    assert parse("max(x, 3)").evaluate(5.0) == 5.0
    with pytest.raises(ParseError, match="expects 2"):
        parse("min(x)")
    with pytest.raises(ParseError, match="expects 1"):
        parse("sqrt(x, 1)")


def test_other_variable_name():
    e = parse("2+sin(t)", var="t")
    assert e.evaluate(0.0) == 2.0
    assert e.evaluate(math.pi / 2) == pytest.approx(3.0)


def test_scientific_literals():
    assert parse("1e-3 + x").evaluate(0.0) == 1e-3
    assert parse("2.5E2").evaluate(0.0) == 250.0


def test_array_evaluation_matches_scalar():
    e = parse("tanh(x) + x^2/4")
    vs = np.linspace(-3.0, 3.0, 37)
    out = e.evaluate_array(vs)
    for v, r in zip(vs, out):
        assert r == pytest.approx(e.evaluate(float(v)), abs=1e-15)


def test_array_domain_error():
    with pytest.raises(EvalDomainError):
        parse("ln(x)").evaluate_array(np.array([1.0, -1.0]))


def test_constant_expression_array_broadcast():
    e = parse("2", var="t")
    assert e.is_constant
    out = e.evaluate_array(np.array([0.0, 1.0, 2.0]))
    assert out.tolist() == [2.0, 2.0, 2.0]


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse("   ")


# ---------------------------------------------------------------------------
# Properties

_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.001, max_value=100.0, allow_nan=False)),
    st.just(Var()),
)


def _nodes(children):
    unary_calls = st.sampled_from(["sqrt", "exp", "ln", "tanh", "sin", "cos", "abs"])
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(lambda f, a: Call(f, (a,)), unary_calls, children),
        st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]), children, children),
    )


_trees = st.recursive(_leaf, _nodes, max_leaves=25)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_serialize_parse_round_trip(tree):
    e = Expression(tree, "x")
    text = e.serialize()
    again = parse(text)
    assert again.root == tree
    assert parse(again.serialize()).root == tree


@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_precedence_product_before_sum(a, b, c):
    lhs = parse(f"{a!r} + {b!r} * {c!r}", var="x").evaluate(0.0)
    rhs = parse(f"{a!r} + ({b!r} * {c!r})", var="x").evaluate(0.0)
    assert lhs == rhs
    assert lhs == a + (b * c)


@given(_trees, st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_round_trip_preserves_value(tree, v):
    e = Expression(tree, "x")
    reparsed = parse(e.serialize())
    try:
        expected = e.evaluate(v)
    except EvalDomainError:
        with pytest.raises(EvalDomainError):
            reparsed.evaluate(v)
        return
    assert reparsed.evaluate(v) == expected


def test_scalar_and_array_callables_share_one_compiled_code_object():
    e = parse("sqrt(x)+2*tanh(x)^2")
    assert e._scalar.__code__ is e._array.__code__
    assert e._scalar.__globals__ is not e._array.__globals__
    assert e.evaluate(0.25) == pytest.approx(0.5 + 2.0 * math.tanh(0.25) ** 2, rel=1e-15)
    assert e.evaluate_array(np.array([0.25]))[0] == pytest.approx(e.evaluate(0.25), rel=1e-15)


@given(_trees, st.lists(st.floats(min_value=-20.0, max_value=20.0), max_size=16))
@settings(max_examples=300, deadline=None)
def test_evaluate_each_is_evaluate_at_every_value(tree, vs):
    # bit for bit, which numpy's exp, ln and tanh are not; None exactly where
    # a value raises or is non-finite
    e = Expression(tree, "x")
    want = []
    for v in vs:
        try:
            want.append(e.evaluate(v).hex())
        except EvalDomainError:
            want = None
            break
    got = e.evaluate_each(vs)
    assert (got if got is None else [v.hex() for v in got]) == want


def test_evaluate_each_tells_a_non_finite_value_from_a_sum_that_overflows():
    assert parse("x*1e308").evaluate_each([1.5, 1.5]) == [1.5e308, 1.5e308]
    assert parse("x*x").evaluate_each([2.0, 1e200]) is None
    assert parse("ln(x)").evaluate_each([1.0, 0.0]) is None
    assert parse("ln(x)").evaluate_each([]) == []


def test_parse_compiles_one_code_object_and_the_pass_one_more_at_first_use(monkeypatch):
    # every parse paying for the pass as well made analysis-only runs, which
    # parse many expressions and evaluate few of them this way, slower
    sources = []
    monkeypatch.setattr(expr, "compile", lambda source, *args: sources.append(source) or compile(source, *args),
                        raising=False)
    e = parse("sqrt(x) + 2")
    assert len(sources) == 1
    e.evaluate(1.0)
    e.evaluate_array(np.ones(3))
    assert len(sources) == 1
    assert e.evaluate_each([1.0, 4.0]) == [3.0, 4.0]
    assert e.evaluate_each([9.0]) == [5.0]
    assert len(sources) == 2
