"""Expression grammar: accepted forms, oracles, and error reporting."""

import math

import pytest

from smmsgeom.expressions import (ArityError, ExpressionError,
                                  UnknownIdentifierError, parse_expression)
from smmsgeom.fields import Chart

from test_jets import fd_derivative


def test_zero_expression():
    f = parse_expression("0", ("x1", "x2"))
    jet = f.jet((0.7, -0.3), 3)
    assert all(c == 0.0 for c in jet.coeffs)


def test_coordinate_expression():
    f = parse_expression("x1", ("x1", "x2"))
    jet = f.jet((0.3, 0.7), 2)
    assert jet.value == 0.3
    assert jet.coefficient((1, 0)) == 1.0
    assert sum(abs(c) for c in jet.coeffs) == 1.3


def test_parsed_jet_matches_finite_differences():
    f = parse_expression("exp(x1)*sin(x2)", ("x1", "x2"))
    point = (0.2, 0.5)
    jet = f.jet(point, 3)

    def numeric(p):
        return math.exp(p[0]) * math.sin(p[1])

    for alpha in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)]:
        want = fd_derivative(numeric, point, alpha, h=1e-3)
        got = jet.coefficient(alpha) * math.prod(map(math.factorial, alpha))
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_precedence_and_power():
    f = parse_expression("1+2*x1^2", ("x1",))
    assert f.value((3.0,)) == pytest.approx(19.0)
    g = parse_expression("(1+2*x1)^2", ("x1",))
    assert g.value((1.0,)) == pytest.approx(9.0)
    h = parse_expression("2/x1/x1", ("x1",))
    assert h.value((2.0,)) == pytest.approx(0.5)


def test_unary_minus_binds_to_base():
    # per the grammar, factor := base ('^' int)? with base := '-' base,
    # so -x^2 parses as (-x)^2
    f = parse_expression("-x1^2", ("x1",))
    assert f.value((3.0,)) == pytest.approx(9.0)
    g = parse_expression("0-x1^2", ("x1",))
    assert g.value((3.0,)) == pytest.approx(-9.0)


def test_scientific_literals():
    f = parse_expression("2.5e-2 + x1*1e1", ("x1",))
    assert f.value((0.1,)) == pytest.approx(1.025)


def test_all_functions():
    text = "exp(x1)+log(2+x1)+sin(x1)+cos(x1)+sinh(x1)+cosh(x1)+sqrt(1+x1)"
    f = parse_expression(text, ("x1",))
    x = 0.37
    want = (math.exp(x) + math.log(2 + x) + math.sin(x) + math.cos(x)
            + math.sinh(x) + math.cosh(x) + math.sqrt(1 + x))
    assert f.value((x,)) == pytest.approx(want, rel=1e-14)


def test_syntax_error_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1 + * x2", ("x1", "x2"))
    assert err.value.offset == 5
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1 + (x2", ("x1", "x2"))
    assert "expected" in str(err.value)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expression("x1 + q7", ("x1", "x2"))


def test_arity_errors():
    with pytest.raises(ArityError):
        parse_expression("sin(x1, x2)", ("x1", "x2"))
    with pytest.raises(ArityError):
        parse_expression("sin()", ("x1",))
    with pytest.raises(ArityError):
        parse_expression("x1(2)", ("x1",))


def test_chart_object_accepted():
    chart = Chart(("u", "v"))
    f = parse_expression("u*v", chart)
    assert f.chart is chart


def test_partial_closed_forms():
    f = parse_expression("x1^2", ("x1", "x2"))
    assert f.partial(0).value((3.0, 0.0)) == pytest.approx(6.0)
    g = parse_expression("x1", ("x1", "x2"))
    assert g.partial(1).is_zero
