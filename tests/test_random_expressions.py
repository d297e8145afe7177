"""Property: jets of seeded random expressions match finite differences.

100 seeded expressions drawn from the full grammar (arithmetic, powers,
all analytic primitives, safe-domain wrappers for log/sqrt/division);
degree-3 jet coefficients agree with 4th-order central differences to
1e-6 relative.
"""

import math

import numpy as np
import pytest

from smmsgeom.expressions import parse_expression
from smmsgeom.fields import evaluate
from smmsgeom.jets import _exponent_table

from test_fields import reference
from test_jets import fd_derivative

NAMES = ("x1", "x2")


def random_expression(rng) -> str:
    """A domain-safe random expression exercising the whole grammar."""

    def atom():
        kind = rng.integers(0, 5)
        name = NAMES[int(rng.integers(0, len(NAMES)))]
        c = round(float(rng.uniform(-1.5, 1.5)), 4)
        k = int(rng.integers(1, 3))
        if kind == 0:
            return f"{c}"
        if kind == 1:
            return f"{c}*{name}"
        if kind == 2:
            return f"sin({k}*{name})" if rng.integers(0, 2) else f"cos({k}*{name})"
        if kind == 3:
            return f"sinh({c}*{name})" if rng.integers(0, 2) else f"cosh({c}*{name})"
        return f"exp({c}*{name})"

    def product():
        n = int(rng.integers(1, 3))
        parts = [atom() for _ in range(n)]
        if rng.integers(0, 4) == 0:
            parts.append(f"{NAMES[int(rng.integers(0, 2))]}^{int(rng.integers(2, 4))}")
        return "*".join(parts)

    terms = [product() for _ in range(int(rng.integers(1, 4)))]
    expr = "+".join(terms)
    wrap = rng.integers(0, 5)
    if wrap == 0:
        expr = f"log(2.5+cos({expr})) "
    elif wrap == 1:
        expr = f"sqrt(4+sin({expr}))"
    elif wrap == 2:
        expr = f"({expr})/(3+cos({expr}))"
    elif wrap == 3:
        expr = f"-({expr})"
    return expr


@pytest.mark.parametrize("seed", range(100))
def test_random_expression_matches_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    text = random_expression(rng)
    field = parse_expression(text, NAMES)
    point = tuple(float(v) for v in rng.uniform(-0.4, 0.4, size=2))
    jet = field.jet(point, 3)

    def numeric(p):
        return field.value(tuple(p))

    exps, _ = _exponent_table(2, 3)
    for alpha in exps:
        # h balances the 4th-order truncation error against roundoff
        # amplification for composed third-derivative stencils
        want = fd_derivative(numeric, point, alpha, h=4e-3)
        fact = math.factorial(alpha[0]) * math.factorial(alpha[1])
        got = jet.coefficient(alpha) * fact
        assert got == pytest.approx(want, rel=1e-6, abs=2e-6), (text, alpha)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", range(100))
def test_random_expression_value_equals_jet_constant_term(seed):
    # the float path gives the jet's constant term bit for bit, whichever
    # request comes first; each order starts from fresh charts
    rng = np.random.default_rng(1000 + seed)
    text = random_expression(rng)
    point = tuple(float(v) for v in rng.uniform(-0.4, 0.4, size=2))

    def fields():
        f = parse_expression(text, NAMES)
        return [f, f.partial(0), f.partial(1).partial(0)]

    for k in (1, 2, 3):
        reference = [g.jet(point, k) for g in fields()]
        value_first = fields()
        values = [g.value(point) for g in value_first]
        jets = [g.jet(point, k) for g in value_first]
        jet_first = fields()
        jets_then = [g.jet(point, k) for g in jet_first]
        values_then = [g.value(point) for g in jet_first]
        for ref, v, j, jt, vt in zip(reference, values, jets, jets_then,
                                     values_then):
            assert type(v) is float and type(vt) is float
            assert _bits(v) == _bits(vt) == _bits(ref.coeffs[0]), (text, k)
            np.testing.assert_array_equal(_bits(j.coeffs), _bits(ref.coeffs))
            np.testing.assert_array_equal(_bits(jt.coeffs), _bits(ref.coeffs))


@pytest.mark.parametrize("seed", range(100))
def test_random_expression_evaluate_rows_equal_value_and_jet(seed):
    # each row of one batched call is, bit for bit, what value() and the
    # constant term of jet() give point by point on fresh charts
    rng = np.random.default_rng(1000 + seed)
    text = random_expression(rng)
    points = [tuple(float(v) for v in rng.uniform(-0.4, 0.4, size=2))
              for _ in range(3)]

    def fields():
        f = parse_expression(text, NAMES)
        return [f, f.partial(0), f.partial(1).partial(0)]

    rows = evaluate(fields(), points)
    assert [[type(x) for x in row] for row in rows] == [[float] * 3] * 3
    for g, row in zip(fields(), rows):
        np.testing.assert_array_equal(
            _bits(row), _bits([g.value(p) for p in points]), err_msg=text)
    for k in (1, 2, 3):
        for g, row in zip(fields(), rows):
            np.testing.assert_array_equal(
                _bits(row), _bits([g.jet(p, k).coeffs[0] for p in points]),
                err_msg=f"{text} at degree {k}")


@pytest.mark.parametrize("seed", range(100))
def test_random_expression_sweep_matches_recursive_reference(seed):
    # the planned sweep gives, bit for bit, what a plain recursive
    # evaluation gives, at every degree and whichever request comes first
    rng = np.random.default_rng(1000 + seed)
    text = random_expression(rng)
    points = [tuple(float(v) for v in rng.uniform(-0.4, 0.4, size=2))
              for _ in range(2)]

    def fields():
        f = parse_expression(text, NAMES)
        return [f, f.partial(0), f.partial(1).partial(0)]

    memos = [{} for _ in points]
    want = {k: [[np.atleast_1d(reference(g, p, k, memo).coeffs if k
                               else reference(g, p, 0, memo))
                 for p, memo in zip(points, memos)] for g in fields()]
            for k in range(4)}
    for k in range(4):
        value_first = fields()
        rows = evaluate(value_first, points)
        jets = [[g.jet(p, k).coeffs for p in points] for g in value_first]
        jet_first = fields()
        jets_then = [[g.jet(p, k).coeffs for p in points] for g in jet_first]
        rows_then = evaluate(jet_first, points)
        for r in range(3):
            for got in (rows[r], rows_then[r]):
                np.testing.assert_array_equal(
                    _bits(got), _bits([w[0] for w in want[0][r]]),
                    err_msg=f"{text} value")
            for got in (jets[r], jets_then[r]):
                for g, w in zip(got, want[k][r]):
                    np.testing.assert_array_equal(
                        _bits(g), _bits(w), err_msg=f"{text} at degree {k}")
