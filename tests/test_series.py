"""Truncated Laurent series arithmetic with float and field coefficients."""

import numpy as np
import pytest

from smmsgeom.series import Series, SeriesTruncationError
from smmsgeom.fields import Chart
from smmsgeom.expressions import parse_expression


def coeffs_of(s, lo, hi):
    return [s.coefficient(p) for p in range(lo, hi + 1)]


def test_add_and_scale():
    a = Series([1.0, 2.0], 0, trunc=3)
    b = Series([5.0], 2, trunc=3)
    c = a + b * 2.0
    assert coeffs_of(c, 0, 3) == [1.0, 2.0, 10.0, 0.0]


def test_mul_truncation_order():
    a = Series([1.0, 1.0], 0, trunc=1)       # 1 + x + O(x^2)
    b = Series([1.0, -1.0], 0, trunc=1)      # 1 - x + O(x^2)
    c = a * b
    assert c.trunc == 1
    assert coeffs_of(c, 0, 1) == [1.0, 0.0]
    with pytest.raises(SeriesTruncationError):
        c.coefficient(2)


def test_laurent_shift_product():
    a = Series([1.0], -2)                     # x^-2, exact
    b = Series([3.0, 4.0], 1)                 # 3x + 4x^2, exact
    c = a * b
    assert c.coefficient(-1) == 3.0
    assert c.coefficient(0) == 4.0
    assert c.coefficient(5) == 0.0            # exact: high powers are known zeros


def test_division_geometric():
    one = Series([1.0], 0, trunc=5)
    denom = Series([1.0, 1.0], 0, trunc=5)    # 1 + x
    q = one / denom
    assert coeffs_of(q, 0, 5) == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]


def test_division_by_monomial_keeps_exactness():
    a = Series([2.0, 4.0], 0)
    q = a / Series([2.0], 2)
    assert q.trunc is None
    assert q.coefficient(-2) == 1.0
    assert q.coefficient(-1) == 2.0


def test_exact_division_by_nonmonomial_rejected():
    a = Series([1.0], 0)
    with pytest.raises(SeriesTruncationError):
        a / Series([1.0, 1.0], 0)


def test_division_with_shifted_divisor():
    # (x + x^2) / (x - x^3) = (1 + x) / (1 - x^2) = 1 + x + x^2 + x^3 + ...
    num = Series([1.0, 1.0], 1, trunc=6)
    den = Series([1.0, 0.0, -1.0], 1, trunc=6)
    q = num / den
    for p in range(0, q.trunc + 1):
        assert q.coefficient(p) == pytest.approx(1.0)


def test_roundtrip_division():
    rng = np.random.default_rng(11)
    a = Series(list(rng.normal(size=6)), -1, trunc=4)
    b = Series(list(rng.normal(size=6)), 0, trunc=5)
    b.coeffs[0] = 1.3
    q = (a * b) / b
    for p in range(-1, q.trunc + 1):
        assert q.coefficient(p) == pytest.approx(a.coefficient(p), rel=1e-12, abs=1e-12)


def test_deriv():
    # (series, (shift, len(coeffs), trunc) of its derivative, coefficients)
    cases = [
        # 7x^-2 + x^-1 + 2 + 3x + O(x^3): the constant leaves a gap at x^-1
        (Series([7.0, 1.0, 2.0, 3.0], -2, trunc=2), (-3, 5, 1),
         [-14.0, -1.0, 0.0, 3.0, 0.0]),
        (Series([1.0, 2.0, 3.0]), (0, 2, None), [2.0, 6.0]),
        (Series.constant(5.0), (1, 0, None), []),
        (Series.constant(5.0, trunc=0), (0, 0, -1), []),
        (Series.constant(5.0, trunc=2), (0, 2, 1), [0.0, 0.0]),
        (Series([2.0, 3.0], 1), (0, 2, None), [2.0, 6.0]),
    ]
    for s, layout, values in cases:
        d = s.deriv()
        assert (d.shift, len(d.coeffs), d.trunc) == layout
        assert d.coeffs == values


def test_field_coefficients():
    chart = Chart(("x",))
    f = parse_expression("x", chart)
    g = parse_expression("1+x", chart)
    zero = chart.zero()
    s = Series([g, f], 0, trunc=3, zero=zero)
    sq = s * s
    p = (0.5,)
    assert sq.coefficient(0).value(p) == pytest.approx(2.25)
    assert sq.coefficient(1).value(p) == pytest.approx(2 * 1.5 * 0.5)
    assert sq.coefficient(2).value(p) == pytest.approx(0.25)
    d = s.map(lambda c: c.partial(0))
    assert d.coefficient(0).value(p) == pytest.approx(1.0)
    assert d.coefficient(1).value(p) == pytest.approx(1.0)


@pytest.mark.parametrize("ring", ["float", "field"])
def test_exact_zero_absorbs_a_truncated_series(ring):
    # 0 * (a + O(X^t)) is 0 exactly: no padded zero coefficients, no
    # truncation order, so later sums drop it
    from smmsgeom.ambient import Graded
    if ring == "float":
        z, coeffs = 0.0, [1.0, 2.0, 3.0]
    else:
        chart = Chart(("x",))
        z = chart.zero()
        coeffs = [parse_expression("1+x", chart), chart.constant(2.0)]
    S = Series(coeffs, -1, trunc=3, zero=z)
    zero = Series.zero_series(z)
    for product in (zero * S, S * zero, zero / S):
        assert product.is_zero
    with pytest.raises(ZeroDivisionError):
        S / zero
    with pytest.raises(ZeroDivisionError):
        zero / zero
    assert (Graded(1, zero) * Graded(2, S)).is_zero
    assert (Graded(2, S) * Graded(1, zero)).is_zero


def _field_series(chart, rng):
    """A series over `chart` with a seeded shift (negative too), length and
    truncation (None, or one that may cut everything), whose coefficients
    mix zeros, -0.0, constants, a repeated field and fresh fields."""
    x, y = chart.coordinate(0), chart.coordinate(1)
    pool = [chart.zero(), chart.constant(-0.0), chart.constant(1.25), x * y,
            None, None]
    shift = int(rng.integers(-2, 3))
    count = int(rng.integers(0, 5))
    trunc = None if rng.random() < 0.4 else int(rng.integers(-2, 5))
    if trunc is not None:
        count = max(0, min(count, trunc - shift + 1))
    coeffs = []
    for k in range(count):
        c = pool[int(rng.integers(len(pool)))]
        coeffs.append((x + float(k + shift)) * y if c is None else c)
    return Series(coeffs, shift, trunc, chart.zero())


def _chain(terms):
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def test_nary_series_sum_equals_the_pairwise_chain():
    from smmsgeom.curvature import acc_sum
    from smmsgeom.fields import evaluate
    pts = [(0.3, -0.2), (-0.1, 0.45)]
    rng = np.random.default_rng(11)
    long_sums = 0
    for _ in range(60):
        chart = Chart(("x1", "x2"))
        terms = [_field_series(chart, rng)
                 for _ in range(int(rng.integers(2, 7)))]
        # acc_sum skips the exact zero series, as it did as a chain
        kept = [t for t in terms if not t.is_zero]
        cases = [(Series.sum_of(terms), _chain(terms))]
        if kept:
            cases.append((acc_sum(terms, Series.zero_series(chart.zero())),
                          _chain(kept)))
        for total, chain in cases:
            assert total.trunc == chain.trunc
            top = chain.trunc if chain.trunc is not None else chain.max_stored + 1
            powers = range(min(t.shift for t in terms) - 1, top + 1)
            got = [total.coefficient(p) for p in powers]
            want = [chain.coefficient(p) for p in powers]
            np.testing.assert_array_equal(
                np.asarray(evaluate(got, pts)).view(np.uint64),
                np.asarray(evaluate(want, pts)).view(np.uint64))
            long_sums += sum(c.op == "sum" and len(c.a) > 2 for c in got)
            if chain.trunc is not None:
                with pytest.raises(SeriesTruncationError):
                    total.coefficient(chain.trunc + 1)
    assert long_sums > 0


def test_float_series_sum_is_the_fold():
    # the fold pads rho^1 with 0.0 before it adds the -0.0 there
    terms = [Series([1.0], 0), Series([1.0], 2), Series([-0.0], 1)]
    total = Series.sum_of(terms)
    assert coeffs_of(total, 0, 2) == [1.0, 0.0, 1.0] == coeffs_of(_chain(terms), 0, 2)
    assert np.copysign(1.0, total.coefficient(1)) == 1.0
