"""Jet arithmetic against closed forms and finite differences."""

import math

import numpy as np
import pytest

from smmsgeom.jets import (Jet, JetDivisionError, JetShapeError, jet_count,
                           value_apply, value_quotient)


def jet_of(fn, point, degree):
    """Jet of a python function built from coordinate jets (same-path helper)."""
    n = len(point)
    xs = [Jet.variable(point[i], i, n, degree) for i in range(n)]
    return fn(*xs)


def test_counts_and_prefix_truncation():
    assert jet_count(2, 3) == 10
    assert jet_count(3, 4) == 35
    j = jet_of(lambda x, y: (x * y + x).apply("exp"), (0.3, -0.2), 5)
    t = j.truncated(3)
    assert t.degree == 3
    assert t.coeffs == j.coeffs[: jet_count(2, 3)]


def test_constant_and_coordinate_jets():
    z = Jet.constant(0.0, 2, 2)
    assert z.coeffs == [0.0] * jet_count(2, 2)
    x = Jet.variable(0.3, 0, 2, 2)
    assert x.value == 0.3
    assert x.coefficient((1, 0)) == 1.0
    assert x.coefficient((0, 1)) == 0.0
    assert x.coefficient((2, 0)) == 0.0


def test_multiply_binomials():
    # (1 + x)(1 - x) = 1 - x^2 at degree 2
    x = Jet.variable(0.0, 0, 1, 2)
    p = (1.0 + x) * (1.0 + x * -1.0)
    assert p.coefficient((0,)) == 1.0
    assert p.coefficient((1,)) == 0.0
    assert p.coefficient((2,)) == -1.0


def test_multiply_identity():
    rng = np.random.default_rng(0)
    a = Jet(2, 3, rng.normal(size=jet_count(2, 3)))
    one = Jet.constant(1.0, 2, 3)
    assert (a * one).coeffs == a.coeffs


def test_exp_product_closed_form():
    # exp(x) * exp(2x) = exp(3x): coefficients 3^k / k!
    x = Jet.variable(0.0, 0, 1, 4)
    p = x.apply("exp") * (2.0 * x).apply("exp")
    for k in range(5):
        assert p.coefficient((k,)) == pytest.approx(3.0 ** k / math.factorial(k),
                                                    rel=1e-12)


def test_divide_identity_and_geometric_series():
    rng = np.random.default_rng(1)
    a = Jet(2, 3, rng.normal(size=jet_count(2, 3)))
    one = Jet.constant(1.0, 2, 3)
    np.testing.assert_allclose((a / one).coeffs, a.coeffs, rtol=1e-15)
    x = Jet.variable(0.0, 0, 1, 3)
    g = (1.0 + x).reciprocal()
    assert [g.coefficient((k,)) for k in range(4)] == pytest.approx([1, -1, 1, -1])


def test_tangent_from_quotient():
    # sin/cos at 0.4 must match the tan jet built independently below
    x = Jet.variable(0.4, 0, 1, 4)
    q = x.apply("sin") / x.apply("cos")
    t = math.tan(0.4)
    # tan' = 1 + tan^2 and so on, generated by differentiating recursively
    derivs = [t]
    poly = np.array([t, 1.0])  # tan expressed in powers of tan: coefficients
    for _ in range(4):
        # d/dx (sum c_k tan^k) = sum k c_k tan^(k-1) (1 + tan^2)
        k = np.arange(len(poly))
        dpoly = np.zeros(len(poly) + 1)
        dpoly[:-2] += (k * poly)[1:]
        dpoly[2:] += (k * poly)[1:]
        poly = dpoly
        derivs.append(np.polyval(poly[::-1], t))
    for k, d in enumerate(derivs):
        assert q.coefficient((k,)) == pytest.approx(d / math.factorial(k), rel=1e-10)


def test_division_roundtrip_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a = Jet(3, 4, rng.normal(size=jet_count(3, 4)))
        b = Jet(3, 4, rng.normal(size=jet_count(3, 4)))
        b.coeffs[0] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        back = (a * b) / b
        np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-12, atol=1e-12)


def test_division_pivot_floor():
    b = Jet(1, 2, [1e-12, 1.0, 1.0])
    with pytest.raises(JetDivisionError):
        b.reciprocal()


def test_division_by_an_infinite_coefficient_is_not_a_small_pivot():
    # the floor scales with the largest magnitude: at inf, every constant
    # term was "at or below pivot floor inf"
    message = "a divisor coefficient is not finite"
    with pytest.raises(JetDivisionError, match=message):
        Jet.constant(1.0, 3, 1) / Jet(3, 1, [1.0, math.inf, 0.0, 0.0])
    with pytest.raises(JetDivisionError, match=message):
        value_quotient(1.0, -math.inf)


def test_division_pivot_scale_is_nan_after_a_large_coefficient():
    # the floor scales with the largest magnitude, but a NaN coefficient
    # makes that magnitude NaN (as np.max gives), and max(1, NaN) is 1:
    # the floor stays at 1e-10 however large a coefficient before the NaN
    with pytest.raises(JetDivisionError, match="pivot floor 1.000e-10"):
        Jet(1, 2, [1e-11, 1e5, math.nan]).reciprocal()
    # 1e-8 passes a floor of 1e-10, though not one of 1e-5
    q = Jet(1, 2, [1e-8, 1e5, math.nan]).reciprocal()
    assert q.value == 1e8


def test_an_unknown_primitive_is_rejected():
    # a name outside the seven is an error, not taken for cosh
    x = Jet.variable(0.3, 0, 1, 3)
    for call in (lambda: value_apply("tan", 0.3), lambda: x.apply("tan")):
        with pytest.raises(ValueError,
                           match="unknown analytic primitive 'tan'"):
            call()


def test_shape_mismatch():
    a = Jet.constant(1.0, 2, 2)
    b = Jet.constant(1.0, 2, 3)
    with pytest.raises(JetShapeError):
        a * b


def test_commutativity_up_to_float():
    rng = np.random.default_rng(3)
    a = Jet(2, 4, rng.normal(size=jet_count(2, 4)))
    b = Jet(2, 4, rng.normal(size=jet_count(2, 4)))
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, rtol=1e-14, atol=1e-14)


def test_determinism_bitwise():
    rng = np.random.default_rng(4)
    a = Jet(3, 5, rng.normal(size=jet_count(3, 5)))
    b = Jet(3, 5, rng.normal(size=jet_count(3, 5)))
    np.testing.assert_array_equal((a * b).coeffs, (a * b).coeffs)


def test_partial_shifts_degree():
    f = jet_of(lambda x, y: x ** 2 * y + y ** 3, (1.5, -0.5), 4)
    fx = f.partial(0)
    assert fx.degree == 3
    assert fx.value == pytest.approx(2 * 1.5 * -0.5)
    fxy = fx.partial(1)
    assert fxy.value == pytest.approx(2 * 1.5)


def test_partials_commute_exactly():
    f = jet_of(lambda x, y, z: (x * y).apply("sin") * z.apply("exp"), (0.2, 0.4, -0.3), 5)
    xy = f.partial(0).partial(1)
    yx = f.partial(1).partial(0)
    np.testing.assert_array_equal(xy.coeffs, yx.coeffs)


def fd_derivative(fn, point, alpha, h=1e-2):
    """4th-order central finite difference for the mixed partial d^alpha fn."""
    point = np.asarray(point, dtype=float)

    def diff(g, axis):
        def out(p):
            p = np.asarray(p, dtype=float)
            e = np.zeros_like(p)
            e[axis] = 1.0
            return (-g(p + 2 * h * e) + 8 * g(p + h * e)
                    - 8 * g(p - h * e) + g(p - 2 * h * e)) / (12 * h)
        return out

    g = fn
    for axis, k in enumerate(alpha):
        for _ in range(k):
            g = diff(g, axis)
    return g(point)


@pytest.mark.parametrize("expr,point", [
    (lambda x, y: x.apply("exp") * y.apply("sin"), (0.2, 0.5)),
    (lambda x, y: (x * y).apply("cos") + x ** 3, (0.4, -0.3)),
    (lambda x, y: (1.0 + x ** 2 + y ** 2).apply("sqrt"), (0.3, 0.6)),
    (lambda x, y: (2.0 + x).apply("log") * y.apply("cosh"), (0.1, 0.2)),
    (lambda x, y: x.apply("sinh") / (2.0 + y ** 2), (-0.2, 0.5)),
])
def test_jets_match_finite_differences(expr, point):
    jet = jet_of(expr, point, 3)

    def numeric(p):
        xs = [Jet.variable(v, i, len(p), 0) for i, v in enumerate(p)]
        return expr(*xs).value

    from smmsgeom.jets import _exponent_table
    exps, _ = _exponent_table(2, 3)
    for alpha in exps:
        want = fd_derivative(numeric, point, alpha)
        fact = math.factorial(alpha[0]) * math.factorial(alpha[1])
        got = jet.coefficient(alpha) * fact
        assert got == pytest.approx(want, rel=1e-6, abs=1e-7)


def product_table_loop(nvars, degree):
    """Reference: the product table by a double loop over exponent pairs,
    one total degree of the product at a time."""
    from smmsgeom.jets import _exponent_table
    exps, pos = _exponent_table(nvars, degree)
    ii, jj, kk = [], [], []
    for level in range(degree + 1):
        for i, a in enumerate(exps):
            da = sum(a)
            for j, b in enumerate(exps):
                if da + sum(b) != level:
                    continue
                ii.append(i)
                jj.append(j)
                kk.append(pos[tuple(x + y for x, y in zip(a, b))])
    return ii, jj, kk


@pytest.mark.parametrize("nvars", range(1, 6))
def test_product_table_matches_loop(nvars):
    from smmsgeom.jets import _product_rows, _product_table
    for degree in range(7 if nvars == 5 else 11):
        ii, jj, kk = product_table_loop(nvars, degree)
        assert _product_table(nvars, degree) == (ii, jj, kk)
        # the product's rows: per I, its K in table order, J = 0, 1, ...
        rows = [[] for _ in range(jet_count(nvars, degree))]
        for i, j, k in zip(ii, jj, kk):
            assert j == len(rows[i])
            rows[i].append(k)
        assert list(_product_rows(nvars, degree)) == rows


def division_levels_of_table(nvars, degree):
    """Reference: the division levels read off the product table, each
    level's slice past its I = 0 terms grouped into rows by I."""
    from smmsgeom.jets import _product_table
    ii, jj, kk = _product_table(nvars, degree)
    out, lo = [], 1
    for t in range(1, degree + 1):
        hi = jet_count(nvars, t)
        start = math.comb(2 * nvars + t - 1, t - 1) + hi - lo
        stop = math.comb(2 * nvars + t, t)
        rows = []
        for i, j, k in zip(ii[start:stop], jj[start:stop], kk[start:stop]):
            if not rows or rows[-1][0] != i:
                rows.append((i, [], []))
            rows[-1][1].append(j)
            rows[-1][2].append(k)
        out.append((lo, hi, rows))
        lo = hi
    return tuple(out)


def partial_table_of_exponents(nvars, degree, axis):
    """Reference: the partial table by looking up alpha + e_axis."""
    from smmsgeom.jets import _exponent_table
    exps_out, _ = _exponent_table(nvars, degree - 1)
    _, pos_in = _exponent_table(nvars, degree)
    src = [pos_in[tuple(x + (t == axis) for t, x in enumerate(a))]
           for a in exps_out]
    return src, [float(a[axis] + 1) for a in exps_out]


@pytest.mark.parametrize("nvars,top", [(1, 10), (2, 10), (3, 10), (4, 4),
                                       (5, 2), (6, 2)])
def test_division_and_partial_tables_match_the_table_derived_ones(nvars, top):
    from smmsgeom.jets import _division_levels, _partial_table
    for degree in range(top + 1):
        assert _division_levels(nvars, degree) == division_levels_of_table(
            nvars, degree)
        for axis in range(nvars if degree else 0):
            assert _partial_table(nvars, degree, axis) == \
                partial_table_of_exponents(nvars, degree, axis)


def _random_coeffs(rng, n, nonfinite=False, zeros=0.2):
    """Normal coefficients with exact +0.0 and -0.0 entries (each with
    probability `zeros`) and, with `nonfinite`, some inf, -inf and NaN
    ones, as a list."""
    c = rng.normal(size=n)
    c[rng.random(n) < zeros] = 0.0
    c[rng.random(n) < zeros] = -0.0
    if nonfinite:
        for value in (math.inf, -math.inf, math.nan):
            c[rng.random(n) < 0.05] = value
    return c.tolist()


def _bits(coeffs):
    """The bit patterns, so that signed zeros and NaNs count."""
    return np.asarray(coeffs, dtype=np.float64).view(np.uint64)


@pytest.fixture
def row_kernel(monkeypatch):
    """Nothing planned and nothing compiled, so `a * b` runs the row
    kernel whatever other tests' sweeps planned, and a generated kernel
    is compiled afresh, so that its first calls are checked too."""
    from smmsgeom import jets
    monkeypatch.setattr(jets, "_planned", {})
    monkeypatch.setattr(jets, "_kernels", {})
    jets._product_units.cache_clear()


def _assert_products_match_add_at(nvars, degree, left=None, right=None):
    """a * b by the row kernel, and by the shape's generated kernel,
    against `np.add.at` over the product table, bit for bit, for 200
    random pairs, a drawn by `_random_coeffs` with the options `left`, b
    with `right`."""
    from smmsgeom.jets import _generated_product, _product_table
    rng = np.random.default_rng(nvars * 100 + degree)
    ii, jj, kk = map(np.asarray, _product_table(nvars, degree))
    n = jet_count(nvars, degree)
    generated = _generated_product(nvars, degree)
    for _ in range(200):
        a = Jet(nvars, degree, _random_coeffs(rng, n, **(left or {})))
        b = Jet(nvars, degree, _random_coeffs(rng, n, **(right or {})))
        want = np.zeros(n)
        with np.errstate(invalid="ignore"):
            np.add.at(want, kk, np.asarray(a.coeffs)[ii]
                      * np.asarray(b.coeffs)[jj])
        np.testing.assert_array_equal(_bits((a * b).coeffs), _bits(want))
        np.testing.assert_array_equal(_bits(generated(a.coeffs, b.coeffs)),
                                      _bits(want))


# every shape up to 4 variables and degree 8, and some larger ones
SHAPES = [(nvars, degree) for nvars in range(1, 5) for degree in range(9)] + [
    (6, 2), (5, 4), (3, 10)]


@pytest.mark.parametrize("nvars,degree", SHAPES)
def test_product_matches_add_at_bitwise(row_kernel, nvars, degree):
    # dense operands, then operands with +0.0 and -0.0 entries
    for zeros in (0.0, 0.2):
        _assert_products_match_add_at(nvars, degree, {"zeros": zeros},
                                      {"zeros": zeros})


@pytest.mark.parametrize("nvars,degree", SHAPES)
@pytest.mark.parametrize("sparse", ["left", "right"])
def test_product_rows_of_either_factor_match_add_at(row_kernel, nvars, degree,
                                                    sparse):
    # the rows of the factor with more zeros run, the right one's J
    # descending; each output coefficient keeps its I-ascending sum
    few, many = {"zeros": 0.05}, {"zeros": 0.4}
    _assert_products_match_add_at(
        nvars, degree, *((many, few) if sparse == "left" else (few, many)))


@pytest.mark.parametrize("nvars,degree", SHAPES)
@pytest.mark.parametrize("nonfinite", ["left", "right"])
def test_product_with_nonfinite_factor_matches_add_at(row_kernel, nvars,
                                                      degree, nonfinite):
    # zeros on one side, inf and NaN on the other: a row skipped for its
    # zero coefficient would lose its 0 * inf = NaN terms
    zeros, bad = {"zeros": 0.4}, {"nonfinite": True, "zeros": 0.05}
    _assert_products_match_add_at(
        nvars, degree, *((bad, zeros) if nonfinite == "left"
                         else (zeros, bad)))


def test_product_kernel_by_planned_count_and_density(row_kernel):
    # a shape's dense products run its generated kernel once PAYBACK of
    # its products are planned; a product with a sparse factor keeps the
    # row kernel
    from smmsgeom import jets
    rng = np.random.default_rng(6)
    n = jet_count(3, 4)
    dense = [Jet(3, 4, rng.normal(size=n)) for _ in range(2)]
    sparse = Jet.variable(0.3, 0, 3, 4)  # 2 of 35 coefficients nonzero
    pairs = [(dense[0], dense[1]), (sparse, dense[1]), (dense[0], sparse)]
    want = [_bits((a * b).coeffs) for a, b in pairs]
    jets.plan_products(3, 4, jets.PAYBACK - 1)
    dense[0] * dense[1]
    assert jets._kernels == {}
    jets.plan_products(3, 4, 1)
    sparse * dense[1]
    assert jets._kernels == {}
    calls = []
    kernel = jets._generated_product(3, 4)

    def spy(a, b):
        calls.append(1)
        return kernel(a, b)

    jets._kernels[3, 4] = spy
    for (a, b), bits in zip(pairs, want):
        np.testing.assert_array_equal(_bits((a * b).coeffs), bits)
    assert len(calls) == 1  # the dense pair only
    del jets._kernels[3, 4]
    dense[0] * dense[1]  # compiles
    assert set(jets._kernels) == {(3, 4)}


def divided_by_levels(a, b):
    """Reference: graded long division with each level's terms selected by
    a mask on the product table, I != 0, accumulated by `np.add.at`."""
    from smmsgeom.jets import _exponent_table, _product_table
    exps, _ = _exponent_table(a.nvars, a.degree)
    ii, jj, kk = map(np.asarray, _product_table(a.nvars, a.degree))
    level = np.array([sum(e) for e in exps], dtype=np.intp)
    ac, bc = np.asarray(a.coeffs), np.asarray(b.coeffs)
    c = np.zeros_like(ac)
    acc = np.zeros_like(ac)
    c[0] = ac[0] / bc[0]
    for t in range(1, a.degree + 1):
        sel = (level[kk] == t) & (ii != 0)
        np.add.at(acc, kk[sel], bc[ii[sel]] * c[jj[sel]])
        at = level == t
        c[at] = (ac[at] - acc[at]) / bc[0]
    return c


def _assert_quotients_match_masked_levels(nvars, degree, nonfinite):
    rng = np.random.default_rng(nvars * 100 + degree)
    n = jet_count(nvars, degree)
    for _ in range(100):
        a = Jet(nvars, degree, _random_coeffs(rng, n, nonfinite))
        b = Jet(nvars, degree, _random_coeffs(rng, n))
        b.coeffs[0] = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        with np.errstate(invalid="ignore"):
            want = divided_by_levels(a, b)
        np.testing.assert_array_equal(_bits((a / b).coeffs), _bits(want))


@pytest.mark.parametrize("nvars,degree", [(3, 10), (4, 6), (3, 2), (3, 0),
                                          (5, 4), (1, 8), (2, 5)])
def test_division_matches_masked_levels_bitwise(nvars, degree):
    _assert_quotients_match_masked_levels(nvars, degree, nonfinite=False)


@pytest.mark.parametrize("nvars,degree", [(3, 10), (4, 6), (1, 8), (2, 5)])
def test_division_of_a_nonfinite_dividend_matches_masked_levels(nvars,
                                                                degree):
    # an inf or NaN of the quotient reaches later levels: a divisor row
    # skipped for its zero coefficient would lose its 0 * inf = NaN terms
    _assert_quotients_match_masked_levels(nvars, degree, nonfinite=True)


def test_operations_leave_operands_unchanged():
    # a sweep hands one computed jet to every reader, so no operation may
    # write into an operand's coefficients
    rng = np.random.default_rng(5)
    n = jet_count(2, 4)
    a = Jet(2, 4, rng.normal(size=n))
    b = Jet(2, 4, rng.normal(size=n))
    a.coeffs[0], b.coeffs[0] = 1.5, -0.7
    pos = Jet(2, 4, rng.normal(size=n))
    pos.coeffs[0] = 2.0
    low = a.truncated(2)
    jets = (a, b, pos, low)
    before = [list(j.coeffs) for j in jets]
    ops = [
        lambda: a + b, lambda: a + 2.0, lambda: 2.0 + a,
        lambda: a * b, lambda: a * 2.0, lambda: 2.0 * a,
        lambda: a / b, lambda: a / 2.0, lambda: a.reciprocal(),
        lambda: a ** 3, lambda: a ** -2, lambda: a ** 0,
        lambda: a.apply("exp"), lambda: pos.apply("log"), lambda: pos.apply("sqrt"), lambda: a.apply("sin"),
        lambda: a.apply("cos"), lambda: a.apply("sinh"), lambda: a.apply("cosh"),
        lambda: a.compose([1.0, 2.0, 3.0, 4.0, 5.0]),
        lambda: a.partial(0), lambda: a.partial(1), lambda: a.promote(2),
        lambda: a.truncated(1), lambda: low * low, lambda: low + 1.0,
        lambda: low.apply("exp"), lambda: low.promote(1), lambda: low.partial(0),
    ]
    for op in ops:
        op()
    assert [j.coeffs for j in jets] == before
    assert low.coeffs == a.coeffs[:jet_count(2, 2)]
