"""Curvature and weighted-invariant oracles: space forms, hand values,
finite differences, and the exact identities."""

import numpy as np
import pytest

from smmsgeom import curvature as cv
from smmsgeom.expressions import parse_expression
from smmsgeom.fields import (Chart, Request, SymTensor2Field, evaluate, max_abs,
                             sample_points)
from smmsgeom import invariants as inv
from smmsgeom.invariants import MetricMeasureSpace, ValidationError


def euclidean_space(m=1.0, mu=0.0, f_expr="1", d=3):
    chart = Chart([f"x{i+1}" for i in range(d)],
                  box=[(-0.5, 0.5)] * d)
    g = inv.euclidean_metric(chart)
    f = parse_expression(f_expr, chart)
    return MetricMeasureSpace(chart, g, f, m, mu)


def sphere_space(m=0.0, mu=0.0, f_expr="1"):
    """Unit round 3-sphere in stereographic coordinates: g = 4 delta/(1+|x|^2)^2."""
    chart = Chart(("x1", "x2", "x3"), box=[(-0.4, 0.4)] * 3)
    conf = parse_expression("4/((1+x1^2+x2^2+x3^2)^2)", chart)
    g = SymTensor2Field(chart, {(i, i): conf for i in range(3)})
    return MetricMeasureSpace(chart, g, parse_expression(f_expr, chart), m, mu)


def values(t, p):
    """A nested list of fields at the point p, as an array of its shape."""
    arr = np.array(t, dtype=object)
    return np.asarray(evaluate(arr.ravel().tolist(), [p])).reshape(arr.shape)


def random_space(seed, d=3, m=1.0, mu=0.0, amplitude=0.05):
    from smmsgeom.catalog import random_entry
    return random_entry(d=d, m=m, mu=mu, seed=seed, amplitude=amplitude).space


# -- connection ---------------------------------------------------------------


def test_christoffel_flat_zero():
    s = euclidean_space()
    gamma = s.geometry.gamma
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert gamma[k][i][j].is_zero


def test_christoffel_round_2sphere_polar():
    chart = Chart(("theta", "phi"))
    g = SymTensor2Field(chart, {(0, 0): chart.constant(1.0),
                                (1, 1): parse_expression("sin(theta)^2", chart)})
    gamma = cv.Geometry(g.as_matrix(), cv.partials(2), chart.zero()).gamma
    theta = 0.7
    want = -np.sin(theta) * np.cos(theta)
    assert gamma[0][1][1].value((theta, 1.2)) == pytest.approx(want, abs=1e-10)
    # metric compatibility: nabla g = 0 via direct assembly
    derivs = [lambda F, i=i: F.partial(i) for i in range(2)]
    mat = g.as_matrix()
    for k in range(2):
        for i in range(2):
            for j in range(2):
                terms = derivs[k](mat[i][j])
                val = terms.value((theta, 1.2))
                for p in range(2):
                    val -= gamma[p][k][i].value((theta, 1.2)) * mat[p][j].value((theta, 1.2))
                    val -= gamma[p][k][j].value((theta, 1.2)) * mat[i][p].value((theta, 1.2))
                assert abs(val) < 1e-10


def test_christoffel_conformal_closed_form():
    chart = Chart(("x1", "x2", "x3"))
    e2u = parse_expression("exp(2*x1)", chart)
    g = SymTensor2Field(chart, {(i, i): e2u for i in range(3)})
    gamma = cv.Geometry(g.as_matrix(), cv.partials(3), chart.zero()).gamma
    p = (0.2, -0.1, 0.3)
    assert gamma[0][0][0].value(p) == pytest.approx(1.0, abs=1e-12)
    assert gamma[0][1][1].value(p) == pytest.approx(-1.0, abs=1e-12)
    assert gamma[1][0][1].value(p) == pytest.approx(1.0, abs=1e-12)


# -- curvature ----------------------------------------------------------------


def test_flat_curvature_zero():
    s = euclidean_space()
    assert s.geometry.scal.is_zero
    ric = s.geometry.ric
    for i in range(3):
        for j in range(3):
            assert ric[i][j].is_zero


def test_round_2sphere_scalar():
    chart = Chart(("theta", "phi"))
    g = SymTensor2Field(chart, {(0, 0): chart.constant(1.0),
                                (1, 1): parse_expression("sin(theta)^2", chart)})
    scal = cv.Geometry(g.as_matrix(), cv.partials(2), chart.zero()).scal
    assert scal.value((0.9, 0.4)) == pytest.approx(2.0, abs=1e-10)


def test_hyperbolic_plane_scalar():
    chart = Chart(("x", "y"))
    conf = parse_expression("1/(y^2)", chart)
    g = SymTensor2Field(chart, {(0, 0): conf, (1, 1): conf})
    scal = cv.Geometry(g.as_matrix(), cv.partials(2), chart.zero()).scal
    assert scal.value((0.3, 1.7)) == pytest.approx(-2.0, abs=1e-10)


def test_round_3sphere_positive_curvature():
    s = sphere_space()
    p = (0.1, -0.2, 0.15)
    assert s.geometry.scal.value(p) == pytest.approx(6.0, abs=1e-9)
    ric = s.geometry.ric
    gm = np.asarray(s.g.matrix_values(p))
    for i in range(3):
        for j in range(3):
            assert ric[i][j].value(p) == pytest.approx(2.0 * gm[i, j], abs=1e-9)


def test_riemann_symmetries_sampled():
    s = random_space(5)
    p = (0.2, -0.3, 0.1)
    v = values(s.geometry.rm, p)
    assert np.allclose(v, -v.transpose(1, 0, 2, 3), atol=1e-12)
    assert np.allclose(v, -v.transpose(0, 1, 3, 2), atol=1e-12)
    assert np.allclose(v, v.transpose(2, 3, 0, 1), atol=1e-12)
    # first Bianchi symmetry holds for the computed tensor
    assert np.allclose(v + v.transpose(0, 2, 3, 1) + v.transpose(0, 3, 1, 2), 0,
                       atol=1e-10)


# -- validation ---------------------------------------------------------------


def test_m_zero_requires_unit_density():
    with pytest.raises(ValidationError):
        euclidean_space(m=0.0, f_expr="1+x1^2")
    euclidean_space(m=0.0, f_expr="1")


def test_dimension_and_positivity_checks():
    with pytest.raises(ValidationError):
        chart = Chart(("x1", "x2"))
        MetricMeasureSpace(chart, inv.euclidean_metric(chart),
                           chart.constant(1.0), 1.0, 0.0)
    s = euclidean_space(f_expr="x1+0.2")
    with pytest.raises(ValidationError):
        s.check_at([(0.0, 0.0, 0.0), (-0.4, 0.0, 0.0)])


# -- weighted invariants -------------------------------------------------------


def test_weighted_ricci_trivial_cases():
    s = euclidean_space(m=3.0, mu=0.7)
    ric = inv.weighted_ricci(s)
    for i in range(3):
        for j in range(3):
            assert ric.comp(i, j).is_zero

    s2 = random_space(3, m=1.0)
    s2 = MetricMeasureSpace(s2.chart, s2.g, s2.chart.constant(1.0), 0.0, 0.0)
    p = (0.1, 0.2, -0.3)
    got = inv.weighted_ricci(s2).matrix_values(p)
    want = SymTensor2Field.from_matrix(s2.chart,
                                       s2.geometry.ric).matrix_values(p)
    assert np.allclose(got, want, atol=0)


def test_weighted_ricci_hand_value_and_fd_hessian():
    s = euclidean_space(m=2.0, f_expr="1+x1^2")
    origin = (0.0, 0.0, 0.0)
    ric = np.asarray(inv.weighted_ricci(s).matrix_values(origin))
    assert np.allclose(ric, np.diag([-4.0, 0.0, 0.0]), atol=1e-12)
    # finite-difference Hessian oracle: flat chart, Hess f = d^2 f
    h = 1e-3

    def f(x):
        return 1 + x[0] ** 2

    fd = (f((h, 0, 0)) - 2 * f(origin) + f((-h, 0, 0))) / h ** 2
    assert ric[0, 0] == pytest.approx(-(s.m / f(origin)) * fd, rel=1e-6)


def test_weighted_scalar_closed_forms():
    s = euclidean_space(m=2.5, mu=0.8)
    assert s.geometry.scal_phi.value((0.1, 0.2, 0.3)) == pytest.approx(
        2.5 * 1.5 * 0.8, rel=1e-12)
    s0 = random_space(7, m=1.0)
    s0 = MetricMeasureSpace(s0.chart, s0.g, s0.chart.constant(1.0), 0.0, 0.0)
    p = (0.905 * 0.2, -0.1, 0.22)
    assert s0.geometry.scal_phi.value(p) == pytest.approx(
        s0.geometry.scal.value(p), rel=1e-12)
    sph = sphere_space(m=3.0)
    p = (0.05, 0.1, -0.2)
    assert sph.geometry.scal_phi.value(p) == pytest.approx(
        sph.geometry.scal.value(p), rel=1e-9)


def test_f_curvature_closed_forms():
    s = euclidean_space(m=4.0, mu=0.3)
    assert s.geometry.F_phi.value((0.2, 0.0, 0.1)) == pytest.approx(
        -(4.0 - 1) * 0.3, rel=1e-12)
    s1 = euclidean_space(m=1.0, mu=0.9)
    assert s1.geometry.F_phi.value((0.2, 0.0, 0.1)) == 0.0
    s2 = euclidean_space(m=2.0, mu=0.0, f_expr="1+x1^2")
    assert s2.geometry.F_phi.value((0.0, 0.0, 0.0)) == pytest.approx(2.0, rel=1e-12)


def test_trace_identity_random_spaces():
    for seed in range(10):
        s = random_space(seed, m=0.5 + 0.3 * seed, mu=0.1 * seed - 0.4)
        pts = s.sample(20, seed=100 + seed)
        ric = inv.weighted_ricci(s)
        rphi = s.geometry.scal_phi
        fphi = s.geometry.F_phi
        d = s.dim
        v = Request(pts, g=s.g.entries(), ric=ric.entries(),
                    f=[s.f, fphi, rphi]).result()
        for gm, rv, (fv, Fv, Rv) in zip(v["g"], v["ric"], v["f"]):
            tr = float(np.trace(np.linalg.inv(np.reshape(gm, (d, d)))
                                @ np.reshape(rv, (d, d))))
            want = tr - (s.m / fv ** 2) * Fv
            assert Rv == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_schouten_euclidean_mu_closed_form():
    d, m, mu = 3, 2.0, 0.7
    s = euclidean_space(m=m, mu=mu)
    P, J, Y = inv.schouten(s)
    p = (0.3, -0.2, 0.1)
    J_want = m * (m - 1) * mu / (2 * (d + m - 1))
    assert J.value(p) == pytest.approx(J_want, rel=1e-12)
    for i in range(3):
        assert P.comp(i, i).value(p) == pytest.approx(-J_want / (d + m - 2), rel=1e-12)
    assert Y.value(p) == pytest.approx(J_want + d * J_want / (d + m - 2), rel=1e-12)


def test_schouten_round_sphere_m0():
    s = sphere_space(m=0.0)
    P, J, _ = inv.schouten(s)
    p = (0.1, 0.2, -0.1)
    gm = np.asarray(s.g.matrix_values(p))
    assert J.value(p) == pytest.approx(1.5, abs=1e-9)
    for i in range(3):
        for j in range(3):
            assert P.comp(i, j).value(p) == pytest.approx(gm[i, j] / 2, abs=1e-9)


def test_schouten_reconstruction_random():
    for seed in (0, 4):
        s = random_space(seed, m=1.3, mu=0.2)
        P, J, _ = inv.schouten(s)
        ric = inv.weighted_ricci(s)
        for p in s.sample(3, seed=50 + seed):
            gm = np.asarray(s.g.matrix_values(p))
            lhs = (s.dim + s.m - 2) * np.asarray(P.matrix_values(p)) + J.value(p) * gm
            assert np.allclose(lhs, ric.matrix_values(p), atol=1e-10)


def test_schouten_degenerate_dimension_rejected():
    chart = Chart([f"x{i}" for i in range(3)], box=[(-0.5, 0.5)] * 3)
    s = MetricMeasureSpace(chart, inv.euclidean_metric(chart),
                           chart.constant(1.0), 0.0, 0.0)
    # d + m = 3 is fine; force the degenerate case d + m = 2 via a fake m
    s_bad = MetricMeasureSpace(chart, inv.euclidean_metric(chart),
                               chart.constant(1.0), 0.0, 0.0)
    s_bad.m = -1.0  # bypass construction check to hit the denominator guard
    with pytest.raises(ZeroDivisionError):
        inv.schouten(s_bad)


def test_kulkarni_nomizu_orthonormal_value():
    s = euclidean_space()
    g = s.g.as_matrix()
    v = values(cv.kulkarni_nomizu(g, g, s.chart.zero()), (0.0, 0.0, 0.0))
    assert v[0, 1, 0, 1] == pytest.approx(2.0)
    assert v[0, 1, 1, 0] == pytest.approx(-2.0)
    assert v[0, 1, 0, 2] == 0.0
    assert np.array_equal(v, -v.transpose(1, 0, 2, 3))
    assert np.array_equal(v, -v.transpose(0, 1, 3, 2))
    assert np.array_equal(v, v.transpose(2, 3, 0, 1))


def test_independent_components_follow_the_symmetries():
    r = range(3)
    t4 = [[[[(i, j, k, l) for l in r] for k in r] for j in r] for i in r]
    assert inv.independent_components(t4) == [
        (0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 1, 2),
        (0, 2, 0, 2), (0, 2, 1, 2), (1, 2, 1, 2)]
    t3 = [[[(i, j, k) for k in r] for j in r] for i in r]
    assert inv.independent_components(t3) == [
        (i, j, k) for i, j in ((0, 1), (0, 2), (1, 2)) for k in r]


def test_weyl_cotton_flat_zero():
    s = euclidean_space(m=1.0, mu=0.0)
    p = (0.2, 0.1, -0.3)
    assert np.allclose(values(s.geometry.weyl, p), 0.0, atol=1e-14)
    assert np.allclose(values(s.geometry.cotton, p), 0.0, atol=1e-14)


def test_weyl_vanishes_on_space_form():
    s = sphere_space(m=0.0)
    A = values(s.geometry.weyl, (0.1, -0.2, 0.05))
    assert A.shape == (3, 3, 3, 3)
    assert np.allclose(A, 0.0, atol=1e-9)


def test_bach_flat_zero():
    s = euclidean_space(m=1.0, mu=0.0)
    B = inv.weighted_bach(s)
    assert np.allclose(B.matrix_values((0.1, 0.2, 0.3)), 0.0, atol=1e-14)


def test_bach_symmetry_random():
    s = random_space(9, m=1.0)
    for p in s.sample(2, seed=3):
        scale = inv.curvature_scale(s, [p]).result()
        assert inv.bach_asymmetry(s, p) <= 1e-9 * max(scale, 1.0)


def test_bach_vanishes_on_quasi_einstein():
    # the second-order relation forces B = 0 whenever the closed-form
    # coefficients satisfy g'' = 2 P.P, which quasi-Einstein spaces do
    from smmsgeom.catalog import hyperbolic_upper_half_space
    s = hyperbolic_upper_half_space(d=3, m=2.0)
    B = inv.weighted_bach(s)
    pts = s.sample(4, seed=6)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    for p in pts:
        assert np.max(np.abs(B.matrix_values(p))) <= 1e-9 * scale


def test_bianchi_residual_trivial_and_exact():
    s = euclidean_space(m=2.0, mu=0.0)
    res = s.geometry.bianchi
    for r in res:
        assert r.is_zero

    sph = sphere_space(m=2.0, mu=1.0)
    res = sph.geometry.bianchi
    for p in [(0.1, 0.0, -0.2), (0.25, 0.1, 0.3)]:
        for r in res:
            assert abs(r.value(p)) < 1e-10


def test_bianchi_residual_random_spaces():
    for seed in range(10):
        s = random_space(seed, m=1.7 if seed == 0 else 0.4 + 0.37 * seed,
                         mu=0.05 * seed)
        pts = s.sample(2, seed=40 + seed)
        scale = max(inv.curvature_scale(s, pts).result(), 1.0)
        for p in pts:
            for r in s.geometry.bianchi:
                assert abs(r.value(p)) <= 1e-8 * scale


def test_m_to_zero_continuity():
    s_eps = sphere_space(m=1e-6)
    s_cls = sphere_space(m=0.0)
    p = (0.12, -0.05, 0.2)
    P_eps, J_eps, _ = inv.schouten(s_eps)
    P_cls, J_cls, _ = inv.schouten(s_cls)
    assert J_eps.value(p) == pytest.approx(J_cls.value(p), rel=1e-4)
    assert np.allclose(P_eps.matrix_values(p), P_cls.matrix_values(p), rtol=1e-4)
    assert s_eps.geometry.scal_phi.value(p) == pytest.approx(
        s_cls.geometry.scal_phi.value(p), rel=1e-4)


def test_conformal_change_basics():
    s = euclidean_space(m=2.0, mu=0.1, f_expr="1+0.1*x1")
    u0 = s.chart.zero()
    s_same = inv.conformal_change(s, u0)
    p = (0.2, -0.1, 0.3)
    assert np.allclose(s_same.g.matrix_values(p), s.g.matrix_values(p))
    assert s_same.f.value(p) == pytest.approx(s.f.value(p))
    const = s.chart.constant(0.3)
    s_scaled = inv.conformal_change(s, const)
    assert np.allclose(s_scaled.g.matrix_values(p),
                       np.exp(0.6) * np.asarray(s.g.matrix_values(p)),
                       rtol=1e-14)
    assert s_scaled.f.value(p) == pytest.approx(np.exp(0.3) * s.f.value(p), rel=1e-14)


# a dense metric and density at d = 2, where no space is validated
PLANE = {"g11": "1+0.05*(x1*x2+sin(x2))", "g12": "0.05*cos(x1-0.3*x2)",
         "g22": "1+0.05*(x1-x2^2)", "f": "1+0.05*(sin(x1)+x2)"}


@pytest.mark.parametrize("m", [0.0, 0.5])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_coordinate_formula_matches_the_geometry_on_a_chart(d, m):
    # the second-derivative route of the ambient checks, on a plain chart,
    # against the Christoffel route of Geometry; at m = 0 the density is 1
    if d == 2:
        chart = Chart(("x1", "x2"), box=[(-0.5, 0.5)] * 2)
        g = [[parse_expression(PLANE[f"g{min(i, j) + 1}{max(i, j) + 1}"],
                               chart) for j in range(2)] for i in range(2)]
        f = parse_expression(PLANE["f"], chart)
    else:
        s = random_space(21, d=d, m=0.5)
        chart, g, f = s.chart, s.g.as_matrix(), s.f
    if m == 0.0:
        f = chart.constant(1.0)
    geo = cv.Geometry(g, cv.partials(d), chart.zero(), f, m, 0.1)
    ric, F = cv.weighted_ricci_coordinate_formula(
        g, geo.ginv, f, m, 0.1, cv.partials(d), chart.zero())
    pts = sample_points(chart, 2, seed=7)
    got = np.asarray(evaluate([x for row in ric for x in row] + [F], pts))
    want = np.asarray(evaluate(
        [x for row in geo.ric_phi for x in row] + [geo.F_phi], pts))
    scale = max(1.0, max_abs(want))
    assert max_abs(got - want) <= 1e-10 * scale


class _Counted:
    """A free ring element that counts the products it takes part in."""

    products = 0
    is_zero = False

    def _new(self, other=None):
        return _Counted()

    __add__ = __radd__ = __sub__ = __rsub__ = __neg__ = _new
    __truediv__ = __rtruediv__ = _new

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted()

    __rmul__ = __mul__


def _formula_products(n):
    """Products made by a full coordinate-formula build on a dense n x n
    metric with a nonconstant density."""
    _Counted.products = 0
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = _Counted()
    ginv = [[_Counted() for _ in range(n)] for _ in range(n)]
    derivs = [lambda a: _Counted() for _ in range(n)]
    cv.weighted_ricci_coordinate_formula(g, ginv, _Counted(), 0.5, 0.1,
                                         derivs, 0.0)
    return _Counted.products


def test_coordinate_formula_costs_n4_products():
    # O(n^4) gives about 1.5^4 = 5.1 from n = 4 to 6, O(n^6) about 11.4
    assert _formula_products(6) / _formula_products(4) < 1.5 ** 5
