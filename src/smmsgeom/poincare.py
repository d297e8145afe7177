"""Conformally compact (asymptotically hyperbolic) form of the expansion.

Substituting rho = -r^2/2 into the deformation turns the ambient
structure into

    g_plus = r^-2 (dr^2 + g_r),        f_plus = r^-1 f_r,

with g_r the even r-series whose r^(2k) coefficient is (-1/2)^k times
the rho^k coefficient.  The structure is weighted-Einstein to the
transported orders:

    Ric_phi(g_plus) + (d+m) g_plus  and  F_phi(g_plus) - (d+m) f_plus^2

vanish as r-series to twice the rho order.  Two independent routes
compute this residual: exact truncated Laurent series in r (poles of
g_plus cleared algebraically, no finite differencing; built only
through the r power the branch guarantees, the one its check reads),
and an honest (d+1)-dimensional smooth metric measure space on an
(x, r) chart evaluated at fixed small r, which also drives the cone
identity

    Ric_phi(s^2 g_plus - ds^2) = Ric_phi(g_plus) + (d+m) g_plus,
    F(s^2 g_plus - ds^2)       = F_phi(g_plus) - (d+m) f_plus^2.

Both checks, `poincare_residual` and `cone_identity_check`, take the
expansion and their points and return a request of unscaled
measurements; the caller holds them to its limits.
"""

from __future__ import annotations

from . import curvature as cv
from .ambient import Graded, coefficient_maxima, graded_derivs
from .expansion import RhoExpansion
from .fields import (Chart, Request, SymTensor2Field, max_abs,
                     max_abs_difference)
from .invariants import MetricMeasureSpace
from .series import Series

__all__ = ["even_series", "laurent_metric", "residual_series",
           "poincare_residual", "cone_identity_check"]


def even_series(e: RhoExpansion, last: int):
    """(g_r, f_r): the d x d matrix of even r-series and the even r-series
    of the rho-coefficients of `e`, cut after r^last; the r^(2k)
    coefficient is (-1/2)^k times the rho^k one."""
    zero = e.base.chart.zero()

    def series(coeffs):
        out = [zero] * (last + 1)
        for k, c in enumerate(coeffs[:last // 2 + 1]):
            out[2 * k] = c * (-0.5) ** k if k else c
        return Series(out, 0, last, zero)

    d = e.base.dim
    return ([[series([g.comp(i, j) for g in e.g_coeffs]) for j in range(d)]
             for i in range(d)], series(e.f_coeffs))


def laurent_metric(e: RhoExpansion, last: int):
    """(g_plus, f_plus) of `e` as r-Laurent series: the (d+1) x (d+1)
    components of g_plus = r^-2 (dr^2 + g_r), r last, whose rr entry is
    exactly r^-2, and f_plus = r^-1 f_r, with g_r and f_r cut after
    r^last."""
    g_r, f_r = even_series(e, last)
    d, chart = e.base.dim, e.base.chart
    zero = chart.zero()
    rm2 = Series([chart.constant(1.0)], -2, None, zero)
    g_plus = [[Series.zero_series(zero)] * (d + 1) for _ in range(d + 1)]
    for i in range(d):
        for j in range(d):
            g_plus[i][j] = rm2 * g_r[i][j]
    g_plus[d][d] = rm2
    return g_plus, Series([chart.constant(1.0)], -1, None, zero) * f_r


def residual_series(e: RhoExpansion) -> list:
    """The exact r-Laurent residual of the weighted-Einstein conditions
    of `e`: the upper triangle of the chart block of
    Ric_phi(g_plus) + (d+m) g_plus, its r row (the d mixed entries, then
    rr) and F_phi(g_plus) - (d+m) f_plus^2.  Each is built through
    exactly the r power P = 2 solved - 1 that the branch guarantees,
    from g_r and f_r cut two powers above it (g_plus is r^-2 times
    them)."""
    base = e.base
    d = base.dim
    n = d + 1
    dm = d + float(base.m)
    gp, fp = laurent_metric(e, e.plan.guarantees(e.order).poincare_power + 2)
    # the chart partials, then d/dr
    derivs = cv.partials(d) + [lambda S: S.deriv()]
    geo = cv.Geometry(gp, derivs, Series.zero_series(base.chart.zero()), fp,
                      base.m, base.mu)
    resid = [[geo.ric_phi[a][b] + gp[a][b] * dm for b in range(n)]
             for a in range(n)]
    return ([resid[i][j] for i in range(d) for j in range(i, d)]
            + [resid[d][i] for i in range(d)]
            + [resid[d][d], geo.F_phi - (fp * fp) * dm])


def poincare_residual(e: RhoExpansion, points) -> Request:
    """The request for the max |r^k coefficient| of `residual_series(e)`
    at `points`, for k = -2 through the guaranteed power P, one maximum
    per power: a series cut short of P is a SeriesTruncationError, not
    a shorter check."""
    power = e.plan.guarantees(e.order).poincare_power
    return coefficient_maxima(residual_series(e), range(-2, power + 1),
                              points)


# the r at which the cone identities are checked
R = 0.1


def fixed_r_space(e: RhoExpansion):
    """The (d+1)-dimensional smooth metric measure space (g_plus, f_plus)
    of `e` realized with honest fields on the (x, r) chart, for
    evaluation at fixed small r; reuses the base tensor machinery
    verbatim."""
    base = e.base
    d = base.dim
    g_r, f_r = even_series(e, 2 * e.order + 1)
    chart = Chart(tuple(base.chart.names) + ("r",))
    r = chart.coordinate(d)
    rinv2 = 1.0 / (r * r)

    def assemble(series):
        acc = chart.zero()
        for power, c in zip(range(series.shift, series.max_stored + 1),
                            series.coeffs):
            if getattr(c, "is_zero", False):
                continue
            acc = acc + chart.lift(c) * (r ** power if power else 1.0)
        return acc

    comps = {}
    for i in range(d):
        for j in range(i, d):
            comps[(i, j)] = assemble(g_r[i][j]) * rinv2
    comps[(d, d)] = rinv2
    g_plus = SymTensor2Field(chart, comps)
    f_plus = assemble(f_r) / r
    return MetricMeasureSpace(chart, g_plus, f_plus, base.m, base.mu)


def cone_identity_check(e: RhoExpansion, points) -> Request:
    """The request that verifies both cone identities of `e` at r = R and
    `points`.

    Its result is (worst_ricci, worst_F, sides): the worst absolute
    two-sided disagreements and a sample of the individually nonzero
    side values.
    """
    base = e.base
    d = base.dim
    space_plus = fixed_r_space(e)
    chart = space_plus.chart
    dm = d + float(base.m)
    xr_points = [tuple(pt) + (R,) for pt in points]
    geo = space_plus.geometry

    # cone side: gc = s^2 g_plus - ds^2 with the s slot graded out
    zero = chart.zero()
    n = d + 2
    gmat, ginv_f = geo.g, geo.ginv
    zero_g = Graded(0, zero)
    gc = [[zero_g] * n for _ in range(n)]
    gcinv = [[zero_g] * n for _ in range(n)]
    gc[0][0] = Graded(0, chart.constant(-1.0))
    gcinv[0][0] = Graded(0, chart.constant(-1.0))
    for a in range(d + 1):
        for b in range(d + 1):
            gc[a + 1][b + 1] = Graded(2, gmat[a][b])
            gcinv[a + 1][b + 1] = Graded(-2, ginv_f[a][b])
    fc = Graded(1, space_plus.f)
    mu_elem = Graded(0, chart.constant(base.mu))
    ric_cone, F_cone = cv.weighted_ricci_coordinate_formula(
        gc, gcinv, fc, float(base.m), mu_elem, graded_derivs(d + 1, zero_g),
        zero_g)

    pairs = [(a, b) for a in range(d + 1) for b in range(a, d + 1)]

    def reduce(v):
        rhs = [[r + dm * g for r, g in zip(rr, gr)]
               for rr, gr in zip(v["ric"], v["g"])]
        rhs_F = [Fv - dm * fv ** 2 for (Fv,), (fv,) in zip(v["F"], v["f"])]
        return (max_abs_difference(v["lhs"], rhs),
                max_abs([x - y for (x,), y in zip(v["lhs_F"], rhs_F)]),
                max(max_abs(rhs), max_abs(rhs_F)))

    return Request(
        xr_points, reduce, lhs=[ric_cone[a + 1][b + 1].val for a, b in pairs],
        ric=[geo.ric_phi[a][b] for a, b in pairs],
        g=[space_plus.g.comp(a, b) for a, b in pairs],
        lhs_F=[F_cone.val], F=[geo.F_phi], f=[space_plus.f])
