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
"""

from __future__ import annotations

from . import curvature as cv
from .ambient import Graded, graded_derivs
from .expansion import RhoExpansion
from .fields import (Chart, Request, SymTensor2Field, max_abs,
                     max_abs_difference)
from .invariants import MetricMeasureSpace
from .series import Series

__all__ = ["PoincareStructure", "PoincareResidual", "to_poincare",
           "poincare_residual", "cone_identity_check"]


class PoincareStructure:
    def __init__(self, base: MetricMeasureSpace, expansion: RhoExpansion,
                 g_r: list, f_r: Series, max_even_order: int):
        self.base = base
        self.expansion = expansion
        self.g_r = g_r  # d x d matrix of even r-series
        self.f_r = f_r
        self.max_even_order = max_even_order

    @property
    def dim(self) -> int:
        return self.base.dim

    def g_plus(self):
        """(d+1) x (d+1) Laurent components, r last; rr entry is r^-2."""
        d = self.dim
        zero = self.base.chart.zero()
        rm2 = Series([self.base.chart.constant(1.0)], -2, None, zero)
        out = [[Series.zero_series(zero)] * (d + 1) for _ in range(d + 1)]
        for i in range(d):
            for j in range(d):
                out[i][j] = rm2 * self.g_r[i][j]
        out[d][d] = rm2
        return out

    def f_plus(self):
        zero = self.base.chart.zero()
        rm1 = Series([self.base.chart.constant(1.0)], -1, None, zero)
        return rm1 * self.f_r


def to_poincare(e: RhoExpansion) -> PoincareStructure:
    """Even r-series from the rho-coefficients: r^(2k) picks up (-1/2)^k."""
    base = e.base
    d = base.dim
    chart = base.chart
    zero = chart.zero()
    trunc = 2 * e.order + 1

    def even_series(coeffs):
        out = [zero] * (trunc + 1)
        for k, c in enumerate(coeffs):
            out[2 * k] = c * (-0.5) ** k if k else c
        return Series(out, 0, trunc, zero)

    g_r = [[even_series([g.comp(i, j) for g in e.g_coeffs]) for j in range(d)]
           for i in range(d)]
    f_r = even_series(list(e.f_coeffs))
    return PoincareStructure(base, e, g_r, f_r, 2 * e.order)


class PoincareResidual:
    def __init__(self, ricci_blocks: dict, f_scalar: Series, trunc: int):
        self.ricci_blocks = ricci_blocks  # name -> list of r-series
        self.f_scalar = f_scalar
        self.trunc = trunc

    def block_max(self, powers, points, names=("ij", "ri", "rr", "F")):
        """The request for max |coefficient| over the r powers of the named
        blocks ("F" is the F scalar) at the points."""
        series = [s for name in names for s in
                  ([self.f_scalar] if name == "F" else self.ricci_blocks[name])]
        return Request(points, lambda v: max_abs(v["coefficients"]),
                       coefficients=[s.coefficient(k) for k in powers
                                     for s in series])


def poincare_residual(p: PoincareStructure) -> PoincareResidual:
    """Exact r-Laurent residual of the weighted-Einstein conditions, built
    only through the r power the branch guarantees, its `trunc`: g_r and
    f_r are cut two powers above it."""
    e = p.expansion
    cut = e.plan.guarantees(e.order).poincare_power + 2
    p = PoincareStructure(p.base, e,
                          [[s.truncated(cut) for s in row] for row in p.g_r],
                          p.f_r.truncated(cut), p.max_even_order)
    base = p.base
    d = base.dim
    n = d + 1
    dm = d + float(base.m)
    gp = p.g_plus()
    fp = p.f_plus()
    # the chart partials, then d/dr
    derivs = cv.partials(d) + [lambda S: S.deriv()]
    geo = cv.Geometry(gp, derivs, Series.zero_series(base.chart.zero()), fp,
                      base.m, base.mu)
    resid = [[geo.ric_phi[a][b] + gp[a][b] * dm for b in range(n)]
             for a in range(n)]
    resid_F = geo.F_phi - (fp * fp) * dm
    blocks = {
        "ij": [resid[i][j] for i in range(d) for j in range(i, d)],
        "ri": [resid[d][i] for i in range(d)],
        "rr": [resid[d][d]],
    }
    trunc = min([s.trunc for row in resid for s in row if s.trunc is not None]
                + ([resid_F.trunc] if resid_F.trunc is not None else []))
    return PoincareResidual(blocks, resid_F, trunc)


# the r at which the cone identities are checked
R = 0.1


def fixed_r_space(p: PoincareStructure):
    """The (d+1)-dimensional smooth metric measure space (g_plus, f_plus)
    realized with honest fields on the (x, r) chart, for evaluation at
    fixed small r; reuses the base tensor machinery verbatim."""
    base = p.base
    d = base.dim
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
            comps[(i, j)] = assemble(p.g_r[i][j]) * rinv2
    comps[(d, d)] = rinv2
    g_plus = SymTensor2Field(chart, comps)
    f_plus = assemble(p.f_r) / r
    return MetricMeasureSpace(chart, g_plus, f_plus, base.m, base.mu)


def cone_identity_check(p: PoincareStructure, *, points) -> Request:
    """The request that verifies both cone identities at r = R and `points`.

    Its result is (worst_ricci, worst_F, sides): the worst absolute
    two-sided disagreements and a sample of the individually nonzero
    side values.
    """
    base = p.base
    d = base.dim
    space_plus = fixed_r_space(p)
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
