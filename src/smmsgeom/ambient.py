"""The assembled (d+2)-dimensional ambient structure and its residuals.

Coordinates are ordered (t, x^1..x^d, rho); the t slot is index 0 and
the rho slot index d+1 (displayed as "oo").  Every component of the
structure

    gt = 2 rho dt^2 + 2 t drho dt + t^2 g_rho,     ft = t f_rho

is homogeneous in t, so t is carried symbolically: an ambient scalar is
a pair (t-power, series in rho over chart fields) and numerics never
sample the t direction.  d/dt multiplies by the power and lowers it;
d/drho differentiates the series; spatial derivatives map through to
the coefficient fields.

Two independent routes to the weighted Ricci tensor are kept: the
closed-form rho-series expression used by the order-by-order solver
(ij block and the F scalar), and the generic second-derivative
coordinate formula evaluated on the graded components (all blocks).
Their agreement is a standing self-test.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from . import curvature as cv
from .expansion import RhoExpansion, closed_form_residual_series
from .fields import Request, max_abs
from .invariants import curvature_scale
from .series import Series, SeriesTruncationError

__all__ = ["Graded", "graded_derivs", "AmbientMetric", "BlockReport",
           "order_report"]


class Graded:
    """A t-homogeneous ambient scalar: t**deg times a rho-series."""

    __slots__ = ("deg", "val")

    def __init__(self, deg: int, val: Series):
        self.deg = deg
        self.val = val

    @property
    def is_zero(self) -> bool:
        return getattr(self.val, "is_zero", False)

    def _coerce(self, other):
        if isinstance(other, Graded):
            return other
        if isinstance(other, (int, float)):
            if other == 0.0:
                return Graded(self.deg, self.val * 0.0)
            raise TypeError("a bare number has no t-grading; wrap it explicitly")
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # an exact zero carries no t-degree or truncation information
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.deg != other.deg:
            raise ValueError(
                f"adding ambient scalars of different t-degree "
                f"({self.deg} vs {other.deg}); the structure is homogeneous, "
                f"so this indicates an assembly bug")
        return Graded(self.deg, self.val + other.val)

    __radd__ = __add__

    @staticmethod
    def sum_of(terms):
        """The left fold of `+` over `terms`: one graded scalar whose value
        is the n-ary sum of theirs when they share one t-degree; terms of
        unequal degree are folded (an exact zero may be among them)."""
        deg = terms[0].deg
        if any(t.deg != deg for t in terms):
            return reduce(add, terms)
        return Graded(deg, cv.fold_sum([t.val for t in terms]))

    def __neg__(self):
        return Graded(self.deg, -self.val)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Graded(self.deg, self.val * other)
        if isinstance(other, Graded):
            # an exact zero absorbs, as in __add__ it carries no t-degree
            if self.is_zero:
                return self
            if other.is_zero:
                return other
            return Graded(self.deg + other.deg, self.val * other.val)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Graded(self.deg, self.val * (1.0 / other))
        if isinstance(other, Graded):
            return Graded(self.deg - other.deg, self.val / other.val)
        return NotImplemented

    def d_t(self, zero) -> "Graded":
        """d/dt: t**deg becomes deg t**(deg-1).  At degree 0 it is `zero`,
        an exact zero: such a scalar is t-independent exactly, whatever the
        truncation of its value."""
        if self.deg == 0:
            return zero
        return Graded(self.deg - 1, self.val * float(self.deg))

    def partial(self, i: int) -> "Graded":
        """The chart partial d/dx^i of the value."""
        return Graded(self.deg, self.val.partial(i))

    def truncated(self, order: int) -> "Graded":
        """The rho-series cut after its rho^order coefficient; an exact
        zero, or a series cut at or before that order, is returned as it
        is."""
        trunc = self.val.trunc
        if self.is_zero or trunc is not None and trunc <= order:
            return self
        return Graded(self.deg, self.val.truncated(order))

    def __repr__(self):
        return f"Graded(t^{self.deg}, {self.val!r})"


def graded_derivs(dim: int, zero: Graded):
    """[d/dt, d/dx^0, .., d/dx^(dim-1)] on Graded scalars, with `zero` the
    exact zero that d/dt gives at degree 0."""
    return [lambda a: a.d_t(zero)] + cv.partials(dim)


class AmbientMetric:
    """gt and ft assembled from a deformation expansion.

    Component indices run 0 (the t slot), 1..d (the chart), d+1 (the
    rho slot).  The normal form is structural: gt[oo][oo] = 0,
    gt[oo][i] = 0 and gt[0][oo] = t exactly.
    """

    def __init__(self, expansion: RhoExpansion):
        self.expansion = expansion
        self.base = expansion.base
        chart = self.base.chart
        d = self.base.dim
        self.d = d
        self.n = d + 2
        self.oo = d + 1
        zero_f = chart.zero()
        self._zero_series = Series.zero_series(zero_f)
        self.zero = Graded(0, self._zero_series)
        one = Series([chart.constant(1.0)], 0, None, zero_f)
        self.rho_series = Series([chart.constant(1.0)], 1, None, zero_f)
        # the rho-dependent slice (g_rho, f_rho), whose curvature and
        # rho-derivatives the closed forms share; its inverse is cut one
        # rho power early, and the generic rows read gtinv only through
        # rho^(N-2)
        self.slice = expansion.slice()
        G, F = self.G, self.F = self.slice.G, self.slice.F
        self.Ginv = self.slice.geometry.ginv

        n, oo = self.n, self.oo
        gt = [[self.zero] * n for _ in range(n)]
        gt[0][0] = Graded(0, self.rho_series * 2.0)
        gt[0][oo] = gt[oo][0] = Graded(1, one)
        for i in range(d):
            for j in range(d):
                gt[i + 1][j + 1] = Graded(2, G[i][j])
        self.gt = gt

        gtinv = [[self.zero] * n for _ in range(n)]
        gtinv[0][oo] = gtinv[oo][0] = Graded(-1, one)
        for i in range(d):
            for j in range(d):
                gtinv[i + 1][j + 1] = Graded(-2, self.Ginv[i][j])
        gtinv[oo][oo] = Graded(-2, self.rho_series * (-2.0))
        self.gtinv = gtinv

        self.ft = Graded(1, F)
        self.mu_elem = Graded(0, Series([chart.constant(self.base.mu)], 0,
                                        None, zero_f))

    # -- derivations -------------------------------------------------------

    def derivs(self):
        """[d/dt, d/dx^1..d/dx^d, d/drho] in the component index order."""
        return graded_derivs(self.d, self.zero) + [
            lambda a: Graded(a.deg, a.val.deriv())]

    # -- connection ------------------------------------------------------------

    def christoffels_closed(self):
        """The displayed closed forms for the straight-and-normal structure:

            Gam^0_ij   = -(t/2) g'_ij          Gam^k_0j = delta^k_j / t
            Gam^k_ij   = Gam[g_rho]^k_ij       Gam^k_i,oo = g^{kl} g'_il / 2
            Gam^oo_0,oo = 1/t                  Gam^oo_ij  = rho g'_ij - g_ij
        """
        chart = self.base.chart
        d, n, oo = self.d, self.n, self.oo
        ez = self._zero_series
        one = Series([chart.constant(1.0)], 0, None, chart.zero())
        gamma_slice = self.slice.geometry.gamma
        Gp = self.slice.Gp
        out = [[[self.zero] * n for _ in range(n)] for _ in range(n)]
        for i in range(d):
            for j in range(d):
                out[0][i + 1][j + 1] = Graded(1, Gp[i][j] * (-0.5))
        for k in range(d):
            out[k + 1][0][k + 1] = out[k + 1][k + 1][0] = Graded(-1, one)
            for i in range(d):
                for j in range(d):
                    out[k + 1][i + 1][j + 1] = Graded(0, gamma_slice[k][i][j])
                mixed = cv.acc_sum([self.Ginv[k][l] * Gp[l][i] for l in range(d)],
                                   ez) * 0.5
                out[k + 1][i + 1][oo] = out[k + 1][oo][i + 1] = Graded(0, mixed)
        out[oo][0][oo] = out[oo][oo][0] = Graded(-1, one)
        for i in range(d):
            for j in range(d):
                out[oo][i + 1][j + 1] = Graded(
                    0, self.rho_series * Gp[i][j] - self.G[i][j])
        return out

    def christoffels_generic(self):
        """Levi-Civita coefficients recomputed from the metric components."""
        return cv.christoffel(self.gt, self.gtinv, self.derivs(), self.zero)

    # -- weighted Ricci ----------------------------------------------------------

    def ricci_closed(self):
        """(Rt_ij series matrix, Ft series): the solver's closed-form route."""
        return closed_form_residual_series(self.slice)

    def ricci_generic(self, entries=None, upto=None):
        """All blocks of the weighted Ricci tensor plus the F scalar from the
        generic coordinate formula on the graded components.  With
        `entries` (index pairs), only those entries are built and F is None.
        With `upto`, products stop at the rho^upto coefficient: the
        coefficients through it are the fields of the full build, and no
        later one is built."""
        return cv.weighted_ricci_coordinate_formula(
            self.gt, self.gtinv, self.ft, float(self.base.m), self.mu_elem,
            self.derivs(), self.zero, entries, upto)

    # -- curvature ------------------------------------------------------------

    def curvature_closed(self):
        """The displayed component families of the curvature tensor:

            Rt_{IJK0}    = 0   (structural; not returned)
            Rt_{ijkl}    = t^2 [ Rm(g_rho) + g_{i[l} g'_{k]j} + g_{j[k} g'_{l]i}
                                 - rho g'_{i[l} g'_{k]j} ]
            Rt_{oo jkl}  = (t^2/2) [ nabla_l g'_jk - nabla_k g'_jl ]
            Rt_{oo jk oo}= (t^2/2) [ g''_jk - g^{pq} g'_jp g'_kq / 2 ]

        Returns (rm_tangential, rm_mixed, rm_normal) keyed by chart indices.
        """
        d = self.d
        ez = self._zero_series
        G, Ginv = self.G, self.Ginv
        rm_slice = self.slice.geometry.rm
        Gp, Gpp = self.slice.Gp, self.slice.Gpp

        tang = {}
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        # brackets antisymmetrize (l, k) across the two factors
                        # with weight 1/2: X_{i[l} Y_{k]j} = (X_il Y_kj - X_ik Y_lj)/2
                        t2 = (G[i][l] * Gp[k][j] - G[i][k] * Gp[l][j]) * 0.5
                        t3 = (G[j][k] * Gp[l][i] - G[j][l] * Gp[k][i]) * 0.5
                        t4 = (Gp[i][l] * Gp[k][j] - Gp[i][k] * Gp[l][j]) * 0.5
                        term = cv.acc_sum([
                            rm_slice[i][j][k][l], t2, t3,
                            -(self.rho_series * t4)], ez)
                        tang[(i, j, k, l)] = Graded(2, term)
        geo = self.slice.geometry
        cov_gp = cv.cov_deriv(Gp, geo.gamma, geo.derivs, ez)
        mixed = {}
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    mixed[(j, k, l)] = Graded(
                        2, (cov_gp[l][j][k] - cov_gp[k][j][l]) * 0.5)
        normal = {}
        for j in range(d):
            for k in range(d):
                sq = cv.acc_sum([Ginv[p][q] * (Gp[j][p] * Gp[k][q])
                                 for p in range(d) for q in range(d)], ez)
                normal[(j, k)] = Graded(2, (Gpp[j][k] - sq * 0.5) * 0.5)
        return tang, mixed, normal


# -- residual reporting -------------------------------------------------------


class BlockReport:
    def __init__(self, name: str, coeff_max: list, guaranteed: int,
                 tol_abs: float):
        self.name = name
        self.coeff_max = coeff_max
        self.guaranteed = guaranteed
        self.tol_abs = tol_abs

    @property
    def first_violation(self) -> int | None:
        """The first coefficient above the tolerance or NaN, if any."""
        for k, v in enumerate(self.coeff_max):
            if not v <= self.tol_abs:
                return k
        return None

    @property
    def worst(self) -> float:
        """max |coefficient| through the guaranteed order, NaN if any is."""
        return max_abs(self.coeff_max[: self.guaranteed + 1])

    @property
    def ok(self) -> bool:
        """Every guaranteed coefficient within the tolerance (NaN fails)."""
        return bool(self.worst <= self.tol_abs)


def _coefficient_maxima(series_list, upto, points) -> Request:
    """The request for [max |rho^k coefficient| over `series_list` and
    the points], k = 0..upto or up to the first truncated coefficient."""
    groups = {}
    for k in range(upto + 1):
        try:
            groups[str(k)] = [s.coefficient(k) for s in series_list]
        except SeriesTruncationError:
            break
    return Request(points, lambda v: [max_abs(c) for c in v.values()],
                   **groups)


def order_report(a: AmbientMetric, tol: float, *, points) -> Request:
    """The request for the measured per-block orders of vanishing of the
    weighted Ricci tensor and the F scalar, against the branch guarantees
    of the construction, at `points`; its result maps each block name to
    its BlockReport.
    While the solved order is at most 1 the rho_i and rho_rho blocks
    guarantee no coefficient, so they are neither built nor reported."""
    base = a.base
    e = a.expansion
    d, oo = a.d, a.oo
    N = e.order

    Rt, Ft = a.ricci_closed()
    gu = e.plan.guarantees(N)
    # the generic blocks lose two rho orders to the second derivatives
    upto = max(N - 2, 0)
    # only the t row and the rho row are read from the generic route, and
    # only through rho^upto
    rows = [(0, I) for I in range(a.n)]
    if gu.rho >= 0:
        rows += [(oo, I) for I in range(1, a.n)]
    ric_g, _ = a.ricci_generic(rows, upto)
    trace = cv.trace(a.Ginv, Rt, a._zero_series)
    combo = trace - (Ft * float(base.m)) / (a.F * a.F) if base.m != 0.0 else trace
    # name -> (label, series, last coefficient, guaranteed through);
    # homogeneity makes the t row vanish for every g_rho, through every
    # computed coefficient
    table = {
        "ij": ("Ric[ij]", [Rt[i][j] for i in range(d) for j in range(i, d)],
               N - 1, gu.ij),
        "F": ("F", [Ft], N - 1, gu.ij),
        "trace_combo": ("g^{ij}Ric_ij - (m/f^2)F", [combo], N - 1, gu.trace),
        "t_row": ("Ric[0I] (structural zero)",
                  [ric_g[0][I].val for I in range(a.n)], upto, upto),
    }
    if gu.rho >= 0:
        table["rho_i"] = ("Ric[oo i]", [ric_g[oo][i + 1].val for i in range(d)],
                          upto, gu.rho)
        table["rho_rho"] = ("Ric[oo oo]", [ric_g[oo][oo].val], upto, gu.rho)
    blocks = {name: (label, guaranteed)
              for name, (label, _, _, guaranteed) in table.items()}

    def reduce(v):
        limit = tol * v["scale"]
        return {name: BlockReport(label, v[name], guaranteed, limit)
                for name, (label, guaranteed) in blocks.items()}

    return Request(points, reduce, scale=curvature_scale(base, points), **{
        name: _coefficient_maxima(series, last, points)
        for name, (_, series, last, _) in table.items()})
