"""Smooth metric measure spaces and their weighted curvature invariants.

A smooth metric measure space is the five-tuple (chart, g, f, m, mu): a
Riemannian metric g on a coordinate chart, a positive density f, the
dimensional parameter m >= 0 and the curvature parameter mu.  Its
weighted invariants are the attributes of `space.geometry`, a
`curvature.Geometry`:

    ric_phi         Ric - (m/f) Hess f          (Bakry-Emery Ricci)
    scal_phi        R - (2m/f) Lap f - m(m-1)/f^2 (|grad f|^2 - mu)
    F_phi           f Lap f + (m-1)(|grad f|^2 - mu)
    schouten        (P, J, tr_g P, Y) with
                    P = (ric_phi - J g)/(d+m-2), J = scal_phi / (2(d+m-1)),
                    Y = J - tr_g P
    weyl            Rm - P ^ g                  (Kulkarni-Nomizu ^)
    cotton          antisymmetrized nabla P
    bach            delta_phi cotton - (1/m) tr cotton x dphi
                    + <weyl, P - (Y/m) g>       (classical at m = 0)
    bianchi         delta_phi ric_phi - d scal_phi / 2 - F_phi dphi / f^2

with phi = -m log f entering only through dphi = -m df/f and its
Hessian, so no logarithm is ever formed.  `weighted_ricci`, `schouten`
and `weighted_bach` give the rank-2 ones as `SymTensor2Field`s.
"""

from __future__ import annotations

from functools import cached_property
import math

from . import curvature as cv
from .fields import (Chart, Request, ScalarField, SymTensor2Field,
                     evaluate, max_abs, sample_points)

__all__ = [
    "MetricMeasureSpace", "ValidationError", "weighted_ricci", "schouten",
    "weighted_bach", "conformally_flat_identities", "conformal_change",
    "curvature_scale", "euclidean_metric", "independent_components",
    "metric_trace",
]


class ValidationError(ValueError):
    """The data does not define a smooth metric measure space."""


class MetricMeasureSpace:
    def __init__(self, chart: Chart, g: SymTensor2Field, f: ScalarField,
                 m: float, mu: float):
        self.chart = chart
        self.g = g
        self.f = f
        self.m = m
        self.mu = mu
        if self.chart.dim < 3:
            raise ValidationError("smooth metric measure spaces require d >= 3")
        if self.m < 0:
            raise ValidationError("the dimensional parameter m must be nonnegative")
        if self.m == 0 and self.f.const_value() != 1.0:
            raise ValidationError(
                "m = 0 is accepted only with f identically 1 "
                "(the unweighted reduction)")

    @property
    def dim(self) -> int:
        return self.chart.dim

    @cached_property
    def geometry(self) -> cv.Geometry:
        """The weighted curvature of this space as raw nested fields, each
        part built on first read and shared by every later reader."""
        return cv.Geometry(self.g.as_matrix(), cv.partials(self.dim),
                           self.chart.zero(), self.f, self.m, self.mu)

    @cached_property
    def slice_geometries(self) -> dict:
        """The Geometry of each rho-slice over this space, by the
        coefficient fields of the slice (see `expansion.RhoSlice`)."""
        return {}

    @cached_property
    def scale_terms(self) -> dict:
        """The term of each point in the curvature scale of this space, by
        the point, kept by the first reduction that computes it (see
        `curvature_scale`)."""
        return {}

    def check_at(self, points):
        """Finite positive-definite g and positive f at the given points.

        Finiteness is tested first, so that the Cholesky test only sees
        finite entries; the density test is written so that NaN fails
        it."""
        d = self.dim
        v = Request(points, g=self.g.entries(), f=[self.f]).result()
        for p, g, (fv,) in zip(points, v["g"], v["f"]):
            if not all(map(math.isfinite, g)):
                raise ValidationError(f"metric not finite at {p}")
            if not _cholesky_succeeds(_square(g, d)):
                raise ValidationError(f"metric not positive definite at {p}")
            if not fv > 0.0:
                raise ValidationError(f"density f not positive at {p}")

    def sample(self, count: int, seed: int):
        return sample_points(self.chart, count, seed)


def _square(row, d):
    """The d x d matrix, as a list of rows, of a point's row-major row of
    d*d values."""
    return [row[i * d:(i + 1) * d] for i in range(d)]


def _cholesky_succeeds(m) -> bool:
    """Whether the Cholesky factorization of the symmetric matrix `m`
    (read from its lower triangle) finds every pivot positive, that is
    whether `m` is positive definite."""
    d = len(m)
    low = [[0.0] * d for _ in range(d)]
    for j in range(d):
        pivot = m[j][j]
        for k in range(j):
            pivot -= low[j][k] * low[j][k]
        if not pivot > 0.0:
            return False
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, d):
            x = m[i][j]
            for k in range(j):
                x -= low[i][k] * low[j][k]
            low[i][j] = x / low[j][j]
    return True


def _inverse(m):
    """The inverse of the invertible square matrix `m` (a list of rows),
    by Gauss-Jordan elimination with partial pivoting."""
    d = len(m)
    rows = [list(row) + [1.0 if i == j else 0.0 for j in range(d)]
            for i, row in enumerate(m)]
    for c in range(d):
        p = max(range(c, d), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        top = rows[c] = [x / pivot for x in rows[c]]
        for r in range(d):
            if r != c:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
    return [row[d:] for row in rows]


def metric_trace(g, x) -> float:
    """tr(g^-1 x) of two d x d matrices given as one point's row-major
    rows of d*d values: the sum over i, then k, of ginv[i][k] x[k][i]."""
    d = math.isqrt(len(g))
    x = _square(x, d)
    out = 0.0
    for i, row in enumerate(_inverse(_square(g, d))):
        for k, y in enumerate(row):
            out += y * x[k][i]
    return out


def euclidean_metric(chart: Chart) -> SymTensor2Field:
    one = chart.constant(1.0)
    return SymTensor2Field(chart, {(i, i): one for i in range(chart.dim)})


def independent_components(t) -> list:
    """The components of a nested-list curvature tensor that its
    symmetries leave free: t[i][j][k][l] with i < j, k < l and
    (i, j) <= (k, l) for a rank-4 tensor with the pair symmetries of
    Riemann, or t[i][j][k] with i < j for a rank-3 tensor antisymmetric
    in its first two slots (Cotton)."""
    d = len(t)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    if isinstance(t[0][0][0], list):
        return [t[i][j][k][l] for n, (i, j) in enumerate(pairs)
                for k, l in pairs[n:]]
    return [t[i][j][k] for i, j in pairs for k in range(d)]


def weighted_ricci(s: MetricMeasureSpace) -> SymTensor2Field:
    return SymTensor2Field.from_matrix(s.chart, s.geometry.ric_phi)


def schouten(s: MetricMeasureSpace):
    """(P, J, Y): weighted Schouten tensor, its scalar, and J - tr P."""
    P, J, _, Y = s.geometry.schouten
    return SymTensor2Field.from_matrix(s.chart, P), J, Y


def weighted_bach(s: MetricMeasureSpace) -> SymTensor2Field:
    """The weighted Bach tensor; the classical one at m = 0."""
    return SymTensor2Field.from_matrix(s.chart, s.geometry.bach)


def bach_asymmetry(s: MetricMeasureSpace, point) -> float:
    """Residual |B_ij - B_ji| of the raw Bach computation (symmetry check)."""
    B = s.geometry.bach
    d = s.dim
    vals = _square([row[0] for row in evaluate([c for row in B for c in row],
                                               [point])], d)
    return max_abs([vals[i][j] - vals[j][i]
                    for i in range(d) for j in range(d)])


def conformally_flat_identities(s: MetricMeasureSpace):
    """Residual fields of the three identities satisfied by spaces that are
    locally conformally flat in the weighted sense:

        (a)  P(grad phi) + d(y_phi) - (y_phi/m) dphi       (1-form)
        (b)  m P - Hess(phi) + dphi x dphi / m + y_phi g   (sym 2-tensor)
        (c)  dP                                            (cotton)
    """
    if s.m == 0.0:
        raise ValidationError("the identities require m > 0")
    geo = s.geometry
    mat, ginv, derivs, zero = geo.g, geo.ginv, geo.derivs, geo.zero
    P, _, _, Y = geo.schouten
    dphi = geo.dphi
    d = s.dim
    hphi = geo.hess_phi
    grad_phi = [cv.acc_sum([ginv[i][j] * dphi[j] for j in range(d)
                            if not dphi[j].is_zero], zero) for i in range(d)]
    res_a = [cv.acc_sum([
        sum((P[i][j] * grad_phi[j] for j in range(d)), zero),
        derivs[i](Y), -(Y * dphi[i]) * (1.0 / s.m)], zero) for i in range(d)]
    res_b = [[cv.acc_sum([P[i][j] * s.m, -hphi[i][j],
                          (dphi[i] * dphi[j]) * (1.0 / s.m),
                          mat[i][j] * Y], zero)
              for j in range(d)] for i in range(d)]
    return res_a, res_b, geo.cotton


def conformal_change(s: MetricMeasureSpace, u: ScalarField) -> MetricMeasureSpace:
    """The pointwise-conformal image (e^{2u} g, e^u f, m, mu)."""
    eu = u.exp()
    e2u = eu * eu
    g2 = SymTensor2Field(s.chart, {k: e2u * fld for k, fld in s.g.comps.items()})
    return MetricMeasureSpace(s.chart, g2, eu * s.f, s.m, s.mu)


def curvature_scale(s: MetricMeasureSpace, points) -> Request:
    """The request for max(1, max over points of |Rm|_g + |Hess f / f|_g
    + |grad f / f|^2_g + |mu|).

    The reference magnitude that 'relative' tolerances are measured
    against throughout the package; the floor of 1 keeps a nearly flat
    space from tightening them toward zero.  A point's term is a function
    of the space and the point alone, so it is computed once, by the
    first reduction that reaches the point, and kept in
    `s.scale_terms`: the requests of one command that nest the scale
    share its norms.
    """
    rm, hess_f = s.geometry.rm, s.geometry.hess_f
    d, mu = s.dim, s.mu
    terms = s.scale_terms
    keys = [tuple(p) for p in points]

    def reduce(v):
        worst = 0.0
        for p, g, rm_v, hf_v, (fv,), df_v in zip(
                keys, v["g"], v["rm"], v["hf"], v["f"], v["df"]):
            term = terms.get(p)
            if term is None:
                ginv = _inverse(_square(g, d))
                rm_norm = math.sqrt(abs(_norm_squared(rm_v, ginv)))
                hf_norm = math.sqrt(abs(_norm_squared(hf_v, ginv))) / fv
                gf_norm = _quadratic_form(df_v, ginv) / fv ** 2
                term = terms[p] = rm_norm + hf_norm + gf_norm + abs(mu)
            worst = max(worst, term)
        return max(worst, 1.0)

    return Request(points, reduce, g=s.g.entries(),
                   rm=[x for a in rm for b in a for c in b for x in c],
                   hf=[c for row in hess_f for c in row],
                   f=[s.f], df=[s.f.partial(i) for i in range(d)])


def _norm_squared(t, ginv) -> float:
    """|t|^2 = t_A t_B ginv[a1][b1] ... ginv[ar][br] of a tensor of rank
    r = 2 or 4 (a point's row-major row of d^r values), summed over the
    pairs of multi-indices (A, B) in row-major order from +0.0, each term
    multiplied left to right in that order.  A term with a zero ginv
    factor adds a signed zero to that sum, so it is skipped, which leaves
    d^r terms for a diagonal metric."""
    d = len(ginv)
    # per index a, its partners b with ginv[a][b] != 0
    partners = [[(b, x) for b, x in enumerate(row) if x] for row in ginv]
    out = 0.0
    if len(t) == d * d:
        for n, ta in enumerate(t):
            for p, x1 in partners[n // d]:
                for q, x2 in partners[n % d]:
                    out += ((ta * t[p * d + q]) * x1) * x2
        return out
    d2, d3 = d * d, d * d * d
    for n, ta in enumerate(t):
        i, j, k, l = n // d3, n // d2 % d, n // d % d, n % d
        for p, x1 in partners[i]:
            for q, x2 in partners[j]:
                pq = (p * d + q) * d
                for r, x3 in partners[k]:
                    pqr = (pq + r) * d
                    for s, x4 in partners[l]:
                        out += ((((ta * t[pqr + s]) * x1) * x2) * x3) * x4
    return out


def _quadratic_form(x, m) -> float:
    """x m x, as (x m) x: the row vector x m first, each entry summed
    over i, then its dot product with x."""
    d = len(x)
    xm = []
    for j in range(d):
        acc = 0.0
        for i in range(d):
            acc += x[i] * m[i][j]
        xm.append(acc)
    out = 0.0
    for j in range(d):
        out += xm[j] * x[j]
    return out
