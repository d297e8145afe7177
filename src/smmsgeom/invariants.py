"""Smooth metric measure spaces and their weighted curvature invariants.

A smooth metric measure space is the five-tuple (chart, g, f, m, mu): a
Riemannian metric g on a coordinate chart, a positive density f, the
dimensional parameter m >= 0 and the curvature parameter mu.  The
weighted invariants computed here:

    ricci_phi       Ric - (m/f) Hess f          (Bakry-Emery Ricci)
    scalar_phi      R - (2m/f) Lap f - m(m-1)/f^2 (|grad f|^2 - mu)
    f_phi           f Lap f + (m-1)(|grad f|^2 - mu)
    schouten        (ricci_phi - schouten_scalar * g)/(d+m-2)
    schouten_scalar scalar_phi / (2(d+m-1))
    y_phi           schouten_scalar - tr_g schouten
    weyl            Rm - schouten ^ g           (Kulkarni-Nomizu ^)
    cotton          antisymmetrized nabla schouten
    bach            delta_phi cotton - (1/m) tr cotton x dphi
                    + <weyl, schouten - (y_phi/m) g>

with phi = -m log f entering only through dphi = -m df/f and its
Hessian, so no logarithm is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import curvature as cv
from .fields import (Chart, Cotton3Field, Riemann4Field, ScalarField,
                     SymTensor2Field, evaluate, evaluate_named, max_abs,
                     sample_points)

__all__ = [
    "MetricMeasureSpace", "WeightedInvariants", "ValidationError",
    "christoffel", "riemann", "ricci", "scalar", "weighted_invariants",
    "weighted_ricci", "weighted_scalar", "f_curvature", "schouten",
    "weighted_weyl", "weighted_cotton", "kulkarni_nomizu", "weighted_bach",
    "bianchi_residual", "conformally_flat_identities", "conformal_change",
    "curvature_scale", "euclidean_metric",
]


class ValidationError(ValueError):
    """The data does not define a smooth metric measure space."""


@dataclass
class MetricMeasureSpace:
    chart: Chart
    g: SymTensor2Field
    f: ScalarField
    m: float
    mu: float

    def __post_init__(self):
        if self.chart.dim < 3:
            raise ValidationError("smooth metric measure spaces require d >= 3")
        if self.m < 0:
            raise ValidationError("the dimensional parameter m must be nonnegative")
        if self.m == 0 and self.f.const_value() != 1.0:
            raise ValidationError(
                "m = 0 is accepted only with f identically 1 "
                "(the unweighted reduction)")
        self._derived = {}

    @property
    def dim(self) -> int:
        return self.chart.dim

    def check_at(self, points):
        """Finite positive-definite g and positive f at the given points.

        Cholesky does not raise on NaN, so finiteness is tested first; the
        density test is written so that NaN fails it."""
        d = self.dim
        v = evaluate_named(points, g=self.g.entries(), f=[self.f])
        for p, gm, fv in zip(points, v["g"].reshape(-1, d, d), v["f"][:, 0]):
            if not np.all(np.isfinite(gm)):
                raise ValidationError(f"metric not finite at {p}")
            try:
                np.linalg.cholesky(gm)
            except np.linalg.LinAlgError:
                raise ValidationError(f"metric not positive definite at {p}")
            if not fv > 0.0:
                raise ValidationError(f"density f not positive at {p}")

    def sample(self, count: int, seed: int):
        return sample_points(self.chart, count, seed)

    # Derived geometric data is cached per space so expression DAGs are shared.
    def derived(self, key, builder):
        hit = self._derived.get(key)
        if hit is None:
            hit = builder()
            self._derived[key] = hit
        return hit


@dataclass
class WeightedInvariants:
    ricci_phi: SymTensor2Field
    scalar_phi: ScalarField
    f_phi: ScalarField
    schouten: SymTensor2Field
    schouten_scalar: ScalarField
    y_phi: ScalarField
    weyl: Riemann4Field
    cotton: Cotton3Field
    bach: Optional[SymTensor2Field]


def euclidean_metric(chart: Chart) -> SymTensor2Field:
    one = chart.constant(1.0)
    return SymTensor2Field(chart, {(i, i): one for i in range(chart.dim)})


def _derivs(chart: Chart):
    return [lambda F, i=i: F.partial(i) for i in range(chart.dim)]


def _geometry(g: SymTensor2Field):
    """Shared (matrix, inverse, connection, derivs, zero) for a metric field."""
    chart = g.chart
    zero = chart.zero()
    derivs = _derivs(chart)
    mat = g.as_matrix()
    ginv, det = cv.matrix_inverse(mat, zero)
    gamma = cv.christoffel(mat, ginv, derivs, zero)
    return mat, ginv, det, gamma, derivs, zero


def _space_geometry(s: MetricMeasureSpace):
    return s.derived("geometry", lambda: _geometry(s.g))


# -- unweighted operations ----------------------------------------------------


def christoffel(g: SymTensor2Field):
    """Connection coefficients Gamma^k_ij as a nested list of fields."""
    _, _, _, gamma, _, _ = _geometry(g)
    return gamma


def riemann(g: SymTensor2Field) -> Riemann4Field:
    mat, _, _, gamma, derivs, zero = _geometry(g)
    rm = cv.riemann_lowered(mat, gamma, derivs, zero)
    d = g.chart.dim
    return Riemann4Field(g.chart, {
        (i, j, k, l): rm[i][j][k][l]
        for i in range(d) for j in range(i + 1, d)
        for k in range(d) for l in range(k + 1, d) if (i, j) <= (k, l)})


def ricci(g: SymTensor2Field) -> SymTensor2Field:
    _, _, _, gamma, derivs, zero = _geometry(g)
    ric = cv.ricci(gamma, derivs, zero)
    return SymTensor2Field.from_matrix(g.chart, ric)


def scalar(g: SymTensor2Field) -> ScalarField:
    _, ginv, _, gamma, derivs, zero = _geometry(g)
    ric = cv.ricci(gamma, derivs, zero)
    return cv.scalar_curvature(ginv, ric, zero)


# -- weighted operations ------------------------------------------------------


def _weighted_core(s: MetricMeasureSpace):
    """(ric_phi, scal_phi, F_phi, P, J, trP, Y) as raw nested fields."""

    def build():
        mat, ginv, _, gamma, derivs, zero = _space_geometry(s)
        d = s.dim
        ric = cv.ricci(gamma, derivs, zero)
        scal = cv.scalar_curvature(ginv, ric, zero)
        hess_f = cv.hessian(s.f, gamma, derivs, zero)
        df = cv.gradient(s.f, derivs)
        lap_f = cv.laplacian(ginv, hess_f, zero)
        gn2_f = cv.grad_norm_sq(ginv, df, zero)
        ric_phi = cv.bakry_emery_ricci(ric, hess_f, s.f, s.m, zero)
        scal_phi = cv.weighted_scalar(scal, s.f, lap_f, gn2_f, s.m, s.mu, zero)
        F_phi = cv.f_curvature(s.f, lap_f, gn2_f, s.m, s.mu, zero)
        P, J, trP, Y = cv.schouten_tensor(ric_phi, scal_phi, mat, ginv, d, s.m, zero)
        return ric_phi, scal_phi, F_phi, P, J, trP, Y

    return s.derived("weighted_core", build)


def weighted_ricci(s: MetricMeasureSpace) -> SymTensor2Field:
    ric_phi = _weighted_core(s)[0]
    return SymTensor2Field.from_matrix(s.chart, ric_phi)


def weighted_scalar(s: MetricMeasureSpace) -> ScalarField:
    return _weighted_core(s)[1]


def f_curvature(s: MetricMeasureSpace) -> ScalarField:
    """The scalar f Lap f + (m-1)(|grad f|^2 - mu)."""
    return _weighted_core(s)[2]


def schouten(s: MetricMeasureSpace):
    """(P, J, Y): weighted Schouten tensor, its scalar, and J - tr P."""
    _, _, _, P, J, _, Y = _weighted_core(s)
    return SymTensor2Field.from_matrix(s.chart, P), J, Y


def kulkarni_nomizu(h: SymTensor2Field, k: SymTensor2Field) -> Riemann4Field:
    chart = h.chart
    out = cv.kulkarni_nomizu(h.as_matrix(), k.as_matrix(), chart.zero())
    d = chart.dim
    return Riemann4Field(chart, {
        (i, j, kk, l): out[i][j][kk][l]
        for i in range(d) for j in range(i + 1, d)
        for kk in range(d) for l in range(kk + 1, d) if (i, j) <= (kk, l)})


def _weyl_cotton_raw(s: MetricMeasureSpace):
    def build():
        mat, _, _, gamma, derivs, zero = _space_geometry(s)
        P = _weighted_core(s)[3]
        rm = cv.riemann_lowered(mat, gamma, derivs, zero)
        A = cv.weighted_weyl(rm, P, mat, zero)
        dP = cv.weighted_cotton(P, gamma, derivs, zero)
        return A, dP

    return s.derived("weyl_cotton", build)


def weighted_weyl(s: MetricMeasureSpace) -> Riemann4Field:
    A, _ = _weyl_cotton_raw(s)
    d = s.dim
    return Riemann4Field(s.chart, {
        (i, j, k, l): A[i][j][k][l]
        for i in range(d) for j in range(i + 1, d)
        for k in range(d) for l in range(k + 1, d) if (i, j) <= (k, l)})


def weighted_cotton(s: MetricMeasureSpace) -> Cotton3Field:
    _, dP = _weyl_cotton_raw(s)
    d = s.dim
    return Cotton3Field(s.chart, {
        (i, j, k): dP[i][j][k]
        for i in range(d) for j in range(i + 1, d) for k in range(d)})


def weighted_bach(s: MetricMeasureSpace) -> SymTensor2Field:
    if s.m == 0.0:
        raise ValidationError("the weighted Bach tensor requires m > 0")

    def build():
        mat, ginv, _, gamma, derivs, zero = _space_geometry(s)
        _, _, _, P, _, _, Y = _weighted_core(s)
        A, dP = _weyl_cotton_raw(s)
        dphi = cv.phi_gradient(s.f, derivs, s.m)
        return cv.weighted_bach(A, P, mat, ginv, dP, dphi, Y, gamma, derivs,
                                s.m, zero)

    B = s.derived("bach", build)
    return SymTensor2Field.from_matrix(s.chart, B)


def bach_asymmetry(s: MetricMeasureSpace, point) -> float:
    """Residual |B_ij - B_ji| of the raw Bach computation (symmetry check)."""
    if s.m == 0.0:
        raise ValidationError("the weighted Bach tensor requires m > 0")
    weighted_bach(s)
    B = s._derived["bach"]
    vals = evaluate([c for row in B for c in row], [point]).reshape(s.dim, -1)
    return max_abs(vals - vals.T)


def weighted_invariants(s: MetricMeasureSpace) -> WeightedInvariants:
    ric_phi, scal_phi, F_phi, _, J, _, Y = _weighted_core(s)
    P_field, _, _ = schouten(s)
    bach = weighted_bach(s) if s.m > 0 else None
    return WeightedInvariants(
        ricci_phi=SymTensor2Field.from_matrix(s.chart, ric_phi),
        scalar_phi=scal_phi, f_phi=F_phi, schouten=P_field,
        schouten_scalar=J, y_phi=Y, weyl=weighted_weyl(s),
        cotton=weighted_cotton(s), bach=bach)


def bianchi_residual(s: MetricMeasureSpace):
    """Components of delta_phi Ric_phi - d R_phi / 2 - F_phi dphi / f^2."""

    def build():
        mat, ginv, _, gamma, derivs, zero = _space_geometry(s)
        ric_phi, scal_phi, F_phi = _weighted_core(s)[:3]
        dphi = ([zero] * s.dim if s.m == 0.0
                else cv.phi_gradient(s.f, derivs, s.m))
        return cv.bianchi_residual(ric_phi, scal_phi, F_phi, s.f, ginv, dphi,
                                   gamma, derivs, zero)

    return s.derived("bianchi", build)


def conformally_flat_identities(s: MetricMeasureSpace):
    """Residual fields of the three identities satisfied by spaces that are
    locally conformally flat in the weighted sense:

        (a)  P(grad phi) + d(y_phi) - (y_phi/m) dphi       (1-form)
        (b)  m P - Hess(phi) + dphi x dphi / m + y_phi g   (sym 2-tensor)
        (c)  dP                                            (cotton)
    """
    if s.m == 0.0:
        raise ValidationError("the identities require m > 0")
    mat, ginv, _, gamma, derivs, zero = _space_geometry(s)
    _, _, _, P, _, _, Y = _weighted_core(s)
    d = s.dim
    dphi = cv.phi_gradient(s.f, derivs, s.m)
    hphi = cv.phi_hessian(s.f, gamma, derivs, s.m, zero)
    grad_phi = [cv.acc_sum([ginv[i][j] * dphi[j] for j in range(d)
                            if not dphi[j].is_zero], zero) for i in range(d)]
    res_a = [cv.acc_sum([
        sum((P[i][j] * grad_phi[j] for j in range(d)), zero),
        derivs[i](Y), -(Y * dphi[i]) * (1.0 / s.m)], zero) for i in range(d)]
    res_b = [[cv.acc_sum([P[i][j] * s.m, -hphi[i][j],
                          (dphi[i] * dphi[j]) * (1.0 / s.m),
                          mat[i][j] * Y], zero)
              for j in range(d)] for i in range(d)]
    _, dP = _weyl_cotton_raw(s)
    return res_a, res_b, dP


def conformal_change(s: MetricMeasureSpace, u: ScalarField) -> MetricMeasureSpace:
    """The pointwise-conformal image (e^{2u} g, e^u f, m, mu)."""
    eu = u.exp()
    e2u = eu * eu
    g2 = SymTensor2Field(s.chart, {k: e2u * fld for k, fld in s.g.comps.items()})
    return MetricMeasureSpace(s.chart, g2, eu * s.f, s.m, s.mu)


def curvature_scale(s: MetricMeasureSpace, points) -> float:
    """max over points of |Rm|_g + |Hess f / f|_g + |grad f / f|^2_g + |mu|.

    The reference magnitude that 'relative' tolerances are measured
    against throughout the package.
    """

    def build():
        mat, _, _, gamma, derivs, zero = _space_geometry(s)
        rm = cv.riemann_lowered(mat, gamma, derivs, zero)
        hess_f = cv.hessian(s.f, gamma, derivs, zero)
        return rm, hess_f

    rm, hess_f = s.derived("scale_fields", build)
    d = s.dim
    v = evaluate_named(points, g=s.g.entries(),
                       rm=[x for a in rm for b in a for c in b for x in c],
                       hf=[c for row in hess_f for c in row],
                       f=[s.f], df=[s.f.partial(i) for i in range(d)])
    worst = 0.0
    for g, rm_v, hf_v, (fv,), df_v in zip(v["g"], v["rm"], v["hf"], v["f"],
                                         v["df"]):
        ginv = np.linalg.inv(g.reshape(d, d))
        rm_v, hf_v = rm_v.reshape(d, d, d, d), hf_v.reshape(d, d)
        rm_norm = np.sqrt(abs(np.einsum(
            "ijkl,pqrs,ip,jq,kr,ls->", rm_v, rm_v, ginv, ginv, ginv, ginv)))
        hf_norm = np.sqrt(abs(np.einsum("ij,kl,ik,jl->", hf_v, hf_v, ginv, ginv))) / fv
        gf_norm = float(df_v @ ginv @ df_v) / fv ** 2
        worst = max(worst, rm_norm + hf_norm + gf_norm + abs(s.mu))
    return worst
