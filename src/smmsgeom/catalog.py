"""Catalog of smooth metric measure spaces with known ambient structure.

Three closed-form families, each verified against its defining equations
at construction (entries whose hypothesis residuals exceed tolerance are
rejected rather than silently enshrined):

  quasi-Einstein       Ric_phi = c g and F_phi = -c f^2 for a constant c.
                       Deformation: g_rho = (1 + a rho)^2 g and
                       f_rho = (1 + a rho) f with a = c/(2(d+m-1)), which
                       is the eigenvalue of the weighted Schouten tensor.
  weighted conformally flat
                       weyl = 0 and cotton = 0.  Deformation terminates:
                       g_rho = g + 2 rho P + rho^2 P.P, f_rho = f(1 + rho y/m).
  Gover-Leitner        f = 1 and Ric = -(d-1) mu g (Einstein base).
                       Deformation: g_rho = (1 + a rho)^2 g,
                       f_rho = 1 - a rho with a = -mu/2 (again the
                       Schouten eigenvalue).

plus seeded random perturbations of the flat space for test corpora.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import curvature as cv
from . import invariants as inv
from .expressions import parse_expression
from .fields import (Chart, Request, SymTensor2Field, evaluate,
                     evaluate_named, max_abs)
from .invariants import MetricMeasureSpace

__all__ = [
    "CatalogEntry", "EntryRejected", "quasi_einstein_entry", "wlcf_entry",
    "gover_leitner_entry", "random_entry", "hyperbolic_upper_half_space",
    "round_sphere_space", "flat_space", "conformal_wlcf_space",
    "standard_catalog", "load_entry",
]


# the defining equations of an entry hold within this tolerance (relative
# to the curvature scale) at this many sample points drawn with this seed
_TOL = 1e-9
_POINTS = 6
_SEED = 0


class EntryRejected(ValueError):
    """The candidate space fails its family's defining equations."""


@dataclass
class CatalogEntry:
    name: str
    space: MetricMeasureSpace
    params: dict
    flags: dict
    closed_form: Optional[Callable[[int], tuple]] = None

    def verify(self, points) -> Request:
        """The request that re-checks the flags' defining equations (done
        at construction too) at the sample `points`; its result is the
        first failure found, an EntryRejected, or None."""
        return _verify_flags(self.space, self.flags, self.params, points)

    def closed_expansion(self, order: int):
        """The closed-form deformation wrapped as an expansion object."""
        if self.closed_form is None:
            raise ValueError(f"entry {self.name!r} has no closed-form deformation")
        from .expansion import RhoExpansion, classify_branch
        g_coeffs, f_coeffs = self.closed_form(order)
        return RhoExpansion(self.space, order, g_coeffs, f_coeffs,
                            classify_branch(self.space.dim, self.space.m))


# -- base spaces ---------------------------------------------------------------


def flat_space(d=3, m=1.0, mu=0.0, box_half=0.5) -> MetricMeasureSpace:
    chart = Chart([f"x{i+1}" for i in range(d)], box=[(-box_half, box_half)] * d)
    return MetricMeasureSpace(chart, inv.euclidean_metric(chart),
                              chart.constant(1.0), m, mu)


def hyperbolic_upper_half_space(d=3, m=2.0, mu=0.0) -> MetricMeasureSpace:
    """Upper-half-space slices with f = 1/z; quasi-Einstein for mu = 0."""
    names = [f"x{i+1}" for i in range(d - 1)] + ["z"]
    box = [(-0.3, 0.3)] * (d - 1) + [(0.8, 1.2)]
    chart = Chart(names, box=box)
    conf = parse_expression("1/(z^2)", chart)
    g = SymTensor2Field(chart, {(i, i): conf for i in range(d)})
    f = parse_expression("1/z", chart)
    return MetricMeasureSpace(chart, g, f, m, mu)


def round_sphere_space(d=3, m=2.0, mu=-1.0, f_expr="1") -> MetricMeasureSpace:
    """Unit round sphere in stereographic coordinates."""
    names = [f"x{i+1}" for i in range(d)]
    chart = Chart(names, box=[(-0.4, 0.4)] * d)
    r2 = "+".join(f"{n}^2" for n in names)
    conf = parse_expression(f"4/((1+{r2})^2)", chart)
    g = SymTensor2Field(chart, {(i, i): conf for i in range(d)})
    return MetricMeasureSpace(chart, g, parse_expression(f_expr, chart), m, mu)


# -- hypothesis verification ----------------------------------------------------


def _verify_flags(s, flags, params, pts) -> Request:
    """The request that checks the defining equations of `flags` at `pts`;
    its result is the first failure found, an EntryRejected, or None."""
    if flags.get("gover_leitner") and s.f.const_value() != 1.0:
        raise EntryRejected("the Gover-Leitner family requires f = 1")
    scale = inv.curvature_scale(s, pts)
    groups = {"g": s.g.entries()}
    if flags.get("quasi_einstein") or flags.get("gover_leitner"):
        groups["ric"] = inv.weighted_ricci(s).entries()
    if flags.get("quasi_einstein"):
        groups["F"] = [s.geometry.F_phi, s.f]
    if flags.get("wlcf"):
        res_a, res_b, _ = inv.conformally_flat_identities(s)
        groups["weyl"] = inv.independent_components(s.geometry.weyl)
        groups["cotton"] = inv.independent_components(s.geometry.cotton)
        groups["identities"] = res_a + [r for row in res_b for r in row]
    checks = Request.named(pts, **groups)
    cut = len(scale.roots)
    flags, c, d, mu = dict(flags), params.get("ric_eigenvalue"), s.dim, s.mu

    def reduce(vals):
        limit = _TOL * scale.reduce(vals[:cut])
        v = checks.reduce(vals[cut:])
        if flags.get("quasi_einstein"):
            for p, ric, g, (F, f) in zip(pts, v["ric"], v["g"], v["F"]):
                r1 = max_abs(ric - c * g)
                r2 = abs(F + c * f ** 2)
                if max(r1, r2) > limit:
                    return EntryRejected(
                        f"quasi-Einstein hypotheses fail at {p}: "
                        f"|Ric_phi - c g| = {r1:.3e}, "
                        f"|F_phi + c f^2| = {r2:.3e}")
        if flags.get("wlcf"):
            for p, A, dP in zip(pts, v["weyl"], v["cotton"]):
                r1, r2 = max_abs(A), max_abs(dP)
                if max(r1, r2) > limit:
                    return EntryRejected(
                        f"weighted conformal flatness fails at {p}: "
                        f"|weyl| = {r1:.3e}, |cotton| = {r2:.3e}")
            for p, r in zip(pts, np.max(np.abs(v["identities"]), axis=1)):
                if r > limit:
                    return EntryRejected(
                        f"conformally-flat identities fail at {p}: {r:.3e}")
        if flags.get("gover_leitner"):
            for p, ric, g in zip(pts, v["ric"], v["g"]):
                r = max_abs(ric + (d - 1) * mu * g)
                if r > limit:
                    return EntryRejected(
                        f"|Ric + (d-1) mu g| = {r:.3e} at {p} exceeds "
                        f"{limit:.3e}")
        return None

    return Request(scale.roots + checks.roots, pts, reduce)


def _accept(s, flags, params, pts) -> None:
    """Raise the first failure of the flags' defining equations at `pts`."""
    rejected = _verify_flags(s, flags, params, pts).result()
    if rejected is not None:
        raise rejected


# -- closed-form deformations ----------------------------------------------------


def _padded(coeffs, order, zero):
    """`coeffs` followed by `zero` through the rho^order coefficient."""
    return coeffs + [zero] * (order + 1 - len(coeffs))


def _einstein_like_g(s, a, order):
    """Coefficients of g_rho = (1 + a rho)^2 g through rho^order, as fields."""
    g_coeffs = [s.g]
    if order >= 1:
        g_coeffs.append(s.g.scale(2.0 * a))
    if order >= 2:
        g_coeffs.append(s.g.scale(a * a))
    return _padded(g_coeffs, order, SymTensor2Field.zero(s.chart))


def quasi_einstein_entry(space: MetricMeasureSpace, ric_eigenvalue=None, *,
                         name="quasi-einstein") -> CatalogEntry:
    """Entry for a space with Ric_phi = c g and F_phi = -c f^2.

    If the eigenvalue c is not supplied it is read off at a sample point;
    the hypotheses are then verified everywhere sampled and the entry is
    rejected on failure.
    """
    pts = space.sample(_POINTS, _SEED)
    ric = inv.weighted_ricci(space)
    if ric_eigenvalue is None:
        r00, g00 = evaluate([ric.comp(0, 0), space.g.comp(0, 0)], pts[:1])[:, 0]
        ric_eigenvalue = float(r00 / g00)
    c = float(ric_eigenvalue)
    params = {"ric_eigenvalue": c, "d": space.dim, "m": space.m, "mu": space.mu}
    flags = {"quasi_einstein": True, "ambient_flat": False}
    _accept(space, flags, params, pts)
    a = c / (2.0 * (space.dim + space.m - 1.0))
    params["schouten_eigenvalue"] = a

    def closed_form(order):
        g_coeffs = _einstein_like_g(space, a, order)
        f_coeffs = [space.f]
        if order >= 1:
            f_coeffs.append(space.f * a)
        return g_coeffs, _padded(f_coeffs, order, space.chart.zero())

    return CatalogEntry(name, space, params, flags, closed_form)


def wlcf_entry(space: MetricMeasureSpace, *, name="wlcf") -> CatalogEntry:
    """Entry for a space locally conformally flat in the weighted sense.

    The deformation terminates at second order:
    g_rho = g + 2 rho P + rho^2 P.P and f_rho = f (1 + rho y/m); the
    assembled structure is flat, which downstream checks exercise.
    """
    if space.m <= 0:
        raise EntryRejected("the weighted-flat family requires m > 0")
    pts = space.sample(_POINTS, _SEED)
    flags = {"wlcf": True, "ambient_flat": True}
    params = {"d": space.dim, "m": space.m, "mu": space.mu}
    _accept(space, flags, params, pts)

    P_field, _, Y = inv.schouten(space)

    def closed_form(order):
        chart = space.chart
        zero = chart.zero()
        d = space.dim
        g_coeffs = [space.g]
        if order >= 1:
            g_coeffs.append(P_field.scale(2.0))
        if order >= 2:
            ginv = space.geometry.ginv
            P = P_field.as_matrix()
            P2 = [[cv.acc_sum([P[i][k] * (ginv[k][l] * P[l][j])
                               for k in range(d) for l in range(d)], zero)
                   for j in range(d)] for i in range(d)]
            g_coeffs.append(SymTensor2Field.from_matrix(chart, P2))
        f_coeffs = [space.f]
        if order >= 1:
            f_coeffs.append(space.f * Y * (1.0 / space.m))
        return (_padded(g_coeffs, order, SymTensor2Field.zero(chart)),
                _padded(f_coeffs, order, zero))

    return CatalogEntry(name, space, params, flags, closed_form)


def conformal_wlcf_space(d=3, m=2.0, a=0.3, u_expr="0.2*x1") -> MetricMeasureSpace:
    """The standard accepted weighted-flat family: the conformal image of
    (flat g, f = 1 + a|x|^2, mu = -4a), for which Hess f = 2a g forces the
    weighted Schouten tensor of the flat gauge to vanish."""
    names = [f"x{i+1}" for i in range(d)]
    chart = Chart(names, box=[(-0.4, 0.4)] * d)
    r2 = "+".join(f"{n}^2" for n in names)
    f0 = parse_expression(f"1+{a}*({r2})", chart)
    base = MetricMeasureSpace(chart, inv.euclidean_metric(chart), f0, m, -4.0 * a)
    u = parse_expression(u_expr, chart)
    return inv.conformal_change(base, u)


def gover_leitner_entry(space: MetricMeasureSpace, *,
                        name="gover-leitner") -> CatalogEntry:
    """Entry for f = 1 with Ric = -(d-1) mu g (an Einstein base).

    Uses a = -mu/2 (the Schouten eigenvalue; in the other common
    normalization the Einstein constant is lam = -(d-1) mu).  The
    deformation is g_rho = (1 + a rho)^2 g, f_rho = 1 - a rho.
    """
    pts = space.sample(_POINTS, _SEED)
    flags = {"gover_leitner": True, "ambient_flat": False}
    params = {"d": space.dim, "m": space.m, "mu": space.mu}
    _accept(space, flags, params, pts)
    a = -space.mu / 2.0
    params["schouten_eigenvalue"] = a

    def closed_form(order):
        g_coeffs = _einstein_like_g(space, a, order)
        f_coeffs = [space.chart.constant(1.0)]
        if order >= 1:
            f_coeffs.append(space.chart.constant(-a))
        return g_coeffs, _padded(f_coeffs, order, space.chart.zero())

    return CatalogEntry(name, space, params, flags, closed_form)


# -- seeded random spaces ---------------------------------------------------------


_POLY_BASIS = ("{c}*{xi}", "{c}*{xi}*{xj}", "{c}*sin({k}*{xi})", "{c}*cos({k}*{xi})")


def _random_perturbation(rng, names) -> str:
    terms = []
    for _ in range(3):
        kind = int(rng.integers(0, len(_POLY_BASIS)))
        xi = names[int(rng.integers(0, len(names)))]
        xj = names[int(rng.integers(0, len(names)))]
        k = int(rng.integers(1, 3))
        c = float(np.round(rng.uniform(-1.0, 1.0), 6))
        terms.append(_POLY_BASIS[kind].format(c=c, xi=xi, xj=xj, k=k))
    return "+".join(terms)


def random_entry(d=3, m=1.0, mu=0.0, seed=0, amplitude=0.05, *,
                 box_half=0.5, name=None) -> CatalogEntry:
    """Seeded analytic perturbation of the flat space, positivity-checked.

    g = delta + amplitude * (symmetric low-degree polynomial/trig field),
    f = 1 + amplitude * (analytic perturbation); identical seeds give
    bit-identical entries.
    """
    names = [f"x{i+1}" for i in range(d)]
    chart = Chart(names, box=[(-box_half, box_half)] * d)
    rng = np.random.default_rng(seed)
    comps = {}
    exprs = {}
    for i in range(d):
        for j in range(i, d):
            pert = _random_perturbation(rng, names)
            base = "1" if i == j else "0"
            expr = f"{base}+{amplitude}*({pert})" if amplitude else base
            exprs[f"g{i+1}{j+1}"] = expr
            comps[(i, j)] = parse_expression(expr, chart)
    f_expr = (f"1+{amplitude}*({_random_perturbation(rng, names)})"
              if amplitude else "1")
    exprs["f"] = f_expr
    g = SymTensor2Field(chart, comps)
    f = parse_expression(f_expr, chart)
    space = MetricMeasureSpace(chart, g, f, m, mu)

    grid_1d = np.linspace(-box_half, box_half, 5)
    grid = [tuple(float(v) for v in p)
            for p in np.stack(np.meshgrid(*([grid_1d] * d)), -1).reshape(-1, d)]
    v = evaluate_named(grid, g=g.entries(), f=[f])
    lowest = np.linalg.eigvalsh(v["g"].reshape(-1, d, d)).min(axis=1)
    for p, low, fv in zip(grid, lowest, v["f"][:, 0]):
        if low <= 1e-6:
            raise EntryRejected(
                f"perturbed metric loses positivity at {p} "
                f"(seed={seed}, amplitude={amplitude})")
        if fv <= 1e-6:
            raise EntryRejected(f"perturbed density loses positivity at {p}")

    return CatalogEntry(
        name or f"random-d{d}-seed{seed}", space,
        {"d": d, "m": m, "mu": mu, "seed": seed, "amplitude": amplitude,
         "expressions": exprs},
        flags={})


# -- the named catalog -------------------------------------------------------------


def standard_catalog():
    """Name -> zero-argument constructor for the named entries."""
    return {
        "flat": lambda: quasi_einstein_entry(flat_space(), 0.0, name="flat"),
        "quasi-einstein": lambda: quasi_einstein_entry(
            hyperbolic_upper_half_space(d=3, m=2.0), ric_eigenvalue=-4.0),
        "wlcf": lambda: wlcf_entry(conformal_wlcf_space()),
        "gover-leitner": lambda: gover_leitner_entry(
            round_sphere_space(d=3, m=2.0, mu=-1.0)),
        "gover-leitner-flat": lambda: gover_leitner_entry(
            flat_space(d=3, m=2.0, mu=0.0), name="gover-leitner-flat"),
    }


def load_entry(name: str) -> CatalogEntry:
    catalog = standard_catalog()
    if name not in catalog:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {sorted(catalog)}")
    return catalog[name]()
