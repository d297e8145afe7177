"""Catalog of smooth metric measure spaces with known ambient structure.

Three closed-form families, each with the defining equations that
`CatalogEntry.verify` checks at given sample points:

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

plus seeded random perturbations of the flat space for test corpora,
which belong to no family and check nothing.

Construction builds fields and evaluates none but a random entry's
positivity grid.  It rejects (EntryRejected) only what needs no further
evaluation: f != 1 for Gover-Leitner, m <= 0 for the weighted-flat
family, and a random entry that loses positivity.  Whether the defining
equations hold is the result of `verify`'s request, which the CLI sweeps
with the rest of a command's checks and reports as `check.catalog_flags`.
"""

from __future__ import annotations

from . import curvature as cv
from . import invariants as inv
from .errors import InputError
from .expressions import parse_expression
from .fields import Chart, Request, SymTensor2Field, max_abs
from .invariants import MetricMeasureSpace

__all__ = [
    "CatalogEntry", "EntryRejected", "quasi_einstein_entry", "wlcf_entry",
    "gover_leitner_entry", "random_entry", "hyperbolic_upper_half_space",
    "round_sphere_space", "flat_space", "conformal_wlcf_space",
    "standard_catalog", "load_entry",
]


# the defining equations of an entry hold within this tolerance, relative
# to the curvature scale
_TOL = 1e-9


class EntryRejected(InputError, ValueError):
    """The candidate space fails its family's defining equations."""


class CatalogEntry:
    def __init__(self, name: str, space: MetricMeasureSpace, params: dict,
                 closed_form=None, equations=None):
        self.name = name
        self.space = space
        self.params = params
        # order -> the closed-form (g_coeffs, f_coeffs), or None
        self.closed_form = closed_form
        # sample points -> the request that checks the family's equations
        self.equations = equations

    def verify(self, points) -> Request:
        """The request that checks the entry's defining equations at the
        sample `points`; its result is the first failure found, an
        EntryRejected, or None (always, for an entry of no family)."""
        if self.equations is None:
            return Request(points, lambda _: None)
        return self.equations(points)

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


# -- defining equations ---------------------------------------------------------


def _equations(s, pts, family, groups, residuals) -> Request:
    """The request that checks the defining equations of `family` at
    `pts`.  `groups` name the roots they read, and `residuals` maps the
    values (name -> per-point rows) to each equation's residual at each
    point.  The result is an EntryRejected naming the equations that
    exceed _TOL times the curvature scale at the first point where one
    does, or None."""

    def reduce(v):
        limit = _TOL * v.pop("scale")
        res = residuals(v)
        for n, p in enumerate(pts):
            failing = [f"{eq} = {r[n]:.3e}" for eq, r in res.items()
                       if not r[n] <= limit]
            if failing:
                return EntryRejected(
                    f"the {family} equations fail at {p}: "
                    f"{', '.join(failing)} (limit {limit:.3e})")
        return None

    return Request(pts, reduce, scale=inv.curvature_scale(s, pts), **groups)


def _row_max(rows):
    """max |v| over each point's row of values."""
    return [max_abs(row) for row in rows]


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


def quasi_einstein_entry(space: MetricMeasureSpace, ric_eigenvalue, *,
                         name="quasi-einstein") -> CatalogEntry:
    """Entry for a space with Ric_phi = c g and F_phi = -c f^2, where c is
    `ric_eigenvalue`."""
    c = float(ric_eigenvalue)
    a = c / (2.0 * (space.dim + space.m - 1.0))
    params = {"ric_eigenvalue": c, "d": space.dim, "m": space.m,
              "mu": space.mu, "schouten_eigenvalue": a}

    def equations(pts):
        return _equations(space, pts, "quasi-Einstein", {
            "g": space.g.entries(), "ric": inv.weighted_ricci(space).entries(),
            "F": [space.geometry.F_phi], "f": [space.f]}, lambda v: {
            "|Ric_phi - c g|": _row_max(
                [[r - c * g for r, g in zip(rr, gr)]
                 for rr, gr in zip(v["ric"], v["g"])]),
            "|F_phi + c f^2|": [abs(F + c * (f * f))
                                for (F,), (f,) in zip(v["F"], v["f"])]})

    def closed_form(order):
        g_coeffs = _einstein_like_g(space, a, order)
        f_coeffs = [space.f]
        if order >= 1:
            f_coeffs.append(space.f * a)
        return g_coeffs, _padded(f_coeffs, order, space.chart.zero())

    return CatalogEntry(name, space, params, closed_form, equations)


def wlcf_entry(space: MetricMeasureSpace, *, name="wlcf") -> CatalogEntry:
    """Entry for a space locally conformally flat in the weighted sense.

    The deformation terminates at second order:
    g_rho = g + 2 rho P + rho^2 P.P and f_rho = f (1 + rho y/m); the
    assembled structure is flat, which downstream checks exercise.
    """
    if space.m <= 0:
        raise EntryRejected("the weighted-flat family requires m > 0")
    params = {"d": space.dim, "m": space.m, "mu": space.mu}

    def equations(pts):
        res_a, res_b, _ = inv.conformally_flat_identities(space)
        return _equations(space, pts, "weighted conformally flat", {
            "weyl": inv.independent_components(space.geometry.weyl),
            "cotton": inv.independent_components(space.geometry.cotton),
            "identities": res_a + [r for row in res_b for r in row]},
            lambda v: {f"|{key}|": _row_max(rows) for key, rows in v.items()})

    def closed_form(order):
        chart = space.chart
        zero = chart.zero()
        d = space.dim
        P_field, _, Y = inv.schouten(space)
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

    return CatalogEntry(name, space, params, closed_form, equations)


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
    if space.f.const_value() != 1.0:
        raise EntryRejected("the Gover-Leitner family requires f = 1")
    a = -space.mu / 2.0
    params = {"d": space.dim, "m": space.m, "mu": space.mu,
              "schouten_eigenvalue": a}

    def equations(pts):
        return _equations(space, pts, "Gover-Leitner", {
            "g": space.g.entries(), "ric": inv.weighted_ricci(space).entries()},
            lambda v: {"|Ric + (d-1) mu g|": _row_max(
                [[r + (space.dim - 1) * space.mu * g for r, g in zip(rr, gr)]
                 for rr, gr in zip(v["ric"], v["g"])])})

    def closed_form(order):
        g_coeffs = _einstein_like_g(space, a, order)
        f_coeffs = [space.chart.constant(1.0)]
        if order >= 1:
            f_coeffs.append(space.chart.constant(-a))
        return g_coeffs, _padded(f_coeffs, order, space.chart.zero())

    return CatalogEntry(name, space, params, closed_form, equations)


# -- seeded random spaces ---------------------------------------------------------


_POLY_BASIS = ("{c}*{xi}", "{c}*{xi}*{xj}", "{c}*sin({k}*{xi})", "{c}*cos({k}*{xi})")


def random_entry(d=3, m=1.0, mu=0.0, seed=0, amplitude=0.05, *,
                 box_half=0.5, name=None) -> CatalogEntry:
    """Seeded analytic perturbation of the flat space, positivity-checked.

    g = delta + amplitude * (symmetric low-degree polynomial/trig field),
    f = 1 + amplitude * (analytic perturbation); identical seeds give
    bit-identical entries.  It builds the test and benchmark corpora, and
    no command calls it: it imports numpy, for its seeded generator and
    `eigvalsh`, which the package does not depend on (the `test` extra
    installs it).
    """
    import numpy as np

    names = [f"x{i+1}" for i in range(d)]
    chart = Chart(names, box=[(-box_half, box_half)] * d)
    rng = np.random.default_rng(seed)

    def perturbation() -> str:
        terms = []
        for _ in range(3):
            kind = int(rng.integers(0, len(_POLY_BASIS)))
            xi = names[int(rng.integers(0, len(names)))]
            xj = names[int(rng.integers(0, len(names)))]
            k = int(rng.integers(1, 3))
            c = float(np.round(rng.uniform(-1.0, 1.0), 6))
            terms.append(_POLY_BASIS[kind].format(c=c, xi=xi, xj=xj, k=k))
        return "+".join(terms)

    comps = {}
    exprs = {}
    for i in range(d):
        for j in range(i, d):
            pert = perturbation()
            base = "1" if i == j else "0"
            expr = f"{base}+{amplitude}*({pert})" if amplitude else base
            exprs[f"g{i+1}{j+1}"] = expr
            comps[(i, j)] = parse_expression(expr, chart)
    f_expr = (f"1+{amplitude}*({perturbation()})"
              if amplitude else "1")
    exprs["f"] = f_expr
    g = SymTensor2Field(chart, comps)
    f = parse_expression(f_expr, chart)
    space = MetricMeasureSpace(chart, g, f, m, mu)

    grid_1d = np.linspace(-box_half, box_half, 5)
    grid = [tuple(float(v) for v in p)
            for p in np.stack(np.meshgrid(*([grid_1d] * d)), -1).reshape(-1, d)]
    v = Request(grid, g=g.entries(), f=[f]).result()
    lowest = np.linalg.eigvalsh(np.reshape(v["g"], (-1, d, d))).min(axis=1)
    for p, low, (fv,) in zip(grid, lowest, v["f"]):
        if low <= 1e-6:
            raise EntryRejected(
                f"perturbed metric loses positivity at {p} "
                f"(seed={seed}, amplitude={amplitude})")
        if fv <= 1e-6:
            raise EntryRejected(f"perturbed density loses positivity at {p}")

    return CatalogEntry(
        name or f"random-d{d}-seed{seed}", space,
        {"d": d, "m": m, "mu": mu, "seed": seed, "amplitude": amplitude,
         "expressions": exprs})


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
