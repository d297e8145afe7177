"""Order-by-order construction of the ambient deformation (g_rho, f_rho).

The straight-and-normal ambient structure

    gt = 2 rho dt^2 + 2 t drho dt + t^2 g_rho,      ft = t f_rho

is determined by requiring its weighted Ricci tensor and the companion
scalar Ft = ft Lap ft + (m-1)(|grad ft|^2 - mu) to vanish order by order
in rho.  With the candidate coefficients of rho^n set to (psi_ij,
upsilon), the rho^(n-1) coefficients of the two residuals change by

    n [ (n - (d+m)/2) psi_ij - (tr psi / 2 + (m/f) upsilon) g_ij ]
    n f [ (f/2) tr psi + (d + 2m - 2n) upsilon ]

so each order is a linear solve: the trace-free part carries the factor
(n - (d+m)/2) and the (tr psi, upsilon) pair the 2x2 system whose
determinant is -(2n-d-m)(n-d-m).  Branches on d+m:

  non-integer   every order solvable;
  even integer  at n = (d+m)/2 only the combination
                tr psi / 2 + (m/f) upsilon is determined (the leftover
                rho^(n-1) residual is the obstruction tensor);
  odd integer   at n = d+m the trace system is rank one along
                tr psi / 2 - (d/f) upsilon, solvable exactly when the
                consistency residual (m/f^2) Ft - tr Rt vanishes there.

Undetermined directions at critical orders are set to zero and recorded.
Residuals are recomputed from the closed-form expression of the ambient
blocks (see `closed_form_residual_series`), never from the correction
model, so a transcription error in either would fail the round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from functools import cached_property
import math
from typing import Optional

from . import curvature as cv
from .fields import ScalarField, SymTensor2Field, evaluate, max_abs
from .invariants import MetricMeasureSpace, conformal_change, curvature_scale
from .series import Series

__all__ = [
    "Branch", "BranchGuarantees", "RhoExpansion", "RhoSlice", "OrderStep",
    "ObstructionData", "classify_branch", "branch_guarantees", "expand",
    "solve_order_step", "obstruction", "obstruction_constant",
    "closed_form_residual_series", "OrderError", "ConsistencyError",
    "conformal_change",
]

BRANCH_SNAP_TOL = 1e-9
OBSTRUCTION_CONTINUATION_TOL = 1e-10
# relative bound on the odd-critical consistency residual (m/f^2) Ft - tr Rt
CONSISTENCY_TOL = 1e-8


class OrderError(ValueError):
    """The requested order is not reachable (unresolved obstruction, etc.)."""


class ConsistencyError(ArithmeticError):
    """The odd-order consistency residual exceeded tolerance."""


class Branch(Enum):
    NON_INTEGER = "NonInteger"
    EVEN_INTEGER = "EvenInteger"
    ODD_INTEGER = "OddInteger"


def classify_branch(d: int, m):
    """(branch, d+m as float, warnings).  Rationals classify exactly;
    floats within 1e-9 of an integer are snapped, with a warning."""
    warnings = []
    if isinstance(m, Fraction):
        dm = Fraction(d) + m
        if dm.denominator == 1:
            dm_int = int(dm)
            branch = Branch.EVEN_INTEGER if dm_int % 2 == 0 else Branch.ODD_INTEGER
            return branch, float(dm), warnings
        return Branch.NON_INTEGER, float(dm), warnings
    dm = d + float(m)
    nearest = round(dm)
    if abs(dm - nearest) < BRANCH_SNAP_TOL:
        if dm != nearest:
            warnings.append(
                f"d+m = {dm!r} snapped to the integer {nearest} for branch logic")
        branch = Branch.EVEN_INTEGER if nearest % 2 == 0 else Branch.ODD_INTEGER
        return branch, float(nearest), warnings
    return Branch.NON_INTEGER, dm, warnings


@dataclass(frozen=True)
class BranchGuarantees:
    """The orders to which the construction determines the ambient structure.

    Every number follows from `solved`, the last rho order whose
    coefficients are determined: the requested order N, except on the even
    branch, where the expansion is determined only below the critical
    order n_c = (d+m)/2.  Ric[ij] and F then vanish through rho^(solved-1),
    the trace combination g^{ij}Ric_ij - (m/f^2)F one order further once
    the critical step has run, the oo blocks one order less (they follow
    from the contracted Bianchi identity), and the Poincare residual
    through r^(2 solved - 1).
    """
    solved: int
    ij: int
    trace: int
    rho: int
    poincare_power: int


def branch_guarantees(d: int, m, order: int) -> BranchGuarantees:
    """Guaranteed orders at deformation order `order`, with d+m snapped to
    the integer as in `classify_branch`."""
    branch, dm, _ = classify_branch(d, m)
    solved = order
    trace = order - 1
    if branch is Branch.EVEN_INTEGER:
        n_c = int(dm) // 2
        solved = min(order, n_c - 1)
        trace = n_c - 1 if order >= n_c else solved - 1
    return BranchGuarantees(solved, solved - 1, trace, max(solved - 2, -1),
                            2 * solved - 1)


@dataclass
class OrderStep:
    n: int
    psi: SymTensor2Field
    upsilon: ScalarField
    trace_system_det: float
    solvable: bool
    note: Optional[str] = None
    # the Geometry of the slice of the coefficients through n-1 that the
    # step read
    geometry: Optional[cv.Geometry] = None


@dataclass
class ObstructionData:
    tensor: SymTensor2Field
    scalar_part: ScalarField
    c: float


@dataclass
class RhoExpansion:
    base: MetricMeasureSpace
    order: int
    g_coeffs: list
    f_coeffs: list
    branch: Branch
    obstruction: Optional[ObstructionData] = None
    ambiguity_notes: list = dc_field(default_factory=list)
    warnings: list = dc_field(default_factory=list)
    # the Geometry that the last solver step read: that of the slice of
    # g_coeffs and f_coeffs without their last coefficients
    geometry: Optional[cv.Geometry] = None

    def slice(self) -> "RhoSlice":
        """The rho-slice (g_rho, f_rho) of the computed coefficients.  It
        takes over `geometry` while the coefficients it was built from are
        still those of the expansion."""
        return RhoSlice(self.base, self.g_coeffs, self.f_coeffs, self.geometry)


class RhoSlice:
    """The rho-slice (g_rho, f_rho) of the coefficient lists `g_coeffs`
    and `f_coeffs` (rho^0 first, at least two), over the chart of
    `base`.  `G` (a matrix) and `F` are the rho-series cut after the
    last coefficient, and the rho-derivatives G', G'', F' and F'' that
    the closed forms read are taken of them.  `geometry` is the
    Geometry (curvature and weighted curvature) of the slice cut one
    coefficient earlier: the closed forms read its curvature only
    through that rho power, so no later one is built.  A `geometry`
    passed in is kept when its g and f hold the very coefficient objects
    of that cut slice (and its m and mu are the base's), with every
    attribute it has built; otherwise a new one is made.  Each attribute
    is built on first read and then kept."""

    def __init__(self, base, g_coeffs, f_coeffs, geometry=None):
        zero = base.chart.zero()
        trunc = len(g_coeffs) - 1
        d = base.dim
        self.G = [[Series([g.comp(i, j) for g in g_coeffs], 0, trunc, zero)
                   for j in range(d)] for i in range(d)]
        self.F = Series(list(f_coeffs), 0, trunc, zero)
        g = [[x.truncated(trunc - 1) for x in row] for row in self.G]
        f = self.F.truncated(trunc - 1)
        if geometry is None or not _same_slice(geometry, g, f, base):
            geometry = cv.Geometry(g, cv.partials(d), Series.zero_series(zero),
                                   f, base.m, base.mu)
        self.geometry = geometry
        self.chart_zero = zero

    Gp = cached_property(lambda self: _rho_derivs(self.G))
    Gpp = cached_property(lambda self: _rho_derivs(self.Gp))
    Fp = cached_property(lambda self: self.F.deriv())
    Fpp = cached_property(lambda self: self.Fp.deriv())


def _same_slice(geometry, g, f, base) -> bool:
    """Whether `geometry` is that of the series matrix `g` and the series
    `f`, coefficient object by coefficient object, with base's m and mu."""
    def same(a, b):
        return ((a.shift, a.trunc, len(a.coeffs))
                == (b.shift, b.trunc, len(b.coeffs))
                and all(x is y for x, y in zip(a.coeffs, b.coeffs)))
    return (geometry.m == base.m and geometry.mu == base.mu
            and same(geometry.f, f)
            and all(same(a, b) for ra, rb in zip(geometry.g, g)
                    for a, b in zip(ra, rb)))


def _rho_derivs(matrix):
    return [[x.deriv() for x in row] for row in matrix]


def closed_form_residual_series(slc: RhoSlice):
    """(Rt_ij, Ft): the ij block of the ambient weighted Ricci tensor and
    the ambient F-scalar of the slice `slc`, as rho-series over the
    chart, via the closed form

      Rt_ij = rho g''_ij - rho g^{kl} g'_ik g'_jl + rho (tr g')/2 g'_ij
              + rho (m/f) g'_ij f' - ((d+m)/2 - 1) g'_ij - (tr g')/2 g_ij
              - (m/f) g_ij f' + Ric_phi[g_rho, f_rho]_ij
      Ft    = -2 rho f f'' - rho f f' tr g' - 2(m-1) rho (f')^2
              + (f^2/2) tr g' + (2m+d-2) f f' + F_phi[g_rho, f_rho]

    with all primes rho-derivatives and traces taken in g_rho.  G' cuts
    both series one rho power before the slice's last coefficient, so g,
    f, g^{-1}, Ric_phi and F_phi are those of the slice's `geometry`,
    the slice cut there."""
    geo = slc.geometry
    d, m = geo.dim, float(geo.m)
    ezero = geo.zero
    rho = Series([1.0], 1, None, slc.chart_zero)
    G, F, Ginv = geo.g, geo.f, geo.ginv
    Gp, Gpp, Fp, Fpp = slc.Gp, slc.Gpp, slc.Fp, slc.Fpp
    tr_gp = cv.acc_sum([Ginv[k][l] * Gp[k][l] for k in range(d) for l in range(d)],
                       ezero)
    # the operands of rho * sq and rho * (tr g') g', cut one rho power
    # earlier than Gp: the rho shift would push their last power past
    # the truncation of Rt
    last = Gp[0][0].trunc - 1
    Ginv_c = [[x.truncated(last) for x in row] for row in Ginv]
    Gp_c = [[x.truncated(last) for x in row] for row in Gp]
    tr_gp_c = tr_gp.truncated(last)
    Rt = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            sq = cv.acc_sum([Ginv_c[k][l] * (Gp_c[i][k] * Gp_c[j][l])
                             for k in range(d) for l in range(d)], ezero)
            terms = [rho * Gpp[i][j], -(rho * sq),
                     rho * (tr_gp_c * Gp_c[i][j]) * 0.5,
                     -(Gp[i][j] * ((d + m) / 2.0 - 1.0)),
                     -(tr_gp * G[i][j]) * 0.5, geo.ric_phi[i][j]]
            if m != 0.0:
                terms.append(rho * ((Gp[i][j] * Fp) * m) / F)
                terms.append(-(((G[i][j] * Fp) * m) / F))
            Rt[i][j] = Rt[j][i] = cv.acc_sum(terms, ezero)
    Ft = cv.acc_sum([
        -(rho * (F * Fpp)) * 2.0,
        -(rho * ((F * Fp) * tr_gp)),
        -(rho * (Fp * Fp)) * (2.0 * (m - 1.0)),
        ((F * F) * tr_gp) * 0.5,
        (F * Fp) * (2.0 * m + d - 2.0),
        geo.F_phi], ezero)
    return Rt, Ft


def _residual_coefficients(base, g_coeffs, f_coeffs, n):
    """rho^(n-1) coefficients of (Rt_ij, Ft) with zero candidate at order n,
    and the Geometry of the slice they read (that of g_0..g_(n-1))."""
    chart = base.chart
    zero_t = SymTensor2Field.zero(chart)
    zero_f = chart.zero()
    g_ext = list(g_coeffs) + [zero_t] * (n + 1 - len(g_coeffs))
    f_ext = list(f_coeffs) + [zero_f] * (n + 1 - len(f_coeffs))
    slc = RhoSlice(base, g_ext, f_ext)
    Rt, Ft = closed_form_residual_series(slc)
    d = base.dim
    Rerr = [[Rt[i][j].coefficient(n - 1) for j in range(d)] for i in range(d)]
    Ferr = Ft.coefficient(n - 1)
    return Rerr, Ferr, slc.geometry


def _trace_with_base(base, T):
    ginv = base.geometry.ginv
    d = base.dim
    return cv.acc_sum([ginv[i][j] * T[i][j] for i in range(d) for j in range(d)],
                      base.chart.zero())


def solve_order_step(base, g_coeffs, f_coeffs, n, *,
                     check_points=None) -> OrderStep:
    """Determine the rho^n coefficients given coefficients through n-1."""
    branch, dm, _ = classify_branch(base.dim, base.m)
    d, m = base.dim, float(base.m)
    f0 = base.f
    chart = base.chart
    zero = chart.zero()
    g0 = base.g.as_matrix()
    Rerr, Ferr, geometry = _residual_coefficients(base, g_coeffs, f_coeffs, n)
    Rtrace = _trace_with_base(base, Rerr)
    det = (2 * n - dm) * (n - dm)

    is_even_critical = (branch is Branch.EVEN_INTEGER and 2 * n == int(dm))
    is_odd_critical = ((branch in (Branch.ODD_INTEGER, Branch.EVEN_INTEGER))
                       and n == int(dm) and not is_even_critical)

    if is_even_critical:
        # only tr psi / 2 + (m/f) upsilon is determined (even-order critical
        # solve); trace-free psi and the complementary combination are the
        # canonical zero choice
        combo = (Ferr * m) / (f0 * f0) - Rtrace if m != 0.0 else -Rtrace
        sigma = -(combo * (2.0 / dm ** 2))
        if m > 0.0:
            tau = sigma
            upsilon = (f0 * sigma) * (1.0 / (2.0 * m))
        else:
            tau = sigma * 2.0
            upsilon = zero
        psi = [[(g0[i][j] * tau) * (1.0 / d) for j in range(d)] for i in range(d)]
        note = ("critical even order: trace-free part and the combination "
                "tr psi / 2 - (m/f) upsilon set to zero (canonical choice)")
        return OrderStep(n, SymTensor2Field.from_matrix(chart, psi), upsilon,
                         det, False, note, geometry)

    # trace-free part (solvable whenever n != (d+m)/2)
    tf_factor = n * (n - dm / 2.0)
    psi_tf = [[-(Rerr[i][j] - (g0[i][j] * Rtrace) * (1.0 / d)) * (1.0 / tf_factor)
               for j in range(d)] for i in range(d)]

    if is_odd_critical:
        if check_points is None:
            check_points = base.sample(10, seed=0)
        scale = curvature_scale(base, check_points)
        worst = 0.0
        for fv, F, R in evaluate([f0, Ferr, Rtrace], check_points).T:
            worst = max(worst, abs((m / fv ** 2) * F - R))
        if worst > CONSISTENCY_TOL * scale:
            raise ConsistencyError(
                f"consistency residual {worst:.3e} at order n = {n} exceeds "
                f"{CONSISTENCY_TOL:.1e} x scale {scale:.3e}; the inputs are "
                f"outside the construction's hypotheses or precision degraded")
        omega = -(Ferr / (f0 * f0)) * (1.0 / dm)
        tau = omega * (2.0 * m / dm)
        upsilon = -(f0 * omega) * (1.0 / dm)
        psi = [[psi_tf[i][j] + (g0[i][j] * tau) * (1.0 / d) for j in range(d)]
               for i in range(d)]
        note = (f"critical order n = d+m: consistency residual {worst:.2e}; "
                "complementary combination tr psi / 2 + (m/f) upsilon set to "
                "zero (canonical choice)")
        return OrderStep(n, SymTensor2Field.from_matrix(chart, psi), upsilon,
                         det, False, note, geometry)

    if det == 0.0:
        raise OrderError(
            f"trace system determinant vanishes at order n = {n} outside the "
            "critical cases; this indicates an internal bug")

    # 2x2 trace system:  A tau - (B/f) upsilon = r1,  (f/2) tau + C upsilon = r2
    A = n - d - m / 2.0
    B = d * m
    C = d + 2.0 * m - 2.0 * n
    r1 = -(Rtrace * (1.0 / n))
    r2 = -(Ferr / (f0 * float(n)))
    denom = -det
    tau = (r1 * C + ((r2 * B) / f0 if B != 0.0 else zero)) * (1.0 / denom)
    upsilon = (r2 * A - (f0 * r1) * 0.5) * (1.0 / denom)
    psi = [[psi_tf[i][j] + (g0[i][j] * tau) * (1.0 / d) for j in range(d)]
           for i in range(d)]
    return OrderStep(n, SymTensor2Field.from_matrix(chart, psi), upsilon,
                     det, True, None, geometry)


def obstruction_constant(dm: int) -> float:
    """(-2)^(dm/2 - 1) (dm/2 - 1)! / (dm - 2)."""
    half = dm // 2
    return (-2.0) ** (half - 1) * math.factorial(half - 1) / (dm - 2)


def _measure_obstruction(base, g_coeffs, f_coeffs, n_c, dm, geometry=None):
    """ObstructionData from the completed-through-n_c coefficients; a
    `geometry` of the slice through n_c - 1 is taken over as
    `RhoSlice` allows."""
    Rt, Ft = closed_form_residual_series(
        RhoSlice(base, g_coeffs[: n_c + 1], f_coeffs[: n_c + 1], geometry))
    d = base.dim
    c = obstruction_constant(int(dm))
    factor = c * math.factorial(n_c - 1)
    tensor = SymTensor2Field.from_matrix(base.chart, [
        [Rt[i][j].coefficient(n_c - 1) * factor for j in range(d)] for i in range(d)])
    scalar_part = Ft.coefficient(n_c - 1) * factor
    return ObstructionData(tensor, scalar_part, c)


def expand(s: MetricMeasureSpace, order: int, *,
           check_points=None) -> RhoExpansion:
    """Solve the ambient deformation through the requested rho order.

    Spatial jets of g and f to degree 2*order + 2 back the computation;
    the degree bookkeeping is automatic in the lazy field evaluation.
    On the even branch, orders past the critical one require the measured
    obstruction to vanish (continuation), and every canonical choice made
    at a critical order is recorded in `ambiguity_notes`.
    """
    if order < 1:
        raise OrderError("expansion order must be at least 1")
    branch, dm, warnings = classify_branch(s.dim, s.m)
    g_coeffs = [s.g]
    f_coeffs = [s.f]
    notes = []
    obst = None
    geometry = None  # that of the last step
    n_c = int(dm) // 2 if branch is Branch.EVEN_INTEGER else None

    if check_points is None and s.chart.box is not None:
        check_points = s.sample(10, seed=0)

    for n in range(1, order + 1):
        if branch is Branch.EVEN_INTEGER and n == n_c + 1:
            # continuation past the critical order needs a vanishing obstruction
            if obst is None:
                obst = _measure_obstruction(s, g_coeffs, f_coeffs, n_c, dm,
                                            geometry)
            scale = curvature_scale(s, check_points)
            worst = max_abs(evaluate(obst.tensor.entries(), check_points))
            if worst > OBSTRUCTION_CONTINUATION_TOL * scale:
                raise OrderError(
                    f"order {order} requested past the critical order {n_c}, "
                    f"but the obstruction tensor is nonzero (measured "
                    f"{worst:.3e} > {OBSTRUCTION_CONTINUATION_TOL:.1e} x scale "
                    f"{scale:.3e}); the expansion stops at order {n_c}")
            notes.append(
                f"continuation past the critical order {n_c}: measured "
                f"obstruction {worst:.2e} within tolerance")
        step = solve_order_step(s, g_coeffs, f_coeffs, n,
                                check_points=check_points)
        g_coeffs.append(step.psi)
        f_coeffs.append(step.upsilon)
        geometry = step.geometry
        if step.note:
            notes.append(f"order {n}: {step.note}")

    if branch is Branch.EVEN_INTEGER and obst is None and order >= n_c - 1:
        if order >= n_c:
            obst = _measure_obstruction(s, g_coeffs, f_coeffs, n_c, dm,
                                        geometry)
        else:
            # run the critical step on a scratch copy to read the obstruction
            scratch_g, scratch_f = list(g_coeffs), list(f_coeffs)
            for n in range(order + 1, n_c + 1):
                step = solve_order_step(s, scratch_g, scratch_f, n,
                                        check_points=check_points)
                scratch_g.append(step.psi)
                scratch_f.append(step.upsilon)
            obst = _measure_obstruction(s, scratch_g, scratch_f, n_c, dm,
                                        step.geometry)

    return RhoExpansion(s, order, g_coeffs, f_coeffs, branch, obst,
                        notes, warnings, geometry)


def obstruction(s: MetricMeasureSpace, *, check_points=None) -> ObstructionData:
    """The obstruction tensor and scalar at order (d+m)/2 - 1.

    Defined only when d+m is an even integer >= 4.  The rho-jet
    coefficient is converted to a rho-derivative with the factor
    ((d+m)/2 - 1)!.
    """
    branch, dm, _ = classify_branch(s.dim, s.m)
    if branch is not Branch.EVEN_INTEGER:
        raise OrderError(f"obstruction requires d+m an even integer; d+m = {dm}")
    if int(dm) < 4:
        raise OrderError(f"obstruction requires d+m >= 4; d+m = {dm}")
    n_c = int(dm) // 2
    e = expand(s, n_c, check_points=check_points)
    return e.obstruction
