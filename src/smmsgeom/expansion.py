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
  even integer  at n_c = (d+m)/2 only the combination
                tr psi / 2 + (m/f) upsilon is determined (the leftover
                rho^(n-1) residual is the obstruction tensor);
  any integer   at n = d+m the trace system is rank one along
                tr psi / 2 - (d/f) upsilon, solvable exactly when the
                consistency residual (m/f^2) Ft - tr Rt vanishes there;
                the rho^(n-2) coefficient of Ric[oo oo], which moves by
                -n(n-1)(tr psi / 2 + (m/f) upsilon), fixes the rest.

`BranchPlan`, which `classify_branch` returns, states these rules once:
it alone derives the critical orders and the branch guarantees from d+m.
Only n_c leaves directions undetermined; they are set to zero and
recorded.
Residuals are recomputed from the closed-form expression of the ambient
blocks (see `closed_form_residual_series`), never from the correction
model, so a transcription error in either would fail the round trip.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
import math

from . import curvature as cv
from .errors import InputError
from .fields import Request, ScalarField, SymTensor2Field, max_abs
from .invariants import MetricMeasureSpace
from .series import Series

__all__ = [
    "Branch", "BranchGuarantees", "BranchPlan", "RhoExpansion", "RhoSlice",
    "OrderStep", "ObstructionData", "classify_branch", "expand",
    "gate_request", "check_gates", "solve_order_step", "critical_order",
    "obstruction", "obstruction_constant", "closed_form_residual_series",
    "OrderError", "ConsistencyError",
]

BRANCH_SNAP_TOL = 1e-9
OBSTRUCTION_CONTINUATION_TOL = 1e-10
# relative bound on the odd-critical consistency residual (m/f^2) Ft - tr Rt
CONSISTENCY_TOL = 1e-8


class OrderError(InputError, ValueError):
    """The requested order is not reachable (unresolved obstruction, etc.)."""


class ConsistencyError(InputError, ArithmeticError):
    """The odd-order consistency residual exceeded tolerance."""


class Branch(Enum):
    NON_INTEGER = "NonInteger"
    EVEN_INTEGER = "EvenInteger"
    ODD_INTEGER = "OddInteger"


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

    def __init__(self, solved: int, ij: int, trace: int, rho: int,
                 poincare_power: int):
        self.solved = solved
        self.ij = ij
        self.trace = trace
        self.rho = rho
        self.poincare_power = poincare_power


class BranchPlan:
    """The branch of d+m and every order the construction derives from it:
    the one statement of the branch rules that the solver, the
    obstruction and the report checks read.  `dm` is d+m as a float,
    snapped to the integer where `classify_branch` snapped it, and
    `warnings` says so."""

    def __init__(self, branch: Branch, dm: float, warnings: tuple = ()):
        self.branch = branch
        self.dm = dm
        self.warnings = warnings

    @property
    def n_c(self) -> int | None:
        """The even critical order (d+m)/2, or None off the even branch."""
        return int(self.dm) // 2 if self.branch is Branch.EVEN_INTEGER else None

    @property
    def n_odd(self) -> int | None:
        """The odd critical order d+m, where the trace system has rank one
        and a consistency residual must vanish: on either integer branch,
        else None."""
        return None if self.branch is Branch.NON_INTEGER else int(self.dm)

    def guarantees(self, order: int) -> BranchGuarantees:
        """Guaranteed orders at deformation order `order`."""
        n_c, solved, trace = self.n_c, order, order - 1
        if n_c is not None:
            solved = min(order, n_c - 1)
            trace = n_c - 1 if order >= n_c else solved - 1
        return BranchGuarantees(solved, solved - 1, trace,
                                max(solved - 2, -1), 2 * solved - 1)


def classify_branch(d: int, m) -> BranchPlan:
    """The BranchPlan of d+m.  Rationals (an `m` with a `denominator`,
    such as an int or a `fractions.Fraction`) classify exactly; floats
    within 1e-9 of an integer are snapped, with a warning."""
    if hasattr(m, "denominator"):
        dm = d + m
        integer = dm.denominator == 1
    else:
        dm = d + float(m)
        integer = abs(dm - round(dm)) < BRANCH_SNAP_TOL
    if not integer:
        return BranchPlan(Branch.NON_INTEGER, float(dm))
    nearest = round(dm)
    warnings = () if dm == nearest else (
        f"d+m = {dm!r} snapped to the integer {nearest} for branch logic",)
    return BranchPlan(Branch.ODD_INTEGER if nearest % 2 else Branch.EVEN_INTEGER,
                      float(nearest), warnings)


class OrderStep:
    def __init__(self, n: int, psi: SymTensor2Field, upsilon: ScalarField,
                 trace_system_det: float, note: str | None = None,
                 gate: tuple = ()):
        self.n = n
        self.psi = psi
        self.upsilon = upsilon
        self.trace_system_det = trace_system_det
        self.note = note
        # at n = d+m: f, Ferr and tr Rerr, assumed consistent
        self.gate = gate


class ObstructionData:
    def __init__(self, tensor: SymTensor2Field, scalar_part: ScalarField,
                 c: float):
        self.tensor = tensor
        self.scalar_part = scalar_part
        self.c = c


class RhoExpansion:
    def __init__(self, base: MetricMeasureSpace, order: int, g_coeffs: list,
                 f_coeffs: list, plan: BranchPlan,
                 obstruction: ObstructionData | None = None,
                 ambiguity_notes: list | None = None,
                 gates: dict | None = None):
        self.base = base
        self.order = order
        self.g_coeffs = g_coeffs
        self.f_coeffs = f_coeffs
        self.plan = plan
        self.obstruction = obstruction
        # a gate's note has a format field, named after the gate, for the
        # value `gate_request` measures
        self.ambiguity_notes = [] if ambiguity_notes is None else ambiguity_notes
        self.gates = {} if gates is None else gates  # gate name -> roots

    def slice(self) -> "RhoSlice":
        """The rho-slice (g_rho, f_rho) of the computed coefficients."""
        return RhoSlice(self.base, self.g_coeffs, self.f_coeffs)


class RhoSlice:
    """The rho-slice (g_rho, f_rho) of the coefficient lists `g_coeffs`
    and `f_coeffs` (rho^0 first, at least two), over the chart of
    `base`.  `G` (a matrix) and `F` are the rho-series cut after the
    last coefficient, and the rho-derivatives G', G'', F' and F'' that
    the closed forms read are taken of them.  `geometry` is the
    Geometry (curvature and weighted curvature) of the slice cut one
    coefficient earlier: the closed forms read its curvature only
    through that rho power, so no later one is built.  It is looked up
    in `base.slice_geometries` by the coefficient fields of that cut
    slice and built only on a miss, so slices of equal fields (a solver
    step's, the expansion's) share one Geometry and what it has built.
    Each attribute is built on first read and then kept."""

    def __init__(self, base, g_coeffs, f_coeffs):
        zero = base.chart.zero()
        trunc = len(g_coeffs) - 1
        d = base.dim
        self.G = [[Series([g.comp(i, j) for g in g_coeffs], 0, trunc, zero)
                   for j in range(d)] for i in range(d)]
        self.F = Series(list(f_coeffs), 0, trunc, zero)
        key = (tuple(x for g in g_coeffs[:-1] for x in g.entries())
               + tuple(f_coeffs[:-1]))
        geometry = base.slice_geometries.get(key)
        if geometry is None:
            geometry = base.slice_geometries[key] = cv.Geometry(
                [[x.truncated(trunc - 1) for x in row] for row in self.G],
                cv.partials(d), Series.zero_series(zero),
                self.F.truncated(trunc - 1), base.m, base.mu)
        self.geometry = geometry
        self.chart_zero = zero

    Gp = cached_property(lambda self: _rho_derivs(self.G))
    Gpp = cached_property(lambda self: _rho_derivs(self.Gp))
    Fp = cached_property(lambda self: self.F.deriv())
    Fpp = cached_property(lambda self: self.Fp.deriv())


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
    tr_gp = cv.trace(Ginv, Gp, ezero)
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
    and the slice they read (g_0..g_(n-1) and the zero candidate)."""
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
    return Rerr, Ferr, slc


def _rho_rho_coefficient(slc: RhoSlice, k: int):
    """The rho^k coefficient of Ric_phi[oo oo] of the slice `slc`, by its
    closed form -tr(g^-1 g'')/2 + tr(g^-1 g' g^-1 g')/4 - (m/f) f''."""
    geo = slc.geometry
    d, ez = geo.dim, geo.zero
    Ginv = [[x.truncated(k) for x in row] for row in geo.ginv]
    Gp = [[x.truncated(k) for x in row] for row in slc.Gp]
    sq = [[cv.acc_sum([Ginv[a][b] * (Gp[i][a] * Gp[j][b])
                       for a in range(d) for b in range(d)], ez)
           for j in range(d)] for i in range(d)]
    return cv.acc_sum([cv.trace(Ginv, slc.Gpp, ez) * -0.5,
                       cv.trace(Ginv, sq, ez) * 0.25,
                       -((slc.Fpp * float(geo.m)) / geo.f)], ez).coefficient(k)


def solve_order_step(base, g_coeffs, f_coeffs, n) -> OrderStep:
    """Determine the rho^n coefficients given coefficients through n-1."""
    plan = classify_branch(base.dim, base.m)
    dm = plan.dm
    d, m = base.dim, float(base.m)
    f0 = base.f
    chart = base.chart
    zero = chart.zero()
    g0 = base.g.as_matrix()
    Rerr, Ferr, slc = _residual_coefficients(base, g_coeffs, f_coeffs, n)
    Rtrace = cv.trace(base.geometry.ginv, Rerr, zero)
    det = (2 * n - dm) * (n - dm)
    even_critical = n == plan.n_c
    note, gate = None, ()

    # trace-free part: solvable whenever n != (d+m)/2, where it is the
    # canonical zero choice
    tf_factor = n * (n - dm / 2.0)
    psi_tf = [[zero if even_critical else
               -(Rerr[i][j] - (g0[i][j] * Rtrace) * (1.0 / d)) * (1.0 / tf_factor)
               for j in range(d)] for i in range(d)]

    if even_critical:
        # only tr psi / 2 + (m/f) upsilon is determined (even-order critical
        # solve); the complementary combination is the canonical zero choice
        combo = (Ferr * m) / (f0 * f0) - Rtrace if m != 0.0 else -Rtrace
        sigma = -(combo * (2.0 / dm ** 2))
        if m > 0.0:
            tau = sigma
            upsilon = (f0 * sigma) * (1.0 / (2.0 * m))
        else:
            tau = sigma * 2.0
            upsilon = zero
        note = ("critical even order: trace-free part and the combination "
                "tr psi / 2 - (m/f) upsilon set to zero (canonical choice)")
    elif n == plan.n_odd:
        gate = (f0, Ferr, Rtrace)
        omega = -(Ferr / (f0 * f0)) * (1.0 / dm)
        # the null direction (tau, upsilon) = (2d, f) of the trace system
        # moves the rho^(n-2) coefficient of Ric[oo oo] by -n(n-1)(d+m):
        # the rho-rho equation fixes its multiple
        null = _rho_rho_coefficient(slc, n - 2) * (1.0 / (n * (n - 1) * dm))
        tau = omega * (2.0 * m / dm) + null * (2.0 * d)
        upsilon = f0 * null - (f0 * omega) * (1.0 / dm)
        note = ("critical order n = d+m: consistency residual "
                "{consistency:.2e}; the combination tr psi / 2 + (m/f) "
                "upsilon fixed by the rho-rho equation")
    elif det == 0.0:
        raise OrderError(
            f"trace system determinant vanishes at order n = {n} outside the "
            "critical cases; this indicates an internal bug")
    else:
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
                     det, note, gate)


def obstruction_constant(dm: int) -> float:
    """(-2)^(dm/2 - 1) (dm/2 - 1)! / (dm - 2)."""
    half = dm // 2
    return (-2.0) ** (half - 1) * math.factorial(half - 1) / (dm - 2)


def _measure_obstruction(base, n_c, g_coeffs, f_coeffs):
    """ObstructionData at the even critical order `n_c` from the
    coefficients through n_c."""
    Rerr, Ferr, _ = _residual_coefficients(base, g_coeffs, f_coeffs, n_c)
    c = obstruction_constant(2 * n_c)
    factor = c * math.factorial(n_c - 1)
    tensor = SymTensor2Field.from_matrix(
        base.chart, [[x * factor for x in row] for row in Rerr])
    return ObstructionData(tensor, Ferr * factor, c)


def expand(s: MetricMeasureSpace, order: int) -> RhoExpansion:
    """Solve the ambient deformation through the requested rho order.

    Spatial jets of g and f to degree 2*order + 2 back the computation;
    the degree bookkeeping is automatic in the lazy field evaluation.
    On the even branch from order n_c - 1 on, the solver runs through
    the critical order n_c and builds the obstruction right after that
    step; the steps past `order` are read for it and then dropped.
    Every canonical choice made at a critical order is recorded in
    `ambiguity_notes`.  The solve evaluates nothing: the gates it passes
    on trust (the continuation past n_c, the consistency at n = d+m) are
    recorded in `gates`, measured by `gate_request` and checked by
    `check_gates`.
    """
    if order < 1:
        raise OrderError("expansion order must be at least 1")
    plan = classify_branch(s.dim, s.m)
    n_c = plan.n_c
    last = order
    if n_c is not None and order >= n_c - 1:
        last = max(order, n_c)  # through n_c, for the obstruction
    g_coeffs = [s.g]
    f_coeffs = [s.f]
    notes = []
    gates = {}
    obst = None

    for n in range(1, last + 1):
        step = solve_order_step(s, g_coeffs, f_coeffs, n)
        g_coeffs.append(step.psi)
        f_coeffs.append(step.upsilon)
        if n <= order and step.note:
            notes.append(f"order {n}: {step.note}")
        if step.gate:
            gates["consistency"] = step.gate
        if n != n_c:
            continue
        obst = _measure_obstruction(s, n_c, g_coeffs, f_coeffs)
        if order > n_c:
            gates["continuation"] = obst.tensor.entries()
            notes.append(
                f"continuation past the critical order {n_c}: measured "
                "obstruction {continuation:.2e} within tolerance")

    return RhoExpansion(s, order, g_coeffs[:order + 1], f_coeffs[:order + 1],
                        plan, obst, notes, gates)


def gate_request(e: RhoExpansion, points) -> Request:
    """The request that measures the gates of `e` at `points`: the
    obstruction past n_c and the consistency residual at n = d+m.  Its
    result is gate name -> measured value, which `check_gates` measures
    against the curvature scale."""
    m = float(e.base.m)

    def reduce(v):
        measured = {}
        if "continuation" in v:
            measured["continuation"] = max_abs(v["continuation"])
        if "consistency" in v:
            measured["consistency"] = max(
                [0.0] + [abs((m / fv ** 2) * F - R)
                         for fv, F, R in v["consistency"]])
        return measured

    return Request(points, reduce, **e.gates)


def check_gates(e: RhoExpansion, measured: dict, scale: float):
    """Raise the error of the first gate of `e` whose `measured` value
    (from `gate_request`) exceeds its tolerance times the curvature
    `scale`: the obstruction past n_c, then the consistency residual at
    n = d+m."""
    worst = measured.get("continuation", 0.0)
    if worst > OBSTRUCTION_CONTINUATION_TOL * scale:
        raise OrderError(
            f"order {e.order} requested past the critical order "
            f"{e.plan.n_c}, but the obstruction tensor is nonzero (measured "
            f"{worst:.3e} > {OBSTRUCTION_CONTINUATION_TOL:.1e} x scale "
            f"{scale:.3e}); the expansion stops at order {e.plan.n_c}")
    worst = measured.get("consistency", 0.0)
    if worst > CONSISTENCY_TOL * scale:
        raise ConsistencyError(
            f"consistency residual {worst:.3e} at order n = "
            f"{e.plan.n_odd} exceeds {CONSISTENCY_TOL:.1e} x scale "
            f"{scale:.3e}; the inputs are outside the construction's "
            f"hypotheses or precision degraded")


def critical_order(s: MetricMeasureSpace) -> int:
    """The even critical order n_c = (d+m)/2 of the obstruction; an
    OrderError unless d+m is an even integer (>= 4, as d >= 3)."""
    plan = classify_branch(s.dim, s.m)
    if plan.n_c is None:
        raise OrderError(f"obstruction requires d+m an even integer; "
                         f"d+m = {plan.dm}")
    return plan.n_c


def obstruction(s: MetricMeasureSpace) -> ObstructionData:
    """The obstruction tensor and scalar at order (d+m)/2 - 1.

    Defined only when d+m is an even integer (`critical_order`).  The
    rho-jet coefficient is converted to a rho-derivative with the factor
    ((d+m)/2 - 1)!.
    """
    return expand(s, critical_order(s)).obstruction
