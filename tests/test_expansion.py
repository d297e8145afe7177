"""The order-by-order solver: first/second-order formulas, branch logic,
critical orders, obstruction, and closed-form reproduction."""

from fractions import Fraction

import numpy as np
import pytest

from smmsgeom import invariants as inv
from smmsgeom.catalog import (flat_space, hyperbolic_upper_half_space,
                              load_entry, quasi_einstein_entry, random_entry,
                              round_sphere_space)
from smmsgeom.expansion import (CONSISTENCY_TOL, Branch, ConsistencyError,
                                OrderError, classify_branch,
                                closed_form_residual_series, expand,
                                gate_request, obstruction,
                                obstruction_constant, solve_order_step)
from smmsgeom.fields import Request, evaluate, max_abs


def gate_notes(e, points):
    """The notes of `e`, with the gates measured at `points`."""
    measured = gate_request(e, points).result()
    return [note.format(**measured) for note in e.ambiguity_notes]


def residual_worst(space, e, orders, points):
    Rt, Ft = closed_form_residual_series(e.slice())
    d = space.dim
    series = [Rt[i][j] for i in range(d) for j in range(i, d)] + [Ft]
    return max_abs(evaluate([s.coefficient(k) for k in orders
                             for s in series], points))


# m -> (branch, dm, warnings) of d = 3: a value with a `denominator`
# (an int, a Fraction) classifies exactly, anything else as a float,
# snapped within BRANCH_SNAP_TOL = 1e-9 of an integer
SNAPPED = "d+m = 4.000000000001 snapped to the integer 4 for branch logic"
CLASSIFY_TABLE = [
    (0.5, Branch.NON_INTEGER, 3.5, ()),
    (1.0, Branch.EVEN_INTEGER, 4.0, ()),
    (2.0, Branch.ODD_INTEGER, 5.0, ()),
    (1, Branch.EVEN_INTEGER, 4.0, ()),
    (Fraction(1, 2), Branch.NON_INTEGER, 3.5, ()),
    (Fraction(3, 1), Branch.EVEN_INTEGER, 6.0, ()),
    (1.0 + 1e-12, Branch.EVEN_INTEGER, 4.0, (SNAPPED,)),
    (np.float64(1.0 + 1e-12), Branch.EVEN_INTEGER, 4.0, (SNAPPED,)),
    (np.float64(2.0), Branch.ODD_INTEGER, 5.0, ()),
]


def test_classify_branch():
    for m, branch, dm, warnings in CLASSIFY_TABLE:
        plan = classify_branch(3, m)
        assert (plan.branch, plan.dm, plan.warnings) == (branch, dm, warnings)
        assert type(plan.dm) is float


# (d, m) -> (n_c, the odd critical order d+m), from the branch rules
PLAN_TABLE = [
    (3, 0.5, None, None),         # d+m = 3.5
    (3, 1.0, 2, 4),               # d+m = 4
    (3, 0.9999999999, 2, 4),      # snapped to d+m = 4
    (3, 2.0, None, 5),            # d+m = 5
    (3, 3.0, 3, 6),               # d+m = 6
]


@pytest.mark.parametrize("d,m,n_c,n_odd", PLAN_TABLE)
def test_branch_plan_critical_orders(d, m, n_c, n_odd):
    plan = classify_branch(d, m)
    assert (plan.n_c, plan.n_odd) == (n_c, n_odd)


# (d, m, N) -> (solved, ij/F, trace combination, oo blocks, Poincare r-power),
# written out by hand from the branch rules
GUARANTEE_TABLE = [
    (3, 1.0, 1, (1, 0, 0, -1, 1)),           # d+m = 4, n_c = 2
    (3, 1.0, 2, (1, 0, 1, -1, 1)),
    (3, 1.0, 3, (1, 0, 1, -1, 1)),
    (3, 0.9999999999, 1, (1, 0, 0, -1, 1)),  # snapped to d+m = 4
    (3, 3.0, 1, (1, 0, 0, -1, 1)),           # d+m = 6, n_c = 3
    (3, 3.0, 2, (2, 1, 1, 0, 3)),
    (3, 3.0, 3, (2, 1, 2, 0, 3)),
    (3, 1.5, 1, (1, 0, 0, -1, 1)),           # d+m = 4.5
    (3, 1.5, 2, (2, 1, 1, 0, 3)),
    (3, 1.5, 3, (3, 2, 2, 1, 5)),
    (3, 2.0, 1, (1, 0, 0, -1, 1)),           # d+m = 5
    (3, 2.0, 2, (2, 1, 1, 0, 3)),
    (3, 2.0, 3, (3, 2, 2, 1, 5)),
]


@pytest.mark.parametrize("d,m,order,want", GUARANTEE_TABLE)
def test_branch_guarantees_table(d, m, order, want):
    gu = classify_branch(d, m).guarantees(order)
    assert (gu.solved, gu.ij, gu.trace, gu.rho, gu.poincare_power) == want


def test_flat_expansion_vanishes():
    e = expand(flat_space(d=3, m=2.0, mu=0.0), 4)
    p = (0.1, -0.2, 0.3)
    for k in range(1, 5):
        assert np.allclose(e.g_coeffs[k].matrix_values(p), 0.0, atol=1e-14)
        assert abs(e.f_coeffs[k].value(p)) < 1e-14


def test_first_order_is_schouten_data():
    s = random_entry(d=3, m=1.7, mu=0.3, seed=11).space
    e = expand(s, 1)
    P, _, Y = inv.schouten(s)
    for p in s.sample(5, seed=2):
        assert np.allclose(e.g_coeffs[1].matrix_values(p),
                           2.0 * np.asarray(P.matrix_values(p)), atol=1e-11)
        want = s.f.value(p) / s.m * Y.value(p)
        assert e.f_coeffs[1].value(p) == pytest.approx(want, abs=1e-11)


def test_order_step_determinant_value():
    s = random_entry(d=3, m=1.5, mu=0.0, seed=2).space
    step = solve_order_step(s, [s.g], [s.f], 1)
    assert step.trace_system_det == pytest.approx((2 - 4.5) * (1 - 4.5))
    assert step.note is None
    e = expand(s, 2)
    step2 = solve_order_step(s, e.g_coeffs[:2], e.f_coeffs[:2], 2)
    assert step2.trace_system_det == pytest.approx((4 - 4.5) * (2 - 4.5))


def test_second_order_matches_bach_formula():
    for m in (1.5, 2.5):
        s = random_entry(d=3, m=m, mu=0.15, seed=31).space
        e = expand(s, 2)
        B = inv.weighted_bach(s)
        P, _, _ = inv.schouten(s)
        dm4 = 3 + m - 4
        pts = s.sample(4, seed=1)
        scale = max(inv.curvature_scale(s, pts).result(), 1.0)
        for p in pts:
            ginv = np.linalg.inv(s.g.matrix_values(p))
            Pv = np.asarray(P.matrix_values(p))
            gpp = 2.0 * np.asarray(e.g_coeffs[2].matrix_values(p))
            resid = (dm4 * gpp + 2.0 * np.asarray(B.matrix_values(p))
                     - 2.0 * dm4 * (Pv @ ginv @ Pv))
            assert np.max(np.abs(resid)) <= 1e-8 * scale


def test_noninteger_branch_residuals_vanish():
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    e = expand(s, 3)
    assert e.plan.branch is Branch.NON_INTEGER
    pts = s.sample(10, seed=9)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    assert residual_worst(s, e, range(3), pts) <= 1e-9 * scale


def test_slice_takes_over_the_last_step_geometry_only_while_it_fits():
    from smmsgeom.expansion import RhoSlice
    from smmsgeom.fields import SymTensor2Field
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    e = expand(s, 2)
    # the slice the last solver step read: g_0, g_1 and a zero candidate
    zero = SymTensor2Field.zero(s.chart)
    step = RhoSlice(s, e.g_coeffs[:2] + [zero],
                    e.f_coeffs[:2] + [s.chart.zero()]).geometry
    assert e.slice().geometry is step is not None
    # the last coefficient is not in the step's slice: still taken over
    e.g_coeffs[2] = zero
    assert e.slice().geometry is step
    # a new tensor of the same component fields is the same input
    e.g_coeffs[1] = SymTensor2Field(s.chart, dict(e.g_coeffs[1].comps))
    assert e.slice().geometry is step
    # a changed component below the last coefficient is not
    comps = dict(e.g_coeffs[1].comps)
    comps[(0, 1)] = comps[(0, 1)] + 1e-3
    e.g_coeffs[1] = SymTensor2Field(s.chart, comps)
    fresh = e.slice().geometry
    assert fresh is not step
    assert fresh.g[0][1].coeffs[1] is comps[(0, 1)]


def test_even_branch_critical_and_trace_combination():
    s = random_entry(d=3, m=1.0, mu=0.1, seed=21).space
    e = expand(s, 2)
    assert e.plan.branch is Branch.EVEN_INTEGER
    assert any("critical even order" in note for note in e.ambiguity_notes)
    pts = s.sample(5, seed=9)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    # full residual vanishes through coefficient (d+m)/2 - 2 = 0
    assert residual_worst(s, e, [0], pts) <= 1e-9 * scale
    # the trace combination g^{ij} Rt_ij - (m/f^2) Ft improves one order
    Rt, Ft = closed_form_residual_series(e.slice())
    worst = 0.0
    for k in (0, 1):
        v = Request(pts, g=s.g.entries(), f=[s.f],
                    R=[Rt[i][j].coefficient(k) for i in range(3)
                       for j in range(3)], F=[Ft.coefficient(k)]).result()
        for g, (fv,), R, (F,) in zip(v["g"], v["f"], v["R"], v["F"]):
            ginv = np.linalg.inv(np.reshape(g, (3, 3)))
            R = np.reshape(R, (3, 3))
            tr = sum(ginv[i, j] * R[i, j] for i in range(3) for j in range(3))
            combo = tr - s.m / fv ** 2 * F
            worst = max(worst, abs(combo))
    assert worst <= 1e-9 * scale


def obstruction_objects(e):
    return list(e.obstruction.tensor.entries()) + [e.obstruction.scalar_part]


def test_obstruction_is_measured_once_right_after_the_critical_step():
    # below n_c the solver runs the critical step for the obstruction
    # and keeps neither its coefficients nor its note
    s = random_entry(d=3, m=1.0, mu=0.1, seed=21).space
    e1, e2 = expand(s, 1), expand(s, 2)
    assert all(a is b for a, b in zip(obstruction_objects(e1),
                                      obstruction_objects(e2)))
    assert len(e1.g_coeffs) == len(e1.f_coeffs) == 2
    assert not any(note.startswith("order 2:") for note in e1.ambiguity_notes)
    assert any(note.startswith("order 2:") for note in e2.ambiguity_notes)


def test_continuation_reads_the_obstruction_of_the_critical_step():
    s = flat_space(d=3, m=1.0)
    e2, e3 = expand(s, 2), expand(s, 3)
    assert all(a is b for a, b in zip(obstruction_objects(e2),
                                      obstruction_objects(e3)))
    notes = gate_notes(e3, s.sample(10, seed=0))
    assert sum("continuation" in note for note in notes) == 1


def test_even_branch_blocks_past_obstruction():
    s = random_entry(d=3, m=1.0, mu=0.1, seed=21).space
    e = expand(s, 3)
    with pytest.raises(OrderError, match="obstruction"):
        gate_request(e, s.sample(10, seed=0)).result()


def test_even_branch_continuation_when_obstruction_vanishes():
    # the round sphere with f = 1, m = 1 has d+m = 4 and zero obstruction
    s = round_sphere_space(d=3, m=1.0, mu=-1.0)
    e = expand(s, 3)
    assert any("continuation" in note
               for note in gate_notes(e, s.sample(10, seed=0)))
    a = 0.5  # Schouten eigenvalue of the unit sphere
    p = (0.1, -0.05, 0.2)
    gm = np.asarray(s.g.matrix_values(p))
    ginv = np.linalg.inv(gm)
    # below the critical order the coefficients are unique: (1 + a rho)^2 g
    assert np.allclose(e.g_coeffs[1].matrix_values(p), 2 * a * gm, atol=1e-9)
    # at the critical order only tr psi / 2 + (m/f) upsilon is determined;
    # compare it against the closed form's value (f_rho = 1 - a rho has f_2 = 0)
    sigma_solver = (0.5 * np.trace(ginv @ e.g_coeffs[2].matrix_values(p))
                    + s.m * e.f_coeffs[2].value(p))
    sigma_closed = 0.5 * np.trace(ginv @ (a * a * gm))
    assert sigma_solver == pytest.approx(sigma_closed, abs=1e-9)
    # the continued expansion keeps killing residuals at its own orders
    pts = s.sample(4, seed=6)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    assert residual_worst(s, e, range(3), pts) <= 1e-9 * scale


def test_obstruction_constant_value():
    # (-2)^(dm/2 - 1) (dm/2 - 1)! / (dm - 2)
    assert obstruction_constant(4) == pytest.approx(-1.0)
    assert obstruction_constant(6) == pytest.approx(2.0)
    assert obstruction_constant(8) == pytest.approx((-2.0) ** 3 * 6 / 6)


def test_obstruction_requires_even_branch():
    s = random_entry(d=3, m=0.5, mu=0.0, seed=1).space
    with pytest.raises(OrderError):
        obstruction(s)


def test_obstruction_flat_zero():
    obs = obstruction(flat_space(d=3, m=1.0, mu=0.0))
    p = (0.2, 0.1, -0.3)
    assert np.allclose(obs.tensor.matrix_values(p), 0.0, atol=1e-14)
    assert abs(obs.scalar_part.value(p)) < 1e-14


def test_obstruction_equals_bach_at_dm4():
    s = random_entry(d=3, m=1.0, mu=0.1, seed=21).space
    obs = obstruction(s)
    B = inv.weighted_bach(s)
    pts = s.sample(5, seed=9)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    for p in pts:
        diff = (np.asarray(obs.tensor.matrix_values(p))
                - np.asarray(B.matrix_values(p)))
        assert np.max(np.abs(diff)) <= 1e-8 * scale


def test_obstruction_vanishes_for_catalog_families_at_even_dm():
    # all three closed-form families admit structures with Ric, F = O(rho^inf),
    # so at even d+m their obstruction must vanish
    from smmsgeom.catalog import (conformal_wlcf_space,
                                  hyperbolic_upper_half_space,
                                  round_sphere_space)
    spaces = [hyperbolic_upper_half_space(d=3, m=1.0),
              conformal_wlcf_space(d=3, m=1.0),
              round_sphere_space(d=3, m=1.0, mu=-1.0)]
    for s in spaces:
        obs = obstruction(s)
        pts = s.sample(4, seed=2)
        scale = max(inv.curvature_scale(s, pts).result(), 1.0)
        worst = max(float(np.max(np.abs(obs.tensor.matrix_values(p))))
                    for p in pts)
        assert worst <= 1e-10 * scale
        worst_s = max(abs(obs.scalar_part.value(p)) for p in pts)
        assert worst_s <= 1e-10 * scale


def test_obstruction_trace_and_divergence_identities():
    s = random_entry(d=3, m=1.0, mu=0.1, seed=21).space
    obs = obstruction(s)
    pts = s.sample(5, seed=9)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    from smmsgeom import curvature as cv
    geo = s.geometry
    dphi = cv.phi_gradient(s.f, geo.derivs, s.m)
    div_O = cv.weighted_divergence(obs.tensor.as_matrix(), geo.ginv, dphi,
                                   geo.gamma, geo.derivs, geo.zero)
    v = Request(pts, g=s.g.entries(), O=obs.tensor.entries(),
                f=[s.f, obs.scalar_part], dphi=dphi, div_O=div_O).result()
    # trace: O^i_i = (m/f^2) Fscript
    for g, O, (fv, sp) in zip(v["g"], v["O"], v["f"]):
        ginv = np.linalg.inv(np.reshape(g, (3, 3)))
        tr = float(np.trace(ginv @ np.reshape(O, (3, 3))))
        want = s.m / fv ** 2 * sp
        assert abs(tr - want) <= 1e-8 * scale
    # divergence: delta_phi O compared against (1/f^2) Fscript dphi
    for (fv, sp), dp, div in zip(v["f"], v["dphi"], v["div_O"]):
        for l in range(3):
            want = sp / fv ** 2 * dp[l]
            assert abs(div[l] - want) <= 1e-8 * scale


def test_odd_branch_consistency_residual():
    s = random_entry(d=3, m=2.0, mu=0.1, seed=41, amplitude=0.04).space
    e = expand(s, 4)
    assert e.plan.branch is Branch.ODD_INTEGER
    from smmsgeom import curvature as cv
    from smmsgeom.expansion import _residual_coefficients
    Rerr, Ferr, _ = _residual_coefficients(s, e.g_coeffs, e.f_coeffs, 5)
    Rtr = cv.trace(s.geometry.ginv, Rerr, s.chart.zero())
    pts = s.sample(5, seed=3)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    for fv, F, R in np.asarray(evaluate([s.f, Ferr, Rtr], pts)).T:
        v = s.m / fv ** 2 * F - R
        assert abs(v) <= 1e-8 * scale


def test_odd_critical_step_solves_and_records():
    # cheap odd-critical exercise: flat space reaches n = d+m = 5 trivially
    s = flat_space(d=3, m=2.0, mu=0.0)
    e = expand(s, 5)
    assert any("critical order n = d+m" in note
               for note in gate_notes(e, s.sample(10, seed=0)))
    p = (0.05, 0.1, -0.1)
    assert np.allclose(e.g_coeffs[5].matrix_values(p), 0.0, atol=1e-12)


def test_consistency_gate_fails_above_its_limit():
    s = flat_space(d=3, m=2.0, mu=0.0)
    e = expand(s, 5)
    assert list(e.gates) == ["consistency"]
    pts = s.sample(3, seed=0)
    request = gate_request(e, pts)
    values = evaluate(request.roots, pts)
    scale = inv.curvature_scale(s, pts).result()
    limit = CONSISTENCY_TOL * scale
    # the last three rows are f, Ferr and tr Rerr: at Ferr = 0 the
    # residual (m/f^2) Ferr - tr Rerr is -tr Rerr
    values[-3:-1] = [[1.0] * 3, [0.0] * 3]
    values[-1] = [0.0, -0.99 * limit, 0.0]
    assert request.finish(values) == {"consistency": 0.99 * limit}
    values[-1][1] = -2.0 * limit
    with pytest.raises(ConsistencyError) as failure:
        request.finish(values)
    assert str(failure.value) == (
        f"consistency residual {2.0 * limit:.3e} at order n = 5 exceeds "
        f"1.0e-08 x scale {scale:.3e}; the inputs are outside the "
        f"construction's hypotheses or precision degraded")


@pytest.mark.parametrize("m, order, gate", [(2.0, 5, "consistency"),
                                            (1.0, 3, "continuation")])
def test_expand_evaluates_nothing(m, order, gate):
    s = flat_space(d=3, m=m, mu=0.0)
    chart = s.chart
    before = chart.evaluations, chart.computed
    e = expand(s, order)
    assert (chart.evaluations, chart.computed) == before
    assert list(e.gates) == [gate]


def test_quasi_einstein_solver_matches_closed_form():
    entry = quasi_einstein_entry(hyperbolic_upper_half_space(d=3, m=2.0),
                                 ric_eigenvalue=-4.0)
    s = entry.space
    e = expand(s, 4)
    g_want, f_want = entry.closed_form(4)
    pts = s.sample(4, seed=7)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    for p in pts:
        for k in range(5):
            dg = (np.asarray(e.g_coeffs[k].matrix_values(p))
                  - np.asarray(g_want[k].matrix_values(p)))
            assert np.max(np.abs(dg)) <= 1e-10 * scale
            df = abs(e.f_coeffs[k].value(p) - f_want[k].value(p))
            assert df <= 1e-10 * scale


def test_fefferman_graham_reduction_m0_sphere():
    # m = 0, f = 1 on the unit round sphere: g_rho = (1 + rho/2)^2 g
    s = round_sphere_space(d=3, m=0.0, mu=0.0, f_expr="1")
    e = expand(s, 3)
    assert e.plan.branch is Branch.ODD_INTEGER
    lam = 0.5
    want = [1.0, 2 * lam, lam * lam, 0.0]
    pts = s.sample(4, seed=5)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    for p in pts:
        gm = np.asarray(s.g.matrix_values(p))
        for k in range(4):
            dg = np.asarray(e.g_coeffs[k].matrix_values(p)) - want[k] * gm
            assert np.max(np.abs(dg)) <= 1e-10 * scale


def test_determinism_bit_identical():
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    e1 = expand(s, 2)
    e2 = expand(s, 2)
    for p in s.sample(3, seed=0):
        a = e1.g_coeffs[2].matrix_values(p)
        b = e2.g_coeffs[2].matrix_values(p)
        assert np.array_equal(a, b)
        assert e1.f_coeffs[2].value(p) == e2.f_coeffs[2].value(p)


def test_invalid_order():
    s = flat_space()
    with pytest.raises(OrderError):
        expand(s, 0)


def test_rational_m_matches_float_run():
    from smmsgeom.invariants import MetricMeasureSpace
    ent = random_entry(d=3, m=0.5, mu=0.2, seed=5)
    s_float = ent.space
    s_frac = MetricMeasureSpace(s_float.chart, s_float.g, s_float.f,
                                Fraction(1, 2), 0.2)
    e1 = expand(s_float, 2)
    e2 = expand(s_frac, 2)
    assert e2.plan.branch is Branch.NON_INTEGER
    for p in s_float.sample(2, seed=1):
        assert np.array_equal(e1.g_coeffs[2].matrix_values(p),
                              e2.g_coeffs[2].matrix_values(p))
