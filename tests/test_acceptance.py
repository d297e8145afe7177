"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one PASS line (run with `pytest tests/test_acceptance.py -v -s`
to see the lines; a failed assertion prints the captured line too).
Tolerances marked "relative" are measured against the curvature scale
max(|Rm| + |Hess f / f| + |grad f / f|^2 + |mu|, 1) over the sample.
"""

import numpy as np
import pytest

from smmsgeom import invariants as inv
from smmsgeom.ambient import AmbientMetric, Graded, order_report
from smmsgeom.catalog import (load_entry, random_entry, round_sphere_space)
from smmsgeom.expansion import (Branch, expand, obstruction,
                                closed_form_residual_series,
                                _residual_coefficients)
from smmsgeom.fields import Request, evaluate, max_abs, run
from smmsgeom.invariants import conformal_change
from smmsgeom.poincare import cone_identity_check, poincare_residual


def _passed(n, text):
    print(f"ACCEPTANCE {n:02d}: PASS - {text}")


def _scale(space, pts):
    return max(inv.curvature_scale(space, pts).result(), 1.0)


def _arrays(request):
    """A request's result, each group's per-point rows as an array."""
    return {name: np.asarray(rows) for name, rows in request.result().items()}


def _ricci_worst(a, count, pts):
    """max |rho^k coefficient| of the closed-form ambient Ricci blocks and
    F, k < count, over the points."""
    Rt, Ft = a.ricci_closed()
    series = [Rt[i][j] for i in range(3) for j in range(i, 3)] + [Ft]
    return max_abs(evaluate([c.coefficient(k) for k in range(count)
                             for c in series], pts))


@pytest.fixture(scope="module")
def spaces():
    built = {}
    for m, seed in [(0.5, 5), (1.0, 21), (1.7, 11), (2.0, 41), (3.0, 13)]:
        amp = 0.04 if m in (2.0, 3.0) else 0.05
        built[m] = random_entry(d=3, m=m, mu=0.1, seed=seed, amplitude=amp).space
    return built


@pytest.fixture(scope="module")
def expansions(spaces):
    return {
        0.5: expand(spaces[0.5], 3),
        1.0: expand(spaces[1.0], 2),
        2.0: expand(spaces[2.0], 4),
    }


def test_criterion_01_first_order_formulas(spaces):
    """Solver g_coeffs[1] = 2 P and f_coeffs[1] = (f/m) Y, 1e-9 relative."""
    for m, s in spaces.items():
        e = expand(s, 1)
        P, _, Y = inv.schouten(s)
        pts = s.sample(10, seed=2)
        scale = _scale(s, pts)
        v = _arrays(Request(pts, g1=e.g_coeffs[1].entries(), P=P.entries(),
                            f=[s.f, Y, e.f_coeffs[1]]))
        for g1, Pv, (fv, Yv, f1) in zip(v["g1"], v["P"], v["f"]):
            dg = g1 - 2.0 * Pv
            assert np.max(np.abs(dg)) <= 1e-9 * scale
            want = fv / m * Yv
            assert abs(f1 - want) <= 1e-9 * scale
    _passed(1, "first-order coefficients equal the Schouten data for "
               "m in {0.5, 1, 1.7, 2, 3}")


def test_criterion_02_second_order_formula():
    """(d+m-4) g'' = -2 B + 2 (d+m-4) P.P within 1e-8 relative."""
    for m in (1.5, 2.5):
        s = random_entry(d=3, m=m, mu=0.15, seed=31).space
        e = expand(s, 2)
        B = inv.weighted_bach(s)
        P, _, _ = inv.schouten(s)
        dm4 = 3 + m - 4
        pts = s.sample(10, seed=1)
        scale = _scale(s, pts)
        v = _arrays(Request(pts, g=s.g.entries(), P=P.entries(),
                            g2=e.g_coeffs[2].entries(), B=B.entries()))
        for g, Pv, g2, Bv in zip(v["g"], v["P"], v["g2"], v["B"]):
            ginv = np.linalg.inv(g.reshape(3, 3))
            Pv = Pv.reshape(3, 3)
            gpp = 2.0 * g2.reshape(3, 3)
            resid = (dm4 * gpp + 2.0 * Bv.reshape(3, 3)
                     - 2.0 * dm4 * (Pv @ ginv @ Pv))
            assert np.max(np.abs(resid)) <= 1e-8 * scale
    _passed(2, "second-order coefficient satisfies the Bach relation for "
               "m in {1.5, 2.5}")


def test_criterion_03_obstruction_is_bach(spaces):
    """At d+m = 4 the obstruction equals the weighted Bach tensor, and the
    trace/divergence identities hold, all within 1e-8 relative."""
    from smmsgeom import curvature as cv
    s = spaces[1.0]
    obs = obstruction(s)
    B = inv.weighted_bach(s)
    pts = s.sample(10, seed=9)
    scale = _scale(s, pts)
    geo = s.geometry
    dphi = cv.phi_gradient(s.f, geo.derivs, s.m)
    div_O = cv.weighted_divergence(obs.tensor.as_matrix(), geo.ginv, dphi,
                                   geo.gamma, geo.derivs, geo.zero)
    v = _arrays(Request(pts, O=obs.tensor.entries(), B=B.entries(),
                        g=s.g.entries(), f=[s.f, obs.scalar_part],
                        dphi=dphi, div_O=div_O))
    worst = max_abs(v["O"] - v["B"])
    assert worst <= 1e-8 * scale
    for g, O, (fv, sp), dp, div in zip(v["g"], v["O"], v["f"], v["dphi"],
                                       v["div_O"]):
        gm = np.linalg.inv(g.reshape(3, 3))
        tr = float(np.trace(gm @ O.reshape(3, 3)))
        assert abs(tr - s.m / fv ** 2 * sp) <= 1e-8 * scale
        for l in range(3):
            want = sp / fv ** 2 * dp[l]
            assert abs(div[l] - want) <= 1e-8 * scale
    _passed(3, f"obstruction equals weighted Bach at d+m=4 "
               f"(worst {worst:.2e}) with trace and divergence identities")


def test_criterion_04_quasi_einstein_exactness():
    """Closed-form ambient residuals vanish through degree 4 at 1e-10, and
    the solver reproduces the closed-form coefficients at 1e-10."""
    entry = load_entry('quasi-einstein')
    s = entry.space
    pts = s.sample(10, seed=2)
    scale = _scale(s, pts)
    a = AmbientMetric(entry.closed_expansion(6))
    worst = _ricci_worst(a, 5, pts)
    assert worst <= 1e-10 * scale
    e = expand(s, 4)
    g_want, f_want = entry.closed_form(4)
    got, want = np.split(np.asarray(evaluate(
        [c for g, f in ((e.g_coeffs, e.f_coeffs), (g_want, f_want))
         for k in range(5) for c in g[k].entries() + [f[k]]], pts)), 2)
    worst2 = max_abs(got - want)
    assert worst2 <= 1e-10 * scale
    _passed(4, f"quasi-Einstein ambient exact through degree 4 "
               f"(residual {worst:.2e}, solver agreement {worst2:.2e})")


def test_criterion_05_wlcf_flatness():
    """All ambient curvature components, Ricci and F residuals vanish at
    1e-9 through degree 3; the conformally-flat identities hold at 1e-8."""
    entry = load_entry('wlcf')
    s = entry.space
    pts = s.sample(10, seed=1)
    scale = _scale(s, pts)
    a = AmbientMetric(entry.closed_expansion(5))
    tang, mixed, normal = a.curvature_closed()
    Rt, Ft = a.ricci_closed()
    ricci = [Rt[i][j] for i in range(3) for j in range(i, 3)] + [Ft]
    res_a, res_b, dP = inv.conformally_flat_identities(s)
    worst, worst_l = map(max_abs, run([
        Request(pts, curvature=[
            comp.val.coefficient(k) for comp_map in (tang, mixed, normal)
            for comp in comp_map.values() for k in range(4)]
            + [c.coefficient(k) for k in range(4) for c in ricci]),
        Request(pts, identities=res_a
                + [res_b[i][j] for i in range(3) for j in range(3)]
                + [dP[i][j][k] for i in range(3) for j in range(3)
                   for k in range(3)])]))
    assert worst <= 1e-9 * scale
    assert worst_l <= 1e-8 * scale
    _passed(5, f"weighted conformally flat ambient is flat through degree 3 "
               f"(curvature {worst:.2e}, identity residuals {worst_l:.2e})")


def test_criterion_06_gover_leitner_sphere():
    """Round-sphere entry (mu = -1, rate 1/2): ambient Ricci and F vanish
    at 1e-10 through degree 4."""
    entry = load_entry('gover-leitner')
    assert entry.space.mu == -1.0
    assert entry.params["schouten_eigenvalue"] == pytest.approx(0.5)
    pts = entry.space.sample(10, seed=3)
    scale = _scale(entry.space, pts)
    a = AmbientMetric(entry.closed_expansion(6))
    worst = _ricci_worst(a, 5, pts)
    assert worst <= 1e-10 * scale
    _passed(6, f"Gover-Leitner sphere ambient vanishes through degree 4 "
               f"({worst:.2e})")


def test_criterion_07_unweighted_reduction_m0():
    """m = 0, f = 1 on the unit round sphere: the solver reproduces
    (1 + rho/2)^2 g through order 3 at 1e-10."""
    s = round_sphere_space(d=3, m=0.0, mu=0.0, f_expr="1")
    e = expand(s, 3)
    lam = 0.5
    want = [1.0, 2 * lam, lam ** 2, 0.0]
    pts = s.sample(10, seed=5)
    scale = _scale(s, pts)
    worst = 0.0
    for p in pts:
        gm = np.asarray(s.g.matrix_values(p))
        for k in range(4):
            worst = max(worst, float(np.max(np.abs(
                np.asarray(e.g_coeffs[k].matrix_values(p)) - want[k] * gm))))
    assert worst <= 1e-10 * scale
    _passed(7, f"m = 0 reduction matches the round-sphere closed form "
               f"({worst:.2e})")


def test_criterion_08_branch_guarantees(spaces, expansions):
    """NonInteger: residuals vanish through coefficient N-1 = 2 at 1e-9.
    EvenInteger: the 0I blocks better by one order and the trace
    combination vanishes through (d+m)/2 - 1 at 1e-9.  OddInteger: the
    consistency residual at the critical order is below 1e-8."""
    # non-integer branch
    s, e = spaces[0.5], expansions[0.5]
    assert e.plan.branch is Branch.NON_INTEGER
    pts = s.sample(10, seed=9)
    scale = _scale(s, pts)
    Rt, Ft = closed_form_residual_series(e.slice())
    worst = max_abs(evaluate(
        [c.coefficient(k) for k in range(3)
         for c in [Rt[i][j] for i in range(3) for j in range(i, 3)] + [Ft]],
        pts))
    assert worst <= 1e-9 * scale

    # even branch
    s1, e1 = spaces[1.0], expansions[1.0]
    assert e1.plan.branch is Branch.EVEN_INTEGER
    pts1 = s1.sample(10, seed=9)
    scale1 = _scale(s1, pts1)
    a1 = AmbientMetric(e1)
    ric_g, _ = a1.ricci_generic()
    worst_row = max_abs(evaluate([ric_g[0][I].val.coefficient(k)
                                  for I in range(5) if not ric_g[0][I].is_zero
                                  for k in range(1)], pts1))
    assert worst_row <= 1e-11
    slice1 = e1.slice()
    Rt1, Ft1 = closed_form_residual_series(slice1)
    F1 = slice1.geometry.f
    from smmsgeom import curvature as cv
    trace = cv.acc_sum([a1.Ginv[i][j] * Rt1[i][j] for i in range(3)
                        for j in range(3)], a1._zero_series)
    combo = trace - (Ft1 * s1.m) / (F1 * F1)
    # through (d+m)/2 - 1 = 1
    worst_combo = max_abs(evaluate([combo.coefficient(k) for k in range(2)],
                                   pts1))
    assert worst_combo <= 1e-9 * scale1

    # odd branch consistency at n = d+m = 5
    s2, e2 = spaces[2.0], expansions[2.0]
    assert e2.plan.branch is Branch.ODD_INTEGER
    Rerr, Ferr, _ = _residual_coefficients(s2, e2.g_coeffs, e2.f_coeffs, 5)
    Rtr = cv.trace(s2.geometry.ginv, Rerr, s2.chart.zero())
    pts2 = s2.sample(10, seed=3)
    scale2 = _scale(s2, pts2)
    worst_odd = max(abs(s2.m / fv ** 2 * F - R)
                    for fv, F, R in np.asarray(
                        evaluate([s2.f, Ferr, Rtr], pts2)).T)
    assert worst_odd <= 1e-8 * scale2
    # the odd critical step also solves the rho-rho block, read here from
    # the generic route, which the solver does not use
    rho_rho = order_report(expand(s2, 5), pts2[:3]).result()["rho_rho"]
    assert rho_rho.guaranteed == 3
    assert rho_rho.ok(1e-9 * _scale(s2, pts2[:3]))
    _passed(8, f"branch guarantees hold (non-integer {worst:.2e}, even trace "
               f"combination {worst_combo:.2e}, odd consistency {worst_odd:.2e}"
               f", odd rho-rho {rho_rho.worst:.2e})")


def test_criterion_09_weighted_bianchi():
    """Weighted Bianchi residual below 1e-8 relative on 10 seeded spaces."""
    worst = 0.0
    for seed in range(10):
        s = random_entry(d=3, m=0.4 + 0.37 * seed, mu=0.05 * seed - 0.2,
                         seed=seed).space
        pts = s.sample(3, seed=40 + seed)
        scale = _scale(s, pts)
        for val in np.abs(evaluate(s.geometry.bianchi, pts)).T.ravel():
            assert val <= 1e-8 * scale
            worst = max(worst, val / scale)
    _passed(9, f"weighted Bianchi identity residual {worst:.2e} relative "
               f"on 10 seeded spaces")


def test_criterion_10_poincare_correspondence(spaces, expansions):
    """Cone identity agreement at 1e-9 and transported residual orders for
    the branch-guarantee configurations."""
    worst_cone = 0.0
    worst_res = 0.0
    for m in (0.5, 1.0, 2.0):
        s, e = spaces[m], expansions[m]
        pts = s.sample(6, seed=9)
        scale = _scale(s, pts)
        if e.plan.branch is Branch.EVEN_INTEGER:
            n_c = int(3 + m) // 2
            hi = 2 * min(e.order, n_c - 1) - 1
        else:
            hi = 2 * e.order - 1
        # the residual is measured through the guaranteed power, r^-2 first
        assert hi == e.plan.guarantees(e.order).poincare_power
        maxima = poincare_residual(e, pts).result()
        assert len(maxima) == hi + 3
        worst_res = max(worst_res, max_abs(maxima) / scale)
        assert worst_res <= 1e-8
        wr, wF, side = cone_identity_check(e, pts[:3]).result()
        cone_scale = max(scale, side)
        assert wr <= 1e-9 * cone_scale
        assert wF <= 1e-9 * cone_scale
        worst_cone = max(worst_cone, max(wr, wF) / cone_scale)
    _passed(10, f"cone identities agree ({worst_cone:.2e} relative) and "
                f"residuals vanish to transported orders ({worst_res:.2e})")


def test_criterion_11_conformal_covariance(spaces):
    """The obstruction transforms by a pointwise factor e^{w u} with a
    constant fitted exponent; residual after the fit below 1e-6 relative."""
    s = spaces[1.0]
    from smmsgeom.expressions import parse_expression
    u = parse_expression("0.1*x1", s.chart)
    s2 = conformal_change(s, u)
    obs1 = obstruction(s)
    obs2 = obstruction(s2)
    pts = s.sample(10, seed=9)
    scale = _scale(s, pts)
    v = _arrays(Request(pts, O1=obs1.tensor.entries(),
                        O2=obs2.tensor.entries(), u=[u]))
    O1s, O2s = v["O1"].reshape(-1, 3, 3), v["O2"].reshape(-1, 3, 3)
    logs, us = [], []
    mags = [float(np.max(np.abs(O1))) for O1 in O1s]
    floor = 1e-3 * max(mags)
    for O1, O2, (uv,) in zip(O1s, O2s, v["u"]):
        for i in range(3):
            for j in range(3):
                if abs(O1[i, j]) >= floor:
                    ratio = O2[i, j] / O1[i, j]
                    assert ratio > 0.0
                    logs.append(np.log(ratio))
                    us.append(uv)
    logs, us = np.asarray(logs), np.asarray(us)
    w = float(logs @ us / (us @ us))
    worst = 0.0
    for O1, O2, (uv,) in zip(O1s, O2s, v["u"]):
        pred = np.exp(w * uv) * O1
        worst = max(worst, float(np.max(np.abs(O2 - pred))))
    assert worst <= 1e-6 * scale
    _passed(11, f"obstruction conformally covariant with fitted exponent "
                f"w = {w:.6f} (residual {worst:.2e}); 2-d-m = {2 - 3 - 1.0}")


def test_criterion_12_determinism(tmp_path):
    """Identical inputs give byte-identical reports modulo timings and
    bit-identical solver coefficients."""
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    e1, e2 = expand(s, 2), expand(s, 2)
    for p in s.sample(3, seed=0):
        assert np.array_equal(e1.g_coeffs[2].matrix_values(p),
                              e2.g_coeffs[2].matrix_values(p))
    from smmsgeom.cli import main
    cfg = tmp_path / "det.cfg"
    cfg.write_text("""
[chart]
dimension = 3
coordinates = x1 x2 x3
box = -0.5 0.5 ; -0.5 0.5 ; -0.5 0.5
[metric]
g11 = 1 + 0.05*sin(x1)
g22 = 1
g33 = 1
[density]
f = 1 + 0.05*x1
[parameters]
m = 0.5
mu = 0.2
[solver]
order = 2
[sampling]
points = 5
seed = 7
""")
    import contextlib, io
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        outs.append("\n".join(l for l in text.splitlines()
                              if not l.startswith("timings.")))
    assert outs[0] == outs[1]
    _passed(12, "repeated runs byte-identical modulo the timings block")
