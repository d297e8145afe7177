"""Assembled ambient structure: shape, connection, dual-route Ricci,
curvature families, homogeneity, and residual reports."""

import numpy as np
import pytest

from smmsgeom import invariants as inv
from smmsgeom.ambient import AmbientMetric, BlockReport, Graded, order_report
from smmsgeom.catalog import flat_space, load_entry, random_entry
from smmsgeom.expansion import Branch, RhoExpansion, expand
from smmsgeom.fields import SymTensor2Field, evaluate, max_abs
from smmsgeom.series import Series, SeriesTruncationError


def flat_ambient(order=3, m=2.0):
    s = flat_space(d=3, m=m, mu=0.0)
    return AmbientMetric(expand(s, order)), s


def block_roots(comp, ks):
    """The rho^k coefficients of a graded block, k in `ks` (none if it
    is a structural zero)."""
    return [] if comp.is_zero else [comp.val.coefficient(k) for k in ks]


def block_worst(comp, ks, pts):
    return max_abs(evaluate(block_roots(comp, ks), pts))


def _closed_blocks(Rt, Ft):
    """The upper triangle of the closed-form ambient Ricci blocks, and F."""
    return [Rt[i][j] for i in range(3) for j in range(i, 3)] + [Ft]


def test_block_report_counts_nan_as_a_violation():
    nan = float("nan")
    for coeff_max, first in (([1e-17, nan], 1), ([nan, 1e-17], 0)):
        block = BlockReport("x", coeff_max, 1)
        assert block.first_violation(1e-9) == first
        assert not block.ok(1e-9)
        assert np.isnan(block.worst)
    block = BlockReport("x", [1e-17, 2e-9, nan], 0)
    assert block.first_violation(1e-9) == 1
    assert block.ok(1e-9) and block.worst == 1e-17
    assert BlockReport("x", [], 2).ok(1e-9)


def test_normal_form_shape():
    a, s = flat_ambient()
    oo = a.oo
    assert a.gt[oo][oo].is_zero
    for i in range(3):
        assert a.gt[i + 1][oo].is_zero
        assert a.gt[0][i + 1].is_zero
    # gt[0][oo] = t exactly: degree 1, series constant 1
    comp = a.gt[0][oo]
    assert comp.deg == 1
    assert comp.val.coefficient(0).const_value() == 1.0
    assert a.gt[0][0].deg == 0
    assert a.gt[1][1].deg == 2


def test_homogeneity_t_powers():
    entry = load_entry('quasi-einstein')
    a = AmbientMetric(entry.closed_expansion(3))
    p = entry.space.sample(1, seed=4)[0]
    # evaluating at t and 2t scales each component by 2^deg
    for (I, J, deg) in [(0, 0, 0), (0, a.oo, 1), (1, 1, 2), (2, 3, 2)]:
        comp = a.gt[I][J]
        v = evaluate([comp.val.coefficient(1)], [p])[0][0]
        v1, v2 = (t ** comp.deg * v for t in (1.0, 2.0))
        if v1 == 0.0:
            assert v2 == 0.0
        else:
            assert v2 / v1 == pytest.approx(2.0 ** deg)


def test_graded_mismatch_raises():
    z = Series([1.0], 0)
    with pytest.raises(ValueError):
        Graded(1, z) + Graded(2, z)


def test_christoffels_flat_closed_form():
    a, s = flat_ambient()
    oo = a.oo
    gam = a.christoffels_closed()
    p = (0.1, -0.2, 0.3)
    gm = np.asarray(s.g.matrix_values(p))
    # Gam^k_0j = delta^k_j / t
    for k in range(3):
        for j in range(3):
            comp = gam[k + 1][0][j + 1]
            if k == j:
                assert comp.deg == -1
                assert comp.val.coefficient(0).value(p) == 1.0
            else:
                assert comp.is_zero
    # Gam^oo_ij = -g_ij at rho = 0; Gam^oo_0oo = 1/t
    for i in range(3):
        for j in range(3):
            comp = gam[oo][i + 1][j + 1]
            assert comp.val.coefficient(0).value(p) == pytest.approx(-gm[i, j])
    assert gam[oo][0][oo].deg == -1
    assert gam[oo][0][oo].val.coefficient(0).value(p) == 1.0
    # all rho-derivative entries vanish for the flat expansion
    for i in range(3):
        for j in range(3):
            assert block_worst(gam[0][i + 1][j + 1], range(2), [p]) == 0.0


def test_christoffels_closed_vs_generic():
    entry = load_entry('quasi-einstein')
    a = AmbientMetric(entry.closed_expansion(4))
    pts = entry.space.sample(2, seed=2)
    gam_c = a.christoffels_closed()
    gam_g = a.christoffels_generic()
    for K in range(5):
        for I in range(5):
            for J in range(5):
                c, g = gam_c[K][I][J], gam_g[K][I][J]
                if not (c.is_zero or g.is_zero):
                    assert c.deg == g.deg
                for k in range(3):
                    for p in pts:
                        vc = 0.0 if c.is_zero else c.val.coefficient(k).value(p)
                        vg = 0.0 if g.is_zero else g.val.coefficient(k).value(p)
                        assert vc == pytest.approx(vg, abs=1e-12)


def test_metric_inverse_identity():
    entry = load_entry('quasi-einstein')
    a = AmbientMetric(entry.closed_expansion(3))
    from smmsgeom import curvature as cv
    ident = cv.matrix_inverse(a.gt, a.zero)[0]
    p = entry.space.sample(1, seed=0)[0]
    for I in range(5):
        for J in range(5):
            want = 0.0 if a.gtinv[I][J].is_zero else \
                a.gtinv[I][J].val.coefficient(1)
            got = 0.0 if ident[I][J].is_zero else ident[I][J].val.coefficient(1)
            wv = want if isinstance(want, float) else want.value(p)
            gv = got if isinstance(got, float) else got.value(p)
            assert gv == pytest.approx(wv, abs=1e-12)
            if not (a.gtinv[I][J].is_zero or ident[I][J].is_zero):
                assert a.gtinv[I][J].deg == ident[I][J].deg


def test_flat_expansion_all_blocks_zero():
    a, s = flat_ambient()
    ric_g, F_g = a.ricci_generic()
    pts = [(0.1, 0.2, -0.3)]
    for I in range(5):
        for J in range(5):
            assert block_worst(ric_g[I][J], range(2), pts) < 1e-14
    assert block_worst(F_g, range(2), pts) < 1e-14


def test_quasi_einstein_ambient_vanishes_to_full_degree():
    entry = load_entry('quasi-einstein')
    a = AmbientMetric(entry.closed_expansion(6))
    Rt, Ft = a.ricci_closed()
    pts = entry.space.sample(4, seed=2)
    scale = max(inv.curvature_scale(entry.space, pts).result(), 1.0)
    worst = max_abs(evaluate([c.coefficient(k) for k in range(5)
                              for c in _closed_blocks(Rt, Ft)], pts))
    assert worst <= 1e-10 * scale


def test_dual_route_agreement_random_metric():
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    a = AmbientMetric(expand(s, 2))
    Rt, Ft = a.ricci_closed()
    ric_g, F_g = a.ricci_generic()
    pts = s.sample(3, seed=8)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    generic = [ric_g[i + 1][j + 1].val for i in range(3)
               for j in range(i, 3)] + [F_g.val]
    got, want = np.split(np.asarray(evaluate(
        [c.coefficient(k) for blocks in (generic, _closed_blocks(Rt, Ft))
         for k in range(2) for c in blocks], pts)), 2)
    assert (np.abs(got - want) <= 1e-10 * scale).all()


def test_t_row_vanishes_identically():
    s = random_entry(d=3, m=1.7, mu=0.1, seed=3).space
    a = AmbientMetric(expand(s, 2))
    ric_g, _ = a.ricci_generic()
    pts = s.sample(3, seed=1)
    for I in range(5):
        assert block_worst(ric_g[0][I], range(1), pts) <= 1e-11


def test_generic_solver_residual_order_pattern():
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    a = AmbientMetric(expand(s, 3))
    Rt, Ft = a.ricci_closed()
    pts = s.sample(5, seed=9)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    values = evaluate([c.coefficient(k) for k in range(3)
                       for c in _closed_blocks(Rt, Ft)], pts)
    assert (np.abs(values) <= 1e-9 * scale).all()


def test_first_unsolved_coefficient_generically_nonzero():
    # after solving to order N, coefficient N of the Ricci residual is
    # generically nonzero: the vanishing pattern is sharp, not vacuous
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    e = expand(s, 2)
    g_ext = list(e.g_coeffs) + [SymTensor2Field.zero(s.chart)]
    f_ext = list(e.f_coeffs) + [s.chart.zero()]
    a = AmbientMetric(RhoExpansion(s, 3, g_ext, f_ext, e.plan))
    Rt, Ft = a.ricci_closed()
    pts = s.sample(5, seed=9)
    worst = max_abs(evaluate([Rt[i][j].coefficient(2) for i in range(3)
                              for j in range(3)], pts))
    assert worst > 1e-8


def test_wlcf_flatness_and_ricci():
    w = load_entry('wlcf')
    a = AmbientMetric(w.closed_expansion(5))
    tang, mixed, normal = a.curvature_closed()
    pts = w.space.sample(3, seed=1)
    scale = max(inv.curvature_scale(w.space, pts).result(), 1.0)
    worst = max_abs(evaluate([c for comp_map in (tang, mixed, normal)
                              for comp in comp_map.values()
                              for c in block_roots(comp, range(4))], pts))
    assert worst <= 1e-9 * scale
    Rt, Ft = a.ricci_closed()
    worst = max_abs(evaluate(
        [c for i in range(3) for j in range(i, 3)
         for c in block_roots(Graded(0, Rt[i][j]), range(4))]
        + block_roots(Graded(0, Ft), range(4)), pts))
    assert worst <= 1e-9 * scale


def test_quasi_einstein_normal_curvature_block():
    # for g_rho = (1 + a rho)^2 g: g'' - g^{pq} g' g' / 2 = 0 identically
    entry = load_entry('quasi-einstein')
    a = AmbientMetric(entry.closed_expansion(4))
    _, _, normal = a.curvature_closed()
    pts = entry.space.sample(2, seed=3)
    for comp in normal.values():
        assert block_worst(comp, range(3), pts) <= 1e-12


def test_rho_rho_block_responds_to_injected_perturbation():
    # injecting (psi, upsilon) at order n must shift the rho^(n-2)
    # coefficient of Ric[oo oo] by -n(n-1) (tr psi / 2 + m upsilon / f)
    s = flat_space(d=3, m=2.0, mu=0.0)
    chart = s.chart
    from smmsgeom.expressions import parse_expression
    psi = SymTensor2Field(chart, {
        (0, 0): parse_expression("x1", chart),
        (1, 1): chart.constant(0.3),
        (0, 2): parse_expression("sin(x2)", chart)})
    ups = parse_expression("0.2+x3", chart)
    n = 2
    e = expand(s, 3)
    e.g_coeffs[n] = psi
    e.f_coeffs[n] = ups
    a = AmbientMetric(RhoExpansion(s, 3, e.g_coeffs, e.f_coeffs, e.plan))
    ric_g, _ = a.ricci_generic()
    oo = a.oo
    for p in s.sample(4, seed=6):
        tr_psi = float(np.trace(psi.matrix_values(p)))
        want = -n * (n - 1) * (0.5 * tr_psi + s.m * ups.value(p))
        got = ric_g[oo][oo].val.coefficient(n - 2).value(p)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_order_report_noninteger():
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    e = expand(s, 3)
    rep = order_report(e, s.sample(10, 0)).result()
    assert all(b.ok(1e-9) for b in rep.values())
    assert rep["ij"].guaranteed == 2
    assert rep["ij"].first_violation(1e-9) is None
    assert rep["t_row"].guaranteed == 1
    assert e.plan.branch is Branch.NON_INTEGER


def test_order_report_even_branch_pattern():
    s = random_entry(d=3, m=1.0, mu=0.1, seed=21).space
    rep = order_report(expand(s, 2), s.sample(10, 0)).result()
    assert all(b.ok(1e-9) for b in rep.values())
    ij = rep["ij"]
    # residual survives at the obstruction order (d+m)/2 - 1 = 1
    assert ij.guaranteed == 0
    assert ij.first_violation(1e-9) == 1
    # the trace combination improves one order
    assert rep["trace_combo"].first_violation(1e-9) is None


def test_order_report_flat_everything_vanishes():
    s = flat_space(d=3, m=2.0, mu=0.0)
    rep = order_report(expand(s, 4), [(0.1, 0.2, -0.3)]).result()
    for b in rep.values():
        assert b.ok(1e-9)
        assert b.first_violation(1e-9) is None



def test_restricted_generic_build_matches_full_build_bitwise():
    # two copies on distinct charts share no field node, so the restricted
    # and the full build are evaluated independently
    a_part = AmbientMetric(expand(random_entry(d=3, m=0.5, mu=0.1, seed=21).space, 3))
    a_full = AmbientMetric(expand(random_entry(d=3, m=0.5, mu=0.1, seed=21).space, 3))
    # the entries order_report reads: the t row and the rho row
    entries = ([(0, I) for I in range(a_part.n)]
               + [(a_part.oo, I) for I in range(1, a_part.n)])
    part, F_part = a_part.ricci_generic(entries)
    full, F_full = a_full.ricci_generic()
    assert F_part is None and F_full is not None
    wanted = {(min(I, J), max(I, J)) for I, J in entries}
    pts = a_part.base.sample(2, seed=4)
    got, want = [], []
    for I in range(a_part.n):
        for J in range(a_part.n):
            if (min(I, J), max(I, J)) not in wanted:
                assert part[I][J] is None
                continue
            p, f = part[I][J], full[I][J]
            assert p.is_zero == f.is_zero
            if p.is_zero:
                continue
            assert p.deg == f.deg
            assert (p.val.shift, p.val.trunc) == (f.val.shift, f.val.trunc)
            ks = range(p.val.shift, p.val.trunc + 1)
            got += [p.val.coefficient(k) for k in ks]
            want += [f.val.coefficient(k) for k in ks]
    assert (np.asarray(evaluate(got, pts))
            == np.asarray(evaluate(want, pts))).all()


@pytest.mark.parametrize("make_space, orders", [
    (lambda: random_entry(d=3, m=0.5, mu=0.1, seed=21).space, (1, 2, 3)),
    # d+m = 4 stops at its critical order 2
    (lambda: random_entry(d=3, m=1.0, mu=0.1, seed=21).space, (1, 2)),
    (lambda: random_entry(d=3, m=2.0, mu=0.1, seed=21).space, (1, 2, 3)),
    (lambda: load_entry("quasi-einstein").space, (1, 2, 3)),
    (lambda: load_entry("wlcf").space, (1, 2, 3)),
    (lambda: load_entry("gover-leitner").space, (1, 2, 3)),
], ids=["random-m0.5", "random-m1", "random-m2", "quasi-einstein", "wlcf",
        "gover-leitner"])
def test_order_report_measures_through_every_guarantee(make_space, orders):
    # a block that stops short of its guaranteed coefficient (a truncated
    # series) would pass without being measured
    s = make_space()
    pts = s.sample(1, seed=0)
    for N in orders:
        rep = order_report(expand(s, N), pts).result()
        for b in rep.values():
            assert len(b.coeff_max) > b.guaranteed, (N, b.name)


def _read(scalar, k):
    """The rho^k coefficient field, or None where the series stops short
    (at N = 1 the generic rows are cut below rho^0 in both builds)."""
    try:
        return scalar.val.coefficient(k)
    except SeriesTruncationError:
        return None


@pytest.mark.parametrize("m, N", [(0.5, 1), (0.5, 2), (0.5, 3), (1.0, 1),
                                  (1.0, 2), (2.0, 1), (2.0, 2), (2.0, 3)])
def test_truncated_generic_build_reads_the_full_build_fields(m, N):
    # order_report reads the generic t and rho rows only through rho^upto;
    # the build cut there must give the very fields the full build gives
    # for those coefficients, and build fewer nodes
    def build():
        a = AmbientMetric(expand(random_entry(d=3, m=m, mu=0.1, seed=21).space, N))
        return a, a.base.chart.node_count

    upto = max(N - 2, 0)
    a, before = build()
    entries = ([(0, I) for I in range(a.n)]
               + [(a.oo, I) for I in range(1, a.n)])
    cut, _ = a.ricci_generic(entries, upto)
    cut_nodes = a.base.chart.node_count - before
    full, _ = a.ricci_generic(entries)
    for I, J in entries:
        c, f = cut[I][J], full[I][J]
        assert c.is_zero == f.is_zero and c.deg == f.deg
        for k in range(upto + 1):
            assert _read(c, k) is _read(f, k), (I, J, k)
    fresh, before = build()
    fresh.ricci_generic(entries)
    assert cut_nodes < fresh.base.chart.node_count - before
