"""Conformally compact structures: evenness, boundary data, transported
residual orders, the two-route oracle comparison, and the cone identities."""

import os

import numpy as np
import pytest

from smmsgeom import invariants as inv
from smmsgeom.catalog import flat_space, load_entry, random_entry
from smmsgeom.expansion import expand
from smmsgeom.fields import Request, evaluate, max_abs
from smmsgeom.poincare import (cone_identity_check, even_series,
                               fixed_r_space, laurent_metric,
                               poincare_residual, residual_series)


def residual_worst(e, points):
    """The worst |r^k coefficient| of the residual of `e` at `points`,
    k = -2 through the guaranteed power."""
    maxima = poincare_residual(e, points).result()
    assert len(maxima) == e.plan.guarantees(e.order).poincare_power + 3
    return max_abs(maxima)


def test_flat_model_is_weighted_hyperbolic():
    s = flat_space(d=3, m=2.0, mu=0.0)
    e = expand(s, 2)
    g_r, f_r = even_series(e, 5)
    pt = (0.1, -0.2, 0.3)
    # g_plus = r^-2 (dr^2 + g): boundary metric is g itself
    vals = np.asarray(evaluate([x.coefficient(0) for row in g_r for x in row]
                               + [f_r.coefficient(0)], [pt]))[:, 0]
    assert np.allclose(vals[:-1].reshape(3, 3), np.eye(3))
    assert vals[-1] == 1.0
    assert residual_worst(e, [pt]) == 0.0


def test_residual_cut_short_of_its_guarantee_is_an_error(tmp_path,
                                                         monkeypatch):
    # a series that stops one power below the guaranteed one cannot be
    # measured through it: `poincare` ends in an error, where a check
    # through the last computed power would pass
    from smmsgeom import poincare
    from smmsgeom.cli import main
    cut = poincare.laurent_metric
    monkeypatch.setattr(poincare, "laurent_metric",
                        lambda e, last: cut(e, last - 1))
    out = tmp_path / "cut.txt"
    flat = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "flat.cfg")
    assert main(["poincare", "--config", flat, "--out", str(out)]) == 3
    text = out.read_text()
    # d+m = 4 at order 3: the residual is guaranteed through r^1
    assert ("error = internal: SeriesTruncationError: coefficient 1 "
            "beyond truncation order 0\n") in text
    assert "check.poincare_residual" not in text


def test_evenness_structural():
    s = random_entry(d=3, m=1.7, mu=0.3, seed=11).space
    g_r, f_r = even_series(expand(s, 2), 5)
    pt = s.sample(1, seed=0)[0]
    for power in (1, 3):
        for i in range(3):
            for j in range(3):
                c = g_r[i][j].coefficient(power)
                assert getattr(c, "is_zero", c == 0.0)
        c = f_r.coefficient(power)
        assert getattr(c, "is_zero", c == 0.0)


def test_asymptotic_hyperbolicity_normalization():
    # |dr/r|_{g_plus} = 1 at r = 0: the (r,r) entry of r^2 g_plus is exactly 1
    s = random_entry(d=3, m=0.5, mu=0.0, seed=2).space
    gp, _ = laurent_metric(expand(s, 1), 3)
    rr = gp[3][3]
    assert rr.shift == -2
    assert rr.coefficient(-2).const_value() == 1.0
    assert rr.trunc is None     # the (r,r) entry is exactly r^-2
    assert all(getattr(rr.coefficient(k), "is_zero", rr.coefficient(k) == 0.0)
               for k in range(-1, 4))


def test_composition_consistency_exact():
    s = random_entry(d=3, m=1.7, mu=0.3, seed=11).space
    e = expand(s, 2)
    g_r, _ = even_series(e, 5)
    pt = s.sample(1, seed=1)[0]
    for k in range(3):
        for i in range(3):
            for j in range(3):
                want = (-0.5) ** k * e.g_coeffs[k].comp(i, j).value(pt)
                assert g_r[i][j].coefficient(2 * k).value(pt) == pytest.approx(
                    want, rel=1e-15, abs=1e-300)
    # the r^0 coefficient is the identical field object (exact composition)
    assert g_r[0][0].coefficient(0) is e.g_coeffs[0].comp(0, 0)


def test_first_order_r2_coefficient_is_minus_schouten():
    ent = random_entry(d=3, m=1.7, mu=0.3, seed=11)
    g_r, _ = even_series(expand(ent.space, 1), 3)
    P, _, _ = inv.schouten(ent.space)
    pt = ent.space.sample(1, seed=4)[0]
    for i in range(3):
        for j in range(3):
            assert g_r[i][j].coefficient(2).value(pt) == pytest.approx(
                -P.comp(i, j).value(pt), abs=1e-12)


def test_quasi_einstein_residual_vanishes():
    entry = load_entry('quasi-einstein')
    pts = entry.space.sample(3, seed=1)
    scale = max(inv.curvature_scale(entry.space, pts).result(), 1.0)
    worst = residual_worst(entry.closed_expansion(4), pts)
    assert worst <= 1e-10 * scale


def test_transported_orders_noninteger():
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    N = 3
    e = expand(s, N)
    pts = s.sample(5, seed=9)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    # residual = O(r^{2N}) transported from the rho orders; verify every
    # coefficient below that
    assert e.plan.guarantees(N).poincare_power == 2 * N - 1
    assert residual_worst(e, pts) <= 1e-8 * scale


def test_transported_orders_even_and_odd():
    for m, N in ((1.0, 2), (2.0, 2)):
        s = random_entry(d=3, m=m, mu=0.1, seed=21, amplitude=0.04).space
        e = expand(s, N)
        pts = s.sample(4, seed=9)
        scale = max(inv.curvature_scale(s, pts).result(), 1.0)
        if m == 1.0:
            # even branch: guaranteed through rho^{(d+m)/2-2} -> r^{2(n_c-1)-1}
            hi = 2 * (2 - 1) - 1
        else:
            hi = 2 * N - 1
        assert e.plan.guarantees(N).poincare_power == hi
        assert residual_worst(e, pts) <= 1e-8 * scale


def summed(series, r, value):
    """The series at X = r, with `value` giving each coefficient's number."""
    return sum(value(c) * r ** (series.shift + k)
               for k, c in enumerate(series.coeffs))


def test_oracle_route_matches_series_route():
    # independent (x, r)-chart evaluation at fixed r agrees with the exact
    # series residual summed at the same r, up to the truncation tail
    entry = load_entry('quasi-einstein')
    e = entry.closed_expansion(4)
    space_plus = fixed_r_space(e)
    d = 3
    dm = d + space_plus.m
    # the upper triangle of the chart block, the r row, then F
    res = residual_series(e)
    ric_plus = inv.weighted_ricci(space_plus)
    F_plus = space_plus.geometry.F_phi
    r0 = 0.1
    for pt in entry.space.sample(2, seed=3):
        xr = tuple(pt) + (r0,)
        idx = 0
        for i in range(d):
            for j in range(i, d):
                field_val = (ric_plus.comp(i, j).value(xr)
                             + dm * space_plus.g.comp(i, j).value(xr))
                series_val = summed(res[idx], r0, lambda c: c.value(pt))
                assert field_val == pytest.approx(series_val, abs=1e-10)
                idx += 1
        field_F = F_plus.value(xr) - dm * space_plus.f.value(xr) ** 2
        series_F = summed(res[-1], r0, lambda c: c.value(pt))
        assert field_F == pytest.approx(series_F, abs=1e-10)
        rr_series = summed(res[-2], r0, lambda c: c.value(pt))
        field_rr = (ric_plus.comp(d, d).value(xr)
                    + dm * space_plus.g.comp(d, d).value(xr))
        assert field_rr == pytest.approx(rr_series, abs=1e-10)


def test_oracle_route_generic_space():
    s = random_entry(d=3, m=2.0, mu=0.1, seed=41, amplitude=0.04).space
    N = 2
    e = expand(s, N)
    space_plus = fixed_r_space(e)
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    blocks = residual_series(e)[:len(pairs)]
    trunc = blocks[0].trunc
    assert trunc == e.plan.guarantees(N).poincare_power
    dm = 3 + s.m
    ric_plus = inv.weighted_ricci(space_plus)
    r0 = 0.1
    # truncation tail bound: coefficients beyond trunc scale like r^{trunc+1}
    tail = 10.0 * r0 ** (trunc + 1)
    coeffs = [c for series in blocks for c in series.coeffs
              if not isinstance(c, (int, float))]
    for pt in s.sample(2, seed=5):
        xr = tuple(pt) + (r0,)
        v = Request([xr], ric=[ric_plus.comp(i, j) for i, j in pairs],
                    g=[space_plus.g.comp(i, j) for i, j in pairs]).result()
        at_pt = dict(zip(map(id, coeffs),
                         np.asarray(evaluate(coeffs, [pt]))[:, 0]))
        for idx in range(len(pairs)):
            series_val = summed(blocks[idx], r0, lambda c: at_pt[id(c)])
            field_val = v["ric"][0][idx] + dm * v["g"][0][idx]
            assert field_val == pytest.approx(series_val, abs=tail)


def test_cone_identity_trivial_and_catalog():
    s = flat_space(d=3, m=2.0, mu=0.0)
    wr, wF, side = cone_identity_check(expand(s, 2),
                                       s.sample(4, seed=0)).result()
    assert wr < 1e-11 and wF < 1e-11 and side < 1e-11

    entry = load_entry('quasi-einstein')
    wr, wF, side = cone_identity_check(
        entry.closed_expansion(4), entry.space.sample(4, seed=0)).result()
    assert wr < 1e-11 and wF < 1e-11


def test_cone_identity_generic_nonzero_sides():
    s = random_entry(d=3, m=2.0, mu=0.1, seed=41, amplitude=0.04).space
    wr, wF, side = cone_identity_check(expand(s, 2),
                                       s.sample(4, seed=0)).result()
    assert side > 1e-8          # the sides are individually nonzero
    assert wr <= 1e-9 and wF <= 1e-9


def test_fixed_r_space_rejects_m0():
    s = flat_space(d=3, m=0.0, mu=0.0)
    e = expand(s, 1)
    with pytest.raises(inv.ValidationError):
        fixed_r_space(e)
