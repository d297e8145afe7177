"""Conformally compact structures: evenness, boundary data, transported
residual orders, the two-route oracle comparison, and the cone identities."""

import numpy as np
import pytest

from smmsgeom import invariants as inv
from smmsgeom.catalog import flat_space, load_entry, random_entry
from smmsgeom.expansion import expand
from smmsgeom.fields import Request, evaluate
from smmsgeom.poincare import (cone_identity_check, fixed_r_space,
                               poincare_residual, to_poincare)


def residual_worst(res, powers, points):
    worst = res.block_max(powers, points).result()
    # the default names cover the three Ricci blocks and the F scalar
    assert worst == max(
        res.block_max(powers, points, ("ij", "ri", "rr")).result(),
        res.block_max(powers, points, ("F",)).result())
    return worst


def test_flat_model_is_weighted_hyperbolic():
    s = flat_space(d=3, m=2.0, mu=0.0)
    p = to_poincare(expand(s, 2))
    pt = (0.1, -0.2, 0.3)
    # g_plus = r^-2 (dr^2 + g): boundary metric is g itself
    vals = np.asarray(evaluate([x.coefficient(0) for row in p.g_r for x in row]
                               + [p.f_r.coefficient(0)], [pt]))[:, 0]
    assert np.allclose(vals[:-1].reshape(3, 3), np.eye(3))
    assert vals[-1] == 1.0
    res = poincare_residual(p)
    assert residual_worst(res, range(-2, res.trunc + 1), [pt]) == 0.0


def test_evenness_structural():
    s = random_entry(d=3, m=1.7, mu=0.3, seed=11).space
    p = to_poincare(expand(s, 2))
    pt = s.sample(1, seed=0)[0]
    for power in (1, 3):
        for i in range(3):
            for j in range(3):
                c = p.g_r[i][j].coefficient(power)
                assert getattr(c, "is_zero", c == 0.0)
        c = p.f_r.coefficient(power)
        assert getattr(c, "is_zero", c == 0.0)


def test_asymptotic_hyperbolicity_normalization():
    # |dr/r|_{g_plus} = 1 at r = 0: the (r,r) entry of r^2 g_plus is exactly 1
    s = random_entry(d=3, m=0.5, mu=0.0, seed=2).space
    p = to_poincare(expand(s, 1))
    gp = p.g_plus()
    rr = gp[3][3]
    assert rr.shift == -2
    assert rr.coefficient(-2).const_value() == 1.0
    assert rr.trunc is None     # the (r,r) entry is exactly r^-2
    assert all(getattr(rr.coefficient(k), "is_zero", rr.coefficient(k) == 0.0)
               for k in range(-1, 4))


def test_composition_consistency_exact():
    s = random_entry(d=3, m=1.7, mu=0.3, seed=11).space
    e = expand(s, 2)
    p = to_poincare(e)
    pt = s.sample(1, seed=1)[0]
    for k in range(3):
        for i in range(3):
            for j in range(3):
                want = (-0.5) ** k * e.g_coeffs[k].comp(i, j).value(pt)
                assert p.g_r[i][j].coefficient(2 * k).value(pt) == pytest.approx(
                    want, rel=1e-15, abs=1e-300)
    # the r^0 coefficient is the identical field object (exact composition)
    assert p.g_r[0][0].coefficient(0) is e.g_coeffs[0].comp(0, 0)


def test_first_order_r2_coefficient_is_minus_schouten():
    ent = random_entry(d=3, m=1.7, mu=0.3, seed=11)
    e = expand(ent.space, 1)
    p = to_poincare(e)
    P, _, _ = inv.schouten(ent.space)
    pt = ent.space.sample(1, seed=4)[0]
    for i in range(3):
        for j in range(3):
            assert p.g_r[i][j].coefficient(2).value(pt) == pytest.approx(
                -P.comp(i, j).value(pt), abs=1e-12)


def test_quasi_einstein_residual_vanishes():
    entry = load_entry('quasi-einstein')
    p = to_poincare(entry.closed_expansion(4))
    res = poincare_residual(p)
    pts = entry.space.sample(3, seed=1)
    scale = max(inv.curvature_scale(entry.space, pts).result(), 1.0)
    worst = residual_worst(res, range(-2, res.trunc + 1), pts)
    assert worst <= 1e-10 * scale


def test_transported_orders_noninteger():
    s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
    N = 3
    p = to_poincare(expand(s, N))
    res = poincare_residual(p)
    pts = s.sample(5, seed=9)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    # residual = O(r^{2N}) transported from the rho orders; verify every
    # computable coefficient below that
    hi = min(2 * N - 1, res.trunc)
    assert residual_worst(res, range(-2, hi + 1), pts) <= 1e-8 * scale


def test_transported_orders_even_and_odd():
    for m, N in ((1.0, 2), (2.0, 2)):
        s = random_entry(d=3, m=m, mu=0.1, seed=21, amplitude=0.04).space
        p = to_poincare(expand(s, N))
        res = poincare_residual(p)
        pts = s.sample(4, seed=9)
        scale = max(inv.curvature_scale(s, pts).result(), 1.0)
        if m == 1.0:
            # even branch: guaranteed through rho^{(d+m)/2-2} -> r^{2(n_c-1)-1}
            hi = min(2 * (2 - 1) - 1, res.trunc)
        else:
            hi = min(2 * N - 1, res.trunc)
        assert residual_worst(res, range(-2, hi + 1), pts) <= 1e-8 * scale


def summed(series, r, value):
    """The series at X = r, with `value` giving each coefficient's number."""
    return sum(value(c) * r ** (series.shift + k)
               for k, c in enumerate(series.coeffs))


def test_oracle_route_matches_series_route():
    # independent (x, r)-chart evaluation at fixed r agrees with the exact
    # series residual summed at the same r, up to the truncation tail
    entry = load_entry('quasi-einstein')
    p = to_poincare(entry.closed_expansion(4))
    space_plus = fixed_r_space(p)
    d = 3
    dm = d + space_plus.m
    res = poincare_residual(p)
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
                series_val = summed(res.ricci_blocks["ij"][idx], r0,
                                    lambda c: c.value(pt))
                assert field_val == pytest.approx(series_val, abs=1e-10)
                idx += 1
        field_F = F_plus.value(xr) - dm * space_plus.f.value(xr) ** 2
        series_F = summed(res.f_scalar, r0, lambda c: c.value(pt))
        assert field_F == pytest.approx(series_F, abs=1e-10)
        rr_series = summed(res.ricci_blocks["rr"][0], r0,
                           lambda c: c.value(pt))
        field_rr = (ric_plus.comp(d, d).value(xr)
                    + dm * space_plus.g.comp(d, d).value(xr))
        assert field_rr == pytest.approx(rr_series, abs=1e-10)


def test_oracle_route_generic_space():
    s = random_entry(d=3, m=2.0, mu=0.1, seed=41, amplitude=0.04).space
    N = 2
    p = to_poincare(expand(s, N))
    space_plus = fixed_r_space(p)
    res = poincare_residual(p)
    dm = 3 + s.m
    ric_plus = inv.weighted_ricci(space_plus)
    r0 = 0.1
    # truncation tail bound: coefficients beyond res.trunc scale like r^{trunc+1}
    tail = 10.0 * r0 ** (res.trunc + 1)
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    blocks = res.ricci_blocks["ij"]
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
    p = to_poincare(expand(s, 2))
    wr, wF, side = cone_identity_check(p, points=s.sample(4, seed=0)).result()
    assert wr < 1e-11 and wF < 1e-11 and side < 1e-11

    entry = load_entry('quasi-einstein')
    pe = to_poincare(entry.closed_expansion(4))
    wr, wF, side = cone_identity_check(
        pe, points=entry.space.sample(4, seed=0)).result()
    assert wr < 1e-11 and wF < 1e-11


def test_cone_identity_generic_nonzero_sides():
    s = random_entry(d=3, m=2.0, mu=0.1, seed=41, amplitude=0.04).space
    p = to_poincare(expand(s, 2))
    wr, wF, side = cone_identity_check(p, points=s.sample(4, seed=0)).result()
    assert side > 1e-8          # the sides are individually nonzero
    assert wr <= 1e-9 and wF <= 1e-9


def test_fixed_r_space_rejects_m0():
    s = flat_space(d=3, m=0.0, mu=0.0)
    p = to_poincare(expand(s, 1))
    with pytest.raises(inv.ValidationError):
        fixed_r_space(p)
