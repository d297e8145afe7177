"""Catalog entries: hypothesis verification, rejection paths, closed forms,
and determinism of the random corpus."""

import numpy as np
import pytest

from smmsgeom import invariants as inv
from smmsgeom.catalog import (CatalogEntry, EntryRejected, conformal_wlcf_space,
                              flat_space, gover_leitner_entry,
                              hyperbolic_upper_half_space, load_entry,
                              quasi_einstein_entry, random_entry,
                              round_sphere_space, standard_catalog, wlcf_entry)
from smmsgeom.expansion import expand
from smmsgeom.expressions import parse_expression
from smmsgeom.fields import Chart
from smmsgeom.invariants import MetricMeasureSpace


def test_flat_trivial_entry():
    entry = quasi_einstein_entry(flat_space(), 0.0, name="flat")
    assert entry.params["ric_eigenvalue"] == 0.0
    g_coeffs, f_coeffs = entry.closed_form(3)
    p = (0.1, 0.2, -0.2)
    for k in range(1, 4):
        assert np.allclose(g_coeffs[k].matrix_values(p), 0.0)
        assert f_coeffs[k].value(p) == 0.0


def test_hyperbolic_quasi_einstein_accepted():
    entry = quasi_einstein_entry(hyperbolic_upper_half_space(d=3, m=2.0),
                                 ric_eigenvalue=-4.0)
    # Ric_phi = -(d+m-1) g and the Schouten eigenvalue is -1/2
    assert entry.params["schouten_eigenvalue"] == pytest.approx(-0.5)
    assert entry.verify(entry.space.sample(6, 0)).result() is None


def test_sphere_not_quasi_einstein_rejected():
    # Ric_phi = (d-1) g but F_phi = 0 != -(d-1) f^2 when mu = 0
    entry = quasi_einstein_entry(round_sphere_space(d=3, m=2.0, mu=0.0),
                                 ric_eigenvalue=2.0)
    rejected = entry.verify(entry.space.sample(6, 0)).result()
    assert isinstance(rejected, EntryRejected)
    assert "|F_phi + c f^2|" in str(rejected)
    assert "|Ric_phi - c g|" not in str(rejected)


def test_sphere_quasi_einstein_with_tuned_mu():
    # f = 1 forces F_phi = -(m-1) mu; matching -(d-1) f^2 needs mu = (d-1)/(m-1)
    s = round_sphere_space(d=3, m=2.0, mu=2.0)
    entry = quasi_einstein_entry(s, ric_eigenvalue=2.0)
    assert entry.params["schouten_eigenvalue"] == pytest.approx(0.25)
    assert entry.verify(s.sample(6, 0)).result() is None


def test_wlcf_accepted_and_exponential_density_rejected():
    entry = wlcf_entry(conformal_wlcf_space())
    assert entry.verify(entry.space.sample(6, 0)).result() is None
    chart = Chart(("x1", "x2", "x3"), box=[(-0.4, 0.4)] * 3)
    bad = MetricMeasureSpace(chart, inv.euclidean_metric(chart),
                             parse_expression("exp(x1)", chart), 2.0, 0.0)
    assert isinstance(wlcf_entry(bad).verify(bad.sample(6, 0)).result(),
                      EntryRejected)


def test_wlcf_requires_positive_m():
    with pytest.raises(EntryRejected):
        wlcf_entry(flat_space(m=0.0))


def test_wlcf_lemma_identities():
    entry = load_entry('wlcf')
    s = entry.space
    pts = s.sample(4, seed=3)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    res_a, res_b, dP = inv.conformally_flat_identities(s)
    for p in pts:
        assert max(abs(r.value(p)) for r in res_a) <= 1e-8 * scale
        assert max(abs(res_b[i][j].value(p)) for i in range(3)
                   for j in range(3)) <= 1e-8 * scale
        assert np.max(np.abs(np.array(
            [[[dP[i][j][k].value(p) for k in range(3)] for j in range(3)]
             for i in range(3)]))) <= 1e-8 * scale


def test_gover_leitner_sphere_values():
    entry = load_entry('gover-leitner')
    s = entry.space
    # Ric = 2 g = -(d-1) mu g forces mu = -1, and the deformation rate 1/2
    assert s.mu == -1.0
    assert entry.params["schouten_eigenvalue"] == pytest.approx(0.5)
    # F_phi = -(m-1) mu = m - 1
    F = s.geometry.F_phi
    p = s.sample(1, seed=0)[0]
    assert F.value(p) == pytest.approx(s.m - 1.0, abs=1e-10)
    # P = lam g and Y = -m lam for this family
    P, _, Y = inv.schouten(s)
    gm = np.asarray(s.g.matrix_values(p))
    assert np.allclose(P.matrix_values(p), 0.5 * gm, atol=1e-9)
    assert Y.value(p) == pytest.approx(-s.m * 0.5, abs=1e-9)


def test_gover_leitner_requires_unit_density():
    s = round_sphere_space(d=3, m=2.0, mu=-1.0, f_expr="1+0*x1")
    # the constant-1 expression folds and is accepted
    assert gover_leitner_entry(s).verify(s.sample(6, 0)).result() is None
    s_bad = hyperbolic_upper_half_space(d=3, m=2.0)
    with pytest.raises(EntryRejected):
        gover_leitner_entry(s_bad)


def test_gover_leitner_wrong_sign_rejected():
    # the sphere has Ric = +2g; claiming mu = +1 flips the required sign
    s = round_sphere_space(d=3, m=2.0, mu=1.0)
    assert isinstance(gover_leitner_entry(s).verify(s.sample(6, 0)).result(),
                      EntryRejected)


def test_wlcf_trivial_entry_and_solver_match():
    # a = 0, u = 0 degenerates to the flat trivial entry
    trivial = wlcf_entry(conformal_wlcf_space(a=0.0, u_expr="0"))
    assert trivial.verify(trivial.space.sample(6, 0)).result() is None
    p = (0.1, 0.2, -0.1)
    g_coeffs, f_coeffs = trivial.closed_form(3)
    for k in range(1, 4):
        assert np.allclose(g_coeffs[k].matrix_values(p), 0.0, atol=1e-14)
        assert abs(f_coeffs[k].value(p)) < 1e-14
    # the generic entry's closed form is reproduced by the solver through
    # the guaranteed orders (d+m = 5 is odd: all computed orders)
    entry = load_entry('wlcf')
    s = entry.space
    e = expand(s, 3)
    g_want, f_want = entry.closed_form(3)
    pts = s.sample(3, seed=2)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    for p in pts:
        for k in range(4):
            dg = (np.asarray(e.g_coeffs[k].matrix_values(p))
                  - np.asarray(g_want[k].matrix_values(p)))
            assert np.max(np.abs(dg)) <= 1e-9 * scale
            assert abs(e.f_coeffs[k].value(p)
                       - f_want[k].value(p)) <= 1e-9 * scale


def test_gover_leitner_solver_matches_closed_form():
    entry = load_entry('gover-leitner')
    s = entry.space
    e = expand(s, 4)
    g_want, f_want = entry.closed_form(4)
    pts = s.sample(3, seed=7)
    scale = max(inv.curvature_scale(s, pts).result(), 1.0)
    for p in pts:
        for k in range(5):
            dg = (np.asarray(e.g_coeffs[k].matrix_values(p))
                  - np.asarray(g_want[k].matrix_values(p)))
            assert np.max(np.abs(dg)) <= 1e-10 * scale
            assert abs(e.f_coeffs[k].value(p)
                       - f_want[k].value(p)) <= 1e-10 * scale


def test_random_entry_deterministic_and_positive():
    a = random_entry(d=3, m=1.0, mu=0.0, seed=42, amplitude=0.05)
    b = random_entry(d=3, m=1.0, mu=0.0, seed=42, amplitude=0.05)
    assert a.params["expressions"] == b.params["expressions"]
    p = (0.3, -0.4, 0.1)
    assert np.array_equal(a.space.g.matrix_values(p), b.space.g.matrix_values(p))
    a.space.check_at([p, (0.5, 0.5, 0.5)])


def test_random_entry_amplitude_zero_is_flat():
    e = random_entry(d=3, m=1.0, mu=0.0, seed=3, amplitude=0.0)
    p = (0.2, 0.1, -0.3)
    assert np.allclose(e.space.g.matrix_values(p), np.eye(3))
    assert e.space.f.value(p) == 1.0


def test_random_entry_positivity_rejection():
    with pytest.raises(EntryRejected):
        random_entry(d=3, m=1.0, mu=0.0, seed=0, amplitude=5.0)


def test_random_entry_checks_nothing():
    e = random_entry(d=3, m=1.0, mu=0.0, seed=3)
    request = e.verify(e.space.sample(6, 0))
    assert not request.roots
    assert request.result() is None


def test_construction_evaluates_nothing(monkeypatch):
    # an entry's equations are checked by its `verify` request alone
    from smmsgeom import fields
    sweeps = []
    sweep = fields._sweep

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(fields, "_sweep", counted)
    for name, build in standard_catalog().items():
        build()
        assert not sweeps, name


def test_standard_catalog_all_load_and_verify():
    for name in standard_catalog():
        entry = load_entry(name)
        assert entry.verify(entry.space.sample(6, 0)).result() is None
        assert isinstance(entry, CatalogEntry)


def test_unknown_catalog_name():
    with pytest.raises(KeyError):
        load_entry("nonexistent")
