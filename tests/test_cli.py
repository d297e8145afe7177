"""Configuration parsing, report format, and the command-line surface."""

import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

import smmsgeom
from smmsgeom import cli
from smmsgeom.cli import main
from smmsgeom.catalog import EntryRejected
from smmsgeom.config import (ConfigError, Report, format_value, load_config)
from smmsgeom.errors import InputError
from smmsgeom.expansion import ConsistencyError, OrderError
from smmsgeom.invariants import ValidationError
from smmsgeom.jets import JetDivisionError

CONFIG = """
[chart]
dimension = 3
coordinates = x1 x2 x3
box = -0.5 0.5 ; -0.5 0.5 ; -0.5 0.5

[metric]
g11 = 1 + 0.05*sin(x1)
g21 = 0.02*x1*x2
g22 = 1
g33 = 1 + 0.03*x2^2

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
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "problem.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_load_config(config_path):
    cfg = load_config(config_path)
    assert cfg.dimension == 3
    assert cfg.coordinates == ("x1", "x2", "x3")
    assert cfg.box[0] == (-0.5, 0.5)
    assert cfg.metric_exprs[(0, 0)].startswith("1 + 0.05")
    assert (0, 1) in cfg.metric_exprs          # g21 stored as upper (0,1)
    assert cfg.m == 0.5 and cfg.order == 2 and cfg.seed == 7
    space = cfg.space()
    assert space.dim == 3


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.replace("g11 = 1 + 0.05*sin(x1)", ""))
    with pytest.raises(ConfigError, match="g11"):
        load_config(str(bad))
    bad.write_text(CONFIG.replace("-0.5 0.5 ; -0.5 0.5 ; -0.5 0.5", "0 1"))
    with pytest.raises(ConfigError, match="box"):
        load_config(str(bad))
    bad.write_text(CONFIG.replace("f = 1 + 0.05*x1", "f = 1 + qq"))
    cfg = load_config(str(bad))
    with pytest.raises(ConfigError, match="density"):
        cfg.space()


def test_negative_density_rejected_with_point(tmp_path):
    path = tmp_path / "neg.cfg"
    path.write_text(CONFIG.replace("f = 1 + 0.05*x1", "f = x1 + 0.2"))
    cfg = load_config(str(path))
    with pytest.raises(Exception, match="not positive at"):
        cfg.space()


@pytest.mark.parametrize("old,new,error", [
    ("g22 = 1", "g22 = sqrt(-1)", "ConfigError: metric entry g22"),
    ("f = 1 + 0.05*x1", "f = sqrt(-1)", "ConfigError: density f"),
    ("g33 = 1 + 0.03*x2^2", "g33 = 1+0*log(0)", "ConfigError: metric entry g33"),
    ("f = 1 + 0.05*x1", "f = exp(1000)", "ConfigError: density f"),
    ("g22 = 1", "g22 = 1e308*10 - 1e308*10",
     "ValidationError: metric not finite"),
    ("f = 1 + 0.05*x1", "f = 1e308*10 - 1e308*10",
     "ValidationError: density f not positive"),
    ("f = 1 + 0.05*x1", "f = 1e308*10 + x1",
     "ValidationError: density f not finite"),
])
def test_cli_rejects_non_finite_input(tmp_path, old, new, error):
    # constants fold at build time: a fold that leaves the domain raises,
    # and the NaN of inf - inf, or an infinite density, must not pass the
    # metric and density checks
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace(old, new))
    code, text = run_cli(["verify", "--config", str(path), "--order", "1"],
                         tmp_path, "bad.txt")
    assert code == 2
    assert f"error = {error}" in text


@pytest.mark.parametrize("box", ["0 inf", "-1e308 1e308"])
def test_cli_rejects_a_box_that_is_not_finite(tmp_path, capsys, box):
    # both pass the lo < hi check; the width hi - lo is not a float
    path = tmp_path / "box.cfg"
    path.write_text(CONFIG.replace("box = -0.5 0.5 ;", f"box = {box} ;"))
    code, text = run_cli(["verify", "--config", str(path), "--order", "1"],
                         tmp_path, "box.txt")
    assert code == 2
    assert f"error = ConfigError: box interval '{box}' is not finite" in text
    assert capsys.readouterr().err == ""


def test_format_value_roundtrip():
    x = 0.1 + 0.2
    assert float(format_value(x)) == x
    assert format_value(True) == "true"
    assert format_value(3) == "3"


def test_report_render_deterministic():
    r = Report("0.0")
    r.put("b", 1.0)
    r.put("a", 2)
    r.put_timing("t", 0.5)
    text = r.render()
    assert text.splitlines()[0] == "schema_version = 1"
    assert text.index("a = 2") < text.index("b = 1")
    assert text.rstrip().endswith("timings.t = 0.5")


def test_report_check_failure_flips_ok():
    r = Report("0.0")
    assert r.put_check("good", 1e-12, 1e-9)
    assert not r.put_check("bad", 1.0, 1e-9)
    assert not r.ok and r.failures == ["bad"]


def run_cli(args, tmp_path, name):
    out = str(tmp_path / name)
    code = main(args + ["--out", out])
    with open(out) as fh:
        return code, fh.read()


def test_cli_invariants_flat_zero_curvature(tmp_path):
    path = tmp_path / "flat.cfg"
    path.write_text(CONFIG.replace("1 + 0.05*sin(x1)", "1")
                    .replace("0.02*x1*x2", "0")
                    .replace("1 + 0.03*x2^2", "1")
                    .replace("f = 1 + 0.05*x1", "f = 1"))
    code, text = run_cli(["invariants", "--config", str(path)], tmp_path, "r.txt")
    assert code == 0
    assert "point0.ricci_phi.00 = 0\n" in text
    assert "check.bianchi_residual.ok = true" in text


def test_cli_invariants_sphere_scalar(tmp_path):
    # the round-sphere config reports the space-form value R = d(d-1) = 6
    import os
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "gover-leitner.cfg")
    code, text = run_cli(["invariants", "--config", cfg, "--points", "3"],
                         tmp_path, "s.txt")
    assert code == 0
    values = [float(l.split(" = ")[1]) for l in text.splitlines()
              if l.startswith("point") and ".scalar =" in l]
    assert values and all(abs(v - 6.0) < 1e-9 for v in values)


FLAT_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "flat.cfg")


@pytest.mark.parametrize("own_seed,run_seed", [(5, 0), (0, 5)])
def test_cli_seed_override_is_validated_at_the_run_points(tmp_path, own_seed,
                                                          run_seed):
    # g11 = 1 + 3*x1 is negative for x1 < -1/3: seed 0 samples x1 = -0.483
    # there, seed 5 samples none; the run's points decide, whichever seed
    # the file names
    with open(FLAT_CFG) as fh:
        text = fh.read()
    path = tmp_path / "override.cfg"
    path.write_text(text.replace("g11 = 1\n", "g11 = 1 + 3*x1\n")
                    .replace("seed = 0", f"seed = {own_seed}"))
    code, report = run_cli(["invariants", "--config", str(path), "--seed",
                            str(run_seed)], tmp_path, "o.txt")
    if run_seed == 0:
        assert code == 2
        assert ("error = ValidationError: metric not positive definite"
                in report)
    else:
        assert code == 0, report


def count_builds(monkeypatch, names, ring):
    """name -> calls of each `curvature` function in `names` whose last
    argument, the ring's zero, satisfies `ring`; counted while the test
    runs."""
    from smmsgeom import curvature as cv
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            if ring(args[-1]):
                calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(cv, name, counted(name, getattr(cv, name)))
    return calls


def on_chart(zero):
    from smmsgeom.fields import ScalarField
    return isinstance(zero, ScalarField)


def test_cli_invariants_builds_each_curvature_part_once(config_path, tmp_path,
                                                        monkeypatch):
    names = ("matrix_inverse", "christoffel", "ricci", "riemann_lowered",
             "hessian")
    calls = count_builds(monkeypatch, names, on_chart)
    code, _ = run_cli(["invariants", "--config", config_path, "--points", "1"],
                      tmp_path, "c.txt")
    assert code == 0
    assert calls == dict.fromkeys(names, 1)


def random_config(seed, m, mu, order):
    """The config of `random_entry(d=3, m=m, mu=mu, seed=seed)` at one
    sample point, as the benchmark writes it."""
    from smmsgeom.catalog import random_entry
    exprs = random_entry(d=3, m=m, mu=mu, seed=seed).params["expressions"]
    metric = "\n".join(f"g{j + 1}{i + 1} = {exprs[f'g{i + 1}{j + 1}']}"
                       for i in range(3) for j in range(i, 3))
    return (f"[chart]\ndimension = 3\ncoordinates = x1 x2 x3\n"
            f"box = -0.5 0.5 ; -0.5 0.5 ; -0.5 0.5\n\n[metric]\n{metric}\n\n"
            f"[density]\nf = {exprs['f']}\n\n"
            f"[parameters]\nm = {m!r}\nmu = {mu!r}\n\n"
            f"[solver]\norder = {order}\n\n"
            f"[sampling]\npoints = 1\nseed = {seed}\n")


def test_cli_verify_inverts_each_series_metric_once(tmp_path, monkeypatch):
    # one rho-slice Geometry per solver step (4), which the ambient
    # metric takes over from the last step, plus the r-Laurent metric of
    # the Poincare residual; a slice Geometry of the ambient metric's own
    # made it 6, and a second slice in `ricci_closed` 7
    from smmsgeom.series import Series
    calls = count_builds(monkeypatch, ("matrix_inverse", "christoffel"),
                         lambda zero: isinstance(zero, Series))
    path = tmp_path / "deep.cfg"
    path.write_text(random_config(51, 0.5, 0.1, 4))
    code, text = run_cli(["verify", "--config", str(path)], tmp_path, "d.txt")
    assert code == 0, text
    assert calls == {"matrix_inverse": 5, "christoffel": 5}


@pytest.mark.parametrize("given,points", [
    # one sample point, whose scale the checks, the gates and
    # order_report each nest: 3 reductions of it before
    ("random-deep", 1),
    # the catalog equations add six points of the run's seed, the first
    # of them the run's own point: 9 reductions before
    ("quasi-einstein", 6),
])
def test_cli_verify_reduces_the_curvature_scale_once_per_point(
        tmp_path, monkeypatch, given, points):
    from smmsgeom import invariants
    norm_squared, ranks = invariants._norm_squared, []

    def counting(t, ginv):
        ranks.append(len(t))
        return norm_squared(t, ginv)

    monkeypatch.setattr(invariants, "_norm_squared", counting)
    path = tmp_path / "deep.cfg"
    path.write_text(random_config(51, 0.5, 0.1, 4))
    argv = {"random-deep": ["--config", str(path)],
            "quasi-einstein": ["--catalog", "quasi-einstein",
                               "--points", "1"]}[given]
    code, text = run_cli(["verify"] + argv, tmp_path, "v.txt")
    assert code == 0, text
    # |Rm|^2 (3^4 components) and |Hess f|^2 (3^2) once per point
    assert sorted(ranks) == [9] * points + [81] * points


@pytest.mark.parametrize("odd", ["d3-m2", "d3-m0"])
def test_cli_verify_solves_the_odd_critical_order(tmp_path, odd):
    # at n = d+m the trace system leaves tr psi / 2 + (m/f) upsilon free
    # of the rho^(n-1) residuals; the rho-rho block fixes it.  Set to zero
    # instead, Ric[oo oo] read 0.316 (d = 3, m = 2) and 4e-4 (m = 0, f = 1)
    # at rho^(n-2), and the Poincare residual failed with it.
    text = (random_config(51, 2.0, 0.1, 5) if odd == "d3-m2" else
            CONFIG.replace("f = 1 + 0.05*x1", "f = 1")
            .replace("m = 0.5", "m = 0").replace("order = 2", "order = 3"))
    path = tmp_path / "odd.cfg"
    path.write_text(text)
    code, text = run_cli(["verify", "--config", str(path)], tmp_path,
                         "odd.txt")
    assert code == 0, text
    assert "ok = false" not in text
    assert "check.ambient_order_rho_rho.ok = true" in text
    assert "check.poincare_residual.ok = true" in text


def test_cli_verify_builds_few_unread_nodes(tmp_path):
    # order 2 on the seed-51 random space: 8,800 nodes, 1,254 never
    # computed.  Before sums were one node, Ricci built only the partials
    # it reads and the closed form cut its rho-multiplied products, the
    # same run built 12,325 nodes, 2,134 of them never computed.
    path = tmp_path / "small.cfg"
    path.write_text(random_config(51, 0.5, 0.1, 2))
    code, text = run_cli(["verify", "--config", str(path)], tmp_path, "u.txt")
    assert code == 0, text
    stats = dict(line[len("timings.stats."):].split(" = ")
                 for line in text.splitlines()
                 if line.startswith("timings.stats."))
    assert int(stats["nodes"]) <= 9000
    assert int(stats["unread"]) <= 1400


# runs its arguments as a command: a forked child's peak resident set
# starts at its parent's, so the CLI is started from this small process
# and not from the test's, which holds numpy and the suite's DAGs
SPAWN = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def _child_stats(argv, cwd):
    """`timings.stats` of one `python -m smmsgeom.cli` process, whose peak
    resident set is its own."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(smmsgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SPAWN, sys.executable, "-m",
                           "smmsgeom.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return dict(line[len("timings.stats."):].split(" = ")
                for line in proc.stdout.splitlines()
                if line.startswith("timings.stats."))


def test_cli_verify_memory_does_not_grow_with_the_points(tmp_path):
    # one point's jets are live at a time and none is kept after the
    # sweep, so ten points cost about what one does; a memo holding every
    # jet at every point read 46.5 MB at 10 points against 36.1 MB at 1
    path = tmp_path / "deep.cfg"
    path.write_text(random_config(51, 0.5, 0.1, 2))
    one, ten = (float(_child_stats(["verify", "--config", str(path),
                                    "--points", n], tmp_path)["peak_rss_mb"])
                for n in ("1", "10"))
    assert ten <= 1.1 * one, (one, ten)


def test_cli_verify_dag_bytes_per_node(tmp_path):
    # what `fields` allocated and the DAG still holds when the command
    # returns (nodes, term tuples, indices), per node of every chart:
    # about 250 B with one (op, a, b, param) key tuple per node and an
    # `is_zero` slot, 190 B with keys made of what each node holds, and
    # 134 B once the charts drop their intern tables before the sweep
    from smmsgeom import fields
    path = tmp_path / "small.cfg"
    path.write_text(random_config(51, 0.5, 0.1, 2))

    def charts():
        return {id(c): c for c in gc.get_objects()
                if isinstance(c, fields.Chart)}

    enabled = gc.isenabled()
    gc.collect()
    # paused, so that the command's DAG outlives `main` until measured
    gc.disable()
    # each chart held with its count, so that no id is reused
    before = {key: (c, c.node_count) for key, c in charts().items()}
    tracemalloc.start()
    try:
        code, text = run_cli(["verify", "--config", str(path)], tmp_path,
                             "b.txt")
        held = sum(stat.size for stat in tracemalloc.take_snapshot()
                   .filter_traces([tracemalloc.Filter(True, fields.__file__)])
                   .statistics("filename"))
        nodes = sum(c.node_count - before.get(key, (c, 0))[1]
                    for key, c in charts().items())
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
        gc.collect()
    assert code == 0, text
    assert held / nodes <= 160, (held, nodes)


@pytest.mark.parametrize("source", ["--config", "--catalog"])
def test_cli_seals_every_chart_of_a_root_before_the_sweep(tmp_path,
                                                          monkeypatch, source):
    # every field is built before the sweep, so the charts that own its
    # roots (the problem chart and the (x, r) chart of the cone check)
    # no longer hold their intern tables while it runs
    from smmsgeom import fields
    run, calls = fields.run, []

    def recorded(requests):
        requests = list(requests)
        charts = {r.chart for q in requests for r in q.roots
                  if isinstance(r, fields.ScalarField)}
        calls.append(sorted((c.dim, isinstance(c._tables, dict))
                            for c in charts))
        return run(requests)

    monkeypatch.setattr(fields, "run", recorded)
    if source == "--config":
        path = tmp_path / "problem.cfg"
        path.write_text(CONFIG.replace("points = 5", "points = 1")
                        .replace("order = 2", "order = 1"))
        argv = ["verify", "--config", str(path)]
    else:
        argv = ["verify", "--catalog", "wlcf", "--order", "1", "--points", "1"]
    code, text = run_cli(argv, tmp_path, "sealed.txt")
    assert code == 0, text
    # the command's sweep is its last call
    assert calls[-1] == [(3, False), (4, False)]


def test_cli_verify_recomputes_at_most_in_proportion_to_the_points(tmp_path):
    # a node is computed again only where input validation, before the
    # sweep, computed it at the same point; a memo shared between stages
    # recomputed 23,469 nodes at 10 points against 676 at 1
    path = tmp_path / "even.cfg"
    path.write_text(random_config(51, 1.0, 0.1, 2))
    counts = []
    for n in ("1", "10"):
        code, text = run_cli(["verify", "--config", str(path), "--points", n],
                             tmp_path, f"r{n}.txt")
        assert code == 0, text
        stats = dict(line[len("timings.stats."):].split(" = ")
                     for line in text.splitlines()
                     if line.startswith("timings.stats."))
        counts.append(int(stats["recomputed"]))
    assert 0 < counts[1] <= 10 * counts[0], counts


def test_cli_catalog_verify_reads_the_space_geometry(tmp_path, monkeypatch):
    # the base space and the (x, r) space of the cone check, one each: the
    # weighted-flat identities read Hess phi from the space's Geometry, and
    # the closed form its inverse metric
    names = ("matrix_inverse", "hessian", "phi_hessian")
    calls = count_builds(monkeypatch, names, on_chart)
    code, text = run_cli(["verify", "--catalog", "wlcf", "--points", "1",
                          "--order", "3"], tmp_path, "w.txt")
    assert code == 0, text
    assert calls == {"matrix_inverse": 2, "hessian": 2, "phi_hessian": 1}


NAN_CONFIG = """[chart]
dimension = 3
coordinates = x1 x2 x3
box = 0.9 1.0 ; -0.5 0.5 ; -0.5 0.5

[metric]
g11 = exp(700*x1)
g22 = 1
g33 = 1

[density]
f = 1 + 0.1*x2

[parameters]
m = 0.5
mu = 0.1

[solver]
order = 2

[sampling]
points = 2
seed = 3
"""


ORDER_BLOCKS = ("F", "ij", "trace_combo", "t_row", "rho_i", "rho_rho")


def test_cli_nan_coefficients_fail_the_order_checks(config_path, tmp_path):
    # exp(700 x1) overflows the jets of g_rho, and the closed-form maxima
    # and the rho rho row end in NaN; a NaN is never within a tolerance
    path = tmp_path / "nan.cfg"
    path.write_text(NAN_CONFIG)
    code, text = run_cli(["expand", "--config", str(path)], tmp_path, "n.txt")
    assert code == 1
    for name in ("F", "ij", "trace_combo", "rho_rho"):
        assert f"order.{name}.ok = false" in text
        assert f"order.{name}.first_violation = -1" not in text
    # the generic t and rho-i rows contract g^{KL} with the overflowing
    # symbols before any other factor meets them, so no 0 * inf arises:
    # they stay finite and vanish within the tolerance, as guaranteed
    for name in ("t_row", "rho_i"):
        assert f"order.{name}.ok = true" in text
        assert f"order.{name}.first_violation = -1" in text
    # a NaN in rho^1 reaches every block; one in rho^2 (order 2) reaches
    # all but the rho^0 coefficients of the t and rho-i rows
    reached = {"1": ORDER_BLOCKS,
               "2": ("F", "ij", "trace_combo", "rho_rho")}
    for k, names in reached.items():
        code, text = run_cli(["verify", "--config", config_path, "--points",
                              "1", "--corrupt-coefficient", f"{k},0,0,nan"],
                             tmp_path, f"vn{k}.txt")
        assert code == 1
        for name in ORDER_BLOCKS:
            check = f"check.ambient_order_{name}"
            if name in names:
                assert f"{check}.value = nan" in text, (k, name)
                assert f"{check}.ok = false" in text, (k, name)
            else:
                assert f"{check}.ok = true" in text, (k, name)


@pytest.mark.parametrize("command,old,new,error", [
    # g_rho's jets overflow until a divisor meets the pivot floor
    ("expand", "m = 0.5", "m = 1", "constant term"),
    # sqrt(x2) at a sample point with x2 < 0
    ("invariants", "g11 = exp(700*x1)\ng22 = 1",
     "g11 = 1\ng22 = 1 + 0.1*sqrt(x2)", "sqrt of non-positive"),
])
def test_cli_jet_domain_errors_are_typed(tmp_path, command, old, new, error):
    path = tmp_path / "domain.cfg"
    path.write_text(NAN_CONFIG.replace("order = 2", "order = 3")
                    .replace(old, new))
    code, text = run_cli([command, "--config", str(path)], tmp_path, "j.txt")
    assert code == 2, text
    assert f"error = JetDivisionError: {error}" in text


@pytest.mark.parametrize("command", ["invariants", "expand"])
@pytest.mark.parametrize("f,error", [
    # the value overflows
    ("1 + 0.01*exp(3000*x1)", "exp of constant term 1.327e+03"),
    ("1 + 0.01*cosh(3000*x1)", "cosh of constant term 1.327e+03"),
    # an infinite argument, which `math.sin` rejects
    ("1 + 0.01*sin(1e300*1e300*x1 + 1)", "sin of constant term inf"),
    # the value is finite, but a derivative overflows, or divides by an
    # underflowed power
    ("1 + 0.01*sqrt(1e-300*(2+x1))", "sqrt of constant term 2.442e-300"),
    ("1 + 0.0001*log(1e-200*(2+x1))", "log of constant term 2.442e-200"),
])
def test_cli_primitive_range_errors_are_typed(tmp_path, command, f, error):
    # each ended as an internal error (exit 3) with a bare OverflowError,
    # ValueError or ZeroDivisionError of `math`
    text = random_config(51, 1.0, 0.1, 2)
    start = text.index("\nf = ") + 1
    path = tmp_path / "range.cfg"
    path.write_text(text[:start] + f"f = {f}" + text[text.index("\n", start):])
    code, text = run_cli([command, "--config", str(path)], tmp_path, "r.txt")
    assert code == 2, text
    assert f"error = JetDivisionError: {error} is out of range\n" in text


@pytest.mark.parametrize("spec,error", [
    ("1,0,0", "takes K,I,J,EPS"),
    ("a,b,c,d", "must be integers"),
    ("1,0,0,x", "must be integers"),
    ("9,0,0,1e-3", "K = 9 is outside 0..2"),
    ("-1,0,0,1e-3", "K = -1 is outside 0..2"),
    ("1,0,7,1e-3", "J = 7 is outside 0..2"),
    ("1,3,0,1e-3", "I = 3 is outside 0..2"),
])
def test_cli_rejects_a_corruption_outside_the_expansion(config_path, tmp_path,
                                                          spec, error):
    code, text = run_cli(["verify", "--config", config_path, "--points", "1",
                          f"--corrupt-coefficient={spec}"], tmp_path, "k.txt")
    assert code == 2, text
    assert "error = ConfigError: --corrupt-coefficient" in text
    assert error in text
    assert "corruption =" not in text


def test_cli_invariants_and_expand(config_path, tmp_path):
    code, text = run_cli(["invariants", "--config", config_path], tmp_path, "i.txt")
    assert code == 0
    assert "check.trace_identity.ok = true" in text
    code, text = run_cli(["expand", "--config", config_path], tmp_path, "e.txt")
    assert code == 0
    assert "branch = NonInteger" in text
    assert "point0.g_coeff1.00" in text


def test_cli_verify_green_and_corruption_red(config_path, tmp_path):
    code, text = run_cli(["verify", "--config", config_path], tmp_path, "v.txt")
    assert code == 0
    assert "ok = false" not in text
    code, text = run_cli(["verify", "--config", config_path,
                          "--corrupt-coefficient", "1,0,0,0.001"],
                         tmp_path, "vc.txt")
    assert code == 1
    assert "check.ambient_order_ij.ok = false" in text
    assert "corruption" in text


def test_cli_catalog_verify(tmp_path):
    code, text = run_cli(["verify", "--catalog", "gover-leitner", "--order", "3"],
                         tmp_path, "gl.txt")
    assert code == 0
    assert "check.catalog_flags.ok = true" in text
    assert "check.solver_matches_closed_form.ok = true" in text


@pytest.mark.parametrize("command", ["invariants", "expand", "obstruction",
                                     "poincare", "verify"])
def test_cli_catalog_equations_checked_once_in_the_sweep(tmp_path, command):
    # construction evaluates nothing, so the sweep recomputes nothing
    code, text = run_cli([command, "--catalog", "quasi-einstein"], tmp_path,
                         "qe.txt")
    if command == "obstruction":
        # d+m = 5: the command fails before the equations are built
        assert code == 2
        assert "error = OrderError: obstruction requires d+m an even" in text
        assert "check.catalog_flags" not in text
    else:
        assert code == 0, text
        assert "check.catalog_flags.ok = true\n" in text
        assert "timings.stats.recomputed = 0\n" in text


def test_cli_error_report_gives_the_dag_counters(tmp_path):
    # past a nonzero obstruction the continuation gate fails in the sweep,
    # and the report counts the DAG the stages before the error built
    path = tmp_path / "even.cfg"
    path.write_text(random_config(51, 1.0, 0.1, 3))
    code, text = run_cli(["expand", "--config", str(path)], tmp_path,
                         "e.txt")
    assert code == 2
    assert "error = OrderError: order 3 requested past the critical" in text
    stats = dict(line[len("timings.stats."):].split(" = ")
                 for line in text.splitlines()
                 if line.startswith("timings.stats."))
    assert sorted(stats) == ["computed", "evaluations", "max_degree", "nodes",
                             "peak_rss_mb", "recomputed", "unread"]
    assert int(stats["nodes"]) > 0 and int(stats["computed"]) > 0
    # no problem, no chart to count
    code, text = run_cli(["verify", "--catalog", "bogus"], tmp_path, "b.txt")
    assert code == 2
    assert ("error = ConfigError: unknown catalog entry 'bogus'; known: flat, "
            "gover-leitner, gover-leitner-flat, quasi-einstein, wlcf\n") in text
    assert "timings.stats.peak_rss_mb = " in text
    assert "timings.stats.nodes" not in text


@pytest.mark.parametrize("command", ["verify", "expand"])
def test_cli_failing_catalog_entry_is_a_failed_check(tmp_path, monkeypatch,
                                                     command):
    # Ric_phi = 2 g on the unit sphere, but F_phi = 0 != -2 f^2 at mu = 0
    from smmsgeom.catalog import quasi_einstein_entry, round_sphere_space
    from smmsgeom import catalog
    monkeypatch.setattr(catalog, "load_entry", lambda name: quasi_einstein_entry(
        round_sphere_space(d=3, m=2.0, mu=0.0), ric_eigenvalue=2.0))
    code, text = run_cli([command, "--catalog", "quasi-einstein", "--points",
                          "1", "--order", "1"], tmp_path, "bad.txt")
    assert code == 1, text
    assert "check.catalog_flags.ok = false\n" in text
    error = next(line for line in text.splitlines()
                 if line.startswith("catalog_flags.error = "))
    assert "the quasi-Einstein equations fail at" in error
    assert "|F_phi + c f^2| = 2.000e+00" in error
    assert "|Ric_phi - c g|" not in error


def test_cli_expand_past_obstruction_structured_error(tmp_path):
    path = tmp_path / "even.cfg"
    path.write_text(CONFIG.replace("m = 0.5", "m = 1.0"))
    code, text = run_cli(["expand", "--config", str(path), "--order", "3"],
                         tmp_path, "pe.txt")
    assert code == 2
    assert "error = OrderError" in text and "obstruction" in text


@pytest.mark.parametrize("command", ["expand", "poincare", "verify"])
def test_cli_failing_gate_is_one_request_of_the_sweep(tmp_path, command):
    # past a nonzero obstruction: the continuation gate's error comes after
    # the scale is reported, and the command recomputes only what input
    # validation computed, as `invariants` does
    path = tmp_path / "even.cfg"
    path.write_text(random_config(51, 1.0, 0.1, 3))
    recomputed = []
    for name in ("invariants", command):
        code, text = run_cli([name, "--config", str(path)], tmp_path,
                             f"{name}.txt")
        recomputed.append(next(line for line in text.splitlines()
                               if line.startswith("timings.stats.recomputed")))
    assert code == 2
    assert ("error = OrderError: order 3 requested past the critical order "
            "2, but the obstruction tensor is nonzero (measured 1.969e-01 > "
            "1.0e-10 x scale 1.000e+00); the expansion stops at order 2\n"
            in text)
    assert "\nscale = 1\n" in text
    assert "ambiguity_note" not in text
    assert recomputed[0] == recomputed[1]


def test_cli_near_integer_dm_uses_snapped_branch(tmp_path):
    # d+m = 3.9999999999 is snapped to 4: the even branch's guarantees and
    # the d+m = 4 obstruction = Bach check must follow the snapped value
    path = tmp_path / "near.cfg"
    path.write_text(CONFIG.replace("m = 0.5", "m = 0.9999999999"))
    code, text = run_cli(["expand", "--config", str(path), "--order", "1"],
                         tmp_path, "ne.txt")
    assert code == 0
    assert "branch = EvenInteger" in text
    assert "order.ij.guaranteed = 0\n" in text
    assert "check.obstruction_equals_bach.ok = true" in text
    code, text = run_cli(["poincare", "--config", str(path), "--order", "1"],
                         tmp_path, "np.txt")
    assert code == 0
    assert "poincare.guaranteed_power = 1\n" in text


CONFIG_D4_M0 = """[chart]
dimension = 4
coordinates = x1 x2 x3 x4
box = -0.3 0.3 ; -0.3 0.3 ; -0.3 0.3 ; -0.3 0.3

[metric]
g11 = 1 + 0.05*sin(x2)
g21 = 0.02*x3
g22 = 1
g33 = 1 + 0.03*x1*x4
g44 = 1

[density]
f = 1

[parameters]
m = 0
mu = 0

[solver]
order = 1

[sampling]
points = 1
seed = 3
"""


def test_cli_expand_m0_dm4_compares_the_obstruction_with_bach(tmp_path):
    # d = 4, m = 0 is the unweighted d+m = 4 case: the obstruction is the
    # classical Bach tensor, which the weighted one reduces to at m = 0;
    # every command that measures the obstruction compares the two
    path = tmp_path / "d4m0.cfg"
    path.write_text(CONFIG_D4_M0)
    code, text = run_cli(["expand", "--config", str(path)], tmp_path,
                         "d4m0.txt")
    assert code == 0, text
    assert "branch = EvenInteger" in text
    assert "check.obstruction_equals_bach.ok = true" in text
    code, text = run_cli(["verify", "--config", str(path)], tmp_path,
                         "d4m0v.txt")
    assert code == 0, text
    assert "check.obstruction_equals_bach.ok = true" in text
    # the obstruction is far above the check's limit of 1e-8, so the
    # agreement is not vacuous
    code, text = run_cli(["obstruction", "--config", str(path)], tmp_path,
                         "d4m0o.txt")
    assert code == 0, text
    assert "check.obstruction_equals_bach.ok = true" in text
    assert max(abs(float(line.split(" = ")[1])) for line in text.splitlines()
               if line.startswith("point0.obstruction.")) > 1e-4


def test_cli_obstruction_computes_each_node_about_once(tmp_path):
    # the identities ask for the highest jets, so they run before the
    # printout; printing first recomputed 2,438 of 5,222 computations
    path = tmp_path / "even.cfg"
    path.write_text(random_config(51, 1.0, 0.1, 2))
    code, text = run_cli(["obstruction", "--config", str(path)], tmp_path,
                         "ob.txt")
    assert code == 0, text
    stats = dict(line[len("timings.stats."):].split(" = ")
                 for line in text.splitlines()
                 if line.startswith("timings.stats."))
    assert int(stats["recomputed"]) <= 600


def test_cli_expand_builds_no_rho_row_while_none_is_guaranteed(tmp_path):
    # d+m = 4 solves through order 1, where no rho-row coefficient is
    # guaranteed: the rho_i and rho_rho blocks could fail no check, and
    # building their generic rows made 6,434 nodes in place of 6,014
    path = tmp_path / "even.cfg"
    path.write_text(random_config(51, 1.0, 0.1, 2))
    code, text = run_cli(["expand", "--config", str(path)], tmp_path, "e.txt")
    assert code == 0, text
    assert "order.t_row.ok = true" in text
    assert "order.rho_" not in text
    stats = dict(line[len("timings.stats."):].split(" = ")
                 for line in text.splitlines()
                 if line.startswith("timings.stats."))
    assert int(stats["nodes"]) <= 6100


def test_cli_poincare_builds_the_residual_through_the_guaranteed_power(
        tmp_path):
    # d+m = 4 solves through order 1, so the r-Laurent residual is
    # guaranteed through r^1; building it through r^3, the truncation of
    # g_r, made 6,877 nodes, 2,953 of them never computed
    path = tmp_path / "even.cfg"
    path.write_text(random_config(51, 1.0, 0.1, 2))
    code, text = run_cli(["poincare", "--config", str(path)], tmp_path,
                         "p.txt")
    assert code == 0, text
    assert "poincare.residual_trunc = 1\n" in text
    assert "poincare.guaranteed_power = 1\n" in text
    stats = dict(line[len("timings.stats."):].split(" = ")
                 for line in text.splitlines()
                 if line.startswith("timings.stats."))
    assert int(stats["nodes"]) <= 5000


@pytest.mark.parametrize("argv,validation", [
    # the 66 computations of input validation: g and f at the one point
    (["--config", "deep.cfg"], 66),
    # a catalog entry's space is not checked at its points
    (["--catalog", "quasi-einstein"], 0),
])
def test_cli_obstruction_at_odd_dm_builds_nothing(tmp_path, monkeypatch,
                                                  argv, validation):
    # d+m = 3.5 and 5: the config alone decides the error, so neither the
    # curvature scale nor a catalog entry's equations are built or swept
    # (1,215 and 4,368 computations before the error was raised)
    (tmp_path / "deep.cfg").write_text(random_config(51, 0.5, 0.1, 4))
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(["obstruction", *argv], tmp_path, "o.txt")
    assert code == 2
    body = [line.split(" = ")[0] for line in text.splitlines()
            if not line.startswith("timings.")]
    assert body == ["schema_version", "command", "config.dimension",
                    "config.label", "config.m", "config.mu", "config.order",
                    "config.points", "config.seed", "error", "tool_version"]
    assert "error = OrderError: obstruction requires d+m an even" in text
    assert f"timings.stats.computed = {validation}\n" in text


def test_cli_wlcf_entry_builds_its_schouten_tensor_only_when_read(tmp_path):
    # d+m = 5, so `obstruction` stops before any request: building the
    # Schouten tensor of the closed form at construction made 260 nodes,
    # all of them unread, against 18 for the space itself
    code, text = run_cli(["obstruction", "--catalog", "wlcf"], tmp_path,
                         "o.txt")
    assert code == 2
    stats = dict(line[len("timings.stats."):].split(" = ")
                 for line in text.splitlines()
                 if line.startswith("timings.stats."))
    assert int(stats["nodes"]) <= 20


def test_cli_obstruction_branch_error(config_path, tmp_path):
    code, text = run_cli(["obstruction", "--config", config_path], tmp_path, "o.txt")
    assert code == 2
    assert "error = OrderError" in text


def test_cli_verify_runs_the_analytic_jets(tmp_path, monkeypatch):
    # configs/analytic.cfg is the one standard input whose jets pass
    # through log, sqrt, sinh, cosh and the reciprocal (a negative power)
    from smmsgeom.jets import Jet
    calls = dict.fromkeys(("log", "sqrt", "sinh", "cosh", "reciprocal"), 0)
    for name in calls:
        def counted(self, name=name, jet=getattr(Jet, name)):
            calls[name] += 1
            return jet(self)
        monkeypatch.setattr(Jet, name, counted)
    path = os.path.join(os.path.dirname(FLAT_CFG), "analytic.cfg")
    bodies = []
    for n in range(2):
        code, text = run_cli(["verify", "--config", path], tmp_path,
                             f"a{n}.txt")
        assert code == 0, text
        checks = [line for line in text.splitlines()
                  if line.startswith("check.") and ".ok = " in line]
        assert len(checks) == 11
        assert all(line.endswith(".ok = true") for line in checks), checks
        bodies.append(text[:text.index("timings.")])
    assert bodies[0] == bodies[1]
    assert all(calls.values()), calls


def test_cli_determinism(config_path, tmp_path):
    code1, t1 = run_cli(["verify", "--config", config_path], tmp_path, "d1.txt")
    code2, t2 = run_cli(["verify", "--config", config_path], tmp_path, "d2.txt")
    strip = lambda t: "\n".join(l for l in t.splitlines()
                                if not l.startswith("timings."))
    assert code1 == code2 == 0
    assert strip(t1) == strip(t2)


def test_cli_internal_error_writes_report(config_path, tmp_path, monkeypatch):
    def broken(prob, args, report):
        raise RuntimeError("deliberate failure")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    out = tmp_path / "ie.txt"
    code = main(["verify", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert out.exists()
    assert ("error = internal: RuntimeError: deliberate failure"
            in out.read_text())


def test_cli_unwritable_out_is_a_typed_error(tmp_path, capsys, monkeypatch):
    # the report goes to stdout with exit 2, as a usage error's does
    out = tmp_path / "missing" / "r.txt"
    code = main(["invariants", "--catalog", "flat", "--points", "1",
                 "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 2
    assert (f"error = ConfigError: cannot write the report to '{out}': "
            f"No such file or directory\n") in text
    assert "check.bianchi_residual.ok = true" in text
    assert not out.exists()
    # an earlier error is kept, with its exit status

    def broken(prob, args, report):
        raise RuntimeError("deliberate failure")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    code = main(["verify", "--catalog", "flat", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 3
    assert "error = internal: RuntimeError: deliberate failure\n" in text


def test_cli_requires_input():
    code = main(["expand"])
    assert code == 2


@pytest.mark.parametrize("argv,old,new,error", [
    (["verify", "--catalog", "bogus"], None, None,
     "ConfigError: unknown catalog entry 'bogus'"),
    (["verify"], "points = 5", "points = -1",
     "ConfigError: points must be at least 1, got -1"),
    (["invariants"], "points = 5", "points = 0",
     "ConfigError: points must be at least 1, got 0"),
    (["verify"], "order = 2", "order = two",
     "ConfigError: [solver] order = 'two' is not an integer"),
    (["verify"], "seed = 7", "seed = 7\n\n[tolerances]\nresidual = small",
     "ConfigError: [tolerances] residual = 'small' is not a number"),
    (["verify", "--points", "0"], None, None,
     "ConfigError: --points must be at least 1, got 0"),
    (["verify", "--order", "0"], None, None,
     "ConfigError: --order must be at least 1, got 0"),
    (["verify", "--points", "-2"], None, None,
     "ConfigError: --points must be at least 1, got -2"),
    (["verify"], "seed = 7", "seed = -7",
     "ConfigError: seed must be at least 0, got -7"),
    (["verify", "--catalog", "flat", "--seed", "-1"], None, None,
     "ConfigError: --seed must be at least 0, got -1"),
    (["invariants", "--tol", "nan"], None, None,
     "ConfigError: --tol must be a finite non-negative number, got nan"),
    (["invariants", "--tol", "inf"], None, None,
     "ConfigError: --tol must be a finite non-negative number, got inf"),
    (["invariants", "--tol", "-0.5"], None, None,
     "ConfigError: --tol must be a finite non-negative number, got -0.5"),
    (["invariants"], "seed = 7", "seed = 7\n\n[tolerances]\nresidual = nan",
     "ConfigError: [tolerances] residual must be a finite non-negative "
     "number, got nan"),
    (["invariants"], "seed = 7", "seed = 7\n\n[tolerances]\nbianchi = -inf",
     "ConfigError: [tolerances] bianchi must be a finite non-negative "
     "number, got -inf"),
    (["invariants"], "seed = 7", "seed = 7\n\n[tolerances]\ncone = -0.5",
     "ConfigError: [tolerances] cone must be a finite non-negative "
     "number, got -0.5"),
    (["invariants"], "seed = 7", "seed = 7\n\n[tolerances]\nresidul = 1e-30",
     "ConfigError: unknown tolerance [tolerances] residul; known: residual, "
     "bianchi, identities, poincare, cone"),
    (["verify"], "m = 0.5", "m = nan",
     "ConfigError: [parameters] m must be a finite number, got nan"),
    (["verify"], "m = 0.5", "m = inf",
     "ConfigError: [parameters] m must be a finite number, got inf"),
    (["verify"], "mu = 0.2", "mu = -inf",
     "ConfigError: [parameters] mu must be a finite number, got -inf"),
    # a repeated name would silently mean its last axis, and a function
    # name cannot be read as a coordinate in an expression
    (["verify"], "x1 x2 x3", "x1 x2 x2",
     "ConfigError: [chart] coordinate 'x2' is named twice"),
    (["verify"], "x1 x2 x3", "x1 sin x3",
     "ConfigError: [chart] coordinate 'sin' is a function name"),
    # a key or section outside the schema would be silently ignored
    (["verify"], "g22 = 1", "g22 = 1\ng12 = 0.3",
     "ConfigError: [metric] g12 is not in the lower triangle; write it as "
     "g21"),
    (["verify"], "g22 = 1", "g22 = 1\ngxx = 7",
     "ConfigError: [metric] gxx is not a key of [metric]; known: g11, g21, "
     "g22, g31, g32, g33"),
    (["verify"], "order = 2", "oder = 5",
     "ConfigError: [solver] oder is not a key of [solver]; known: order"),
    (["verify"], "seed = 7", "seed = 7\n\n[extra]\nx = 1",
     "ConfigError: [extra] is not a section of the configuration; known: "
     "chart, metric, density, parameters, solver, sampling, tolerances"),
    # a file that is not INI text names the file (<path>) and the fault
    (["verify"], "[chart]", "dimension = 3\n[chart]",
     "ConfigError: File contains no section headers. file: '<path>', "
     "line: 2 'dimension = 3\\n'\n"),
    (["verify"], "seed = 7", "seed = 7\n\n[chart]\ndimension = 3",
     "ConfigError: While reading from '<path>' [line 27]: section 'chart' "
     "already exists\n"),
    (["verify"], "g22 = 1", "g22 = 1\ng22 = 2",
     "ConfigError: While reading from '<path>' [line 11]: option 'g22' in "
     "section 'metric' already exists\n"),
    # a byte that is not UTF-8, written through surrogateescape
    (["verify"], "f = 1 + 0.05*x1", "f = 1 + 0.05*x1\udcff",
     "ConfigError: configuration file '<path>' is not UTF-8 text: 'utf-8' "
     "codec can't decode byte 0xff in position 187: invalid start byte\n"),
])
def test_cli_rejects_bad_names_and_counts(tmp_path, argv, old, new, error):
    # every case is a typed input error (exit 2), never an internal error
    # or a silent fallback to a default
    path = tmp_path / "problem.cfg"
    if argv[1:2] != ["--catalog"]:
        text = CONFIG.replace(old, new) if old else CONFIG
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = argv[:1] + ["--config", str(path)] + argv[1:]
    code, text = run_cli(argv, tmp_path, "bad.txt")
    assert code == 2
    assert f"error = {error}".replace("<path>", str(path)) in text


@pytest.mark.parametrize("argv,old,new,error", [
    (["expand", "--points", str(10 ** 20)], None, None,
     f"--points must be at most 1000, got {10 ** 20}"),
    (["expand"], "points = 5", f"points = {10 ** 20}",
     f"points must be at most 1000, got {10 ** 20}"),
    (["verify", "--catalog", "flat", "--points", "1001"], None, None,
     "--points must be at most 1000, got 1001"),
])
def test_cli_rejects_a_point_count_before_drawing(tmp_path, monkeypatch, argv,
                                                  old, new, error):
    # every point is drawn up front and swept with a flag per DAG node, so
    # a huge count must be refused before the first point is drawn
    from smmsgeom import fields, invariants
    drawn = []

    def sample_points(chart, count, seed):
        drawn.append(count)
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(fields, "sample_points", sample_points)
    monkeypatch.setattr(invariants, "sample_points", sample_points)
    if "--catalog" not in argv:
        path = tmp_path / "problem.cfg"
        path.write_text(CONFIG.replace(old, new) if old else CONFIG)
        argv = argv[:1] + ["--config", str(path)] + argv[1:]
    code, text = run_cli(argv, tmp_path, "many.txt")
    assert (code, drawn) == (2, [])
    assert f"\nerror = ConfigError: {error}\n" in text


@pytest.mark.parametrize("argv,old,new,error", [
    (["expand", "--order", str(10 ** 6)], None, None,
     f"--order must be at most 8, got {10 ** 6}"),
    (["expand"], "order = 2", f"order = {10 ** 6}",
     f"order must be at most 8, got {10 ** 6}"),
])
def test_cli_rejects_an_order_before_solving(tmp_path, monkeypatch, argv, old,
                                             new, error):
    # time and memory grow steeply with the order (21 s and 131 MB for
    # an order-10 `verify` of a dense d = 3 space), so a huge order must
    # be refused before the solver starts
    from smmsgeom import expansion

    def expand(space, order):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(expansion, "expand", expand)
    path = tmp_path / "problem.cfg"
    path.write_text(CONFIG.replace(old, new) if old else CONFIG)
    argv = argv[:1] + ["--config", str(path)] + argv[1:]
    code, text = run_cli(argv, tmp_path, "deep.txt")
    assert code == 2
    assert f"\nerror = ConfigError: {error}\n" in text


def test_config_order_bound_is_inclusive(tmp_path):
    path = tmp_path / "problem.cfg"
    path.write_text(CONFIG.replace("order = 2", "order = 8"))
    assert load_config(str(path)).order == 8
    path.write_text(CONFIG.replace("order = 2", "order = 9"))
    with pytest.raises(ConfigError, match="order must be at most 8"):
        load_config(str(path))


def test_config_point_count_bound_is_inclusive(tmp_path):
    path = tmp_path / "problem.cfg"
    path.write_text(CONFIG.replace("points = 5", "points = 1000"))
    assert load_config(str(path)).points == 1000
    path.write_text(CONFIG.replace("points = 5", "points = 1001"))
    with pytest.raises(ConfigError, match="points must be at most 1000"):
        load_config(str(path))


# the typed errors, each with the built-in base it keeps
TYPED_ERRORS = [(ConfigError, ValueError), (ValidationError, ValueError),
                (EntryRejected, ValueError), (OrderError, ValueError),
                (ConsistencyError, ArithmeticError),
                (JetDivisionError, ZeroDivisionError)]


@pytest.mark.parametrize("error,base", TYPED_ERRORS, ids=lambda v: v.__name__)
def test_cli_typed_errors_exit_2_through_one_base(tmp_path, monkeypatch,
                                                  error, base):
    assert issubclass(error, InputError) and issubclass(error, base)

    def command(prob, args, report):
        raise error("deliberate")

    monkeypatch.setitem(cli._COMMANDS, "verify", command)
    code, text = run_cli(["verify", "--catalog", "flat"], tmp_path, "t.txt")
    assert code == 2
    assert f"\nerror = {error.__name__}: deliberate\n" in text


@pytest.mark.parametrize("value,status", [(1.0, 1), (0.0, 0)],
                         ids=["failing", "passing"])
def test_cli_exit_status_comes_from_the_report(tmp_path, monkeypatch, value,
                                               status):
    # a command returns nothing: main reads the checks it recorded
    def command(prob, args, report):
        report.put_check("passing", 0.0, 1.0)
        report.put_check("deliberate", value, 0.5)

    monkeypatch.setitem(cli._COMMANDS, "verify", command)
    code, text = run_cli(["verify", "--catalog", "flat", "--points", "1"],
                         tmp_path, "s.txt")
    assert code == status
    assert f"\ncheck.deliberate.ok = {str(not status).lower()}\n" in text


@pytest.mark.parametrize("old,new,error", [
    ("g11 = 1\n", "g11 = -1\n",
     "ValidationError: metric not positive definite at ("),
    ("g22 = 1", "g22 = 1 + * x2", "ConfigError: metric entry g22 = "),
], ids=["not-positive-definite", "malformed-expression"])
@pytest.mark.parametrize("command", ["invariants", "verify"])
def test_cli_echoes_the_settings_before_validating_them(tmp_path, command,
                                                        old, new, error):
    # an error that the parsing or validation of the space raises still
    # reports what the run was asked to do
    with open(FLAT_CFG) as fh:
        text = fh.read()
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new))
    code, report = run_cli([command, "--config", str(path), "--points", "3"],
                           tmp_path, "e.txt")
    body = dict(line.split(" = ", 1) for line in report.splitlines()
                if not line.startswith("timings."))
    assert code == 2
    assert list(body) == ["schema_version", "command"] + [
        f"config.{key}" for key in ("dimension", "label", "m", "mu", "order",
                                    "points", "seed")] + ["error",
                                                          "tool_version"]
    assert (body["config.label"], body["config.dimension"],
            body["config.m"], body["config.points"]) == (str(path), "3", "1",
                                                         "3")
    assert body["error"].startswith(error), body["error"]


# the built-in bases of the typed errors are not typed themselves
@pytest.mark.parametrize("error", [ValueError, ArithmeticError,
                                   ZeroDivisionError, KeyError, RuntimeError],
                         ids=lambda v: v.__name__)
def test_cli_untyped_error_is_internal(tmp_path, monkeypatch, error):
    def command(prob, args, report):
        raise error("deliberate")

    monkeypatch.setitem(cli._COMMANDS, "verify", command)
    code, text = run_cli(["verify", "--catalog", "flat"], tmp_path, "t.txt")
    assert code == 3
    message = str(error("deliberate"))
    assert f"\nerror = internal: {error.__name__}: {message}\n" in text


def test_cli_verify_reports_stage_timings(tmp_path):
    code, text = run_cli(["verify", "--catalog", "quasi-einstein", "--order",
                          "1", "--points", "1"], tmp_path, "st.txt")
    assert code == 0
    timings = dict(line.split(" = ") for line in text.splitlines()
                   if line.startswith("timings."))
    for stage in ("setup", "expand", "order_report", "bianchi", "poincare",
                  "cone", "closed_form", "evaluate"):
        assert float(timings.pop(f"timings.stage.{stage}")) >= 0.0
    assert int(timings.pop("timings.stats.nodes")) > 0
    assert int(timings.pop("timings.stats.unread")) >= 0
    assert int(timings.pop("timings.stats.evaluations")) > 0
    for count in ("computed", "recomputed"):
        value = timings.pop(f"timings.stats.{count}")
        assert value.isdigit(), (count, value)
    # order 1 asks for jets up to degree 2N + 2 = 4
    assert int(timings.pop("timings.stats.max_degree")) == 4
    assert float(timings.pop("timings.stats.peak_rss_mb")) > 0.0
    assert set(timings) == {"timings.total_seconds"}


def test_cli_every_evaluation_runs_inside_a_timed_stage(tmp_path,
                                                       monkeypatch):
    # so that timings.stage.* accounts for the work of each command
    from contextlib import contextmanager
    from smmsgeom import fields
    open_stages = []
    stage, sweep = Report.stage, fields._sweep

    @contextmanager
    def marked(self, name):
        open_stages.append(name)
        try:
            with stage(self, name):
                yield
        finally:
            open_stages.pop()

    def checked(*args):
        assert open_stages, "a field was evaluated outside every stage"
        return sweep(*args)

    path = tmp_path / "even.cfg"
    path.write_text(random_config(51, 1.0, 0.1, 2))
    monkeypatch.setattr(Report, "stage", marked)
    monkeypatch.setattr(fields, "_sweep", checked)
    runs = [[command, "--config", str(path)] for command in
            ("invariants", "expand", "obstruction", "poincare", "verify")]
    runs.append(["verify", "--catalog", "quasi-einstein", "--order", "1",
                 "--points", "1"])
    for argv in runs:
        code, text = run_cli(argv, tmp_path, "stages.txt")
        assert code == 0, text


# random_entry(d=4, m=0.5, mu=0.1, seed=21): its generic ambient Ricci
# entries are sum chains about 460 nodes deep
CONFIG_D4 = """[chart]
dimension = 4
coordinates = x1 x2 x3 x4
box = -0.5 0.5 ; -0.5 0.5 ; -0.5 0.5 ; -0.5 0.5

[metric]
g11 = 1+0.05*(0.419602*x4*x2+0.961621*x1*x2+0.916533*x2)
g21 = 0+0.05*(0.344119*cos(1*x3)+0.70772*sin(1*x4)+-0.630457*x3*x4)
g31 = 0+0.05*(-0.117211*x4*x2+-0.999471*x3+0.522537*cos(1*x2))
g41 = 0+0.05*(-0.617943*cos(1*x3)+0.447558*x4+-0.232021*x2*x3)
g22 = 1+0.05*(0.282976*cos(1*x1)+-0.614732*x2*x1+0.160519*sin(2*x4))
g32 = 0+0.05*(-0.47363*cos(2*x2)+0.291368*sin(1*x3)+-0.846524*sin(2*x4))
g42 = 0+0.05*(0.839392*x3*x3+-0.807594*x1+0.129291*x2*x3)
g33 = 1+0.05*(-0.650372*x3+0.503003*x2+-0.641031*x3*x2)
g43 = 0+0.05*(0.519841*x2*x3+-0.757995*x4*x2+-0.72961*cos(1*x4))
g44 = 1+0.05*(0.654213*cos(1*x3)+0.201214*x3*x2+-0.941186*x4)

[density]
f = 1+0.05*(-0.408998*cos(1*x4)+0.5456*x4+-0.446849*x3)

[parameters]
m = 0.5
mu = 0.1

[solver]
order = 1

[sampling]
points = 1
seed = 21
"""


def test_cli_verify_d4_runs(tmp_path):
    path = tmp_path / "d4.cfg"
    path.write_text(CONFIG_D4)
    code, text = run_cli(["verify", "--config", str(path), "--order", "1",
                          "--points", "1"], tmp_path, "d4.txt")
    assert code == 0, text
    assert not any(line.startswith("error") for line in text.splitlines())
    assert "config.dimension = 4" in text


def test_cli_report_independent_of_hash_seed(tmp_path):
    # interned fields live in dicts; no iteration order may reach a report
    src = os.path.dirname(os.path.dirname(os.path.abspath(smmsgeom.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    bodies = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "smmsgeom.cli", "verify", "--catalog", "wlcf",
             "--order", "2", "--points", "1"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        bodies.append(proc.stdout.split("\ntimings.")[0])
    assert "check.cone_identity_ricci.ok = true" in bodies[0]
    assert bodies[0] == bodies[1]
