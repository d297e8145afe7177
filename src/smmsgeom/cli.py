"""Command-line front end.

Subcommands::

    smmsgeom invariants  --config problem.cfg [--out report.txt]
    smmsgeom expand      --config problem.cfg [--order N]
    smmsgeom obstruction --config problem.cfg
    smmsgeom poincare    --config problem.cfg [--order N]
    smmsgeom verify      --config problem.cfg | --catalog NAME

Common flags: --config PATH, --catalog NAME, --order N, --points K,
--seed S, --tol X, --out PATH.  Reports are deterministic key-value
text (identical inputs give byte-identical output apart from the
trailing timings block) and are written in every case; a usage error
(an unknown command or option, an option without its value) is
reported as `error = ConfigError: ...` on stdout only, since no
`--out` has been read.  So is an `--out` that cannot be written, unless
the report already holds an error, which it then keeps with its exit
status.  `--help` prints the usage and exits 0.  `--tol` sets the
`residual` tolerance, which also bounds `verify`'s agreement with a
catalog closed form.  The timings block gives the seconds of each stage
a command ran (`timings.stage.*`: setup, invariants, expand,
identities, coefficients, order_report, bianchi, poincare, cone,
closed_form, evaluate; every field evaluation runs inside one of them),
and for the problem chart its interned DAG nodes, those of them
computed at no sampled point, its `fields.run` calls, its node
computations, those of them at a (node, point) that an earlier call of
the command had already computed, and the highest jet degree computed
(`timings.stats.nodes`, `.unread`, `.evaluations`, `.computed`,
`.recomputed`, `.max_degree`), in an error report too once the problem
was resolved; every report gives the peak resident set size of the
process in MB (`timings.stats.peak_rss_mb`, from `getrusage`).  Every
report whose settings were read (a config file with the flags applied,
or a catalog entry) echoes them as `config.*`, an error report too,
even one whose error the parsing or validation of the space raised.
`main` alone resolves and echoes the problem, writes the counters (in
its common exit path, whenever the problem was resolved) and sets the
exit status; a command only builds requests and returns nothing.  The
exit status is 0 when every check passed, 1 when a check failed, 2 on
a typed input or solver error, an `errors.InputError` (a usage error,
an unwritable `--out`, a missing or malformed input, an order or point
count below 1, an order above 8 or a point count above 1000, an
unknown catalog entry or tolerance name, a tolerance that is not
finite and non-negative, a `--corrupt-coefficient` that does not name
a solved coefficient, or a `JetDivisionError`: an input whose jets
meet a division, `log` or `sqrt` outside its domain) and 3 on any
other exception (`error = internal: ...`).
`verify --corrupt-coefficient K,I,J,EPS` is a test hook that perturbs
one solved coefficient (0 <= K <= order, 0 <= I, J < d) to demonstrate
check sensitivity.

Each stage builds the fields it checks or prints and hands them on as
a `fields.Request`; the command then evaluates every request, the
curvature scale's first, a catalog entry's defining equations
(`check.catalog_flags`) and the solver's gates next, in one
`fields.run` call, timed as `timings.stage.evaluate`, and reports from
the results.  So a command builds, then seals, then sweeps once: right
before that call it seals every chart that owns a root of a request
(`Chart.seal()` drops the intern tables), and a build on one of them
after that raises; the reductions and the reports only read values.
Only input validation (the sample points of a config) evaluates before
it.  A command stops at its first error: an error of the sweep is that
of its first failing point (in the order of the sample points), a
failing gate's comes before any stage's results, and
a stage that fails while the requests are built still has the requests
before it swept and reported, unless the sweep fails too, whose error
then comes first.  `obstruction` at a d+m that is not an even integer
fails before anything is built: its report has the config echo, the
error and the counters of input validation.

A command imports a stage module in the helper that builds with it,
so it loads only what it runs: `expansion` (with `series`) for the
solver, `ambient` for `order_report`, `poincare` for the Poincare
checks and `catalog` for `--catalog`.  `invariants --config` loads
none of them.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time

from . import __version__
from . import curvature as cv
from . import invariants as inv
from .config import (MINIMUMS, TOLERANCES, ConfigError, Report, check_setting,
                     check_tolerance, load_config)
from .errors import InputError
from . import fields
from .fields import Request, SymTensor2Field, max_abs, max_abs_difference
from .invariants import curvature_scale

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are `ConfigError`s, so that
    they end in a report like every other input error."""

    def error(self, message):
        raise ConfigError(message)


def _parser():
    p = _Parser(
        prog="smmsgeom",
        description="weighted curvature invariants and ambient expansions "
                    "of smooth metric measure spaces")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("invariants", "evaluate the weighted invariants at sample points"),
            ("expand", "run the order-by-order deformation solver"),
            ("obstruction", "compute the obstruction tensor (even d+m)"),
            ("poincare", "conformally compact form and its residuals"),
            ("verify", "run the full residual suite; nonzero exit on failure")]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="problem configuration file")
        sp.add_argument("--catalog", help="named catalog entry")
        sp.add_argument("--order", type=int, help="deformation order override")
        sp.add_argument("--points", type=int, help="sample point count override")
        sp.add_argument("--seed", type=int, help="sampling seed override")
        sp.add_argument("--tol", type=float, help="residual tolerance override")
        sp.add_argument("--out", help="write the report to this path")
        if name == "verify":
            sp.add_argument("--corrupt-coefficient", metavar="K,I,J,EPS",
                            help="test hook: perturb coefficient K at (I,J)")
    return p


class _Problem:
    """Resolved inputs: a space, solver order, samples, tolerances.

    The settings are echoed to `report` as `config.*` once they are read,
    before a config's expressions are parsed and its space is validated,
    so that an error there still reports what the run was asked to do."""

    def __init__(self, args, report):
        self.catalog_entry = space = None
        if args.config and args.catalog:
            raise ConfigError("give either --config or --catalog, not both")
        given = {key: getattr(args, key) for key in MINIMUMS
                 if getattr(args, key) is not None}
        for key, value in given.items():
            check_setting(f"--{key}", value)
        if args.tol is not None:
            check_tolerance("--tol", args.tol)
        if args.config:
            cfg = load_config(args.config)
            # overrides first, so that the space is checked at the run's points
            for key, value in given.items():
                setattr(cfg, key, value)
            dim, m, mu = cfg.dimension, cfg.m, cfg.mu
            self.order, self.points_n = cfg.order, cfg.points
            self.seed = cfg.seed
            self.tolerances = dict(cfg.tolerances)
            self.label = args.config
        elif args.catalog:
            from .catalog import load_entry, standard_catalog
            known = standard_catalog()
            if args.catalog not in known:
                raise ConfigError(f"unknown catalog entry {args.catalog!r}; "
                                  f"known: {', '.join(sorted(known))}")
            self.catalog_entry = load_entry(args.catalog)
            space = self.catalog_entry.space
            dim, m, mu = space.dim, space.m, space.mu
            self.order = given.get("order", 3)
            self.points_n = given.get("points", 10)
            self.seed = given.get("seed", 0)
            self.tolerances = {}
            self.label = f"catalog:{args.catalog}"
        else:
            raise ConfigError("one of --config or --catalog is required")
        for key, value in (("label", self.label), ("dimension", dim),
                           ("m", float(m)), ("mu", float(mu)),
                           ("order", self.order), ("points", self.points_n),
                           ("seed", self.seed)):
            report.put(f"config.{key}", value)
        self.space = cfg.space() if space is None else space
        if args.tol is not None:
            self.tolerances["residual"] = args.tol
        self.points = self.space.sample(self.points_n, self.seed)
        self.scale = None  # the curvature scale, once swept

    def tol(self, name):
        return float(self.tolerances.get(name, TOLERANCES[name]))


class _Checks:
    """The requests of one command and what to do with their results.

    `add(request, finish)` collects a request; leaving the `with` block
    seals the charts of their roots and sweeps them all in one
    `fields.run`, timed as the evaluate stage, then hands each request's
    result (`Request.finish`) to its `finish`, in order.  The curvature
    scale comes first (its finish sets `prob.scale`), a catalog entry's
    defining equations next, both built in the setup stage, then the
    solver's gates, whose failing reduction raises before any stage's
    finish.  The block is swept when an error leaves it too, so the
    report keeps what the stages before the error measured; an error of
    the sweep or a reduction replaces that error.
    """

    def __init__(self, prob, report):
        self.prob = prob
        self.report = report
        with report.stage("setup"):
            self.pending = [(curvature_scale(prob.space, prob.points),
                             self._scale)]
            if prob.catalog_entry is not None:
                # at six points of the run's seed: the first six of
                # `points` when it has six or more
                self.pending.append((prob.catalog_entry.verify(
                    prob.space.sample(6, prob.seed)), self._entry))

    def _scale(self, scale):
        self.prob.scale = scale
        self.report.put("scale", scale)

    def _entry(self, rejected):
        if rejected is None:
            self.report.put_check("catalog_flags", 0.0, 1.0)
        else:
            self.report.put("catalog_flags.error", str(rejected))
            self.report.put_check("catalog_flags", 1.0, 0.5)

    def add(self, request, finish):
        self.pending.append((request, finish))

    def __enter__(self):
        return self

    def __exit__(self, *error):
        requests = [request for request, _ in self.pending]
        # every field is built by now: free the intern tables first
        for chart in {r.chart for q in requests for r in q.roots
                      if isinstance(r, fields.ScalarField)}:
            chart.seal()
        with self.report.stage("evaluate"):
            values = fields.run(requests)
        for (request, finish), v in zip(self.pending, values):
            finish(request.finish(v))
        return False


def _put_counters(chart, report):
    """Record the DAG size and evaluation counters of the problem chart."""
    report.put_timing("stats.nodes", chart.node_count)
    report.put_timing("stats.unread", chart.unread)
    report.put_timing("stats.evaluations", chart.evaluations)
    report.put_timing("stats.computed", chart.computed)
    report.put_timing("stats.recomputed", chart.recomputed)
    report.put_timing("stats.max_degree", chart.max_degree)


def _put_tensor(report, key, values, d=None):
    """Report `values`, a point's row of one field's values, entry by
    entry as `key.<i>`, or as the d x d matrix `key.<i><j>` of a
    row-major row of d*d values."""
    for n, x in enumerate(values):
        report.put(f"{key}.{n}" if d is None else f"{key}.{n // d}{n % d}", x)


def cmd_invariants(prob, args, report):
    s = prob.space
    geo = s.geometry

    def trace_identity(v):
        trace_resid = []
        for n, p in enumerate(prob.points):
            _put_tensor(report, f"point{n}.coords", p)
            for name in ("weyl_norm", "cotton_norm"):
                report.put(f"point{n}.{name}", max_abs(v[name][n]))
            # the trace identity tr_g Ric_phi - (m/f^2) F_phi = R_phi
            tr = inv.metric_trace(v["g"][n], v["ricci_phi"][n])
            want = tr - float(s.m) / v["f"][n][0] ** 2 * v["f_phi"][n][0]
            trace_resid.append(v["scalar_phi"][n][0] - want)
        report.put_check("trace_identity", max_abs(trace_resid),
                         prob.tol("residual") * prob.scale)

    with _Checks(prob, report) as checks:
        with report.stage("invariants"):
            P, J, Y = inv.schouten(s)
            shown = {"ricci_phi": inv.weighted_ricci(s), "scalar": geo.scal,
                     "scalar_phi": geo.scal_phi, "f_phi": geo.F_phi,
                     "schouten": P, "schouten_scalar": J, "y_phi": Y,
                     "bach": inv.weighted_bach(s) if s.m > 0 else None}
            _put_points(
                checks, report, prob.points, shown, trace_identity,
                g=s.g.entries(), f=[s.f],
                weyl_norm=inv.independent_components(geo.weyl),
                cotton_norm=inv.independent_components(geo.cotton))
        _bianchi_check(prob, report, checks)


def _bianchi_check(prob, report, checks):
    """The contracted weighted Bianchi identity at the sample points."""
    with report.stage("bianchi"):
        request = Request(prob.points, lambda v: max_abs(v["bianchi"]),
                          bianchi=prob.space.geometry.bianchi)
    checks.add(request, lambda worst: report.put_check(
        "bianchi_residual", worst, prob.tol("bianchi") * prob.scale))


def _expansion_for(prob, report, checks, finish=lambda measured: None):
    """The expansion of the problem, adding the request of its gates."""
    from .expansion import expand, gate_request
    with report.stage("expand"):
        e = expand(prob.space, prob.order)
        checks.add(gate_request(e, prob.points), finish)
    return e


def _order_report(prob, e, report, checks, finish):
    """Add the `order_report` request, whose report `finish` receives."""
    from .ambient import AmbientMetric, order_report
    with report.stage("order_report"):
        request = order_report(AmbientMetric(e), prob.tol("residual"),
                               points=prob.points)
    checks.add(request, finish)


def cmd_expand(prob, args, report):
    def put_orders(blocks):
        for name, block in blocks.items():
            report.put(f"order.{name}.guaranteed", block.guaranteed)
            fv = block.first_violation
            report.put(f"order.{name}.first_violation",
                       -1 if fv is None else fv)
            report.put(f"order.{name}.ok", block.ok)
            if not block.ok:
                report.failures.append(f"order.{name}")

    def put_notes(measured):
        for n, note in enumerate(e.ambiguity_notes):
            report.put(f"ambiguity_note.{n}", note.format(**measured))

    with _Checks(prob, report) as checks:
        e = _expansion_for(prob, report, checks, put_notes)
        report.put("branch", e.plan.branch.value)
        for n, note in enumerate(e.plan.warnings):
            report.put(f"warning.{n}", note)
        if e.obstruction is not None:
            report.put("obstruction.constant", e.obstruction.c)
            _obstruction_identities(prob, e.obstruction, report, checks)
        with report.stage("coefficients"):
            _put_points(checks, report, prob.points[:3], {
                f"{kind}_coeff{k}": coeffs[k] for k in range(e.order + 1)
                for kind, coeffs in (("g", e.g_coeffs), ("f", e.f_coeffs))})
        _order_report(prob, e, report, checks, put_orders)


def _put_points(checks, report, points, fields, then=None, **groups):
    """Add the request that reports each named scalar or symmetric tensor
    field (None: skipped) at each point as `point<n>.<name>`.  The fields
    and the extra `groups` of roots are one request; `then`, if given,
    receives every value by name after the report."""
    fields = {name: f for name, f in fields.items() if f is not None}

    def put(v):
        for n in range(len(points)):
            for name, f in fields.items():
                key = f"point{n}.{name}"
                if isinstance(f, SymTensor2Field):
                    _put_tensor(report, key, v[name][n], f.chart.dim)
                else:
                    report.put(key, v[name][n][0])
        if then is not None:
            then(v)

    checks.add(Request(points, **groups, **{
        name: f.entries() if isinstance(f, SymTensor2Field) else [f]
        for name, f in fields.items()}), put)


def _obstruction_identities(prob, obs, report, checks):
    """The trace and divergence identities of the obstruction tensor and,
    at d+m = 4 (n_c = 2), its agreement with the weighted Bach tensor."""
    from .expansion import classify_branch
    with report.stage("identities"):
        s = prob.space
        d = s.dim
        geo = s.geometry
        bach = (inv.weighted_bach(s).entries()
                if classify_branch(d, s.m).n_c == 2 else [])
        dphi = geo.dphi
        div_O = cv.weighted_divergence(obs.tensor.as_matrix(), geo.ginv, dphi,
                                       geo.gamma, geo.derivs, geo.zero)
        request = Request(
            prob.points, g=s.g.entries(), f=[s.f], O=obs.tensor.entries(),
            scalar=[obs.scalar_part], dphi=dphi, div_O=div_O, bach=bach)
    m, points, compare = float(s.m), prob.points, bool(bach)

    def put(v):
        tr_resid, div_resid = [], []
        for n in range(len(points)):
            (fv,), (sp,) = v["f"][n], v["scalar"][n]
            tr = inv.metric_trace(v["g"][n], v["O"][n])
            tr_resid.append(tr - m / fv ** 2 * sp)
            div_resid += [v["div_O"][n][l] - sp / fv ** 2 * v["dphi"][n][l]
                          for l in range(d)]
        tol = prob.tol("identities") * prob.scale
        report.put_check("obstruction_trace_identity", max_abs(tr_resid), tol)
        report.put_check("obstruction_divergence_identity", max_abs(div_resid),
                         tol)
        if compare:
            report.put_check("obstruction_equals_bach",
                             max_abs_difference(v["O"], v["bach"]), tol)

    checks.add(request, put)


def cmd_obstruction(prob, args, report):
    from .expansion import critical_order, obstruction
    critical_order(prob.space)  # d+m alone decides, so nothing is built
    with _Checks(prob, report) as checks:
        with report.stage("expand"):
            obs = obstruction(prob.space)
        report.put("obstruction.constant", obs.c)
        _obstruction_identities(prob, obs, report, checks)
        with report.stage("coefficients"):
            _put_points(checks, report, prob.points[:3],
                        {"obstruction": obs.tensor,
                         "f_script": obs.scalar_part})


def _poincare_checks(prob, e, report, checks, cone_points, sides=False):
    """Add, when m > 0, the cone identities at `cone_points` (and, with
    `sides`, report their sides' magnitude), then the weighted-Einstein
    residual in r through the guaranteed power, its last.  Returns
    (max_even_order, residual_trunc)."""
    from .poincare import cone_identity_check, poincare_residual, to_poincare
    with report.stage("poincare"):
        pc = to_poincare(e)
    if prob.space.m > 0:
        with report.stage("cone"):
            cone = cone_identity_check(pc, points=cone_points)

        def put_cone(result):
            wr, wF, side = result
            cone_tol = prob.tol("cone") * max(prob.scale, side)
            report.put_check("cone_identity_ricci", wr, cone_tol)
            report.put_check("cone_identity_f", wF, cone_tol)
            if sides:
                report.put("cone.sides_magnitude", side)

        checks.add(cone, put_cone)
    with report.stage("poincare"):
        res = poincare_residual(pc)
        worst = res.block_max(range(-2, res.trunc + 1), prob.points)
    checks.add(worst, lambda w: report.put_check(
        "poincare_residual", w, prob.tol("poincare") * prob.scale))
    return pc.max_even_order, res.trunc


def cmd_poincare(prob, args, report):
    with _Checks(prob, report) as checks:
        e = _expansion_for(prob, report, checks)
        max_even, trunc = _poincare_checks(prob, e, report, checks,
                                           prob.points[:4], sides=True)
        report.put("poincare.max_even_order", max_even)
        report.put("poincare.residual_trunc", trunc)
        report.put("poincare.guaranteed_power", trunc)


def cmd_verify(prob, args, report):
    entry = prob.catalog_entry

    def put_orders(blocks):
        for name, block in blocks.items():
            report.put_check(f"ambient_order_{name}", block.worst,
                             block.tol_abs)

    with _Checks(prob, report) as checks:
        corrupt = (_corruption(args.corrupt_coefficient, prob.order,
                               prob.space.dim)
                   if args.corrupt_coefficient else None)
        e = _expansion_for(prob, report, checks)
        if corrupt:
            k, i, j, eps = corrupt
            bad = dict(e.g_coeffs[k].comps)
            key = (min(i, j), max(i, j))
            bad[key] = bad[key] + prob.space.chart.constant(eps)
            e.g_coeffs[k] = SymTensor2Field(prob.space.chart, bad)
            report.put("corruption", f"g_coeff{k}[{i}{j}] += {eps}")
        _poincare_checks(prob, e, report, checks, prob.points[:3])
        _order_report(prob, e, report, checks, put_orders)
        _bianchi_check(prob, report, checks)
        if e.obstruction is not None:
            _obstruction_identities(prob, e.obstruction, report, checks)
        if entry is not None and entry.closed_form is not None:
            with report.stage("closed_form"):
                agreement = _closed_form_agreement(prob, e, entry)
            checks.add(agreement, lambda worst: report.put_check(
                "solver_matches_closed_form", worst,
                prob.tol("residual") * prob.scale))


def _corruption(text, order, dim):
    """(K, I, J, EPS) of `--corrupt-coefficient K,I,J,EPS`: K a solved
    order 0..order, I and J chart indices 0..dim-1, EPS any float."""
    fields = text.split(",")
    if len(fields) != 4:
        raise ConfigError(f"--corrupt-coefficient takes K,I,J,EPS, got {text!r}")
    try:
        k, i, j = (int(x) for x in fields[:3])
        eps = float(fields[3])
    except ValueError:
        raise ConfigError(f"--corrupt-coefficient {text!r}: K, I and J must "
                          f"be integers and EPS a number") from None
    for name, value, top in (("K", k, order), ("I", i, dim - 1),
                             ("J", j, dim - 1)):
        if not 0 <= value <= top:
            raise ConfigError(f"--corrupt-coefficient {name} = {value} is "
                              f"outside 0..{top}")
    return k, i, j, eps


def _closed_form_agreement(prob, e, entry) -> Request:
    """The request for max |solved - closed-form coefficient|."""
    upto = e.plan.guarantees(e.order).solved
    g_want, f_want = entry.closed_form(upto)
    got, want = ([c for k in range(upto + 1) for c in g[k].entries() + [f[k]]]
                 for g, f in ((e.g_coeffs, e.f_coeffs), (g_want, f_want)))
    return Request(prob.points,
                   lambda v: max_abs_difference(v["got"], v["want"]),
                   got=got, want=want)


_COMMANDS = {
    "invariants": cmd_invariants,
    "expand": cmd_expand,
    "obstruction": cmd_obstruction,
    "poincare": cmd_poincare,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    """Run one command, write its report and return the exit status.

    Resolves the problem, timed as the setup stage (`_Problem` echoes its
    settings), hands it to the command, then records the problem chart's
    DAG counters, whatever the command did, once the problem was
    resolved.  The status is 2 or 3 when an error ended the command, else
    1 when the report holds a failed check and 0 when it holds none.

    The cyclic collector is paused for the call and then restored to the
    caller's state.  The expression DAG a command builds lives until the
    command ends, so collections during it would only traverse the DAG
    again and again and find next to nothing to free.  The DAG is a cycle
    (nodes refer to their chart, whose node list and intern tables refer
    to them), so an in-process caller gets it back at its next
    collection.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        report = Report(__version__)
        started = time.perf_counter()
        args = prob = None
        code = 0
        try:
            args = _parser().parse_args(argv)
            report.put("command", args.command)
            with report.stage("setup"):
                prob = _Problem(args, report)
            _COMMANDS[args.command](prob, args, report)
        except InputError as exc:
            report.put("error", f"{type(exc).__name__}: {exc}")
            code = 2
        except Exception as exc:
            report.put("error", f"internal: {type(exc).__name__}: {exc}")
            code = 3
        if prob is not None:
            _put_counters(prob.space.chart, report)
        # ru_maxrss is in KiB on Linux
        report.put_timing("stats.peak_rss_mb", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        report.put_timing("total_seconds", time.perf_counter() - started)
        try:
            text = report.write(None if args is None else args.out)
        except OSError as exc:
            if "error" not in report.entries:
                report.put("error", f"ConfigError: cannot write the report "
                                    f"to {args.out!r}: {exc.strerror}")
                code = 2
            text = report.render()
        sys.stdout.write(text)
        if code == 0 and not report.ok:
            code = 1
        return code
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """Process entry of the `smmsgeom` script and `python -m smmsgeom.cli`.

    After `main` returns, every object left, the dead DAG included, is
    moved to the collector's permanent generation, so interpreter
    shutdown does not collect and free it object by object; atexit
    handlers and stream flushes still run.  The collector is off from
    the start, so no collection over the DAG runs between the two.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
