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
a command ran (`timings.stage.*`: setup, invariants, catalog_flags,
expand, identities, coefficients, order_report, bianchi, poincare, cone,
closed_form; every field evaluation runs inside one of them), and
for the problem chart its interned DAG nodes, those of them computed
at no sampled point, its `fields.evaluate` calls, its node
computations, those of them that replaced a memo entry, and the
highest jet degree its memos hold (`timings.stats.nodes`, `.unread`,
`.evaluations`, `.computed`, `.recomputed`, `.max_degree`); every
report, an error report too, gives the peak resident set size of the
process in MB (`timings.stats.peak_rss_mb`, from `getrusage`).  The
exit status is 0 when every check passed, 1 when a check failed, 2 on
a typed input or solver error (a usage error, an unwritable `--out`, a
missing or malformed input, an order or point count below 1, an
unknown catalog entry or tolerance name, a tolerance that is not
finite and non-negative, a `--corrupt-coefficient` that does not name
a solved coefficient, or a `JetDivisionError`: an input whose jets
meet a division, `log` or `sqrt` outside its domain) and 3 on any
other exception (`error = internal: ...`).
`verify --corrupt-coefficient K,I,J,EPS` is a test hook that perturbs
one solved coefficient (0 <= K <= order, 0 <= I, J < d) to demonstrate
check sensitivity.

`verify` runs the stage with the highest jet demand first, so that the
later ones read the memo: the cone check, the Poincaré residual, then
`order_report` and the rest; `poincare` also runs the cone check first,
`expand` runs the obstruction identities before it prints the
coefficients, and `obstruction` runs them before it prints the
obstruction.  A command stops at its first error, so a run that would
hit two reports the earlier stage's: an error of the cone stage comes
before one of the Poincaré residual or of `order_report`.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time

import numpy as np

from . import __version__
from . import curvature as cv
from . import invariants as inv
from .ambient import AmbientMetric, order_report
from .catalog import EntryRejected, load_entry, standard_catalog
from .config import (MINIMUMS, TOLERANCES, ConfigError, Report,
                     check_tolerance, load_config)
from .expansion import (ConsistencyError, OrderError, classify_branch,
                        expand, obstruction)
from .fields import SymTensor2Field, evaluate, evaluate_named, max_abs
from .invariants import ValidationError, curvature_scale
from .jets import JetDivisionError
from .poincare import cone_identity_check, poincare_residual, to_poincare

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
        sp.add_argument("--catalog", help="named catalog entry "
                        f"({', '.join(sorted(standard_catalog()))})")
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
    """Resolved inputs: a space, solver order, samples, tolerances."""

    def __init__(self, args):
        self.catalog_entry = None
        if args.config and args.catalog:
            raise ConfigError("give either --config or --catalog, not both")
        for flag, least in MINIMUMS.items():
            value = getattr(args, flag)
            if value is not None and value < least:
                raise ConfigError(f"--{flag} must be at least {least}, "
                                  f"got {value}")
        if args.tol is not None:
            check_tolerance("--tol", args.tol)
        if args.config:
            cfg = load_config(args.config)
            # overrides first, so that the space is checked at the run's points
            for flag in MINIMUMS:
                if getattr(args, flag) is not None:
                    setattr(cfg, flag, getattr(args, flag))
            self.space = cfg.space()
            self.order, self.points_n = cfg.order, cfg.points
            self.seed = cfg.seed
            self.tolerances = dict(cfg.tolerances)
            self.label = args.config
        elif args.catalog:
            known = standard_catalog()
            if args.catalog not in known:
                raise ConfigError(f"unknown catalog entry {args.catalog!r}; "
                                  f"known: {', '.join(sorted(known))}")
            self.catalog_entry = load_entry(args.catalog)
            self.space = self.catalog_entry.space
            self.order = 3 if args.order is None else args.order
            self.points_n = 10 if args.points is None else args.points
            self.seed = 0 if args.seed is None else args.seed
            self.tolerances = {}
            self.label = f"catalog:{args.catalog}"
        else:
            raise ConfigError("one of --config or --catalog is required")
        if args.tol is not None:
            self.tolerances["residual"] = args.tol
        self.points = self.space.sample(self.points_n, self.seed)
        self.scale = curvature_scale(self.space, self.points)

    def tol(self, name):
        return float(self.tolerances.get(name, TOLERANCES[name]))


def _start(args, report):
    """Resolve the problem, timed as the setup stage, and echo it."""
    with report.stage("setup"):
        prob = _Problem(args)
    _echo(report, prob)
    return prob


def _finish(prob, report) -> int:
    """Record the DAG size and evaluation counters; return the exit status."""
    chart = prob.space.chart
    report.put_timing("stats.nodes", chart.node_count)
    report.put_timing("stats.unread", chart.unread)
    report.put_timing("stats.evaluations", chart.evaluations)
    report.put_timing("stats.computed", chart.computed)
    report.put_timing("stats.recomputed", chart.recomputed)
    report.put_timing("stats.max_degree", chart.max_degree)
    return 0 if report.ok else 1


def _echo(report, prob):
    report.put("config.label", prob.label)
    report.put("config.dimension", prob.space.dim)
    report.put("config.m", float(prob.space.m))
    report.put("config.mu", float(prob.space.mu))
    report.put("config.order", prob.order)
    report.put("config.points", prob.points_n)
    report.put("config.seed", prob.seed)
    report.put("scale", prob.scale)


def _put_tensor(report, key, values):
    arr = np.asarray(values)
    for idx in np.ndindex(arr.shape):
        suffix = "".join(str(i) for i in idx)
        report.put(f"{key}.{suffix}" if suffix else key, float(arr[idx]))


def cmd_invariants(args, report) -> int:
    prob = _start(args, report)
    s = prob.space
    d = s.dim
    geo = s.geometry
    with report.stage("invariants"):
        P, J, Y = inv.schouten(s)
        shown = {"ricci_phi": inv.weighted_ricci(s), "scalar": geo.scal,
                 "scalar_phi": geo.scal_phi, "f_phi": geo.F_phi,
                 "schouten": P, "schouten_scalar": J, "y_phi": Y,
                 "bach": inv.weighted_bach(s) if s.m > 0 else None}
        v = _put_points(
            report, prob.points, shown, g=s.g.entries(), f=[s.f],
            weyl_norm=inv.independent_components(geo.weyl),
            cotton_norm=inv.independent_components(geo.cotton))
    trace_resid = []
    for n, p in enumerate(prob.points):
        _put_tensor(report, f"point{n}.coords", list(p))
        for name in ("weyl_norm", "cotton_norm"):
            report.put(f"point{n}.{name}", max_abs(v[name][n]))
        # the trace identity tr_g Ric_phi - (m/f^2) F_phi = R_phi
        tr = float(np.trace(np.linalg.inv(v["g"][n].reshape(d, d))
                            @ v["ricci_phi"][n].reshape(d, d)))
        want = tr - float(s.m) / v["f"][n, 0] ** 2 * v["f_phi"][n, 0]
        trace_resid.append(v["scalar_phi"][n, 0] - want)
    _bianchi_check(prob, report)
    report.put_check("trace_identity", max_abs(trace_resid),
                     prob.tol("residual") * prob.scale)
    return _finish(prob, report)


def _bianchi_check(prob, report):
    """The contracted weighted Bianchi identity at the sample points."""
    with report.stage("bianchi"):
        worst = max_abs(evaluate(prob.space.geometry.bianchi, prob.points))
    report.put_check("bianchi_residual", worst,
                     prob.tol("bianchi") * prob.scale)


def _expansion_for(prob, report):
    with report.stage("expand"):
        return expand(prob.space, prob.order, check_points=prob.points)


def _order_report(prob, e, report):
    with report.stage("order_report"):
        return order_report(AmbientMetric(e), prob.tol("residual"),
                            points=prob.points)


def cmd_expand(args, report) -> int:
    prob = _start(args, report)
    e = _expansion_for(prob, report)
    report.put("branch", e.plan.branch.value)
    for n, note in enumerate(e.ambiguity_notes):
        report.put(f"ambiguity_note.{n}", note)
    for n, note in enumerate(e.plan.warnings):
        report.put(f"warning.{n}", note)
    # the identities first: they ask for higher jets of the coefficients
    # than the printout, which then reads the memo
    if e.obstruction is not None:
        report.put("obstruction.constant", e.obstruction.c)
        _obstruction_identities(prob, e.obstruction, report)
    with report.stage("coefficients"):
        _put_points(report, prob.points[:3], {
            f"{kind}_coeff{k}": coeffs[k] for k in range(e.order + 1)
            for kind, coeffs in (("g", e.g_coeffs), ("f", e.f_coeffs))})
    rep = _order_report(prob, e, report)
    for name, block in rep.blocks.items():
        report.put(f"order.{name}.guaranteed", block.guaranteed)
        fv = block.first_violation
        report.put(f"order.{name}.first_violation", -1 if fv is None else fv)
        report.put(f"order.{name}.ok", block.ok)
        if not block.ok:
            report.failures.append(f"order.{name}")
    return _finish(prob, report)


def _put_points(report, points, fields, **groups):
    """Report each named scalar or symmetric tensor field (None: skipped)
    at each point as `point<n>.<name>`.  The fields and the extra `groups`
    of roots are evaluated in one batch; returns every value by name."""
    fields = {name: f for name, f in fields.items() if f is not None}
    v = evaluate_named(points, **groups, **{
        name: f.entries() if isinstance(f, SymTensor2Field) else [f]
        for name, f in fields.items()})
    for n in range(len(points)):
        for name, f in fields.items():
            _put_tensor(report, f"point{n}.{name}", v[name][n].reshape(
                (f.chart.dim,) * 2 if isinstance(f, SymTensor2Field) else ()))
    return v


def _obstruction_identities(prob, obs, report):
    """The trace and divergence identities of the obstruction tensor and,
    at d+m = 4 (n_c = 2), its agreement with the weighted Bach tensor."""
    with report.stage("identities"):
        s = prob.space
        d = s.dim
        geo = s.geometry
        bach = (inv.weighted_bach(s).entries()
                if classify_branch(d, s.m).n_c == 2 else [])
        dphi = geo.dphi
        div_O = cv.weighted_divergence(obs.tensor.as_matrix(), geo.ginv, dphi,
                                       geo.gamma, geo.derivs, geo.zero)
        v = evaluate_named(prob.points, g=s.g.entries(), f=[s.f],
                           O=obs.tensor.entries(), scalar=[obs.scalar_part],
                           dphi=dphi, div_O=div_O, bach=bach)
        tr_resid, div_resid = [], []
        for n in range(len(prob.points)):
            fv, sp = v["f"][n, 0], v["scalar"][n, 0]
            tr = float(np.trace(np.linalg.inv(v["g"][n].reshape(d, d))
                                @ v["O"][n].reshape(d, d)))
            tr_resid.append(tr - float(s.m) / fv ** 2 * sp)
            div_resid += [v["div_O"][n, l] - sp / fv ** 2 * v["dphi"][n, l]
                          for l in range(d)]
        tol = prob.tol("identities") * prob.scale
        report.put_check("obstruction_trace_identity", max_abs(tr_resid), tol)
        report.put_check("obstruction_divergence_identity", max_abs(div_resid),
                         tol)
        if bach:
            report.put_check("obstruction_equals_bach",
                             max_abs(v["O"] - v["bach"]), tol)


def cmd_obstruction(args, report) -> int:
    prob = _start(args, report)
    with report.stage("expand"):
        obs = obstruction(prob.space, check_points=prob.points)
    report.put("obstruction.constant", obs.c)
    # the identities first: they ask for higher jets than the printout
    _obstruction_identities(prob, obs, report)
    with report.stage("coefficients"):
        _put_points(report, prob.points[:3],
                    {"obstruction": obs.tensor, "f_script": obs.scalar_part})
    return _finish(prob, report)


def _poincare_checks(prob, e, report, cone_points):
    """When m > 0, the cone identities at `cone_points`, then the
    weighted-Einstein residual in r through the guaranteed power, its
    last.  Returns (max_even_order, residual_trunc, sides_magnitude); the
    last is None when m = 0.  The cone check's lifted fields need the
    highest jet degrees of the coefficient fields, hence it runs first."""
    with report.stage("poincare"):
        pc = to_poincare(e)
    side = None
    if prob.space.m > 0:
        with report.stage("cone"):
            wr, wF, side = cone_identity_check(pc, points=cone_points)
        cone_tol = prob.tol("cone") * max(prob.scale, side)
        report.put_check("cone_identity_ricci", wr, cone_tol)
        report.put_check("cone_identity_f", wF, cone_tol)
    with report.stage("poincare"):
        res = poincare_residual(pc)
        worst = res.block_max(range(-2, res.trunc + 1), prob.points)
    report.put_check("poincare_residual", worst,
                     prob.tol("poincare") * prob.scale)
    return pc.max_even_order, res.trunc, side


def cmd_poincare(args, report) -> int:
    prob = _start(args, report)
    e = _expansion_for(prob, report)
    max_even, trunc, side = _poincare_checks(prob, e, report, prob.points[:4])
    report.put("poincare.max_even_order", max_even)
    report.put("poincare.residual_trunc", trunc)
    report.put("poincare.guaranteed_power", trunc)
    if side is not None:
        report.put("cone.sides_magnitude", side)
    return _finish(prob, report)


def cmd_verify(args, report) -> int:
    prob = _start(args, report)
    corrupt = (_corruption(args.corrupt_coefficient, prob.order, prob.space.dim)
               if args.corrupt_coefficient else None)
    entry = prob.catalog_entry
    if entry is not None:
        try:
            with report.stage("catalog_flags"):
                entry.verify(prob.points[:6])
            report.put_check("catalog_flags", 0.0, 1.0)
        except EntryRejected as exc:
            report.put("catalog_flags.error", str(exc))
            report.put_check("catalog_flags", 1.0, 0.5)
    e = _expansion_for(prob, report)
    if corrupt:
        k, i, j, eps = corrupt
        bad = dict(e.g_coeffs[k].comps)
        key = (min(i, j), max(i, j))
        bad[key] = bad[key] + prob.space.chart.constant(eps)
        e.g_coeffs[k] = SymTensor2Field(prob.space.chart, bad)
        report.put("corruption", f"g_coeff{k}[{i}{j}] += {eps}")

    # the highest jet demand first, so that later stages read the memo
    _poincare_checks(prob, e, report, prob.points[:3])

    rep = _order_report(prob, e, report)
    for name, block in rep.blocks.items():
        report.put_check(f"ambient_order_{name}", block.worst, block.tol_abs)

    _bianchi_check(prob, report)

    if e.obstruction is not None:
        _obstruction_identities(prob, e.obstruction, report)

    if entry is not None and entry.closed_form is not None:
        with report.stage("closed_form"):
            worst = _closed_form_agreement(prob, e, entry)
        report.put_check("solver_matches_closed_form", worst,
                         prob.tol("residual") * prob.scale)
    return _finish(prob, report)


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


def _closed_form_agreement(prob, e, entry) -> float:
    upto = e.plan.guarantees(e.order).solved
    g_want, f_want = entry.closed_form(upto)
    roots = [c for g, f in ((e.g_coeffs, e.f_coeffs), (g_want, f_want))
             for k in range(upto + 1) for c in g[k].entries() + [f[k]]]
    got, want = np.split(evaluate(roots, prob.points), 2)
    return max_abs(got - want)


_COMMANDS = {
    "invariants": cmd_invariants,
    "expand": cmd_expand,
    "obstruction": cmd_obstruction,
    "poincare": cmd_poincare,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    """Run one command, write its report and return the exit status.

    The cyclic collector is paused for the call and then restored to the
    caller's state.  The expression DAG a command builds lives until the
    command ends, so collections during it would only traverse the DAG
    again and again and find next to nothing to free.  The DAG is a cycle
    (nodes refer to their chart, whose intern table refers to them), so
    an in-process caller gets it back at its next collection.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        report = Report(__version__)
        started = time.perf_counter()
        args = None
        code = 0
        try:
            args = _parser().parse_args(argv)
            report.put("command", args.command)
            code = _COMMANDS[args.command](args, report)
        except (ConfigError, ValidationError, EntryRejected, OrderError,
                ConsistencyError, JetDivisionError) as exc:
            report.put("error", f"{type(exc).__name__}: {exc}")
            code = 2
        except Exception as exc:
            report.put("error", f"internal: {type(exc).__name__}: {exc}")
            code = 3
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
        if report.failures and code == 0:
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
