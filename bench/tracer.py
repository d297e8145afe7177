"""Traced in-process run of one `smmsgeom` CLI command.

    python3 bench/tracer.py SPANS_JSON -- COMMAND [CLI ARGS...]

Installs timing wrappers around the public functions of each smmsgeom
module (the package itself is not changed), runs `smmsgeom.cli.main(argv)`
in this process, and writes the aggregated spans to SPANS_JSON.  The
report goes to stdout and the exit status is the CLI's, exactly as for
`python3 -m smmsgeom.cli`.

Spans are aggregated in memory as (span, parent stage) -> calls,
inclusive seconds and self seconds; per-call records would run into
millions.  Spans of the kernel layers (jets, fields, series) are keyed by
the innermost enclosing stage span (every other traced function), so the
evaluation time that lazy fields defer shows up under the stage that
first pulled values.  A target that no longer exists is listed as absent.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from collections import defaultdict
from functools import lru_cache
from time import perf_counter

KERNEL_LAYERS = ("jets", "fields", "series")

# span name -> [(module, attribute path), ...]
TARGETS = {
    "jets.mul": [("jets", "Jet.__mul__"), ("jets", "Jet.__rmul__")],
    "jets.div": [("jets", "Jet.__truediv__"), ("jets", "Jet.__rtruediv__"),
                 ("jets", "Jet.reciprocal")],
    "jets.add": [("jets", "Jet.__add__"), ("jets", "Jet.__radd__"),
                 ("jets", "Jet.__sub__"), ("jets", "Jet.__rsub__")],
    "jets.partial": [("jets", "Jet.partial")],
    "jets.truncated": [("jets", "Jet.truncated")],
    "jets.compose": [("jets", "Jet.compose")],
    "fields.jet": [("fields", "ScalarField.jet")],
    "series.mul": [("series", "Series.__mul__"), ("series", "Series.__rmul__")],
    "series.div": [("series", "Series.__truediv__"),
                   ("series", "Series.__rtruediv__")],
    "series.deriv": [("series", "Series.deriv")],
    "ambient.order_report": [("ambient", "order_report")],
    "ambient.ricci_closed": [("ambient", "AmbientMetric.ricci_closed")],
    "ambient.ricci_generic": [("ambient", "AmbientMetric.ricci_generic")],
    "poincare.to_poincare": [("poincare", "to_poincare")],
    "poincare.residual_build": [("poincare", "poincare_residual")],
    "poincare.residual_eval": [("poincare", "PoincareResidual.block_max"),
                               ("poincare", "PoincareResidual.scalar_max")],
    "poincare.cone": [("poincare", "cone_identity_check")],
    "expansion.expand": [("expansion", "expand")],
    "expansion.solve_order_step": [("expansion", "solve_order_step")],
    "invariants.curvature_scale": [("invariants", "curvature_scale")],
    "invariants.weighted_invariants": [("invariants", "weighted_invariants")],
    "invariants.weighted_bach": [("invariants", "weighted_bach")],
    "invariants.bianchi_residual": [("invariants", "bianchi_residual")],
    "catalog.load_entry": [("catalog", "load_entry")],
    "catalog.entry_verify": [("catalog", "CatalogEntry.verify")],
    "config.load_config": [("config", "load_config")],
    "expressions.parse": [("expressions", "parse_expression")],
    "cli.command": [("cli", "main")],
}
# The curvature module's public functions as of the benchmark's definition;
# listing them (rather than reading __all__) reports a later removal.
CURVATURE_FUNCTIONS = (
    "matrix_inverse", "christoffel", "ricci", "riemann_lowered",
    "scalar_curvature", "gradient", "hessian", "laplacian", "grad_norm_sq",
    "bakry_emery_ricci", "f_curvature", "weighted_scalar", "schouten_tensor",
    "kulkarni_nomizu", "weighted_weyl", "weighted_cotton", "cov_deriv_sym2",
    "weighted_divergence_sym2", "weighted_divergence_rank3", "weighted_bach",
    "bianchi_residual", "phi_gradient", "phi_hessian",
    "weighted_ricci_coordinate_formula")
for _name in CURVATURE_FUNCTIONS:
    TARGETS[f"curvature.{_name}"] = [("curvature", _name)]

# Counted only (no span): every ScalarField construction is one DAG node.
NODE_COUNTER = ("fields", "ScalarField.__init__")


@lru_cache(maxsize=None)
def coeff_count(nvars, degree):
    return math.comb(nvars + degree, degree)


@lru_cache(maxsize=None)
def product_table_size(nvars, degree):
    """Multiply-adds of one dense truncated product: C(2n + D, D)."""
    return math.comb(2 * nvars + degree, degree)


def _jet_shape(x):
    nvars, degree = getattr(x, "nvars", None), getattr(x, "degree", None)
    if isinstance(nvars, int) and isinstance(degree, int):
        return nvars, degree
    return None


class Tracer:
    """In-memory span aggregation for one process."""

    def __init__(self):
        self.stack = []          # open spans: [start, seconds in children]
        self.stages = ["root"]   # open stage span names
        self.active = defaultdict(int)
        self.spans = {}          # (name, stage) -> [calls, incl_s, self_s]
        self.counters = defaultdict(int)
        self.absent = []

    def span(self, name, fn, on_call=None, count_nested=False):
        """Wrap fn in a span.

        A call made while a span of the same name is open (say `a - b`
        calling `a + (-b)`) is folded into the outer span, unless
        count_nested is set: then every call is its own span and only
        its self time is meaningful.
        """
        stack, stages, active, spans = (self.stack, self.stages, self.active,
                                        self.spans)
        is_stage = name.split(".", 1)[0] not in KERNEL_LAYERS

        def wrapper(*args, **kwargs):
            if active[name] and not count_nested:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            active[name] += 1
            if is_stage:
                stages.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                active[name] -= 1
                if is_stage:
                    stages.pop()
                if stack:
                    stack[-1][1] += dur
                key = (name, stages[-1])
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _on_call(self, name, attr):
        counters = self.counters
        if name == "jets.mul":
            def on_call(args):
                shape = _jet_shape(args[0])
                if shape is not None:
                    counters["jets.mul.coeffs"] += coeff_count(*shape)
                    if _jet_shape(args[1]) is not None:
                        counters["jets.mul.madds"] += product_table_size(*shape)
            return on_call
        if name == "jets.div":
            # a / b divides by b; b.__rtruediv__(x) and b.reciprocal()
            # divide by b itself.
            operand = 1 if attr == "Jet.__truediv__" else 0

            def on_call(args):
                shape = _jet_shape(args[operand])
                if shape is not None:
                    counters["jets.div.madds"] += product_table_size(*shape)
            return on_call
        if name == "fields.jet":
            active = self.active

            def on_call(args):
                if not active["fields.jet"]:
                    counters["fields.jet.top_calls"] += 1
            return on_call
        return None

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        modules = {}
        for mod in ("jets", "fields", "series", "curvature", "invariants",
                    "expansion", "ambient", "poincare", "catalog",
                    "expressions", "config", "cli"):
            try:
                modules[mod] = importlib.import_module(f"smmsgeom.{mod}")
            except ImportError:
                pass
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "smmsgeom"
                                         or n.startswith("smmsgeom."))]
        for name, targets in TARGETS.items():
            for mod, path in targets:
                owner, attr, fn = _resolve(modules.get(mod), path)
                if fn is None:
                    self.absent.append(f"{mod}.{path}")
                    continue
                wrapper = self.span(name, fn, self._on_call(name, path),
                                    count_nested=(name == "fields.jet"))
                _replace(owner, attr, fn, wrapper, package)
        mod, path = NODE_COUNTER
        owner, attr, fn = _resolve(modules.get(mod), path)
        if fn is None:
            self.absent.append(f"{mod}.{path}")
        else:
            _replace(owner, attr, fn, self.counting("fields.nodes", fn), package)

    def dump(self):
        return {"spans": [[name, stage, *rec]
                          for (name, stage), rec in sorted(self.spans.items())],
                "counters": dict(self.counters),
                "absent": self.absent}


def _resolve(module, path):
    """(owner, attribute, function) for "Class.method" or "function"."""
    if module is None:
        return None, None, None
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    attr = parts[-1]
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None)
    return owner, attr, fn if callable(fn) else None


def _replace(owner, attr, fn, wrapper, package):
    """Install wrapper on owner and wherever a package module imported fn."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for module in package:
        for key, value in list(vars(module).items()):
            if value is fn:
                setattr(module, key, wrapper)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    # Each wrapped call adds one frame, and `ScalarField.jet` recurses through
    # the field DAG at two frames per node, so tracing needs up to 3/2 of the
    # untraced depth.  Doubling the limit keeps every run that fits untraced
    # within it traced; one that overflows untraced fails the gate there.
    sys.setrecursionlimit(2 * sys.getrecursionlimit())
    tracer = Tracer()
    tracer.install()
    from smmsgeom import cli
    try:
        code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
