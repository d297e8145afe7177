"""Problem configuration files and deterministic report output.

Configurations are INI files (configparser, UTF-8) with sections::

    [chart]
    dimension = 3
    coordinates = x1 x2 x3  # distinct, and none a function name (sin, ...)
    box = -0.5 0.5 ; -0.5 0.5 ; -0.5 0.5

    [metric]            # lower-triangle entries g21, g31, g32 default to 0
    g11 = 1
    g22 = 1 + 0.05*sin(x1)
    g33 = 1

    [density]
    f = 1

    [parameters]        # finite numbers
    m = 1.0
    mu = 0.0

    [solver]
    order = 2           # at most 8 (config.MAXIMUMS)

    [sampling]
    points = 10         # at most 1000 (config.MAXIMUMS)
    seed = 7

    [tolerances]        # optional overrides, finite and non-negative
    residual = 1e-9     # also bianchi, identities, poincare, cone

A section or key outside this schema is a ConfigError that names it, an
upper-triangle metric entry such as g12 too (write it as g21).  `--tol`
overrides `residual`, which also bounds the agreement with a catalog
closed form.

Reports are flat "key = value" text: schema_version first, then sorted
keys, with floats at 17 significant digits so doubles round-trip; the
timings block comes last so byte comparison modulo timings is a prefix
comparison.
"""

from __future__ import annotations

import configparser
import math
import time
from contextlib import contextmanager

from .errors import InputError
from .expressions import parse_expression
from .fields import FUNCTIONS, Chart, SymTensor2Field
from .invariants import MetricMeasureSpace

__all__ = ["ProblemConfig", "ConfigError", "Report", "load_config",
           "check_setting", "check_tolerance", "format_value",
           "REPORT_SCHEMA_VERSION", "TOLERANCES", "MINIMUMS", "MAXIMUMS"]

REPORT_SCHEMA_VERSION = "1"

# the relative tolerances of the checks, by the name a [tolerances] section
# (or, for `residual`, `--tol`) sets them with, and their defaults
TOLERANCES = {"residual": 1e-9, "bianchi": 1e-8, "identities": 1e-8,
              "poincare": 1e-8, "cone": 1e-9}


# the least value of each integer setting, in a config file or a flag
MINIMUMS = {"order": 1, "points": 1, "seed": 0}
# the largest value of a bounded integer setting: every point is drawn up
# front and swept with a flag per DAG node, and the time and memory of a
# solve grow steeply with its order (a `verify` of a dense d = 3 space
# at one point: about 3.5 s and 58 MB at order 8, 21 s and 131 MB at 10)
MAXIMUMS = {"order": 8, "points": 1000}

# the keys of each section; [metric] takes the lower triangle g<i><j>,
# i >= j, of the chart's dimension
_SECTIONS = {"chart": ("dimension", "coordinates", "box"), "metric": (),
             "density": ("f",), "parameters": ("m", "mu"),
             "solver": ("order",), "sampling": ("points", "seed"),
             "tolerances": tuple(TOLERANCES)}


class ConfigError(InputError, ValueError):
    """The configuration file does not define a valid problem."""


class ProblemConfig:
    def __init__(self, dimension: int, coordinates: tuple, box: tuple,
                 metric_exprs: dict, f_expr: str, m: float, mu: float,
                 order: int, points: int, seed: int, tolerances: dict):
        self.dimension = dimension
        self.coordinates = coordinates
        self.box = box
        self.metric_exprs = metric_exprs
        self.f_expr = f_expr
        self.m = m
        self.mu = mu
        self.order = order
        self.points = points
        self.seed = seed
        self.tolerances = tolerances

    def space(self) -> MetricMeasureSpace:
        chart = Chart(self.coordinates, box=self.box)
        comps = {}
        for (i, j), expr in self.metric_exprs.items():
            try:
                comps[(i, j)] = parse_expression(expr, chart)
            except Exception as exc:
                raise ConfigError(f"metric entry g{i+1}{j+1} = {expr!r}: {exc}")
        try:
            f = parse_expression(self.f_expr, chart)
        except Exception as exc:
            raise ConfigError(f"density f = {self.f_expr!r}: {exc}")
        g = SymTensor2Field(chart, comps)
        space = MetricMeasureSpace(chart, g, f, self.m, self.mu)
        space.check_at(space.sample(self.points, self.seed))
        return space


def _parse_box(text: str, dim: int):
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != dim:
        raise ConfigError(f"box needs {dim} intervals separated by ';', "
                          f"got {len(parts)}")
    box = []
    for part in parts:
        vals = part.split()
        if len(vals) != 2:
            raise ConfigError(f"box interval {part!r} must be two numbers")
        lo, hi = float(vals[0]), float(vals[1])
        if not lo < hi:
            raise ConfigError(f"box interval {part!r} is empty")
        if not math.isfinite(hi - lo):
            raise ConfigError(f"box interval {part!r} is not finite, or "
                              f"its width overflows")
        box.append((lo, hi))
    return tuple(box)


def _number(cp, section, key, kind, fallback):
    """The option as `kind` (int or float), `fallback` when it is absent."""
    text = cp.get(section, key, fallback=None)
    if text is None:
        return fallback
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key} = {text!r} is not {noun}") from None


def _check_keys(cp, dim: int):
    """A ConfigError naming the first section or key outside the schema."""
    for section in cp.sections() + [cp.default_section] * bool(cp.defaults()):
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}] is not a section of the "
                              f"configuration; known: {', '.join(_SECTIONS)}")
        known = ([f"g{i+1}{j+1}" for i in range(dim) for j in range(i + 1)]
                 if section == "metric" else _SECTIONS[section])
        for key in cp.options(section):
            if key in known:
                continue
            if section == "tolerances":
                raise ConfigError(f"unknown tolerance [tolerances] {key}; "
                                  f"known: {', '.join(known)}")
            swapped = "g" + key[2:0:-1]  # g12 -> g21
            if section == "metric" and swapped in known:
                raise ConfigError(f"[metric] {key} is not in the lower "
                                  f"triangle; write it as {swapped}")
            raise ConfigError(f"[{section}] {key} is not a key of "
                              f"[{section}]; known: {', '.join(known)}")


def check_tolerance(name: str, value: float) -> float:
    """`value` if it is a finite non-negative number, else a ConfigError."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"{name} must be a finite non-negative number, "
                          f"got {value!r}")
    return value


def check_setting(name: str, value: int) -> None:
    """A ConfigError if `value` lies outside the MINIMUMS or MAXIMUMS bound
    of the integer setting `name` (`order`, `points` or `seed`, or its
    flag `--order`, ...), naming the setting as `name` does."""
    key = name.lstrip("-")
    if value < MINIMUMS[key]:
        raise ConfigError(f"{name} must be at least {MINIMUMS[key]}, "
                          f"got {value}")
    if key in MAXIMUMS and value > MAXIMUMS[key]:
        raise ConfigError(f"{name} must be at most {MAXIMUMS[key]}, "
                          f"got {value}")


def load_config(path: str) -> ProblemConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        # a line outside every section or not `key = value`, or a section
        # or key given twice; the message names the file, on several lines
        raise ConfigError(" ".join(str(exc).split())) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration file {path!r} is not UTF-8 "
                          f"text: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read configuration file {path!r}")
    try:
        dim = cp.getint("chart", "dimension")
        names = tuple(cp.get("chart", "coordinates").split())
        box = _parse_box(cp.get("chart", "box"), dim)
        f_expr = cp.get("density", "f")
        m = cp.getfloat("parameters", "m")
        mu = cp.getfloat("parameters", "mu")
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(str(exc))
    _check_keys(cp, dim)
    if len(names) != dim:
        raise ConfigError(f"{dim} coordinates expected, got {len(names)}")
    for n, name in enumerate(names):
        if name in names[:n]:
            raise ConfigError(f"[chart] coordinate {name!r} is named twice")
        if name in FUNCTIONS:
            raise ConfigError(f"[chart] coordinate {name!r} is a function "
                              f"name")
    for key, value in (("m", m), ("mu", mu)):
        if not math.isfinite(value):
            raise ConfigError(f"[parameters] {key} must be a finite number, "
                              f"got {value!r}")
    metric = {}
    for i in range(dim):
        for j in range(i + 1):
            key = f"g{i+1}{j+1}"
            if cp.has_option("metric", key):
                metric[(j, i)] = cp.get("metric", key)
            elif i == j:
                raise ConfigError(f"metric entry {key} is required")
    order = _number(cp, "solver", "order", int, 2)
    points = _number(cp, "sampling", "points", int, 10)
    seed = _number(cp, "sampling", "seed", int, 0)
    for key, value in (("order", order), ("points", points), ("seed", seed)):
        check_setting(key, value)
    tolerances = {}
    if cp.has_section("tolerances"):
        for key in cp.options("tolerances"):
            tolerances[key] = check_tolerance(
                f"[tolerances] {key}", _number(cp, "tolerances", key, float, None))
    return ProblemConfig(dim, names, box, metric, f_expr, m, mu, order,
                         points, seed, tolerances)


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


class Report:
    """Ordered key-value report with a deterministic serialization."""

    def __init__(self, tool_version: str):
        self.entries = {"schema_version": REPORT_SCHEMA_VERSION,
                        "tool_version": tool_version}
        self.timings = {}
        self.failures = []

    def put(self, key: str, value):
        self.entries[key] = value

    def put_check(self, key: str, value: float, limit: float):
        """Record a residual check; failures flip the exit status."""
        ok = bool(abs(float(value)) <= float(limit))
        self.entries[f"check.{key}.value"] = float(value)
        self.entries[f"check.{key}.limit"] = float(limit)
        self.entries[f"check.{key}.ok"] = ok
        if not ok:
            self.failures.append(key)
        return ok

    def put_timing(self, key: str, seconds: float):
        self.timings[key] = seconds

    @contextmanager
    def stage(self, name: str):
        """Add the seconds the enclosed block takes to `stage.<name>`."""
        started = time.perf_counter()
        try:
            yield
        finally:
            key = f"stage.{name}"
            self.timings[key] = (self.timings.get(key, 0.0)
                                 + time.perf_counter() - started)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"schema_version = {self.entries['schema_version']}"]
        for key in sorted(k for k in self.entries if k != "schema_version"):
            lines.append(f"{key} = {format_value(self.entries[key])}")
        for key in sorted(self.timings):
            lines.append(f"timings.{key} = {format_value(self.timings[key])}")
        return "\n".join(lines) + "\n"

    def write(self, path: str | None):
        text = self.render()
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        return text
