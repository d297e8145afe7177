"""The collector pause in `cli.main` and the process entry `cli.run`."""

import ast
import gc
import os
import subprocess
import sys

import pytest

import smmsgeom
from smmsgeom import cli
from smmsgeom.config import Report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(smmsgeom.__file__)))

CONFIG = """[chart]
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
order = 1

[sampling]
points = 1
seed = 7
"""


@pytest.fixture()
def collector():
    """Give the collector back in the state the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_verify_makes_next_to_no_cyclic_garbage(collector):
    # The premise of the pause: a command's objects live until it ends, so
    # a collection during it finds almost nothing to free.  A change that
    # turns nodes or series into cyclic garbage makes this fail, instead of
    # growing memory unseen while the collector is paused.
    args = cli._parser().parse_args(["verify", "--catalog", "quasi-einstein",
                                     "--order", "2", "--points", "1"])
    collected = []

    def count(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.collect()
    gc.enable()
    gc.callbacks.append(count)
    try:
        code = cli._COMMANDS["verify"](args, Report("test"))
    finally:
        gc.callbacks.remove(count)
    assert code == 0
    assert collected, "the collector never ran"
    assert sum(collected) < 1000


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_collector_state(collector, tmp_path, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    frozen = gc.get_freeze_count()
    code = cli.main(["verify", "--catalog", "flat", "--order", "1",
                     "--points", "1", "--out", str(tmp_path / "r.txt")])
    assert code == 0
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen


def test_main_pauses_collector_for_the_command(collector, monkeypatch, tmp_path):
    seen = []

    def command(args, report):
        seen.append(gc.isenabled())
        raise RuntimeError("deliberate failure")

    monkeypatch.setitem(cli._COMMANDS, "verify", command)
    gc.enable()
    code = cli.main(["verify", "--catalog", "flat",
                     "--out", str(tmp_path / "r.txt")])
    assert (code, seen) == (3, [False])
    assert gc.isenabled()
    # a usage error is an input error with a report, not a SystemExit
    assert cli.main(["no-such-command"]) == 2
    assert gc.isenabled()


def _body(text):
    return text.split("\ntimings.")[0]


@pytest.mark.parametrize("extra,old,new,want", [
    ([], None, None, 0),
    (["--corrupt-coefficient", "1,0,0,0.001"], None, None, 1),
    ([], "points = 1", "points = 0", 2),
])
def test_process_entry_writes_the_in_process_report(tmp_path, extra, old, new,
                                                    want):
    # `python -m smmsgeom.cli` runs cli.run: main, then gc.freeze() before
    # sys.exit.  The report it prints must be whole and equal main()'s.
    path = tmp_path / "problem.cfg"
    path.write_text(CONFIG.replace(old, new) if old else CONFIG)
    argv = ["verify", "--config", str(path)] + extra
    out = tmp_path / "in-process.txt"
    assert cli.main(argv + ["--out", str(out)]) == want
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "smmsgeom.cli"] + argv,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == want, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1].startswith("timings.total_seconds = ")
    assert _body(proc.stdout) == _body(out.read_text())


@pytest.mark.parametrize("argv,error", [
    # argparse reads "-1e-09" as an option, not as the value of --tol
    (["invariants", "--catalog", "flat", "--points", "1", "--tol", "-1e-09"],
     "argument --tol: expected one argument"),
    (["no-such-command"], "argument command: invalid choice: "),
    (["verify", "--catalog", "flat", "--points", "two"],
     "argument --points: invalid int value: 'two'"),
])
def test_usage_error_prints_a_report(argv, error):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "smmsgeom.cli"] + argv,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "schema_version = 1"
    assert lines[1].startswith(f"error = ConfigError: {error}"), lines
    assert lines[-1].startswith("timings.total_seconds = ")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["verify", "--help"])
    assert stop.value.code == 0
    assert "--corrupt-coefficient" in capsys.readouterr().out


def test_console_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["smmsgeom"]
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    calls = [ast.unparse(node.func) for node in ast.walk(block)
             if isinstance(node, ast.Call)]
    assert calls == ["run"]
    assert script == "smmsgeom.cli:run"


# numpy (12 MB and 0.06 s per process), and the modules
# `np.random.default_rng` imports: 11 ms and 5.8 MB per process
SAMPLER_IMPORTS = ("numpy", "numpy.random", "secrets", "hashlib")

INPUTS = {
    "problem": ["--config", "problem.cfg"],
    "quasi-einstein": ["--catalog", "quasi-einstein", "--points", "1"],
    "unweighted": ["--config", os.path.join(ROOT, "configs", "unweighted.cfg"),
                   "--points", "1"],
}
# `obstruction` at an odd d+m (3.5 and 5) ends in an OrderError
EXIT = {("obstruction", "problem"): 2, ("obstruction", "quasi-einstein"): 2}


def _loaded_by(tmp_path, command, given, modules):
    """Run `command` on the input `given` in a child, with its report in
    tmp_path/report.txt; return which of `modules` the child then holds
    and the command's exit status."""
    (tmp_path / "problem.cfg").write_text(CONFIG)
    child = ("import sys\n"
             "from smmsgeom import cli\n"
             "code = cli.main(sys.argv[1:] + ['--out', 'report.txt'])\n"
             f"print('loaded =', [m for m in {modules!r} "
             "if m in sys.modules], code)\n")
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, command]
                          + INPUTS[given], capture_output=True, text=True,
                          timeout=300, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("given", list(INPUTS))
def test_commands_do_not_import_numpy(tmp_path, command, given):
    code = EXIT.get((command, given), 0)
    assert _loaded_by(tmp_path, command, given,
                      SAMPLER_IMPORTS) == f"loaded = [] {code}"
    if code == 0:
        # the scale is a maximum over the sample points
        assert "\nscale = " in (tmp_path / "report.txt").read_text()


# `dataclasses` imports `inspect` (with `ast`, `dis` and `tokenize`) and
# `fractions` imports `decimal`: 8-9 ms per process, and each dataclass
# `exec`s generated source when its class is built
CLASS_IMPORTS = ("dataclasses", "inspect", "fractions", "decimal")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("given", list(INPUTS))
def test_commands_do_not_import_dataclasses_or_fractions(tmp_path, command,
                                                         given):
    code = EXIT.get((command, given), 0)
    assert _loaded_by(tmp_path, command, given,
                      CLASS_IMPORTS) == f"loaded = [] {code}"


# the package modules every command loads, and those each command adds:
# the solver (`expansion`, `series`), `ambient` for `order_report` and
# `poincare` for the Poincare checks; `--catalog` adds `catalog`
PACKAGE = sorted(f"smmsgeom.{name[:-3]}" for name in
                 os.listdir(os.path.dirname(smmsgeom.__file__))
                 if name.endswith(".py") and name != "__init__.py")
BASE = {"cli", "config", "curvature", "errors", "expressions", "fields",
        "invariants", "jets"}
SOLVER = {"expansion", "series"}
STAGES = {"invariants": set(), "expand": SOLVER | {"ambient"},
          "obstruction": SOLVER, "poincare": SOLVER | {"ambient", "poincare"},
          "verify": SOLVER | {"ambient", "poincare"}}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("given", list(INPUTS))
def test_commands_import_only_the_modules_they_run(tmp_path, command, given):
    want = BASE | STAGES[command]
    if "--catalog" in INPUTS[given]:
        want.add("catalog")
    loaded = sorted(f"smmsgeom.{name}" for name in want)
    code = EXIT.get((command, given), 0)
    assert _loaded_by(tmp_path, command, given,
                      PACKAGE) == f"loaded = {loaded} {code}"
