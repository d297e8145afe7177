"""Check that every function of the package serves a command or a named oracle.

    python3 tools/traffic.py WORKDIR

Runs, in this one process, the 94 commands of `tools/report_bodies.py`
(writing its configs to WORKDIR) plus one `verify --corrupt-coefficient`,
each through `smmsgeom.cli.main`, and `bench/inputs.random_config` on
each of its random inputs, under a `sys.setprofile` hook that is
installed before the package is first imported.  Then lists every `def`
in `src/smmsgeom` whose code object none of them entered, as
`module.qualname (file:line)`: first those named in `KNOWN`, each with
the reason it stays, then the rest.  Reports are discarded; the exit
status of each command is printed as it finishes.

Exits 1 when a def outside `KNOWN` is unentered, or when a name in
`KNOWN` is entered or is no def of the package, so that a new def that
no command reaches, or a stale entry of `KNOWN`, fails the check.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import glob
import io
import os
import sys

from report_bodies import RANDOM, ROOT, runs

SRC = os.path.join(ROOT, "src", "smmsgeom")
CORRUPT = ["verify", "--config", os.path.join("configs", "flat.cfg"),
           "--corrupt-coefficient", "1,0,1,1e-6"]

EVALUATION = ("an evaluation entry of the tests and demos; a command "
              "evaluates in its one sweep")
REPR = "a debugging representation; no report prints the object"
# the defs that no command enters but that stay, and why
KNOWN = {
    "ambient.AmbientMetric.christoffels_closed":
        "the paper's closed-form ambient Christoffel symbols, which "
        "tests/test_ambient.py compares with the generic route",
    "ambient.AmbientMetric.christoffels_generic":
        "the generic route that tests/test_ambient.py compares the "
        "closed-form Christoffel symbols against",
    "ambient.AmbientMetric.curvature_closed":
        "the paper's closed-form ambient curvature, checked by the "
        "ambient-flatness acceptance criterion and tests/test_ambient.py",
    "catalog.CatalogEntry.closed_expansion":
        "a catalog entry's exact deformation as an expansion: the reference "
        "input of the ambient, acceptance and Poincare tests",
    "invariants.bach_asymmetry":
        "the symmetry check of the raw Bach tensor in "
        "tests/test_invariants.py and demos/02",
    "fields.ScalarField.jet": EVALUATION,
    "fields.ScalarField.value": EVALUATION,
    "fields.evaluate": EVALUATION,
    "fields.SymTensor2Field.matrix_values": EVALUATION,
    "jets.Jet.coefficient": EVALUATION,
    "jets._product_table":
        "the product table as (I, J, K) lists: the summation order that "
        "tests/test_jets.py checks the product and division kernels and "
        "their row tables against",
    "cli.run": "the console entry, which exits the process; this tool "
               "calls `cli.main`",
    "fields._Sealed.__getitem__":
        "the error of a build on a sealed chart: a command seals only "
        "after its last build, and tests/test_fields.py checks the error",
    "ambient.Graded.__repr__": REPR,
    "fields.Chart.__repr__": REPR,
    "jets.Jet.__repr__": REPR,
    "series.Series.__repr__": REPR,
}


def defs(path):
    """(first line of the code object, qualname) of every def in the file.

    A decorated function's code object starts at its first decorator."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                out.append((first, prefix + child.name))
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    with open(path) as fh:
        walk(ast.parse(fh.read(), path), "")
    return out


def main(argv):
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    workdir = os.path.abspath(argv[0])
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    commands = [([command, *args], cwd)
                for command, _, args, cwd in runs(workdir, env)]
    commands.append((CORRUPT, ROOT))

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    sys.setprofile(hook)
    from smmsgeom import cli
    from inputs import random_config
    for _, d, m, mu, seed, order in RANDOM:
        random_config(d, m, mu, seed, order)
    for argv_, cwd in commands:
        os.chdir(cwd)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv_)
        gc.collect()
        print(f"exit={code} {' '.join(argv_)}", flush=True)
    sys.setprofile(None)

    seen = {(os.path.realpath(c.co_filename), c.co_firstlineno)
            for c in entered}
    known, missing, names = {}, [], set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        real = os.path.realpath(path)
        for line, name in defs(path):
            qual = f"{module}.{name}"
            names.add(qual)
            if (real, line) not in seen:
                where = f"{qual} ({os.path.relpath(path, ROOT)}:{line})"
                if qual in KNOWN:
                    known[qual] = f"{where}: {KNOWN[qual]}"
                else:
                    missing.append(where)
    stale = sorted(set(KNOWN) - set(known))
    print(f"\n{len(known)} known defs entered by no command:")
    for line in known.values():
        print(f"  {line}")
    print(f"\n{len(missing)} other defs entered by no command:")
    for line in missing:
        print(f"  {line}")
    for name in stale:
        print(f"KNOWN names {name}, which is "
              f"{'entered' if name in names else 'no def of the package'}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
