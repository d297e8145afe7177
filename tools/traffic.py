"""Check that every function of the package serves a command or a named oracle.

    python3 tools/traffic.py WORKDIR

Runs, in this one process, the 94 commands of `tools/report_bodies.py`
(writing its configs to WORKDIR) plus one `verify --corrupt-coefficient`,
each through `smmsgeom.cli.main`, and `bench/inputs.random_config` on
each of its random inputs, under a `sys.settrace` hook that is
installed before the package is first imported: it records every code
object entered, and the lines that the package's code objects run.
Then lists every `def` in `src/smmsgeom` whose code object none of them
entered, as `module.qualname (file:line)`: first those named in
`KNOWN`, each with the reason it stays, then the rest.  Reports are
discarded; the exit status of each command is printed as it finishes.

After the defs, it lists per module the statements of the entered defs
and of the module body that no command ran (docstrings excluded), as
`file:line` and the statement's first line; a compound statement that
did not run is listed once, without the statements inside it.  That
listing is for reading only: input errors and ring operations that
only the tests reach are among them.

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


def _docstring(node):
    """Whether the statement `node` is the docstring of its parent."""
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unrun(path, ran, entered):
    """The outermost statements of the file that did not run, as
    (first line, last line), given the lines that ran and the first
    lines of the defs that were entered.  A simple statement ran when
    one of its lines did; a compound one when a line of its header or a
    statement inside it did.  The bodies of defs that were not entered
    are skipped: the def listing names them."""

    def header(node):
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        return range(first, last + 1)

    def visit(stmts):
        """(whether any of `stmts` ran, the outermost that did not)."""
        any_ran, missed = False, []
        for node in stmts:
            if node is stmts[0] and _docstring(node):
                continue
            function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            inner = [] if function else [
                visit(block) for block in (getattr(node, field, None) for field
                                           in ("body", "orelse", "handlers",
                                               "finalbody")) if block]
            if (any(r for r, _ in inner)
                    or any(line in ran for line in header(node))):
                any_ran = True
                for _, m in inner:
                    missed += m
                if function and header(node).start in entered:
                    missed += visit(node.body)[1]
            else:
                missed.append((node.lineno, node.end_lineno))
        return any_ran, missed

    with open(path) as fh:
        return sorted(visit(ast.parse(fh.read(), path).body)[1])


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
    ran = {}  # package code object -> the lines of it that ran
    package = {}  # file name -> whether it is a module of the package
    # package code object -> the count of its lines that can run: all
    # but the first of a function's, its def, which is no line event
    count = {}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code].add(frame.f_lineno)
        return lines

    def hook(frame, event, arg):
        code = frame.f_code
        entered.add(code)
        name = code.co_filename
        inside = package.get(name)
        if inside is None:
            inside = package[name] = os.path.dirname(
                os.path.realpath(name)) == os.path.realpath(SRC)
        if not inside:
            return None
        if code not in count:
            count[code] = len({n for _, _, n in code.co_lines()
                               if n is not None} - {code.co_firstlineno})
            ran[code] = set()
        # a code object that has run all its lines is not traced again
        return lines if len(ran[code]) < count[code] else None

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    sys.settrace(hook)
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
    sys.settrace(None)

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

    by_file = {}
    for code, numbers in ran.items():
        by_file.setdefault(os.path.realpath(code.co_filename),
                           set()).update(numbers)
    listing = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        real = os.path.realpath(path)
        with open(path) as fh:
            source = fh.read().splitlines()
        missed = unrun(path, by_file.get(real, set()),
                       {line for file, line in seen if file == real})
        if missed:
            listing.append((os.path.relpath(path, ROOT), source, missed))
    print(f"\n{sum(len(m) for _, _, m in listing)} statements that no "
          f"command ran, outside the defs above:")
    for rel, source, missed in listing:
        print(f"  {rel}: {len(missed)}")
        for first, last in missed:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"    {span}: {source[first - 1].strip()[:72]}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
