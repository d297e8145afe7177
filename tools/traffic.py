"""List the functions of the package that the standard reports never enter.

    python3 tools/traffic.py WORKDIR

Runs, in this one process, the 70 commands of `tools/report_bodies.py`
(writing its random configs to WORKDIR) plus one
`verify --corrupt-coefficient`, each through `smmsgeom.cli.main`, under
a `sys.setprofile` hook that is installed before the package is first
imported.  Then prints every `def` in `src/smmsgeom` whose code object
none of them entered, as `module.qualname (file:line)`, and their count.
A name on this list is reachable from no command on these inputs: it is
either reached only from tests and demos, or reachable from input
shapes that the reports do not exercise.  Reports are discarded; the
exit status of each command is printed as it finishes.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import glob
import io
import os
import sys

from report_bodies import COMMANDS, ROOT, inputs

SRC = os.path.join(ROOT, "src", "smmsgeom")
CORRUPT = ["verify", "--config", os.path.join("configs", "flat.cfg"),
           "--corrupt-coefficient", "1,0,1,1e-6"]


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
    runs = [([command, *args], cwd) for _, args, cwd in inputs(workdir, env)
            for command in COMMANDS]
    runs.append((CORRUPT, ROOT))

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.setprofile(hook)
    from smmsgeom import cli
    for argv_, cwd in runs:
        os.chdir(cwd)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv_)
        gc.collect()
        print(f"exit={code} {' '.join(argv_)}", flush=True)
    sys.setprofile(None)

    seen = {(os.path.realpath(c.co_filename), c.co_firstlineno)
            for c in entered}
    missing = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        real = os.path.realpath(path)
        missing += [f"{module}.{name} ({os.path.relpath(path, ROOT)}:{line})"
                    for line, name in defs(path) if (real, line) not in seen]
    print(f"\n{len(missing)} defs entered by no command:")
    for line in missing:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
