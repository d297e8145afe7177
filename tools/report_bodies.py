"""Write the bodies of the standard reports, for comparing two checkouts.

    python3 tools/report_bodies.py [--points N] OUTDIR

Runs `invariants`, `expand`, `obstruction`, `poincare` and `verify` on
every `configs/*.cfg` (`analytic.cfg` reaches the jets of `log`, `sqrt`,
`sinh`, `cosh` and negative powers, `unweighted.cfg` the branches of
m = 0), on every catalog entry, on the `wlcf` entry at `--seed 7` (its
defining equations are checked at that seed's points), on the seed-51
random-deep and even-critical configs of
`bench/inputs.random_config`, on a seed-51 config that reaches the
odd critical order n = d+m = 5 and on the even-critical config at
order 3, past its nonzero obstruction; then four single runs:
`verify --tol 1e-8` on `configs/flat.cfg`, a usage error (an unknown
option), a config with a malformed expression and one whose metric is
not positive definite.  That is 84 reports, each from its own
`python3 -m smmsgeom.cli` child of this checkout (`obstruction` exits
2 where d+m is not an even integer, `expand`, `poincare` and `verify`
exit 2 past the obstruction, from the continuation gate, and the
three input errors exit 2).
Writes the body of each (every line before the first `timings.` line)
to OUTDIR/<command>.<input>.txt, and prints one line per report with
its exit status and `timings.stats.nodes`, `.max_degree`, `.unread`,
`.computed`, `.recomputed` and `.peak_rss_mb`.  The same lines without
`peak_rss_mb`, which varies from run to run, go to OUTDIR/stats.txt.
Run it in two checkouts and compare with `diff -r OUTDIR_A OUTDIR_B`: a
change that keeps the reports and the DAG counts leaves no difference.
`--points N` runs every report with the CLI's `--points N` override, so
that the counts and `peak_rss_mb` of two point counts can be compared.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("invariants", "expand", "obstruction", "poincare", "verify")
CATALOG = ("flat", "quasi-einstein", "wlcf", "gover-leitner",
           "gover-leitner-flat")
# the deterministic counts; peak_rss_mb is printed but not kept
STATS = ("nodes", "max_degree", "unread", "computed", "recomputed")
# (name, d, m, mu, seed, order) as the random-deep and even-critical
# workloads generate them, one through the odd critical order d+m and
# one past the even critical order, whose continuation gate fails
RANDOM = (("random-deep-s51", 3, 0.5, 0.1, 51, 4),
          ("even-critical-s51", 3, 1.0, 0.1, 51, 2),
          ("odd-critical-s51", 3, 2.0, 0.1, 51, 5),
          ("even-past-critical-s51", 3, 1.0, 0.1, 51, 3))
FLAT = os.path.join("configs", "flat.cfg")


# writes random_config(d, m, mu, seed, order) to a path, in a child: a
# forked child's ru_maxrss starts at its parent's resident set, so this
# process must not import numpy, or its size would be every report's
# floor of `peak_rss_mb`
WRITE_CONFIG = """import sys
from inputs import random_config
path, d, m, mu, seed, order = sys.argv[1:]
with open(path, "w") as fh:
    fh.write(random_config(int(d), float(m), float(mu), int(seed),
                           int(order))[0])
"""


def inputs(outdir, env):
    """(name, CLI arguments, working directory) of every input, writing
    the random configs.  Config paths are relative to the working
    directory, so the `config.label` lines agree between checkouts."""
    env = dict(env, PYTHONPATH=os.pathsep.join(
        [env["PYTHONPATH"], os.path.join(ROOT, "bench")]))
    out = [(os.path.basename(p)[:-4],
            ["--config", os.path.relpath(p, ROOT)], ROOT)
           for p in sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))]
    out += [(f"catalog-{name}", ["--catalog", name], ROOT)
            for name in CATALOG]
    out.append(("catalog-wlcf-seed7", ["--catalog", "wlcf", "--seed", "7"],
                ROOT))
    for name, d, m, mu, seed, order in RANDOM:
        subprocess.run([sys.executable, "-c", WRITE_CONFIG,
                        os.path.join(outdir, f"{name}.cfg"),
                        *map(str, (d, m, mu, seed, order))],
                       env=env, check=True)
        out.append((name, ["--config", f"{name}.cfg"], outdir))
    return out


def runs(outdir, env):
    """(command, input name, CLI arguments, working directory) of every
    report: each command on each of `inputs`, then the single runs, the
    last two on copies of `configs/flat.cfg` with a malformed expression
    and with `g11 = -1`, which this writes to `outdir`."""
    with open(os.path.join(ROOT, FLAT)) as fh:
        flat = fh.read()
    with open(os.path.join(outdir, "malformed.cfg"), "w") as fh:
        fh.write(flat.replace("g22 = 1", "g22 = 1 + * x2"))
    with open(os.path.join(outdir, "indefinite.cfg"), "w") as fh:
        fh.write(flat.replace("g11 = 1", "g11 = -1"))
    out = [(command, name, args, cwd) for name, args, cwd in inputs(outdir, env)
           for command in COMMANDS]
    return out + [
        ("verify", "flat-tol", ["--config", FLAT, "--tol", "1e-8"], ROOT),
        ("verify", "usage-error", ["--config", FLAT, "--no-such-option"],
         ROOT),
        ("verify", "malformed-expression", ["--config", "malformed.cfg"],
         outdir),
        ("verify", "not-positive-definite", ["--config", "indefinite.cfg"],
         outdir)]


def main(argv):
    parser = argparse.ArgumentParser(
        description="write the bodies and counts of the standard reports")
    parser.add_argument("outdir")
    parser.add_argument("--points", type=int,
                        help="run every report with `--points N`")
    args = parser.parse_args(argv)
    points = [] if args.points is None else ["--points", str(args.points)]
    outdir = os.path.abspath(args.outdir)
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(os.path.join(outdir, "stats.txt"), "w") as counts:
        for command, name, args, cwd in runs(outdir, env):
            proc = subprocess.run(
                [sys.executable, "-m", "smmsgeom.cli", command, *args,
                 *points],
                capture_output=True, text=True, env=env, cwd=cwd)
            lines = proc.stdout.splitlines(keepends=True)
            cut = next((k for k, line in enumerate(lines)
                        if line.startswith("timings.")), len(lines))
            body = os.path.join(outdir, f"{command}.{name}.txt")
            with open(body, "w") as fh:
                fh.writelines(lines[:cut])
            stats = dict(line[len("timings.stats."):].split(" = ")
                         for line in lines[cut:]
                         if line.startswith("timings.stats."))
            row = (f"{command} {name} exit={proc.returncode} "
                   + " ".join(f"{key}={stats.get(key, '-').strip()}"
                              for key in STATS))
            counts.write(row + "\n")
            print(f"{row} peak_rss_mb="
                  f"{stats.get('peak_rss_mb', '-').strip()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
