"""Workload definitions and the seeded input generator.

A workload is a list of problems; a problem is one `smmsgeom` CLI
invocation.  Inputs depend only on the workload seed S, and they are
written before any timed region starts, so the CLI receives only config
files (or a named catalog entry) and never generates anything itself.

Script modes (run from the repository root with PYTHONPATH=src):

    python3 bench/inputs.py generate WORKLOAD SEED OUTDIR
        write the configs and OUTDIR/manifest.json (problems, seeds and
        generated expressions, so that any run can be reproduced)
    python3 bench/inputs.py probe MANIFEST
        import smmsgeom.cli and build every problem's input, running no
        command; the benchmark times this process as its set-up cost

This module imports only the standard library at top level, so
`bench/run.py` can read WORKLOADS without loading the package.
"""

from __future__ import annotations

import json
import os
import sys

CATALOG_NAMES = ("flat", "quasi-einstein", "wlcf", "gover-leitner",
                 "gover-leitner-flat")

# Why each workload was chosen: bench/README.md and BENCHMARK.json.
WORKLOADS = ("catalog-verify", "random-deep", "even-critical")

# Sample points per problem.  One keeps every child short (about 0.5-5 s),
# so a run repeats each problem several times and its medians are steady on
# a noisy shared host.  Every per-point check still runs.
POINTS = 1


def random_config(d, m, mu, seed, order, points=POINTS):
    """INI text for `catalog.random_entry(d, m, mu, seed)`, and its expressions.

    The config samples its points with the same seed.  `random_entry`
    checks positivity, so a rejected seed raises here, before any timing.
    """
    from smmsgeom.catalog import random_entry

    entry = random_entry(d=d, m=m, mu=mu, seed=seed)
    exprs = entry.params["expressions"]
    box_half = 0.5  # random_entry's default box
    lines = ["[chart]", f"dimension = {d}",
             "coordinates = " + " ".join(f"x{i + 1}" for i in range(d)),
             "box = " + " ; ".join([f"{-box_half} {box_half}"] * d),
             "", "[metric]"]
    # random_entry names the upper triangle g_ij (i <= j); config files take
    # the lower triangle g_ji.
    for i in range(d):
        for j in range(i, d):
            lines.append(f"g{j + 1}{i + 1} = {exprs[f'g{i + 1}{j + 1}']}")
    lines += ["", "[density]", f"f = {exprs['f']}",
              "", "[parameters]", f"m = {m!r}", f"mu = {mu!r}",
              "", "[solver]", f"order = {order}",
              "", "[sampling]", f"points = {points}", f"seed = {seed}", ""]
    return "\n".join(lines), exprs


def _config_problem(outdir, command, d, m, mu, seed, order):
    name = f"random-d{d}-m{m}-s{seed}-n{order}.cfg"
    path = os.path.join(outdir, name)
    text, exprs = random_config(d, m, mu, seed, order)
    with open(path, "w") as fh:
        fh.write(text)
    return {"id": f"{command}:{name}", "argv": [command, "--config", path],
            "input": {"config": path},
            "random_entry": {"d": d, "m": m, "mu": mu, "seed": seed,
                             "order": order, "expressions": exprs}}


def problems(workload, seed, outdir):
    """The workload's problems for seed S, writing any configs to outdir."""
    if workload == "catalog-verify":
        return [{"id": f"verify:catalog:{name}",
                 "argv": ["verify", "--catalog", name, "--seed", str(seed),
                          "--order", "3", "--points", str(POINTS)],
                 "input": {"catalog": name}}
                for name in CATALOG_NAMES]
    if workload == "random-deep":
        # Two spaces per run: the cost of one random space varies with its
        # seed by about 15%, more than the host noise in a run.
        return [_config_problem(outdir, "verify", 3, 0.5, 0.1, s, 4)
                for s in (seed, seed + 1)]
    if workload == "even-critical":
        return [_config_problem(outdir, command, 3, 1.0, 0.1, s, 2)
                for s in (seed, seed + 1)
                for command in ("invariants", "expand")]
    raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")


def probe(manifest_path):
    """Build every distinct problem input the way the CLI does."""
    import smmsgeom.cli  # noqa: F401  (the import is part of set-up)
    from smmsgeom.catalog import load_entry
    from smmsgeom.config import load_config

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    seen = set()
    for prob in manifest["problems"]:
        key = json.dumps(prob["input"], sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        if "config" in prob["input"]:
            load_config(prob["input"]["config"]).space()
        else:
            load_entry(prob["input"]["catalog"])


def main(argv):
    if len(argv) == 4 and argv[0] == "generate":
        # Importing the whole CLI here also fills the bytecode cache, so the
        # timed set-up probes never pay for compilation.
        import smmsgeom.cli  # noqa: F401
        workload, seed, outdir = argv[1], int(argv[2]), argv[3]
        os.makedirs(outdir, exist_ok=True)
        manifest = {"workload": workload, "seed": seed,
                    "problems": problems(workload, seed, outdir)}
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
        return 0
    if len(argv) == 2 and argv[0] == "probe":
        probe(argv[1])
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
