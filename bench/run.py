"""Benchmark runner for the smmsgeom CLI.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/run.py --self-test

Run from the repository root; the package is imported from ./src.  Each
workload (see bench/inputs.py and bench/README.md) is a list of CLI
problems.  Inputs are generated from the seed before any timing starts.

--trace 0 measures the end-to-end metrics: after an untimed warm-up, the
CLI children run one at a time, in rounds of one set-up probe and the whole
problem list, until --seconds is used up (every problem at least twice, so
its report bodies can be compared).  Times are medians per problem over
the run.  --trace 1 runs one untraced round and one traced round
(bench/tracer.py) and reports the per-layer metrics.  Every report goes
through the correctness gate (bench/gate.py).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Details (environment, seeds, generated expressions,
every child, spans by stage) go to bench/.work/result-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata

import gate
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
MIN_SETUPS = 5           # set-up probes per run, at least
MIN_REPEATS = 2          # runs of each problem per run, at least
RUN_LIMIT_S = 170.0       # the whole run must end well within 180 s
TRACER = os.path.join(HERE, "tracer.py")
INPUTS = os.path.join(HERE, "inputs.py")

# Per-layer metrics: name -> unit.  How each is computed from the spans is
# in layer_metrics(); bench/README.md says which end-to-end metric each
# should move, on which workload.
PER_LAYER = {
    "jets.mul.calls": "count", "jets.mul.self_s": "s",
    "jets.mul.madds": "madd-computed", "jets.div.calls": "count",
    "jets.div.self_s": "s", "jets.div.madds": "madd-computed",
    "jets.add.calls": "count", "jets.add.self_s": "s",
    "jets.partial.calls": "count", "jets.truncated.calls": "count",
    "jets.compose.calls": "count", "jets.compose.self_s": "s",
    "jets.coeffs_mean": "coeffs",
    "fields.nodes": "count", "fields.jet.calls": "count",
    "fields.jet.top_calls": "count", "fields.jet.self_s": "s",
    "series.mul.calls": "count", "series.mul.self_s": "s",
    "series.div.calls": "count", "series.div.self_s": "s",
    "series.deriv.calls": "count",
    "curvature.calls": "count", "curvature.self_s": "s",
    "ambient.order_report.s": "s", "ambient.ricci_closed.s": "s",
    "ambient.ricci_generic.s": "s",
    "poincare.to_poincare.s": "s", "poincare.residual_build.s": "s",
    "poincare.residual_eval.s": "s", "poincare.cone.s": "s",
    "expansion.expand.s": "s", "expansion.solve_order_step.calls": "count",
    "expansion.solve_order_step.s": "s",
    "invariants.curvature_scale.s": "s",
    "invariants.weighted_invariants.s": "s",
    "invariants.weighted_bach.s": "s", "invariants.bianchi_residual.s": "s",
    "catalog.load_entry.s": "s", "catalog.entry_verify.s": "s",
    "config.load_config.s": "s", "expressions.parse.calls": "count",
    "expressions.parse.s": "s",
    "cli.command.s": "s", "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed generation)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # A fixed string-hash seed gives every child the same set and dict
    # iteration order, so repeats of a problem do the same work.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Runs children one at a time, each against the run's deadline."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = child_env()
        self.started = time.perf_counter()
        self.count = 0

    def elapsed(self):
        return time.perf_counter() - self.started

    def run(self, argv):
        """Run `python3 ARGV`; wall/CPU time, peak RSS and its output."""
        self.count += 1
        out_path = os.path.join(self.workdir, f"child{self.count}.out")
        err_path = os.path.join(self.workdir, f"child{self.count}.err")
        limit = max(1.0, RUN_LIMIT_S - self.elapsed())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, errors="replace") as fh:
            stderr = fh.read()
        return {"returncode": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": stdout, "stderr": stderr}

    def must(self, argv, what):
        res = self.run(argv)
        if res["returncode"] != 0:
            raise SetupError(f"{what} failed ({res['returncode']}):\n"
                             f"{res['stderr'][-2000:]}")
        return res


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit,
            "loadavg_at_start": list(os.getloadavg()),
            "child_threads": {v: "1" for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")}}


def run_round(runner, problems, command, label):
    """Run every problem once, in order; gate checks come afterwards."""
    first = time.perf_counter()
    children = []
    for prob in problems:
        res = runner.run(command(prob))
        res["id"] = prob["id"]
        res["round"] = label
        children.append(res)
    wall = time.perf_counter() - first
    return {"label": label, "wall_s": wall,
            "cpu_s": sum(c["cpu_s"] for c in children), "children": children}


def cli_argv(prob):
    return ["-m", "smmsgeom.cli"] + prob["argv"]


def gate_rounds(rounds):
    """Apply the correctness gate; returns (attempted, failed)."""
    same = gate.Determinism()
    attempted = failed = 0
    for rnd in rounds:
        for child in rnd["children"]:
            reasons = gate.failures(child["returncode"], child["stdout"],
                                    child["stderr"])
            if same.differs(child["id"], child["stdout"]):
                reasons.append("report body differs from an earlier repeat")
            child["failures"] = reasons
            attempted += 1
            failed += bool(reasons)
    return attempted, failed


def measure(runner, problems, manifest_path, seconds):
    """End-to-end metrics from rounds of set-up probes and problems.

    Each problem's wall and CPU times are taken as their medians over the
    run, and solve_s / cpu_s sum those medians over the problem list: the
    time of one typical pass, robust to a host slowdown that hits a few
    children.  Once every problem has run MIN_REPEATS times, a child is
    started only while its previous duration, and the set-up probes still
    owed, fit in `seconds`.
    """
    probe = [INPUTS, "probe", manifest_path]
    runner.must(probe, "warm-up probe")
    setups, rounds = [], []
    last = {}
    start = time.perf_counter()

    def fits(duration):
        """True if `duration` more, and the set-up probes owed, fit."""
        owed = max(0, MIN_SETUPS - len(setups)) * statistics.median(setups)
        return (time.perf_counter() - start + duration + owed <= seconds
                and runner.elapsed() + duration < RUN_LIMIT_S)

    done = False
    while not done:
        rnd = {"label": len(rounds), "children": []}
        rounds.append(rnd)
        if len(setups) < MIN_SETUPS or fits(statistics.median(setups)):
            setups.append(runner.must(probe, "set-up probe")["wall_s"])
        for prob in problems:
            repeats = len(rounds) - 1
            if repeats >= MIN_REPEATS and not fits(last[prob["id"]]):
                done = True
                break
            res = runner.run(cli_argv(prob))
            res["id"] = prob["id"]
            res["round"] = rnd["label"]
            rnd["children"].append(res)
            last[prob["id"]] = res["wall_s"]
    if not rounds[-1]["children"]:
        rounds.pop()
    while len(setups) < MIN_SETUPS:
        setups.append(runner.must(probe, "set-up probe")["wall_s"])
    for rnd in rounds:
        rnd["wall_s"] = sum(c["wall_s"] for c in rnd["children"])
        rnd["cpu_s"] = sum(c["cpu_s"] for c in rnd["children"])
    children = [c for rnd in rounds for c in rnd["children"]]
    attempted, failed = gate_rounds(rounds)

    def per_problem(key):
        return sum(statistics.median(c[key] for c in children
                                     if c["id"] == prob["id"])
                   for prob in problems)

    metrics = {
        "solve_s": (per_problem("wall_s"), "s"),
        "cpu_s": (per_problem("cpu_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in children), "MB"),
        "pass_share": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed, {"setup_s": setups, "rounds": rounds}


def merge_spans(dumps):
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(int)
    absent = set()
    for dump in dumps:
        for name, stage, calls, incl, self_s in dump["spans"]:
            rec = spans[(name, stage)]
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_s
        for key, value in dump["counters"].items():
            counters[key] += value
        absent.update(dump["absent"])
    return spans, counters, sorted(absent)


def layer_metrics(spans, counters, overhead_share):
    total = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, _), rec in spans.items():
        for n, v in enumerate(rec):
            total[name][n] += v
    curv = [rec for name, rec in total.items() if name.startswith("curvature.")]
    mul_calls = total["jets.mul"][0]
    special = {
        "jets.mul.madds": counters.get("jets.mul.madds", 0),
        "jets.div.madds": counters.get("jets.div.madds", 0),
        "jets.coeffs_mean": (counters.get("jets.mul.coeffs", 0) / mul_calls
                             if mul_calls else 0.0),
        "fields.nodes": counters.get("fields.nodes", 0),
        "fields.jet.top_calls": counters.get("fields.jet.top_calls", 0),
        "curvature.calls": sum(r[0] for r in curv),
        "curvature.self_s": sum(r[2] for r in curv),
        "cli.self_s": total["cli.command"][2],
        "trace.overhead_share": overhead_share,
    }
    out = {}
    for name, unit in PER_LAYER.items():
        if name in special:
            value = special[name]
        else:
            span, field = name.rsplit(".", 1)
            value = total[span][{"calls": 0, "s": 1, "self_s": 2}[field]]
        out[name] = (value, unit)
    return out


def trace(runner, problems, manifest_path):
    """Per-layer metrics: one untraced round, then one traced round."""
    plain = run_round(runner, problems, cli_argv, "untraced")
    span_files = []

    def traced_argv(prob):
        path = os.path.join(runner.workdir, f"spans{len(span_files)}.json")
        span_files.append(path)
        return [TRACER, path, "--"] + prob["argv"]

    traced = run_round(runner, problems, traced_argv, "traced")
    attempted, failed = gate_rounds([plain, traced])
    dumps = []
    for path in span_files:
        if os.path.exists(path):
            with open(path) as fh:
                dumps.append(json.load(fh))
    spans, counters, absent = merge_spans(dumps)
    overhead = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics = layer_metrics(spans, counters, overhead)
    by_stage = defaultdict(dict)
    for (name, stage), rec in sorted(spans.items()):
        by_stage[name][stage] = {"calls": rec[0], "incl_s": rec[1],
                                 "self_s": rec[2]}
    details = {"rounds": [plain, traced], "absent": absent,
               "counters": dict(counters), "spans_by_stage": by_stage}
    return metrics, attempted, failed, details


def summarize(details, metrics):
    """Human-readable lines that precede the JSON result."""
    for rnd in details["rounds"]:
        print(f"round {rnd['label']}: {rnd['wall_s']:.3f} s wall, "
              f"{rnd['cpu_s']:.3f} s cpu")
        for child in rnd["children"]:
            status = "ok" if not child["failures"] else "; ".join(
                child["failures"])
            print(f"  {child['id']}: {child['wall_s']:.3f} s, "
                  f"{child['peak_rss_mb']:.1f} MB, {status}")
    if "spans_by_stage" in details:
        for name in ("fields.jet", "jets.mul"):
            stages = details["spans_by_stage"].get(name, {})
            top = sorted(stages.items(), key=lambda kv: -kv[1]["self_s"])[:4]
            shown = ", ".join(f"{stage} {rec['self_s']:.2f} s"
                              for stage, rec in top)
            print(f"{name} self time by stage: {shown}")
        if details["absent"]:
            print("absent (reported as 0): " + ", ".join(details["absent"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")


def strip_output(details):
    for rnd in details["rounds"]:
        for child in rnd["children"]:
            child["stdout_lines"] = child.pop("stdout").count("\n")
            child["stderr_tail"] = child.pop("stderr")[-2000:]


def benchmark(args):
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(WORK, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = environment()
    print("environment: " + json.dumps(env))
    runner = Runner(workdir)
    runner.must([INPUTS, "generate", args.workload, str(args.seed),
                 os.path.relpath(workdir, ROOT)],
                "input generation")
    manifest_path = os.path.join(workdir, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    problems = manifest["problems"]
    if args.trace:
        metrics, attempted, failed, details = trace(runner, problems,
                                                    manifest_path)
    else:
        metrics, attempted, failed, details = measure(
            runner, problems, manifest_path, args.seconds)
    summarize(details, metrics)
    strip_output(details)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"args": vars(args), "environment": env, "manifest": manifest,
              "result": result, **details}
    record_path = os.path.join(WORK, f"result-{tag}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"details: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))


def self_test():
    """The gate must fail a corrupted solve and pass the clean rerun."""
    workdir = os.path.join(WORK, "self-test")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir)
    base = ["-m", "smmsgeom.cli", "verify", "--catalog", "quasi-einstein"]
    outcome = {}
    for label, extra in (("corrupt", ["--corrupt-coefficient", "1,0,0,1e-3"]),
                         ("clean", [])):
        res = runner.run(base + extra)
        outcome[label] = gate.failures(res["returncode"], res["stdout"],
                                       res["stderr"])
    ok = bool(outcome["corrupt"]) and not outcome["clean"]
    print(json.dumps({"self_test_passed": ok,
                      "corrupt_failures": outcome["corrupt"],
                      "clean_failures": outcome["clean"]}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so Runner.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "smmsgeom", "cli.py")):
        sys.stderr.write(f"no smmsgeom sources under {ROOT}/src\n")
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed < 0:
        p.error("--workload and a non-negative --seed are required")
    try:
        benchmark(args)
    except SetupError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
