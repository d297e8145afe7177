"""Correctness gate for `smmsgeom` reports.

A problem run fails when any of these holds:

- the exit status is nonzero;
- a traceback appears on stdout or stderr;
- the report does not start with `schema_version`, or carries no
  `*.ok` key at all (no check ran);
- any `*.ok = false` key (`check.*.ok`, and also `order.*.ok` from
  `expand`);
- an `error` key (`error = ...` or `<name>.error = ...`);
- its report body (everything before the first `timings.` line) differs
  from that of another run of the same problem and seed in the same
  benchmark run (see `Determinism`).
"""

from __future__ import annotations


def report_body(text):
    """The deterministic part of a report: every line before `timings.`."""
    lines = text.splitlines()
    for n, line in enumerate(lines):
        if line.startswith("timings."):
            return "\n".join(lines[:n])
    return "\n".join(lines)


def failures(returncode, stdout, stderr):
    """Reasons this single run fails the gate; empty when it passes."""
    reasons = []
    if returncode != 0:
        reasons.append(f"exit status {returncode}")
    if "Traceback (most recent call last)" in stdout + stderr:
        reasons.append("traceback")
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("schema_version = "):
        reasons.append("no report")
        return reasons
    oks = 0
    for line in lines:
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        if key.endswith(".ok"):
            oks += 1
            if value != "true":
                reasons.append(f"{key} = {value}")
        elif key == "error" or key.endswith(".error"):
            reasons.append(f"{key} = {value}")
    if not oks:
        reasons.append("no checks in report")
    return reasons


class Determinism:
    """Compares report bodies across repeats of the same problem."""

    def __init__(self):
        self.bodies = {}

    def differs(self, problem_id, stdout):
        """Record this run's body; True if an earlier repeat's differs."""
        body = report_body(stdout)
        first = self.bodies.setdefault(problem_id, body)
        return body != first
