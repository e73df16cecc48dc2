"""Workload inputs and the known-answer table the benchmark checks against.

The inputs are generated from the benchmark seed only.  The expected
verdicts are written down from the acceptance criteria (01-14) and the
errata list, not taken from a run of the program, so a change that alters a
verdict is counted as an error instead of becoming the new reference.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("verify-default", "verify-errata-off", "mutation-controls")

CHECK_IDS = (
    "ybe", "constraints", "eigenstructure", "calculus-omega", "calculus-omega-inv",
    "rtt", "inverse", "determinant", "coaction", "hopf", "star", "specializations",
)

# The checks a braiding corruption can reach without a membership oracle.
MUTATION_CHECKS = ("ybe", "constraints", "eigenstructure", "calculus-omega",
                   "calculus-omega-inv", "rtt")

# Offsets added to one nonzero braiding entry: the family of
# wh3.verify.random_omega_mutation, widened so one run never repeats a context.
MUTATION_OFFSETS = tuple(Fraction(v) for v in ("1", "2", "-1", "-2", "1/2", "3"))

# Corruptions run by a traced mutation-controls pass: a fixed count, so that
# the per-layer call counts repeat exactly between two traced runs.
TRACED_CORRUPTIONS = 6

OMEGA_ARGV = ["matrix", "--name", "omega", "--format", "json"]


@dataclass(frozen=True)
class Expectation:
    """Known verdicts for one CLI call."""

    exit_code: int
    passing: tuple = ()
    failing: tuple = ()
    # check id -> text its counterexample must contain
    counterexample: dict = field(default_factory=dict)
    # check id -> the exact list of failing detail ids
    failed_details: dict = field(default_factory=dict)


EXPECTED = {
    # Criteria 01-12: every check passes, the determinant check modularly.
    "verify-default": Expectation(exit_code=0, passing=CHECK_IDS),
    # The documented errata-off failure set: only the braiding-level checks
    # survive the uncorrected transcription.
    "verify-errata-off": Expectation(
        exit_code=1,
        passing=("ybe", "constraints"),
        failing=tuple(c for c in CHECK_IDS if c not in ("ybe", "constraints")),
        counterexample={"star": "rows [9, 25, 27, 33]"},
        failed_details={"rtt": ["generated-vs-transcribed"]},
    ),
    # Criteria 01 and 13: every single-entry corruption is rejected by the
    # braid equation.
    "mutation-controls": Expectation(exit_code=1, failing=("ybe",)),
}


def verify_argv(workload: str, seed: int) -> list[str]:
    """The user's verify command; the seed picks the modular evaluation point."""
    argv = ["verify", "--all", "--format", "json", "--no-timings", "--seed", str(seed)]
    if workload == "verify-errata-off":
        argv += ["--errata", "off"]
    return argv


def corruption_argv(cell: str, entry: str, offset: Fraction) -> list[str]:
    """`wh3 verify --mutate` for entry + offset at one braiding cell."""
    if offset == 0:
        raise ValueError(f"corruption of {cell} leaves the entry unchanged")
    return ["verify", "--check", ",".join(MUTATION_CHECKS),
            "--mutate", f"omega:{cell}=({entry}) + ({offset})",
            "--format", "json", "--no-timings"]


def corruptions(omega_json: str, seed: int) -> list[list[str]]:
    """Every distinct corruption of the nonzero braiding entries, in seeded order.

    omega_json is the output of `wh3 matrix --name omega --format json`.
    The order runs in rounds that visit every cell once, because the cost of
    a call depends mostly on the cell: a run that stops after any number of
    calls has then met every cell about equally often.
    """
    entries = json.loads(omega_json)["entries"]
    rng = random.Random(seed)
    cells = sorted(entries)
    offsets = {cell: rng.sample(MUTATION_OFFSETS, len(MUTATION_OFFSETS)) for cell in cells}
    order = []
    for round_ in range(len(MUTATION_OFFSETS)):
        rng.shuffle(cells)
        order += [corruption_argv(cell, entries[cell], offsets[cell][round_]) for cell in cells]
    return order


def score(expect: Expectation, exit_code: int | None, output: str | None) -> tuple[int, list[str]]:
    """Compare one call's exit code and JSON report with the known answer.

    Returns (verdicts attempted, descriptions of the verdicts that differ).
    A call that raised (exit_code None) or printed no parsable report fails
    every verdict it was due to give.
    """
    attempted = (1 + len(expect.passing) + len(expect.failing)
                 + len(expect.counterexample) + len(expect.failed_details))
    if exit_code is None:
        return attempted, ["call raised"] * attempted
    errors = []
    if exit_code != expect.exit_code:
        errors.append(f"exit code {exit_code}, expected {expect.exit_code}")
    try:
        reports = {r["check"]: r for r in json.loads(output)["reports"]}
    except (TypeError, ValueError, KeyError):
        return attempted, errors + ["no parsable report"] * (attempted - 1)
    for check in expect.passing:
        status = reports.get(check, {}).get("status")
        if status not in ("pass", "pass-modular"):
            errors.append(f"{check}: {status}, expected pass")
    for check in expect.failing:
        status = reports.get(check, {}).get("status")
        if status != "fail":
            errors.append(f"{check}: {status}, expected fail")
    for check, text in expect.counterexample.items():
        found = reports.get(check, {}).get("counterexample") or ""
        if text not in found:
            errors.append(f"{check}: counterexample {found[:80]!r} lacks {text!r}")
    for check, ids in expect.failed_details.items():
        found = [d["id"] for d in reports.get(check, {}).get("details", []) if not d["ok"]]
        if found != ids:
            errors.append(f"{check}: failing details {found}, expected {ids}")
    return attempted, errors
