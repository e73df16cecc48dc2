"""The wh3 benchmark: run one workload in fresh interpreters and report metrics.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload call runs in a fresh child interpreter (child.py), one process
at a time, because a `wh3 verify` user pays import and catalog set-up on
every run.  With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer metrics
of a traced child, next to an untraced child doing the same calls for the
tracing overhead.  Run records, spans and the cross-run state that detects
nondeterminism are written under .perfbench_runs/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 7  # set-up times per untraced run, including the workload children's
TIME_LIMIT = 170.0  # seconds one invocation may take, below the 180 s the driver allows


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py with spec; return its result and the monotonic spawn time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {spec['mode']} child of {spec['workload']}")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} child exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), spawned
    except (IndexError, ValueError):
        raise BenchError(f"{spec['workload']} child printed no result") from None


def source_fingerprint() -> str:
    """sha256 over the Python files of wh3 and of this benchmark: one commit."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def read_proc(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def run_metadata(seed: int) -> dict:
    cpuinfo = read_proc("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": (read_proc("/proc/loadavg") or "").strip(),
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
        "seed": seed,
    }


class State:
    """Report digests and call counts of earlier runs of the same program source.

    A verify report or a traced call count that differs between two runs of
    one commit with one seed means the program is not deterministic.
    """

    def __init__(self, fingerprint: str):
        self.path = OUT / "state.json"
        self.fingerprint = fingerprint
        try:
            self.doc = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.doc = {}

    def agree(self, key: str, field: str, value) -> list[str]:
        """Record value, or list how it differs from the one recorded earlier."""
        entry = self.doc.setdefault(self.fingerprint, {}).setdefault(key, {})
        previous = entry.setdefault(field, value)
        if previous == value:
            return []
        if isinstance(value, dict):
            return [f"{key} {field} {name}: {previous.get(name)} then {value.get(name)}"
                    for name in sorted(set(value) | set(previous))
                    if value.get(name) != previous.get(name)]
        return [f"{key} {field}: {previous} then {value}"]

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.doc, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def score_calls(workload: str, calls: list[dict], expect=None) -> tuple[int, list[str]]:
    expect = expect or workloads.EXPECTED[workload]
    attempted, errors = 0, []
    for c in calls:
        n, errs = workloads.score(expect, c["exit"], c["output"])
        attempted += n
        errors += [f"{' '.join(c['argv'][-6:])}: {e}" for e in errs]
    return attempted, errors


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


def measure(workload: str, seed: int, seconds: float, deadline: float, state: State) -> dict:
    """End-to-end metrics of one untraced run."""
    setups, children = [], []

    def sample_setup(times: int):
        for _ in range(times):
            res, spawned = spawn({"mode": "setup", "workload": workload, "seed": seed}, deadline)
            setups.append(res["ready"] - spawned)

    # Set-up samples before and after the calls meet more of the machine's
    # slow speed swings than a block of them taken together.
    sample_setup((SETUP_SAMPLES - 1) // 2)
    spec = {"mode": "calls", "workload": workload, "seed": seed, "seconds": seconds,
            "count": None, "spans": None}
    start = time.monotonic()
    while True:
        before = time.monotonic()
        res, spawned = spawn(spec, deadline)
        res["duration"] = time.monotonic() - before
        setups.append(res["ready"] - spawned)
        children.append(res)
        typical = statistics.median(c["duration"] for c in children)
        if workload == "mutation-controls" or time.monotonic() - start + typical > seconds:
            break
    sample_setup(SETUP_SAMPLES - len(setups))
    calls = [c for child in children for c in child["calls"]]
    attempted, errors = score_calls(workload, calls)
    problems = []
    if workload != "mutation-controls":
        for c in calls:
            problems += state.agree(f"{workload}/seed{seed}", "report_sha256", digest(c["output"]))
    return {
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            "setup_s": statistics.median(setups),
            "verify_s": statistics.median(c["wall"] for c in calls),
            "cpu_s": statistics.median(c["cpu"] for c in calls),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "verdict_correct_share": 1 - len(errors) / attempted,
        },
        "details": {"calls": len(calls), "children": len(children),
                    "setup_samples": setups, "errors": errors, "problems": problems,
                    "report_sha256": sorted({digest(c["output"]) for c in calls})},
    }


def measure_traced(workload: str, seed: int, deadline: float, state: State) -> dict:
    """Per-layer metrics of a traced child, and its overhead over an untraced twin."""
    count = workloads.TRACED_CORRUPTIONS if workload == "mutation-controls" else 1
    spans = OUT / f"spans-{workload}-seed{seed}.bin.gz"
    spec = {"mode": "calls", "workload": workload, "seed": seed, "seconds": None,
            "count": count, "spans": None}
    plain, _ = spawn(spec, deadline)
    traced, _ = spawn(dict(spec, spans=str(spans)), deadline)
    attempted, errors = score_calls(workload, plain["calls"] + traced["calls"])
    problems = []
    if [c["output"] for c in plain["calls"]] != [c["output"] for c in traced["calls"]]:
        problems.append("tracing changed a report")
    if workload != "mutation-controls":
        problems += state.agree(f"{workload}/seed{seed}", "report_sha256",
                                digest(plain["calls"][0]["output"]))
    if traced["nesting_errors"]:
        problems.append(f"{traced['nesting_errors']} spans outside their parent")
    layers = traced["layers"]
    for check in workloads.CHECK_IDS:  # checks the workload does not run took 0 s
        layers.setdefault(f"verify.{check}.s", 0.0)
    layers["trace.overhead_ratio"] = (sum(c["wall"] for c in traced["calls"])
                                      / sum(c["wall"] for c in plain["calls"]))
    counts = {k: v for k, v in layers.items()
              if k.endswith(".calls") or k in ("linalg.modular_points", "linalg.modular_retries")}
    problems += state.agree(f"{workload}/seed{seed}", "traced_calls", counts)
    return {
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": layers,
        "details": {"calls": len(traced["calls"]), "errors": errors, "problems": problems,
                    "spans_file": str(spans.relative_to(ROOT))},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    meta = run_metadata(seed)
    state = State(meta["source_sha256"])
    if trace:
        raw = measure_traced(workload, seed, deadline, state)
        wanted = bench["per_layer"]
    else:
        raw = measure(workload, seed, seconds, deadline, state)
        wanted = bench["end_to_end"]
    state.save()
    meta["loadavg_end"] = (read_proc("/proc/loadavg") or "").strip()
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    record = dict(raw, workload=workload, trace=trace, meta=meta)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for line in raw["details"]["errors"][:10] + raw["details"]["problems"][:10]:
        print(f"{workload}: {line}", file=sys.stderr)
    return {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the calls (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wh3" / "__init__.py").is_file():
        print(f"error: no wh3 source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), bench)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} verdicts={res['attempted']} failed={res['failed']}")
        if not args.trace:
            share = res["failed"] / res["attempted"]
            print(f"  {'verdict_error_share':<40} {share:>14.6g} share")
        for metric, value in res["metrics"].items():
            print(f"  {metric:<40} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
