"""One fresh interpreter of the benchmark: set up wh3, then run workload calls.

Run by run.py as `python3 perfbench/child.py SPEC_JSON` with wh3's source
on PYTHONPATH.  SPEC_JSON holds:

  mode      "setup" (import and build the catalog only) or "calls"
  workload  one of workloads.WORKLOADS
  seed      benchmark seed
  seconds   time budget for the calls (mutation-controls only)
  count     fixed number of calls instead of a time budget, or null
  spans     path to write the trace to, or null for an untraced run

Prints one JSON line: the monotonic clock reading when set-up finished, and
per call its exit code, report text, wall and CPU seconds; plus peak RSS and,
when traced, the per-layer metrics.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import workloads


def build_catalog(catalog):
    """omega, its inverse, every family and presentation, both errata settings."""
    catalog.omega()
    catalog.omega_inverse()
    for errata in (True, False):
        for fid in catalog.FAMILY_IDS:
            catalog.family(fid, errata)
        catalog.tt_presentation(errata)
        catalog.qg_presentation(errata)
        for variant in ("omega", "omega-inv"):
            catalog.calculus_presentation(variant, errata)


def call(cli, argv):
    """One `wh3` invocation through cli.run, with its stdout captured."""
    out = io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    except Exception:  # the harness must count the failure and go on
        traceback.print_exc()
        code = None
    return {"argv": argv, "exit": code, "output": out.getvalue(),
            "wall": time.perf_counter() - wall, "cpu": time.process_time() - cpu}


def main(spec):
    from wh3 import catalog, cli

    tracer = None
    if spec.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    build_catalog(catalog)
    ready = time.monotonic()
    result = {"ready": ready, "calls": []}
    if spec["mode"] == "calls":
        if spec["workload"] == "mutation-controls":
            omega = call(cli, workloads.OMEGA_ARGV)
            if omega["exit"] != 0:
                raise RuntimeError("wh3 matrix --name omega failed")
            todo = workloads.corruptions(omega["output"], spec["seed"])
        else:
            todo = [workloads.verify_argv(spec["workload"], spec["seed"])]
        count = spec.get("count")
        start = time.perf_counter()
        for index, argv in enumerate(todo[:count] if count else todo):
            if tracer is not None:
                tracer.run_id = index + 1
            result["calls"].append(call(cli, argv))
            if count is None:
                typical = statistics.median(c["wall"] for c in result["calls"])
                if time.perf_counter() - start + typical > spec["seconds"]:
                    break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["nesting_errors"] = len(tracer.check_nesting())
        tracer.write(spec["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
