"""One job of one workload, in a fresh interpreter.

    python3 bench/job.py --workload NAME --seed N --part K --launched T
                         [--setup-only | --trace-out FILE]

``--launched`` is the ``time.monotonic()`` reading the parent took just
before starting this process, so set-up time covers interpreter start,
imports and input generation.  The job prints one JSON line: set-up and job
wall time, CPU time, peak resident memory, hrr_check latencies, the
digest of the canonical results, and the failed checks.  With
``--trace-out`` the job runs under the span tracer, adds the per-layer
metrics to that line and writes the spans to the file.

Run it from the repository root; ``bench/run.py`` is the driver.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the src path above)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, required=True, help="input set of the seed")
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    inputs = workloads.build(args.workload, args.seed, args.part)
    out = {"setup_s": time.monotonic() - args.launched,
           "max_spairs_env": os.environ.get("MFHRR_MAX_SPAIRS")}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    result = workloads.run(args.workload, inputs)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    out.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies": result.latencies,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "part": args.part,
        "digest": result.digest(),
    })
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["deterministic"] = tracer.deterministic()
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
