"""The mfhrr benchmark: seeded workloads, each job in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``bench/workloads.py``):

* ``quadric_ext``: rank-4|4 Koszul splits of x^p+y^q+z^r and x^p+y^q+z*w;
  the module Groebner path (kernels, subquotients) does almost all the work.
* ``branch_tables``: full tables of rank-1|1 branch factorizations of a
  3-branch and a 4-branch plane curve, plus the 3-branch table stabilized
  to 4 variables; hundreds of small ideal bases, residues and Chern forms.
* ``tower``: ``mfhrr hoch-verify --seed N --utrunc 5`` through ``cli.main``;
  only the hochschild chain kernel works.

A run first starts a few set-up probes (interpreter start, imports, input
generation, then exit), then starts one job process after another while
the next one is expected to end within ``--seconds``.  A seed gives each
workload a fixed number of input sets (``INPUT_SETS``); jobs cycle through
them, every set at least once.  With ``--trace 0`` the run reports the
end-to-end metrics, medians over the jobs.  With ``--trace 1`` it
alternates untraced and traced jobs on the first input set and reports the
per-layer metrics of ``bench/tracer.py``.

Every run checks every output: each pair's two index computations agree,
each table obeys chi(P,Q) = (-1)^n chi(Q,P), the tower's suites pass, every
job of one input set gives the same result digest, and the digests equal
those recorded in ``bench/expected.json`` for the seed, where recorded.
``MFHRR_MAX_SPAIRS`` is removed from each job's environment.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit, and the full record (provenance included) is
written to ``.bench_out/``.  The exit code is 0 only when every check
passed.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("quadric_ext", "branch_tables", "tower")
SETUP_PROBES = 3
# a quadric_ext pair's cost moves by up to 2x with its random splits, and a
# branch table's by half with the 3-branch curve's Milnor number (4 to 16),
# so each seed gives three input sets and the median spans them
INPUT_SETS = {"quadric_ext": 3, "branch_tables": 3, "tower": 1}
RUN_DEADLINE_S = 170    # a run must end within 180 s, jobs included
ENV_MAX_SPAIRS = "MFHRR_MAX_SPAIRS"

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# measured while the benchmark was defined (Python 3.11.7, 2-core shared
# Intel Xeon VM; bench/oneshot.json records the CPU model string)
CAVEAT = ("On a shared 2-core machine CPU time tracked wall time run for run "
          "(tower at order 5: 5.7-8.6 s CPU against 5.8-9.1 s wall), so the "
          "spread comes from slower execution, not from waiting, and CPU time "
          "is no steadier than wall time.  The machine's speed drifted by up "
          "to a quarter within minutes; a timed stdlib loop run between jobs "
          "did not track it closely enough to correct for it.")


class BenchError(Exception):
    """The benchmark cannot run here (no program, a job died)."""


def _child_env():
    env = dict(os.environ)
    previous = env.pop(ENV_MAX_SPAIRS, None)
    env.pop("PYTHONPATH", None)
    return env, {"MFHRR_MAX_SPAIRS": "cleared" if previous is None
                 else f"cleared (was {previous!r})"}


def _start_job(deadline, env, workload, seed, part, *extra):
    launched = time.monotonic()
    argv = [sys.executable, os.path.join(BENCH, "job.py"), "--workload", workload,
            "--seed", str(seed), "--part", str(part), "--launched", repr(launched),
            *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} run passed its {RUN_DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} job exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _expected_digests(workload, seed):
    path = os.path.join(BENCH, "expected.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def _provenance():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "processor": platform.processor() or "unreported",
            "caveat": CAVEAT}


def run(workload, seed, seconds, trace):
    env, env_note = _child_env()
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    parts = 1 if trace else INPUT_SETS[workload]
    setups = [_start_job(deadline, env, workload, seed, k % parts, "--setup-only")
              for k in range(SETUP_PROBES)]
    jobs, traced = [], []
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    while True:
        begun = time.monotonic()
        part = len(jobs) % parts
        jobs.append(_start_job(deadline, env, workload, seed, part))
        if trace:
            traced.append(_start_job(deadline, env, workload, seed, part,
                                     "--trace-out", trace_file))
        now = time.monotonic()
        if len(jobs) >= parts and now - started + (now - begun) > seconds:
            break

    problems = []
    every = jobs + traced
    for job in setups + every:
        if job["max_spairs_env"] is not None:
            problems.append(f"{ENV_MAX_SPAIRS} reached a job: {job['max_spairs_env']}")
    for job in every:
        problems.extend(job["problems"])
    digests = []
    for part in range(parts):
        seen = sorted({job["digest"] for job in every if job["part"] == part})
        if len(seen) != 1:
            problems.append(f"jobs on input set {part} disagree: digests {seen}")
        digests.append(seen[0])
    expected = _expected_digests(workload, seed)
    if expected is not None and digests != expected[:parts]:
        problems.append(f"digests {digests} differ from the recorded {expected}")
    counts = [json.dumps(job["deterministic"], sort_keys=True) for job in traced]
    if len(set(counts)) > 1:
        problems.append("traced jobs of one seed gave different counts")

    attempted = sum(job["attempted"] for job in every)
    failed = sum(job["failed"] for job in every)
    latencies = [x for job in jobs for x in job["latencies"]]
    wall = statistics.median(job["wall_s"] for job in jobs)
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(job["setup_s"] for job in setups + every),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
    }
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(job["layers"][name] for job in traced)
        layers["trace.overhead_s"] = (
            statistics.median(job["wall_s"] for job in traced) - wall)
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in e2e.items()}

    info = {
        "pair_p50_ms": statistics.median(latencies) * 1000 if latencies else None,
        "pair_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1000
                        if latencies else None),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "jobs": len(jobs),
        "traced_jobs": len(traced),
        "cpu_s": statistics.median(job["cpu_s"] for job in jobs),
        "digests": digests,
        "digest_recorded": expected is not None,
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "provenance": _provenance(), "environment": env_note,
              "end_to_end": e2e, "info": info, "problems": problems,
              "setups": setups, "jobs": jobs, "traced": traced}
    with open(os.path.join(OUT_DIR, f"{workload}-{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} fail_ratio = {info['fail_ratio']:.6g} "
          f"({failed} of {attempted} operations failed)")
    if latencies:
        print(f"{workload} pair_p50_ms = {info['pair_p50_ms']:.6g} ms, pair_p90_ms = "
              f"{info['pair_p90_ms']:.6g} ms ({len(latencies)} hrr_check pairs, not gated)")
    print(f"{workload} jobs = {len(jobs)} untraced, {len(traced)} traced; "
          f"{env_note['MFHRR_MAX_SPAIRS']} {ENV_MAX_SPAIRS}; "
          f"digests {' '.join(d[:12] for d in digests)}"
          f"{' (matches the recorded one)' if expected and not problems else ''}")
    for problem in problems:
        print(f"{workload} CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_reuse"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM becomes an exception, so subprocess.run kills the running job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "mfhrr", "__init__.py")):
        print(f"error: no mfhrr sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
