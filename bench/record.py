"""Records that later runs of the benchmark are held to.

    python3 bench/record.py digests   # harvest result digests into expected.json
    python3 bench/record.py oneshot   # ROADMAP end-to-end figures -> oneshot.json

``digests`` reads the run records that ``bench/run.py`` left in
``.bench_out/`` (untraced runs whose checks all passed) and stores each
seed's result digests in ``bench/expected.json``; a digest already recorded
is never replaced, and a disagreeing one is an error.

``oneshot`` times, once and without gating, ``mfhrr corpus --seed 11`` in a
fresh interpreter, checks its stdout against the SHA-256 recorded in
``bench/expected.json``, and times each README acceptance criterion
(``tests/test_acceptance.py``) against its budget.  Run from the repository
root; both commands start one process at a time.
"""

import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "bench", "expected.json")
ONESHOT = os.path.join(ROOT, "bench", "oneshot.json")

# README "Tests and the acceptance gate": budget in seconds, None = no budget
BUDGETS = {1: 10, 2: 30, 3: 30, 4: 10, 5: 30, 6: 30, 7: 300, 8: None, 9: None,
           10: None}


def _load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _save(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def digests():
    expected = _load_expected()
    added = 0
    for path in sorted(glob.glob(os.path.join(ROOT, ".bench_out", "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["problems"] or rec["info"]["fail_ratio"]:
            continue
        table = expected["digests"].setdefault(rec["workload"], {})
        old = table.get(str(rec["seed"]))
        new = rec["info"]["digests"]
        if old is None:
            table[str(rec["seed"])] = new
            added += 1
        elif old != new:
            raise SystemExit(f"{path}: digests {new} differ from the recorded {old}")
    _save(EXPECTED, expected)
    print(f"recorded {added} new seed digests in {EXPECTED}")


def _env():
    env = dict(os.environ)
    env.pop("MFHRR_MAX_SPAIRS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unreported"


def oneshot():
    expected = _load_expected()
    env = _env()
    started = time.perf_counter()
    corpus = subprocess.run([sys.executable, "-m", "mfhrr.cli", "corpus", "--seed", "11"],
                            cwd=ROOT, env=env, capture_output=True, timeout=600)
    corpus_s = time.perf_counter() - started
    sha = hashlib.sha256(corpus.stdout).hexdigest()
    want = expected.get("corpus_seed11_sha256")

    started = time.perf_counter()
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "-rA",
         "-p", "no:cacheprovider", "--durations=0", "--durations-min=0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    tests_s = time.perf_counter() - started
    seconds, outcome = {}, {}
    for line in tests.stdout.splitlines():
        m = re.match(r"\s*([\d.]+)s call\s+tests/test_acceptance.py::test_criterion_(\d+)",
                     line)
        if m:
            seconds[int(m.group(2))] = float(m.group(1))
        m = re.match(r"(PASSED|FAILED) tests/test_acceptance.py::test_criterion_(\d+)", line)
        if m:
            outcome[int(m.group(2))] = m.group(1)
    criteria = {f"{k:02d}": {"seconds": seconds.get(k), "budget_s": BUDGETS[k],
                             "outcome": outcome.get(k, "not run"),
                             "within_budget": (None if BUDGETS[k] is None
                                               or k not in seconds
                                               else seconds[k] < BUDGETS[k])}
                for k in sorted(BUDGETS)}
    record = {
        "provenance": {"python": platform.python_version(), "nproc": os.cpu_count(),
                       "cpu": _cpu_model(),
                       "note": "measured once, not gated; wall clock on a shared "
                               "machine, so expect run-to-run spread"},
        "corpus_seed11": {"seconds": corpus_s, "exit_code": corpus.returncode,
                          "stdout_sha256": sha, "recorded_sha256": want,
                          "byte_identical": sha == want},
        "acceptance": {"pytest_exit_code": tests.returncode, "total_s": tests_s,
                       "criteria": criteria},
    }
    _save(ONESHOT, record)
    for k, c in criteria.items():
        print(f"criterion {k}: {c['outcome']} {c['seconds']} s (budget {c['budget_s']})")
    print(f"corpus --seed 11: {corpus_s:.2f} s, stdout sha256 {sha[:16]} "
          f"{'matches' if sha == want else 'DIFFERS from'} the recorded one")
    return 0 if sha == want else 1


if __name__ == "__main__":
    commands = {"digests": digests, "oneshot": oneshot}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        raise SystemExit(f"usage: python3 bench/record.py {{{'|'.join(commands)}}}")
    raise SystemExit(commands[sys.argv[1]]())
