"""Seeded workload generators, the jobs that run them, and their output checks.

Each workload is a function of the seed alone: ``build(name, seed, part)``
makes input set ``part`` of the seed, and ``run(name, inputs)`` feeds it to
the program and returns a :class:`JobResult` that holds the canonical
results, the hrr_check latencies and the failed checks.  The program sees
only the generated inputs; for ``tower`` the input is the seed that
``hoch-verify`` draws its random chains from.

The module imports ``mfhrr``, so it is only imported inside a job process
(``bench/job.py``), never by the driver.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from mfhrr import cli
from mfhrr.mfcat import koszul_mf, tensor_mf
from mfhrr.pairing import hrr_check
from mfhrr.polyring import parse_poly

WORKLOADS = ("quadric_ext", "branch_tables", "tower")

XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")
XY = ("x", "y")
XYUV = ("x", "y", "u", "v")

# hoch-verify at one order below criterion 3, whose order 6 takes about
# 40 s on a 2-core Xeon VM (--utrunc sets the tower order too)
TOWER_ARGV = ("hoch-verify", "--utrunc", "5")


@dataclass
class JobResult:
    canonical: list = field(default_factory=list)   # what the digest covers
    latencies: list = field(default_factory=list)   # seconds per hrr_check pair
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)    # failed checks, in words

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def digest(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _rng(workload, seed, part):
    return random.Random(f"{workload}/{seed}/{part}")


# -- quadric_ext ----------------------------------------------------------------


def _koszul_split(rng, variables, pairs):
    """K(a, b) from the (a_i, b_i) pairs, taken in a random order."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    a = [parse_poly(s, variables) for s, _ in pairs]
    b = [parse_poly(s, variables) for _, s in pairs]
    return koszul_mf(variables, a, b), pairs


def _power_split(rng, var, p):
    i = rng.randint(1, p - 1)
    return (f"{var}^{i}", f"{var}^{p - i}")


def build_quadric_ext(seed, part):
    """4 potentials, alternating x^p+y^q+z^r and x^p+y^q+z*w, each with two
    random rank-4|4 Koszul splits P and Q."""
    rng = _rng("quadric_ext", seed, part)
    items = []
    for k in range(4):
        p, q, r = (rng.choice((2, 3, 4)) for _ in range(3))
        splits = []
        for _ in range(2):
            if k % 2 == 0:
                variables = XYZ
                f = f"x^{p} + y^{q} + z^{r}"
                summands = [_power_split(rng, "x", p), _power_split(rng, "y", q),
                            _power_split(rng, "z", r)]
            else:
                variables = XYZW
                f = f"x^{p} + y^{q} + z*w"
                summands = [_power_split(rng, "x", p), _power_split(rng, "y", q),
                            rng.choice((("z", "w"), ("w", "z")))]
            splits.append(_koszul_split(rng, variables, summands))
        (P, p_spec), (Q, q_spec) = splits
        items.append({"f": f, "P": P, "Q": Q, "specs": [p_spec, q_spec]})
    return items


def run_quadric_ext(items):
    out = JobResult()
    for item in items:
        for label, (P, Q) in (("PP", (item["P"], item["P"])),
                              ("PQ", (item["P"], item["Q"]))):
            row = _checked_pair(out, P, Q, f"{item['f']} {label}")
            out.canonical.append([item["f"], item["specs"], label, row])
    return out


# -- branch_tables ------------------------------------------------------------------


def _curve(rng, k):
    """k distinct branches x - c*y^e with one e per curve, and with
    probability 1/2 one branch replaced by y.  Branches sharing e and
    differing in c meet only at the origin, so the product is reduced with
    an isolated singularity there."""
    e = rng.choice((1, 2, 3))
    # coefficient size, not e, drives the cost: |c| <= 2 keeps it level
    cs = rng.sample((-2, -1, 1, 2), k)
    branches = [f"(x - {c}*y^{e})" if c > 0 else f"(x + {-c}*y^{e})" for c in cs]
    if rng.random() < 0.5:
        branches[rng.randrange(k)] = "y"
    return branches


def _branch_splits(branches, variables):
    """The rank-1|1 factorizations K(prod S, prod S^c), S a proper subset."""
    k = len(branches)
    mfs = []
    for mask in range(1, 2 ** k - 1):
        a = "*".join(b for i, b in enumerate(branches) if mask >> i & 1)
        c = "*".join(b for i, b in enumerate(branches) if not mask >> i & 1)
        mfs.append(koszul_mf(variables, [parse_poly(a, variables)],
                             [parse_poly(c, variables)]))
    return mfs


def build_branch_tables(seed, part):
    """A 3-branch and a 4-branch plane curve, plus the 3-branch table
    stabilized to 4 variables by tensoring with K(u, v) (Knoerrer)."""
    rng = _rng("branch_tables", seed, part)
    three = _curve(rng, 3)
    four = _curve(rng, 4)
    uv = koszul_mf(XYUV, [parse_poly("u", XYUV)], [parse_poly("v", XYUV)])
    f3 = "*".join(three)
    return [
        {"name": f3, "n": 2, "mfs": _branch_splits(three, XY)},
        {"name": "*".join(four), "n": 2, "mfs": _branch_splits(four, XY)},
        {"name": f"{f3} + u*v", "n": 4,
         "mfs": [tensor_mf(P, uv) for P in _branch_splits(three, XYUV)]},
    ]


def run_branch_tables(tables):
    out = JobResult()
    for table in tables:
        mfs = table["mfs"]
        m = len(mfs)
        grid = [[_checked_pair(out, mfs[i], mfs[j], f"{table['name']} [{i},{j}]")
                 for j in range(m)] for i in range(m)]
        sign = (-1) ** table["n"]
        for i in range(m):
            for j in range(i + 1, m):
                a, b = grid[i][j], grid[j][i]
                if a is None or b is None:
                    continue
                if a[0] != sign * b[0] or Fraction(a[1]) != sign * Fraction(b[1]):
                    out.problems.append(
                        f"{table['name']}: chi[{i},{j}] = {a} but chi[{j},{i}] = {b}"
                        f" breaks chi(P,Q) = (-1)^{table['n']} chi(Q,P)")
        out.canonical.append([table["name"], grid])
    return out


# -- tower --------------------------------------------------------------------------


def build_tower(seed, part):
    if part:
        raise ValueError("tower has one input set per seed")
    return [*TOWER_ARGV, "--seed", str(seed)]


def run_tower(argv):
    out = JobResult()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        report = json.loads(buf.getvalue())
        suites = report["suites"]
    except Exception as e:  # a job records its failure and keeps its result line
        out.attempted += 1
        out.fail(f"hoch-verify raised {type(e).__name__}: {e}")
        return out
    for name in sorted(suites):
        out.attempted += 1
        if not suites[name].get("pass"):
            out.fail(f"suite {name} failed: {suites[name]}")
    if code != 0 or not report["summary"]["pass"]:
        out.problems.append(f"hoch-verify exit code {code}, summary {report['summary']}")
    out.canonical.append(buf.getvalue())
    return out


# -- shared ------------------------------------------------------------------------


def _checked_pair(out, P, Q, label):
    """hrr_check(P, Q), timed; returns [chi_ext, chi_residue] or None."""
    out.attempted += 1
    started = time.perf_counter()
    try:
        rep = hrr_check(P, Q)
    except Exception as e:  # one bad pair fails that pair only
        out.latencies.append(time.perf_counter() - started)
        out.fail(f"{label}: hrr_check raised {type(e).__name__}: {e}")
        return None
    out.latencies.append(time.perf_counter() - started)
    if not rep.passed:
        out.fail(f"{label}: chi_ext {rep.chi_ext} != chi_residue {rep.chi_residue}")
    return [rep.chi_ext, str(rep.chi_residue)]


BUILDERS = {"quadric_ext": build_quadric_ext, "branch_tables": build_branch_tables,
            "tower": build_tower}
RUNNERS = {"quadric_ext": run_quadric_ext, "branch_tables": run_branch_tables,
           "tower": run_tower}


def build(workload, seed, part):
    """Inputs of one job: input set ``part`` of ``seed``."""
    return BUILDERS[workload](seed, part)


def run(workload, inputs) -> JobResult:
    return RUNNERS[workload](inputs)
