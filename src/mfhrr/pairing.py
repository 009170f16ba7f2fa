"""The index identity two ways, plus the randomized verification harness.

For a pair of factorizations of the same potential the Euler characteristic
of the Z/2-graded Hom complex can be computed homologically (syzygies) or as
a signed Grothendieck residue of Chern-form top coefficients.  This module
computes both sides, calibrates the overall sign once per arity class
against the homological oracle, and packages corpus-scale comparison runs
together with the seeded identity suites for the chain-level operators.

The index side never touches the chain engine, so this module does not
import hochschild at load time: each identity suite imports the operators
it checks when it starts.  So hrr, pair and the other index commands run
without loading it, and only hoch-verify and corpus, which run the suites,
do.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .groebner import GroebnerLimitError, VerificationError, check_isolated
from .hkrtrace import cech_residue, chern_form
from .homalg import euler_chi
from .mfcat import (
    MatrixFactorization,
    MFValidationError,
    direct_sum_mf,
    dual_mf,
    json_polys,
    json_variables,
    koszul_mf,
    mf_from_json,
    shift_mf,
)
from .polyring import Poly, parse_poly
from .residue import jacobian_cover, res_product

# epsilon_n = (-1)^{n(n+1)/2}, tabulated by n mod 4 and recalibrated against
# the homological Euler characteristic on a reference instance per even class
EPSILON_TABLE = {0: 1, 1: -1, 2: -1, 3: 1}


class CalibrationError(RuntimeError):
    """The frozen sign table disagrees with a calibration instance."""


def epsilon_formula(n: int) -> int:
    return -1 if (n * (n + 1) // 2) % 2 else 1


@lru_cache(maxsize=None)
def _weighted_top(P: MatrixFactorization) -> Poly:
    """top(P) times the determinant of the Jacobian cover of P's potential:
    P's whole factor in every residue it enters, built once per P and keyed
    by content like chern_form."""
    return chern_form(P).top() * jacobian_cover(P.f).det


def _raw_residue_pairing(P: MatrixFactorization, Q: MatrixFactorization) -> int | Fraction:
    """Residue over the Jacobian ideal of top(Q) * top(P dual).

    Only reached in even arity, where the top of P's dual is P's own top:
    ch(P dual) = gamma(ch(P)), and gamma fixes a form of even degree at u^0.
    Through the cover the residue is one coefficient of
    top(Q) * top(P) * det, which res_product reads off top(Q) and P's
    cached weighted top without forming the product.
    """
    return res_product(chern_form(Q).top(), _weighted_top(P),
                       jacobian_cover(P.f).exponents)


def _calibration_instance(n: int) -> MatrixFactorization:
    if n == 2:
        variables = ("x", "y")
    else:
        variables = ("x1", "x2", "x3", "x4")
    a = [Poly.monomial(variables, tuple(1 if j == i else 0 for j in range(n)))
         for i in range(0, n, 2)]
    b = [Poly.monomial(variables, tuple(1 if j == i else 0 for j in range(n)))
         for i in range(1, n, 2)]
    return koszul_mf(variables, a, b)


@lru_cache(maxsize=None)
def calibrate_sign(n: int) -> int:
    """The sign epsilon_n, cross-checked against an actual instance.

    Odd arities pair to zero identically, so only the table value is
    reported there.  For even n the Koszul factorization of
    x1 x2 + ... + x_{n'-1} x_n' in the class representative arity
    n' in {2, 4} is paired against itself both ways; a mismatch means a
    convention drifted somewhere upstream and is a hard error.
    """
    if n < 1:
        raise ValueError(f"arity must be positive, got {n}")
    frozen = EPSILON_TABLE[n % 4]
    if n % 2:
        return frozen
    K = _calibration_instance(2 if n % 4 == 2 else 4)
    chi = euler_chi(K, K)
    raw = _raw_residue_pairing(K, K)
    if raw == 0 or abs(chi) != abs(raw):
        raise CalibrationError(
            f"calibration instance for n = {n}: |chi| = {abs(chi)} but "
            f"|residue| = {abs(raw)}")
    if Fraction(chi) / raw != frozen:
        raise CalibrationError(
            f"calibration instance for n = {n} fixes the sign "
            f"{Fraction(chi) / raw}, frozen table says {frozen}")
    return frozen


def canonical_pairing_u0(P: MatrixFactorization, Q: MatrixFactorization) -> int | Fraction:
    """epsilon_n times the residue of the product of Chern-form tops.

    Q contributes its own Chern form, P its dual's, whose top equals P's
    own in the even arities where the residue is taken.  In odd
    arity every top coefficient vanishes and the value is 0 (the potential
    is still validated so garbage input does not silently pair to zero).
    The value is an int when it is integral and a Fraction otherwise.
    """
    if P.vars != Q.vars or P.f != Q.f:
        raise MFValidationError("pairing needs a common potential")
    n = len(P.vars)
    if n % 2:
        check_isolated(P.f)
        return 0
    return calibrate_sign(n) * _raw_residue_pairing(P, Q)


@dataclass(frozen=True)
class PairingReport:
    chi_ext: int
    chi_residue: int | Fraction
    n: int
    epsilon: int
    passed: bool

    def jsonable(self) -> dict:
        return {
            "chi_ext": self.chi_ext,
            "chi_residue": str(self.chi_residue),
            "signs": {"n": self.n, "epsilon": self.epsilon,
                      "formula": epsilon_formula(self.n)},
            "pass": self.passed,
        }


def hrr_check(P: MatrixFactorization, Q: MatrixFactorization) -> PairingReport:
    """Both sides of the index identity, with exact equality as the verdict."""
    chi = euler_chi(P, Q)
    value = canonical_pairing_u0(P, Q)
    n = len(P.vars)
    return PairingReport(chi, value, n, calibrate_sign(n), value == chi)


# -- corpus ---------------------------------------------------------------------


def default_corpus() -> list:
    """The built-in comparison corpus (see README for the rationale)."""
    entries = []
    for d in range(2, 7):
        entries.append({
            "name": f"x^{d}",
            "vars": ["x"],
            "f": f"x^{d}",
            "mfs": [{"koszul": {"a": [f"x^{a}"], "b": [f"x^{d - a}"]}}
                    for a in range(1, d)],
        })
    entries.append({
        "name": "x*y",
        "vars": ["x", "y"],
        "f": "x*y",
        "mfs": [{"koszul": {"a": ["x"], "b": ["y"]}},
                {"koszul": {"a": ["y"], "b": ["x"]}}],
    })
    entries.append({
        "name": "x^2 + y^3",
        "vars": ["x", "y"],
        "f": "x^2 + y^3",
        "mfs": [{"koszul": {"a": ["x", "y"], "b": ["x", "y^2"]}}],
    })
    entries.append({
        "name": "x^2 + y^4",
        "vars": ["x", "y"],
        "f": "x^2 + y^4",
        "mfs": [{"koszul": {"a": ["x", "y"], "b": ["x", "y^3"]}}],
    })
    entries.append({
        "name": "x^2 + y^2 + z^2",
        "vars": ["x", "y", "z"],
        "f": "x^2 + y^2 + z^2",
        "mfs": [{"koszul": {"a": ["x", "y", "z"], "b": ["x", "y", "z"]}}],
    })
    return entries


def _load_entry_mf(spec, variables) -> MatrixFactorization:
    if isinstance(spec, dict) and "koszul" in spec:
        data = spec["koszul"]
        if not isinstance(data, dict):
            raise MFValidationError('"koszul" must be an object with "a" and "b"')
        a, b = (json_polys(f'"koszul" "{key}"', data[key], variables)
                for key in ("a", "b"))
        return koszul_mf(variables, a, b)
    return mf_from_json(spec)


_ENTRY_CHECKS = ("hrr", "symmetry", "shift", "sum")

# what loading or computing one corpus entry may raise: a malformed entry
# (a missing key, a bad polynomial, a JSON value of the wrong type), a
# rejected potential, an exhausted S-pair budget, a calibration mismatch or a
# failed exact re-check.  Each fails that entry only.
_ENTRY_ERRORS = (KeyError, ValueError, TypeError, GroebnerLimitError,
                 CalibrationError, VerificationError)


def _run_entry(entry, only_checks=None, timings=False) -> dict:
    started = time.perf_counter()
    name = str(entry.get("name") or entry.get("f", "?")) if isinstance(entry, dict) else "?"
    try:
        if not isinstance(entry, dict):
            raise TypeError(f"a corpus entry must be a JSON object, got {entry!r}")
        out = {"name": name, **_entry_checks(entry, only_checks)}
    except _ENTRY_ERRORS as e:
        return {"name": name, "pass": False, "error": f"{type(e).__name__}: {e}"}
    if timings:
        out["seconds"] = round(time.perf_counter() - started, 3)
    return out


def _entry_checks(entry, only_checks) -> dict:
    out = {"pass": True}
    variables = json_variables(entry["vars"])
    f = parse_poly(entry["f"], variables)
    check_isolated(f)
    mfs = [_load_entry_mf(s, variables) for s in entry.get("mfs", [])]
    for P in mfs:
        if P.f != f:
            raise MFValidationError(
                f"corpus factorization of {P.f}, entry potential is {f}")
    n = len(variables)
    checks = _ENTRY_CHECKS if only_checks is None else [
        c for c in _ENTRY_CHECKS if c in only_checks]
    m = len(mfs)
    reports = [[hrr_check(p, q) for q in mfs] for p in mfs]
    chi = [[r.chi_ext for r in row] for row in reports]
    val = [[r.chi_residue for r in row] for row in reports]

    if "hrr" in checks:
        out["hrr"] = [{"p": i, "q": j, **rep.jsonable()}
                      for i, row in enumerate(reports) for j, rep in enumerate(row)]
        out["pass"] = all(rep.passed for row in reports for rep in row)
    if "symmetry" in checks:
        sgn = (-1) ** n
        good = all(chi[i][j] == sgn * chi[j][i] and val[i][j] == sgn * val[j][i]
                   for i in range(m) for j in range(i, m))
        out["symmetry"] = {"sign": sgn, "pass": good}
        out["pass"] = out["pass"] and good
    if "shift" in checks:
        good = all(canonical_pairing_u0(mfs[i], shift_mf(mfs[j])) == -val[i][j]
                   for i in range(m) for j in range(m))
        out["shift"] = {"pass": good}
        out["pass"] = out["pass"] and good
    if "sum" in checks and m:
        a, c = 0, m - 1
        s = direct_sum_mf(mfs[a], mfs[c])
        good = (canonical_pairing_u0(s, mfs[c]) == val[a][c] + val[c][c]
                and canonical_pairing_u0(mfs[a], s) == val[a][a] + val[a][c])
        out["sum"] = {"pass": good}
        out["pass"] = out["pass"] and good
    return out


# -- identity suites --------------------------------------------------------------


def _suite_presentations():
    X = ("x",)
    XY = ("x", "y")
    k_x2 = koszul_mf(X, [parse_poly("x", X)], [parse_poly("x", X)])
    k_xy = koszul_mf(XY, [parse_poly("x", XY)], [parse_poly("y", XY)])
    return k_x2, k_xy


def _single_word(pres, rng, max_len):
    from .hochschild import ChainError, random_chain

    for _ in range(50):
        c = random_chain(pres, rng, max_len=max_len, max_exp=1, nterms=1)
        if c.terms:
            return c
    raise ChainError("could not sample a nonzero word")


def mixed_axioms_suite(*, count=200, seed=0) -> dict:
    """b^2 = 0, B^2 = 0, bB + Bb = 0 on seeded random normalized chains."""
    from .hochschild import B_op, b_op, endomorphism_presentation, random_chain

    k_x2, k_xy = _suite_presentations()
    presentations = [endomorphism_presentation(k_x2),
                     endomorphism_presentation(k_xy)]
    rng = random.Random(seed)
    per = -(-count // len(presentations))
    checked = failures = 0
    for pres in presentations:
        for _ in range(per):
            c = random_chain(pres, rng, max_len=4, max_exp=2, nterms=3)
            checked += 1
            bc, Bc = b_op(c), B_op(c)
            if not (b_op(bc).is_zero() and B_op(Bc).is_zero()
                    and (b_op(Bc) + B_op(bc)).is_zero()):
                failures += 1
    return {"pass": failures == 0, "chains": checked, "failures": failures,
            "seed": seed}


def shuffle_suite(*, count=100, seed=0, utrunc=4) -> dict:
    """The Connes exchange law and the full product commutation on u-series,
    on seeded random word pairs; the shuffle Leibniz rule b sh = sh (b x 1 +
    1 x b) is the full law's u^0 part, so it is checked there, once."""
    from .hochschild import (B_op, UChain, chain_parity, endomorphism_presentation,
                             kunneth_product, mixed_differential, sh_op)

    XY = ("x", "y")
    A = endomorphism_presentation(
        koszul_mf(XY, [parse_poly("x", XY)], [parse_poly("x", XY)]))
    B = endomorphism_presentation(
        koszul_mf(XY, [parse_poly("x", XY)], [parse_poly("y", XY)]))
    rng = random.Random(seed)
    checked = failures = 0
    for _ in range(count):
        wx = _single_word(A, rng, max_len=2)
        wy = _single_word(B, rng, max_len=2)
        sgn = (-1) ** chain_parity(wx)
        checked += 1
        Bwy = B_op(wy)
        exchange = (B_op(sh_op(wx, Bwy)) - sh_op(B_op(wx), Bwy)).is_zero()
        ux = UChain.from_chain(wx, utrunc)
        uy = UChain.from_chain(wy, utrunc)
        full = (mixed_differential(kunneth_product(ux, uy))
                - kunneth_product(mixed_differential(ux), uy)
                - kunneth_product(ux, mixed_differential(uy)).scale(sgn)).is_zero()
        if not (exchange and full):
            failures += 1
    return {"pass": failures == 0, "pairs": checked, "failures": failures,
            "seed": seed, "utrunc": utrunc}


def trace_chain_map_suite(*, count=100, seed=0) -> dict:
    """tr(b + uB) = (-df + u d) tr on seeded random chains, each taken as a
    u-series of order 3."""
    from .hochschild import (UChain, endomorphism_presentation, mixed_differential,
                             random_chain, tr_nabla)

    k_x2, k_xy = _suite_presentations()
    rng = random.Random(seed)
    checked = failures = 0
    per = -(-count // 2)
    for K in (k_x2, k_xy):
        pres = endomorphism_presentation(K)
        for _ in range(per):
            c = random_chain(pres, rng, max_len=3, max_exp=2, nterms=2)
            u = UChain.from_chain(c, 3)
            checked += 1
            if tr_nabla(mixed_differential(u)) != tr_nabla(u).twist_diff(K.f):
                failures += 1
    return {"pass": failures == 0, "chains": checked, "failures": failures,
            "seed": seed}


def phi_eta_suite(*, jmax=4, order=6) -> dict:
    """The inductive tower: the defining identity for each phi_j and the
    closure of each Cech class eta_j, both checked degree by degree.

    The constructors prove these identities before they return and raise
    ChainError when one fails, so the suite reports their verdicts."""
    from .hochschild import ChainError, eta_construct, phi_construct

    phi_ok = eta_ok = True
    for j in range(jmax + 1):
        try:
            phi_construct(j, order)
        except ChainError:
            phi_ok = False
        try:
            eta_construct(j, order)
        except ChainError:
            eta_ok = False
    return {"pass": phi_ok and eta_ok, "phi": phi_ok, "eta": eta_ok,
            "jmax": jmax, "order": order}


def local_residue_suite(*, jmax=4, order=3) -> dict:
    """res of the traced Cech classes against the operator trace: the
    one-variable index theorem in its local form."""
    from .hochschild import eta_construct, euler_trace, tr_nabla_cech, y_power

    good = True
    values = []
    for j in range(jmax + 1):
        eta = eta_construct(j, order)
        res = cech_residue(tr_nabla_cech(eta))
        want = {0: -1} if j == 0 else {}
        tr = euler_trace(y_power(j))
        values.append({"j": j, "res": {str(k): str(v) for k, v in res.items()},
                       "trace": str(tr)})
        good = good and res == want and tr == (1 if j == 0 else 0)
    return {"pass": good, "values": values, "order": order}


def duality_suite(*, count=50, seed=0) -> dict:
    """Psi commutes with b and anticommutes with B on random chains."""
    from .hochschild import B_op, b_op, endomorphism_presentation, psi_op, random_chain

    X = ("x",)
    P = koszul_mf(X, [parse_poly("x", X)], [parse_poly("x", X)])
    E = endomorphism_presentation(P)
    ED = endomorphism_presentation(dual_mf(P))
    rng = random.Random(seed)
    checked = failures = 0
    for _ in range(count):
        c = random_chain(E, rng, max_len=4, max_exp=2, nterms=3)
        checked += 1
        psi_c = psi_op(c, ED)
        if not ((psi_op(b_op(c), ED) - b_op(psi_c)).is_zero()
                and (psi_op(B_op(c), ED) + B_op(psi_c)).is_zero()):
            failures += 1
    return {"pass": failures == 0, "chains": checked, "failures": failures,
            "seed": seed}


def identity_suites(*, seed=0, count=40, utrunc=4, jmax=2,
                    timings=False) -> dict:
    """All chain-level suites with one master seed; the per-suite seeds are
    offsets so reruns with the same seed are reproducible term by term."""
    runs = {
        "mixed_axioms": lambda: mixed_axioms_suite(count=count, seed=seed),
        "shuffle": lambda: shuffle_suite(count=max(10, count // 2), seed=seed + 1,
                                         utrunc=utrunc),
        "trace_chain_map": lambda: trace_chain_map_suite(count=count, seed=seed + 2),
        "phi_eta": lambda: phi_eta_suite(jmax=jmax, order=utrunc),
        "local_residue": lambda: local_residue_suite(jmax=jmax,
                                                     order=min(utrunc, 3)),
        "duality": lambda: duality_suite(count=count, seed=seed + 3),
    }
    out = {}
    for name, run in runs.items():
        started = time.perf_counter()
        out[name] = run()
        if timings:
            out[name]["seconds"] = round(time.perf_counter() - started, 3)
    return out


def run_corpus(entries, *, seed=0, utrunc=4, suite_count=40, jmax=2,
               suites=True, only_checks=None, timings=False) -> dict:
    """Comparison run over corpus entries plus the identity suites.

    Per-entry failures (including validation rejections) are recorded and
    the run continues; the summary aggregates everything.  An empty corpus
    is an empty passing report.
    """
    entries = list(entries)
    if not entries:
        return {"entries": [], "summary": {"pass": True}}
    rows = [_run_entry(e, only_checks=only_checks, timings=timings)
            for e in entries]
    ok = all(r["pass"] for r in rows)
    report = {"entries": rows}
    if suites:
        suite_rows = identity_suites(seed=seed, count=suite_count, utrunc=utrunc,
                                     jmax=jmax, timings=timings)
        ok = ok and all(s["pass"] for s in suite_rows.values())
        report["suites"] = suite_rows
    report["summary"] = {
        "pass": ok,
        "seed": seed,
        "epsilon": {str(k): v for k, v in EPSILON_TABLE.items()},
    }
    return report
