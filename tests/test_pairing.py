from __future__ import annotations

import json
from fractions import Fraction

import pytest

from mfhrr import pairing
from mfhrr.groebner import ENV_MAX_SPAIRS, IsolatedSingularityError
from mfhrr.hochschild import ChainError
from mfhrr.homalg import euler_chi
from mfhrr.mfcat import (MFValidationError, direct_sum_mf, koszul_mf, shift_mf,
                         tensor_mf)
from mfhrr.pairing import (EPSILON_TABLE, calibrate_sign, canonical_pairing_u0,
                           default_corpus, epsilon_formula, hrr_check,
                           identity_suites, phi_eta_suite, run_corpus)
from mfhrr.polyring import parse_poly

X = ("x",)
XY = ("x", "y")


def kmf(variables, a, b):
    return koszul_mf(variables,
                     [parse_poly(s, variables) for s in a],
                     [parse_poly(s, variables) for s in b])


@pytest.fixture(scope="module")
def k_xy():
    return kmf(XY, ["x"], ["y"])


@pytest.fixture(scope="module")
def k_yx():
    return kmf(XY, ["y"], ["x"])


# -- signs -----------------------------------------------------------------------

def test_epsilon_table_matches_formula():
    for n in range(1, 9):
        assert EPSILON_TABLE[n % 4] == epsilon_formula(n)


def test_calibration_agrees_with_table():
    for n in range(1, 7):
        assert calibrate_sign(n) == EPSILON_TABLE[n % 4]


def test_calibrate_rejects_nonpositive():
    with pytest.raises(ValueError):
        calibrate_sign(0)


# -- the pairing -------------------------------------------------------------------

def test_worked_pairing_value(k_xy):
    assert canonical_pairing_u0(k_xy, k_xy) == 1
    assert euler_chi(k_xy, k_xy) == 1


def test_cross_pair_value(k_xy, k_yx):
    assert canonical_pairing_u0(k_xy, k_yx) == -1
    assert canonical_pairing_u0(k_yx, k_xy) == -1


def test_odd_arity_pairs_to_zero():
    p1 = kmf(X, ["x"], ["x^2"])
    assert canonical_pairing_u0(p1, p1) == 0
    XYZ = ("x", "y", "z")
    sphere = kmf(XYZ, ["x", "y", "z"], ["x", "y", "z"])
    assert canonical_pairing_u0(sphere, sphere) == 0


def test_odd_arity_still_validates():
    bad = koszul_mf(X, [parse_poly("x^2", X)], [parse_poly("x", X)])
    # potential x^3 is fine; x^2*y over two variables is not isolated
    assert canonical_pairing_u0(bad, bad) == 0
    worse = kmf(XY, ["x^2"], ["y"])
    with pytest.raises(IsolatedSingularityError):
        canonical_pairing_u0(worse, worse)


def test_pairing_requires_common_potential(k_xy):
    other = kmf(XY, ["x", "y"], ["x", "y^2"])
    with pytest.raises(MFValidationError):
        canonical_pairing_u0(k_xy, other)


def test_shift_antisymmetry(k_xy, k_yx):
    for p in (k_xy, k_yx):
        for q in (k_xy, k_yx):
            assert (canonical_pairing_u0(p, shift_mf(q))
                    == -canonical_pairing_u0(p, q))


def test_sum_bilinearity(k_xy, k_yx):
    s = direct_sum_mf(k_xy, k_yx)
    want = canonical_pairing_u0(k_xy, k_xy) + canonical_pairing_u0(k_yx, k_xy)
    assert canonical_pairing_u0(s, k_xy) == want
    assert canonical_pairing_u0(k_xy, s) == (
        canonical_pairing_u0(k_xy, k_xy) + canonical_pairing_u0(k_xy, k_yx))


def test_symmetry_sign(k_xy, k_yx):
    for p in (k_xy, k_yx):
        for q in (k_xy, k_yx):
            assert euler_chi(p, q) == euler_chi(q, p)
            assert canonical_pairing_u0(p, q) == canonical_pairing_u0(q, p)


def test_hrr_report(k_xy):
    rep = hrr_check(k_xy, k_xy)
    assert rep.passed and rep.chi_ext == 1 and rep.chi_residue == 1
    data = rep.jsonable()
    assert data["pass"] is True
    assert data["chi_residue"] == "1"
    assert data["signs"] == {"n": 2, "epsilon": -1, "formula": -1}


def test_chi_multiplicative_under_tensor():
    ZW = ("z", "w")
    V4 = ("x", "y", "z", "w")
    A = [kmf(XY, ["x"], ["y"]), kmf(XY, ["y"], ["x"])]
    B = [kmf(ZW, ["z"], ["w"]), kmf(ZW, ["w"], ["z"])]
    AV = [kmf(V4, ["x"], ["y"]), kmf(V4, ["y"], ["x"])]
    BV = [kmf(V4, ["z"], ["w"]), kmf(V4, ["w"], ["z"])]
    T = tensor_mf(AV[0], BV[0])
    for i in range(2):
        for j in range(2):
            chi4 = euler_chi(T, tensor_mf(AV[i], BV[j]))
            assert chi4 == euler_chi(A[0], A[i]) * euler_chi(B[0], B[j])


# -- corpus -----------------------------------------------------------------------

def test_empty_corpus():
    assert run_corpus([]) == {"entries": [], "summary": {"pass": True}}


def test_default_corpus_passes():
    rep = run_corpus(default_corpus(), seed=7, suite_count=12, jmax=1, order=3)
    assert rep["summary"]["pass"] is True
    names = [e["name"] for e in rep["entries"]]
    assert names[:5] == ["x^2", "x^3", "x^4", "x^5", "x^6"]
    assert "x*y" in names and "x^2 + y^2 + z^2" in names
    xy = next(e for e in rep["entries"] if e["name"] == "x*y")
    assert [r["chi_ext"] for r in xy["hrr"]] == [1, -1, -1, 1]
    assert all(s["pass"] for s in rep["suites"].values())


def test_non_isolated_entry_rejected_run_continues():
    entries = [
        {"name": "bad", "vars": ["x", "y"], "f": "x^2*y", "mfs": []},
        {"name": "good", "vars": ["x", "y"], "f": "x*y",
         "mfs": [{"koszul": {"a": ["x"], "b": ["y"]}}]},
    ]
    rep = run_corpus(entries, suites=False)
    bad, good = rep["entries"]
    assert bad["pass"] is False and "IsolatedSingularityError" in bad["error"]
    assert good["pass"] is True
    assert rep["summary"]["pass"] is False



def test_spair_budget_fails_entries_not_the_run(monkeypatch):
    monkeypatch.setenv(ENV_MAX_SPAIRS, "20")
    rep = run_corpus(default_corpus(), suites=False)
    assert len(rep["entries"]) == len(default_corpus())
    failed = [e for e in rep["entries"] if "error" in e]
    assert failed
    assert all(e["error"].startswith("GroebnerLimitError") and e["pass"] is False
               for e in failed)
    assert rep["summary"]["pass"] is False

def test_mismatched_entry_potential_rejected():
    entries = [{"name": "wrong", "vars": ["x", "y"], "f": "x*y",
                "mfs": [{"koszul": {"a": ["x", "y"], "b": ["x", "y^2"]}}]}]
    rep = run_corpus(entries, suites=False)
    assert rep["entries"][0]["pass"] is False
    assert "MFValidationError" in rep["entries"][0]["error"]


def test_corpus_report_deterministic():
    kw = dict(seed=3, suite_count=10, jmax=1, order=3)
    a = json.dumps(run_corpus(default_corpus(), **kw), sort_keys=True)
    b = json.dumps(run_corpus(default_corpus(), **kw), sort_keys=True)
    assert a == b
    assert "seconds" not in a


def test_suite_counts_and_seeds():
    rows = identity_suites(seed=11, count=8, utrunc=3, jmax=0, order=3)
    assert rows["mixed_axioms"]["chains"] >= 8
    assert rows["mixed_axioms"]["seed"] == 11
    assert rows["duality"]["seed"] == 14
    assert all(v["pass"] for v in rows.values())


def test_phi_eta_suite_reports_constructor_failures(monkeypatch):
    # the suite takes its verdicts from the constructors' own checks, so a
    # constructor that rejects its identity must turn the suite red
    def broken(j, order):
        raise ChainError(f"identity failed at j={j}, order {order}")

    monkeypatch.setattr(pairing, "phi_construct", broken)
    rep = phi_eta_suite(jmax=1, order=3)
    assert rep["phi"] is False and rep["eta"] is True and rep["pass"] is False
    monkeypatch.undo()
    monkeypatch.setattr(pairing, "eta_construct", broken)
    rep = phi_eta_suite(jmax=1, order=3)
    assert rep["phi"] is True and rep["eta"] is False and rep["pass"] is False
    monkeypatch.undo()
    assert phi_eta_suite(jmax=1, order=3)["pass"] is True
