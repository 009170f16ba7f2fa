from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from mfhrr import groebner, hochschild, pairing
from mfhrr.cli import main
from mfhrr.groebner import (ENV_MAX_SPAIRS, IsolatedSingularityError, check_isolated,
                            graph_basis)
from mfhrr.hkrtrace import chern_form
from mfhrr.hochschild import Chain, ChainError
from mfhrr.homalg import _differential_graph, _homology_half, euler_chi, is_koszul_regular
from mfhrr.mfcat import (MFValidationError, direct_sum_mf, dual_mf, koszul_mf,
                         shift_mf, tensor_mf)
from mfhrr.pairing import (EPSILON_TABLE, calibrate_sign, canonical_pairing_u0,
                           default_corpus, epsilon_formula, hrr_check,
                           identity_suites, phi_eta_suite, run_corpus,
                           shuffle_suite)
from mfhrr.polyring import LaurentError, Poly, parse_poly
from mfhrr.residue import jacobian_cover, res_monomial, res_product

X = ("x",)
XY = ("x", "y")
XYUV = ("x", "y", "u", "v")


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


def test_laurent_chern_tops_raise():
    # K(x/y, y^2 + x*y) factors x^2 + x*y, but its Chern top is -2x/y - 2
    inv_y = Poly(XY, {(0, -1): Fraction(1)})
    K = koszul_mf(XY, [parse_poly("x", XY) * inv_y], [parse_poly("y^2 + x*y", XY)])
    with pytest.raises(LaurentError):
        canonical_pairing_u0(K, K)


# -- nonzero index tables ------------------------------------------------------------

def branch_splits(branches, variables):
    """K(prod S, prod S^c) for each proper subset S of the branches, in mask
    order: bit i of the mask puts branch i into S."""
    k = len(branches)
    mfs = []
    for mask in range(1, 2 ** k - 1):
        a = "*".join(b for i, b in enumerate(branches) if mask >> i & 1)
        c = "*".join(b for i, b in enumerate(branches) if not mask >> i & 1)
        mfs.append(kmf(variables, [a], [c]))
    return mfs


D4 = ["y", "(x - y)", "(x + y)"]
D4_CHI = [[2, -1, 1, -1, 1, -2],
          [-1, 2, 1, -1, -2, 1],
          [1, 1, 2, -2, -1, -1],
          [-1, -1, -2, 2, 1, 1],
          [1, -2, -1, 1, 2, -1],
          [-2, 1, -1, 1, -1, 2]]


@pytest.fixture(scope="module")
def nonzero_tables():
    """name -> (factorizations, chi grid); D4 + u*v is n = 4, Knoerrer
    stabilized, and off the n = 4 calibration instance."""
    uv = kmf(XYUV, ["u"], ["v"])
    return {
        "A3": (branch_splits(["(x - y^2)", "(x + y^2)"], XY), [[2, -2], [-2, 2]]),
        "A5": (branch_splits(["(x - y^3)", "(x + y^3)"], XY), [[3, -3], [-3, 3]]),
        "D4": (branch_splits(D4, XY), D4_CHI),
        "D4 + u*v": ([tensor_mf(P, uv) for P in branch_splits(D4, XYUV)], D4_CHI),
    }


def test_nonzero_index_tables(nonzero_tables):
    # all four tables in one process: A3 and A5 share their variables, so a
    # cache keyed on less than the potential would pair one with the other
    for name, (mfs, want) in nonzero_tables.items():
        reports = [[hrr_check(P, Q) for Q in mfs] for P in mfs]
        assert [[r.chi_ext for r in row] for row in reports] == want, name
        assert [[r.chi_residue for r in row] for row in reports] == want, name
        assert all(r.passed for row in reports for r in row), name


D6_CHI = [[2, -1, 1, -1, 1, -2],
          [-1, 3, 2, -2, -3, 1],
          [1, 2, 3, -3, -2, -1],
          [-1, -2, -3, 3, 2, 1],
          [1, -3, -2, 2, 3, -1],
          [-2, 1, -1, 1, -1, 2]]


def test_one_coefficient_residue_matches_the_full_product(nonzero_tables):
    # the pairing reads one coefficient of top(Q) * top(P) * det; formed in
    # full, the product gives the same residue, on D4, on D4 + u*v (n = 4),
    # on rank-4|4 sums of D4 + u*v factorizations and on rank-4|4 splits of
    # x^2 + y^3 + z*w, whose Chern tops vanish (a one-variable tensor
    # factor has Chern form 0)
    XYZW = ("x", "y", "z", "w")
    stabilized = nonzero_tables["D4 + u*v"][0]
    quadrics = [kmf(XYZW, ["x", "y", "z"], ["x", "y^2", "w"]),
                kmf(XYZW, ["w", "y", "x"], ["z", "y^2", "x"])]
    sums = [direct_sum_mf(stabilized[0], stabilized[1]),
            direct_sum_mf(stabilized[2], stabilized[5])]
    assert all(len(P.delta0) == 4 for P in quadrics + sums)
    cases = {"D4": nonzero_tables["D4"][0], "D4 + u*v": stabilized,
             "rank 4|4 sums": sums, "rank 4|4 quadric": quadrics}
    for name, mfs in cases.items():
        cover = jacobian_cover(mfs[0].f)
        values = set()
        for P in mfs:
            for Q in mfs:
                top_q, top_p = chern_form(Q).top(), chern_form(P).top()
                full = res_monomial(top_q * top_p * cover.det, cover.exponents)
                raw = pairing._raw_residue_pairing(P, Q)
                assert raw == full and type(raw) is type(full), name
                assert res_product(top_q, top_p * cover.det, cover.exponents) == full
                values.add(full)
        assert (values == {0}) == (name == "rank 4|4 quadric"), name


def test_nonzero_tables_corpus_file(nonzero_tables, capsys):
    # the shipped corpus file, through the CLI: D4 + u*v is given by
    # two-pair Koszul specs (prod S, u; prod S^c, v) instead of tensor_mf
    path = Path(__file__).parent / "data" / "nonzero_tables.json"
    code = main(["hrr", "--corpus", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["summary"]["pass"] is True
    grids = {name: want for name, (_, want) in nonzero_tables.items()}
    grids["D6"] = D6_CHI
    assert [e["name"] for e in report["entries"]] == ["A3", "A5", "D4", "D6", "D4 + u*v"]
    for entry in report["entries"]:
        want = grids[entry["name"]]
        rows = entry["hrr"]
        assert all(r["pass"] for r in rows), entry["name"]
        assert len(rows) == len(want) ** 2, entry["name"]
        got = [[r["chi_ext"] for r in rows if r["p"] == i] for i in range(len(want))]
        assert got == want, entry["name"]


def test_dual_has_the_same_chern_form(nonzero_tables):
    # gamma fixes an even form at u^0, so ch(P dual) = gamma(ch(P)) = ch(P):
    # the identity that lets the pairing read P's dual top from P's own
    XYZ, XYZW = ("x", "y", "z"), ("x", "y", "z", "w")
    quadrics = [kmf(XYZ, ["x", "y", "z^2"], ["x", "y^2", "z^2"]),
                kmf(XYZ, ["y^2", "z", "x"], ["y", "z^3", "x"]),
                kmf(XYZW, ["x", "y", "z"], ["x", "y^2", "w"]),
                kmf(XYZW, ["w", "y", "x"], ["z", "y^2", "x"])]
    mfs = [P for table, _ in nonzero_tables.values() for P in table] + quadrics
    nonzero = 0
    for P in mfs:
        ch = chern_form(P).form
        assert chern_form(dual_mf(P)).form == ch, P
        nonzero += not ch.top().is_zero()
    # every even-arity factorization here has a nonzero top
    assert nonzero == 16


def test_residue_side_is_built_once(monkeypatch):
    mfs = branch_splits(D4, XY)
    f = mfs[0].f
    partials = [f.partial(i) for i in range(len(XY))]
    for cached in (check_isolated, jacobian_cover, chern_form):
        cached.cache_clear()
    calibrate_sign(2)
    built = chern_form.cache_info().misses
    calls = []

    class Counted(groebner.GraphBasis):
        def __init__(self, gens, *args, **kwargs):
            calls.append(list(gens))
            super().__init__(gens, *args, **kwargs)

    # the Jacobian record's one graph basis serves check_isolated, the least
    # exponents and the cover
    monkeypatch.setattr(groebner, "GraphBasis", Counted)
    assert all(hrr_check(P, Q).passed for P in mfs for Q in mfs)
    assert sum(gens == partials for gens in calls) == 1
    assert chern_form.cache_info().misses - built == len(mfs)
    assert check_isolated(f) is check_isolated(f)
    twin = kmf(XY, ["y"], ["(x - y)*(x + y)"])
    assert twin == mfs[0] and twin is not mfs[0]
    assert chern_form(twin) is chern_form(mfs[0])


# -- corpus -----------------------------------------------------------------------

def test_empty_corpus():
    assert run_corpus([]) == {"entries": [], "summary": {"pass": True}}


def test_default_corpus_passes():
    rep = run_corpus(default_corpus(), seed=7, suite_count=12, jmax=1, utrunc=3)
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
    # earlier tests cached the corpus's Groebner work; start from nothing
    for cached in (check_isolated, graph_basis, is_koszul_regular, _homology_half,
                   _differential_graph, pairing._weighted_top):
        cached.cache_clear()
    # the largest budget that still exhausts an entry (x^2 + y^2 + z^2's)
    monkeypatch.setenv(ENV_MAX_SPAIRS, "3")
    rep = run_corpus(default_corpus(), suites=False)
    assert len(rep["entries"]) == len(default_corpus())
    failed = [e for e in rep["entries"] if "error" in e]
    assert failed
    assert all(e["error"].startswith("GroebnerLimitError") and e["pass"] is False
               for e in failed)
    assert rep["summary"]["pass"] is False

def test_string_koszul_sequence_and_repeated_vars_fail_alone():
    # "x" used to be read as the sequence of its characters, here K(x, y);
    # repeated names used to map every "x" to the last slot
    entries = [{"name": "string a", "vars": ["x", "y"], "f": "x*y",
                "mfs": [{"koszul": {"a": "x", "b": "y"}}]},
               {"name": "repeated vars", "vars": ["x", "x"], "f": "x^2",
                "mfs": [{"koszul": {"a": ["x"], "b": ["x"]}}]},
               {"name": "good", "vars": ["x", "y"], "f": "x*y",
                "mfs": [{"koszul": {"a": ["x"], "b": ["y"]}}]}]
    rep = run_corpus(entries, suites=False)
    bad_a, bad_vars, good = rep["entries"]
    assert bad_a["pass"] is False and bad_a["error"].startswith("MFValidationError")
    assert '"a"' in bad_a["error"]
    assert bad_vars["pass"] is False and bad_vars["error"].startswith("MFValidationError")
    assert good["pass"] is True


def test_one_failing_pair_fails_the_entry(monkeypatch):
    # the entry's hrr verdict needs every pair: skew chi(P, Q) for one
    # ordered pair only and the other three rows still pass
    entries = [{"name": "x*y", "vars": ["x", "y"], "f": "x*y",
                "mfs": [{"koszul": {"a": ["x"], "b": ["y"]}},
                        {"koszul": {"a": ["y"], "b": ["x"]}}]}]
    real = pairing.euler_chi
    first = kmf(XY, ["x"], ["y"])

    def skewed(P, Q):
        return real(P, Q) + (P == first and Q != first)

    monkeypatch.setattr(pairing, "euler_chi", skewed)
    row = run_corpus(entries, suites=False, only_checks=("hrr",))["entries"][0]
    assert [r["pass"] for r in row["hrr"]] == [True, False, True, True]
    assert row["pass"] is False


def test_mismatched_entry_potential_rejected():
    entries = [{"name": "wrong", "vars": ["x", "y"], "f": "x*y",
                "mfs": [{"koszul": {"a": ["x", "y"], "b": ["x", "y^2"]}}]}]
    rep = run_corpus(entries, suites=False)
    assert rep["entries"][0]["pass"] is False
    assert "MFValidationError" in rep["entries"][0]["error"]


def test_corpus_report_deterministic():
    kw = dict(seed=3, suite_count=10, jmax=1, utrunc=3)
    a = json.dumps(run_corpus(default_corpus(), **kw), sort_keys=True)
    b = json.dumps(run_corpus(default_corpus(), **kw), sort_keys=True)
    assert a == b
    assert "seconds" not in a


def test_suite_counts_and_seeds():
    rows = identity_suites(seed=11, count=8, utrunc=3, jmax=0)
    assert rows["mixed_axioms"]["chains"] >= 8
    assert rows["mixed_axioms"]["seed"] == 11
    assert rows["duality"]["seed"] == 14
    assert all(v["pass"] for v in rows.values())


def test_phi_eta_suite_reports_constructor_failures(monkeypatch):
    # the suite takes its verdicts from the constructors' own checks, so a
    # constructor that rejects its identity must turn the suite red; the
    # suite reads the constructors from hochschild when it runs, and
    # eta_construct builds on phi_construct, so a broken phi fails both
    def broken(j, order):
        raise ChainError(f"identity failed at j={j}, order {order}")

    monkeypatch.setattr(hochschild, "phi_construct", broken)
    rep = phi_eta_suite(jmax=1, order=3)
    assert rep["phi"] is False and rep["eta"] is False and rep["pass"] is False
    monkeypatch.undo()
    monkeypatch.setattr(hochschild, "eta_construct", broken)
    rep = phi_eta_suite(jmax=1, order=3)
    assert rep["phi"] is True and rep["eta"] is False and rep["pass"] is False
    monkeypatch.undo()
    assert phi_eta_suite(jmax=1, order=3)["pass"] is True


def test_shuffle_suite_catches_a_shuffle_that_drops_a_term(monkeypatch):
    # the suite checks the shuffle Leibniz rule as the u^0 part of the full
    # commutation law, and the exchange law on the shuffle itself; it reads
    # the shuffle from hochschild when it runs, so one patch there reaches
    # both laws and fails the suite at every order
    real = hochschild.sh_op

    def dropped(x, y):
        out = real(x, y)
        terms = dict(out.terms)
        if terms:
            del terms[next(iter(terms))]
        return Chain.canonical(out.pres, terms)

    for utrunc in (1, 4):
        assert shuffle_suite(count=10, seed=8, utrunc=utrunc)["pass"] is True
    monkeypatch.setattr(hochschild, "sh_op", dropped)
    for utrunc in (1, 4):
        rep = shuffle_suite(count=10, seed=8, utrunc=utrunc)
        assert rep["pass"] is False and rep["failures"] > 0
