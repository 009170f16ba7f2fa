from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from mfhrr import groebner, homalg
from mfhrr.groebner import (
    InfiniteDimensionError,
    IsolatedSingularityError,
    NonContainmentError,
    check_isolated,
)
from mfhrr.homalg import (
    _differential_graph,
    _eliminate,
    _homology_half,
    _matrix_columns_truncated,
    _monomials_below,
    _solve_out,
    _solved_variable,
    euler_chi,
    ext_dims,
    ext_dims_truncated,
    homology_dims,
    is_koszul_regular,
)
from mfhrr.mfcat import (
    MFValidationError,
    MatrixFactorization,
    Z2Complex,
    direct_sum_mf,
    hom_complex,
    koszul_mf,
    shift_mf,
    tensor_mf,
)
from mfhrr.pairing import _load_entry_mf, default_corpus, hrr_check
from mfhrr.polyring import LaurentError, Poly, parse_poly

X = ("x",)
XY = ("x", "y")


def pp(s, v=XY):
    return parse_poly(s, v)


def K_xy():
    return koszul_mf(XY, [pp("x")], [pp("y")])


def K_x2():
    return koszul_mf(X, [pp("x", X)], [pp("x", X)])


# -- frozen dimensions (confirmed against the truncated oracle) ----------------

def test_ext_square():
    r = ext_dims(K_x2(), K_x2())
    assert (r.dim_ext0, r.dim_ext1, r.chi) == (1, 1, 0)


def test_ext_xy():
    r = ext_dims(K_xy(), K_xy())
    assert (r.dim_ext0, r.dim_ext1, r.chi) == (1, 0, 1)


def test_ext_cubic_mixed_pair():
    P = koszul_mf(X, [pp("x", X)], [pp("x^2", X)])
    Q = koszul_mf(X, [pp("x^2", X)], [pp("x", X)])
    r = ext_dims(P, Q)
    assert (r.dim_ext0, r.dim_ext1, r.chi) == (1, 1, 0)


def test_ext_cusp():
    K = koszul_mf(XY, [pp("x"), pp("y")], [pp("x"), pp("y^2")])
    r = ext_dims(K, K)
    assert (r.dim_ext0, r.dim_ext1) == (2, 2)
    assert r.chi == 0


def test_report_chi_consistent():
    r = ext_dims(K_xy(), shift_mf(K_xy()))
    assert r.chi == r.dim_ext0 - r.dim_ext1 == -1


def test_one_variable_chi_vanishes():
    for d in range(2, 7):
        for a in range(1, d):
            P = koszul_mf(X, [pp("x^%d" % a, X)], [pp("x^%d" % (d - a), X)])
            Q = koszul_mf(X, [pp("x^%d" % (d - a), X)], [pp("x^%d" % a, X)])
            assert euler_chi(P, P) == 0
            assert euler_chi(P, Q) == 0


def test_shift_flips_chi():
    K = K_xy()
    assert euler_chi(K, shift_mf(K)) == -euler_chi(K, K)
    assert euler_chi(shift_mf(K), K) == -euler_chi(K, K)


def test_direct_sum_additive():
    K = K_xy()
    S = shift_mf(K)
    both = direct_sum_mf(K, S)
    assert euler_chi(both, K) == euler_chi(K, K) + euler_chi(S, K)
    assert euler_chi(K, both) == euler_chi(K, K) + euler_chi(K, S)


def test_validation_rejects_nonisolated():
    P = koszul_mf(XY, [pp("x")], [pp("x*y^2")])
    with pytest.raises(IsolatedSingularityError):
        ext_dims(P, P)


# -- homology of bare complexes --------------------------------------------------

def test_homology_koszul_complex_one_var():
    C = Z2Complex(X, [[pp("0", X)]], [[pp("x", X)]])
    h0, h1, _ = homology_dims(C)
    assert h0 - h1 == 1


def test_homology_koszul_complex_two_vars():
    d0 = [[pp("0"), pp("-y")], [pp("0"), pp("x")]]
    d1 = [[pp("x"), pp("y")], [pp("0"), pp("0")]]
    h0, h1, _ = homology_dims(Z2Complex(XY, d0, d1))
    assert h0 - h1 == 1


def test_homology_rejects_infinite_dimension():
    C = Z2Complex(X, [[pp("0", X)]], [[pp("0", X)]])
    with pytest.raises(InfiniteDimensionError):
        homology_dims(C)


@pytest.mark.parametrize("d0,d1", [
    ([["x"], ["0"]], [["0", "1"]]),   # rank 1|2: d1 d0 = 0, d0 d1 != 0
    ([["0", "1"]], [["x"], ["0"]]),   # rank 2|1: d0 d1 = 0, d1 d0 != 0
], ids=["d0d1_nonzero", "d1d0_nonzero"])
def test_homology_rejects_non_complex(d0, d1):
    # Z2Complex checks no composite; homology proves d^2 = 0 by its lifts
    C = Z2Complex(X, [[pp(s, X) for s in row] for row in d0],
                  [[pp(s, X) for s in row] for row in d1])
    with pytest.raises(NonContainmentError):
        homology_dims(C)


# -- invariance properties -----------------------------------------------------

def _random_invertible(rng, n):
    """Product of elementary integer row operations; unit determinant."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def _inverse(m):
    n = len(m)
    a = [[m[i][j] for j in range(n)] + [Fraction(1 if i == k else 0) for k in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        lead = a[c][c]
        a[c] = [v / lead for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _conjugate(P, g0, g1):
    variables = P.vars

    def const_mat(m):
        return [[Poly.const(variables, c) for c in row] for row in m]

    def mul(A, B):
        rows, mid, cols = len(A), len(B), len(B[0])
        out = [[Poly.zero(variables) for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            for k in range(mid):
                if A[i][k]:
                    for j in range(cols):
                        out[i][j] = out[i][j] + A[i][k] * B[k][j]
        return out

    g0m, g1m = const_mat(g0), const_mat(g1)
    g0i, g1i = const_mat(_inverse(g0)), const_mat(_inverse(g1))
    d0 = mul(mul(g1m, P.delta0), g0i)
    d1 = mul(mul(g0m, P.delta1), g1i)
    return MatrixFactorization(P.vars, P.f, d0, d1)


def test_basis_change_invariance():
    rng = random.Random(11)
    K = koszul_mf(XY, [pp("x"), pp("y")], [pp("x"), pp("y^2")])
    base = ext_dims(K, K)
    for _ in range(3):
        g0 = _random_invertible(rng, K.rank0)
        g1 = _random_invertible(rng, K.rank1)
        Kc = _conjugate(K, g0, g1)
        r = ext_dims(Kc, K)
        assert (r.dim_ext0, r.dim_ext1) == (base.dim_ext0, base.dim_ext1)
        r = ext_dims(Kc, Kc)
        assert (r.dim_ext0, r.dim_ext1) == (base.dim_ext0, base.dim_ext1)


def test_symmetry_two_vars():
    K = K_xy()
    S = shift_mf(K)
    assert euler_chi(K, S) == euler_chi(S, K)


def test_chi_self_vanishes_odd_vars():
    P = koszul_mf(X, [pp("x", X)], [pp("x^2", X)])
    assert euler_chi(P, P) == 0
    XYZ = ("x", "y", "z")
    K = koszul_mf(XYZ, [pp(v, XYZ) for v in XYZ], [pp(v, XYZ) for v in XYZ])
    assert euler_chi(K, K) == 0


# -- agreement of the two routes ------------------------------------------------

def test_truncated_oracle_agrees():
    pairs = [
        (K_x2(), K_x2()),
        (K_xy(), K_xy()),
        (K_xy(), shift_mf(K_xy())),
        (koszul_mf(X, [pp("x", X)], [pp("x^2", X)]),
         koszul_mf(X, [pp("x^2", X)], [pp("x", X)])),
        (koszul_mf(XY, [pp("x"), pp("y")], [pp("x"), pp("y^2")]),) * 2,
    ]
    for P, Q in pairs:
        r = ext_dims(P, Q)
        assert ext_dims_truncated(P, Q) == (r.dim_ext0, r.dim_ext1)


def test_truncated_pivots_are_int_or_proper_fraction():
    # integral entries with non-unit leads: every pivot is divided by its
    # lead, which must give an int or a proper Fraction, never a float
    K = koszul_mf(XY, [pp("2*x"), pp("y")], [pp("3*y + x^2"), pp("-y")])
    C = hom_complex(K, K)
    monos = _monomials_below(2, 3)
    pivots = [v for d in (C.d0, C.d1)
              for piv in _eliminate(_matrix_columns_truncated(d, XY, monos),
                                    lambda t: (sum(t[1]), t[1], t[0])).values()
              for v in piv.values()]
    assert any(type(v) is Fraction for v in pivots)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in pivots)


# -- the Koszul route --------------------------------------------------------------

def _syzygy_dims(P, Q):
    return homology_dims(hom_complex(P, Q))[:2]


def _corpus_pairs(entries):
    for entry in entries:
        variables = tuple(entry["vars"])
        mfs = [_load_entry_mf(s, variables) for s in entry["mfs"]]
        for P in mfs:
            for Q in mfs:
                yield entry["name"], P, Q


@pytest.mark.parametrize("source", ["default_corpus", "nonzero_tables"])
def test_koszul_route_matches_hom_complex(source):
    if source == "default_corpus":
        entries = default_corpus()
    else:
        path = Path(__file__).parent / "data" / "nonzero_tables.json"
        entries = json.loads(path.read_text())
    count = 0
    for name, P, Q in _corpus_pairs(entries):
        r = ext_dims(P, Q)
        assert r.provenance["route"] == "koszul", name
        assert (r.dim_ext0, r.dim_ext1) == _syzygy_dims(P, Q), name
        count += 1
    assert count == (62 if source == "default_corpus" else 116)


def test_koszul_regularity():
    def seq(*strs):
        return tuple(pp(s) for s in strs)

    assert is_koszul_regular(seq("x", "y"))
    assert is_koszul_regular(seq("x*y"))
    assert not is_koszul_regular(seq("x", "x"))
    assert not is_koszul_regular(seq("x*y", "x"))
    assert not is_koszul_regular(seq("x", "0"))
    assert not is_koszul_regular(seq("0"))
    # fewer than two nonzero members are regular with no Groebner basis
    groebner.graph_basis.cache_clear()
    is_koszul_regular.cache_clear()
    assert is_koszul_regular(())
    assert is_koszul_regular(seq("x^2 + y^3"))
    info = groebner.graph_basis.cache_info()
    assert info.hits + info.misses == 0


def test_non_regular_sequence_takes_hom_complex():
    # a = (x, x) is no regular sequence; f = x^2 + x*y^2 is an A3 singularity
    P = koszul_mf(XY, [pp("x"), pp("x")], [pp("x"), pp("y^2")])
    assert P.f == pp("x^2 + x*y^2")
    r = ext_dims(P, P)
    assert r.provenance["route"] == "hom_complex"
    assert (r.dim_ext0, r.dim_ext1) == _syzygy_dims(P, P) == (4, 4)


def test_json_input_takes_hom_complex():
    K = K_xy()
    plain = MatrixFactorization(K.vars, K.f, K.delta0, K.delta1)
    r = ext_dims(plain, plain)
    assert r.provenance["route"] == "hom_complex"
    assert (r.dim_ext0, r.dim_ext1) == (1, 0)
    # only the source's sequence counts
    r = ext_dims(plain, K)
    assert r.provenance["route"] == "hom_complex"
    assert ext_dims(K, plain).provenance["route"] == "koszul"


def test_four_variable_rung():
    V = ("x", "y", "z", "w")
    K = koszul_mf(V, [pp(v, V) for v in V], [pp(v, V) for v in V])
    r = ext_dims(K, K)
    assert r.provenance["route"] == "koszul"
    assert (r.dim_ext0, r.dim_ext1) == (8, 8)


def test_ext_rejects_mismatched_pair():
    with pytest.raises(MFValidationError):
        ext_dims(K_xy(), koszul_mf(XY, [pp("x")], [pp("y^2")]))


# members that solve for a variable are substituted away before any Groebner
# basis: (variables, P's a and b, Q's a and b, variables and sequence left
# after substituting into Q's complex)

XYZ = ("x", "y", "z")
SOLVED = {
    "every variable": (XYZ, ["x", "y", "z"], ["x", "y", "z"],
                       ["y", "z", "x"], ["y", "z", "x"], (), []),
    "every variable, contractible Q": (XYZ, ["x", "y", "z"], ["x", "y", "z"],
                                       ["x", "y^2 + z^2"], ["x", "1"], (), []),
    "not a bare variable": (XY, ["x - 2*y^3"], ["x + 2*y^3"],
                            ["x + 2*y^3"], ["x - 2*y^3"], ("y",), []),
    "non-unit coefficient": (XY, ["2*x", "y^2"], ["x", "y"],
                             ["x", "y"], ["2*x", "y^2"], ("y",), ["y^2"]),
    "non-unit coefficient with a tail": (XY, ["3*x - y^2"], ["3*x + y^2"],
                                         ["3*x + y^2"], ["3*x - y^2"], ("y",), []),
    "member left to Groebner": (XY, ["y^2", "x"], ["y", "x"],
                                ["x", "y"], ["x", "y^2"], ("y",), ["y^2"]),
}


@pytest.mark.parametrize("case", list(SOLVED))
def test_solved_variables_match_hom_complex(case):
    variables, pa, pb, qa, qb, left, rest = SOLVED[case]

    def K(a, b):
        return koszul_mf(variables, [pp(s, variables) for s in a],
                         [pp(s, variables) for s in b])

    P, Q = K(pa, pb), K(qa, qb)
    keep, a, _ = _solve_out(P.koszul)
    assert keep == left and a == tuple(pp(s, left) for s in rest)
    for A, B in ((P, P), (P, Q), (Q, P), (Q, Q)):
        r = ext_dims(A, B)
        assert r.provenance["route"] == "koszul"
        assert (r.dim_ext0, r.dim_ext1) == _syzygy_dims(A, B), (case, A is P, B is P)


def _clear_ext_caches():
    for cached in (groebner.graph_basis, is_koszul_regular, _homology_half,
                   _differential_graph):
        cached.cache_clear()


def test_fully_solved_sequence_builds_no_ideal_basis():
    # K(x, y, z; x, y, z) of x^2 + y^2 + z^2 solves for every variable: the
    # regularity test and the homology both see the empty sequence over Q
    K = koszul_mf(XYZ, [pp(v, XYZ) for v in XYZ], [pp(v, XYZ) for v in XYZ])
    _clear_ext_caches()
    r = ext_dims(K, K)
    assert r.provenance["route"] == "koszul"
    assert (r.dim_ext0, r.dim_ext1) == (4, 4)
    info = groebner.graph_basis.cache_info()
    assert info.hits + info.misses == 0


@pytest.mark.parametrize("variables, a, b, left, rest", [
    (XY, ["2*x", "y^2"], ["x", "y"], ("y",), ["y^2"]),
    (XYZ, ["y^2", "x", "z^2"], ["y", "x", "z"], ("y", "z"), ["y^2", "z^2"]),
])
def test_partly_solved_sequence_builds_only_the_reduced_basis(
        monkeypatch, variables, a, b, left, rest):
    # the regularity test runs on a' and shares graph_basis(a') with the
    # kernel certificates; the full sequence gets no basis of its own
    P = koszul_mf(variables, [pp(s, variables) for s in a],
                  [pp(s, variables) for s in b])
    reduced = tuple(pp(s, left) for s in rest)
    _clear_ext_caches()
    seen = []
    real = groebner.graph_basis

    def recorded(gens):
        seen.append(gens)
        return real(gens)

    monkeypatch.setattr(groebner, "graph_basis", recorded)
    monkeypatch.setattr(homalg, "graph_basis", recorded)
    assert ext_dims(P, P).provenance["route"] == "koszul"
    assert seen and set(seen) == {reduced}
    assert real.cache_info().currsize == 1


# the regularity test on _solve_out's a' against the test on the whole
# sequence over the whole ring: (variables, a, b, verdict), each potential
# isolated

UNSOLVED = {
    "x, x": (XY, ["x", "x"], ["x", "y^2"], False),
    "x, 0": (XY, ["x", "0"], ["x + y^2", "y"], False),
    "x*y, x": (XY, ["x*y", "x"], ["y", "x"], False),
    "x, x + y^2": (XY, ["x", "x + y^2"], ["x", "y^2"], True),
}


@pytest.mark.parametrize("case", list(SOLVED) + list(UNSOLVED))
def test_reduced_sequence_gives_the_whole_ring_verdict(case):
    if case in SOLVED:
        variables, pa, pb, qa, qb, _, _ = SOLVED[case]
        sources, expected = [(pa, pb), (qa, qb)], True
    else:
        variables, a, b, expected = UNSOLVED[case]
        sources = [(a, b)]
    for a, b in sources:
        P = koszul_mf(variables, [pp(s, variables) for s in a],
                      [pp(s, variables) for s in b])
        check_isolated(P.f)
        _, reduced, _ = _solve_out(P.koszul)
        full = is_koszul_regular(P.koszul)
        assert full == is_koszul_regular(reduced) == expected, (case, a)
        route = ext_dims(P, P).provenance["route"]
        assert route == ("koszul" if full else "hom_complex"), (case, a)


# linear members, some with a quadratic tail, monomials and zero, and the
# cofactors tried in turn to make the potential isolated
MEMBERS = st.one_of(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2),
              st.sampled_from(["", " + x^2", " + y^2", " - x*y"]))
    .filter(lambda t: t[0] or t[1])
    .map(lambda t: f"{t[0]}*x + {t[1]}*y{t[2]}"),
    st.tuples(st.integers(0, 3), st.integers(0, 3))
    .filter(lambda e: 0 < sum(e))
    .map(lambda e: f"x^{e[0]}*y^{e[1]}"),
    st.just("0"),
)
COFACTORS = ["x", "y", "x^2", "y^2", "x + y", "x - y", "y^3", "x^3"]


@seed(2323)
@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(MEMBERS, min_size=1, max_size=3))
def test_reduced_verdict_on_mixed_sequences(a):
    seq = tuple(pp(s) for s in a)
    _, reduced, _ = _solve_out(seq)
    full = is_koszul_regular(seq)
    assert is_koszul_regular(reduced) == full
    if len(a) > 2:
        return  # the Hom complex of a rank-4|4 source is slow to check
    # the route of K(a, b) for the first cofactors b that make f isolated
    for b in itertools.product(COFACTORS, repeat=len(a)):
        P = koszul_mf(XY, seq, [pp(s) for s in b])
        try:
            check_isolated(P.f)
        except (IsolatedSingularityError, InfiniteDimensionError):
            continue
        assert ext_dims(P, P).provenance["route"] == ("koszul" if full else "hom_complex")
        return


@pytest.mark.parametrize("a, b", [("x", "y"), ("y", "x")])
def test_substitution_rejects_laurent_entries(a, b):
    # substituting y := 0 would kill the x^-1*y entry before the Groebner
    # engine could reject it, so the substitution rejects it itself
    Q = MatrixFactorization(XY, pp("x*y"), [[pp("x^2")]], [[Poly(XY, {(-1, 1): 1})]])
    with pytest.raises(LaurentError):
        ext_dims(koszul_mf(XY, [pp(a)], [pp(b)]), Q)


def test_substitution_waits_for_the_koszul_route():
    # (x, x) reduces to (0), not regular, so the pair takes the Hom-complex
    # route and Q reaches the Groebner engine's gate unsubstituted
    P = koszul_mf(XY, [pp("x"), pp("x")], [pp("y"), pp("0")])
    Q = MatrixFactorization(XY, pp("x*y"), [[pp("x^2")]], [[Poly(XY, {(-1, 1): 1})]])
    with pytest.raises(LaurentError, match="Groebner engine"):
        ext_dims(P, Q)


def test_solved_variable_is_the_lowest_with_a_constant_coefficient():
    assert _solved_variable(pp("y + x")) == (0, 1)
    assert _solved_variable(pp("x*y + 3*y")) is None
    assert _solved_variable(pp("x + x^2 - 1/2*y")) == (1, Fraction(-1, 2))
    assert _solved_variable(pp("x^2 + y^2")) is None


# three routes to chi on random branch curves: the Koszul route, the
# Hom-complex route and the residue pairing, plus chi(P,Q) = (-1)^n chi(Q,P)

XYUV = ("x", "y", "u", "v")


@st.composite
def branch_pairs(draw):
    k = draw(st.integers(2, 4))
    e = draw(st.integers(1, 3))
    cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k, unique=True))
    stabilize = draw(st.booleans())
    masks = st.integers(1, 2 ** k - 2)
    branches = [f"(x - {c}*y^{e})" if c >= 0 else f"(x + {-c}*y^{e})" for c in cs]
    return branches, stabilize, draw(masks), draw(masks)


def _split(branches, mask, variables):
    def prod(keep):
        return "*".join(b for i, b in enumerate(branches) if bool(mask >> i & 1) == keep)

    return koszul_mf(variables, [pp(prod(True), variables)], [pp(prod(False), variables)])


@seed(20231)
@settings(max_examples=20, deadline=None, database=None)
@given(branch_pairs())
def test_three_routes_agree_on_branch_curves(case):
    branches, stabilize, m, m2 = case
    variables = XYUV if stabilize else XY
    P, Q = _split(branches, m, variables), _split(branches, m2, variables)
    if stabilize:
        uv = koszul_mf(XYUV, [pp("u", XYUV)], [pp("v", XYUV)])
        P, Q = tensor_mf(P, uv), tensor_mf(Q, uv)
    n = len(variables)
    for A, B in ((P, Q), (Q, P)):
        r = ext_dims(A, B)
        assert r.provenance["route"] == "koszul"
        h0, h1 = _syzygy_dims(A, B)
        assert r.chi == h0 - h1
        assert hrr_check(A, B).chi_residue == r.chi
    assert euler_chi(P, Q) == (-1) ** n * euler_chi(Q, P)


def test_complementary_split_reuses_both_halves(monkeypatch):
    # K(a_T^c, a_T) is K(a_T, a_T^c)[1]: chi(P_S, P_T^c) needs the two
    # halves of chi(P_S, P_T), swapped, and computes neither again
    d4 = ["y", "(x - y)", "(x + y)"]
    P_S, P_T, P_Tc = (_split(d4, m, XY) for m in (0b001, 0b010, 0b101))
    _homology_half.cache_clear()
    first = ext_dims(P_S, P_T)
    calls = []
    real = groebner._buchberger_raw

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_raw", counted)
    second = ext_dims(P_S, P_Tc)
    assert calls == []
    kernels = first.provenance["kernel_generators"]
    assert second.provenance["kernel_generators"] == kernels[::-1]
    assert (second.dim_ext0, second.dim_ext1) == (first.dim_ext1, first.dim_ext0)


@pytest.mark.parametrize("route", ["koszul", "hom_complex"])
def test_each_complex_builds_two_graph_bases(monkeypatch, route):
    # one graph basis per differential, read by both halves: d0's for H0's
    # kernel and H1's image, d1's for H1's kernel and H0's image; the
    # sequence's own graph basis is shared and built beforehand
    if route == "koszul":
        xyz = ("x", "y", "z")
        src = koszul_mf(xyz, [pp(s, xyz) for s in ("x", "y^2", "z")],
                        [pp(s, xyz) for s in ("x", "y", "z^2")])
        Q = koszul_mf(xyz, [pp(s, xyz) for s in ("x^2", "y", "z")],
                      [pp(s, xyz) for s in ("1", "y^2", "z^2")])
        C, ideal = Z2Complex(xyz, Q.delta0, Q.delta1), src.koszul
        groebner.graph_basis(ideal)
    else:
        d4 = ["y", "(x - y)", "(x + y)"]
        C, ideal = hom_complex(_split(d4, 0b001, XY), _split(d4, 0b010, XY)), ()
    _homology_half.cache_clear()
    _differential_graph.cache_clear()
    calls = []
    real = groebner._buchberger_raw

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_raw", counted)
    homology_dims(C, ideal)
    # the graph module of d0, then that of d1: each tags one component past
    # its differential's rows for every column, so both are graph modules
    assert len(calls) == 2
    for graph, rows, cols in ((calls[0], C.rank1, C.rank0), (calls[1], C.rank0, C.rank1)):
        comps = {c for v in graph[0] for c, _ in v}
        assert {c for c in comps if c >= rows} == set(range(rows, rows + cols))
        assert any(c < rows for c in comps)
