from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mfhrr.mfcat import (
    MFValidationError,
    MatrixFactorization,
    direct_sum_mf,
    dual_mf,
    hom_complex,
    koszul_mf,
    mat_mul,
    mf_from_json,
    mf_to_json,
    shift_mf,
    tensor_mf,
)
from mfhrr.hochschild import koszul_generator_matrices
from mfhrr.polyring import Poly, parse_poly

XY = ("x", "y")


def P(s, variables=XY):
    return parse_poly(s, variables)


def K_xy():
    return koszul_mf(XY, [P("x")], [P("y")])


# -- construction and validation -----------------------------------------------

def test_koszul_rank_one():
    K = K_xy()
    assert K.ranks() == (1, 1)
    assert K.delta0 == ((P("y"),),)
    assert K.delta1 == ((P("x"),),)
    assert K.f == P("x*y")


def test_koszul_two_rows():
    a = [P("x"), P("y")]
    b = [P("x"), P("y^2")]
    K = koszul_mf(XY, a, b)
    assert K.f == P("x^2 + y^3")
    assert K.ranks() == (2, 2)
    # frozen basis order: evens [{}, {1,2}], odds [{1}, {2}]
    assert K.delta0 == ((P("x"), P("-y")), (P("y^2"), P("x")))
    assert K.delta1 == ((P("x"), P("y")), (P("-y^2"), P("x")))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_koszul_delta_is_the_local_model_operators(n):
    # delta = sum a_i e_i* + b_i e_i, with e_i and e_i* the constant matrices
    # the local model presents, so both read one basis, layout and sign rule
    V = tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(n))
    a = [Poly.variable(V, i) for i in range(n)]
    b = [Poly.variable(V, n + i) for i in range(n)]
    ops = koszul_generator_matrices(V[:n])
    want = [[Poly.zero(V)] * 2 ** n for _ in range(2 ** n)]
    for i in range(n):
        suffix = str(i + 1) if n > 1 else ""
        for r in range(2 ** n):
            for c in range(2 ** n):
                want[r][c] = (want[r][c] + b[i] * ops[f"e{suffix}"][r][c]
                              + a[i] * ops[f"e{suffix}*"][r][c])
    assert koszul_mf(V, a, b).delta_full() == tuple(map(tuple, want))


def test_mf_constructor_reports_bad_entry():
    with pytest.raises(MFValidationError) as e:
        MatrixFactorization(XY, P("x*y"), [[P("y")]], [[P("x + 1")]])
    assert "(0,0)" in str(e.value)


def test_mf_constructor_rejects_bad_shape():
    with pytest.raises(MFValidationError):
        MatrixFactorization(XY, P("x*y"), [[P("y"), P("0")]], [[P("x")]])


def test_delta_full_squares_to_f():
    K = koszul_mf(XY, [P("x"), P("y")], [P("x"), P("y^2")])
    D = K.delta_full()
    sq = mat_mul(D, D, XY)
    for i in range(4):
        for j in range(4):
            assert sq[i][j] == (K.f if i == j else Poly.zero(XY))


# -- functors ---------------------------------------------------------------------

def test_dual_negates_potential():
    K = K_xy()
    D = dual_mf(K)
    assert D.f == -K.f
    assert D.delta0 == ((P("x"),),)
    assert D.delta1 == ((P("-y"),),)


def test_dual_dual_negates_deltas():
    K = koszul_mf(XY, [P("x"), P("y")], [P("x"), P("y^2")])
    DD = dual_mf(dual_mf(K))
    assert DD.f == K.f
    for got, want in ((DD.delta0, K.delta0), (DD.delta1, K.delta1)):
        for r1, r2 in zip(got, want):
            for a, b in zip(r1, r2):
                assert a == -b


def test_equal_factorizations_share_one_key():
    K = koszul_mf(XY, [P("x"), P("y")], [P("x"), P("y^2")])
    twin = mf_from_json(mf_to_json(K))
    assert twin == K and twin is not K
    assert hash(twin) == hash(K)
    table = {K: "first"}
    table[twin] = "second"
    assert table == {K: "second"}
    for other in (dual_mf(K), shift_mf(K)):
        assert other != K and hash(other) != hash(K)
        table[other] = "other"
    assert len(table) == 3


def test_shift_involution():
    K = koszul_mf(XY, [P("x"), P("y")], [P("x"), P("y^2")])
    S = shift_mf(K)
    assert S.f == K.f
    assert S.rank0 == K.rank1
    assert shift_mf(S) == K


def test_tensor():
    V4 = ("x1", "x2", "x3", "x4")
    A = koszul_mf(V4, [parse_poly("x1", V4)], [parse_poly("x2", V4)])
    B = koszul_mf(V4, [parse_poly("x3", V4)], [parse_poly("x4", V4)])
    T = tensor_mf(A, B)
    assert T.f == parse_poly("x1*x2 + x3*x4", V4)
    assert T.ranks() == (2, 2)
    K = koszul_mf(V4, [parse_poly("x1", V4), parse_poly("x3", V4)],
                  [parse_poly("x2", V4), parse_poly("x4", V4)])
    assert T.f == K.f


def test_koszul_sequence_slot():
    # koszul_mf records a, tensor_mf concatenates two records, every other
    # constructor records nothing; equality and hashing ignore the slot
    V4 = ("x1", "x2", "x3", "x4")
    a1, a3 = parse_poly("x1", V4), parse_poly("x3", V4)
    A = koszul_mf(V4, [a1], [parse_poly("x2", V4)])
    B = koszul_mf(V4, [a3], [parse_poly("x4", V4)])
    assert A.koszul == (a1,)
    T = tensor_mf(A, B)
    assert T.koszul == (a1, a3)
    plain = mf_from_json(mf_to_json(A))
    assert plain.koszul is None
    assert plain == A and hash(plain) == hash(A)
    assert tensor_mf(plain, B).koszul is None
    for M in (dual_mf(A), shift_mf(A), direct_sum_mf(A, A)):
        assert M.koszul is None


def test_tensor_blocks():
    # even basis (P0 x Q0, P1 x Q1), odd basis (P0 x Q1, P1 x Q0)
    V4 = ("x1", "x2", "x3", "x4")
    A = koszul_mf(V4, [parse_poly("x1", V4)], [parse_poly("x2", V4)])
    B = koszul_mf(V4, [parse_poly("x3", V4)], [parse_poly("x4", V4)])
    T = tensor_mf(A, B)

    def matrix(*rows):
        return tuple(tuple(parse_poly(s, V4) for s in row) for row in rows)

    assert T.delta0 == matrix(("x4", "x1"), ("x2", "-x3"))
    assert T.delta1 == matrix(("x3", "x1"), ("x2", "-x4"))


def test_direct_sum_blocks():
    # each block lists the summands in order: P's basis, then Q's
    S = direct_sum_mf(K_xy(), koszul_mf(XY, [P("y")], [P("x")]))
    assert S.f == P("x*y")
    assert S.delta0 == ((P("y"), P("0")), (P("0"), P("x")))
    assert S.delta1 == ((P("x"), P("0")), (P("0"), P("y")))


# -- hom complexes ------------------------------------------------------------------

def test_hom_complex_koszul_xy():
    K = K_xy()
    C = hom_complex(K, K)
    assert (C.rank0, C.rank1) == (2, 2)
    assert C.d0 == ((P("y"), P("-y")), (P("-x"), P("x")))
    assert C.d1 == ((P("x"), P("y")), (P("x"), P("y")))


def test_hom_complex_requires_same_potential():
    K = K_xy()
    with pytest.raises(MFValidationError):
        hom_complex(K, dual_mf(K))


def test_hom_complex_larger():
    K = koszul_mf(XY, [P("x"), P("y")], [P("x"), P("y^2")])
    C = hom_complex(K, K)
    assert (C.rank0, C.rank1) == (8, 8)


def _koszul_split(variables, exponents, seed):
    """Koszul factorization of sum x_i^e_i, each term split at random."""
    rng = random.Random(seed)
    n = len(variables)
    a, b = [], []
    for i, e in enumerate(exponents):
        k = rng.randint(1, e - 1)
        c = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5]))
        mono = [0] * n
        mono[i] = k
        a.append(Poly.monomial(variables, mono, c))
        mono[i] = e - k
        b.append(Poly.monomial(variables, mono, 1 / c))
    return koszul_mf(variables, a, b)


@pytest.mark.parametrize("variables,exponents", [
    (("x", "y"), (3, 4)),
    (("x", "y", "z"), (3, 4, 3)),
])
def test_hom_complex_matches_definition(variables, exponents):
    # d(E) = delta_Q E - (-1)^{|E|} E delta_P on elementary maps E_rs,
    # basis ordered by (|s|, r, s)
    P_, Q_ = (_koszul_split(variables, exponents, seed) for seed in (1, 2))
    assert P_ != Q_ and P_.f == Q_.f
    C = hom_complex(P_, Q_)
    pp, qp = P_.parities(), Q_.parities()
    dP, dQ = P_.delta_full(), Q_.delta_full()
    maps = sorted(((r, s) for r in range(len(qp)) for s in range(len(pp))),
                  key=lambda e: (pp[e[1]], e))
    even = [e for e in maps if qp[e[0]] == pp[e[1]]]
    odd = [e for e in maps if qp[e[0]] != pp[e[1]]]
    zero, one = Poly.zero(variables), Poly.one(variables)
    for source, target, d in ((even, odd, C.d0), (odd, even, C.d1)):
        assert len(d) == len(target)
        for j, (r, s) in enumerate(source):
            E = tuple(tuple(one if (i, k) == (r, s) else zero for k in range(len(pp)))
                      for i in range(len(qp)))
            sign = 1 if qp[r] == pp[s] else -1
            left, right = mat_mul(dQ, E, variables), mat_mul(E, dP, variables)
            want = {(i, k): left[i][k] - right[i][k] * sign
                    for i in range(len(qp)) for k in range(len(pp))}
            assert all(want[e].is_zero() for e in source)
            assert [row[j] for row in d] == [want[e] for e in target]


def _squares_to_zero(C):
    return all(p.is_zero() for A, B in ((C.d1, C.d0), (C.d0, C.d1))
               for row in mat_mul(A, B, C.vars) for p in row)


def test_hom_complex_squares_to_zero():
    # hom_complex trusts delta_P^2 = delta_Q^2 = f and checks no composite
    # itself; d1 d0 = d0 d1 = 0 must still hold for every builder's output
    XYZ = ("x", "y", "z")
    P_, Q_ = (_koszul_split(XYZ, (2, 3, 4), seed) for seed in (1, 2))
    assert P_ != Q_ and P_.ranks() == (4, 4)
    XYUV = ("x", "y", "u", "v")
    uv = koszul_mf(XYUV, [P("u", XYUV)], [P("v", XYUV)])
    T1 = tensor_mf(koszul_mf(XYUV, [P("x", XYUV), P("y", XYUV)],
                             [P("x", XYUV), P("y^2", XYUV)]), uv)
    T2 = tensor_mf(koszul_mf(XYUV, [P("y", XYUV), P("x", XYUV)],
                             [P("y^2", XYUV), P("x", XYUV)]), uv)
    S = direct_sum_mf(P_, Q_)
    pairs = [(P_, Q_), (Q_, P_), (T1, T2), (S, P_), (Q_, S),
             (shift_mf(P_), Q_), (Q_, shift_mf(P_))]
    for A, B in pairs:
        assert _squares_to_zero(hom_complex(A, B)), (A, B)


# -- serialization ------------------------------------------------------------------------

def test_json_round_trip():
    K = koszul_mf(XY, [P("x"), P("y")], [P("x"), P("y^2")])
    data = mf_to_json(K)
    assert data["f"] == "y^3 + x^2"
    assert mf_from_json(data) == K


def test_json_rejects_bad_square():
    data = {"vars": ["x", "y"], "f": "x*y", "delta0": [["y"]], "delta1": [["y"]]}
    with pytest.raises(MFValidationError):
        mf_from_json(data)


def test_json_missing_field():
    with pytest.raises(MFValidationError):
        mf_from_json({"vars": ["x"], "f": "x"})


@pytest.mark.parametrize("field,value", [
    ("vars", 5), ("vars", "x"), ("vars", ["x", 1]), ("f", 2),
    ("delta0", "x"), ("delta0", ["x"]), ("delta1", [[1]]), ("delta1", None)])
def test_json_rejects_mistyped_fields(field, value):
    data = {"vars": ["x"], "f": "x^2", "delta0": [["x"]], "delta1": [["x"]]}
    assert mf_from_json(data).f == parse_poly("x^2", ("x",))
    with pytest.raises(MFValidationError, match=field):
        mf_from_json({**data, field: value})
