import itertools
import math
import random
from fractions import Fraction

import pytest

from mfhrr import hkrtrace
from mfhrr.hkrtrace import (
    ChernForm,
    MatrixForm,
    cech_residue,
    chern_form,
)
from mfhrr.hochschild import (
    ChainError,
    UChain,
    endomorphism_presentation,
    eta_construct,
    local_model_presentation,
    mixed_differential,
    phi_construct,
    polynomial_presentation,
    random_chain,
    tensor_presentation,
    tr_nabla,
    tr_nabla_cech,
    y_power,
)
from mfhrr.mfcat import direct_sum_mf, dual_mf, koszul_mf
from mfhrr.polyring import DiffForm, FormSeries, Poly, parse_poly


def kmf(variables, a, b):
    return koszul_mf(variables,
                     [parse_poly(a, variables)],
                     [parse_poly(b, variables)])


X = ("x",)
XY = ("x", "y")


def form(variables, comps):
    return DiffForm(variables, {idx: Poly(variables, terms)
                                for idx, terms in comps.items()})


@pytest.fixture(scope="module")
def model():
    return local_model_presentation()


@pytest.fixture(scope="module")
def k_x2():
    return kmf(X, "x", "x")


@pytest.fixture(scope="module")
def k_xy():
    return kmf(XY, "x", "y")


# ---- local model anchors -------------------------------------------------------


def test_trace_of_head_e_word(model):
    got = tr_nabla(model.chain("e"))
    want = FormSeries(X, [form(X, {(0,): {(0,): Fraction(-1)}})], 1)
    assert got == want


@pytest.mark.parametrize("k", [1, 2, 5])
def test_trace_has_the_order_of_the_series(model, k):
    c = model.chain("e")
    got = tr_nabla(UChain.from_chain(c, k))
    assert got.order == k
    assert got == FormSeries(X, tr_nabla(c).coeffs, k)
    assert tr_nabla(UChain.from_chain(model.chain("1"), k)).order == k
    comps = tr_nabla_cech(eta_construct(1, k))
    assert comps and {s.order for s in comps.values()} == {k}


def test_trace_of_a_chain_has_order_one(model):
    assert tr_nabla(model.chain("1")).order == 1
    comps = tr_nabla_cech(model.chain("e", alphas=(0,)))
    assert comps and {s.order for s in comps.values()} == {1}


def test_trace_of_identity_word(model):
    assert tr_nabla(model.chain("1")).is_zero()


@pytest.mark.parametrize("j", range(5))
def test_trace_kills_y_powers(j):
    assert tr_nabla(y_power(j)).is_zero()


def test_trace_of_phi0_is_minus_dx():
    phi0 = phi_construct(0, 6)
    got = tr_nabla(phi0)
    want = FormSeries(X, [form(X, {(0,): {(0,): Fraction(-1)}})], 6)
    assert got == want


@pytest.mark.parametrize("j", [1, 2])
def test_trace_kills_higher_phi(j):
    assert tr_nabla(phi_construct(j, 5)).is_zero()


@pytest.mark.parametrize("j", range(4))
def test_eta_trace_value(j):
    comps = tr_nabla_cech(eta_construct(j, 5))
    pole = form(X, {(0,): {(-j - 1,): -Fraction(math.factorial(j))}})
    assert set(comps) == {frozenset({0})}
    assert comps[frozenset({0})] == FormSeries(X, [pole], 5)


@pytest.mark.parametrize("j", range(5))
def test_residue_of_eta_trace(j):
    comps = tr_nabla_cech(eta_construct(j, 5))
    want = {0: Fraction(-1)} if j == 0 else {}
    assert cech_residue(comps) == want


def test_residue_without_full_tag_is_empty(model):
    comps = tr_nabla_cech(model.chain("e"))
    assert cech_residue(comps) == {}


def test_tr_nabla_rejects_cech_words(model):
    with pytest.raises(ChainError):
        tr_nabla(model.chain("e", alphas=(0,)))


def test_tr_nabla_rejects_tensor_presentations(model):
    pres = tensor_presentation(model, model)
    with pytest.raises(ChainError):
        tr_nabla(pres.chain(((0,), 5)))


# ---- the chain-map identity ------------------------------------------------


@pytest.mark.parametrize("variables,a,b", [(X, "x", "x"), (XY, "x", "y")])
def test_trace_intertwines_mixed_and_twisted(variables, a, b):
    K = kmf(variables, a, b)
    pres = endomorphism_presentation(K, normalization="scalar")
    rng = random.Random(424242)
    for _ in range(60):
        c = random_chain(pres, rng, max_len=3, max_exp=2, nterms=2)
        u = UChain.from_chain(c, 3)
        lhs = tr_nabla(mixed_differential(u))
        rhs = tr_nabla(u).twist_diff(K.f)
        assert lhs == rhs


def test_curved_polynomial_algebra_pairs_with_opposite_twist():
    f = parse_poly("x^2", X)
    pres = polynomial_presentation(X, f)
    rng = random.Random(11)
    for _ in range(30):
        c = random_chain(pres, rng, max_len=3, max_exp=2, nterms=2)
        u = UChain.from_chain(c, 3)
        lhs = tr_nabla(mixed_differential(u))
        assert lhs == tr_nabla(u).twist_diff(-f)


def test_curvature_powers_built_once_per_presentation():
    hkrtrace._curvature_powers.cache_clear()
    rng = random.Random(7)
    for K in (kmf(X, "x", "x"), kmf(XY, "x", "y"), kmf(XY, "x", "y")):
        pres = endomorphism_presentation(K, normalization="scalar")
        for _ in range(10):
            tr_nabla(random_chain(pres, rng, max_len=2, max_exp=1, nterms=2))
    # two distinct (variables, parities, delta): the twin presentation reuses
    assert hkrtrace._curvature_powers.cache_info().misses == 2


def test_trace_of_identity_word_vanishes_in_one_variable(k_x2):
    pres = endomorphism_presentation(k_x2, normalization="scalar")
    idc = pres.chain("1")
    assert tr_nabla(idc).is_zero()


# ---- supertrace conventions -----------------------------------------------


def test_supertrace_is_graded_cyclic():
    variables = XY
    parities = (0, 0, 1, 1)
    rng = random.Random(31)
    subsets = [(), (0,), (1,), (0, 1)]
    for _ in range(40):
        r, s = rng.randrange(4), rng.randrange(4)
        t, w = rng.randrange(4), rng.randrange(4)
        pform = subsets[rng.randrange(4)]
        qform = subsets[rng.randrange(4)]
        A = MatrixForm(variables, parities,
                       {(r, s): DiffForm(variables, {pform: Poly.one(variables)})})
        B = MatrixForm(variables, parities,
                       {(t, w): DiffForm(variables, {qform: Poly.one(variables)})})
        da = len(pform) + parities[r] + parities[s]
        db = len(qform) + parities[t] + parities[w]
        lhs = A.mul(B).supertrace()
        rhs = B.mul(A).supertrace()
        if (da * db) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_prime_squares_to_zero_on_ambient_differential(k_xy):
    D = MatrixForm.from_polys(XY, k_xy.parities(), k_xy.delta_full())
    R = D.prime()
    assert R.prime().is_zero()


def test_supertrace_frozen_chern_square(k_xy):
    dd = MatrixForm.from_polys(XY, k_xy.parities(), k_xy.delta_full()).prime()
    want = DiffForm(XY, {(0, 1): parse_poly("-2", XY)})
    assert dd.mul(dd).supertrace() == want


def _random_form(rng, variables, degrees):
    comps = {}
    n = len(variables)
    for k in degrees:
        for idx in itertools.combinations(range(n), k):
            terms = {}
            for _ in range(2):
                mono = tuple(rng.randrange(0, 3) for _ in range(n))
                c = rng.randrange(-3, 4)
                if c:
                    terms[mono] = terms.get(mono, Fraction(0)) + c
            p = Poly(variables, terms)
            if p:
                comps[idx] = comps.get(idx, Poly.zero(variables)) + p
    return DiffForm(variables, comps)


def _random_graded_matrix(rng, variables, parities, total_parity):
    n = len(parities)
    entries = {}
    top = len(variables)
    for i in range(n):
        for j in range(n):
            want = (total_parity + parities[i] + parities[j]) % 2
            degrees = [k for k in range(top + 1) if k % 2 == want]
            entries[(i, j)] = _random_form(rng, variables, degrees)
    return MatrixForm(variables, parities, entries)


def test_super_product_associative_and_supersymmetric():
    rng = random.Random(7)
    parities = (0, 1, 1)
    for _ in range(12):
        ta, tb = rng.randrange(2), rng.randrange(2)
        A = _random_graded_matrix(rng, XY, parities, ta)
        B = _random_graded_matrix(rng, XY, parities, tb)
        C = _random_graded_matrix(rng, XY, parities, rng.randrange(2))
        assert A.mul(B).mul(C).entries == A.mul(B.mul(C)).entries
        lhs = A.mul(B).supertrace()
        rhs = B.mul(A).supertrace()
        if (ta * tb) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_identity_neutral():
    rng = random.Random(3)
    parities = (0, 0, 1)
    A = _random_graded_matrix(rng, XY, parities, 1)
    I = MatrixForm.identity(XY, parities)
    assert A.mul(I).entries == A.entries
    assert I.mul(A).entries == A.entries


def _entrywise_mul(A, B):
    """MatrixForm.mul as it used to run, kept as the reference: per entry
    pair, split the left form by parity, wedge both halves onto the right
    entry, negate the odd half when the right entry is odd, and add the
    DiffForms up."""
    out = {}
    for (i, j), left in A.entries.items():
        even = DiffForm(A.vars, {d: p for d, p in left.comps.items() if len(d) % 2 == 0})
        odd = DiffForm(A.vars, {d: p for d, p in left.comps.items() if len(d) % 2})
        for (j2, k), right in B.entries.items():
            if j2 != j:
                continue
            piece = odd.wedge(right)
            if (A.parities[j] + A.parities[k]) % 2:
                piece = -piece
            out[(i, k)] = out.get((i, k), DiffForm.zero(A.vars)) + even.wedge(right) + piece
    return MatrixForm(A.vars, A.parities, out)


def _random_mixed_matrix(rng, variables, parities):
    """Sparse entries of every form degree, odd ones included, regardless
    of the row and column parities."""
    n = len(parities)
    degrees = list(range(len(variables) + 1))
    entries = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.6:
                entries[(i, j)] = _random_form(
                    rng, variables, rng.sample(degrees, rng.randint(1, len(degrees))))
    return MatrixForm(variables, parities, entries)


def test_mul_matches_entrywise_reference():
    rng = random.Random(1402)
    xyz = ("x", "y", "z")
    for parities in ((0, 0, 1, 1), (0, 0, 0, 0, 1, 1, 1, 1)):
        for variables in (XY, xyz):
            for _ in range(4):
                A = _random_mixed_matrix(rng, variables, parities)
                B = _random_mixed_matrix(rng, variables, parities)
                assert A.mul(B) == _entrywise_mul(A, B)


# ---- Chern forms -------------------------------------------------------------


def test_chern_of_koszul_xy(k_xy):
    ch = chern_form(k_xy)
    assert ch.form == form(XY, {(0, 1): {(0, 0): Fraction(-1)}})
    assert ch.top() == Poly.const(XY, -1)


def test_chern_of_dual_matches(k_xy):
    assert chern_form(dual_mf(k_xy)).top() == Poly.const(XY, -1)


@pytest.mark.parametrize("b", ["x", "x^2", "x^4"])
def test_chern_vanishes_in_one_variable(b):
    assert chern_form(kmf(X, "x", b)).form.is_zero()


def test_chern_additive_under_direct_sum(k_xy):
    S = direct_sum_mf(k_xy, k_xy)
    assert chern_form(S).form == chern_form(k_xy).form + chern_form(k_xy).form


def test_chern_odd_components_vanish(k_xy):
    ch = chern_form(k_xy)
    assert not any(len(i) == 1 for i in ch.form.comps)
    with pytest.raises(ValueError):
        ChernForm(k_xy.f, form(XY, {(0,): {(0, 0): Fraction(1)}}))


@pytest.mark.parametrize("variables,a,b", [
    (XY, ["x"], ["y"]),
    (XY, ["x", "y"], ["x", "y^2"]),               # x^2 + y^3, rank 2|2
    (("x", "y", "z", "w"), ["x", "z"], ["y", "w"]),  # nonzero top form
])
def test_chern_form_is_trace_of_identity_word(variables, a, b):
    P = koszul_mf(variables, [parse_poly(s, variables) for s in a],
                  [parse_poly(s, variables) for s in b])
    want = tr_nabla(endomorphism_presentation(P).chain("1"))
    assert FormSeries(variables, [chern_form(P).form], 1) == want


def test_chern_serialization(k_xy):
    assert chern_form(k_xy).jsonable() == {"u^0": {"2": [[["x", "y"], "-1"]]}}
