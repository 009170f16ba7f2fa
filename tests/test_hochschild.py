import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, seed, settings, strategies as st

from mfhrr import hochschild
from mfhrr.hochschild import (
    B_op,
    Chain,
    ChainError,
    UChain,
    _add_term,
    _cyclic_shuffles,
    _interleavings,
    alpha_op,
    b_op,
    cech_differential,
    chain_parity,
    cyclic_sh_op,
    endomorphism_presentation,
    eta_construct,
    euler_trace,
    koszul_generator_matrices,
    kunneth_product,
    local_model_presentation,
    mixed_differential,
    phi_construct,
    polynomial_presentation,
    psi_op,
    random_chain,
    sh_op,
    star_map,
    tensor_presentation,
    y_power,
)
from mfhrr.mfcat import dual_mf, koszul_mf
from mfhrr.polyring import parse_poly


def kmf(variables, a, b):
    return koszul_mf(variables,
                     [parse_poly(a, variables)],
                     [parse_poly(b, variables)])


X = ("x",)
XY = ("x", "y")


@pytest.fixture(scope="module")
def model():
    return local_model_presentation()


@pytest.fixture(scope="module")
def end_x2():
    return endomorphism_presentation(
        kmf(X, "x", "x"), extra_names=koszul_generator_matrices(X))


@pytest.fixture(scope="module")
def end_xy():
    return endomorphism_presentation(
        kmf(XY, "x", "y"), extra_names=koszul_generator_matrices(XY))


# ---- frozen differential anchors over the local model -------------------------

def test_b_kills_the_y_cycle(model):
    assert b_op(model.chain("1", ["e*"])).is_zero()


def test_b_of_e_estar(model):
    got = b_op(model.chain("e", ["e*"]))
    want = model.chain("1", ["e*"], coeff=1).mul_mono((1,)) - model.chain("1")
    assert got == want


def test_b_of_estar_e_e_needs_module_mode(model):
    got = b_op(model.chain("e*", ["e", "e"]))
    assert got == model.chain("1", ["e"]).scale(-1)


def test_b_omega_j_recurrence(model):
    # b(e[e*^j]) = x 1[e*^j] - 1[e*^(j-1)]
    for j in (1, 2, 3):
        got = b_op(model.chain("e", ["e*"] * j))
        want = (model.chain("1", ["e*"] * j).mul_mono((1,))
                - model.chain("1", ["e*"] * (j - 1)))
        assert got == want


def test_connes_operator_small_words(model):
    assert B_op(model.chain("e")) == model.chain("1", ["e"])
    assert B_op(model.chain("1", ["e"])).is_zero()
    got = B_op(model.chain("e*", ["e"]))
    assert got == model.chain("1", ["e*", "e"]) + model.chain("1", ["e", "e*"])


def test_zeta_identities(model):
    see = model.chain("e*", ["e", "e"])
    zeta = model.zero()
    for pos in range(4):
        entries = ["e"] * 4
        entries[pos] = "e*"
        zeta = zeta + model.chain("e*", entries)
    zeta = zeta.scale(-1)
    assert B_op(see) == b_op(zeta)
    mixed = model.chain("1", ["e*", "e"]) + model.chain("1", ["e", "e*"])
    assert zeta.scale(-3) == sh_op(see, mixed)


def test_module_mode_collects_monomials(model):
    spread = Chain(model, {(frozenset(), (((0,), 3), ((2,), 2))): Fraction(1)})
    packed = model.chain("e", ["e*"]).mul_mono((2,))
    assert spread == packed


def test_scalar_mode_keeps_slot_monomials(end_x2):
    spread = Chain(end_x2, {(frozenset(), (((0,), 3), ((2,), 2))): Fraction(1)})
    packed = end_x2.chain("e", ["e*"]).mul_mono((2,))
    assert spread != packed


def test_normalization_kills_identity_entries(model, end_x2):
    # module mode: any monomial multiple of the identity dies
    assert model.chain("e", [("1", (3,))]).is_zero()
    # scalar mode: only the constant identity dies
    assert end_x2.chain("e", [("1", (3,))]).terms
    assert end_x2.chain("e", ["1"]).is_zero()


def _canonical_kinds(model, end_x2):
    """One presentation of each normalization path: scalar, module, Cech
    symbols, declared curvature and a tensor product."""
    curved = polynomial_presentation(XY, parse_poly("x*y", XY))
    module_xy = endomorphism_presentation(kmf(XY, "x", "y"), normalization="module")
    return [end_x2, model, curved, module_xy, tensor_presentation(*_tensor_pair())]


def test_operators_return_canonical_chains(model, end_x2):
    # b, B and the shuffle skip the constructor's normalization pass; running
    # that pass over their output must change nothing
    rng = random.Random(4711)
    for pres in _canonical_kinds(model, end_x2):
        for _ in range(30):
            c = random_chain(pres, rng, max_len=4, max_exp=2, nterms=4, alphas=True)
            moved = (c.with_alpha(0) if pres.laurent
                     else c.mul_mono((1,) * len(pres.variables)))
            for out in (b_op(c), B_op(c), b_op(B_op(c)), moved):
                assert Chain(pres, dict(out.words())).terms == out.terms
            if not any(alphas for alphas, _ in c.terms):
                d = random_chain(pres, rng, max_len=2, max_exp=1, nterms=2)
                out = sh_op(c, d)
                assert Chain(pres, dict(out.words())).terms == out.terms
    A, B = _tensor_pair()
    for _ in range(30):
        out = sh_op(_single_word(A, rng), _single_word(B, rng))
        assert Chain(out.pres, dict(out.words())).terms == out.terms


# ---- the mixed complex axioms --------------------------------------------------

def _presentations():
    curved = polynomial_presentation(XY, parse_poly("x^2 + y^3", XY))
    module = endomorphism_presentation(kmf(X, "x", "x"),
                                       normalization="module")
    return [
        endomorphism_presentation(kmf(X, "x", "x")),
        endomorphism_presentation(kmf(XY, "x", "y")),
        module,
        curved,
    ]


def test_mixed_complex_axioms_random():
    rng = random.Random(20260817)
    for pres in _presentations():
        for _ in range(30):
            c = random_chain(pres, rng, max_len=4, max_exp=2, nterms=3)
            assert b_op(b_op(c)).is_zero()
            assert B_op(B_op(c)).is_zero()
            assert (b_op(B_op(c)) + B_op(b_op(c))).is_zero()


def test_curvature_insertion_anchor():
    curved = polynomial_presentation(X, parse_poly("x^2", X))
    got = b_op(curved.chain("1"))
    assert got == curved.chain("1", [("1", (2,))])


def test_curved_square_zero_needs_the_curvature_terms():
    # with the curvature declared, b^2 = 0 even on words with entries
    curved = polynomial_presentation(X, parse_poly("x^2", X))
    w = curved.chain("1", [("1", (1,)), ("1", (3,))])
    assert not b_op(w).is_zero()
    assert b_op(b_op(w)).is_zero()


# ---- shuffle products ------------------------------------------------------------

def _tensor_pair():
    A = endomorphism_presentation(kmf(XY, "x", "x"))
    B = endomorphism_presentation(kmf(XY, "x", "y"))
    return A, B


def _single_word(pres, rng, max_len=3):
    for _ in range(40):
        c = random_chain(pres, rng, max_len=max_len, max_exp=1, nterms=1)
        if c.terms:
            return c
    raise AssertionError("could not sample a nonzero word")


def test_shuffle_counts_and_prefactor(end_x2):
    x = end_x2.chain("e", ["e*"])
    y = end_x2.chain("e*", ["e"])
    prod = sh_op(x, y)
    # internal product: leading letters multiply (e e* = E11), entries interleave
    assert all(len(atoms) == 3 for _, atoms in prod.terms)
    assert sum(abs(c) for c in prod.terms.values()) == 2
    assert sh_op(x, x).is_zero()


def test_shuffle_is_a_chain_map_externally():
    A, B = _tensor_pair()
    rng = random.Random(99)
    for _ in range(40):
        wx = _single_word(A, rng)
        wy = _single_word(B, rng)
        sgn = (-1) ** chain_parity(wx)
        lhs = b_op(sh_op(wx, wy))
        rhs = sh_op(b_op(wx), wy) + sh_op(wx, b_op(wy)).scale(sgn)
        assert (lhs - rhs).is_zero()


def test_connes_shuffle_exchange():
    A, B = _tensor_pair()
    rng = random.Random(101)
    for _ in range(40):
        x = random_chain(A, rng, max_len=3, max_exp=1, nterms=2)
        y = random_chain(B, rng, max_len=3, max_exp=1, nterms=2)
        assert (B_op(sh_op(x, B_op(y))) - sh_op(B_op(x), B_op(y))).is_zero()


def test_cyclic_shuffle_admissible_reading():
    A, B = _tensor_pair()
    zero2 = (0, 0)
    x = Chain(A, {(frozenset(), ((zero2, 3),)): Fraction(1)})
    y = Chain(B, {(frozenset(), ((zero2, 3),)): Fraction(1)})
    prod = cyclic_sh_op(x, y)
    # one admissible interleaving: the x-letter stays ahead of the y-letter,
    # with the prefactor (-1)^{|a0|}
    assert len(prod.terms) == 1
    ((coeff),) = prod.terms.values()
    assert coeff == -1
    (((_, atoms), _),) = prod.words()
    assert len(atoms) == 3
    nb = len(B.parity)
    assert [idx for _, idx in atoms] == [0, 3 * nb + 0, 0 * nb + 3]


def _cyclic_shuffles_direct(sparA, sparB):
    """Reference enumeration: every rotation pair, every interleaving, and
    the Koszul sign of the full permutation counted inversion by inversion."""
    n1, m1 = len(sparA), len(sparB)
    spar = sparA + sparB
    out = []
    for p in range(n1):
        orderA = list(range(p, n1)) + list(range(p))
        for q in range(m1):
            orderB = [n1 + i for i in list(range(q, m1)) + list(range(q))]
            for positions in combinations(range(n1 + m1), n1):
                order = [None] * (n1 + m1)
                posB = [t for t in range(n1 + m1) if t not in positions]
                for i, t in enumerate(positions):
                    order[t] = orderA[i]
                for i, t in enumerate(posB):
                    order[t] = orderB[i]
                if order.index(0) > order.index(n1):
                    continue
                negate = False
                for i in range(n1 + m1):
                    for j in range(i + 1, n1 + m1):
                        if (order[i] > order[j]
                                and spar[order[i]] and spar[order[j]]):
                            negate = not negate
                out.append((tuple(order), negate))
    return out


def test_cyclic_shuffles_match_the_direct_enumeration():
    tuples = [t for n in range(1, 5) for t in product((0, 1), repeat=n)]
    for sparA in tuples:
        for sparB in tuples:
            assert (Counter(_cyclic_shuffles(sparA, sparB))
                    == Counter(_cyclic_shuffles_direct(sparA, sparB))), (sparA, sparB)


def test_kunneth_commutation_all_u_levels():
    A, B = _tensor_pair()
    rng = random.Random(2024)
    for _ in range(25):
        wx = _single_word(A, rng, max_len=2)
        wy = _single_word(B, rng, max_len=2)
        sgn = (-1) ** chain_parity(wx)
        # u^1: B sh + b Sh = sh(Bx,y) +- sh(x,By) + Sh(bx,y) +- Sh(x,by)
        lhs1 = B_op(sh_op(wx, wy)) + b_op(cyclic_sh_op(wx, wy))
        rhs1 = (sh_op(B_op(wx), wy) + sh_op(wx, B_op(wy)).scale(sgn)
                + cyclic_sh_op(b_op(wx), wy)
                + cyclic_sh_op(wx, b_op(wy)).scale(sgn))
        assert (lhs1 - rhs1).is_zero()
        # u^2: B Sh = Sh(Bx,y) +- Sh(x,By)
        lhs2 = B_op(cyclic_sh_op(wx, wy))
        rhs2 = (cyclic_sh_op(B_op(wx), wy)
                + cyclic_sh_op(wx, B_op(wy)).scale(sgn))
        assert (lhs2 - rhs2).is_zero()


def test_kunneth_product_chain_map_on_u_series():
    A, B = _tensor_pair()
    rng = random.Random(7)
    U = 4
    for _ in range(10):
        wx = _single_word(A, rng, max_len=2)
        wy = _single_word(B, rng, max_len=2)
        sgn = (-1) ** chain_parity(wx)
        ux = UChain.from_chain(wx, U)
        uy = UChain.from_chain(wy, U)
        lhs = mixed_differential(kunneth_product(ux, uy))
        rhs = (kunneth_product(mixed_differential(ux), uy)
               + kunneth_product(ux, mixed_differential(uy)).scale(sgn))
        assert (lhs - rhs).is_zero()


def test_shuffle_refuses_cech_words(model):
    word = model.chain("e").with_alpha(0)
    with pytest.raises(ChainError):
        sh_op(word, model.chain("e"))


# ---- duality ---------------------------------------------------------------------

def test_psi_point_examples(end_x2):
    P = kmf(X, "x", "x")
    ED = endomorphism_presentation(dual_mf(P),
                                   extra_names=koszul_generator_matrices(X))
    assert psi_op(end_x2.chain("1"), ED) == ED.chain("1")
    assert psi_op(end_x2.chain("e"), ED) == ED.chain("e*")
    # length one picks up the sign (-1)^1
    got = psi_op(end_x2.chain("e", ["e"]), ED)
    assert got == ED.chain("e*", ["e*"]).scale(-1)
    got2 = psi_op(end_x2.chain("1", ["e"]), ED)
    assert got2 == ED.chain("1", ["e*"]).scale(-1)


def test_psi_b_commutes_B_anticommutes(end_x2):
    P = kmf(X, "x", "x")
    ED = endomorphism_presentation(dual_mf(P))
    rng = random.Random(31)
    for _ in range(50):
        ch = random_chain(end_x2, rng, max_len=4, max_exp=2, nterms=3)
        assert (psi_op(b_op(ch), ED) - b_op(psi_op(ch, ED))).is_zero()
        assert (psi_op(B_op(ch), ED) + B_op(psi_op(ch, ED))).is_zero()


def test_psi_reverses_entry_order(end_x2):
    P = kmf(X, "x", "x")
    ED = endomorphism_presentation(dual_mf(P),
                                   extra_names=koszul_generator_matrices(X))
    got = psi_op(end_x2.chain("1", ["e", "E11"]), ED)
    (((_, atoms), _),) = got.words()
    names = [ED.display[idx] for _, idx in atoms]
    assert names == ["1", "E11", "e*"]


# ---- the phi tower and the Cech classes -------------------------------------------

def test_phi_zero_leading_terms(model):
    phi = phi_construct(0, 3)
    assert phi.parts[0] == model.chain("e")
    assert phi.parts[1] == model.chain("e*", ["e", "e"])
    expected2 = model.zero()
    for pos in range(4):
        entries = ["e"] * 4
        entries[pos] = "e*"
        expected2 = expected2 + model.chain("e*", entries)
    assert phi.parts[2] == expected2


def test_phi_defining_identity(model):
    # phi_construct proves each degree once, on omega_k before the sign of
    # part k is applied; this replays (b + uB)(phi_j) = b(phi_j's u^0 part)
    # on the stored parts from scratch
    for j in range(5):
        phi = phi_construct(j, 6)
        target = UChain.from_chain(b_op(phi.parts[0]), 6)
        assert (mixed_differential(phi) - target).is_zero()


def test_phi_rejects_a_level_off_by_a_scalar(monkeypatch):
    # a B that is off by a constant factor must fail the level it first
    # reaches, not be divided out of the tower
    orig = hochschild.B_op
    monkeypatch.setattr(hochschild, "B_op", lambda c: orig(c).scale(2))
    phi_construct.cache_clear()
    try:
        with pytest.raises(ChainError, match=r"j=1, u\^1\b"):
            phi_construct(1, 4)
    finally:
        phi_construct.cache_clear()


def test_phi_term_growth(model):
    # part k >= 1 of phi_j is (k+j-1)!/j! times the sum of its
    # C(2k+j, k+j-1) words
    for j in range(5):
        phi = phi_construct(j, 6)
        for k in range(1, 6):
            values = set(phi.parts[k].terms.values())
            assert len(phi.parts[k].terms) == math.comb(2 * k + j, k + j - 1)
            assert values == {math.factorial(k + j - 1) // math.factorial(j)}


def test_phi_is_built_once_and_shared(model):
    phi = phi_construct(1, 4)
    assert phi_construct(1, 4) is phi
    assert isinstance(phi.parts, tuple)
    with pytest.raises(TypeError):
        phi.parts[0] = model.zero()
    before = [dict(p.terms) for p in phi.parts]
    (phi + phi).scale(3)
    assert [p.terms for p in phi.parts] == before


def test_eta_is_closed(model):
    for j in (0, 1, 2):
        eta = eta_construct(j, 4)
        assert cech_differential(eta).is_zero()


def test_eta_zero_leading_part(model):
    eta = eta_construct(0, 3)
    want = model.chain("1") + model.chain("e", alphas=(0,)).mul_mono((-1,))
    assert eta.parts[0] == want


def test_alpha_squares_to_zero(model):
    c = model.chain("e", ["e*"])
    assert alpha_op(alpha_op(c)).is_zero()


def test_euler_trace_of_y_powers(model):
    values = [euler_trace(y_power(j)) for j in range(5)]
    assert values == [1, 0, 0, 0, 0]


def test_euler_trace_ignores_positive_monomials(model):
    assert euler_trace(model.chain("1").mul_mono((2,))) == 0
    assert euler_trace(model.chain(("1", (0,)))) == 1
    with pytest.raises(ChainError):
        euler_trace(model.chain("1").mul_mono((-1,)))


# ---- coefficient form ---------------------------------------------------------------

def _exact_form(chain):
    """True when every coefficient is an int or a Fraction that is not one."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in chain.terms.values())


def test_tower_coefficients_are_int_or_proper_fraction():
    for j in range(5):
        for series in (phi_construct(j, 5), eta_construct(j, 5)):
            assert all(_exact_form(p) for p in series.parts)


def test_operator_coefficients_are_int_or_proper_fraction(model, end_x2):
    rng = random.Random(1312)
    ED = endomorphism_presentation(dual_mf(kmf(X, "x", "x")))
    A, B = _tensor_pair()
    for pres in _canonical_kinds(model, end_x2):
        for _ in range(20):
            c = random_chain(pres, rng, max_len=3, max_exp=2, nterms=4)
            d = random_chain(pres, rng, max_len=2, max_exp=1, nterms=2)
            outs = [c, b_op(c), B_op(c), sh_op(c, d), c + c.scale(Fraction(1, 2)),
                    c.scale(Fraction(3, 2)), c.scale(6), c.scale(Fraction(3, 2)).scale(2)]
            assert all(_exact_form(out) for out in outs)
    for _ in range(20):
        x = random_chain(A, rng, max_len=2, max_exp=1, nterms=2)
        y = random_chain(B, rng, max_len=2, max_exp=1, nterms=2)
        e = random_chain(end_x2, rng, max_len=3, max_exp=2, nterms=3)
        assert _exact_form(cyclic_sh_op(x, y)) and _exact_form(sh_op(x, y))
        assert _exact_form(psi_op(e, ED))
    # Fractions that cancel are stored as ints: in sums, in b (the words
    # 1/2 e[e*] and 1/2 e*[e] both reach -1[]) and in scaling
    half = model.chain("e", ["e*"], coeff=Fraction(1, 2))
    assert list((half + half).terms.values()) == [1]
    both = b_op(half + model.chain("e*", ["e"], coeff=Fraction(1, 2)))
    assert _exact_form(both) and type(dict(both.words())[(frozenset(), (((0,), 0),))]) is int
    assert type(list(half.scale(4).terms.values())[0]) is int
    assert type(list(model.chain("e", coeff=Fraction(6, 3)).terms.values())[0]) is int


def test_float_coefficient_is_rejected(model):
    e = model.chain("e")
    for make in (lambda: model.chain("e", coeff=0.5), lambda: e.scale(0.5),
                 lambda: Chain(model, {next(e.words())[0]: 0.5}),
                 lambda: Chain(model, {next(e.words())[0]: 0.0})):
        with pytest.raises(TypeError):
            make()


# ---- presentation plumbing ---------------------------------------------------------

def test_local_model_tables(model):
    # d(e) = x . id, d(e*) = 0, e e* + e* e = id, e^2 = 0
    e_idx = model.names["e"][0][0]
    estar_idx = model.names["e*"][0][0]
    assert model.diff[e_idx] == (((1,), 0, Fraction(1)),)
    assert model.diff[estar_idx] == ()
    assert model.mult[(e_idx, e_idx)] == ()
    ee = dict(model.mult[(e_idx, estar_idx)])
    se = dict(model.mult[(estar_idx, e_idx)])
    total = {k: ee.get(k, 0) + se.get(k, 0) for k in set(ee) | set(se)}
    assert {k: v for k, v in total.items() if v} == {0: Fraction(1)}


def test_tensor_presentation_is_cached_and_checked():
    A, B = _tensor_pair()
    assert tensor_presentation(A, B) is tensor_presentation(A, B)
    other = polynomial_presentation(X)
    with pytest.raises(ChainError):
        tensor_presentation(A, other)


def test_chain_repr_round_trips_visually(model):
    c = model.chain("e", ["e*"], coeff=Fraction(-3, 2)).mul_mono((2,))
    assert repr(c) == "-3/2*x^2*e[e*]"


# ---- the nested-atom reference engine -----------------------------------------------
#
# The operators as they stood when every word was a tuple of (monomial, index)
# atoms.  The letter-id operators above must agree with them word for word,
# decoded through Chain.words().

def _madd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _ref_normalize(pres, terms):
    """The canonical form by the atom rules: drop a word with an identity
    multiple past slot 0 (any multiple in module mode, a constant one in
    scalar mode); in module mode collect every monomial on a0."""
    module = pres.normalization == "module"
    clean = {}
    for (alphas, atoms), coeff in terms.items():
        if any(idx == 0 and (module or not any(mono)) for mono, idx in atoms[1:]):
            continue
        if module and len(atoms) > 1:
            total = atoms[0][0]
            for mono, _ in atoms[1:]:
                total = _madd(total, mono)
            zero = (0,) * len(total)
            atoms = ((total, atoms[0][1]),) + tuple((zero, idx) for _, idx in atoms[1:])
        _add_term(clean, (alphas, atoms), coeff)
    return clean


def _ref_b(chain):
    pres = chain.pres
    module = pres.normalization == "module"
    parity, mult, diff, curvature = pres.parity, pres.mult, pres.diff, pres.curvature
    out = {}

    def put_letter(alphas, atoms, j, mono, k, v):
        if k == 0 and (module or not any(mono)):
            return
        if module and any(mono):
            m0, i0 = atoms[0]
            _add_term(out, (alphas, ((_madd(m0, mono), i0),) + atoms[1:j]
                            + (((0,) * len(mono), k),) + atoms[j + 1:]), v)
        else:
            _add_term(out, (alphas, atoms[:j] + ((mono, k),) + atoms[j + 1:]), v)

    for (alphas, atoms), coeff in chain.words():
        n = len(atoms) - 1
        m0, i0 = atoms[0]
        shifted = [0] * (n + 2)
        for j, (_, idx) in enumerate(atoms):
            shifted[j + 1] = shifted[j] ^ ((parity[idx] + 1) & 1)
        if n >= 1:
            m1, i1 = atoms[1]
            sign = -1 if parity[i0] % 2 else 1
            for k, c in mult[(i0, i1)]:
                _add_term(out, (alphas, ((_madd(m0, m1), k),) + atoms[2:]),
                          sign * c * coeff)
            for j in range(1, n):
                (mj, ij), (mk, ik) = atoms[j], atoms[j + 1]
                mono = _madd(mj, mk)
                sign = -1 if shifted[j + 1] ^ 1 else 1
                for k, c in mult[(ij, ik)]:
                    if k == 0 and (module or not any(mono)):
                        continue
                    _add_term(out, (alphas, atoms[:j] + ((mono, k),) + atoms[j + 2:]),
                              sign * c * coeff)
            mn, i_n = atoms[n]
            sign = -1 if not ((parity[i_n] + 1) * (shifted[n] + 1)) % 2 else 1
            for k, c in mult[(i_n, i0)]:
                _add_term(out, (alphas, ((_madd(mn, m0), k),) + atoms[1:n]),
                          sign * c * coeff)
        for mono, k, c in diff[i0]:
            _add_term(out, (alphas, ((_madd(m0, mono), k),) + atoms[1:]), c * coeff)
        for j in range(1, n + 1):
            mj, ij = atoms[j]
            sign = -1 if shifted[j] else 1
            for mono, k, c in diff[ij]:
                put_letter(alphas, atoms, j, _madd(mj, mono), k, sign * c * coeff)
        for j in range(n + 1):
            sign = -1 if shifted[j + 1] ^ 1 else 1
            word = atoms[:j + 1] + (None,) + atoms[j + 1:]
            for mono, k, c in curvature:
                put_letter(alphas, word, j + 1, mono, k, sign * c * coeff)
    return out


def _ref_B(chain):
    pres = chain.pres
    module = pres.normalization == "module"
    zero = (0,) * len(pres.variables)
    out = {}
    for (alphas, atoms), coeff in chain.words():
        m0, i0 = atoms[0]
        if i0 == 0 and (module or not any(m0)):
            continue
        if module:
            lead = ((m0, 0),)
            atoms = ((zero, i0),) + atoms[1:]
        else:
            lead = ((zero, 0),)
        spar = [(pres.parity[idx] + 1) % 2 for _, idx in atoms]
        total = sum(spar) % 2
        before = 0
        for l in range(len(atoms)):
            sign = -1 if before and (total ^ before) else 1
            _add_term(out, (alphas, lead + atoms[l:] + atoms[:l]), sign * coeff)
            before ^= spar[l]
    return out


def _interleavings_pairwise(sparA, sparB):
    """_interleavings with the Koszul sign counted pair by pair."""
    n, m = len(sparA), len(sparB)
    for positions in combinations(range(n + m), n):
        posB = [p for p in range(n + m) if p not in positions]
        negate = False
        for ai, pa in enumerate(positions):
            for bj, pb in enumerate(posB):
                if pb < pa and sparA[ai] and sparB[bj]:
                    negate = not negate
        order = [None] * (n + m)
        for ai, pa in enumerate(positions):
            order[pa] = ai
        for bj, pb in enumerate(posB):
            order[pb] = n + bj
        yield tuple(order), negate


def _ref_sh(x, y):
    internal = x.pres is y.pres
    pres_out = x.pres if internal else tensor_presentation(x.pres, y.pres)
    nbb = len(y.pres.parity)
    out = {}
    for (_, ax), cx in x.words():
        for (_, ay), cy in y.words():
            sparA = tuple((x.pres.parity[i] + 1) % 2 for _, i in ax[1:])
            sparB = tuple((y.pres.parity[i] + 1) % 2 for _, i in ay[1:])
            sign = -1 if y.pres.parity[ay[0][1]] * sum(sparA) % 2 else 1
            mono = _madd(ax[0][0], ay[0][0])
            if internal:
                a0_terms = [((mono, k), c)
                            for k, c in pres_out.mult[(ax[0][1], ay[0][1])]]
                letters = ax[1:] + ay[1:]
            else:
                a0_terms = [((mono, ax[0][1] * nbb + ay[0][1]), 1)]
                letters = tuple((m, i * nbb) for m, i in ax[1:]) + ay[1:]
            for order, negate in _interleavings_pairwise(sparA, sparB):
                seq = tuple(letters[i] for i in order)
                for a0, c0 in a0_terms:
                    _add_term(out, (frozenset(), (a0,) + seq),
                              (-sign if negate else sign) * c0 * cx * cy)
    return out


def _ref_cyclic_sh(x, y):
    T = tensor_presentation(x.pres, y.pres)
    nbb = len(y.pres.parity)
    id_atom = ((0,) * len(T.variables), 0)
    out = {}
    for (_, ax), cx in x.words():
        for (_, ay), cy in y.words():
            letters = tuple((m, i * nbb) for m, i in ax) + ay
            sparA = tuple((x.pres.parity[i] + 1) % 2 for _, i in ax)
            sparB = tuple((y.pres.parity[i] + 1) % 2 for _, i in ay)
            sign = -1 if (x.pres.parity[ax[0][1]] + sum(sparA[1:])) % 2 else 1
            for order, negate in _cyclic_shuffles_direct(sparA, sparB):
                _add_term(out, (frozenset(), (id_atom,) + tuple(letters[i] for i in order)),
                          (-sign if negate else sign) * cx * cy)
    return _ref_normalize(T, out)


def _ref_psi(chain, target):
    table = star_map(chain.pres, target)
    out = {}
    for (alphas, atoms), coeff in chain.words():
        n = len(atoms) - 1
        spar = [(chain.pres.parity[idx] + 1) % 2 for _, idx in atoms]
        expo = n + sum(spar[i] * spar[j]
                       for i in range(1, n + 1) for j in range(i + 1, n + 1))
        words = [((), (-1) ** expo * coeff)]
        for mono, idx in (atoms[0],) + tuple(reversed(atoms[1:])):
            words = [(acc + ((mono, k),), c * ac)
                     for acc, c in words for k, ac in table[idx]]
        for acc, c in words:
            _add_term(out, (alphas, acc), c)
    return _ref_normalize(target, out)


@st.composite
def _atom_chains(draw, pres, max_len=3, nterms=3, alphas=True):
    """A chain from drawn atom words: Laurent exponents on the inverted
    variables and Cech tags when the presentation has them."""
    nv, nb = len(pres.variables), len(pres.parity)
    terms = {}
    for _ in range(draw(st.integers(1, nterms))):
        atoms = tuple(
            (tuple(draw(st.integers(-2 if v in pres.laurent else 0, 2))
                   for v in range(nv)), draw(st.integers(0, nb - 1)))
            for _ in range(draw(st.integers(0, max_len)) + 1))
        tags = frozenset()
        if alphas and pres.laurent:
            tags = frozenset(draw(st.sets(st.sampled_from(sorted(pres.laurent)))))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        _add_term(terms, (tags, atoms), coeff)
    return Chain(pres, terms)


def _reference_kinds():
    """Scalar, module with Laurent monomials and Cech tags, a tensor
    presentation and a curved polynomial ring (so b0 runs)."""
    A, B = _tensor_pair()
    return {
        "scalar": endomorphism_presentation(kmf(XY, "x", "y")),
        "module": endomorphism_presentation(kmf(XY, "x", "y"), normalization="module",
                                            laurent={0, 1}),
        "local": local_model_presentation(),
        "tensor": tensor_presentation(A, B),
        "curved": polynomial_presentation(XY, parse_poly("x^2 + y^3", XY), laurent={1}),
    }


REFERENCE_KINDS = _reference_kinds()


def _decoded(chain):
    return dict(chain.words())


@pytest.mark.parametrize("kind", sorted(REFERENCE_KINDS))
@seed(1507)
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_b_and_B_match_the_atom_reference(kind, data):
    pres = REFERENCE_KINDS[kind]
    c = data.draw(_atom_chains(pres))
    assert Chain(pres, _decoded(c)) == c
    for got, want in ((b_op(c), _ref_b(c)), (B_op(c), _ref_B(c))):
        assert _decoded(got) == want
        assert Chain(pres, _decoded(got)) == got


def test_b_and_B_match_the_atom_reference_on_tower_words(model):
    # the tower's words are long (nine letters here, thirteen for phi_4 at
    # u^4), and many of their joins and every entry differential are zero;
    # the drawn chains above stop at four letters
    rng = random.Random(1511)
    chains = [*phi_construct(2, 4).parts, *eta_construct(1, 4).parts]
    chains += [random_chain(model, rng, max_len=8, nterms=4, alphas=True)
               for _ in range(120)]
    assert max(len(word) for c in chains for _, word in c.terms) == 9
    for c in chains:
        for got, want in ((b_op(c), _ref_b(c)), (B_op(c), _ref_B(c))):
            assert _decoded(got) == want
            assert Chain(model, _decoded(got)) == got


def _shuffle_pairs():
    """(x presentation, y presentation) for the shuffles: internal, external
    scalar, external module and a presentation against itself."""
    A, B = _tensor_pair()
    module = [endomorphism_presentation(kmf(XY, a, b), normalization="module")
              for a, b in (("x", "x"), ("x", "y"))]
    return {"internal": (A, A), "curved": (REFERENCE_KINDS["curved"],) * 2,
            "local": (REFERENCE_KINDS["local"],) * 2, "external": (A, B),
            "module": tuple(module)}


SHUFFLE_PAIRS = _shuffle_pairs()


@pytest.mark.parametrize("kind", sorted(SHUFFLE_PAIRS))
@seed(1508)
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_shuffles_match_the_atom_reference(kind, data):
    P, Q = SHUFFLE_PAIRS[kind]
    x = data.draw(_atom_chains(P, max_len=2, nterms=2, alphas=False))
    y = data.draw(_atom_chains(Q, max_len=2, nterms=2, alphas=False))
    got = sh_op(x, y)
    assert _decoded(got) == _ref_sh(x, y)
    assert Chain(got.pres, _decoded(got)) == got
    got = cyclic_sh_op(x, y)
    assert _decoded(got) == _ref_cyclic_sh(x, y)
    assert Chain(got.pres, _decoded(got)) == got


def _psi_pairs():
    P = kmf(XY, "x", "y")
    return {mode: (endomorphism_presentation(P, normalization=mode, laurent={0}),
                   endomorphism_presentation(dual_mf(P), normalization=mode,
                                             laurent={0}))
            for mode in ("scalar", "module")}


PSI_PAIRS = _psi_pairs()


@pytest.mark.parametrize("mode", sorted(PSI_PAIRS))
@seed(1509)
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_psi_matches_the_atom_reference(mode, data):
    E, ED = PSI_PAIRS[mode]
    c = data.draw(_atom_chains(E))
    got = psi_op(c, ED)
    assert _decoded(got) == _ref_psi(c, ED)
    assert Chain(ED, _decoded(got)) == got


def test_interleavings_match_the_pairwise_signs():
    tuples = [t for n in range(6) for t in product((0, 1), repeat=n)]
    for sparA in tuples:
        for sparB in tuples:
            assert (list(_interleavings(sparA, sparB))
                    == list(_interleavings_pairwise(sparA, sparB))), (sparA, sparB)


def test_words_round_trip_through_the_constructor(model, end_x2):
    rng = random.Random(1510)
    for pres in _canonical_kinds(model, end_x2):
        for _ in range(20):
            c = random_chain(pres, rng, max_len=4, max_exp=2, nterms=4, alphas=True)
            for out in (c, b_op(c), B_op(c)):
                assert Chain(pres, dict(out.words())) == out


def test_constructor_names_the_word_form_for_id_words(model, end_x2):
    # stored words are letter ids; handing them back to the constructor,
    # which takes atom words, is a ChainError that says so
    for pres in _canonical_kinds(model, end_x2):
        c = random_chain(pres, random.Random(1601), max_len=3, max_exp=2, nterms=3)
        assert c.terms
        with pytest.raises(ChainError, match="word of atoms"):
            Chain(pres, dict(c.terms))
