from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from mfhrr import groebner
from mfhrr.groebner import (
    GraphBasis,
    GroebnerLimitError,
    InfiniteDimensionError,
    IsolatedSingularityError,
    NonContainmentError,
    NotInIdealError,
    NotZeroDimensionalError,
    VerificationError,
    buchberger,
    check_isolated,
    matrix_graph,
    normal_form,
    quotient_basis,
    subquotient_dim,
)
from mfhrr.homalg import _differential_graph, homology_dims
from mfhrr.mfcat import Z2Complex, hom_complex, koszul_mf
from mfhrr.pairing import default_corpus
from mfhrr.polyring import Poly, parse_poly

XY = ("x", "y")


def P(s, variables=XY):
    return parse_poly(s, variables)


def lead_monos(gb):
    return sorted(m for _, m in gb.lead_terms())


# -- ideal Groebner bases -----------------------------------------------------
# worked example: (x^2, x*y + y^2) in degrevlex completes with y^3;
# the S-polynomial of the pair reduces to -x*y^2 -> y^3.

def test_hand_worked_basis():
    gb = buchberger([P("x^2"), P("x*y + y^2")])
    assert lead_monos(gb) == [(0, 3), (1, 1), (2, 0)]
    assert normal_form(P("y^3"), gb).is_zero()
    assert normal_form(P("x*y^2"), gb).is_zero()
    assert normal_form(P("y^2"), gb) == P("y^2")


def test_quotient_basis_hand_worked():
    gb = buchberger([P("x^2"), P("x*y + y^2")])
    qb = quotient_basis(gb)
    assert sorted(qb) == [(0, 0), (0, 1), (0, 2), (1, 0)]  # 1, y, y^2, x


def test_principal_ideal_normalizes():
    gb = buchberger([P("2*x^2 - 2*y")])
    (elem,) = gb.elements
    lead = gb.lead_terms()[0]
    assert elem[lead] == 1


def test_redundant_generators_collapse():
    gb1 = buchberger([P("x"), P("x + y"), P("y")])
    gb2 = buchberger([P("x"), P("y")])
    assert gb1.elements == gb2.elements


def test_determinism():
    gens = [P("x^3 - y"), P("x*y^2 + x"), P("y^4 - x^2*y")]
    a = buchberger(gens)
    b = buchberger(gens)
    assert a.elements == b.elements


# -- membership ---------------------------------------------------------------

def test_cofactors_recombine_to_target():
    gens = [P("x^2"), P("x*y + y^2")]
    cof = GraphBasis(gens).cofactors(P("y^3"))
    acc = Poly.zero(XY)
    for c, g in zip(cof, gens):
        acc = acc + c * g
    assert acc == P("y^3")


def test_member_rejects_non_member():
    with pytest.raises(NotInIdealError):
        GraphBasis([P("x^2"), P("x*y + y^2")]).cofactors(P("x"))


def test_member_vector_case():
    e1 = (P("1"), P("0"))
    gens = [(P("x"), P("y")), (P("0"), P("x"))]
    target = (P("x^2"), P("x*y + x^2"))  # x*gens0 + x*gens1
    cof = GraphBasis(gens).cofactors(target)
    assert cof[0] == P("x")
    with pytest.raises(NotInIdealError):
        GraphBasis(gens).cofactors(e1)


# -- syzygies and kernels -------------------------------------------------------

def test_koszul_syzygy():
    syz = GraphBasis([P("x"), P("y")]).syzygies()
    assert syz  # the Koszul relation (y, -x) up to sign/scale
    GraphBasis(syz).cofactors((P("y"), P("-x")))
    for a, b in syz:
        assert a * P("x") + b * P("y") == Poly.zero(XY)


def test_duplicate_generator_syzygy():
    syz = GraphBasis([P("x"), P("x")]).syzygies()
    GraphBasis(syz).cofactors((P("1"), P("-1")))


def test_module_kernel_rows():
    M = [[P("x"), P("y")]]
    ker = matrix_graph(M).syzygies()
    for k in ker:
        assert k[0] * P("x") + k[1] * P("y") == Poly.zero(XY)
    GraphBasis(ker).cofactors((P("y"), P("-x")))


def test_module_kernel_injective_map():
    # multiplication by x on Q[x,y] is injective
    assert all(k[0].is_zero() for k in matrix_graph([[P("x")]]).syzygies())


def test_module_kernel_two_rows():
    # map Q^2 -> Q^2 given by [[x, y], [0, 0]]; kernel generated by (y, -x)
    M = [[P("x"), P("y")], [P("0"), P("0")]]
    ker = matrix_graph(M).syzygies()
    GraphBasis(ker).cofactors((P("y"), P("-x")))


# -- subquotients ---------------------------------------------------------------

def _vecs(gens):
    """Poly or Poly-tuple generators as the engine's sparse vectors."""
    rank = 1 if isinstance(gens[0], Poly) else len(gens[0])
    return [groebner._to_vec(g, rank) for g in gens]


def _subquotient(ker_gens, im_gens):
    """subquotient_dim with the image leads of a basis built directly."""
    return subquotient_dim(_vecs(ker_gens), _vecs(im_gens),
                           buchberger(im_gens).lead_terms())


def test_subquotient_free_at_origin():
    e1 = (P("1"), P("0"))
    e2 = (P("0"), P("1"))
    im = [(P("x"), P("0")), (P("y"), P("0")), (P("0"), P("x")), (P("0"), P("y"))]
    assert _subquotient([e1, e2], im) == 2


def test_subquotient_one_var():
    X = ("x",)
    k = parse_poly("x", X)
    assert _subquotient([k], [parse_poly("x^3", X)]) == 2


def test_subquotient_not_contained():
    with pytest.raises(NonContainmentError):
        _subquotient([P("x^2")], [P("x")])


def test_subquotient_infinite():
    with pytest.raises(InfiniteDimensionError):
        _subquotient([P("x")], [P("x^2")])  # x*y^k survive for all k


def test_subquotient_zero_quotient():
    assert _subquotient([P("x"), P("y")], [P("x"), P("y")]) == 0


def test_subquotient_infinite_along_one_variable():
    # F_1 / (x) = Q[y]: the lead 1 times every power of y stays outside (x)
    with pytest.raises(InfiniteDimensionError, match="variable at index 1 "):
        _subquotient([P("1")], [P("x")])


def _columns(matrix):
    return [tuple(row[j] for row in matrix) for j in range(len(matrix[0]))]


def _ideal_multiples(ideal, rank, variables):
    """Every a_k e_j in a free module of the given rank."""
    zero = Poly.zero(variables)
    return [tuple(a if i == j else zero for i in range(rank))
            for a in ideal for j in range(rank)]


def _graph_subquotient_dim(ker_gens, im_gens):
    """The subquotient as it used to be counted, for any generators: F_s
    modulo the syzygies of ker_gens and the cofactor lifts of im_gens, all
    read off one graph basis, then the standard monomials of a Groebner
    basis of those relations."""
    graph = GraphBasis(ker_gens)
    relations = graph.syzygies()
    for v in im_gens:
        try:
            lift = graph.cofactors(v)
        except NotInIdealError:
            raise NonContainmentError("image generator outside the kernel") from None
        if any(not p.is_zero() for p in lift):
            relations.append(lift)
    if not relations:
        raise InfiniteDimensionError("subquotient contains a free module")
    try:
        return len(quotient_basis(buchberger(relations)))
    except NotZeroDimensionalError as e:
        raise InfiniteDimensionError(str(e)) from None


XYZ = ("x", "y", "z")


@st.composite
def homology_complexes(draw):
    """A complex and an ideal whose two homology halves ext_dims takes:
    a Koszul split of a quadric x^p + y^q (+ z^r) or a rank-1|1 split of a
    branch curve, modulo another split's sequence (the Koszul route), or
    the Hom complex of two rank-1|1 branch splits in 2 variables."""
    kind = draw(st.sampled_from(["quadric", "branch", "hom"]))
    if kind == "quadric":
        variables = draw(st.sampled_from([XY, XYZ]))
        powers = [draw(st.integers(2, 4)) for _ in variables]

        def split():
            cuts = [draw(st.integers(1, p - 1)) for p in powers]
            order = draw(st.permutations(range(len(variables))))
            return koszul_mf(
                variables,
                [P(f"{variables[k]}^{cuts[k]}", variables) for k in order],
                [P(f"{variables[k]}^{powers[k] - cuts[k]}", variables) for k in order])

        src, Q = split(), split()
        return Z2Complex(variables, Q.delta0, Q.delta1), src.koszul
    k = draw(st.integers(2, 4))
    e = draw(st.integers(1, 3))
    cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k, unique=True))
    branches = [P(f"x - ({c})*y^{e}") for c in cs]

    def split():
        mask = draw(st.integers(1, 2 ** k - 2))
        a, b = Poly.one(XY), Poly.one(XY)
        for i, br in enumerate(branches):
            if mask >> i & 1:
                a = a * br
            else:
                b = b * br
        return koszul_mf(XY, [a], [b])

    src, Q = split(), split()
    if kind == "hom":
        return hom_complex(src, Q), ()
    return Z2Complex(XY, Q.delta0, Q.delta1), src.koszul


@seed(1401)
@settings(max_examples=30, deadline=None, database=None)
@given(homology_complexes())
def test_lead_count_matches_graph_reference(case):
    C, ideal = case
    dims = homology_dims(C, ideal)[:2]
    for dim, d_out, d_in, rank in ((dims[0], C.d0, C.d1, C.rank0),
                                   (dims[1], C.d1, C.d0, C.rank1)):
        ker = matrix_graph(d_out, ideal).syzygies()
        im = _columns(d_in) + _ideal_multiples(ideal, rank, C.vars)
        assert dim == _graph_subquotient_dim(ker, im)


@seed(1401)
@settings(max_examples=30, deadline=None, database=None)
@given(homology_complexes())
def test_graph_image_leads_are_the_image_basis_leads(case):
    # the main-block leads of a differential's graph basis against the leads
    # of the reduced basis of its columns and the ideal multiples, built
    # directly: reduced bases are unique, so leads and elements match exactly
    C, ideal = case
    for d, rows in ((C.d0, C.rank1), (C.d1, C.rank0)):
        graph = matrix_graph(d, ideal)
        direct = buchberger(_columns(d) + _ideal_multiples(ideal, rows, C.vars))
        assert sorted(graph.image_leads()) == sorted(direct.lead_terms())
        assert graph.image_basis().elements == direct.elements


def _potentials():
    """The default corpus potentials, D4 and the pinned residue example."""
    fs = [parse_poly(e["f"], tuple(e["vars"])) for e in default_corpus()]
    return fs + [P("y*(x - y)*(x + y)"), P("x^3 + x*y^2")]


def test_graph_image_basis_is_the_reduced_basis_of_an_ideal():
    # an ideal's record reads its basis off one graph basis; reduced bases
    # are unique, so it equals buchberger's element by element
    rng = random.Random(1701)
    ideals = [[_random_poly(rng, XYZ if trial % 2 else XY)
               for _ in range(rng.randrange(1, 4))] for trial in range(20)]
    ideals += [[f.partial(i) for i in range(len(f.vars))] for f in _potentials()]
    for gens in ideals:
        derived, direct = GraphBasis(gens).image_basis(), buchberger(gens)
        assert derived.elements == direct.elements
        assert derived.lead_terms() == direct.lead_terms()


# -- one verified graph basis per generator set -------------------------------------

def _count_raw_bases(monkeypatch):
    calls = []
    real = groebner._buchberger_raw

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_raw", counted)
    return calls


def test_subquotient_builds_no_basis(monkeypatch):
    e1 = (P("1"), P("0"))
    e2 = (P("0"), P("1"))
    im = [(P("x"), P("0")), (P("y"), P("0")), (P("0"), P("x")), (P("0"), P("y"))]
    leads = buchberger(im).lead_terms()
    calls = _count_raw_bases(monkeypatch)
    # the kernel generators are a Groebner basis already and the image
    # leads come from the caller
    assert subquotient_dim(_vecs([e1, e2]), _vecs(im), leads) == 2
    assert calls == []


def test_corrupted_graph_basis_is_caught(monkeypatch):
    real = groebner._buchberger_raw

    def corrupted(*args, **kwargs):
        basis, stats = real(*args, **kwargs)
        for e in basis.elems:
            tag = max(e, key=lambda t: t[0])  # every graph element has a tag part
            e[tag] *= 2
        return basis, stats

    monkeypatch.setattr(groebner, "_buchberger_raw", corrupted)
    with pytest.raises(VerificationError):
        GraphBasis([P("x"), P("y")]).syzygies()
    with pytest.raises(VerificationError):
        GraphBasis([P("x^2"), P("x*y + y^2")]).cofactors(P("y^3"))


# -- kernels modulo an ideal ---------------------------------------------------------

def _projected_kernel(matrix, ideal):
    """The kernel modulo the ideal as it used to be taken: syzygies of
    [matrix | a_1 I | ... | a_r I], projected onto the matrix's source."""
    r, s = len(matrix), len(matrix[0])
    zero = Poly.zero(matrix[0][0].vars)
    wide = [list(row) + [a if i == j else zero for a in ideal for j in range(r)]
            for i, row in enumerate(matrix)]
    return [v[:s] for v in matrix_graph(wide).syzygies()
            if any(not p.is_zero() for p in v[:s])]


def _in_span_mod(vectors, ideal, target):
    """Whether target lies in span(vectors) + (ideal)·F, by an independent
    graph basis with the ideal multiples as ordinary generators."""
    rank = len(target)
    zero = Poly.zero(target[0].vars)
    multiples = [tuple(a if i == j else zero for i in range(rank))
                 for a in ideal for j in range(rank)]
    try:
        GraphBasis(list(vectors) + multiples).cofactors(target)
    except NotInIdealError:
        return False
    return True


def _koszul_split(rng, variables, powers):
    """A random Koszul split of sum x_i^p_i, in a random order."""
    pairs = []
    for v, p in zip(variables, powers):
        i = rng.randint(1, p - 1)
        pairs.append((P(f"{v}^{i}", variables), P(f"{v}^{p - i}", variables)))
    rng.shuffle(pairs)
    return koszul_mf(variables, [a for a, _ in pairs], [b for _, b in pairs])


def test_kernel_mod_ideal_matches_projected_kernel_on_koszul_splits():
    rng = random.Random(1303)
    for trial in range(6):
        variables = XYZ if trial % 3 == 2 else XY
        powers = [rng.choice((2, 3, 4)) for _ in variables]
        a = _koszul_split(rng, variables, powers).koszul
        Q = _koszul_split(rng, variables, powers)
        for d in (Q.delta0, Q.delta1):
            new, old = matrix_graph(d, a).syzygies(), _projected_kernel(d, a)
            assert new and old
            for v in new:
                assert _in_span_mod(old, a, v)
            for v in old:
                assert _in_span_mod(new, a, v)


def test_module_kernel_without_ideal_is_the_plain_kernel():
    rng = random.Random(1304)
    for _ in range(10):
        rows, cols = rng.randint(1, 2), rng.randint(1, 3)
        M = [[_random_poly(rng, XY) for _ in range(cols)] for _ in range(rows)]
        assert matrix_graph(M).syzygies() == matrix_graph(M, ()).syzygies()


def _assert_cached_kernel(d, ideal):
    """The kernel _differential_graph caches as vectors is the graph's
    syzygies, converted, element for element and in order."""
    cached = _differential_graph(d, ideal)[0]
    poly = [groebner._from_vec(v, d[0][0].vars, len(d[0])) for v in cached]
    assert poly == matrix_graph(d, ideal).syzygies()
    return poly


def test_cached_vector_kernels_are_the_graph_syzygies():
    rng = random.Random(1801)
    complexes = []
    for trial in range(4):
        # a rank-2|2 (or 4|4) Koszul split modulo another split's sequence
        variables = XYZ if trial % 2 else XY
        powers = [rng.choice((2, 3, 4)) for _ in variables]
        a = _koszul_split(rng, variables, powers).koszul
        Q = _koszul_split(rng, variables, powers)
        complexes.append((Z2Complex(variables, Q.delta0, Q.delta1), a))
        # the rank-2|2 Hom complex of two rank-1|1 splits of random branches
        cs = rng.sample(range(-2, 3), rng.randint(2, 4))
        branches = [P(f"x - ({c})*y^{rng.randint(1, 3)}") for c in cs]
        splits = []
        for mask in rng.sample(range(1, 2 ** len(cs) - 1), 2):
            left = right = Poly.one(XY)
            for i, br in enumerate(branches):
                if mask >> i & 1:
                    left = left * br
                else:
                    right = right * br
            splits.append(koszul_mf(XY, [left], [right]))
        complexes.append((hom_complex(*splits), ()))
    for C, ideal in complexes:
        dims, kernels = [], []
        for d_out, d_in, rank in ((C.d0, C.d1, C.rank0), (C.d1, C.d0, C.rank1)):
            ker = _assert_cached_kernel(d_out, ideal)
            im = _columns(d_in) + _ideal_multiples(ideal, rank, C.vars)
            dims.append(_graph_subquotient_dim(ker, im))
            kernels.append(len(ker))
        h0, h1, prov = homology_dims(C, ideal)
        assert [h0, h1] == dims
        assert prov["kernel_generators"] == kernels
    # random 2 x 2 matrices, alone and modulo a random ideal
    for trial in range(8):
        M = tuple(tuple(_random_poly(rng, XY) for _ in range(2)) for _ in range(2))
        ideal = tuple(_random_poly(rng, XY) for _ in range(trial % 3))
        _assert_cached_kernel(M, ideal)


# (x, y) -> x v1 + y v2 lands in (x^2) on (y, -x) and (x, 0); the second has
# a nonzero image, so its certificate lifts x^2 onto the ideal
KERNEL_MOD = ([[P("x"), P("y")]], (P("x^2"),))


def test_kernel_mod_ideal_hand_worked():
    M, ideal = KERNEL_MOD
    ker = matrix_graph(M, ideal).syzygies()
    for v in ((P("y"), P("-x")), (P("x"), P("0")), (P("0"), P("x^2"))):
        assert _in_span_mod(ker, ideal, v)
    assert not _in_span_mod(ker, ideal, (P("1"), P("0")))


def test_corrupted_kernel_generator_is_caught(monkeypatch):
    M, ideal = KERNEL_MOD
    groebner.graph_basis(ideal)  # built clean before the corruption
    real = groebner._buchberger_raw

    def corrupted(*args, **kwargs):
        basis, stats = real(*args, **kwargs)
        # add e_1 to every tag-lead element: its image moves by x, not in (x^2)
        for e, (comp, _) in zip(basis.elems, basis.leads):
            if comp >= 1:
                e[(1, (0, 0))] = e.get((1, (0, 0)), 0) + 1
        return basis, stats

    monkeypatch.setattr(groebner, "_buchberger_raw", corrupted)
    with pytest.raises(VerificationError):
        matrix_graph(M, ideal).syzygies()


def test_corrupted_kernel_is_caught_in_a_later_component(monkeypatch):
    # the kernel of [[x^2, y], [x, 0]] modulo (x^2) is spanned by (x, 0) and
    # (0, x^2); adding e_1 to a kernel element moves its image by (x^2, x),
    # inside (x^2) in the first component and outside it in the second, so
    # each component of the residual must be lifted onto the ideal
    M, ideal = [[P("x^2"), P("y")], [P("x"), P("0")]], (P("x^2"),)
    groebner.graph_basis(ideal)  # built clean before the corruption
    real = groebner._buchberger_raw

    def corrupted(*args, **kwargs):
        basis, stats = real(*args, **kwargs)
        for e, (comp, _) in zip(basis.elems, basis.leads):
            if comp >= 2:
                e[(2, (0, 0))] = e.get((2, (0, 0)), 0) + 1
        return basis, stats

    assert len(matrix_graph(M, ideal).syzygies()) == 2
    monkeypatch.setattr(groebner, "_buchberger_raw", corrupted)
    with pytest.raises(VerificationError, match="modulo the ideal"):
        matrix_graph(M, ideal).syzygies()


def test_corrupted_certificate_is_caught(monkeypatch):
    M, ideal = KERNEL_MOD
    bad = GraphBasis(ideal)
    for e in bad.basis.elems:
        tag = max(e, key=lambda t: t[0])
        e[tag] *= 2
    monkeypatch.setattr(groebner, "graph_basis", lambda gens: bad)
    with pytest.raises(VerificationError):
        matrix_graph(M, ideal).syzygies()


def test_stored_zero_tag_coefficient_gets_a_verdict():
    # a tag vector that breaks the no-stored-zero invariant (only a corrupted
    # basis makes one): its zero term adds nothing to the residual sum, so the
    # check still ends in a certificate or a VerificationError, never KeyError
    gb = GraphBasis([P("x"), P("y")])
    syzygy = {(0, (0, 1)): 1, (1, (1, 0)): -1, (0, (5, 5)): 0}
    assert gb._checked(syzygy, {}) is syzygy
    del syzygy[1, (1, 0)]
    with pytest.raises(VerificationError):
        gb._checked(syzygy, {})


# -- stored coefficients ------------------------------------------------------------

def _assert_stored(vec):
    for c in vec.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


def _random_poly(rng, variables):
    coeffs = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]
    terms = {tuple(rng.randrange(3) for _ in variables): rng.choice(coeffs)
             for _ in range(rng.randrange(1, 4))}
    return Poly(variables, terms)


def test_stored_coefficients_are_int_or_proper_fraction():
    # (2x - y, y^2): the reduced basis is {y^2, x - y/2}
    gb = buchberger([P("2*x - y"), P("y^2")])
    assert {t: c for e in gb.elements for t, c in e.items()} == {
        (0, (0, 2)): 1, (0, (1, 0)): 1, (0, (0, 1)): Fraction(-1, 2)}
    rng = random.Random(2024)
    for trial in range(40):
        rank = 1 + trial % 2
        gens = [tuple(_random_poly(rng, XY) for _ in range(rank))
                for _ in range(rng.randrange(1, 4))]
        if rank == 1:
            gens = [g[0] for g in gens]
        gb = buchberger(gens)
        graph = GraphBasis(gens)
        for basis in (gb.basis, graph.basis):
            for e, lead in zip(basis.elems, basis.leads):
                _assert_stored(e)
                assert e[lead] == 1
        target = _random_poly(rng, XY) if rank == 1 else (_random_poly(rng, XY),) * 2
        _assert_stored(groebner._reduce_full(groebner._to_vec(target, rank), gb.basis))


# -- heap reduction against the sorted reference ------------------------------------

def _sorted_reduce(v, basis):
    """The reduction _reduce_full replaced, kept as its reference: re-sort
    the remaining terms after every step and reduce the largest."""
    key = groebner._term_key
    rem = dict(v)
    pending = sorted(rem, key=key, reverse=True)
    while pending:
        t = pending.pop(0)
        c = rem.get(t)
        if not c:
            continue
        i = basis.find_reducer(t)
        if i is None:
            continue
        shift = groebner._mono_div(t[1], basis.leads[i][1])
        rem = groebner.v_sub_scaled(rem, c, shift, basis.elems[i])
        pending = sorted((s for s in rem if key(s) <= key(t)), key=key, reverse=True)
    return rem


def _random_vec(rng, ncomp, nvars):
    coeffs = [1, -1, 3, Fraction(1, 2), Fraction(-2, 3)]
    return {(rng.randrange(ncomp), tuple(rng.randrange(4) for _ in range(nvars))):
            rng.choice(coeffs) for _ in range(rng.randrange(1, 7))}


def test_heap_reduction_matches_sorted_reference(monkeypatch):
    rng = random.Random(1305)
    real = groebner._reduce_full
    snapshots = []

    def checked(v, basis):
        out = real(v, basis)
        assert out == _sorted_reduce(v, basis)
        snapshots.append((list(basis.elems), list(basis.leads)))
        return out

    monkeypatch.setattr(groebner, "_reduce_full", checked)
    finals = []
    for trial in range(6):
        rank = 1 + trial % 2
        gens = [tuple(_random_poly(rng, XY) for _ in range(rank))
                for _ in range(rng.randrange(2, 4))]
        finals.append(buchberger(gens).basis)
        finals.append(GraphBasis(gens).basis)
    monkeypatch.setattr(groebner, "_reduce_full", real)
    working = []
    for elems, leads in snapshots[::max(1, len(snapshots) // 40)]:
        basis = groebner._Basis()
        basis.elems, basis.leads = elems, leads
        working.append(basis)
    assert working
    for basis in working + finals:
        ncomp = 1 + max(comp for comp, _ in basis.leads)
        for _ in range(5):
            v = _random_vec(rng, ncomp, len(XY))
            assert real(v, basis) == _sorted_reduce(v, basis)


# -- zero dimensionality ----------------------------------------------------------

def test_quotient_basis_infinite_raises():
    gb = buchberger([P("x")])
    with pytest.raises(NotZeroDimensionalError):
        quotient_basis(gb)


def test_milnor_numbers():
    # f = x^3 + y^3 : jacobian (3x^2, 3y^2), milnor number 4
    rep = check_isolated(P("x^3 + y^3"))
    assert rep.milnor == 4
    # f = x^2 + y^3 : milnor number 2
    assert check_isolated(P("x^2 + y^3")).milnor == 2
    # f = x*y : milnor number 1
    assert check_isolated(P("x*y")).milnor == 1


def test_isolated_exponents_are_least():
    # x_i^N_i lies in the Jacobian ideal and x_i^(N_i - 1) does not, by
    # normal forms against a basis built directly
    for f in _potentials():
        n = len(f.vars)
        gb = buchberger([f.partial(i) for i in range(n)])
        for i, e in enumerate(check_isolated(f).exponents):
            def power(k):
                return Poly.monomial(f.vars, tuple(k if j == i else 0 for j in range(n)))
            assert normal_form(power(e), gb).is_zero()
            assert not normal_form(power(e - 1), gb).is_zero()


def test_isolated_rejects_nonisolated():
    with pytest.raises(IsolatedSingularityError):
        check_isolated(P("x^2*y^2"))


def test_isolated_rejects_noncritical_origin():
    with pytest.raises(IsolatedSingularityError):
        check_isolated(P("x^2 - 2*x + y^2"))


def test_isolated_rejects_smooth():
    with pytest.raises(IsolatedSingularityError):
        check_isolated(P("x"))


def test_isolated_rejects_offorigin_critical_point():
    # f = x^2(x-1)^2 + y^2 has critical points at x=0 and x=1
    f = P("x^4 - 2*x^3 + x^2 + y^2")
    with pytest.raises(IsolatedSingularityError):
        check_isolated(f)


# -- resource cap -----------------------------------------------------------------

def test_spair_budget(monkeypatch):
    # the graph-basis path (syzygies, cofactors, subquotients) obeys the cap too
    monkeypatch.setenv("MFHRR_MAX_SPAIRS", "0")
    with pytest.raises(GroebnerLimitError):
        GraphBasis([P("x^2"), P("x*y + y^2")]).syzygies()


def test_spair_budget_env(monkeypatch):
    monkeypatch.setenv("MFHRR_MAX_SPAIRS", "0")
    with pytest.raises(GroebnerLimitError):
        buchberger([P("x^2"), P("x*y + y^2")])


def test_spair_budget_env_rejects_a_negative_cap(monkeypatch):
    # 0 is a cap (no S-pair at all); a negative value is a malformed setting,
    # not a budget that every basis exhausts
    monkeypatch.setenv("MFHRR_MAX_SPAIRS", "-4")
    with pytest.raises(ValueError, match="MFHRR_MAX_SPAIRS must be a non-negative "
                                         "integer, got '-4'"):
        buchberger([P("x^2"), P("x*y + y^2")])


# -- randomized consistency ---------------------------------------------------------

small_polys = st.builds(
    lambda pairs: Poly(XY, {m: Fraction(c) for m, c in pairs}),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                  st.integers(-4, 4)),
        min_size=1, max_size=3,
    ),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3), small_polys, small_polys)
def test_normal_form_properties(gens, p, q):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = buchberger(gens)
    r = normal_form(p, gb)
    # idempotent
    assert normal_form(r, gb) == r
    # the defect is a member
    assert normal_form(p - r, gb).is_zero()
    # additive
    assert normal_form(p + q, gb) == normal_form(normal_form(p, gb) + normal_form(q, gb), gb)
    # multiples of generators vanish
    for g in gens:
        assert normal_form(p * g, gb).is_zero()
