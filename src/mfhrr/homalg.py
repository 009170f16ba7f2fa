"""Ext dimensions and Euler characteristics of matrix factorizations.

The shipping routes are exact.  Each differential d gets one graph basis
of its columns, matrix_graph(d, a) (with a = () off the Koszul route),
built once per (d, a): its tag block is a Groebner basis of ker d modulo
(a)·F, its verified syzygies, kept as sparse vectors, and its other
elements give the lead terms of im d + (a)·F.  Each homology dimension is
a subquotient dimension over the polynomial ring, counted as the kernel's
lead terms outside the image's, so a complex builds two Groebner bases.
Ext(P, Q) is the homology of hom_complex(P, Q), or, when P is a Koszul
factorization K(a, b) with a regular, the homology of Q reduced mod (a),
a complex rank(P) times smaller (see ext_dims).  On that route each member
a_i = c x_k + h that solves for a variable (c a nonzero constant, x_k not
in h) is first substituted away: x_k -> -h/c maps R onto R' = Q[x minus
x_k] with kernel (a_i), and a_i is a nonzerodivisor, so R/(a) = R'/(a'),
Q (x) R/(a) = Q' (x) R'/(a') and H_1(a; R) = H_1(a'; R'): the regularity
test and every Groebner basis see only a' over R'.  The subquotient
reduces every image generator to zero modulo the kernel's basis, so it
also proves d^2 = 0 exactly (modulo a' over R' on the Koszul route), the
one place where a complex is checked to be one.  A degree-truncated dense
linear algebra routine over the Hom complex is an independent
cross-check; the two must agree whenever the answer is finite.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from .groebner import (
    GraphBasis,
    NotInIdealError,
    _ideal_vectors,
    _to_vec,
    check_isolated,
    graph_basis,
    matrix_graph,
    subquotient_dim,
)
from .mfcat import MatrixFactorization, MFValidationError, Z2Complex, hom_complex
from .polyring import Poly, _exact, _require_ordinary


@dataclass
class ExtReport:
    dim_ext0: int
    dim_ext1: int
    chi: int
    provenance: dict

    def as_dict(self):
        return {
            "dim_ext0": self.dim_ext0,
            "dim_ext1": self.dim_ext1,
            "chi": self.chi,
            "provenance": self.provenance,
        }


def homology_dims(C: Z2Complex, ideal=()):
    """(dim H0, dim H1, provenance record) of C tensored with R/(ideal).

    H0 = {v : d0 v in (ideal) C1} / (im d1 + (ideal) C0), and H1 likewise;
    with no ideal these are ker d0 / im d1 and ker d1 / im d0.  Each half is
    computed by _homology_half, cached by content: a shifted complex, or
    K(b, a) after K(a, b), gets the same two halves swapped.  The two halves
    share two Groebner bases, one graph basis per differential
    (_differential_graph): the half where d leaves the source reads its
    kernel, the half where d enters reads its image leads, and the
    dimension is the number of kernel lead terms that are not image lead
    terms.  Each column of d1 (and each a_k e_j) is reduced to zero
    modulo the kernel basis of d0, and each column of d0 modulo that of
    d1, so dimensions come back only for a complex modulo the ideal, and
    d^2 = 0 is proved once for each distinct half: if d0 d1 or d1 d0 is
    not in the ideal this raises NonContainmentError (or
    InfiniteDimensionError, when H0 is already infinite), and errors are
    not cached.
    """
    ideal = tuple(ideal)
    h0, k0 = _homology_half(C.d0, C.d1, ideal)
    h1, k1 = _homology_half(C.d1, C.d0, ideal)
    prov = {
        "complex_dims": [C.rank0, C.rank1],
        "kernel_generators": [k0, k1],
    }
    return h0, h1, prov


@lru_cache(maxsize=None)
def _homology_half(d_out, d_in, ideal):
    """(dim, kernel generator count) of {v : d_out v in (ideal)} modulo
    im d_in + (ideal).  The image generators, the columns of d_in and every
    a_k e_j, are built here as vectors, once per half."""
    ker, _ = _differential_graph(d_out, ideal)
    _, im_leads = _differential_graph(d_in, ideal)
    rank = len(d_in)
    im = [_to_vec(col, rank) for col in zip(*d_in)] + _ideal_vectors(ideal, rank)
    return subquotient_dim(ker, im, im_leads), len(ker)


@lru_cache(maxsize=None)
def _differential_graph(d, ideal):
    """(kernel, image leads) of the matrix d modulo (ideal)·F, both read off
    matrix_graph(d, ideal), built once per (d, ideal) by content.

    The kernel is the verified tag block as vectors, the graph's
    syzygy_vectors; the image leads are those of the main-block elements,
    the lead terms of im d + (ideal)·F (GraphBasis.image_leads).
    """
    graph = matrix_graph(d, ideal)
    return graph.syzygy_vectors(), graph.image_leads()


@lru_cache(maxsize=None)
def is_koszul_regular(a: tuple) -> bool:
    """Whether the Koszul complex K(a) resolves R/(a), i.e. H_1(a) = 0.

    H_1(a) is the syzygy module of a modulo the Koszul relations
    a_j e_i - a_i e_j, so it vanishes exactly when every syzygy of a is a
    combination of those relations.  A zero entry is rejected outright;
    then one member or none is regular (R is a domain) with no basis
    built.  ext_dims asks this of a' over R': H_1(a; R) = H_1(a'; R').
    """
    if any(p.is_zero() for p in a):
        return False
    if len(a) < 2:
        return True
    r = len(a)
    zero = Poly.zero(a[0].vars)
    relations = [tuple(a[j] if k == i else -a[i] if k == j else zero for k in range(r))
                 for i in range(r) for j in range(i + 1, r)]
    graph = GraphBasis(relations)
    try:
        for s in graph_basis(a).syzygy_vectors():
            graph.lift(s)
    except NotInIdealError:
        return False
    return True


def _solved_variable(p: Poly):
    """(k, c) for the lowest k with p = c x_k + h, c a nonzero constant and
    x_k absent from h; None when p solves for no variable."""
    n = len(p.vars)
    for k in range(n):
        c = p.terms.get((0,) * k + (1,) + (0,) * (n - k - 1))
        if c and sum(1 for m in p.terms if m[k]) == 1:
            return k, c
    return None


def _substitution(p: Poly, k: int, c):
    """The ring map Q[x] -> Q[x minus x_k], x_k -> -h/c, for p = c x_k + h,
    as a function on Poly that caches the powers of -h/c and its results."""
    keep = p.vars[:k] + p.vars[k + 1:]
    value = Poly(keep, {m[:k] + m[k + 1:]: Fraction(-b) / c
                        for m, b in p.terms.items() if not m[k]})
    powers, memo = [Poly.one(keep)], {}

    def sub(q: Poly) -> Poly:
        if q not in memo:
            _require_ordinary(q, "the Koszul route")
            terms = {}
            for m, b in q.terms.items():
                while len(powers) <= m[k]:
                    powers.append(powers[-1] * value)
                rest = m[:k] + m[k + 1:]
                for pm, pc in powers[m[k]].terms.items():
                    t = tuple(map(add, rest, pm))
                    terms[t] = terms.get(t, 0) + b * pc
            memo[q] = Poly(keep, terms)
        return memo[q]
    return keep, sub


def _solve_out(a: tuple):
    """(R', a', subs) with R/(a) = R'/(a'): while some member of a solves
    for a variable (_solved_variable; members in sequence order, the lowest
    variable first), substitute it away from the other members and drop
    that member and variable.  R' is the tuple of variables left, and subs
    lists the substitutions in the order made, each a ring map on Poly
    (_substitution); applied in turn they take R onto R'."""
    a, i = list(a), 0
    keep, subs = a[0].vars, []
    while i < len(a):
        found = _solved_variable(a[i])
        if found is None:
            i += 1
            continue
        keep, sub = _substitution(a.pop(i), *found)
        subs.append(sub)
        a, i = [sub(p) for p in a], 0
    return keep, tuple(a), subs


def ext_dims(P: MatrixFactorization, Q: MatrixFactorization) -> ExtReport:
    """Dimensions of the even and odd cohomology of hom_complex(P, Q).

    Requires the common potential to have an isolated critical point at the
    origin, and checks that first.

    Two routes give the same numbers; provenance["route"] names the one
    taken.  When P carries a Koszul sequence a = (a_1, ..., a_r)
    (P.koszul, so P is isomorphic to K(a, b)) and H_1(a) = 0, then

        Ext^i(P, Q) = H^{i + r mod 2}(Q (x) R/(a)),

    the homology of Q's own differential reduced mod (a); this is the
    "koszul" route, on a complex of rank(Q) instead of rank(P) rank(Q).
    Why: Hom(K(a, b), Q) is the exterior algebra on r odd generators
    tensored with Q, with differential s + t + delta_Q, where s is the
    Koszul cochain differential of a (degree +1 in the exterior grading)
    and t, built from b, has degree -1.  H_1(a) = 0 makes a Koszul-regular
    (locally at each prime over (a) it is a regular sequence, elsewhere
    the Koszul homology vanishes anyway), so the s-cohomology of the
    exterior algebra over R is R/(a), concentrated in exterior degree r.
    Over the rationals pick a contraction onto it and perturb by t and
    delta_Q (the perturbation lemma): the exterior filtration is finite,
    every correction term passes through the homotopy and so leaves
    degree r, and the transferred differential is delta_Q mod (a).
    Degree r of the exterior algebra has parity r, which shifts the
    Z/2 degree by r.  First each variable the sequence solves for is
    substituted away (_solve_out): if a_i = c x_k + h with c a nonzero
    constant and x_k not in h, R -> R' = Q[x minus x_k], x_k -> -h/c, is
    onto with kernel (a_i) (it fixes R' inside R, and x_k + h/c = a_i / c).
    So R/(a) = R'/(a') with a' the images of the other members,
    Q (x) R/(a) = Q' (x) R'/(a') with Q' the image of Q's complex, and, as
    a_i is a nonzerodivisor, K(a; R) ~ K(a'; R') and H_1(a; R) =
    H_1(a'; R'): is_koszul_regular decides on a', and only then is Q's
    complex mapped to R' by the substitutions.  A sequence that fails it,
    and every P without a sequence, takes the "hom_complex" route,
    homology_dims(hom_complex(P, Q)).  Homology, chi and the parity shift
    (r counts the whole sequence) are unchanged, and d^2 = 0 and every
    certificate are proved on the smaller complex, modulo a' over R'.
    """
    check_isolated(P.f)
    if P.vars != Q.vars:
        raise MFValidationError("factorizations over different variable lists")
    if P.f != Q.f:
        raise MFValidationError("factorizations of different potentials")
    reduced = P.koszul is not None and _solve_out(P.koszul)
    if reduced and is_koszul_regular(reduced[1]):
        keep, a, subs = reduced
        d0, d1 = Q.delta0, Q.delta1
        for sub in subs:
            d0, d1 = ([[sub(p) for p in row] for row in d] for d in (d0, d1))
        h0, h1, prov = homology_dims(Z2Complex(keep, d0, d1), a)
        if len(P.koszul) % 2:
            h0, h1 = h1, h0
        route = "koszul"
    else:
        h0, h1, prov = homology_dims(hom_complex(P, Q))
        route = "hom_complex"
    return ExtReport(h0, h1, h0 - h1, {**prov, "route": route})


def euler_chi(P: MatrixFactorization, Q: MatrixFactorization) -> int:
    return ext_dims(P, Q).chi


# -- independent cross-check ---------------------------------------------------
#
# Dense linear algebra on the finite-dimensional space of morphisms whose
# entries have total degree < N.  Closedness is solved exactly (images are
# kept in the larger space of degree < N + D), exactness is the dimension of
# the image intersected back with the degree-< N subspace.  N is raised until
# the reported pair of dimensions is stable twice in a row.


def _monomials_below(nvars, bound):
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, bound - 1)
    out.sort(key=lambda m: (sum(m), m))
    return out


def _matrix_columns_truncated(matrix, variables, monos):
    """Columns of the map on (slot, monomial) coordinates, as sparse dicts."""
    cols = []
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    for s in range(ncols):
        entries = [(i, matrix[i][s]) for i in range(nrows) if matrix[i][s]]
        for m in monos:
            col = {}
            for i, p in entries:
                for mono, c in p.terms.items():
                    key = (i, tuple(a + b for a, b in zip(mono, m)))
                    col[key] = col.get(key, 0) + c
                    if not col[key]:
                        del col[key]
            cols.append(col)
    return cols


def _eliminate(columns, coord_key):
    """Sparse column echelon; returns the pivot coordinates."""
    pivots = {}
    for col in columns:
        col = dict(col)
        while col:
            lead = min(col, key=coord_key)
            piv = pivots.get(lead)
            if piv is None:
                lc = col[lead]
                pivots[lead] = {k: _exact(Fraction(v, lc)) for k, v in col.items()}
                break
            c = col[lead]
            for k, v in piv.items():
                w = col.get(k, 0) - c * v
                if w:
                    col[k] = w
                else:
                    col.pop(k, None)
    return pivots


def _truncated_pair(C: Z2Complex, bound):
    variables = C.vars
    nv = len(variables)
    monos_in = _monomials_below(nv, bound)
    dim0 = C.rank0 * len(monos_in)
    dim1 = C.rank1 * len(monos_in)

    def plain_key(coord):
        i, m = coord
        return (sum(m), m, i)

    def high_first_key(coord):
        i, m = coord
        d = sum(m)
        return (0 if d >= bound else 1, d, m, i)

    def halves(d_mat, dim_src):
        cols = _matrix_columns_truncated(d_mat, variables, monos_in)
        rank = len(_eliminate(cols, plain_key))
        dim_ker = dim_src - rank
        piv = _eliminate(cols, high_first_key)
        dim_im_low = sum(1 for (i, m) in piv if sum(m) < bound)
        return dim_ker, dim_im_low

    ker0, im_into1 = halves(C.d0, dim0)
    ker1, im_into0 = halves(C.d1, dim1)
    return (ker0 - im_into0, ker1 - im_into1)


def ext_dims_truncated(P: MatrixFactorization, Q: MatrixFactorization, *,
                       start: int = 2, max_degree: int = 24):
    """Cross-check route for ext_dims; returns (dim_ext0, dim_ext1).

    Stops once three consecutive truncation levels report the same pair.
    A bound below the degree of some differential entry cannot see that
    entry act at all, so the window only opens past the largest one.
    """
    C = hom_complex(P, Q)
    deg_step = max((sum(mono) for M in (C.d0, C.d1) for row in M
                    for p in row for mono in p.terms), default=0)
    history = []
    for bound in range(max(start, deg_step + 1), max_degree + 1):
        history.append(_truncated_pair(C, bound))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return history[-1]
    raise RuntimeError(
        f"truncated ext dimensions did not stabilize below degree {max_degree}: "
        f"{history}")
