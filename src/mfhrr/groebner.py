"""Groebner bases for ideals and submodules of free modules over Q[x].

The engine works on sparse vectors: dicts mapping (component, exponent
tuple) to a nonzero rational in the package's one stored form (an int when
it is integral, a Fraction with denominator > 1 otherwise), the form Poly
already holds, so polynomials enter as they are and integral work runs on
machine ints.  Every working basis element is stored monic, so reduction and
S-vectors multiply and subtract only; the one division is the monic step.
Reduction keeps the terms still to look at on a heap.
Module terms are compared position-over-term: lower component wins, ties
broken by degrevlex, the engine's one term order.  Ideals are rank-one
modules.

Cofactor certificates and syzygies both come from one construction,
GraphBasis: Buchberger runs once per generator set, on the graph module
{(g_k, e_k)} in F_r (+) F_s with the tag block ordered below the main
block.  Basis elements with zero main part carry syzygies in their tags;
normal forms of (p, 0) carry membership certificates, for as many targets
as the caller has.  Modulo an ideal (a) the a_k e_i join the graph module
untagged, so the same tags carry the relations modulo (a)·F_r.  Each
syzygy and certificate is verified once, exactly, on vectors, against the
caller's generators: the residual sum c_k g_k - target must be zero, or,
modulo (a), each of its components must lift onto a through a's own graph
basis, a lift checked exactly in turn; a failed check raises
VerificationError.  The tag block of such a basis is itself a Groebner
basis of the kernel, and the main parts of the other elements are one of
the image plus (a)·F, so one graph basis of a differential serves both
homology halves it enters, and a subquotient only counts the lead terms
between a kernel and an image, both given as vectors.  Poly enters at
GraphBasis and leaves at its syzygies and cofactors; the Ext path in
between stays on vectors.

An ideal supported at the origin (a Jacobian ideal in check_isolated, a
residue's denominators) is read off one graph basis of its generators too:
its reduced Groebner basis is the main block, the least exponents N_i with
x_i^N_i in the ideal come from normal forms against it, and the cofactors
of the pure-power cover x_i^N_i = sum_j c_ij g_j are reduced against the
same graph.  buchberger builds a plain basis and is kept as the reference
these are tested against.

The engine takes ordinary polynomials only: every polynomial enters it
through _to_vec, which passes it through polyring's one Laurent gate.  One
walk counts standard monomials (_standard_monomials): quotient_basis starts
it at each component's origin, subquotient_dim at the kernel's leads.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, le, sub

from .polyring import Poly, _exact, _require_ordinary, degrevlex_key

DEFAULT_MAX_SPAIRS = 10**6
ENV_MAX_SPAIRS = "MFHRR_MAX_SPAIRS"


class GroebnerLimitError(RuntimeError):
    """The S-pair budget was exhausted before the basis stabilized."""


class NotInIdealError(ValueError):
    """Membership certificate requested for a non-member."""


class NotZeroDimensionalError(ValueError):
    """quotient_basis called on a quotient of infinite rational dimension."""


class NonContainmentError(ValueError):
    """A claimed submodule generator is not contained in the larger module."""


class InfiniteDimensionError(ValueError):
    """A subquotient has infinite rational dimension."""


class IsolatedSingularityError(ValueError):
    """The critical locus is not a finite scheme concentrated at the origin."""


class VerificationError(RuntimeError):
    """An exact re-check of a syzygy or cofactor certificate failed."""


# -- the term order -----------------------------------------------------------
# Position over term: the lower component is the larger term, ties broken by
# degrevlex.  This is the engine's one order.

def _term_key(term):
    comp, mono = term
    return (-comp, degrevlex_key(mono))


def _heap_key(term):
    """A flat key under which the larger term of _term_key is the smaller
    one, so a heapq min-heap pops the largest term first."""
    comp, mono = term
    return (comp, -sum(mono), mono[::-1])


def _mono_mul(a, b):
    return tuple(map(add, a, b))


def _mono_divides(a, b):
    return all(map(le, a, b))


def _mono_div(a, b):
    return tuple(map(sub, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


# -- sparse vectors ----------------------------------------------------------
# Vec = dict[(comp, mono)] -> int or Fraction, as _exact leaves it: an int
# when integral, a Fraction with denominator > 1 otherwise, zeros never stored.

def v_sub_scaled(v, c, mono, g):
    """v - c * x^mono * g, in place on a copy."""
    out = dict(v)
    for (comp, m), a in g.items():
        t = (comp, _mono_mul(mono, m))
        b = out.get(t, 0) - c * a
        if b:
            out[t] = _exact(b)
        elif t in out:
            del out[t]
    return out


class _Basis:
    """Working basis of monic elements with leading-term bookkeeping."""

    def __init__(self):
        self.elems: list[dict] = []
        self.leads: list[tuple] = []

    def add(self, v):
        lead = min(v, key=_heap_key)
        lc = v[lead]
        if lc != 1:
            v = {t: _exact(Fraction(a, lc)) for t, a in v.items()}
        self.elems.append(v)
        self.leads.append(lead)
        return len(self.elems) - 1

    def find_reducer(self, term):
        comp, mono = term
        for i, (lc, lm) in enumerate(self.leads):
            if lc == comp and _mono_divides(lm, mono):
                return i
        return None


def _reduce_full(v, basis: _Basis):
    """Fully reduce v against the basis; returns the remainder.

    The largest term not yet looked at is reduced first, by the first basis
    element whose lead divides it.  Terms wait on a heap under their flat
    heap key; each subtraction runs in place and queues only the terms it
    creates, all of them below the term it removed.
    """
    rem = dict(v)
    heap = [(_heap_key(t), t) for t in rem]
    heapq.heapify(heap)
    queued = set(rem)
    while heap:
        t = heapq.heappop(heap)[1]
        c = rem.get(t)
        if not c:
            continue
        i = basis.find_reducer(t)
        if i is None:
            continue
        shift = _mono_div(t[1], basis.leads[i][1])
        for (comp, m), a in basis.elems[i].items():
            s = (comp, _mono_mul(shift, m))
            b = rem.get(s, 0) - c * a
            if b:
                rem[s] = _exact(b)
                if s not in queued:
                    queued.add(s)
                    heapq.heappush(heap, (_heap_key(s), s))
            elif s in rem:
                del rem[s]
    return rem


def _max_spairs():
    env = os.environ.get(ENV_MAX_SPAIRS)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_MAX_SPAIRS} must be an integer, got {env!r}")
    return DEFAULT_MAX_SPAIRS


def _buchberger_raw(vectors, use_product_criterion: bool):
    """Reduced Groebner basis of the module generated by the vectors.

    Returns (basis, stats), basis a _Basis whose elements are monic and
    sorted by leading term, smallest first.
    """
    max_pairs = _max_spairs()
    basis = _Basis()
    processed = 0

    for v in vectors:
        if v:
            basis.add(v)

    # pair queue keyed by the order key of the lcm term (normal strategy)
    pairs: list = []
    counter = 0

    def push_pairs(j):
        nonlocal counter
        cj, mj = basis.leads[j]
        for i in range(j):
            ci, mi = basis.leads[i]
            if ci != cj:
                continue
            lcm = _mono_lcm(mi, mj)
            if use_product_criterion and lcm == _mono_mul(mi, mj):
                continue
            counter += 1
            heapq.heappush(pairs, (_term_key((ci, lcm)), counter, i, j, lcm))

    for j in range(len(basis.elems)):
        push_pairs(j)

    done_lcms: dict[tuple[int, int], tuple] = {}
    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        ci = basis.leads[i][0]
        # chain criterion: some k with LT(k) | lcm and both (i,k), (j,k) done
        skip = False
        for k, (ck, mk) in enumerate(basis.leads):
            if k in (i, j) or ck != ci or not _mono_divides(mk, lcm):
                continue
            a = done_lcms.get((min(i, k), max(i, k)))
            b = done_lcms.get((min(j, k), max(j, k)))
            if a is not None and b is not None and a != lcm and b != lcm:
                skip = True
                break
        done_lcms[(i, j)] = lcm
        if skip:
            continue
        processed += 1
        if processed > max_pairs:
            raise GroebnerLimitError(
                f"S-pair budget exhausted ({max_pairs}); "
                f"set {ENV_MAX_SPAIRS} to raise the cap")
        gi, gj = basis.elems[i], basis.elems[j]
        li, lj = basis.leads[i], basis.leads[j]
        si = _mono_div(lcm, li[1])
        sj = _mono_div(lcm, lj[1])
        # s-vector of two monic elements: x^si g_i - x^sj g_j
        s = {(c, _mono_mul(si, m)): a for (c, m), a in gi.items()}
        s = v_sub_scaled(s, 1, sj, gj)
        rem = _reduce_full(s, basis)
        if rem:
            push_pairs(basis.add(rem))

    # minimalize: drop elements whose lead is divisible by another's,
    # keeping the rest sorted by lead, smallest first
    order_idx = sorted(range(len(basis.elems)), key=lambda i: _term_key(basis.leads[i]))
    kept: list[int] = []
    for i in order_idx:
        ci, mi = basis.leads[i]
        if any(basis.leads[k][0] == ci and _mono_divides(basis.leads[k][1], mi)
               for k in kept):
            continue
        kept.append(i)

    minimal = _Basis()
    minimal.elems = [basis.elems[i] for i in kept]
    minimal.leads = [basis.leads[i] for i in kept]

    # tail-reduce each monic element against the minimal basis: an
    # element's lead divides none of its own tail terms, and the leads stay
    reduced = _Basis()
    reduced.leads = minimal.leads
    for v, lead in zip(minimal.elems, minimal.leads):
        tail = dict(v)
        del tail[lead]
        tail = _reduce_full(tail, minimal)
        tail[lead] = 1
        reduced.elems.append(tail)

    stats = {"spairs": processed, "basis_size": len(reduced.elems)}
    return reduced, stats


# -- public interface --------------------------------------------------------

@dataclass
class GroebnerBasis:
    vars: tuple
    ncomp: int
    basis: _Basis         # monic Vec dicts sorted by lead, and their leads
    stats: dict

    @property
    def elements(self):
        return self.basis.elems

    def lead_terms(self):
        return list(self.basis.leads)


def _to_vec(g, ncomp) -> dict:
    """Accept a Poly (rank 1) or a sequence of Poly."""
    if isinstance(g, Poly):
        g = (g,)
    if len(g) != ncomp:
        raise ValueError(f"vector of length {len(g)} in a rank-{ncomp} module")
    vec = {}
    for comp, p in enumerate(g):
        _require_ordinary(p, "the Groebner engine")
        for mono, c in p.terms.items():
            vec[(comp, mono)] = c
    return vec


def _ideal_vectors(ideal, ncomp) -> list:
    """Every a e_i, a in the ideal and e_i a basis vector of F_ncomp, as a
    vector, in the order a_1 e_1, ..., a_1 e_ncomp, a_2 e_1, ..."""
    return [{(i, m): c for (_, m), c in _to_vec(a, 1).items()}
            for a in ideal for i in range(ncomp)]


def _from_vec(vec, variables, ncomp):
    comps = [dict() for _ in range(ncomp)]
    for (comp, mono), c in vec.items():
        comps[comp][mono] = c
    return tuple(Poly(variables, t) for t in comps)


def _gens_info(gens):
    gens = list(gens)
    if not gens:
        raise ValueError("no generators given")
    first = gens[0]
    if isinstance(first, Poly):
        return gens, first.vars, 1
    return gens, first[0].vars, len(first)


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal or submodule generated by gens.

    gens: list of Poly (ideal) or list of equal-length Poly tuples (module).
    """
    gens, variables, ncomp = _gens_info(gens)
    vectors = [_to_vec(g, ncomp) for g in gens]
    basis, stats = _buchberger_raw(vectors, ncomp == 1)
    return GroebnerBasis(tuple(variables), ncomp, basis, stats)


def normal_form(p, gb: GroebnerBasis):
    """Canonical remainder of p modulo the reduced basis."""
    rem = _reduce_full(_to_vec(p, gb.ncomp), gb.basis)
    out = _from_vec(rem, gb.vars, gb.ncomp)
    return out[0] if isinstance(p, Poly) and gb.ncomp == 1 else out


def quotient_basis(gb: GroebnerBasis):
    """Monomial basis of the quotient by the lead-term module.

    Returns exponent tuples for ideals, (component, exponent) pairs for
    modules.  Raises NotZeroDimensionalError when infinite.
    """
    out = sorted(_standard_monomials(
        [(comp, (0,) * len(gb.vars)) for comp in range(gb.ncomp)], gb.lead_terms(),
        lambda comp, g, i: NotZeroDimensionalError(
            f"component {comp} has no pure power of {gb.vars[i]} "
            "among the leading terms")),
        key=lambda t: (t[0], degrevlex_key(t[1])))
    if gb.ncomp == 1:
        return [m for _, m in out]
    return out


# -- graph-module constructions ----------------------------------------------

class GraphBasis:
    """Groebner basis of the graph module {(g_k, e_k)} of one generator set,
    modulo (ideal)·F when an ideal is given.

    The tag block e_1, ..., e_s is ordered below the main block, so a basis
    element whose lead lies in the tag block has zero main part and carries
    a syzygy in its tags, and reducing (p, 0) to a remainder without main
    part leaves minus a cofactor vector of p there.  Each a·e_i of the ideal
    enters untagged, as (a e_i, 0), so the tags carry relations and
    cofactors modulo (ideal)·F directly, with nothing to project away.

    The work stays on sparse vectors: gens live on F_r, and syzygy_vectors
    and lift hand out tag vectors on F_s; only syzygies and cofactors turn
    them into Poly.  Each tag vector is checked on vectors as it is handed
    out: sum c_k g_k minus the claimed target must vanish exactly, or,
    modulo an ideal, each of its components must lift onto the ideal
    through the ideal's own graph basis, a lift that is itself checked
    exactly against the ideal's generators.
    """

    def __init__(self, gens, ideal=()):
        gens, variables, self.ncomp = _gens_info(gens)
        self.vars = tuple(variables)
        self.gens = [_to_vec(g, self.ncomp) for g in gens]
        ideal = tuple(ideal)
        self.on_ideal = graph_basis(ideal) if ideal else None
        tag = (0,) * len(self.vars)
        graph = [{**g, (self.ncomp + k, tag): 1}
                 for k, g in enumerate(self.gens)]
        graph += _ideal_vectors(ideal, self.ncomp)
        self.basis, self.stats = _buchberger_raw(graph, False)

    def syzygy_vectors(self) -> list:
        """The tag-block elements as checked vectors on F_s, component k
        for g_k.  Position over term with the main block first is an
        elimination order, so they are a reduced Groebner basis of the
        module they span, in the engine's order on F_s (what subquotient_dim
        takes for a kernel)."""
        ncomp = self.ncomp
        return [self._checked({(c - ncomp, m): a for (c, m), a in e.items()}, {})
                for e, (comp, _) in zip(self.basis.elems, self.basis.leads)
                if comp >= ncomp]

    def syzygies(self) -> list:
        """Tuples c of Poly with sum c_k g_k = 0 (in (ideal)·F, given an
        ideal), generating all of them: syzygy_vectors, in order."""
        return [self._poly(v) for v in self.syzygy_vectors()]

    def image_leads(self) -> list:
        """Lead terms of span(gens) + (ideal)·F: the leads of the basis
        elements that lie in the main block.  The tag block is ordered below
        it, so the main parts of those elements are a reduced Groebner basis
        of that module in the engine's order (what subquotient_dim takes for
        the image of the gens and the _ideal_vectors)."""
        ncomp = self.ncomp
        return [t for t in self.basis.leads if t[0] < ncomp]

    def image_basis(self) -> GroebnerBasis:
        """The main parts of the main-block elements: the reduced Groebner
        basis of span(gens) + (ideal)·F that buchberger builds, with the
        leads image_leads gives and the statistics of this graph's run."""
        ncomp = self.ncomp
        basis = _Basis()
        for e, lead in zip(self.basis.elems, self.basis.leads):
            if lead[0] < ncomp:
                basis.elems.append({t: c for t, c in e.items() if t[0] < ncomp})
                basis.leads.append(lead)
        return GroebnerBasis(self.vars, ncomp, basis, self.stats)

    def lift(self, vec) -> dict:
        """Checked cofactor vector c on F_s with sum c_k g_k = vec, a vector
        on F_r (modulo (ideal)·F, given an ideal); NotInIdealError otherwise."""
        ncomp = self.ncomp
        rem = _reduce_full(vec, self.basis)
        if any(comp < ncomp for comp, _ in rem):
            raise NotInIdealError("polynomial is not in the span of the generators")
        return self._checked({(c - ncomp, m): -a for (c, m), a in rem.items()}, vec)

    def cofactors(self, target) -> tuple:
        """Tuple c of Poly with sum c_k g_k = target (modulo (ideal)·F, given
        an ideal): the lift of target; NotInIdealError otherwise."""
        return self._poly(self.lift(_to_vec(target, self.ncomp)))

    def _poly(self, tags) -> tuple:
        return _from_vec(tags, self.vars, len(self.gens))

    def _checked(self, tags, want) -> dict:
        """The tag vector, once the residual sum c_k g_k - want is proved to
        be zero, or, given an ideal, each of its components to lift onto
        the ideal."""
        acc = {t: -c for t, c in want.items()}
        for (k, m), a in tags.items():
            for (comp, gm), b in self.gens[k].items():
                t = (comp, _mono_mul(m, gm))
                c = acc.get(t, 0) + a * b
                if c:
                    acc[t] = c
                else:
                    acc.pop(t, None)
        if acc and self.on_ideal is None:
            raise VerificationError(
                "graph-module tag vector does not recombine the generators "
                "to the claimed target")
        for comp in {comp for comp, _ in acc}:
            try:
                self.on_ideal.lift({(0, m): a for (c, m), a in acc.items() if c == comp})
            except NotInIdealError:
                raise VerificationError(
                    "graph-module tag vector does not recombine the generators "
                    "to the claimed target modulo the ideal") from None
        return tags


@lru_cache(maxsize=None)
def graph_basis(gens: tuple) -> GraphBasis:
    """GraphBasis(gens), built once per tuple and shared: a nonempty reduced
    Koszul sequence a' gets one, which lifts every kernel certificate mod
    a' and, past one member, gives is_koszul_regular(a') its syzygies."""
    return GraphBasis(gens)


def matrix_graph(matrix, ideal=()) -> GraphBasis:
    """GraphBasis of the columns of an r x s Poly matrix (r, s >= 1), with
    the ideal adjoined untagged when one is given.

    Its syzygies generate {v in F_s : matrix·v in (ideal)·F_r}, and its
    image_leads are the lead terms of the image plus (ideal)·F_r.
    """
    r = len(matrix)
    if r == 0:
        raise ValueError("matrix with no rows")
    s = len(matrix[0])
    if any(len(row) != s for row in matrix):
        raise ValueError("ragged matrix")
    if s == 0:
        raise ValueError("matrix with no columns")
    cols = [tuple(matrix[i][j] for i in range(r)) for j in range(s)]
    return GraphBasis(cols, ideal=ideal)


def subquotient_dim(ker, im, im_leads) -> int:
    """Rational dimension of (span ker) / (span im), for two lists of sparse
    vectors on one free module, in the engine's Vec form.

    Preconditions: ker is a Groebner basis of its span in the engine's
    order (degrevlex, position over term, lower component first), as
    GraphBasis.syzygy_vectors returns it, and its elements need not be
    monic; im_leads are the lead terms of a Groebner basis of span im in
    that order, as GraphBasis.image_leads gives them for a graph basis of
    the same generators (and of the same ideal, im then ending with its
    _ideal_vectors).  Each image vector is reduced to zero against
    ker, or NonContainmentError is raised; a zero remainder writes it as a
    combination of ker, so containment is proved whatever ker is.  No basis
    is built here: by Macaulay's basis theorem the dimension is the number
    of lead terms of the kernel module that are not lead terms of the image
    module.  InfiniteDimensionError is raised when that number is infinite.
    """
    basis = _Basis()
    for v in ker:
        if v:
            basis.add(v)
    for idx, v in enumerate(im):
        if _reduce_full(v, basis):
            raise NonContainmentError(
                f"generator {idx} of the submodule is not contained in the module")
    return len(_standard_monomials(
        basis.leads, im_leads,
        lambda comp, g, i: InfiniteDimensionError(
            f"component {comp}: the kernel lead {g} times every power "
            f"of the variable at index {i} lies outside the image")))


def _standard_monomials(starts, leads, infinite) -> set:
    """The (component, monomial) pairs at or above the starts that no lead
    of the same component divides, found by walking up from each start.

    Infinite exactly when some start g and variable x_i leave g x_i^t
    undivided for every t: no lead h in g's component has h_k <= g_k for
    every k != i (from the origin, Dickson's criterion).  The walk then
    raises infinite(component, g, i) instead.
    """
    walls: dict[int, list] = {}
    for comp, h in leads:
        walls.setdefault(comp, []).append(h)
    seen = set()
    for comp, g in starts:
        hs = walls.get(comp, [])
        nvars = len(g)
        for i in range(nvars):
            if not any(all(h[k] <= g[k] for k in range(nvars) if k != i) for h in hs):
                raise infinite(comp, g, i)
        stack = [g]
        while stack:
            m = stack.pop()
            if (comp, m) in seen or any(_mono_divides(h, m) for h in hs):
                continue
            seen.add((comp, m))
            for i in range(nvars):
                stack.append(m[:i] + (m[i] + 1,) + m[i + 1:])
    return seen


# -- isolated singularity validation ------------------------------------------

def _origin_support(gens, what: str):
    """(graph, basis, quotient monomials, exponents) of an ideal supported
    at the origin alone, all from one GraphBasis(gens).

    The basis is the graph's image_basis, the reduced Groebner basis
    buchberger(gens) returns.  exponents[i] is the least N_i with x_i^N_i in
    the ideal, found by NF(x_i^k) = NF(x_i NF(x_i^(k-1))) for k <= mu, mu the
    quotient dimension.  Raises IsolatedSingularityError unless the quotient
    is finite and nonzero and every x_i^mu lies in the ideal: then the
    ideal's zero set is the origin only.  ``what`` names the ideal in the
    error messages.
    """
    graph = GraphBasis(gens)
    gb = graph.image_basis()
    try:
        qb = quotient_basis(gb)
    except NotZeroDimensionalError as e:
        raise IsolatedSingularityError(f"{what} is not zero-dimensional: {e}") from None
    mu = len(qb)
    if mu == 0:
        raise IsolatedSingularityError(
            f"{what} is the unit ideal: it has no zero at the origin")
    n = len(gb.vars)
    exponents = []
    for i in range(n):
        power, k = {(0, (0,) * n): 1}, 0
        while power:
            if k == mu:
                raise IsolatedSingularityError(
                    f"{what} is not supported at the origin: "
                    f"{gb.vars[i]}^{mu} is not in it")
            power = _reduce_full({(0, m[:i] + (m[i] + 1,) + m[i + 1:]): c
                                  for (_, m), c in power.items()}, gb.basis)
            k += 1
        exponents.append(k)
    return graph, gb, qb, tuple(exponents)


@dataclass(frozen=True)
class IsolatedReport:
    """The Jacobian record of a potential: Milnor number, Groebner basis
    of the Jacobian ideal, the monomial basis of the Milnor algebra, the
    graph basis of the partials the basis was read from (it gives the
    cover's cofactors), and the least exponents N_i with x_i^N_i in the
    Jacobian ideal."""

    milnor: int
    jacobian_gb: GroebnerBasis
    monomial_basis: tuple
    graph: GraphBasis
    exponents: tuple


@lru_cache(maxsize=None)
def check_isolated(f: Poly) -> IsolatedReport:
    """Validate that f has an isolated critical point at the origin only.

    Checks: f and all partials vanish at 0; the Milnor algebra
    Q[x]/(df/dx_1, ..., df/dx_n) is finite dimensional; every variable is
    nilpotent in it (so the critical scheme is concentrated at 0).

    The report is computed once per f, from one Buchberger run, and shared
    by every later call; a rejection raises anew on each call, since errors
    are not cached.
    """
    n = len(f.vars)
    if f.constant_term():
        raise IsolatedSingularityError("f does not vanish at the origin")
    partials = [f.partial(i) for i in range(n)]
    for i, p in enumerate(partials):
        if p.constant_term():
            raise IsolatedSingularityError(
                f"the origin is not a critical point: d/d{f.vars[i]} has a constant term")
    if all(p.is_zero() for p in partials):
        raise IsolatedSingularityError("f has identically vanishing gradient")
    graph, gb, qb, exponents = _origin_support(partials, "the jacobian ideal")
    return IsolatedReport(len(qb), gb, tuple(qb), graph, exponents)
