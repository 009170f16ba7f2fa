"""Groebner bases for ideals and submodules of free modules over Q[x].

The engine works on sparse vectors: dicts mapping (component, exponent
tuple) to Fraction.  Module terms are compared position-over-term: lower
component wins, ties broken by the ring order (degrevlex by default).
Ideals are rank-one modules.

Cofactor certificates and syzygies both come from one construction,
GraphBasis: Buchberger runs once per generator set, on the graph module
{(g_k, e_k)} in F_r (+) F_s with the tag block ordered below the main
block.  Basis elements with zero main part carry syzygies in their tags;
normal forms of (p, 0) carry membership certificates, for as many targets
as the caller has.  Each syzygy and certificate is verified once, exactly,
against the caller's generators; a failed check raises VerificationError.

The engine takes ordinary polynomials only: a negative exponent raises
LaurentError where a polynomial enters it.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polyring import LaurentError, Poly, degrevlex_key

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


# -- term orders -------------------------------------------------------------

def lex_key(mono):
    return tuple(mono)


RING_KEYS = {"degrevlex": degrevlex_key, "lex": lex_key}


def term_key(order: str):
    ring = RING_KEYS[order]

    def key(term):
        comp, mono = term
        return (-comp, ring(mono))

    return key


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# -- sparse vectors ----------------------------------------------------------
# Vec = dict[(comp, mono)] -> Fraction, zero coefficients never stored.

def v_sub_scaled(v, c, mono, g):
    """v - c * x^mono * g, in place on a copy."""
    out = dict(v)
    for (comp, m), a in g.items():
        t = (comp, _mono_mul(mono, m))
        b = out.get(t, Fraction(0)) - c * a
        if b:
            out[t] = b
        elif t in out:
            del out[t]
    return out

def v_lead(v, key):
    return max(v, key=key)


class _Basis:
    """Working basis with leading-term bookkeeping."""

    def __init__(self, order: str):
        self.key = term_key(order)
        self.elems: list[dict] = []
        self.leads: list[tuple] = []

    def add(self, v):
        self.elems.append(v)
        self.leads.append(v_lead(v, self.key))
        return len(self.elems) - 1

    def find_reducer(self, term):
        comp, mono = term
        for i, (lc, lm) in enumerate(self.leads):
            if lc == comp and _mono_divides(lm, mono):
                return i
        return None


def _reduce_full(v, basis: _Basis):
    """Fully reduce v against the basis; returns the remainder."""
    key = basis.key
    rem = dict(v)
    # repeatedly reduce the largest still-reducible term
    pending = sorted(rem, key=key, reverse=True)
    while pending:
        t = pending.pop(0)
        c = rem.get(t)
        if not c:
            continue
        i = basis.find_reducer(t)
        if i is None:
            continue
        lc_comp, lc_mono = basis.leads[i]
        g = basis.elems[i]
        shift = _mono_div(t[1], lc_mono)
        ratio = c / g[basis.leads[i]]
        rem = v_sub_scaled(rem, ratio, shift, g)
        # new terms may have appeared strictly below t
        pending = sorted((s for s in rem if key(s) <= key(t)), key=key, reverse=True)
    return rem


def _max_spairs():
    env = os.environ.get(ENV_MAX_SPAIRS)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_MAX_SPAIRS} must be an integer, got {env!r}")
    return DEFAULT_MAX_SPAIRS


def _buchberger_raw(vectors, order: str, use_product_criterion: bool):
    """Reduced Groebner basis of the module generated by the vectors.

    Returns (basis, stats), basis a _Basis whose elements are monic and
    sorted by leading term, smallest first.
    """
    max_pairs = _max_spairs()
    key = term_key(order)
    basis = _Basis(order)
    processed = 0

    for v in vectors:
        if v:
            basis.add(dict(v))

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
            heapq.heappush(pairs, (key((ci, lcm)), counter, i, j, lcm))

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
        # s-vector: normalize both shifts to coefficient 1 at the lcm term
        s: dict = {}
        lci = gi[li]
        for (c, m), a in gi.items():
            t = (c, _mono_mul(si, m))
            s[t] = s.get(t, Fraction(0)) + a / lci
        s = v_sub_scaled(s, Fraction(1) / gj[lj], sj, gj)
        rem = _reduce_full(s, basis)
        if rem:
            push_pairs(basis.add(rem))

    # minimalize: drop elements whose lead is divisible by another's,
    # keeping the rest sorted by lead, smallest first
    order_idx = sorted(range(len(basis.elems)), key=lambda i: key(basis.leads[i]))
    kept: list[int] = []
    for i in order_idx:
        ci, mi = basis.leads[i]
        if any(basis.leads[k][0] == ci and _mono_divides(basis.leads[k][1], mi)
               for k in kept):
            continue
        kept.append(i)

    minimal = _Basis(order)
    minimal.elems = [basis.elems[i] for i in kept]
    minimal.leads = [basis.leads[i] for i in kept]

    # tail-reduce each against the minimal basis, then make monic: an
    # element's lead divides none of its own tail terms, and the leads stay
    reduced = _Basis(order)
    reduced.leads = minimal.leads
    for v, lead in zip(minimal.elems, minimal.leads):
        tail = dict(v)
        del tail[lead]
        tail = _reduce_full(tail, minimal)
        tail[lead] = v[lead]
        lc = tail[lead]
        reduced.elems.append({t: a / lc for t, a in tail.items()})

    stats = {"spairs": processed, "basis_size": len(reduced.elems)}
    return reduced, stats


# -- public interface --------------------------------------------------------

@dataclass
class GroebnerBasis:
    vars: tuple
    order: str
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
        for mono, c in p.terms.items():
            if any(e < 0 for e in mono):
                raise LaurentError(f"negative exponent in {p}: the Groebner engine "
                                   "takes ordinary polynomials")
            vec[(comp, mono)] = c
    return vec


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


def buchberger(gens, order: str = "degrevlex") -> GroebnerBasis:
    """Reduced Groebner basis of the ideal or submodule generated by gens.

    gens: list of Poly (ideal) or list of equal-length Poly tuples (module).
    """
    gens, variables, ncomp = _gens_info(gens)
    vectors = [_to_vec(g, ncomp) for g in gens]
    basis, stats = _buchberger_raw(vectors, order, ncomp == 1)
    return GroebnerBasis(tuple(variables), order, ncomp, basis, stats)


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
    nvars = len(gb.vars)
    by_comp: dict[int, list] = {c: [] for c in range(gb.ncomp)}
    for comp, mono in gb.lead_terms():
        by_comp[comp].append(mono)
    # Dickson criterion: finite iff every component sees a pure power of
    # every variable among its leading monomials
    for comp in range(gb.ncomp):
        monos = by_comp[comp]
        if any(all(e == 0 for e in m) for m in monos):
            continue  # the whole component dies
        for i in range(nvars):
            if not any(m[i] > 0 and all(e == 0 for k, e in enumerate(m) if k != i)
                       for m in monos):
                raise NotZeroDimensionalError(
                    f"component {comp} has no pure power of {gb.vars[i]} "
                    "among the leading terms")
    out = []
    for comp in range(gb.ncomp):
        monos = by_comp[comp]
        seen = set()
        stack = [(0,) * nvars]
        while stack:
            m = stack.pop()
            if m in seen or any(_mono_divides(g, m) for g in monos):
                continue
            seen.add(m)
            for i in range(nvars):
                up = list(m)
                up[i] += 1
                stack.append(tuple(up))
        out.extend((comp, m) for m in seen)
    out.sort(key=lambda t: (t[0], degrevlex_key(t[1])))
    if gb.ncomp == 1:
        return [m for _, m in out]
    return out


# -- graph-module constructions ----------------------------------------------

class GraphBasis:
    """Groebner basis of the graph module {(g_k, e_k)} of one generator set.

    The tag block e_1, ..., e_s is ordered below the main block, so a basis
    element whose lead lies in the tag block has zero main part and carries
    a syzygy in its tags, and reducing (p, 0) to a remainder without main
    part leaves minus a cofactor vector of p there.  Each syzygy and each
    cofactor vector is checked against the generators as it is handed out.
    """

    def __init__(self, gens, order: str = "degrevlex"):
        gens, variables, self.ncomp = _gens_info(gens)
        self.vars = tuple(variables)
        self.gens = [_to_vec(g, self.ncomp) for g in gens]
        tag = (0,) * len(self.vars)
        graph = [{**g, (self.ncomp + k, tag): Fraction(1)}
                 for k, g in enumerate(self.gens)]
        self.basis, _ = _buchberger_raw(graph, order, False)

    def syzygies(self) -> list:
        """Tuples c of Poly with sum c_k g_k = 0, generating all of them."""
        ncomp = self.ncomp
        return [self._verified({(c - ncomp, m): a for (c, m), a in e.items()}, {})
                for e, (comp, _) in zip(self.basis.elems, self.basis.leads)
                if comp >= ncomp]

    def cofactors(self, target) -> tuple:
        """Tuple c of Poly with sum c_k g_k = target; NotInIdealError otherwise."""
        ncomp = self.ncomp
        vec = _to_vec(target, ncomp)
        rem = _reduce_full(vec, self.basis)
        if any(comp < ncomp for comp, _ in rem):
            raise NotInIdealError("polynomial is not in the span of the generators")
        return self._verified({(c - ncomp, m): -a for (c, m), a in rem.items()}, vec)

    def _verified(self, tags, want) -> tuple:
        """The tag vector as Poly cofactors, once sum c_k g_k = want holds."""
        acc = {}
        for (k, m), a in tags.items():
            for (comp, gm), b in self.gens[k].items():
                t = (comp, _mono_mul(m, gm))
                c = acc.get(t, 0) + a * b
                if c:
                    acc[t] = c
                else:
                    del acc[t]
        if acc != want:
            raise VerificationError(
                "graph-module tag vector does not recombine the generators "
                "to the claimed target")
        return _from_vec(tags, self.vars, len(self.gens))


def syzygies(gens):
    """Generators of the syzygy module {c : sum c_k gens[k] = 0}.

    Each syzygy is a tuple of Poly of length len(gens).  Every returned
    vector is verified exactly.
    """
    return GraphBasis(gens).syzygies()


def module_kernel(matrix):
    """Kernel generators of the map F_s -> F_r given by a r x s Poly matrix.

    Returns a list of length-s tuples of Poly spanning the kernel.
    """
    r = len(matrix)
    if r == 0:
        raise ValueError("matrix with no rows")
    s = len(matrix[0])
    if any(len(row) != s for row in matrix):
        raise ValueError("ragged matrix")
    if s == 0:
        return []
    cols = [tuple(matrix[i][j] for i in range(r)) for j in range(s)]
    return syzygies(cols)


def subquotient_dim(ker_gens, im_gens) -> int:
    """Rational dimension of (span ker_gens) / (span im_gens).

    Raises NonContainmentError if some im generator is outside the span of
    the ker generators, InfiniteDimensionError if the quotient is not
    finite dimensional.
    """
    ker_gens = list(ker_gens)
    im_gens = list(im_gens)
    if not ker_gens:
        for i, v in enumerate(im_gens):
            polys = (v,) if isinstance(v, Poly) else v
            if any(not p.is_zero() for p in polys):
                raise NonContainmentError(f"generator {i} lies outside the zero module")
        return 0
    # the quotient is F_s modulo the syzygies of ker_gens and the lifts of
    # im_gens, all read off one graph basis
    graph = GraphBasis(ker_gens)
    relations = graph.syzygies()
    for idx, v in enumerate(im_gens):
        try:
            lift = graph.cofactors(v)
        except NotInIdealError:
            raise NonContainmentError(
                f"generator {idx} of the submodule is not contained in the module"
            ) from None
        if any(not p.is_zero() for p in lift):
            relations.append(lift)
    if not relations:
        # quotient is free of rank s: finite only if s == 0
        raise InfiniteDimensionError("subquotient contains a free module")
    gb = buchberger(relations)
    try:
        qb = quotient_basis(gb)
    except NotZeroDimensionalError as e:
        raise InfiniteDimensionError(str(e)) from None
    return len(qb)


# -- isolated singularity validation ------------------------------------------

def _origin_support(gens, order: str, what: str):
    """Groebner basis and quotient monomials of an ideal supported at the
    origin alone.

    Raises IsolatedSingularityError unless the quotient is finite and
    nonzero and every x_i^mu lies in the ideal, mu the quotient dimension:
    then the ideal's zero set is the origin only.  ``what`` names the ideal
    in the error messages.
    """
    gb = buchberger(gens, order)
    try:
        qb = quotient_basis(gb)
    except NotZeroDimensionalError as e:
        raise IsolatedSingularityError(f"{what} is not zero-dimensional: {e}") from None
    mu = len(qb)
    if mu == 0:
        raise IsolatedSingularityError(
            f"{what} is the unit ideal: it has no zero at the origin")
    n = len(gb.vars)
    for i in range(n):
        power = Poly.monomial(gb.vars, tuple(mu if j == i else 0 for j in range(n)))
        if not normal_form(power, gb).is_zero():
            raise IsolatedSingularityError(
                f"{what} is not supported at the origin: "
                f"{gb.vars[i]}^{mu} is not in it")
    return gb, qb


@dataclass(frozen=True)
class IsolatedReport:
    """The Jacobian record of a potential: Milnor number, Groebner basis
    of the Jacobian ideal and the monomial basis of the Milnor algebra."""

    milnor: int
    jacobian_gb: GroebnerBasis
    monomial_basis: tuple


@lru_cache(maxsize=None)
def check_isolated(f: Poly) -> IsolatedReport:
    """Validate that f has an isolated critical point at the origin only.

    Checks: f and all partials vanish at 0; the Milnor algebra
    Q[x]/(df/dx_1, ..., df/dx_n) is finite dimensional; every variable is
    nilpotent in it (so the critical scheme is concentrated at 0).

    The report is computed once per f and shared by every later call; a
    rejection raises anew on each call, since errors are not cached.
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
    gb, qb = _origin_support(partials, "degrevlex", "the jacobian ideal")
    return IsolatedReport(len(qb), gb, tuple(qb))
