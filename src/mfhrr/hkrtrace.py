"""Supertrace from Hochschild chains to twisted de Rham forms.

The connection is always the flat entrywise derivative on a free module, so
its curvature vanishes and the only matrix insertion is the primed
differential of the factorization.  A word a0[a1|...|an] is sent to

    sum_J (-1)^J / (n+J)! sum_{j0+...+jn=J} str(A0 R^j0 A1' R^j1 ... An' R^jn)

where R is the primed delta, the prime is the entrywise exterior derivative
twisted by the row-plus-column parity, and str is the supertrace.  Each R or
primed letter carries form degree one, so the J-sum stops at the number of
variables and everything is exact over the rationals.

The same engine gives Chern forms (the value on 1[]).  A Chern form is a
single even form with no u-dependence, so the degree twist gamma fixes it
and is not computed.  Nor is a Todd class: on affine space with an
isolated critical point, the only setting here, the twisted Todd class
is 1.
Chains tagged with Cech indices keep their tags; the residue of the
fully-tagged top component is what the local duality tests consume.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from .hochschild import Chain, ChainError, UChain
from .polyring import DiffForm, FormSeries, Poly, wedge_sign


# -- form-valued matrices --------------------------------------------------


class MatrixForm:
    """Square matrix of differential forms acting on a parity-graded module.

    Multiplication moves the form factor of the left entry past the graded
    endomorphism of the right one, so the odd-form-degree part of each left
    entry picks up the sign of the right entry's row-plus-column parity.
    Without that sign the supertrace would not be cyclic and none of the
    chain-level identities below would close.
    """

    __slots__ = ("vars", "parities", "entries")

    def __init__(self, variables, parities, entries=None):
        self.vars = tuple(variables)
        self.parities = tuple(parities)
        clean = {}
        if entries:
            for (r, s), form in entries.items():
                if form.vars != self.vars:
                    raise ValueError("entry over the wrong variable list")
                if not form.is_zero():
                    clean[(r, s)] = form
        self.entries = clean

    @classmethod
    def identity(cls, variables, parities):
        one = DiffForm.from_poly(Poly.one(variables))
        return cls(variables, parities,
                   {(i, i): one for i in range(len(parities))})

    @classmethod
    def from_polys(cls, variables, parities, rows):
        entries = {}
        for r, row in enumerate(rows):
            for s, p in enumerate(row):
                if not isinstance(p, Poly):
                    p = Poly.const(variables, p)
                if p:
                    entries[(r, s)] = DiffForm.from_poly(p)
        return cls(variables, parities, entries)

    def _check(self, other):
        if self.vars != other.vars or self.parities != other.parities:
            raise ValueError("matrix shape mismatch")

    def mul(self, other):
        self._check(other)
        by_row = {}
        for (j, k), form in other.entries.items():
            by_row.setdefault(j, []).append((k, form.comps))
        # each entry accumulates as {dx index: {monomial: coefficient}}
        acc = {}
        for (i, j), left in self.entries.items():
            cols = by_row.get(j)
            if not cols:
                continue
            for k, right in cols:
                flip = (self.parities[j] + self.parities[k]) % 2
                entry = acc.setdefault((i, k), {})
                for i1, p1 in left.comps.items():
                    odd = flip and len(i1) % 2
                    for i2, p2 in right.items():
                        merged = wedge_sign(i1, i2)
                        if merged is None:
                            continue
                        sign, idx = merged
                        if odd:
                            sign = -sign
                        terms = entry.setdefault(idx, {})
                        for m1, c1 in p1.terms.items():
                            for m2, c2 in p2.terms.items():
                                m = tuple(map(add, m1, m2))
                                terms[m] = terms.get(m, 0) + sign * c1 * c2
        # DiffForm drops zero components and MatrixForm zero entries
        out = {key: DiffForm(self.vars, {idx: Poly(self.vars, terms)
                                         for idx, terms in entry.items()})
               for key, entry in acc.items()}
        return MatrixForm(self.vars, self.parities, out)

    def supertrace(self):
        total = DiffForm.zero(self.vars)
        for (i, j), form in self.entries.items():
            if i != j:
                continue
            total = total + (-form if self.parities[i] else form)
        return total

    def prime(self):
        """[nabla, -] for the flat connection: entrywise d with the parity sign."""
        entries = {}
        for (r, s), form in self.entries.items():
            df = form.d()
            if (self.parities[r] + self.parities[s]) % 2:
                df = -df
            entries[(r, s)] = df
        return MatrixForm(self.vars, self.parities, entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        return (self.vars == other.vars and self.parities == other.parities
                and self.entries == other.entries)

    def __repr__(self):
        n = len(self.parities)
        return f"<{n}x{n} form matrix, {len(self.entries)} entries>"


# -- the trace map ----------------------------------------------------------


@lru_cache(maxsize=None)
def _letter_forms(pres, letter):
    """A letter's matrix and its primed matrix, built once per
    (presentation, letter id) and shared: callers only multiply them."""
    mono, idx = pres.alphabet.atoms[letter]
    scale = Poly.monomial(pres.variables, mono)
    entries = {}
    for r, row in enumerate(pres.basis[idx]):
        for s, c in enumerate(row):
            if c:
                entries[(r, s)] = DiffForm.from_poly(scale * c)
    matrix = MatrixForm(pres.variables, pres.module_parities, entries)
    return matrix, matrix.prime()


@lru_cache(maxsize=None)
def _curvature_powers(variables, parities, delta):
    """R^0, R^1, ... for R the primed delta, up to the form-degree cap.

    Built once per presentation, keyed by content, and shared: callers only
    multiply and trace the powers, never change them."""
    R = MatrixForm.from_polys(variables, parities, delta).prime()
    powers = [MatrixForm.identity(variables, parities)]
    for _ in range(len(variables)):
        nxt = powers[-1].mul(R)
        if nxt.is_zero():
            break
        powers.append(nxt)
    return tuple(powers)


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def _word_trace(pres, word, rpow):
    nv = len(pres.variables)
    n = len(word) - 1
    total = DiffForm.zero(pres.variables)
    if n > nv:
        return total
    head = _letter_forms(pres, word[0])[0]
    primes = [_letter_forms(pres, x)[1] for x in word[1:]]
    if any(p.is_zero() for p in primes):
        return total
    for J in range(nv - n + 1):
        weight = Fraction((-1) ** J, math.factorial(n + J))
        for comp in _compositions(J, n + 1):
            if any(j >= len(rpow) for j in comp):
                continue
            acc = head
            if comp[0]:
                acc = acc.mul(rpow[comp[0]])
            for t in range(n):
                acc = acc.mul(primes[t])
                if comp[t + 1]:
                    acc = acc.mul(rpow[comp[t + 1]])
            tr = acc.supertrace()
            if not tr.is_zero():
                total = total + tr.scale(weight)
    return total


def _as_parts(chain):
    if isinstance(chain, UChain):
        return chain.pres, list(enumerate(chain.parts))
    if isinstance(chain, Chain):
        return chain.pres, [(0, chain)]
    raise ChainError(f"cannot trace a {type(chain).__name__}")


def _trace_components(chain, order):
    pres, parts = _as_parts(chain)
    parities = pres.module_parities
    if parities is None:
        raise ChainError(
            f"algebra {pres.label} does not act on a graded module")
    if pres.source is not None:
        delta = pres.source.delta_full()
    elif len(parities) == 1:
        delta = ((0,),)
    else:
        raise ChainError(
            f"algebra {pres.label} has no ambient factorization to trace against")
    rpow = _curvature_powers(pres.variables, parities, delta)
    buckets = {}
    for upow, part in parts:
        if upow >= order:
            break
        for (alphas, word), coeff in part.terms.items():
            value = _word_trace(pres, word, rpow)
            if value.is_zero():
                continue
            forms = buckets.setdefault(
                alphas, [DiffForm.zero(pres.variables) for _ in range(order)])
            forms[upow] = forms[upow] + value.scale(coeff)
    out = {}
    for alphas, forms in buckets.items():
        if any(not f.is_zero() for f in forms):
            out[alphas] = FormSeries(pres.variables, forms, order)
    return out


def tr_nabla(chain, *, order) -> FormSeries:
    """The supertrace of a chain or u-chain, as a form series in u.

    Chains carrying Cech tags have componentwise traces; call tr_nabla_cech
    for those.
    """
    comps = _trace_components(chain, order)
    stray = [a for a in comps if a]
    if stray:
        raise ChainError("chain carries Cech indices; use tr_nabla_cech")
    return comps.get(frozenset(), FormSeries.zero(chain.pres.variables, order))


def tr_nabla_cech(chain, *, order) -> dict:
    """Componentwise trace of a Cech-tagged chain: alpha set -> form series."""
    return _trace_components(chain, order)


def cech_residue(components) -> dict:
    """Residues by u-power of the fully-tagged top component.

    Takes the output of tr_nabla_cech; reads off the coefficient of the
    all-exponents-minus-one monomial in the top form of the component tagged
    with every Cech index, as stored (an int or a Fraction).  Zero residues
    are dropped.
    """
    if not components:
        return {}
    variables = next(iter(components.values())).vars
    nv = len(variables)
    series = components.get(frozenset(range(nv)))
    if series is None:
        return {}
    pole = (-1,) * nv
    out = {}
    for k in range(series.order):
        c = series.coeffs[k].top().coefficient(pole)
        if c:
            out[k] = c
    return out


# -- Chern forms -------------------------------------------------------------


class ChernForm:
    """Trace of the bare identity word: the Chern character form of P.

    A single differential form: the trace of 1[] has no u-dependence, and
    only even form degrees appear (the supertrace of an odd endomorphism
    vanishes), which the constructor enforces.
    """

    __slots__ = ("f", "form")

    def __init__(self, f, form):
        for idx in form.comps:
            if len(idx) % 2:
                raise ValueError(
                    f"odd-degree component dx{idx} in a Chern form")
        self.f = f
        self.form = form

    def top(self) -> Poly:
        """Coefficient of dx_0 ... dx_{n-1}."""
        return self.form.top()

    def __eq__(self, other):
        if not isinstance(other, ChernForm):
            return NotImplemented
        return self.f == other.f and self.form == other.form

    def jsonable(self) -> dict:
        """{"u^0": {degree: [[dx names, coefficient], ...]}}, or {} for 0."""
        if self.form.is_zero():
            return {}
        by_degree = {}
        for idx in sorted(self.form.comps, key=lambda t: (len(t), t)):
            names = [self.form.vars[i] for i in idx]
            by_degree.setdefault(str(len(idx)), []).append(
                [names, str(self.form.comps[idx])])
        return {"u^0": by_degree}

    def __repr__(self):
        return f"ChernForm({self.form})"


@lru_cache(maxsize=None)
def chern_form(P) -> ChernForm:
    """sum_J (-1)^J str(R^J)/J! for the primed differential of P: the trace
    of the identity word 1[] of End(P).

    Built once per P, keyed by content, and shared."""
    total = DiffForm.zero(P.vars)
    for J, power in enumerate(_curvature_powers(P.vars, P.parities(), P.delta_full())):
        tr = power.supertrace()
        if not tr.is_zero():
            total = total + tr.scale(Fraction((-1) ** J, math.factorial(J)))
    return ChernForm(P.f, total)
