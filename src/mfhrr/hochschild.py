"""Chain-level Hochschild machinery over finite-rank graded algebras.

Chains are finite rational combinations of words a0[a1|...|an].  Each letter
is a monomial multiple of one element of a fixed constant-matrix basis for
the algebra (index 0 is the identity), so every operator can be evaluated
exactly from a multiplication table and a differential table.  Every stored
coefficient, in the tables and in the chains, is in polyring._exact's form,
the one Poly holds too: an int when it is integral, a Fraction (denominator
> 1) when it is not, never a float.  So the operators run on machine ints on
integral words, and the tables are built from int literals.  The same engine
drives the plain polynomial algebra with declared curvature (the
classical mixed complex) and endomorphism algebras of matrix factorizations,
optionally with inverted variables and exterior Cech symbols for the local
cohomology model.

Normalization is a quotient and is applied eagerly: words holding an
identity-multiple letter in a slot past the first are dropped.  In scalar
mode only rational multiples of the identity are killed, in module mode any
monomial multiple is.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add

from .mfcat import MatrixFactorization
from .polyring import Poly, _exact


class ChainError(ValueError):
    pass


def _zero_mono(nv):
    return (0,) * nv


def _mono_add(a, b):
    return tuple(map(add, a, b))


# -- algebra presentations -----------------------------------------------------

class AlgebraPresentation:
    """Finite constant-matrix basis with multiplication and differential tables.

    basis[0] is the identity.  mult maps an index pair to the expansion of
    the product; diff maps an index to d(basis elt) as (monomial, index,
    coefficient) triples.  curvature, when nonempty, switches on the b0 part
    of the Hochschild differential.
    """

    __slots__ = ("variables", "module_parities", "basis", "parity", "mult",
                 "diff", "curvature", "normalization", "names", "display",
                 "laurent", "label", "source")

    def __init__(self, variables, module_parities, basis, parity, mult, diff,
                 curvature, normalization, names, display, laurent, label,
                 source=None):
        if normalization not in ("scalar", "module"):
            raise ChainError(f"unknown normalization mode {normalization!r}")
        self.variables = tuple(variables)
        self.module_parities = tuple(module_parities) if module_parities else None
        self.basis = basis
        self.parity = tuple(parity)
        self.mult = {key: tuple((k, _exact(c)) for k, c in terms)
                     for key, terms in mult.items()}
        self.diff = {i: tuple((mono, k, _exact(c)) for mono, k, c in rows)
                     for i, rows in diff.items()}
        self.curvature = tuple((mono, k, _exact(c)) for mono, k, c in curvature)
        self.normalization = normalization
        self.names = {name: tuple((k, _exact(c)) for k, c in terms)
                      for name, terms in names.items()}
        self.display = tuple(display)
        self.laurent = frozenset(laurent)
        self.label = label
        self.source = source

    def __repr__(self):
        return f"<algebra {self.label}: {len(self.parity)} basis elements>"

    def atom(self, spec):
        """An atom from a generator name, optionally with a monomial."""
        if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], tuple):
            return [(spec, 1)]
        mono = _zero_mono(len(self.variables))
        if isinstance(spec, tuple):
            name, mono = spec
        else:
            name = spec
        if name not in self.names:
            raise ChainError(f"unknown generator {name!r} of algebra {self.label}")
        return [((mono, idx), c) for idx, c in self.names[name]]

    def chain(self, a0, entries=(), coeff=1, alphas=()):
        """Build the word a0[entries], expanding named generators."""
        coeff = _exact(coeff)
        words = [((), 1)]
        for spec in (a0, *entries):
            expansion = self.atom(spec)
            words = [(atoms + (atom,), c * ac)
                     for atoms, c in words for atom, ac in expansion]
        out = {}
        key_alphas = frozenset(alphas)
        for atoms, c in words:
            _add_term(out, (key_alphas, atoms), coeff * c)
        return Chain(self, out)

    def zero(self):
        return Chain(self, {})


def _expand_const(matrix, nbasis_layout):
    """Expansion of a constant matrix in the id/diagonal/off-diagonal basis."""
    n, index_of = nbasis_layout
    out = []
    c = matrix[0][0]
    if c:
        out.append((0, c))
    for r in range(1, n):
        d = matrix[r][r] - c
        if d:
            out.append((index_of[(r, r)], d))
    for r in range(n):
        for s in range(n):
            if r != s and matrix[r][s]:
                out.append((index_of[(r, s)], matrix[r][s]))
    return out


def _basis_layout(n):
    index_of = {}
    mats = []

    def unit(r, s):
        return tuple(tuple(int((i, j) == (r, s)) for j in range(n))
                     for i in range(n))

    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    mats.append(ident)
    for r in range(1, n):
        index_of[(r, r)] = len(mats)
        mats.append(unit(r, r))
    for r in range(n):
        for s in range(n):
            if r != s:
                index_of[(r, s)] = len(mats)
                mats.append(unit(r, s))
    return mats, index_of


def endomorphism_presentation(P: MatrixFactorization, *, normalization="scalar",
                              extra_names=None, laurent=(), label=None):
    """The endomorphism dg algebra of a matrix factorization (or two-periodic
    complex presented as one), with d = [delta, -]."""
    parities = P.parities()
    n = len(parities)
    mats, index_of = _basis_layout(n)
    layout = (n, index_of)
    parity = [0]
    for r in range(1, n):
        parity.append(0)
    for r in range(n):
        for s in range(n):
            if r != s:
                parity.append((parities[r] + parities[s]) % 2)

    nb = len(mats)
    mult = {}
    for i in range(nb):
        for j in range(nb):
            prod = _const_mul(mats[i], mats[j])
            mult[(i, j)] = tuple(_expand_const(prod, layout))

    delta = P.delta_full()
    variables = P.vars
    diff = {}
    for i in range(nb):
        acc = {}
        sgn = -1 if parity[i] % 2 else 1
        for r in range(n):
            for s in range(n):
                # (delta . B)[r][s]
                for t in range(n):
                    if mats[i][t][s]:
                        _accumulate_poly(acc, delta[r][t], (r, s), mats[i][t][s])
                    if mats[i][r][t]:
                        _accumulate_poly(acc, delta[t][s], (r, s), -sgn * mats[i][r][t])
        diff[i] = _poly_matrix_expansion(acc, n, layout)

    names = {}
    display = [None] * nb
    display[0] = "1"
    for r in range(1, n):
        display[index_of[(r, r)]] = f"E{r}{r}"
    for r in range(n):
        for s in range(n):
            if r != s:
                display[index_of[(r, s)]] = f"E{r}{s}"
    names["1"] = ((0, 1),)
    for idx in range(1, nb):
        names[display[idx]] = ((idx, 1),)
    if extra_names:
        for name, matrix in extra_names.items():
            expansion = tuple(_expand_const(matrix, layout))
            names[name] = expansion
            if len(expansion) == 1 and expansion[0][1] == 1:
                display[expansion[0][0]] = name
    return AlgebraPresentation(
        variables, parities, tuple(mats), parity, mult, diff, (),
        normalization, names, display, laurent,
        label or f"End({','.join(variables)}; {P.f})", source=P)


def _const_mul(A, B):
    n = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def _accumulate_poly(acc, p, pos, scale):
    if not p or not scale:
        return
    for mono, c in p.terms.items():
        key = (mono, pos)
        acc[key] = acc.get(key, 0) + c * scale
        if not acc[key]:
            del acc[key]


def _poly_matrix_expansion(acc, n, layout):
    by_mono = {}
    for (mono, (r, s)), c in acc.items():
        by_mono.setdefault(mono, {})[(r, s)] = c
    out = []
    for mono in sorted(by_mono):
        matrix = tuple(tuple(by_mono[mono].get((r, s), 0)
                             for s in range(n)) for r in range(n))
        for idx, c in _expand_const(matrix, layout):
            out.append((mono, idx, c))
    return tuple(out)


def polynomial_presentation(variables, curvature=None, *, laurent=(), label=None):
    """The polynomial ring itself (rank 1|0, zero differential), optionally
    with a declared curvature so that b0 acts."""
    one = ((1,),)
    curv = []
    if curvature is not None:
        if curvature.vars != tuple(variables):
            raise ChainError("curvature over a different variable list")
        curv = [(mono, 0, c) for mono, c in sorted(curvature.terms.items())]
    return AlgebraPresentation(
        variables, (0,), (one,), (0,), {(0, 0): ((0, 1),)}, {0: ()},
        curv, "scalar", {"1": ((0, 1),)}, ("1",), laurent,
        label or f"Q[{','.join(variables)}]")


def koszul_generator_matrices(variables):
    """Constant matrices of the wedge and contraction operators e_i, e_i*
    on the exterior algebra, in the subset basis order used by koszul_mf."""
    n = len(variables)
    subsets = sorted((frozenset(c) for k in range(n + 1)
                      for c in combinations(range(n), k)),
                     key=lambda S: (len(S) % 2, len(S), tuple(sorted(S))))
    pos = {S: i for i, S in enumerate(subsets)}
    N = len(subsets)

    def empty():
        return [[0] * N for _ in range(N)]

    out = {}
    for i in range(n):
        wedge, contract = empty(), empty()
        for S in subsets:
            if i not in S:
                sgn = (-1) ** sum(1 for j in S if j < i)
                wedge[pos[S | {i}]][pos[S]] = sgn
            else:
                rest = S - {i}
                sgn = (-1) ** sorted(S).index(i)
                contract[pos[rest]][pos[S]] = sgn
        suffix = str(i + 1) if n > 1 else ""
        out[f"e{suffix}"] = tuple(tuple(row) for row in wedge)
        out[f"e{suffix}*"] = tuple(tuple(row) for row in contract)
    return out


@lru_cache(maxsize=None)
def local_model_presentation():
    """End of the one-variable Koszul complex (potential 0, d = [x e*, -]),
    module-mode normalized, with x invertible: the Cech-local model."""
    variables = ("x",)
    x = Poly.variable(variables, 0)
    zero = Poly.zero(variables)
    K = MatrixFactorization(variables, zero, [[zero]], [[x]])
    names = koszul_generator_matrices(variables)
    return endomorphism_presentation(
        K, normalization="module", extra_names=names, laurent={0},
        label="local model")


@lru_cache(maxsize=None)
def tensor_presentation(A: AlgebraPresentation, B: AlgebraPresentation):
    """A (x) B over the common polynomial ring, with Koszul-sign products.

    The result is abstract (no underlying matrices); it exists to receive
    external shuffle products.  Presentations hash by identity, so the
    cache returns one object per pair of factors.
    """
    if A.variables != B.variables:
        raise ChainError("tensor factors over different variable lists")
    if A.normalization != B.normalization:
        raise ChainError("tensor factors with different normalization modes")
    na, nbb = len(A.parity), len(B.parity)

    def pair(i, j):
        return i * nbb + j

    parity = [0] * (na * nbb)
    display = [None] * (na * nbb)
    for i in range(na):
        for j in range(nbb):
            parity[pair(i, j)] = (A.parity[i] + B.parity[j]) % 2
            display[pair(i, j)] = f"{A.display[i]}(x){B.display[j]}"
    mult = {}
    for i1 in range(na):
        for j1 in range(nbb):
            p1 = pair(i1, j1)
            for i2 in range(na):
                for j2 in range(nbb):
                    sgn = -1 if (B.parity[j1] * A.parity[i2]) % 2 else 1
                    terms = {}
                    for ka, ca in A.mult[(i1, i2)]:
                        for kb, cb in B.mult[(j1, j2)]:
                            k = pair(ka, kb)
                            terms[k] = terms.get(k, 0) + sgn * ca * cb
                    mult[(p1, pair(i2, j2))] = tuple(
                        (k, c) for k, c in terms.items() if c)
    diff = {}
    for i in range(na):
        for j in range(nbb):
            rows = []
            for mono, k, c in A.diff[i]:
                rows.append((mono, pair(k, j), c))
            sgn = -1 if A.parity[i] % 2 else 1
            for mono, k, c in B.diff[j]:
                rows.append((mono, pair(i, k), sgn * c))
            diff[pair(i, j)] = tuple(rows)
    curvature = [(mono, pair(k, 0), c) for mono, k, c in A.curvature]
    curvature += [(mono, pair(0, k), c) for mono, k, c in B.curvature]
    names = {"1": ((0, 1),)}
    return AlgebraPresentation(
        A.variables, None, None, parity, mult, diff, curvature,
        A.normalization, names, display, A.laurent | B.laurent,
        f"({A.label})(x)({B.label})")


# -- chains ---------------------------------------------------------------------

def _add_term(out, key, coeff):
    """Accumulate coeff at key in _exact's form: a sum or a product of
    Fractions may be integral, and a float raises TypeError."""
    cur = out.get(key)
    if cur is not None:
        coeff += cur
    coeff = _exact(coeff)
    if coeff:
        out[key] = coeff
    elif cur is not None:
        del out[key]


class Chain:
    """Finite combination of words (alphas, (a0, a1, ..., an)).

    terms maps each word to a nonzero coefficient, an int when it is
    integral and a Fraction otherwise (never a float, never a Fraction with
    denominator 1); every constructor and operator keeps that form.

    In module mode the complex is relative to the polynomial ring, so
    monomial factors are central scalars: the canonical form collects them
    all on the leading slot.  In scalar mode (ground-field complex) each
    slot keeps its own.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        module_mode = pres.normalization == "module"
        clean = {}
        for key, coeff in terms.items():
            if self._killed(pres, key[1], module_mode):
                continue
            if module_mode and len(key[1]) > 1:
                key = (key[0], self._collect(key[1]))
            _add_term(clean, key, coeff)
        self.pres = pres
        self.terms = clean

    @staticmethod
    def _killed(pres, atoms, module_mode):
        for mono, idx in atoms[1:]:
            if idx == 0 and (module_mode or not any(mono)):
                return True
        return False

    @staticmethod
    def _collect(atoms):
        total = atoms[0][0]
        zero = _zero_mono(len(total))
        rest = []
        for mono, idx in atoms[1:]:
            total = _mono_add(total, mono)
            rest.append((zero, idx))
        return ((total, atoms[0][1]), *rest)

    @classmethod
    def canonical(cls, pres, terms):
        """Wrap terms that are already in canonical form: nonzero
        coefficients, no killed word, monomials collected in module mode.
        The operators below keep that form, so they skip the
        normalization pass of the constructor."""
        chain = object.__new__(cls)
        chain.pres = pres
        chain.terms = terms
        return chain

    def __add__(self, other):
        if other.pres is not self.pres:
            raise ChainError("chains over different presentations")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_term(out, key, coeff)
        return Chain.canonical(self.pres, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _exact(c)
        if not c:
            return Chain.canonical(self.pres, {})
        return Chain.canonical(self.pres,
                               {k: _exact(v * c) for k, v in self.terms.items()})

    def mul_mono(self, mono):
        """Multiply by a central monomial (lands on the a0 slot)."""
        out = {}
        for (alphas, atoms), coeff in self.terms.items():
            a0 = (_mono_add(atoms[0][0], mono), atoms[0][1])
            out[(alphas, (a0,) + atoms[1:])] = coeff
        return Chain.canonical(self.pres, out)

    def with_alpha(self, index):
        """Left-wedge by the Cech symbol alpha_index."""
        out = {}
        for (alphas, atoms), coeff in self.terms.items():
            if index in alphas:
                continue
            if sum(1 for a in alphas if a < index) % 2:
                coeff = -coeff
            out[(alphas | {index}, atoms)] = coeff
        return Chain.canonical(self.pres, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Chain) or other.pres is not self.pres:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("chains are not hashable")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (alphas, atoms), coeff in sorted(
                self.terms.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][1])):
            head = "" if coeff == 1 else f"{coeff}*"
            pre = "".join(f"a{i}^" for i in sorted(alphas))
            a0 = self._atom_str(atoms[0])
            tail = "|".join(self._atom_str(a) for a in atoms[1:])
            bits.append(f"{head}{pre}{a0}[{tail}]")
        return " + ".join(bits)

    def _atom_str(self, atom):
        mono, idx = atom
        name = self.pres.display[idx] or f"b{idx}"
        if not any(mono):
            return name
        ms = "*".join(f"{v}^{e}" if e != 1 else v
                      for v, e in zip(self.pres.variables, mono) if e)
        return f"{ms}*{name}" if name != "1" else ms


def chain_parity(chain: Chain):
    """Total Z/2 degree if every word agrees (|a0| plus the shifted entry
    degrees), else None."""
    pres = chain.pres
    seen = set()
    for _, atoms in chain.terms:
        p = (pres.parity[atoms[0][1]]
             + sum(pres.parity[i] + 1 for _, i in atoms[1:])) % 2
        seen.add(p)
    if len(seen) == 1:
        return seen.pop()
    return None


def random_chain(pres, rng, *, max_len=4, max_exp=2, nterms=3, alphas=False):
    """Seeded random chain; used by the identity suites."""
    nv = len(pres.variables)
    nb = len(pres.parity)
    out = {}
    for _ in range(nterms):
        length = rng.randrange(0, max_len + 1)
        atoms = []
        for _ in range(length + 1):
            mono = tuple(rng.randrange(0, max_exp + 1) for _ in range(nv))
            atoms.append((mono, rng.randrange(nb)))
        a = frozenset()
        if alphas and pres.laurent and rng.randrange(2):
            a = frozenset([rng.choice(sorted(pres.laurent))])
        coeff = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        _add_term(out, (a, tuple(atoms)), coeff)
    return Chain(pres, out)


# -- the Hochschild differential and the Connes operator -------------------------

def _mul_atoms(pres, x, y):
    mono = _mono_add(x[0], y[0])
    return [((mono, k), c) for k, c in pres.mult[(x[1], y[1])]]


def _times(coeff, negc, c):
    """coeff * c, given negc = -coeff; table constants are mostly +-1."""
    if c == 1:
        return coeff
    if c == -1:
        return negc
    return coeff * c


def b_op(chain: Chain) -> Chain:
    """b = b2 + b1 (+ b0 for declared curvature), with the standard signs.

    Every output word is written in canonical form as it is made: a new
    letter past the first slot is dropped when normalization kills it, and
    in module mode its monomial moves onto a0.  The other letters come from
    the canonical input and stay as they are.
    """
    pres = chain.pres
    module = pres.normalization == "module"
    parity, mult, diff, curvature = pres.parity, pres.mult, pres.diff, pres.curvature
    out = {}
    get = out.get

    def put(key, v):
        # _add_term without its zero test (every v here is nonzero), inlined
        # because b_op makes most of the words in the tower
        cur = get(key)
        if cur is not None:
            v += cur
            if not v:
                del out[key]
                return
        if type(v) is Fraction and v.denominator == 1:
            v = v.numerator
        out[key] = v

    def put_letter(alphas, atoms, j, mono, k, v):
        """The word atoms with slot j >= 1 replaced by the letter (mono, k)."""
        if k == 0 and (module or not any(mono)):
            return
        if module and any(mono):
            m0, i0 = atoms[0]
            put((alphas, ((_mono_add(m0, mono), i0),) + atoms[1:j]
                 + ((_zero_mono(len(mono)), k),) + atoms[j + 1:]), v)
        else:
            put((alphas, atoms[:j] + ((mono, k),) + atoms[j + 1:]), v)

    for (alphas, atoms), coeff in chain.terms.items():
        n = len(atoms) - 1
        m0, i0 = atoms[0]
        negc = -coeff
        # shifted[j]: total shifted degree of the letters left of slot j
        shifted = [0] * (n + 2)
        for j, (_, idx) in enumerate(atoms):
            shifted[j + 1] = shifted[j] ^ ((parity[idx] + 1) & 1)
        # joins
        if n >= 1:
            m1, i1 = atoms[1]
            mono = _mono_add(m0, m1)
            rest = atoms[2:]
            neg = parity[i0] % 2
            for k, c in mult[(i0, i1)]:
                put((alphas, ((mono, k),) + rest),
                    _times(coeff, negc, -c if neg else c))
            for j in range(1, n):
                (mj, ij), (mk, ik) = atoms[j], atoms[j + 1]
                mono = _mono_add(mj, mk)
                neg = shifted[j + 1] ^ 1
                head, tail = atoms[:j], atoms[j + 2:]
                for k, c in mult[(ij, ik)]:
                    if k == 0 and (module or not any(mono)):
                        continue
                    put((alphas, head + ((mono, k),) + tail),
                        _times(coeff, negc, -c if neg else c))
            mn, i_n = atoms[n]
            mono = _mono_add(mn, m0)
            middle = atoms[1:n]
            neg = not ((parity[i_n] + 1) * (shifted[n] + 1)) % 2
            for k, c in mult[(i_n, i0)]:
                put((alphas, ((mono, k),) + middle),
                    _times(coeff, negc, -c if neg else c))
        # internal differential
        rest = atoms[1:]
        for mono, k, c in diff[i0]:
            put((alphas, ((_mono_add(m0, mono), k),) + rest),
                _times(coeff, negc, c))
        for j in range(1, n + 1):
            mj, ij = atoms[j]
            neg = shifted[j]
            for mono, k, c in diff[ij]:
                put_letter(alphas, atoms, j, _mono_add(mj, mono), k,
                           _times(coeff, negc, -c if neg else c))
        # curvature insertions
        if curvature:
            for j in range(n + 1):
                neg = shifted[j + 1] ^ 1
                word = atoms[:j + 1] + (None,) + atoms[j + 1:]
                for mono, k, c in curvature:
                    put_letter(alphas, word, j + 1, mono, k,
                               _times(coeff, negc, -c if neg else c))
    return Chain.canonical(pres, out)


def B_op(chain: Chain) -> Chain:
    """Connes operator on normalized chains.

    a0 moves past the first slot, so a word whose a0 normalization kills
    there has B = 0; in module mode a0's monomial stays on the new leading
    identity letter."""
    pres = chain.pres
    module = pres.normalization == "module"
    parity = pres.parity
    zero = _zero_mono(len(pres.variables))
    out = {}
    for (alphas, atoms), coeff in chain.terms.items():
        m0, i0 = atoms[0]
        if i0 == 0 and (module or not any(m0)):
            continue
        if module:
            lead = ((m0, 0),)
            atoms = ((zero, i0),) + atoms[1:]
        else:
            lead = ((zero, 0),)
        n = len(atoms) - 1
        spar = [(parity[idx] + 1) % 2 for _, idx in atoms]
        total = sum(spar) % 2
        before = 0
        negc = -coeff
        for l in range(n + 1):
            key = (alphas, lead + atoms[l:] + atoms[:l])
            _add_term(out, key, negc if before and (total ^ before) else coeff)
            before ^= spar[l]
    return Chain.canonical(pres, out)


# -- shuffle products -------------------------------------------------------------

def _interleavings(sparA, sparB):
    """Every (n, m)-shuffle of the letters of A (indices 0..n-1) and of B
    (indices n..n+m-1) as (order, negate): order lists the letter indices
    in output position, negate is the Koszul sign of the interleaving on the
    shifted parities sparA, sparB."""
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


@lru_cache(maxsize=None)
def _shuffles(sparA, sparB):
    """_interleavings(sparA, sparB), built once per pair."""
    return tuple(_interleavings(sparA, sparB))


@lru_cache(maxsize=None)
def _cyclic_shuffles(sparA, sparB):
    """The terms of the cyclic shuffle as (order, negate), letter indices
    as in _shuffles: a cyclic rotation of each group, then an interleaving
    that keeps A's leading letter ahead of B's, with the Koszul sign of the
    full permutation on shifted parities.  That sign is the interleaving's
    (from _interleavings of the rotated parities) times the two rotations';
    a rotation by p moves spar[:p] past spar[p:]."""
    n1, m1 = len(sparA), len(sparB)
    out = []
    for p in range(n1):
        rotA = sparA[p:] + sparA[:p]
        signA = sum(sparA[:p]) * sum(sparA[p:]) % 2 == 1
        for q in range(m1):
            rotB = sparB[q:] + sparB[:q]
            sign = signA ^ (sum(sparB[:q]) * sum(sparB[q:]) % 2 == 1)
            back = ([(p + i) % n1 for i in range(n1)]
                    + [n1 + (q + j) % m1 for j in range(m1)])
            lead_a, lead_b = back.index(0), back.index(n1)
            for order, negate in _interleavings(rotA, rotB):
                if order.index(lead_a) < order.index(lead_b):
                    out.append((tuple([back[i] for i in order]), negate ^ sign))
    return tuple(out)


def sh_op(x: Chain, y: Chain) -> Chain:
    """Shuffle product.

    Over one shared presentation the result is a chain there (the leading
    letters multiply in the algebra); over two distinct presentations it is
    a chain over their tensor product.  The entry letters of canonical
    words are carried over unchanged, so the result is canonical.
    """
    internal = x.pres is y.pres
    pres_out = x.pres if internal else tensor_presentation(x.pres, y.pres)
    nbb = len(y.pres.parity)
    out = {}
    for (alphas_x, ax), cx in x.terms.items():
        for (alphas_y, ay), cy in y.terms.items():
            if alphas_x or alphas_y:
                raise ChainError("shuffle of Cech-augmented words")
            sparA = tuple((x.pres.parity[i] + 1) % 2 for _, i in ax[1:])
            sparB = tuple((y.pres.parity[i] + 1) % 2 for _, i in ay[1:])
            star = (y.pres.parity[ay[0][1]] * (sum(sparA) % 2)) % 2
            base = cx * cy
            if star:
                base = -base
            negbase = -base
            if internal:
                a0_terms = _mul_atoms(pres_out, ax[0], ay[0])
                letters = ax[1:] + ay[1:]
            else:
                a0_terms = [((_mono_add(ax[0][0], ay[0][0]),
                              ax[0][1] * nbb + ay[0][1]), 1)]
                letters = (tuple((mono, i * nbb) for mono, i in ax[1:])
                           + ay[1:])
            for order, negate in _shuffles(sparA, sparB):
                seq = tuple(map(letters.__getitem__, order))
                for a0, c0 in a0_terms:
                    _add_term(out, (frozenset(), (a0,) + seq),
                              _times(base, negbase, -c0 if negate else c0))
    return Chain.canonical(pres_out, out)


def cyclic_sh_op(x: Chain, y: Chain) -> Chain:
    """Cyclic shuffle product, landing over the tensor presentation.

    All letters of both words move into entry slots; the sum runs over
    cyclic rotations of each group followed by admissible interleavings
    (the leading letter of x stays ahead of the leading letter of y), with
    Koszul signs of the full permutation on shifted degrees.
    """
    T = tensor_presentation(x.pres, y.pres)
    nbb = len(y.pres.parity)
    nv = len(T.variables)
    id_atom = (_zero_mono(nv), 0)
    out = {}
    for (alphas_x, ax), cx in x.terms.items():
        for (alphas_y, ay), cy in y.terms.items():
            if alphas_x or alphas_y:
                raise ChainError("cyclic shuffle of Cech-augmented words")
            letters = tuple((mono, i * nbb) for mono, i in ax) + ay
            sparA = tuple((x.pres.parity[i] + 1) % 2 for _, i in ax)
            sparB = tuple((y.pres.parity[i] + 1) % 2 for _, i in ay)
            starstar = (x.pres.parity[ax[0][1]] + sum(sparA[1:])) % 2
            base = cx * cy
            if starstar:
                base = -base
            for order, negate in _cyclic_shuffles(sparA, sparB):
                _add_term(out, (frozenset(), (id_atom,)
                                + tuple(map(letters.__getitem__, order))),
                          -base if negate else base)
    return Chain(T, out)


# -- duality --------------------------------------------------------------------

@lru_cache(maxsize=None)
def star_map(source: AlgebraPresentation, target: AlgebraPresentation):
    """Index-level table of a -> a* between endomorphism presentations of a
    factorization and of its dual, built once per pair (presentations hash
    by identity); callers only read it.

    The sign is (-1)^{|a| |s xi|} on xi . a, i.e. the shifted parity of the
    dual vector; this is the convention induced by the dual factorization's
    differential (transpose with the odd block negated), and it makes the
    duality commute with b on the nose.
    """
    if source.basis is None or target.basis is None:
        raise ChainError("star map needs matrix presentations")
    pars = source.module_parities
    n = len(pars)
    _, index_lookup = _basis_layout(n)
    table = {}
    for idx, mat in enumerate(source.basis):
        par = source.parity[idx]
        starred = tuple(tuple(
            (-1 if (par and not pars[i]) else 1) * mat[i][j]
            for i in range(n)) for j in range(n))
        table[idx] = tuple(_expand_const(starred, (n, index_lookup)))
    return table


def psi_op(chain: Chain, target: AlgebraPresentation) -> Chain:
    """Duality on chains: a0[a1|...|an] goes to the reversed starred word
    with the sign (-1)^(n + sum over pairs of shifted-degree products)."""
    table = star_map(chain.pres, target)
    out = {}
    for (alphas, atoms), coeff in chain.terms.items():
        n = len(atoms) - 1
        spar = [(chain.pres.parity[idx] + 1) % 2 for _, idx in atoms]
        expo = n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                expo += spar[i] * spar[j]
        sgn = (-1) ** (expo % 2)
        stars = []
        for mono, idx in (atoms[0],) + tuple(reversed(atoms[1:])):
            stars.append([((mono, k), c) for k, c in table[idx]])
        words = [((), coeff * sgn)]
        for expansion in stars:
            words = [(acc + (atom,), c * ac)
                     for acc, c in words for atom, ac in expansion]
        for acc, c in words:
            _add_term(out, (alphas, acc), c)
    return Chain(target, out)


# -- u-power series of chains ------------------------------------------------------

class UChain:
    """Chain-valued polynomial in u, truncated at a fixed order.

    parts is a tuple and every operation returns a new series, so a series
    can be shared (phi_construct hands out cached ones)."""

    __slots__ = ("pres", "parts")

    def __init__(self, pres, parts):
        self.pres = pres
        self.parts = tuple(parts)
        for p in self.parts:
            if p.pres is not pres:
                raise ChainError("mixed presentations in a u-series")

    @classmethod
    def from_chain(cls, chain, order):
        parts = [chain] + [chain.pres.zero() for _ in range(order - 1)]
        return cls(chain.pres, parts)

    @property
    def order(self):
        return len(self.parts)

    def __add__(self, other):
        if other.pres is not self.pres:
            raise ChainError("u-series over different presentations")
        n = max(self.order, other.order)
        zero = self.pres.zero()
        parts = [(self.parts[k] if k < self.order else zero)
                 + (other.parts[k] if k < other.order else zero)
                 for k in range(n)]
        return UChain(self.pres, parts)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return UChain(self.pres, [p.scale(c) for p in self.parts])

    def truncate(self, order):
        zero = self.pres.zero()
        parts = self.parts[:order]
        parts += (zero,) * (order - len(parts))
        return UChain(self.pres, parts)

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def __eq__(self, other):
        if not isinstance(other, UChain) or other.pres is not self.pres:
            return NotImplemented
        n = max(self.order, other.order)
        return (self.truncate(n).parts == other.truncate(n).parts)

    def __repr__(self):
        bits = [f"u^{k}({p!r})" for k, p in enumerate(self.parts)
                if not p.is_zero()]
        return " + ".join(bits) if bits else "0"


def mixed_differential(x: UChain) -> UChain:
    """(b + uB), truncated at the order of the input."""
    parts = []
    for k in range(x.order):
        term = b_op(x.parts[k])
        if k:
            term = term + B_op(x.parts[k - 1])
        parts.append(term)
    return UChain(x.pres, parts)


def kunneth_product(x: UChain, y: UChain) -> UChain:
    """(sh + u Sh) on a pair of u-series, over the tensor presentation."""
    T = tensor_presentation(x.pres, y.pres)
    order = max(x.order, y.order)
    parts = [Chain(T, {}) for _ in range(order)]
    for i, xi in enumerate(x.parts):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y.parts):
            if yj.is_zero():
                continue
            if i + j < order:
                parts[i + j] = parts[i + j] + sh_op(xi, yj)
            if i + j + 1 < order:
                parts[i + j + 1] = parts[i + j + 1] + cyclic_sh_op(xi, yj)
    return UChain(T, parts)


# -- Cech model -----------------------------------------------------------------

def alpha_op(chain: Chain) -> Chain:
    """Wedge with the sum of the available Cech symbols."""
    pres = chain.pres
    if not pres.laurent:
        raise ChainError("presentation has no inverted variables")
    total = pres.zero()
    for index in sorted(pres.laurent):
        total = total + chain.with_alpha(index)
    return total


def _alpha_signed(op, chain):
    out = chain.pres.zero()
    plus = {k: v for k, v in chain.terms.items() if len(k[0]) % 2 == 0}
    minus = {k: v for k, v in chain.terms.items() if len(k[0]) % 2 == 1}
    if plus:
        out = out + op(Chain.canonical(chain.pres, plus))
    if minus:
        out = out - op(Chain.canonical(chain.pres, minus))
    return out


def cech_differential(x: UChain) -> UChain:
    """b + uB + alpha with the sign (-1)^{#symbols} on the chain part."""
    parts = []
    for k in range(x.order):
        term = _alpha_signed(b_op, x.parts[k]) + alpha_op(x.parts[k])
        if k:
            term = term + _alpha_signed(B_op, x.parts[k - 1])
        parts.append(term)
    return UChain(x.pres, parts)


# -- the one-variable tower ---------------------------------------------------------

def y_power(j: int) -> Chain:
    """j! . 1[e*|...|e*] over the local model."""
    pres = local_model_presentation()
    return pres.chain("1", ["e*"] * j, coeff=math.factorial(j))


def _proportionality(lhs: Chain, rhs: Chain):
    """The scalar c with lhs = c . rhs, or None."""
    if rhs.is_zero():
        return 0 if lhs.is_zero() else None
    if lhs.terms.keys() != rhs.terms.keys():
        return None
    # Fraction division: int / int would give a float
    ratios = {Fraction(lhs.terms[k]) / rhs.terms[k] for k in rhs.terms}
    return ratios.pop() if len(ratios) == 1 else None


def phi_construct(j: int, order: int) -> UChain:
    """The u-series phi_j with (b + uB)(phi_j) = b(phi_j's u^0 part); a
    ChainError means the identity failed.

    Each (j, order) is built once per process and the same UChain is
    returned to every caller (eta_construct needs phi_0 ... phi_j for each
    j).  Its parts are a tuple and no chain operation changes a chain in
    place, so callers share it safely; they must not assign to the terms of
    its chains.

    The tower is built by shuffling e*[e|e] onto a B-exact seed.  Because
    the endomorphism algebra is not commutative, the shuffle product stops
    being a chain map at u^3 and the textbook recursion constant drifts by
    an exact rational factor; b(omega_k) stays proportional to
    B(omega_(k-1)), so level k is rescaled by that ratio.

    Each degree k >= 1 is proved once, where part k is made: b(omega_k) =
    B(omega_(k-1)) holds term by term, or the two sides are proportional
    term by term and omega_k is divided by the exact ratio; part k is
    (-1)^k omega_k, so b(part_k) + B(part_(k-1)) = 0.  Over all k that is
    the whole identity, so no closing pass replays it.
    """
    return _phi_tower(j, order)[0]


@lru_cache(maxsize=None)
def _phi_tower(j, order):
    """phi_construct's build: phi_j modulo u^order and the rescale ratios
    it applied, as ((k, ratio), ...)."""
    pres = local_model_presentation()
    omega = pres.chain("e", ["e*"] * j)
    parts = [omega]
    ratios = []
    little_phi = None
    for k in range(1, order):
        if k == 1:
            if j == 0:
                little_phi = pres.chain("1").scale(-1)
            else:
                little_phi = pres.chain("1", ["e*"] * j).scale(-1)
        else:
            seed = pres.chain("e*", ["e"]).scale(Fraction(-1, 3))
            little_phi = B_op(sh_op(seed, little_phi))
        omega_k = sh_op(pres.chain("e*", ["e", "e"]), little_phi)
        lhs, rhs = b_op(omega_k), B_op(omega)
        if lhs != rhs:
            ratio = _proportionality(lhs, rhs)
            if not ratio:
                raise ChainError(
                    f"phi construction broke at j={j}, u^{k}: "
                    f"b(omega_k) = {lhs!r} but B(omega_(k-1)) = {rhs!r}")
            little_phi = little_phi.scale(1 / ratio)
            omega_k = omega_k.scale(1 / ratio)
            ratios.append((k, ratio))
        omega = omega_k
        parts.append(omega_k.scale((-1) ** k))
    return UChain(pres, parts), tuple(ratios)


def eta_construct(j: int, order: int) -> UChain:
    """y^j extended by Cech-corrected phi terms; (b + uB + alpha)-closed
    modulo u^order, verified before returning."""
    pres = local_model_presentation()
    eta = UChain.from_chain(y_power(j), order)
    jfact = math.factorial(j)
    for i in range(j + 1):
        phi = phi_construct(i, order)
        mono = (-(j + 1 - i),)
        corrected = UChain(pres, [p.mul_mono(mono).with_alpha(0).scale(jfact)
                                  for p in phi.parts])
        eta = eta + corrected
    if not cech_differential(eta).is_zero():
        raise ChainError(f"eta_{j} is not closed at order {order}")
    return eta


def euler_trace(chain: Chain) -> int | Fraction:
    """Augmentation-style trace for the local model: words of positive
    length die; a length-zero word contributes its leading letter's action
    on H0 = Q/(x), i.e. the constant term of the (0,0) matrix entry (an int
    or a Fraction)."""
    pres = chain.pres
    if pres.basis is None:
        raise ChainError("trace needs a matrix presentation")
    total = 0
    for (alphas, atoms), coeff in chain.terms.items():
        if alphas or len(atoms) > 1:
            continue
        mono, idx = atoms[0]
        if any(e < 0 for e in mono):
            raise ChainError("trace of a Laurent word")
        if any(mono):
            continue
        total += coeff * pres.basis[idx][0][0]
    return total
