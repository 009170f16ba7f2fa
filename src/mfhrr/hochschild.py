"""Chain-level Hochschild machinery over finite-rank graded algebras.

Chains are finite combinations over Q of words a0[a1|...|an].  Each letter
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
cohomology model, whose generators e and e* are mfcat's exterior-algebra
operators, the ones koszul_mf builds its differential from.

Normalization is a quotient and is applied eagerly: words holding an
identity-multiple letter in a slot past the first are dropped.  In scalar
mode only multiples of the identity over Q are killed, in module mode any
monomial multiple is.

A chain stores each word as (alphas, (a0, ..., an)) with every letter an
int id in its presentation's Alphabet, so the operators build and hash flat
tuples of ints; the alphabet keeps each letter's atom (monomial, basis
index) and memoizes letter products and differentials.  Atom words appear
only where chains meet the outside: the Chain constructor takes them and
Chain.words() gives them back.

The supertrace of a chain to twisted de Rham forms, tr_nabla, ends this
module: it turns each letter into a form-valued matrix and evaluates the
trace sum of hkrtrace, the form side that the index computation shares and
that imports nothing from here.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .hkrtrace import MatrixForm, _curvature_powers, _trace_sum
from .mfcat import MatrixFactorization, _exterior
from .polyring import DiffForm, FormSeries, Poly, _exact, _mono_mul


class ChainError(ValueError):
    pass


def _zero_mono(nv):
    return (0,) * nv


# -- algebra presentations -----------------------------------------------------

class AlgebraPresentation:
    """Finite constant-matrix basis with multiplication and differential tables.

    basis[0] is the identity.  mult maps an index pair to the expansion of
    the product; diff maps an index to d(basis elt) as (monomial, index,
    coefficient) triples.  curvature, when nonempty, switches on the b0 part
    of the Hochschild differential.  factors is (A, B) for A (x) B, else
    None.  alphabet interns the letters that chains over it use.
    """

    __slots__ = ("variables", "module_parities", "basis", "parity", "mult",
                 "diff", "curvature", "normalization", "names", "display",
                 "laurent", "label", "source", "factors", "alphabet")

    def __init__(self, variables, module_parities, basis, parity, mult, diff,
                 curvature, normalization, names, display, laurent, label,
                 source=None, factors=None):
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
        self.factors = factors
        self.alphabet = Alphabet(self)

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


class Alphabet:
    """The letters of one presentation, interned as small ints.

    A letter is a (monomial, basis index) pair.  letter() numbers it the
    first time it is seen and records what the operators read per letter:
    its atom, its shifted parity and whether normalization kills it past
    slot 0.  Products, differentials and the other letter maps are built
    on demand and kept, so each monomial addition happens once per letter
    or letter pair, not once per term.  The tables only grow with the
    letters and letter pairs that chains actually use.
    """

    __slots__ = ("pres", "module", "ids", "atoms", "spar", "dead", "one",
                 "curvature", "_mul", "_lead_diff", "_entry_diff", "_onto",
                 "_split", "_embed", "_star")

    def __init__(self, pres):
        self.pres = pres
        self.module = pres.normalization == "module"
        self.ids = {}
        self.atoms = []
        self.spar = []
        self.dead = []
        self._mul = []           # per letter x: {y: x y as ((letter, c), ...)}
        self._lead_diff = []     # per letter: d in slot 0, ((letter, c), ...)
        self._entry_diff = []    # per letter: d past slot 0, as _entry_rows
        self._onto = []          # per letter: {identity letter: its product}
        self._split = []         # per letter: (identity part or None, bare)
        self._embed = ({}, {})   # tensor factor letter -> letter, per side
        self._star = {}          # target -> {letter: x* over target}
        self.one = self.letter(_zero_mono(len(pres.variables)), 0)
        self.curvature = self._entry_rows(pres.curvature)

    def letter(self, mono, idx):
        """The id of the letter mono . basis[idx]."""
        key = (mono, idx)
        x = self.ids.get(key)
        if x is None:
            x = self.ids[key] = len(self.atoms)
            self.atoms.append(key)
            self.spar.append((self.pres.parity[idx] + 1) & 1)
            self.dead.append(idx == 0 and (self.module or not any(mono)))
            self._mul.append({})
            self._lead_diff.append(None)
            self._entry_diff.append(None)
            self._onto.append({})
            self._split.append(None)
        return x

    def product(self, x, y):
        """The product x y as ((letter, c), ...)."""
        row = self._mul[x]
        out = row.get(y)
        if out is None:
            (mx, ix), (my, iy) = self.atoms[x], self.atoms[y]
            mono = _mono_mul(mx, my)
            out = row[y] = tuple((self.letter(mono, k), c)
                                 for k, c in self.pres.mult[(ix, iy)])
        return out

    def lead_diff(self, x):
        """d(x) in the leading slot, as ((letter, c), ...)."""
        out = self._lead_diff[x]
        if out is None:
            m, i = self.atoms[x]
            out = self._lead_diff[x] = tuple(
                (self.letter(_mono_mul(m, mono), k), c)
                for mono, k, c in self.pres.diff[i])
        return out

    def entry_diff(self, x):
        """d(x) in a slot past the first, as _entry_rows."""
        out = self._entry_diff[x]
        if out is None:
            m, i = self.atoms[x]
            out = self._entry_diff[x] = self._entry_rows(
                (_mono_mul(m, mono), k, c) for mono, k, c in self.pres.diff[i])
        return out

    def _entry_rows(self, rows):
        """(mono, index, c) rows bound for a slot past the first, as
        (letter, moved, c): rows that normalization kills are dropped, and
        in module mode a monomial leaves the slot as the identity letter
        moved, which goes onto a0 (moved is None when nothing moves)."""
        out = []
        for mono, k, c in rows:
            if k == 0 and (self.module or not any(mono)):
                continue
            if self.module and any(mono):
                out.append((self.letter(_zero_mono(len(mono)), k),
                            self.letter(mono, 0), c))
            else:
                out.append((self.letter(mono, k), None, c))
        return tuple(out)

    def onto(self, x, moved):
        """The letter x with the monomial of the identity letter moved
        multiplied on."""
        row = self._onto[x]
        out = row.get(moved)
        if out is None:
            (m, i), (mm, _) = self.atoms[x], self.atoms[moved]
            out = row[moved] = self.letter(_mono_mul(m, mm), i)
        return out

    def split(self, x):
        """(x's monomial as an identity letter, or None when it has none;
        x's basis element as a letter with no monomial)."""
        out = self._split[x]
        if out is None:
            m, i = self.atoms[x]
            if any(m):
                out = (self.letter(m, 0), self.letter(_zero_mono(len(m)), i))
            else:
                out = (None, x)
            self._split[x] = out
        return out

    def canon(self, word):
        """A word of letter ids in canonical form, or None when
        normalization kills it; in module mode every monomial past slot 0
        moves onto a0."""
        dead = self.dead
        if not self.module:
            for x in word[1:]:
                if dead[x]:
                    return None
            return word
        lead, rest = word[0], []
        for x in word[1:]:
            if dead[x]:
                return None
            moved, bare = self.split(x)
            if moved is not None:
                lead = self.onto(lead, moved)
            rest.append(bare)
        return (lead, *rest)

    def embed(self, side, word):
        """The letters of a word over factor side (0 or 1) of this tensor
        presentation, as letters here."""
        table = self._embed[side]
        factors = self.pres.factors
        out = []
        for x in word:
            y = table.get(x)
            if y is None:
                m, i = factors[side].alphabet.atoms[x]
                if side == 0:
                    i *= len(factors[1].parity)
                y = table[x] = self.letter(m, i)
            out.append(y)
        return tuple(out)

    def star(self, target, x):
        """x* over target, as ((letter, c), ...) (see star_map)."""
        row = self._star.get(target)
        if row is None:
            row = self._star[target] = {}
        out = row.get(x)
        if out is None:
            m, i = self.atoms[x]
            letter = target.alphabet.letter
            out = row[x] = tuple((letter(m, k), c)
                                 for k, c in star_map(self.pres, target)[i])
        return out


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
                              extra_names=None, laurent=()):
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
        f"End({','.join(variables)}; {P.f})", source=P)


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


def polynomial_presentation(variables, curvature=None, *, laurent=()):
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
        f"Q[{','.join(variables)}]")


def koszul_generator_matrices(variables):
    """Constant matrices of the wedge and contraction operators e_i, e_i*
    on the exterior algebra: mfcat._exterior's triples, the ones koszul_mf
    builds its differential from, laid out with rows indexing targets and
    columns sources in the basis order even + odd."""
    n = len(variables)
    even, odd, wedge, contract = _exterior(n)
    pos = {s: k for k, s in enumerate(even + odd)}

    def matrix(triples):
        rows = [[0] * len(pos) for _ in pos]
        for source, target, sign in triples:
            rows[pos[target]][pos[source]] = sign
        return tuple(map(tuple, rows))

    out = {}
    for i in range(n):
        suffix = str(i + 1) if n > 1 else ""
        out[f"e{suffix}"] = matrix(wedge[i])
        out[f"e{suffix}*"] = matrix(contract[i])
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
        K, normalization="module", extra_names=names, laurent={0})


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
        f"({A.label})(x)({B.label})", factors=(A, B))


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


def _put(out, key, v):
    """_add_term for the operators: v is a nonzero int or Fraction, so the
    only form fix left is a Fraction that came out integral."""
    cur = out.get(key)
    if cur is not None:
        v += cur
        if not v:
            del out[key]
            return
    if type(v) is Fraction and v.denominator == 1:
        v = v.numerator
    out[key] = v


class Chain:
    """Finite combination of words alphas . a0[a1|...|an].

    terms maps each word (alphas, (a0, a1, ..., an)) to a nonzero
    coefficient, an int when it is integral and a Fraction otherwise (never
    a float, never a Fraction with denominator 1); every constructor and
    operator keeps that form.  The letters a_i are ids in the
    presentation's alphabet; the constructor takes words of atoms
    (monomial, basis index) and words() gives them back.

    In module mode the complex is relative to the polynomial ring, so
    monomial factors are central scalars: the canonical form collects them
    all on the leading slot.  In scalar mode (ground-field complex) each
    slot keeps its own.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        alphabet = pres.alphabet
        letter = alphabet.letter
        clean = {}
        for (alphas, atoms), coeff in terms.items():
            try:
                ids = tuple(letter(mono, idx) for mono, idx in atoms)
            except TypeError:
                raise ChainError(
                    f"word {atoms!r} is not a word of atoms (monomial, basis "
                    "index): Chain takes atom words; stored letter-id words "
                    "go through Chain.canonical") from None
            word = alphabet.canon(ids)
            if word is not None:
                _add_term(clean, (alphas, word), coeff)
        self.pres = pres
        self.terms = clean

    @classmethod
    def canonical(cls, pres, terms):
        """Wrap terms whose words are letter ids already in canonical form:
        nonzero coefficients, no killed word, monomials collected in module
        mode.  The operators below write that form directly."""
        chain = object.__new__(cls)
        chain.pres = pres
        chain.terms = terms
        return chain

    def words(self):
        """The terms as ((alphas, atoms), coeff), each letter decoded to
        its atom (monomial, basis index)."""
        atoms = self.pres.alphabet.atoms
        for (alphas, word), coeff in self.terms.items():
            yield (alphas, tuple(map(atoms.__getitem__, word))), coeff

    def __add__(self, other):
        if other.pres is not self.pres:
            raise ChainError("chains over different presentations")
        if not self.terms or not other.terms:
            return self if not other.terms else other
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _put(out, key, coeff)
        return Chain.canonical(self.pres, out)

    def __sub__(self, other):
        if other.pres is not self.pres:
            raise ChainError("chains over different presentations")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _put(out, key, -coeff)
        return Chain.canonical(self.pres, out)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """c times the chain: scale(1) is the chain itself (no chain op
        changes a chain in place), scale(-1) negates each coefficient."""
        c = _exact(c)
        if c == 1:
            return self
        if c == -1:
            return Chain.canonical(self.pres, {k: -v for k, v in self.terms.items()})
        if not c:
            return Chain.canonical(self.pres, {})
        return Chain.canonical(self.pres,
                               {k: _exact(v * c) for k, v in self.terms.items()})

    def mul_mono(self, mono):
        """Multiply by a central monomial (lands on the a0 slot)."""
        alphabet = self.pres.alphabet
        moved = alphabet.letter(mono, 0)
        out = {}
        for (alphas, word), coeff in self.terms.items():
            out[(alphas, (alphabet.onto(word[0], moved),) + word[1:])] = coeff
        return Chain.canonical(self.pres, out)

    def with_alpha(self, index):
        """Left-wedge by the Cech symbol alpha_index."""
        out = {}
        for (alphas, word), coeff in self.terms.items():
            if index in alphas:
                continue
            if sum(1 for a in alphas if a < index) % 2:
                coeff = -coeff
            out[(alphas | {index}, word)] = coeff
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
                self.words(), key=lambda kv: (sorted(kv[0][0]), kv[0][1])):
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
    parity = chain.pres.parity
    seen = set()
    for (_, atoms), _ in chain.words():
        p = (parity[atoms[0][1]]
             + sum(parity[i] + 1 for _, i in atoms[1:])) % 2
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

def b_op(chain: Chain) -> Chain:
    """b = b2 + b1 (+ b0 for declared curvature), with the standard signs.

    Every output word is written in canonical form as it is made: a new
    letter past the first slot is dropped when normalization kills it, and
    in module mode its monomial moves onto a0.  The other letters come from
    the canonical input and stay as they are.  A zero join or differential
    is skipped before its word is sliced; each slot signs (p, q) = +-(coeff,
    -coeff) once, so a table constant of 1 or -1 costs no multiplication.
    """
    alphabet = chain.pres.alphabet
    spar, dead, curvature = alphabet.spar, alphabet.dead, alphabet.curvature
    mul, lead_diff, entry_diff = alphabet._mul, alphabet._lead_diff, alphabet._entry_diff
    product, onto = alphabet.product, alphabet.onto
    out = {}
    for (alphas, word), coeff in chain.terms.items():
        n = len(word) - 1
        a0 = word[0]
        same, flip = (coeff, -coeff), (-coeff, coeff)
        # shifted[j]: total shifted degree of the letters left of slot j
        shifted = [0] * (n + 2)
        for j, x in enumerate(word):
            shifted[j + 1] = shifted[j] ^ spar[x]
        # joins
        if n >= 1:
            terms = mul[a0].get(word[1])
            if terms is None:
                terms = product(a0, word[1])
            if terms:
                p, q = same if spar[a0] else flip
                rest = word[2:]
                for x, c in terms:
                    _put(out, (alphas, (x,) + rest),
                         p if c == 1 else q if c == -1 else p * c)
            for j in range(1, n):
                terms = mul[word[j]].get(word[j + 1])
                if terms is None:
                    terms = product(word[j], word[j + 1])
                if not terms:
                    continue
                p, q = same if shifted[j + 1] else flip
                head, tail = word[:j], word[j + 2:]
                for x, c in terms:
                    if not dead[x]:
                        _put(out, (alphas, head + (x,) + tail),
                             p if c == 1 else q if c == -1 else p * c)
            terms = mul[word[n]].get(a0)
            if terms is None:
                terms = product(word[n], a0)
            if terms:
                p, q = same if spar[word[n]] and not shifted[n] else flip
                middle = word[1:n]
                for x, c in terms:
                    _put(out, (alphas, (x,) + middle),
                         p if c == 1 else q if c == -1 else p * c)
        # internal differential
        rows = lead_diff[a0]
        if rows is None:
            rows = alphabet.lead_diff(a0)
        p, q = same
        rest = word[1:]
        for x, c in rows:
            _put(out, (alphas, (x,) + rest), p if c == 1 else q if c == -1 else p * c)
        for j in range(1, n + 1):
            rows = entry_diff[word[j]]
            if rows is None:
                rows = alphabet.entry_diff(word[j])
            if not rows:
                continue
            p, q = flip if shifted[j] else same
            head, tail = word[1:j], word[j + 1:]
            for x, moved, c in rows:
                lead = a0 if moved is None else onto(a0, moved)
                _put(out, (alphas, (lead,) + head + (x,) + tail),
                     p if c == 1 else q if c == -1 else p * c)
        # curvature insertions
        if curvature:
            for j in range(n + 1):
                p, q = same if shifted[j + 1] else flip
                head, tail = word[1:j + 1], word[j + 1:]
                for x, moved, c in curvature:
                    lead = a0 if moved is None else onto(a0, moved)
                    _put(out, (alphas, (lead,) + head + (x,) + tail),
                         p if c == 1 else q if c == -1 else p * c)
    return Chain.canonical(chain.pres, out)


def B_op(chain: Chain) -> Chain:
    """Connes operator on normalized chains.

    a0 moves past the first slot, so a word whose a0 normalization kills
    there has B = 0; in module mode a0's monomial stays on the new leading
    identity letter."""
    alphabet = chain.pres.alphabet
    spar, dead, one = alphabet.spar, alphabet.dead, alphabet.one
    out = {}
    for (alphas, word), coeff in chain.terms.items():
        a0 = word[0]
        if dead[a0]:
            continue
        lead = (one,)
        if alphabet.module:
            moved, bare = alphabet.split(a0)
            if moved is not None:
                lead = (moved,)
                word = (bare,) + word[1:]
        total = sum(map(spar.__getitem__, word)) & 1
        before = 0
        negc = -coeff
        for l, x in enumerate(word):
            key = (alphas, lead + word[l:] + word[:l])
            _put(out, key, negc if before and (total ^ before) else coeff)
            before ^= spar[x]
    return Chain.canonical(chain.pres, out)


# -- shuffle products -------------------------------------------------------------

def _interleavings(sparA, sparB):
    """Every (n, m)-shuffle of the letters of A (indices 0..n-1) and of B
    (indices n..n+m-1) as (order, negate): order lists the letter indices
    in output position, negate is the Koszul sign of the interleaving on the
    shifted parities sparA, sparB: the parity of the number of odd A letters
    placed after an odd B letter, counted in one pass."""
    n, m = len(sparA), len(sparB)
    for positions in combinations(range(n + m), n):
        posA = set(positions)
        order = []
        negate = False
        odd_b = ai = bj = 0   # odd B letters placed so far, letters placed
        for p in range(n + m):
            if p in posA:
                if sparA[ai] and odd_b & 1:
                    negate = not negate
                order.append(ai)
                ai += 1
            else:
                odd_b += sparB[bj]
                order.append(n + bj)
                bj += 1
        yield tuple(order), negate


@lru_cache(maxsize=None)
def _shuffles(sparA, sparB):
    """_interleavings(sparA, sparB), built once per pair, with each order as
    an itemgetter (tuple for an order of at most one letter, the identity)."""
    return tuple((itemgetter(*order) if len(order) > 1 else tuple, negate)
                 for order, negate in _interleavings(sparA, sparB))


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


_NO_ALPHAS = frozenset()


def sh_op(x: Chain, y: Chain) -> Chain:
    """Shuffle product.

    Over one shared presentation the result is a chain there (the leading
    letters multiply in the algebra); over two distinct presentations it is
    a chain over their tensor product.  The entry letters of canonical
    words are carried over unchanged, so the result is canonical.
    """
    internal = x.pres is y.pres
    pres_out = x.pres if internal else tensor_presentation(x.pres, y.pres)
    alphabet = pres_out.alphabet
    spar_x, spar_y = x.pres.alphabet.spar, y.pres.alphabet.spar
    out = {}
    for (alphas_x, ax), cx in x.terms.items():
        sparA = tuple(map(spar_x.__getitem__, ax[1:]))
        odd_a = sum(sparA) & 1
        if not internal:
            ax = alphabet.embed(0, ax)
        for (alphas_y, ay), cy in y.terms.items():
            if alphas_x or alphas_y:
                raise ChainError("shuffle of Cech-augmented words")
            sparB = tuple(map(spar_y.__getitem__, ay[1:]))
            base = cx * cy
            same = (-base, base) if odd_a and not spar_y[ay[0]] else (base, -base)
            flip = same[::-1]
            if not internal:
                ay = alphabet.embed(1, ay)
            a0_terms = alphabet.product(ax[0], ay[0])
            letters = ax[1:] + ay[1:]
            for pick, negate in _shuffles(sparA, sparB):
                seq = pick(letters)
                p, q = flip if negate else same
                for a0, c0 in a0_terms:
                    _put(out, (_NO_ALPHAS, (a0,) + seq),
                         p if c0 == 1 else q if c0 == -1 else p * c0)
    return Chain.canonical(pres_out, out)


def cyclic_sh_op(x: Chain, y: Chain) -> Chain:
    """Cyclic shuffle product, landing over the tensor presentation.

    All letters of both words move into entry slots; the sum runs over
    cyclic rotations of each group followed by admissible interleavings
    (the leading letter of x stays ahead of the leading letter of y), with
    Koszul signs of the full permutation on shifted degrees.  The leading
    slot holds the identity, with every monomial in module mode; a pair of
    words with a letter that normalization kills in an entry slot
    contributes nothing.
    """
    T = tensor_presentation(x.pres, y.pres)
    alphabet = T.alphabet
    spar_x, spar_y = x.pres.alphabet.spar, y.pres.alphabet.spar
    out = {}
    for (alphas_x, ax), cx in x.terms.items():
        sparA = tuple(map(spar_x.__getitem__, ax))
        starstar = (sum(sparA) ^ 1) & 1
        ex = alphabet.embed(0, ax)
        for (alphas_y, ay), cy in y.terms.items():
            if alphas_x or alphas_y:
                raise ChainError("cyclic shuffle of Cech-augmented words")
            word = alphabet.canon((alphabet.one,) + ex + alphabet.embed(1, ay))
            if word is None:
                continue
            lead, letters = (word[0],), word[1:]
            sparB = tuple(map(spar_y.__getitem__, ay))
            base = cx * cy
            if starstar:
                base = -base
            for order, negate in _cyclic_shuffles(sparA, sparB):
                _put(out, (_NO_ALPHAS, lead + tuple(map(letters.__getitem__, order))),
                     -base if negate else base)
    return Chain.canonical(T, out)


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
    source = chain.pres.alphabet
    spar, star = source.spar, source.star
    canon = target.alphabet.canon
    out = {}
    for (alphas, word), coeff in chain.terms.items():
        n = len(word) - 1
        odd = sum(map(spar.__getitem__, word[1:]))
        if (n + odd * (odd - 1) // 2) & 1:
            coeff = -coeff
        words = [((), coeff)]
        for x in (word[0],) + word[:0:-1]:
            expansion = star(target, x)
            words = [(acc + (y,), c * sc)
                     for acc, c in words for y, sc in expansion]
        for acc, c in words:
            acc = canon(acc)
            if acc is not None:
                _put(out, (alphas, acc), c)
    return Chain.canonical(target, out)


# -- u-power series of chains ------------------------------------------------------

class UChain:
    """Chain-valued polynomial in u, truncated at a fixed order.

    parts is a tuple and the arithmetic returns a new series, so a series
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

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

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


def cech_differential(x: UChain) -> UChain:
    """b + uB + alpha with the sign (-1)^{#symbols} on the chain part.

    b and B keep the symbols, so the chain part is mixed_differential of
    the series with each part's odd-symbol words negated once."""
    signed = UChain(x.pres, [Chain.canonical(x.pres, {
        k: -v if len(k[0]) & 1 else v for k, v in part.terms.items()})
        for part in x.parts])
    return UChain(x.pres, [term + alpha_op(part) for term, part in
                           zip(mixed_differential(signed).parts, x.parts)])


# -- the one-variable tower ---------------------------------------------------------

def y_power(j: int) -> Chain:
    """j! . 1[e*|...|e*] over the local model."""
    pres = local_model_presentation()
    return pres.chain("1", ["e*"] * j, coeff=math.factorial(j))


@lru_cache(maxsize=None)
def phi_construct(j: int, order: int) -> UChain:
    """The u-series phi_j with (b + uB)(phi_j) = b(phi_j's u^0 part); a
    ChainError means the identity failed.

    Each (j, order) is built once per process and the same UChain is
    returned to every caller (eta_construct needs phi_0 ... phi_j for each
    j).  Its parts are a tuple and no chain op changes a chain in
    place, so callers share it safely; they must not assign to the terms of
    its chains.

    omega_0 = e[e*|...|e*] (j entries) and omega_k = sh(e*[e|e], phi'_k),
    where phi'_1 = -1[e*|...|e*] and phi'_k = B(sh(-1/(k+1) e*[e],
    phi'_(k-1))) for k >= 2; at k = 2 that is the textbook -1/3.  The
    constant is counted from multiplicities observed for j <= 4, k <= 6
    (the shuffle product is not a chain map from u^3 on, so no general
    argument gives them), not fitted: every part is one coefficient times
    the sum of its words; sh(e*[e|e], -) meets each word of omega_k
    C(k+1, 2) times and B(sh(e*[e], -)) each word of phi'_k (k-1)(k+j-1)
    times; and b(omega_k) = B(omega_(k-1)) holds when omega_k's coefficient
    is -(k+j-1) times omega_(k-1)'s.  So the constant is
    -C(k, 2) / ((k-1) C(k+1, 2)) = -1/(k+1), and part k >= 1 has the
    coefficient (k+j-1)!/j!.  The equality below checks this at every level.

    Each degree k >= 1 is proved once, where part k is made: b(omega_k) =
    B(omega_(k-1)) holds term by term, or a ChainError names j and k; part
    k is (-1)^k omega_k, so b(part_k) + B(part_(k-1)) = 0.  Over all k that
    is the whole identity, so no closing pass replays it.
    """
    pres = local_model_presentation()
    omega = pres.chain("e", ["e*"] * j)
    parts = [omega]
    little_phi = pres.chain("1", ["e*"] * j).scale(-1)
    for k in range(1, order):
        if k > 1:
            seed = pres.chain("e*", ["e"]).scale(Fraction(-1, k + 1))
            little_phi = B_op(sh_op(seed, little_phi))
        omega_k = sh_op(pres.chain("e*", ["e", "e"]), little_phi)
        lhs, rhs = b_op(omega_k), B_op(omega)
        if lhs != rhs:
            raise ChainError(
                f"phi construction broke at j={j}, u^{k}: "
                f"b(omega_k) = {lhs!r} but B(omega_(k-1)) = {rhs!r}")
        omega = omega_k
        parts.append(omega_k.scale((-1) ** k))
    return UChain(pres, parts)


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
    for (alphas, atoms), coeff in chain.words():
        if alphas or len(atoms) > 1:
            continue
        mono, idx = atoms[0]
        if any(e < 0 for e in mono):
            raise ChainError("trace of a Laurent word")
        if any(mono):
            continue
        total += coeff * pres.basis[idx][0][0]
    return total


# -- the supertrace to forms ------------------------------------------------------

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


def _word_trace(pres, word, rpow):
    if len(word) - 1 > len(pres.variables):
        return DiffForm.zero(pres.variables)
    primes = [_letter_forms(pres, x)[1] for x in word[1:]]
    if any(p.is_zero() for p in primes):
        return DiffForm.zero(pres.variables)
    return _trace_sum(pres.variables, _letter_forms(pres, word[0])[0], primes, rpow)


def _as_parts(chain):
    """The u-parts of a chain or u-chain; a bare chain is a series of order 1."""
    if isinstance(chain, UChain):
        return chain.pres, chain.parts
    if isinstance(chain, Chain):
        return chain.pres, (chain,)
    raise ChainError(f"cannot trace a {type(chain).__name__}")


def _trace_components(pres, parts):
    order = len(parts)
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
    for upow, part in enumerate(parts):
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


def tr_nabla(chain) -> FormSeries:
    """The supertrace of a chain or u-chain, as a form series in u of the
    same order: a u-chain's own order, 1 for a bare chain.

    Chains carrying Cech tags have componentwise traces; call tr_nabla_cech
    for those.
    """
    pres, parts = _as_parts(chain)
    comps = _trace_components(pres, parts)
    stray = [a for a in comps if a]
    if stray:
        raise ChainError("chain carries Cech indices; use tr_nabla_cech")
    return comps.get(frozenset(), FormSeries.zero(pres.variables, len(parts)))


def tr_nabla_cech(chain) -> dict:
    """Componentwise trace of a Cech-tagged chain: alpha set -> form series,
    each of the chain's order (a u-chain's own order, 1 for a bare chain)."""
    return _trace_components(*_as_parts(chain))
