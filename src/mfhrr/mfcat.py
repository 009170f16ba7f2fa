"""Matrix factorizations, their Hom complexes and their JSON form.

A matrix factorization of f consists of two free Z/2-graded summands and
odd maps delta0: E0 -> E1, delta1: E1 -> E0 with both composites equal to
f times the identity.  Matrices are tuples of tuples of Poly; delta0 has
shape (rank1, rank0) and delta1 has shape (rank0, rank1), columns indexing
the source basis.  Koszul factorizations are built from one definition of
the exterior algebra and its operators e_i, e_i* (_exterior), the one the
Hochschild local model's e and e* are laid out from too.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .polyring import Poly, parse_poly


class MFValidationError(ValueError):
    """A claimed matrix factorization fails delta^2 = f.id (or is malformed)."""


def _as_matrix(rows, variables) -> tuple:
    out = []
    width = None
    for row in rows:
        row = tuple(row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MFValidationError("ragged matrix")
        for p in row:
            if not isinstance(p, Poly) or p.vars != tuple(variables):
                raise MFValidationError("matrix entry over wrong variable list")
        out.append(row)
    return tuple(out)


def mat_mul(A, B, variables):
    n, k = len(A), (len(B[0]) if B else 0)
    inner = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(k):
            acc = Poly.zero(variables)
            for t in range(inner):
                a, b = A[i][t], B[t][j]
                if a and b:
                    acc = acc + a * b
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_scale(A, c):
    return tuple(tuple(p * c for p in row) for row in A)


def mat_transpose(A):
    if not A:
        return ()
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


class MatrixFactorization:
    """Validated pair (delta0, delta1) with delta1 delta0 = delta0 delta1 = f,
    on two summands of the same positive rank.

    ``koszul`` is the sequence a when the factorization is known to be
    isomorphic to a Koszul factorization K(a, b) (koszul_mf, and tensor_mf
    of two such), else None.  It is a hint for homalg.ext_dims, not part of
    the factorization: equality and hashing ignore it.
    """

    __slots__ = ("vars", "f", "delta0", "delta1", "rank0", "rank1", "koszul")

    def __init__(self, variables: Sequence[str], f: Poly, delta0, delta1):
        self.vars = tuple(variables)
        if f.vars != self.vars:
            raise MFValidationError("potential over wrong variable list")
        self.f = f
        self.delta0 = _as_matrix(delta0, self.vars)
        self.delta1 = _as_matrix(delta1, self.vars)
        self.rank0 = len(self.delta0[0]) if self.delta0 else (len(self.delta1) or 0)
        self.rank1 = len(self.delta0)
        if self.delta1 and len(self.delta1[0]) != self.rank1:
            raise MFValidationError(
                f"delta1 has {len(self.delta1[0])} columns, expected rank1={self.rank1}")
        if len(self.delta1) != self.rank0:
            raise MFValidationError(
                f"delta1 has {len(self.delta1)} rows, expected rank0={self.rank0}")
        if self.rank0 != self.rank1 or self.rank0 == 0:
            raise MFValidationError(
                f"ranks {self.rank0}|{self.rank1}: both summands must have "
                "the same positive rank")
        self._check_square()
        self.koszul = None

    def _check_square(self):
        for name, A, B, rank in (("delta1*delta0", self.delta1, self.delta0, self.rank0),
                                 ("delta0*delta1", self.delta0, self.delta1, self.rank1)):
            got = mat_mul(A, B, self.vars)
            for i in range(rank):
                for j in range(rank):
                    want = self.f if i == j else Poly.zero(self.vars)
                    if got[i][j] != want:
                        raise MFValidationError(
                            f"{name} differs from f*id at entry ({i},{j}): "
                            f"got {got[i][j]}, expected {want}")

    def ranks(self) -> tuple[int, int]:
        return (self.rank0, self.rank1)

    def parities(self) -> tuple[int, ...]:
        """Parities of the concatenated basis, even block first."""
        return (0,) * self.rank0 + (1,) * self.rank1

    def delta_full(self):
        """Total odd differential on E0 (+) E1 as one square matrix."""
        n = self.rank0 + self.rank1
        z = Poly.zero(self.vars)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i < self.rank0 and j >= self.rank0:
                    row.append(self.delta1[i][j - self.rank0])
                elif i >= self.rank0 and j < self.rank0:
                    row.append(self.delta0[i - self.rank0][j])
                else:
                    row.append(z)
            rows.append(tuple(row))
        return tuple(rows)

    def __eq__(self, other):
        if not isinstance(other, MatrixFactorization):
            return NotImplemented
        return (self.vars == other.vars and self.f == other.f
                and self.delta0 == other.delta0 and self.delta1 == other.delta1)

    def __hash__(self):
        return hash((self.vars, self.f, self.delta0, self.delta1))

    def __repr__(self):
        return (f"MatrixFactorization(f={self.f}, ranks={self.rank0}|{self.rank1}, "
                f"vars={self.vars})")


def _odd_map(variables, even, odd, entries):
    """Blocks (delta0, delta1) of an odd map given on labeled basis vectors.

    ``even`` and ``odd`` list the basis labels in basis order.  Each triple
    (source, target, coeff) of ``entries``, source and target of opposite
    parity, adds coeff to the matrix entry in the target's row and the
    source's column; zero coefficients are skipped.
    """
    place = {label: (0, k) for k, label in enumerate(even)}
    place.update({label: (1, k) for k, label in enumerate(odd)})
    zero = Poly.zero(variables)
    blocks = ([[zero] * len(even) for _ in odd], [[zero] * len(odd) for _ in even])
    for source, target, coeff in entries:
        if coeff:
            parity, col = place[source]
            row = place[target][1]
            block = blocks[parity]
            block[row][col] = block[row][col] + coeff
    return blocks


# -- Koszul factorizations -----------------------------------------------------

def _exterior(n: int):
    """The exterior algebra on n generators: (even, odd, wedge, contract).

    The basis is the subsets S of {1..n} as ascending tuples, even ones
    first, each parity by (size, lexicographic).  wedge[i - 1] lists e_i as
    (source, target, sign) triples, S -> S + {i} with sign (-1)^#{j in S :
    j < i}; contract[i - 1] lists e_i*, its transpose, S -> S - {i} with
    sign (-1)^(position of i in S).  koszul_mf and the local model's
    operators (hochschild.koszul_generator_matrices) both read it.
    """
    subsets = [s for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)]
    wedge = [[(s, tuple(sorted(s + (i,))), (-1) ** sum(j < i for j in s))
              for s in subsets if i not in s] for i in range(1, n + 1)]
    contract = [[(t, s, sign) for s, t, sign in triples] for triples in wedge]
    even = [s for s in subsets if len(s) % 2 == 0]
    odd = [s for s in subsets if len(s) % 2]
    return even, odd, wedge, contract


def koszul_mf(variables, a: Sequence[Poly], b: Sequence[Poly]) -> MatrixFactorization:
    """Koszul factorization of sum a_i b_i: delta = sum b_i e_i + a_i e_i*
    on the exterior algebra basis of _exterior(len(a)).
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise MFValidationError("coefficient sequences of different lengths")
    if not a:
        raise MFValidationError("empty Koszul data")
    variables = tuple(variables)
    for p in (*a, *b):
        if p.vars != variables:
            raise MFValidationError("Koszul coefficient over wrong variable list")
    f = Poly.zero(variables)
    for ai, bi in zip(a, b):
        f = f + ai * bi
    even, odd, wedge, contract = _exterior(len(a))
    entries = ((s, t, c * sign) for triples, c in zip(wedge + contract, b + a)
               for s, t, sign in triples)
    K = MatrixFactorization(variables, f, *_odd_map(variables, even, odd, entries))
    K.koszul = tuple(a)
    return K


# -- functors -------------------------------------------------------------------

def dual_mf(P: MatrixFactorization) -> MatrixFactorization:
    """Dual factorization: (E0*, E1*, delta1^T, -delta0^T) over -f."""
    return MatrixFactorization(
        P.vars, -P.f, mat_transpose(P.delta1), mat_scale(mat_transpose(P.delta0), -1))


def shift_mf(P: MatrixFactorization) -> MatrixFactorization:
    """Parity shift: swap the summands and negate both differentials."""
    return MatrixFactorization(P.vars, P.f, mat_scale(P.delta1, -1), mat_scale(P.delta0, -1))


def direct_sum_mf(P: MatrixFactorization, Q: MatrixFactorization) -> MatrixFactorization:
    """Block-diagonal sum of two factorizations of the same potential.

    Basis vectors are labeled (summand, index in its delta_full); each block
    lists P's basis before Q's.
    """
    if P.vars != Q.vars:
        raise MFValidationError("direct sum over different variable lists")
    if P.f != Q.f:
        raise MFValidationError("direct sum of different potentials")
    summands = tuple(enumerate((P, Q)))
    even = [(m, i) for m, M in summands for i in range(M.rank0)]
    odd = [(m, M.rank0 + k) for m, M in summands for k in range(M.rank1)]
    entries = (((m, c), (m, r), coeff) for m, M in summands
               for r, row in enumerate(M.delta_full()) for c, coeff in enumerate(row))
    return MatrixFactorization(P.vars, P.f, *_odd_map(P.vars, even, odd, entries))


def tensor_mf(P: MatrixFactorization, Q: MatrixFactorization) -> MatrixFactorization:
    """Tensor product factorization of f_P + f_Q.

    Basis vectors are labeled (i, j) for p_i (x) q_j, indices in delta_full,
    and ordered by (|p_i|, i, j): even part (P0 x Q0, then P1 x Q1), odd
    part (P0 x Q1, then P1 x Q0).  delta(p (x) q) = delta(p) (x) q
    + (-1)^{|p|} p (x) delta(q).  K(a, b) (x) K(a', b') is isomorphic to
    K(a a', b b'), so a product of two Koszul factorizations records the
    concatenated sequence.
    """
    if P.vars != Q.vars:
        raise MFValidationError("tensor factors over different variable lists")
    dP, dQ = P.delta_full(), Q.delta_full()
    pp, qp = P.parities(), Q.parities()
    pairs = sorted(((i, j) for i in range(len(pp)) for j in range(len(qp))),
                   key=lambda t: (pp[t[0]], t))
    even = [(i, j) for i, j in pairs if pp[i] == qp[j]]
    odd = [(i, j) for i, j in pairs if pp[i] != qp[j]]

    def entries():
        for i, j in pairs:
            for r, row in enumerate(dP):
                yield (i, j), (r, j), row[i]
            sign = -1 if pp[i] else 1
            for s, row in enumerate(dQ):
                yield (i, j), (i, s), row[j] * sign

    T = MatrixFactorization(P.vars, P.f + Q.f, *_odd_map(P.vars, even, odd, entries()))
    if P.koszul is not None and Q.koszul is not None:
        T.koszul = P.koszul + Q.koszul
    return T


# -- Z/2-graded complexes (delta^2 = 0) -------------------------------------------

class Z2Complex:
    """Two-periodic complex: d0: C0 -> C1, d1: C1 -> C0, both composites zero.

    The constructor checks only that each matrix is rectangular and over
    the given variables; it multiplies nothing.  That d^2 = 0 holds is the
    builder's job: hom_complex inherits it from two validated
    factorizations, and homalg.homology_dims proves it exactly by lifting
    each column of d1 into ker d0 and each column of d0 into ker d1, so a
    non-complex raises there and yields no dimensions.
    """

    __slots__ = ("vars", "d0", "d1", "rank0", "rank1")

    def __init__(self, variables, d0, d1):
        self.vars = tuple(variables)
        self.d0 = _as_matrix(d0, self.vars)
        self.d1 = _as_matrix(d1, self.vars)
        self.rank1 = len(self.d0)
        self.rank0 = len(self.d0[0]) if self.d0 and self.d0[0] else len(self.d1)


def hom_complex(P: MatrixFactorization, Q: MatrixFactorization) -> Z2Complex:
    """Z/2-graded Hom complex from P to Q (for equal potentials).

    The basis is the elementary maps E_rs (r, s indices in the delta_full of
    Q and P), ordered by (|s|, r, s); |E_rs| = |r| + |s|, so C0 is
    Hom(P0,Q0) (+) Hom(P1,Q1) and C1 is Hom(P0,Q1) (+) Hom(P1,Q0).  The
    differential is d(phi) = delta_Q phi - (-1)^{|phi|} phi delta_P, i.e.
    d(E_rs) = sum_t delta_Q[t][r] E_ts - (-1)^{|E_rs|} sum_t delta_P[s][t] E_rt.
    It squares to zero because delta_P^2 = delta_Q^2 = f, which P and Q
    proved when they were built, so nothing here re-proves it.
    """
    if P.vars != Q.vars:
        raise MFValidationError("factorizations over different variable lists")
    if P.f != Q.f:
        raise MFValidationError("factorizations of different potentials")
    dP, dQ = P.delta_full(), Q.delta_full()
    pp, qp = P.parities(), Q.parities()
    maps = sorted(((r, s) for r in range(len(qp)) for s in range(len(pp))),
                  key=lambda e: (pp[e[1]], e))
    even = [(r, s) for r, s in maps if qp[r] == pp[s]]
    odd = [(r, s) for r, s in maps if qp[r] != pp[s]]

    def entries():
        for r, s in maps:
            for t, row in enumerate(dQ):
                yield (r, s), (t, s), row[r]
            for t, coeff in enumerate(dP[s]):
                if coeff:
                    yield (r, s), (r, t), -coeff if qp[r] == pp[s] else coeff

    return Z2Complex(P.vars, *_odd_map(P.vars, even, odd, entries()))


# -- serialization ------------------------------------------------------------------

def mf_to_json(P: MatrixFactorization) -> dict:
    return {
        "vars": list(P.vars),
        "f": str(P.f),
        "delta0": [[str(p) for p in row] for row in P.delta0],
        "delta1": [[str(p) for p in row] for row in P.delta1],
    }


def json_polys(what, seq, variables) -> list:
    """A JSON list of polynomial strings as Poly; anything else, a string
    included, raises MFValidationError naming ``what``."""
    if not isinstance(seq, list) or not all(isinstance(s, str) for s in seq):
        raise MFValidationError(f"{what} must be a list of polynomial strings")
    return [parse_poly(s, variables) for s in seq]


def _json_matrix(name, rows, variables):
    """A JSON matrix field as rows of Poly."""
    if not isinstance(rows, list):
        raise MFValidationError(f'"{name}" must be a list of rows')
    return [json_polys(f'each row of "{name}"', row, variables) for row in rows]


def json_variables(names) -> tuple:
    """A JSON "vars" field as a tuple of distinct variable names."""
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise MFValidationError('"vars" must be a list of variable names')
    if len(set(names)) != len(names):
        raise MFValidationError(f'"vars" repeats a variable name: {names}')
    return tuple(names)


def mf_from_json(data: dict) -> MatrixFactorization:
    """The factorization a JSON object describes.  A missing or mistyped
    field raises MFValidationError, so a string where a matrix or a row
    belongs is rejected, not read as one; a polynomial string that does not
    parse raises PolyParseError."""
    if not isinstance(data, dict):
        raise MFValidationError("matrix factorization JSON must be an object")
    try:
        names, f, d0, d1 = data["vars"], data["f"], data["delta0"], data["delta1"]
    except KeyError as e:
        raise MFValidationError(f"missing field {e} in matrix factorization JSON") from None
    variables = json_variables(names)
    if not isinstance(f, str):
        raise MFValidationError('"f" must be a polynomial string')
    return MatrixFactorization(variables, parse_poly(f, variables),
                               _json_matrix("delta0", d0, variables),
                               _json_matrix("delta1", d1, variables))
