"""Matrix factorizations, their Hom complexes and their JSON form.

A matrix factorization of f consists of two free Z/2-graded summands and
odd maps delta0: E0 -> E1, delta1: E1 -> E0 with both composites equal to
f times the identity.  Matrices are tuples of tuples of Poly; delta0 has
shape (rank1, rank0) and delta1 has shape (rank0, rank1), columns indexing
the source basis.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
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


def zero_matrix(rows, cols, variables):
    z = Poly.zero(variables)
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def identity_matrix(n, variables):
    one = Poly.one(variables)
    z = Poly.zero(variables)
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


class MatrixFactorization:
    """Validated pair (delta0, delta1) with delta1 delta0 = delta0 delta1 = f."""

    __slots__ = ("vars", "f", "delta0", "delta1", "rank0", "rank1")

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
        self._check_square()

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

    def __repr__(self):
        return (f"MatrixFactorization(f={self.f}, ranks={self.rank0}|{self.rank1}, "
                f"vars={self.vars})")


def mf_new(variables, f: Poly, delta0, delta1) -> MatrixFactorization:
    return MatrixFactorization(variables, f, delta0, delta1)


# -- Koszul factorizations -----------------------------------------------------

def _subset_order(n: int):
    subsets = sorted(
        (tuple(s) for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)),
        key=lambda s: (len(s), s))
    even = [s for s in subsets if len(s) % 2 == 0]
    odd = [s for s in subsets if len(s) % 2 == 1]
    return even, odd


def koszul_mf(variables, a: Sequence[Poly], b: Sequence[Poly]) -> MatrixFactorization:
    """Koszul factorization of sum a_i b_i on the exterior algebra basis.

    Basis elements are subsets of {1..n} sorted by (size, lexicographic);
    contraction against a_i uses the sign (-1)^{position of i in S},
    multiplication by b_i the sign (-1)^{#{j in S : j < i}}.
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
    n = len(a)
    f = Poly.zero(variables)
    for ai, bi in zip(a, b):
        f = f + ai * bi
    even, odd = _subset_order(n)
    index = {s: (0, k) for k, s in enumerate(even)}
    index.update({s: (1, k) for k, s in enumerate(odd)})

    d0 = [[Poly.zero(variables) for _ in even] for _ in odd]
    d1 = [[Poly.zero(variables) for _ in odd] for _ in even]

    def add_entry(src, dst, coeff):
        sp, si = index[src]
        dp, di = index[dst]
        if sp == 0:
            d0[di][si] = d0[di][si] + coeff
        else:
            d1[di][si] = d1[di][si] + coeff

    for s in even + odd:
        for i in range(1, n + 1):
            if i in s:
                pos = s.index(i)
                dst = tuple(x for x in s if x != i)
                add_entry(s, dst, a[i - 1] * ((-1) ** pos))
            else:
                below = sum(1 for x in s if x < i)
                dst = tuple(sorted(s + (i,)))
                add_entry(s, dst, b[i - 1] * ((-1) ** below))

    return MatrixFactorization(variables, f, d0, d1)


# -- functors -------------------------------------------------------------------

def dual_mf(P: MatrixFactorization) -> MatrixFactorization:
    """Dual factorization: (E0*, E1*, delta1^T, -delta0^T) over -f."""
    return MatrixFactorization(
        P.vars, -P.f, mat_transpose(P.delta1), mat_scale(mat_transpose(P.delta0), -1))


def shift_mf(P: MatrixFactorization) -> MatrixFactorization:
    """Parity shift: swap the summands and negate both differentials."""
    return MatrixFactorization(P.vars, P.f, mat_scale(P.delta1, -1), mat_scale(P.delta0, -1))


def direct_sum_mf(P: MatrixFactorization, Q: MatrixFactorization) -> MatrixFactorization:
    """Block-diagonal sum of two factorizations of the same potential."""
    if P.vars != Q.vars:
        raise MFValidationError("direct sum over different variable lists")
    if P.f != Q.f:
        raise MFValidationError("direct sum of different potentials")

    def blocks(A, B, rows_a, cols_a, rows_b, cols_b):
        za = zero_matrix(rows_a, cols_b, P.vars)
        zb = zero_matrix(rows_b, cols_a, P.vars)
        top = [list(A[i]) + list(za[i]) for i in range(rows_a)]
        bot = [list(zb[i]) + list(B[i]) for i in range(rows_b)]
        return top + bot

    d0 = blocks(P.delta0, Q.delta0, P.rank1, P.rank0, Q.rank1, Q.rank0)
    d1 = blocks(P.delta1, Q.delta1, P.rank0, P.rank1, Q.rank0, Q.rank1)
    return MatrixFactorization(P.vars, P.f, d0, d1)


def tensor_mf(P: MatrixFactorization, Q: MatrixFactorization) -> MatrixFactorization:
    """Tensor product factorization of f_P + f_Q.

    Basis order: even part (P0 x Q0, then P1 x Q1), odd part
    (P1 x Q0, then P0 x Q1).  delta(p (x) q) = delta(p) (x) q
    + (-1)^{|p|} p (x) delta(q).
    """
    if P.vars != Q.vars:
        raise MFValidationError("tensor factors over different variable lists")
    variables = P.vars
    dP = P.delta_full()
    dQ = Q.delta_full()
    pp = P.parities()
    qp = Q.parities()
    nP, nQ = len(pp), len(qp)
    even = [(i, j) for i in range(nP) for j in range(nQ) if (pp[i] + qp[j]) % 2 == 0]
    odd = [(i, j) for i in range(nP) for j in range(nQ) if (pp[i] + qp[j]) % 2 == 1]
    # stable block order: P-parity of the pair decides the sub-block
    even.sort(key=lambda t: (pp[t[0]], t))
    odd.sort(key=lambda t: (pp[t[0]], t))
    pos = {}
    for k, t in enumerate(even):
        pos[t] = (0, k)
    for k, t in enumerate(odd):
        pos[t] = (1, k)

    d0 = [[Poly.zero(variables) for _ in even] for _ in odd]
    d1 = [[Poly.zero(variables) for _ in odd] for _ in even]

    def add(src, dst, coeff):
        if coeff.is_zero():
            return
        sp, si = pos[src]
        dp, di = pos[dst]
        if sp == 0:
            d0[di][si] = d0[di][si] + coeff
        else:
            d1[di][si] = d1[di][si] + coeff

    for (i, j) in even + odd:
        for r in range(nP):
            add((i, j), (r, j), dP[r][i])
        sign = -1 if pp[i] else 1
        for s in range(nQ):
            add((i, j), (i, s), dQ[s][j] * sign)

    f = P.f + Q.f
    return MatrixFactorization(variables, f, d0, d1)


# -- Z/2-graded complexes (delta^2 = 0) -------------------------------------------

class Z2Complex:
    """Two-periodic complex: d0: C0 -> C1, d1: C1 -> C0, both composites zero."""

    __slots__ = ("vars", "d0", "d1", "rank0", "rank1")

    def __init__(self, variables, d0, d1):
        self.vars = tuple(variables)
        self.d0 = _as_matrix(d0, self.vars)
        self.d1 = _as_matrix(d1, self.vars)
        self.rank1 = len(self.d0)
        self.rank0 = len(self.d0[0]) if self.d0 and self.d0[0] else len(self.d1)
        z10 = mat_mul(self.d1, self.d0, self.vars)
        z01 = mat_mul(self.d0, self.d1, self.vars)
        for name, M in (("d1*d0", z10), ("d0*d1", z01)):
            for i, row in enumerate(M):
                for j, p in enumerate(row):
                    if not p.is_zero():
                        raise MFValidationError(
                            f"{name} is nonzero at entry ({i},{j}): {p}")


def hom_complex(P: MatrixFactorization, Q: MatrixFactorization) -> Z2Complex:
    """Z/2-graded Hom complex from P to Q (for equal potentials).

    C0 = Hom(P0,Q0) (+) Hom(P1,Q1), C1 = Hom(P0,Q1) (+) Hom(P1,Q0);
    d0(phi) = delta_Q phi - phi delta_P, d1(psi) = delta_Q psi + psi delta_P.
    Basis of each Hom block: elementary matrices ordered by (row, col).
    """
    if P.vars != Q.vars:
        raise MFValidationError("factorizations over different variable lists")
    if P.f != Q.f:
        raise MFValidationError("factorizations of different potentials")
    variables = P.vars
    p0, p1 = P.rank0, P.rank1
    q0, q1 = Q.rank0, Q.rank1

    # block layouts: C0 basis = [(0, r, s) r<q0, s<p0] + [(1, r, s) r<q1, s<p1]
    #                C1 basis = [(0, r, s) r<q1, s<p0] + [(1, r, s) r<q0, s<p1]
    c0_blocks = ((q0, p0), (q1, p1))
    c1_blocks = ((q1, p0), (q0, p1))

    def offsets(blocks):
        out = [0]
        for r, c in blocks:
            out.append(out[-1] + r * c)
        return out

    off0 = offsets(c0_blocks)
    off1 = offsets(c1_blocks)
    dim0, dim1 = off0[-1], off1[-1]

    def idx(offsets_, blocks, block, r, s):
        return offsets_[block] + r * blocks[block][1] + s

    d0 = [[Poly.zero(variables) for _ in range(dim0)] for _ in range(dim1)]
    d1 = [[Poly.zero(variables) for _ in range(dim1)] for _ in range(dim0)]

    # d0 on Hom(P0,Q0): +delta0_Q . phi  in Hom(P0,Q1);  -phi . delta1_P in Hom(P1,Q0)
    for r in range(q0):
        for s in range(p0):
            col = idx(off0, c0_blocks, 0, r, s)
            for t in range(q1):
                coeff = Q.delta0[t][r]
                if coeff:
                    d0[idx(off1, c1_blocks, 0, t, s)][col] = coeff
            for t in range(p1):
                coeff = P.delta1[s][t]
                if coeff:
                    row = idx(off1, c1_blocks, 1, r, t)
                    d0[row][col] = d0[row][col] - coeff
    # d0 on Hom(P1,Q1): -psi... phi . delta0_P with minus in Hom(P0,Q1); +delta1_Q . phi in Hom(P1,Q0)
    for r in range(q1):
        for s in range(p1):
            col = idx(off0, c0_blocks, 1, r, s)
            for t in range(p0):
                coeff = P.delta0[s][t]
                if coeff:
                    row = idx(off1, c1_blocks, 0, r, t)
                    d0[row][col] = d0[row][col] - coeff
            for t in range(q0):
                coeff = Q.delta1[t][r]
                if coeff:
                    row = idx(off1, c1_blocks, 1, t, s)
                    d0[row][col] = d0[row][col] + coeff
    # d1 on Hom(P0,Q1): +delta1_Q . psi in Hom(P0,Q0); +psi . delta1_P in Hom(P1,Q1)... signs:
    # d1(psi) = delta_Q psi + psi delta_P
    for r in range(q1):
        for s in range(p0):
            col = idx(off1, c1_blocks, 0, r, s)
            for t in range(q0):
                coeff = Q.delta1[t][r]
                if coeff:
                    row = idx(off0, c0_blocks, 0, t, s)
                    d1[row][col] = d1[row][col] + coeff
            for t in range(p1):
                coeff = P.delta1[s][t]
                if coeff:
                    row = idx(off0, c0_blocks, 1, r, t)
                    d1[row][col] = d1[row][col] + coeff
    # d1 on Hom(P1,Q0)
    for r in range(q0):
        for s in range(p1):
            col = idx(off1, c1_blocks, 1, r, s)
            for t in range(q1):
                coeff = Q.delta0[t][r]
                if coeff:
                    row = idx(off0, c0_blocks, 1, t, s)
                    d1[row][col] = d1[row][col] + coeff
            for t in range(p0):
                coeff = P.delta0[s][t]
                if coeff:
                    row = idx(off0, c0_blocks, 0, r, t)
                    d1[row][col] = d1[row][col] + coeff

    return Z2Complex(variables, d0, d1)


# -- serialization ------------------------------------------------------------------

def mf_to_json(P: MatrixFactorization) -> dict:
    return {
        "vars": list(P.vars),
        "f": str(P.f),
        "delta0": [[str(p) for p in row] for row in P.delta0],
        "delta1": [[str(p) for p in row] for row in P.delta1],
    }


def mf_from_json(data: dict) -> MatrixFactorization:
    if not isinstance(data, dict):
        raise MFValidationError("matrix factorization JSON must be an object")
    try:
        variables = tuple(data["vars"])
        f = parse_poly(data["f"], variables)
        d0 = [[parse_poly(s, variables) for s in row] for row in data["delta0"]]
        d1 = [[parse_poly(s, variables) for s in row] for row in data["delta1"]]
    except KeyError as e:
        raise MFValidationError(f"missing field {e} in matrix factorization JSON") from None
    return MatrixFactorization(variables, f, d0, d1)


def mf_dumps(P: MatrixFactorization) -> str:
    return json.dumps(mf_to_json(P), sort_keys=True, indent=2)
