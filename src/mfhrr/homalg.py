"""Ext dimensions and Euler characteristics of matrix factorizations.

The shipping route is exact: kernels of the hom-complex differentials are
computed as syzygy modules and the homology dimension is a subquotient
dimension over the polynomial ring.  Taking that subquotient lifts every
image generator into the kernel, so it also proves d^2 = 0 exactly; this
is the one place where a complex is checked to be one.  A
degree-truncated dense linear algebra routine over the same complexes is
kept alongside as an independent cross-check; the two must agree whenever
the answer is finite.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import check_isolated, module_kernel, subquotient_dim
from .mfcat import MatrixFactorization, Z2Complex, hom_complex


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


def _columns(matrix):
    if not matrix or not matrix[0]:
        return []
    return [tuple(row[j] for row in matrix) for j in range(len(matrix[0]))]


def homology_dims(C: Z2Complex):
    """(dim ker d0/im d1, dim ker d1/im d0, provenance record).

    Each column of d1 is lifted into ker d0 and each column of d0 into
    ker d1, and every lift is verified, so dimensions come back only for a
    complex: if d0 d1 or d1 d0 is nonzero this raises NonContainmentError
    (or InfiniteDimensionError, when H0 is already infinite).
    """
    ker0 = module_kernel(C.d0)
    ker1 = module_kernel(C.d1)
    h0 = subquotient_dim(ker0, _columns(C.d1))
    h1 = subquotient_dim(ker1, _columns(C.d0))
    prov = {
        "complex_dims": [C.rank0, C.rank1],
        "kernel_generators": [len(ker0), len(ker1)],
    }
    return h0, h1, prov


def ext_dims(P: MatrixFactorization, Q: MatrixFactorization) -> ExtReport:
    """Dimensions of the even and odd cohomology of hom_complex(P, Q).

    Requires the common potential to have an isolated critical point at the
    origin, and checks that first.
    """
    check_isolated(P.f)
    C = hom_complex(P, Q)
    h0, h1, prov = homology_dims(C)
    return ExtReport(h0, h1, h0 - h1, prov)


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
                    col[key] = col.get(key, Fraction(0)) + c
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
                pivots[lead] = {k: v / lc for k, v in col.items()}
                break
            c = col[lead]
            for k, v in piv.items():
                w = col.get(k, Fraction(0)) - c * v
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
