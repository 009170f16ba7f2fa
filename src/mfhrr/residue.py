"""Grothendieck residues for denominator ideals supported at the origin.

The base case is pure monomial denominators: the residue of
g dx_1...dx_n over (x_1^{a_1}, ..., x_n^{a_n}) picks out the coefficient
of x^{a - (1,...,1)} in g.  Everything else reduces to that case by the
transformation law: whenever x_i^{a_i} = sum_j c_ij g_j, the residue
over (g_1, ..., g_n) of g equals the residue over the pure powers of
g * det(c).  The cofactor matrices come out of the Groebner engine with
exact membership certificates, and the final value is independent of
which cover was chosen (this is exercised in the test suite rather than
assumed).

Each denominator ideal is validated and covered from one graph basis of its
generators (groebner._origin_support): the Jacobian record of check_isolated,
or a ResidueProblem, keeps that graph, the ideal's reduced Groebner basis
(degrevlex, the engine's one term order) and the least exponents N_i with
x_i^N_i in the ideal, and the minimal cover reads its cofactors off the kept
graph, so building a cover runs no Buchberger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .groebner import IsolatedSingularityError, _origin_support, check_isolated
from .polyring import Poly, _exact, _require_ordinary


def _residue_target(exponents, variables) -> tuple:
    """exponents - (1, ..., 1), once the exponents are checked: one
    positive int per variable."""
    a = tuple(exponents)
    if len(a) != len(variables):
        raise ValueError(
            f"{len(a)} denominator exponents for {len(variables)} variables")
    if any((not isinstance(e, int)) or e <= 0 for e in a):
        raise ValueError(f"denominator exponents must be positive integers: {a}")
    return tuple(e - 1 for e in a)


def res_monomial(numerator: Poly, exponents) -> int | Fraction:
    """Residue of numerator dx over the pure powers x_i^{exponents[i]}.

    Linear in the numerator; a monomial x^b contributes its coefficient
    exactly when b_i = exponents[i] - 1 for every i, as stored (an int or a
    Fraction).  The numerator must be an ordinary polynomial (LaurentError
    otherwise).
    """
    _require_ordinary(numerator, "the residue")
    return numerator.coefficient(_residue_target(exponents, numerator.vars))


def res_product(left: Poly, right: Poly, exponents) -> int | Fraction:
    """res_monomial(left * right, exponents), without forming the product.

    Only the coefficient of x^{exponents - 1} is read: each term c x^m of
    left meets the one term of right that completes it, so the value is a
    sparse dot product over left's terms.  Both factors must be ordinary
    polynomials (LaurentError otherwise) over the same variables.
    """
    _require_ordinary(left, "the residue")
    _require_ordinary(right, "the residue")
    if left.vars != right.vars:
        raise ValueError("residue factors over different variable lists")
    target = _residue_target(exponents, left.vars)
    partner = right.terms.get
    total = 0
    for mono, c in left.terms.items():
        d = partner(tuple(t - e for t, e in zip(target, mono)))
        if d:
            total += c * d
    return _exact(total)


@dataclass(frozen=True)
class DenominatorCover:
    """Pure-power cover of a denominator ideal.

    exponents[i] and cofactors[i] certify x_i^{exponents[i]} =
    sum_j cofactors[i][j] * g_j for the generators g the cover was
    built from.
    """

    exponents: tuple
    cofactors: tuple

    @cached_property
    def det(self) -> Poly:
        """Determinant of the cofactor matrix, computed on first use."""
        return _det([list(row) for row in self.cofactors])

    def jsonable(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "cofactors": [[str(c) for c in row] for row in self.cofactors],
            "det": str(self.det),
        }


def _det(rows) -> Poly:
    n = len(rows)
    variables = rows[0][0].vars
    if n == 1:
        return rows[0][0]
    acc = Poly.zero(variables)
    # Laplace along the first row; the matrices here are tiny
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entry * _det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _pure_power(variables, i, k) -> Poly:
    return Poly.monomial(variables, tuple(k if j == i else 0 for j in range(len(variables))))


def _build_cover(graph, exponents) -> DenominatorCover:
    """The cover x_i^exponents[i] = sum_j c_ij g_j, its rows read off the
    graph basis of the generators g; NotInIdealError when a power is not in
    the ideal."""
    rows = tuple(graph.cofactors(_pure_power(graph.vars, i, e))
                 for i, e in enumerate(exponents))
    return DenominatorCover(exponents, rows)


@lru_cache(maxsize=None)
def jacobian_cover(f: Poly) -> DenominatorCover:
    """Minimal pure-power cover of the Jacobian ideal of f, read off
    check_isolated's record: its least exponents and its graph basis.

    The cover is built once per f and shared; errors are not cached.
    """
    report = check_isolated(f)
    return _build_cover(report.graph, report.exponents)


class ResidueProblem:
    """Numerator (coefficient of dx_1...dx_n) over n validated denominators.

    Validation at construction: ordinary polynomials (LaurentError on a
    negative exponent), n denominators over the n ring variables, a finite
    and nonzero quotient algebra, and every variable nilpotent in it, i.e.
    the ideal is supported at the origin alone (the same test that
    check_isolated applies to a Jacobian ideal).  The problem keeps what
    that test reads off one graph basis of the denominators: the graph, the
    reduced basis gb and the least exponents.
    """

    __slots__ = ("numerator", "denominators", "gb", "graph", "exponents")

    def __init__(self, numerator: Poly, denominators):
        denominators = list(denominators)
        if not denominators:
            raise ValueError("no denominators given")
        variables = denominators[0].vars
        if numerator.vars != variables or any(g.vars != variables for g in denominators):
            raise ValueError("numerator and denominators over different variable lists")
        _require_ordinary(numerator, "the residue")
        if len(denominators) != len(variables):
            raise ValueError(
                f"{len(denominators)} denominators over {len(variables)} variables")
        if any(g.is_zero() for g in denominators):
            raise IsolatedSingularityError("zero denominator generator")
        self.numerator = numerator
        self.denominators = denominators
        self.graph, self.gb, _, self.exponents = _origin_support(
            denominators, "the denominator ideal")

    def cover(self, exponents=None) -> DenominatorCover:
        """The pure-power cover at the given exponents, by default the least
        ones found at construction."""
        exponents = self.exponents if exponents is None else tuple(exponents)
        _residue_target(exponents, self.graph.vars)
        return _build_cover(self.graph, exponents)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.denominators)
        return f"ResidueProblem({self.numerator} dx / ({gens}))"


def groth_residue(prob: ResidueProblem,
                  cover: DenominatorCover | None = None) -> int | Fraction:
    """Residue of the validated problem, through a pure-power cover.

    A caller-supplied cover is checked against the problem's own
    denominators before use, so a cover built for a different ideal
    fails loudly instead of producing a wrong number.  The value is read
    by res_product, without forming numerator * det.
    """
    if cover is None:
        cover = prob.cover()
    else:
        variables = prob.numerator.vars
        for i, (e, row) in enumerate(zip(cover.exponents, cover.cofactors)):
            acc = Poly.zero(variables)
            for c, g in zip(row, prob.denominators):
                acc = acc + c * g
            if acc != _pure_power(variables, i, e):
                raise ValueError(
                    f"cover row {i} does not certify {variables[i]}^{e} "
                    "over these denominators")
    return res_product(prob.numerator, cover.det, cover.exponents)
