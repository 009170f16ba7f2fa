from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mfhrr import groebner
from mfhrr.groebner import IsolatedSingularityError, NotInIdealError, quotient_basis
from mfhrr.polyring import LaurentError, Poly, parse_poly
from mfhrr.residue import (ResidueProblem, groth_residue, jacobian_cover, res_monomial,
                           res_product)

X = ("x",)
XY = ("x", "y")


def P(s, variables=XY):
    return parse_poly(s, variables)


def jac_problem(f, numerator):
    partials = [f.partial(i) for i in range(len(f.vars))]
    return ResidueProblem(numerator, partials)


def random_poly(variables, rng, max_deg=4, terms=4):
    p = Poly.zero(variables)
    n = len(variables)
    for _ in range(terms):
        mono = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        p = p + Poly.monomial(variables, mono, Fraction(rng.randrange(-5, 6)))
    return p


# -- monomial base case --------------------------------------------------------

def test_monomial_table():
    assert res_monomial(Poly.one(X), (1,)) == 1
    assert res_monomial(Poly.one(XY), (1, 1)) == 1
    assert res_monomial(Poly.one(X), (2,)) == 0
    assert res_monomial(P("x", X), (2,)) == 1
    assert res_monomial(P("x*y^2"), (2, 3)) == 1
    assert res_monomial(P("x*y^2"), (2, 2)) == 0


def test_monomial_linearity():
    rng = random.Random(7)
    for _ in range(20):
        g = random_poly(XY, rng)
        h = random_poly(XY, rng)
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        lhs = res_monomial(g * c + h, (3, 2))
        assert lhs == c * res_monomial(g, (3, 2)) + res_monomial(h, (3, 2))


def test_monomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        res_monomial(Poly.one(X), (0,))
    with pytest.raises(ValueError):
        res_monomial(Poly.one(XY), (1, -2))
    with pytest.raises(ValueError):
        res_monomial(Poly.one(XY), (1,))


def test_product_reads_the_coefficient_of_the_product():
    rng = random.Random(1601)
    for _ in range(30):
        g, h = random_poly(XY, rng), random_poly(XY, rng)
        for a in ((1, 1), (3, 2), (5, 5)):
            want = res_monomial(g * h, a)
            got = res_product(g, h, a)
            assert got == want and type(got) is type(want)


def test_product_rejects_what_the_monomial_case_rejects():
    inv_y = Poly(XY, {(0, -1): 1})
    ordinary = P("x + y")
    for left, right in ((inv_y, ordinary), (ordinary, inv_y)):
        with pytest.raises(LaurentError):
            res_product(left, right, (2, 2))
    with pytest.raises(ValueError):
        res_product(ordinary, ordinary, (1, 0))
    with pytest.raises(ValueError):
        res_product(ordinary, Poly.one(X), (1, 1))


# -- jacobian covers ------------------------------------------------------------

def test_cover_xy():
    cov = jacobian_cover(P("x*y"))
    assert cov.exponents == (1, 1)
    assert [[str(c) for c in row] for row in cov.cofactors] == [["0", "1"], ["1", "0"]]
    assert cov.det == Poly.const(XY, -1)


def test_cover_square():
    cov = jacobian_cover(P("x^2", X))
    assert cov.exponents == (1,)
    assert cov.cofactors == ((Poly.const(X, Fraction(1, 2)),),)


def test_cover_cusp():
    cov = jacobian_cover(P("x^2 + y^3"))
    assert cov.exponents == (1, 2)
    assert cov.det == Poly.const(XY, Fraction(1, 6))


def test_cover_rejects_non_isolated():
    with pytest.raises(IsolatedSingularityError):
        jacobian_cover(P("x^2*y"))


def test_cover_rejects_powers_outside_ideal():
    # x^1 is not in J(x^3) = (3x^2)
    with pytest.raises(NotInIdealError):
        jac_problem(P("x^3", X), Poly.one(X)).cover((1,))


def test_problem_rejects_unit_ideal():
    # (1, 2y) has no zero at the origin: f = x + y^2 is not critical there
    with pytest.raises(IsolatedSingularityError):
        ResidueProblem(Poly.one(XY), [P("1"), P("2*y")])


# -- residue problems -----------------------------------------------------------

def test_groth_worked_values():
    assert groth_residue(jac_problem(P("x*y"), Poly.one(XY))) == -1
    assert groth_residue(jac_problem(P("x^2", X), Poly.one(X))) == Fraction(1, 2)
    assert groth_residue(jac_problem(P("x^2 + y^3"), P("y"))) == Fraction(1, 6)


def test_problem_validation():
    with pytest.raises(ValueError):
        ResidueProblem(Poly.one(XY), [P("x")])  # one generator, two variables
    with pytest.raises(IsolatedSingularityError):
        ResidueProblem(Poly.one(XY), [P("2*x*y"), P("x^2")])  # J(x^2 y)
    with pytest.raises(IsolatedSingularityError):
        ResidueProblem(Poly.one(XY), [P("x - 1"), P("y")])  # supported away from 0


def test_cover_independence_cusp():
    f = P("x^2 + y^3")
    rng = random.Random(20240917)
    prob0 = jac_problem(f, Poly.one(XY))
    small = prob0.cover()
    big = prob0.cover((2, 2))
    assert small.exponents == (1, 2)
    assert big.exponents == (2, 2)
    for _ in range(20):
        g = random_poly(XY, rng)
        prob = jac_problem(f, g)
        assert groth_residue(prob, small) == groth_residue(prob, big)



def test_cover_rows_share_one_graph_basis(monkeypatch):
    prob = jac_problem(P("x^2 + y^3"), Poly.one(XY))
    calls = []
    real = groebner._buchberger_raw

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_raw", counted)
    # the rows are read off the graph basis built with the problem
    cover = prob.cover()
    assert len(cover.cofactors) == 2
    assert calls == []


def test_foreign_cover_rejected():
    cov = jacobian_cover(P("x*y"))
    prob = jac_problem(P("x^2 + y^3"), Poly.one(XY))
    with pytest.raises(ValueError):
        groth_residue(prob, cov)


def test_vanishes_on_jacobian_multiples():
    rng = random.Random(99)
    for f in (P("x*y"), P("x^2 + y^3"), P("x^2 + y^4"), P("x^3", X)):
        n = len(f.vars)
        for _ in range(5):
            h = random_poly(f.vars, rng, max_deg=3, terms=3)
            i = rng.randrange(n)
            assert groth_residue(jac_problem(f, h * f.partial(i))) == 0


def rank(matrix):
    rows = [list(r) for r in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                c = rows[i][col] / rows[r][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@pytest.mark.parametrize("fs", ["x*y", "x^2 + y^3"])
def test_milnor_pairing_nondegenerate(fs):
    f = P(fs)
    cov = jacobian_cover(f)
    partials = [f.partial(i) for i in range(2)]
    monos = quotient_basis(ResidueProblem(Poly.one(XY), partials).gb)
    basis = [Poly.monomial(XY, m) for m in monos]
    gram = [[groth_residue(ResidueProblem(g * h, partials), cov) for h in basis]
            for g in basis]
    assert rank(gram) == len(basis)
