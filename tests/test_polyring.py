from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mfhrr.groebner import GraphBasis, buchberger, normal_form
from mfhrr.hkrtrace import chern_form
from mfhrr.mfcat import koszul_mf
from mfhrr.polyring import (
    DiffForm,
    FormSeries,
    LaurentError,
    Poly,
    PolyParseError,
    degrevlex_key,
    parse_poly,
    wedge_sign,
)
from mfhrr.residue import ResidueProblem

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(s, variables=XY):
    return parse_poly(s, variables)


# -- parsing ----------------------------------------------------------------

def test_parse_basic():
    p = P("x^2 + 3*x*y - 1/2")
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((1, 1)) == 3
    assert p.coefficient((0, 0)) == Fraction(-1, 2)


def test_parse_parens_and_products():
    assert P("(x + y)*(x - y)") == P("x^2 - y^2")
    assert P("2*(x + 1)^0") if False else True
    assert P("-(x + y)") == -P("x + y")


def test_parse_signed_rational():
    assert P("-3/4").constant_term() == Fraction(-3, 4)
    assert P("x - -2") == P("x + 2")


def test_parse_error_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x1*(x2", ("x1", "x2"))
    assert e.value.position == 6


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError) as e:
        P("x + w")
    assert e.value.position == 4


def test_parse_zero_denominator():
    with pytest.raises(PolyParseError):
        P("1/0")


def test_parse_rejects_a_non_string():
    for text in (1.5, 2, None):
        with pytest.raises(PolyParseError):
            parse_poly(text, XY)


def test_parse_trailing_garbage():
    with pytest.raises(PolyParseError) as e:
        P("x + y )")
    assert e.value.position == 6


def test_str_round_trip():
    samples = ["0", "x^2 - y^2", "-x + 1", "3/2*x*y - 1/3", "x^5 + x^2*y^3 - 7"]
    for s in samples:
        p = P(s)
        assert P(str(p)) == p


# -- ring laws --------------------------------------------------------------

small_polys = st.builds(
    lambda pairs: Poly(XY, {m: Fraction(c) for m, c in pairs}),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                  st.integers(-5, 5)),
        max_size=5,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == Poly.zero(XY)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_leibniz(a, b):
    for i in range(2):
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


def test_degrevlex_order():
    x2 = (2, 0)
    xy = (1, 1)
    y2 = (0, 2)
    assert degrevlex_key(x2) > degrevlex_key(xy) > degrevlex_key(y2)
    # degree dominates
    assert degrevlex_key((0, 3)) > degrevlex_key((2, 0))
    p = P("y^2 + x*y + x^2")
    assert [m for m, _ in p.sorted_terms()] == [x2, xy, y2]


def test_degrevlex_three_vars():
    # classic separating example: x*z vs y^2 agree in degree;
    # last nonzero of difference (1,-2,1) is positive so x*z is smaller
    assert degrevlex_key((0, 2, 0)) > degrevlex_key((1, 0, 1))


# -- negative exponents -------------------------------------------------------

def test_laurent_gate():
    inv_x = Poly(XY, {(-1, 0): Fraction(1)})
    assert inv_x.coefficient((-1, 0)) == 1
    with pytest.raises(LaurentError):
        buchberger([P("y^2"), inv_x])
    with pytest.raises(LaurentError):
        GraphBasis([P("x"), P("y") * inv_x]).syzygies()
    with pytest.raises(LaurentError):
        ResidueProblem(inv_x, [P("x"), P("y")])
    with pytest.raises(LaurentError):
        ResidueProblem(P("1"), [inv_x, P("y")])


def test_laurent_flags_merge():
    a = Poly(XY, {(-1, 0): Fraction(1)})
    b = P("y^3")
    assert (a * b).coefficient((-1, 3)) == 1


def test_laurent_derivative():
    a = Poly(XY, {(-1, 0): Fraction(1)})
    assert a.partial(0) == Poly(XY, {(-2, 0): Fraction(-1)})


# -- differential forms -------------------------------------------------------

def test_wedge_sign():
    assert wedge_sign((0,), (1,)) == (1, (0, 1))
    assert wedge_sign((1,), (0,)) == (-1, (0, 1))
    assert wedge_sign((0,), (0,)) is None
    assert wedge_sign((), (0, 1)) == (1, (0, 1))
    assert wedge_sign((1, 2), (0,)) == (1, (0, 1, 2))


def test_d_squared_zero():
    w = DiffForm(XYZ, {(0,): parse_poly("x*y*z", XYZ),
                       (1, 2): parse_poly("x^3 + z", XYZ)})
    assert w.d().d().is_zero()


def test_wedge_graded_commutativity():
    a = DiffForm.dx(XYZ, 0).scale(parse_poly("y", XYZ))
    b = DiffForm.dx(XYZ, 1).scale(parse_poly("z^2", XYZ))
    assert a.wedge(b) == -(b.wedge(a))
    two_form = a.wedge(b)
    c = DiffForm.dx(XYZ, 2)
    assert two_form.wedge(c) == c.wedge(two_form)


def test_d_leibniz_on_product():
    f = parse_poly("x^2*y", XYZ)
    g = parse_poly("z + x", XYZ)
    fg = DiffForm.from_poly(f * g)
    lhs = fg.d()
    rhs = DiffForm.from_poly(g).scale(1).wedge(DiffForm.from_poly(f).d()) + \
        DiffForm.from_poly(f).wedge(DiffForm.from_poly(g).d())
    assert lhs == rhs


def test_top_component():
    w = DiffForm(XY, {(0, 1): P("x*y")})
    assert w.top() == P("x*y")
    assert DiffForm(XY, {(0,): P("x")}).top().is_zero()


# -- form series --------------------------------------------------------------

def test_twist_diff_squares_to_zero():
    f = parse_poly("x^2*y + z^3", XYZ)
    w = FormSeries(XYZ, [DiffForm.from_poly(parse_poly("x*z", XYZ)),
                         DiffForm.dx(XYZ, 1)], order=5)
    assert w.twist_diff(f).twist_diff(f).is_zero()


def test_twist_diff_components():
    f = P("x*y")
    w = FormSeries(XY, [DiffForm.from_poly(P("x"))], order=4)
    t = w.twist_diff(f)
    # u^0: -df * x = -(y dx + x dy) x ; u^1: d(x) = dx
    assert t.coeffs[0] == DiffForm(XY, {(0,): P("-x*y")}) + DiffForm(XY, {(1,): P("-x^2")})
    assert t.coeffs[1] == DiffForm.dx(XY, 0)
    assert t.coeffs[2].is_zero()


def test_form_series_equality_is_strict():
    # equal vars, equal order and equal coefficients: a shorter series is
    # not equal to a longer one that starts with it
    a = DiffForm.from_poly(P("x"))
    short = FormSeries(XY, [a], 1)
    assert short != FormSeries(XY, [a, DiffForm.dx(XY, 0)], 2)
    assert short != FormSeries(XY, [a], 2)
    assert FormSeries(XY, [a], 2) == FormSeries(XY, [a, DiffForm.zero(XY)], 2)
    x = DiffForm.from_poly(parse_poly("x", ("x",)))
    assert FormSeries(("x",), [x], 1) != FormSeries(("x", "z"), [], 1)


# -- stored coefficients --------------------------------------------------------

def _stored(p):
    """True when every coefficient is an int or a Fraction that is not one."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def _random_poly(rng):
    coeffs = [1, -1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)]
    return Poly(XY, {(rng.randrange(3), rng.randrange(3)): rng.choice(coeffs)
                     for _ in range(rng.randrange(1, 5))})


def test_stored_coefficients_are_int_or_proper_fraction():
    p = P("6/3*x - 1/2")
    assert _stored(p) and type(p.coefficient((1, 0))) is int
    assert type(P("1/2*x + 1/2*x").coefficient((1, 0))) is int
    rng = random.Random(1213)
    gens = [P("2*x^2 - y"), P("1/2*x*y - 3*y^2")]
    gb, graph = buchberger(gens), GraphBasis(gens)
    for _ in range(30):
        a, b = _random_poly(rng), _random_poly(rng)
        wa, wb = DiffForm(XY, {(0,): a, (1,): b}), DiffForm.from_poly(b)
        forms = [wa.wedge(wb), wa.d(), wb.d(), wa.scale(Fraction(2, 3))]
        polys = [a + b, a - b, a * b, a * Fraction(2, 3), a.partial(0), a.partial(1),
                 normal_form(a, gb), *graph.cofactors(a * gens[0] + b * gens[1])]
        assert all(_stored(q) for q in polys + [c for w in forms for c in w.comps.values()])
    for mf in (koszul_mf(XY, [P("1/2*x")], [P("2*y + x^2")]),
               koszul_mf(XY, [P("x"), P("y")], [P("3*x"), P("1/3*y^2")])):
        assert all(_stored(c) for c in chern_form(mf).form.comps.values())


def test_float_coefficient_is_rejected():
    x = P("x")
    for make in (lambda: Poly(XY, {(1, 0): 0.5}), lambda: Poly.const(XY, 0.0),
                 lambda: x * 0.5, lambda: Poly.zero(XY) * 0.5, lambda: x + 0.5,
                 lambda: DiffForm.from_poly(x).scale(0.5)):
        with pytest.raises(TypeError):
            make()
