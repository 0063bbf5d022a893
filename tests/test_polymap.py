"""Ring laws and compilation fidelity for the sparse rational polynomials."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from random_algebras import fraction_poly_value as value

from nilharm.polymap import ExactMap, Poly
from nilharm.rationals import fraction_form, integer_form

NVARS = 3

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def polys(draw, nvars=NVARS):
    monomials = st.tuples(*([st.integers(0, 3)] * nvars))
    n_terms = draw(st.integers(0, 5))
    data = {}
    for _ in range(n_terms):
        data[draw(monomials)] = draw(fractions)
    return Poly._make(nvars, data)


points = st.tuples(*([fractions] * NVARS))


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), points)
def test_addition_and_multiplication_agree_with_evaluation(p, q, x):
    assert value(p + q, x) == value(p, x) + value(q, x)
    assert value(p * q, x) == value(p, x) * value(q, x)
    assert value(p - q, x) == value(p, x) - value(q, x)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert (p * q).terms == (q * p).terms
    assert ((p + q) + r).terms == (p + (q + r)).terms
    assert (p * (q + r)).terms == (p * q + p * r).terms
    zero = Poly.zero(NVARS)
    assert (p + zero).terms == p.terms
    assert (p * Poly.constant(NVARS, 1)).terms == p.terms


@settings(max_examples=60, deadline=None)
@given(st.lists(polys(nvars=4), max_size=3), st.tuples(*([fractions] * 4)))
def test_exact_map_matches_exact_evaluation(ps, point):
    # Variables 0, 1 are x and 2, 3 are y; zero and constant polynomials included.
    expected = tuple(value(p, point) for p in ps)
    out = ExactMap(ps, 2)(integer_form(point[:2]), integer_form(point[2:]))
    assert fraction_form(out) == expected


def test_degree_and_zero():
    assert not Poly.zero(2)
