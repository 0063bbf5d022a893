"""Ring laws and compilation fidelity for the packed polynomials."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from random_algebras import fraction_poly_value

from nilharm.polymap import ExactMap, Packed, terms
from nilharm.rationals import fraction_form, integer_form

NVARS = 3
BITS = 3  # drawn exponents reach 3, products of two polynomials 6

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def polys(draw, nvars=NVARS):
    """Up to 5 terms of exponents 0..3, with int coefficients (those of the
    proofs) or Fraction ones (those of the compiled laws); a drawn 0
    coefficient stays in the dict."""
    coefficient = draw(st.sampled_from([st.integers(-5, 5), fractions]))
    exponents = st.tuples(*([st.integers(0, 3)] * nvars))
    p = Packed()
    for _ in range(draw(st.integers(0, 5))):
        p[sum(e << (BITS * v) for v, e in enumerate(draw(exponents)))] = draw(coefficient)
    return p


def value(p, x):
    return fraction_poly_value(p, x, BITS)


def unpacked(p):
    return terms(p, NVARS, BITS)


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
    assert unpacked(p * q) == unpacked(q * p)
    assert unpacked((p + q) + r) == unpacked(p + (q + r))
    assert unpacked(p * (q + r)) == unpacked(p * q + p * r)
    assert unpacked(p + Packed()) == unpacked(p)
    assert unpacked(p * Packed({0: 1})) == unpacked(p)
    assert not p - p


def test_scalars_multiply_from_both_sides():
    # The BCH walk multiplies by int and Fraction structure constants and
    # word coefficients, the proofs by ints on either side.
    x, y = Packed.variables(2, BITS)
    p = x * y + x * -2
    assert terms(x * Fraction(1, 2), 2, BITS) == (((1, 0), Fraction(1, 2)),)
    for scalar in (0, 1, -3, Fraction(1, 2), Fraction(-4, 3)):
        expected = tuple((m, c * scalar) for m, c in terms(p, 2, BITS) if scalar)
        assert terms(p * scalar, 2, BITS) == terms(scalar * p, 2, BITS) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(polys(nvars=4), max_size=3), st.tuples(*([fractions] * 4)))
def test_exact_map_matches_exact_evaluation(ps, point):
    # Variables 0, 1 are x and 2, 3 are y; zero and constant polynomials included.
    expected = tuple(fraction_poly_value(p, point, BITS) for p in ps)
    out = ExactMap(ps, 2, BITS)(integer_form(point[:2]), integer_form(point[2:]))
    assert fraction_form(out) == expected


def test_degree_and_zero():
    assert not Packed()
    assert not Packed({1: 0, 1 << BITS: Fraction(0)})
    assert terms(Packed({1: 0, 1 << BITS: Fraction(2)}), 2, BITS) == (((0, 1), Fraction(2)),)
    # A scalar is a constant.
    assert terms(Fraction(0), 2, BITS) == terms(0, 2, BITS) == ()
    assert terms(Fraction(-3, 2), 2, BITS) == (((0, 0), Fraction(-3, 2)),)


def test_a_zero_scalar_is_nothing():
    # The bracket kernel starts each component at int 0 and the exact half's
    # one zero is Fraction(0): adding either adds no term, multiplying by
    # either gives the empty polynomial.
    x, y = Packed.variables(2, BITS)
    p = x * y + x * -2
    # Dict equality: no key added, not even one with a zero coefficient.
    for q in (p + 0, 0 + p, p + Fraction(0), Fraction(0) + p, p - 0):
        assert q == p
    q = Packed(p)
    q += Fraction(0)
    assert q == p
    for q in (p * 0, 0 * p, p * Fraction(0), Fraction(0) * p):
        assert type(q) is Packed and q == {}
