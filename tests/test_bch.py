"""Dynkin word-coefficient table and the series evaluator.

The authoritative oracle is the free 2-generator nilpotent algebra of step 4,
where the product of the generators has the textbook closed form

    x + y + 1/2 [x,y] + 1/12 [x,[x,y]] + 1/12 [y,[y,x]] - 1/24 [y,[x,[x,y]]].

On random algebras the compiled law is checked against one walk of the
series in plain Fraction arithmetic.
"""

from fractions import Fraction

import random_algebras
from hypothesis import given, settings, strategies as st

from nilharm import bch, catalog as cat, lie_core as lc, seeds
from nilharm.polymap import Poly


def free_nilpotent_2_4() -> lc.LieAlgebra:
    # X1=x, X2=y, X3=[x,y], X4=[x,[x,y]], X5=[y,[x,y]],
    # X6=[x,X4], X7=[y,X4]=[x,X5], X8=[y,X5]; all weight-5 brackets vanish.
    one = Fraction(1)
    return lc.validate(8, {
        (0, 1): {2: one},
        (0, 2): {3: one},
        (1, 2): {4: one},
        (0, 3): {5: one},
        (1, 3): {6: one},
        (0, 4): {6: one},
        (1, 4): {7: one},
    })


def test_generator_product_in_free_nilpotent_step4():
    L = free_nilpotent_2_4()
    assert L.step == 4
    e1 = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(8))
    e2 = tuple(Fraction(1) if i == 1 else Fraction(0) for i in range(8))
    assert lc.bch_product(L, e1, e2) == (
        Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 12),
        Fraction(-1, 12), Fraction(0), Fraction(-1, 24), Fraction(0))


def test_associativity_in_free_nilpotent_step4():
    L = free_nilpotent_2_4()
    rnd = seeds.stream("bch.free24", 0)
    for _ in range(25):
        x = seeds.random_fraction_vector(rnd, 8, max_num=3, max_den=3)
        y = seeds.random_fraction_vector(rnd, 8, max_num=3, max_den=3)
        z = seeds.random_fraction_vector(rnd, 8, max_num=3, max_den=3)
        assert lc.bch_product(L, lc.bch_product(L, x, y), z) \
            == lc.bch_product(L, x, lc.bch_product(L, y, z))


def test_degree2_aggregate_coefficient():
    # The table splits 1/2 [x,y] over both orderings: 1/4 xy - 1/4 yx.
    table = bch.word_coefficients(2)
    assert table[(0, 1)] - table[(1, 0)] == Fraction(1, 2)
    assert all(w[-1] != w[-2] for w in table if len(w) >= 2)


def test_step2_closed_form(h3):
    rnd = seeds.stream("bch.h3", 0)
    for _ in range(20):
        x = seeds.random_fraction_vector(rnd, 3)
        y = seeds.random_fraction_vector(rnd, 3)
        half_bracket = tuple(c / 2 for c in lc.bracket(h3, x, y))
        expected = tuple(a + b + c for a, b, c in zip(x, y, half_bracket))
        assert lc.bch_product(h3, x, y) == expected


def test_step3_closed_form():
    L = cat.extended_g0st(1, 1)
    assert L.step == 3
    rnd = seeds.stream("bch.step3", 0)
    for _ in range(10):
        x = seeds.random_fraction_vector(rnd, 7)
        y = seeds.random_fraction_vector(rnd, 7)
        br = lc.bracket(L, x, y)
        xxy = lc.bracket(L, x, br)
        yyx = lc.bracket(L, y, tuple(-c for c in br))
        expected = tuple(
            a + b + c / 2 + d / 12 + e / 12
            for a, b, c, d, e in zip(x, y, br, xxy, yyx))
        assert lc.bch_product(L, x, y) == expected


def test_generic_ring_path_matches_int_path():
    L = cat.extended_g0st(1, 1)
    rnd = seeds.stream("bch.generic", 0)
    x = seeds.random_fraction_vector(rnd, 7)
    y = seeds.random_fraction_vector(rnd, 7)
    zero = Poly.zero(0)
    px = [Poly.constant(0, c) for c in x]
    py = [Poly.constant(0, c) for c in y]
    out = bch.bch_apply_generic(L.entries, 7, L.step, px, py, zero)
    as_fractions = tuple(random_algebras.fraction_poly_value(p, ()) for p in out)
    assert as_fractions == lc.bch_product(L, x, y)


@settings(max_examples=10, deadline=None)
@given(random_algebras.algebras, st.data())
def test_compiled_law_matches_fraction_walk(L, data):
    for _ in range(3):
        x = data.draw(random_algebras.points(L.dim))
        y = data.draw(random_algebras.points(L.dim))
        assert lc.bch_product(L, x, y) == random_algebras.fraction_bch(L, x, y)
