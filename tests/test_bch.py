"""Dynkin word-coefficient table and the series evaluator.

The authoritative oracle is the free 2-generator nilpotent algebra of step 4,
where the product of the generators has the textbook closed form

    x + y + 1/2 [x,y] + 1/12 [x,[x,y]] + 1/12 [y,[y,x]] - 1/24 [y,[x,[x,y]]].

On random algebras the compiled law is checked against one walk of the
series in plain Fraction arithmetic.
"""

import hashlib
from fractions import Fraction
from math import factorial

import pytest
import random_algebras
from hypothesis import given, settings, strategies as st

from nilharm import bch, catalog as cat, lie_core as lc, orbits as ob, seeds
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


def dynkin_table_by_block_sequences(max_degree: int) -> dict:
    """Reference table: Dynkin's series term by term.

    Every sequence ((p_1, q_1), ..., (p_n, q_n)) with p_i + q_i >= 1 and total
    weight m <= max_degree adds (-1)^(n-1) / (n m prod p_i! q_i!) to the word
    x^p_1 y^q_1 ... x^p_n y^q_n.
    """
    table = {}
    stack = [((), 0)]
    while stack:
        seq, weight = stack.pop()
        if seq:
            n = len(seq)
            denom = n * weight
            word = []
            for p, q in seq:
                word += [0] * p + [1] * q
                denom *= factorial(p) * factorial(q)
            key = tuple(word)
            table[key] = table.get(key, Fraction(0)) + Fraction((-1) ** (n - 1), denom)
        for w in range(1, max_degree - weight + 1):
            for p in range(w + 1):
                stack.append((seq + ((p, w - p),), weight + w))
    return {w: c for w, c in table.items()
            if c != 0 and (len(w) < 2 or w[-1] != w[-2])}


@pytest.mark.parametrize("degree", range(1, 9))
def test_word_table_matches_the_block_sequence_sum(degree):
    assert bch.word_coefficients(degree) == dynkin_table_by_block_sequences(degree)


def _digest(polys) -> str:
    return hashlib.sha256(repr(tuple(p.terms for p in polys)).encode()).hexdigest()


# sha256 of repr(terms) of every compiled polynomial, pinned when the word
# table was still summed block sequence by block sequence.
ORBIT_LAW_DIGESTS = {
    "h3": "613e23da8e39086b32b34557ea3363d471916cca9118489bea6e2c8cbf42a13a",
    "ext_g0st_1_1": "40e46dfe1cb5cc7dc2414818ceba64bc194c4d49f4925709f8869da4f5aec4a1",
    "ext_triangle": "1077f87d81da7dec01728f9ce161d0bae63e21830cc71cde0ef2e6bdeb393eb5",
    "ext_nonhomog": "eceaa0cd400e69d6c4d42931549b2a9519ccfae27950495861e1097e4a81b1ed",
}
GROUP_LAW_DIGESTS = {
    "abelian4": "564fcfec669b0d15be976e29e0b17cfab8527c5f9b7e3cbe526809c0fb17e266",
    "h3": "d16169e6cf2a867b3a88b796b6cce1bb5efa962039a1416e36ad8b793faf2300",
    "g0st_1_1": "500e8edeeffb64ea302948e1938ea5a13b39e19cb7d22fbd790285e5d81d4e24",
    "triangle": "fda4dd62b196e5274dd0721981116be1e8f4323341de6d93638ba384fe815747",
    "nonhomog": "eaca46e8e373f23b35eb55dda83c96779ce848f49d2e22649c1b3f4d04e82fcd",
    "ext_g0st_1_1": "40e833bb89a950acf329806f2954a0dec5f179b5374b005297d2503133350056",
    "ext_triangle": "f681035fd4b2321aee8432c022c17504bf89a2b6a2bb575992e5e5c32c87eb2d",
    "ext_nonhomog": "fbb895c2a6927f35026315c14bc3f909f7dd053fa953d6f26f9adcb541966dda",
}


def test_flat_orbit_laws_keep_their_terms():
    for name, orbit in cat.flat_orbits().items():
        product_polys, alpha_poly = ob.polynomial_law(orbit)
        assert _digest(product_polys + (alpha_poly,)) == ORBIT_LAW_DIGESTS[name], name


def test_group_laws_keep_their_terms(monkeypatch):
    # _compile_group_law hands its polynomials to ExactMap; keep them instead.
    monkeypatch.setattr(lc, "ExactMap", lambda polys, n: polys)
    for name, build in cat.CORE.items():
        law = lc._compile_group_law.__wrapped__(build())
        assert _digest(law) == GROUP_LAW_DIGESTS[name], name


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
    px = [Poly(0, (((), c),)) if c else zero for c in x]
    py = [Poly(0, (((), c),)) if c else zero for c in y]
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
