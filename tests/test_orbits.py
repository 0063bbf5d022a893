"""Orbit data, jump indices, the additive cocycle and its exact identities."""

import cmath
from fractions import Fraction

import pytest
import random_algebras
from hypothesis import given, settings, strategies as st

from nilharm import catalog as cat, exactlinalg as ela, lie_core as lc
from nilharm import orbits as ob, seeds
from nilharm.polymap import Poly
from nilharm.rationals import int_vec_scale, integer_form, unit_vector

F = Fraction


def dual_functional(n, i=0):
    return ob.Functional(tuple(F(1) if t == i else F(0) for t in range(n)))


def product_e(orbit, x, y):
    """The reduced product alone."""
    return ob.product_and_alpha(orbit, x, y)[0]


def gamma_identities(orbit, x, y, z) -> dict:
    """The five unit-circle cocycle identities for gamma = exp(i alpha).

    Each identity is checked twice: the additive counterpart exactly in
    rational arithmetic, and the multiplicative form in complex floating
    arithmetic (residual = |lhs - rhs|).
    """
    def a(u, v):
        return ob.alpha(orbit, u, v)

    def p(u, v):
        return product_e(orbit, u, v)

    def g(val: Fraction) -> complex:
        return cmath.exp(1j * float(val))

    nx, ny, nz = (tuple(-c for c in w) for w in (x, y, z))
    additive = {
        "product_rule": a(x, y) + a(p(x, y), z) == a(x, p(y, z)) + a(y, z),
        "inverse_reversal": a(ny, nx) == -a(x, y),
        "right_cancel": a(p(x, ny), y) == -a(x, ny),
        "left_cancel": a(x, p(nx, y)) == -a(nx, y),
        "difference_rule": a(x, nz) + a(p(x, nz), p(z, ny)) == a(x, ny) + a(y, nz),
    }
    multiplicative = {
        "product_rule": abs(g(a(x, y)) * g(a(p(x, y), z))
                            - g(a(x, p(y, z))) * g(a(y, z))),
        "inverse_reversal": abs(g(a(ny, nx)) - 1 / g(a(x, y))),
        "right_cancel": abs(g(a(p(x, ny), y)) - 1 / g(a(x, ny))),
        "left_cancel": abs(g(a(x, p(nx, y))) - 1 / g(a(nx, y))),
        "difference_rule": abs(g(a(x, nz)) * g(a(p(x, nz), p(z, ny)))
                               - g(a(x, ny)) * g(a(y, nz))),
    }
    return {"additive_exact": additive, "multiplicative_residual": multiplicative}


# -- isotropy ------------------------------------------------------------------


def test_h3_isotropy_is_center(h3):
    iso = ob.isotropy_algebra(h3, dual_functional(3))
    assert iso == [(F(1), F(0), F(0))]


def test_abelian_isotropy_is_everything():
    L = cat.abelian(3)
    assert len(ob.isotropy_algebra(L, dual_functional(3))) == 3


def test_extension_isotropy_is_center():
    L = cat.extended_g0st(1, 1)
    iso = ob.isotropy_algebra(L, dual_functional(7))
    center = lc.center(L)
    assert ela.rank(iso) == ela.rank(center) == ela.rank(iso + center)


# -- jump indices ----------------------------------------------------------------


def test_h3_jump_data(h3_orbit):
    assert h3_orbit.jump_set == (2, 3)
    assert h3_orbit.d == 2
    assert h3_orbit.flat


def test_abelian_jump_data_empty_not_flat():
    L = cat.abelian(4)
    orbit = ob.jump_indices(L, lc.jordan_holder_flag(L), dual_functional(4))
    assert orbit.jump_set == ()
    assert not orbit.flat


def test_extension_jump_data(ext7_orbit):
    assert ext7_orbit.jump_set == (2, 3, 4, 5, 6, 7)
    assert ext7_orbit.flat


def test_pairing_not_one_rejected(h3):
    flag = lc.jordan_holder_flag(h3)
    bad = ob.Functional((F(2), F(0), F(0)))
    with pytest.raises(ob.PairingNotOne):
        ob.jump_indices(h3, flag, bad)


def test_direct_sum_determinant(h3_orbit, ext7_orbit):
    for orbit in (h3_orbit, ext7_orbit):
        full = [list(v) for v in
                list(orbit.isotropy_basis) + list(orbit.predual_basis)]
        assert ela.det(full) != 0


def functional_pairing_to_one(x1, coords):
    """The functional ``coords`` with its entry at x1's first nonzero
    coordinate reset so that it pairs to 1 with x1."""
    p = next(t for t, a in enumerate(x1) if a)
    coords = list(coords)
    coords[p] = F(0)
    coords[p] = (1 - sum(c * a for c, a in zip(coords, x1))) / x1[p]
    return ob.Functional(tuple(coords))


def assert_orbit_matches_the_row_loops(L, coords, w):
    """Isotropy basis, jump set, flatness and the split of w at a functional
    that pairs to 1 with the first flag vector equal the row-loop,
    rank-by-rank and [M | I] references."""
    flag = lc.jordan_holder_flag(L)
    xi0 = functional_pairing_to_one(flag.vectors[0], coords)
    iso = ob.isotropy_algebra(L, xi0)
    assert tuple(iso) == tuple(random_algebras.reference_isotropy(L, xi0))
    orbit = ob.jump_indices(L, flag, xi0)
    assert orbit.isotropy_basis == tuple(iso)
    assert orbit.jump_set == random_algebras.reference_jump_set(L, flag, xi0)
    assert orbit.flat == random_algebras.reference_flat(L, iso)
    if orbit.flat:
        assert orbit.split(w) == random_algebras.reference_split(orbit, w)


@pytest.mark.parametrize("name", list(cat.CORE))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_isotropy_and_jumps_match_the_row_loops_on_the_catalog(name, data):
    L = cat.CORE[name]()
    orbit = ob.standard_orbit(L)
    assert orbit.jump_set == random_algebras.reference_jump_set(L, orbit.flag, orbit.xi0)
    assert_orbit_matches_the_row_loops(L, *(data.draw(random_algebras.points(L.dim))
                                            for _ in range(2)))


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras, st.data())
def test_isotropy_and_jumps_match_the_row_loops_on_random_algebras(L, data):
    assert_orbit_matches_the_row_loops(L, *(data.draw(random_algebras.points(L.dim))
                                            for _ in range(2)))


# -- reduced product and the cocycle ------------------------------------------------


def test_h3_alpha_value(h3_orbit):
    # Dynkin degree-2 gives alpha = (x3 y2 - x2 y3)/2 in (x2, x3) coordinates.
    assert ob.alpha(h3_orbit, (F(1), F(0)), (F(0), F(1))) == F(-1, 2)


def test_h3_product_is_addition(h3_orbit):
    rnd = seeds.stream("orb.h3add", 0)
    x = seeds.random_fraction_vector(rnd, 2)
    y = seeds.random_fraction_vector(rnd, 2)
    assert product_e(h3_orbit, x, y) == tuple(a + b for a, b in zip(x, y))


def test_alpha_vanishes_on_rays(h3_orbit, ext7_orbit):
    rnd = seeds.stream("orb.rays", 0)
    for orbit in (h3_orbit, ext7_orbit):
        for _ in range(20):
            x = seeds.random_fraction_vector(rnd, orbit.d)
            lam = seeds.random_fraction(rnd)
            mu = seeds.random_fraction(rnd)
            x = integer_form(x)
            assert ob.alpha(orbit, int_vec_scale(lam, x), int_vec_scale(mu, x)) == 0


def test_alpha_zero_arguments(h3_orbit):
    zero = (F(0), F(0))
    rnd = seeds.stream("orb.zero", 0)
    y = seeds.random_fraction_vector(rnd, 2)
    assert ob.alpha(h3_orbit, zero, y) == 0
    assert ob.alpha(h3_orbit, y, tuple(-a for a in y)) == 0


def test_non_flat_orbit_refuses_product():
    L = cat.abelian(4)
    orbit = ob.jump_indices(L, lc.jordan_holder_flag(L), dual_functional(4))
    with pytest.raises(ob.NotFlat):
        ob.product_and_alpha(orbit, (), ())
    with pytest.raises(ob.NotFlat):
        ob.alpha(orbit, (), ())


def test_orbit_maps_reject_wrong_length(h3_orbit):
    short, ok, long = (F(1),), (F(0), F(1)), (F(0), F(1), F(2))
    for orbit_map in (ob.alpha, ob.product_and_alpha):
        with pytest.raises(ValueError):
            orbit_map(h3_orbit, short, ok)
        with pytest.raises(ValueError):
            orbit_map(h3_orbit, ok, long)


@settings(max_examples=10, deadline=None)
@given(random_algebras.algebras, st.data())
def test_embed_and_split_follow_the_split_basis(L, data):
    # The compiled law, from_orbit and the reference below all go through
    # embed and split, so pin both to the split basis (P_1..P_d, Z) directly:
    # w = sum_a x_a P_a + c Z, built here by plain vector arithmetic.
    orbit = ob.standard_orbit(L)
    if not orbit.flat:
        return
    x = data.draw(random_algebras.points(orbit.d))
    c = data.draw(random_algebras.fractions)
    embedded = (F(0),) * L.dim
    for xa, pa in zip(x, orbit.predual_basis):
        embedded = tuple(e + xa * p for e, p in zip(embedded, pa))
    assert orbit.embed(x) == embedded
    w = tuple(e + c * z for e, z in zip(embedded, orbit.flag.vectors[0]))
    assert orbit.split(w) == (x, c)
    for a, pa in enumerate(orbit.predual_basis):
        assert orbit.embed(unit_vector(orbit.d, a)) == pa


def test_embed_and_split_over_polynomials():
    # The ring-generic maps over Poly variables: split undoes embed exactly,
    # with a central part that is the ring's zero.
    for name, orbit in cat.flat_orbits().items():
        zero = Poly.zero(orbit.d)
        xs = tuple(Poly.variable(orbit.d, a) for a in range(orbit.d))
        assert orbit.split(orbit.embed(xs, zero), zero) == (xs, zero), name


@settings(max_examples=8, deadline=None)
@given(random_algebras.algebras, st.data())
def test_compiled_orbit_map_matches_fraction_walk(L, data):
    # Reference: embed, one Fraction walk of the series, split.
    orbit = ob.standard_orbit(L)
    if not orbit.flat:
        with pytest.raises(ob.NotFlat):
            ob.product_and_alpha(orbit, (), ())
        return
    for _ in range(3):
        x = data.draw(random_algebras.points(orbit.d))
        y = data.draw(random_algebras.points(orbit.d))
        w = random_algebras.fraction_bch(L, orbit.embed(x), orbit.embed(y))
        xy, c = orbit.split(w)
        expected = (xy, c * orbit.xi0.pair(orbit.flag.vectors[0]))
        assert ob.product_and_alpha(orbit, x, y) == expected


@settings(max_examples=10, deadline=None)
@given(random_algebras.algebras, st.data())
def test_orbit_invariants_on_random_algebras(L, data):
    orbit = ob.standard_orbit(L)
    iso = list(orbit.isotropy_basis)
    n = L.dim
    basis = [tuple(F(int(t == s)) for t in range(n)) for s in range(n)]
    for v in iso:
        assert all(orbit.xi0.pair(lc.bracket(L, v, e)) == 0 for e in basis)
    # Flat exactly when the isotropy is the 1-dimensional center.
    center = lc.center(L)
    assert orbit.flat == (len(center) == 1 and len(iso) == 1
                          and ela.rank(iso + center) == 1)
    assert len(orbit.jump_set) == n - len(iso)
    if not orbit.flat:
        return
    assert len(orbit.jump_set) == n - 1
    for _ in range(3):
        x, y, z = (data.draw(random_algebras.points(orbit.d)) for _ in range(3))
        assert ob.verify_cocycle_identity(orbit, x, y, z)
        assert all(gamma_identities(orbit, x, y, z)["additive_exact"].values())


def test_cocycle_identity_h3(h3_orbit):
    rnd = seeds.stream("orb.cocycle.h3", 0)
    for _ in range(50):
        x = seeds.random_fraction_vector(rnd, 2)
        y = seeds.random_fraction_vector(rnd, 2)
        z = seeds.random_fraction_vector(rnd, 2)
        assert ob.verify_cocycle_identity(h3_orbit, x, y, z)


def test_cocycle_identity_with_zero_argument(h3_orbit):
    rnd = seeds.stream("orb.cocycle.zero", 0)
    x = seeds.random_fraction_vector(rnd, 2)
    y = seeds.random_fraction_vector(rnd, 2)
    assert ob.verify_cocycle_identity(h3_orbit, x, y, (F(0), F(0)))


def test_cocycle_identity_extension(ext7_orbit):
    rnd = seeds.stream("orb.cocycle.ext", 0)
    for _ in range(50):
        x = seeds.random_fraction_vector(rnd, 6, max_num=3, max_den=3)
        y = seeds.random_fraction_vector(rnd, 6, max_num=3, max_den=3)
        z = seeds.random_fraction_vector(rnd, 6, max_num=3, max_den=3)
        assert ob.verify_cocycle_identity(ext7_orbit, x, y, z)


def test_alpha_symmetrization_consistency(h3_orbit, ext7_orbit):
    # alpha(x,y) + alpha(y,x) equals the central part of x*y + y*x, computed
    # through an independent path (two full splits, no cocycle shortcut).
    rnd = seeds.stream("orb.sym", 0)
    for orbit in (h3_orbit, ext7_orbit):
        L = orbit.algebra
        for _ in range(10):
            x = seeds.random_fraction_vector(rnd, orbit.d, max_num=3, max_den=3)
            y = seeds.random_fraction_vector(rnd, orbit.d, max_num=3, max_den=3)
            lhs = ob.alpha(orbit, x, y) + ob.alpha(orbit, y, x)
            w1 = lc.bch_product(L, orbit.embed(x), orbit.embed(y))
            w2 = lc.bch_product(L, orbit.embed(y), orbit.embed(x))
            total = tuple(a + b for a, b in zip(w1, w2))
            rhs = orbit.split(total)[1] * orbit.xi0.pair(orbit.flag.vectors[0])
            assert lhs == rhs


# -- gamma identities ----------------------------------------------------------------


def test_gamma_identities_h3(h3_orbit):
    rnd = seeds.stream("orb.gamma.h3", 0)
    x = seeds.random_fraction_vector(rnd, 2)
    y = seeds.random_fraction_vector(rnd, 2)
    z = seeds.random_fraction_vector(rnd, 2)
    out = gamma_identities(h3_orbit, x, y, z)
    assert all(out["additive_exact"].values())
    assert all(v < 1e-12 for v in out["multiplicative_residual"].values())


def test_gamma_identity_inverse_reversal_at_zero(h3_orbit):
    zero = (F(0), F(0))
    out = gamma_identities(h3_orbit, zero, zero, zero)
    assert out["multiplicative_residual"]["inverse_reversal"] == 0.0


def test_gamma_identities_extension(ext7_orbit):
    rnd = seeds.stream("orb.gamma.ext", 0)
    for _ in range(5):
        x = seeds.random_fraction_vector(rnd, 6, max_num=3, max_den=3)
        y = seeds.random_fraction_vector(rnd, 6, max_num=3, max_den=3)
        z = seeds.random_fraction_vector(rnd, 6, max_num=3, max_den=3)
        out = gamma_identities(ext7_orbit, x, y, z)
        assert all(out["additive_exact"].values())
        assert all(v < 1e-12 for v in out["multiplicative_residual"].values())


# -- polynomial closed forms -----------------------------------------------------------


def test_h3_alpha_polynomial(h3_orbit):
    poly = ob.polynomial_law(h3_orbit)[1]
    # alpha = (x2 y1 - x1 y2)/2 with predual variables (x1, x2, y1, y2).
    assert dict(poly.terms) == {(0, 1, 1, 0): F(1, 2), (1, 0, 0, 1): F(-1, 2)}


def test_polynomials_match_pointwise_alpha(ext7_orbit):
    ppolys, apoly = ob.polynomial_law(ext7_orbit)
    rnd = seeds.stream("orb.polycheck", 0)
    for _ in range(10):
        x = seeds.random_fraction_vector(rnd, 6)
        y = seeds.random_fraction_vector(rnd, 6)
        point = x + y
        prod, a = ob.product_and_alpha(ext7_orbit, x, y)
        assert random_algebras.fraction_poly_value(apoly, point) == a
        assert tuple(random_algebras.fraction_poly_value(p, point)
                     for p in ppolys) == prod
