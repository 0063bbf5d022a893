"""Integer-form vectors (d, X): the seeded draw, the canonical form, and the
integer kernels of the bracket, the group laws and the orbit laws against
their Fraction references."""

import json
from fractions import Fraction
from math import gcd

import pytest
import random_algebras
from hypothesis import given, settings, strategies as st

from nilharm import bch, catalog, lie_core as lc, orbits as ob, seeds, verify
from nilharm.polymap import Poly
from nilharm.rationals import canonical, fraction_form, integer_form, over_common_denominator


def assert_canonical(v, fractions):
    """v is the integer form of the Fraction vector ``fractions``."""
    d, X = v
    assert type(d) is int and type(X) is tuple
    assert d > 0 and gcd(d, *X) == 1
    assert d == over_common_denominator(fractions)[0]
    assert fraction_form(v) == tuple(fractions)


def randint_fraction(rnd, max_num, max_den, nonzero=False):
    """The reference draw of ``seeds.random_fraction``, made with randint."""
    while True:
        q = Fraction(rnd.randint(-max_num, max_num), rnd.randint(1, max_den))
        if q != 0 or not nonzero:
            return q


# (max_num, max_den) of the vector draws in verify and the benchmark probe,
# of the scalar draws in verify.examples_suite, the defaults, and the
# narrowest range: randint(1, 1) still consumes bits.
@pytest.mark.parametrize("max_num, max_den", [(3, 3), (5, 3), (6, 4), (1, 1)])
def test_integer_draws_are_fraction_draws(max_num, max_den):
    streams = [seeds.stream("draws", 0) for _ in range(4)]
    for n in (1, 2, 3, 6, 9):
        for _ in range(40):
            v = seeds.random_int_vector(streams[0], n, max_num, max_den)
            w = seeds.random_fraction_vector(streams[1], n, max_num, max_den)
            expected = tuple(seeds.random_fraction(streams[2], max_num, max_den)
                             for _ in range(n))
            assert expected == tuple(randint_fraction(streams[3], max_num, max_den)
                                     for _ in range(n))
            assert w == expected
            assert_canonical(v, expected)
            for nonzero in (False, True):
                q = randint_fraction(streams[3], max_num, max_den, nonzero)
                assert [seeds.random_fraction(rnd, max_num, max_den, nonzero)
                        for rnd in streams[:3]] == [q] * 3
            assert all(rnd.getstate() == streams[3].getstate() for rnd in streams[:3])


def group_law_polys(L) -> list[Poly]:
    """The polynomials that ``lie_core`` compiles into L's group law."""
    n = L.dim
    xy = [Poly.variable(2 * n, v) for v in range(2 * n)]
    return bch.bch_apply_generic(L.entries, n, max(L.step, 1), xy[:n], xy[n:],
                                 Poly.zero(2 * n))


def assert_integer_path_matches_fractions(L, points):
    """Bracket, group law and, on a flat standard orbit, the orbit law at
    integer forms, against the Fraction references at the same points."""
    group_law = random_algebras.FractionExactMap(group_law_polys(L), L.dim)
    for xf, yf in points(L.dim):
        x, y = integer_form(xf), integer_form(yf)
        br = lc.bracket(L, x, y)
        assert_canonical(br, random_algebras.fraction_bracket(L, xf, yf))
        assert lc.bracket(L, xf, yf) == fraction_form(br)
        prod = lc.bch_product(L, x, y)
        assert_canonical(prod, group_law(xf, yf))
        assert lc.bch_product(L, xf, yf) == fraction_form(prod)
    orbit = ob.standard_orbit(L)
    if not orbit.flat:
        return
    product_polys, alpha_poly = ob.polynomial_law(orbit)
    orbit_law = random_algebras.FractionExactMap(product_polys + (alpha_poly,), orbit.d)
    for xf, yf in points(orbit.d):
        x, y = integer_form(xf), integer_form(yf)
        *product, a = orbit_law(xf, yf)
        xy, a_xy = ob.product_and_alpha(orbit, x, y)
        assert_canonical(xy, product)
        assert a_xy == a == ob.alpha(orbit, x, y)
        assert ob.product_and_alpha(orbit, xf, yf) == (tuple(product), a)


@pytest.mark.parametrize("name", list(catalog.CORE))
def test_integer_path_matches_fractions_on_the_catalog(name):
    rnd = seeds.stream(f"integer_forms.{name}", 0)

    def points(n):
        return [tuple(seeds.random_fraction_vector(rnd, n, max_num=3, max_den=3)
                      for _ in range(2)) for _ in range(4)]

    assert_integer_path_matches_fractions(catalog.CORE[name](), points)


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras, st.data())
def test_integer_path_matches_fractions_on_random_algebras(L, data):
    def points(n):
        return [tuple(data.draw(random_algebras.points(n)) for _ in range(2))
                for _ in range(2)]

    assert_integer_path_matches_fractions(L, points)


def test_equal_vectors_compare_equal_once_canonical():
    # A canonical form is unique, so comparing the forms the kernels return
    # never reports two equal vectors as different.
    L = catalog.heisenberg3()
    orbit = catalog.flat_orbits()["h3"]
    x, y = (3, (1, -2, 0)), (2, (1, 1, 4))
    for k in (2, 6, 35):
        scaled = (3 * k, tuple(k * a for a in x[1]))
        assert scaled != x and canonical(*scaled) == x
        assert lc.bch_product(L, scaled, y) == lc.bch_product(L, x, y)
        assert lc.bracket(L, y, scaled) == lc.bracket(L, y, x)
        assert (ob.product_and_alpha(orbit, (3 * k, (k, -2 * k)), (2, (1, 1)))
                == ob.product_and_alpha(orbit, (3, (1, -2)), (2, (1, 1))))
    assert canonical(4, (0, 0, 0)) == (1, (0, 0, 0))


def perturb(law, polys, monkeypatch):
    """For the rest of the test, add 1 to the integer coefficient of y_1 in
    the first component of the compiled law of ``polys``: the law then scales
    y_1 by 1 + 1/D there, which no group law or cocycle absorbs."""
    n = polys[0].nvars // 2
    t = [m for m, _ in polys[0].terms].index(tuple(int(v == n) for v in range(2 * n)))
    comps = list(law._components)
    coeffs, xs, ys = comps[0]
    comps[0] = (coeffs[:t] + (coeffs[t] + 1,) + coeffs[t + 1:], xs, ys)
    monkeypatch.setattr(law, "_components", comps)


def failed_checks(rep) -> dict:
    return {c.name: c.value for c in rep.checks if c.status == "fail"}


@pytest.mark.parametrize("name", list(catalog.CORE))
def test_a_perturbed_group_law_fails_associativity(monkeypatch, name):
    # The suite reads the shared catalog algebra, and with it its compiled law.
    L = catalog.core_algebras()[name]
    perturb(L._group_law, group_law_polys(L), monkeypatch)
    failed = failed_checks(verify.exact_suite(0, samples=25))
    assert failed.get(f"bch_associativity_exact[{name}]", 0) > 0, failed
    assert all(f"[{name}]" in check for check in failed), failed


def test_a_perturbed_orbit_law_fails_the_cocycle_identity(monkeypatch):
    orbit = catalog.flat_orbits()["ext_nonhomog"]
    product_polys, alpha_poly = ob.polynomial_law(orbit)
    perturb(orbit._law, product_polys + (alpha_poly,), monkeypatch)
    failed = failed_checks(verify.exact_suite(0, samples=25))
    assert failed.get("cocycle_identity_exact[ext_nonhomog]", 0) > 0, failed
    assert all("[ext_nonhomog]" in check for check in failed), failed


@pytest.mark.parametrize("seed", [0, 7])
def test_warm_caches_change_no_report_byte(cold_caches, seed):
    def report_bytes():
        return [json.dumps(rep.to_dict(), sort_keys=True)
                for rep in (verify.exact_suite(seed, samples=25), verify.examples_suite(seed))]

    assert report_bytes() == report_bytes()


def test_the_catalog_hands_out_shared_algebras_in_new_dicts(cold_caches):
    algebras = catalog.core_algebras()
    assert algebras["h3"] is catalog.get_algebra("h3")
    algebras["h3"] = catalog.abelian(3)
    del algebras["nonhomog"]
    again = catalog.core_algebras()
    assert list(again) == list(catalog.CORE)
    assert again["h3"] == catalog.heisenberg3()
    for name, orbit in catalog.flat_orbits().items():
        assert orbit.algebra is again[name]


def test_warm_caches_replay_no_examples_check(monkeypatch):
    # The caches hold algebra values, never verdicts: after a warm run, a
    # defect in a residual the suite reads still fails its check.
    verify.examples_suite(0)
    monkeypatch.setattr(lc, "leibniz_residuals", lambda L, D: {(0, 1): (Fraction(1),)})
    assert list(failed_checks(verify.examples_suite(0))) == [
        "nonhomog_derivation_leibniz_exact"]
