"""The seeded draws, and the integer kernels of the bracket, the group laws
and the orbit laws, called with Fraction vectors, against their Fraction
references; the proofs of the exact suite and the faults that fail them."""

import json
from fractions import Fraction

import pytest
import random_algebras
from hypothesis import given, settings, strategies as st

from nilharm import catalog, lie_core as lc, orbits as ob, polymap as pm, seeds, verify


def assert_fraction_vector(v, expected):
    """v is the vector ``expected`` as a tuple of Fractions."""
    assert type(v) is tuple and all(type(a) is Fraction for a in v)
    assert v == tuple(expected)


# (max_num, max_den) of the vector draws in the benchmark probe, of the
# scalar draws in verify.examples_suite, the defaults, and the narrowest
# range: randint(1, 1) still consumes bits.
@pytest.mark.parametrize("max_num, max_den", [(3, 3), (5, 3), (6, 4), (1, 1)])
def test_integer_draws_are_fraction_draws(max_num, max_den):
    streams = [seeds.stream("draws", 0) for _ in range(2)]
    for n in (1, 2, 3, 6, 9):
        for _ in range(40):
            w = seeds.random_fraction_vector(streams[0], n, max_num, max_den)
            assert w == tuple(seeds.random_fraction(streams[1], max_num, max_den)
                              for _ in range(n))
            for nonzero in (False, True):
                q, r = (seeds.random_fraction(rnd, max_num, max_den, nonzero)
                        for rnd in streams)
                assert q == r and (q != 0 or not nonzero)
                assert abs(q.numerator) <= max_num and q.denominator <= max_den
            assert streams[0].getstate() == streams[1].getstate()


def assert_integer_path_matches_fractions(L, points):
    """Bracket, group law and, on a flat standard orbit, the orbit law, each
    run by its integer kernel from Fraction vectors, against the Fraction
    references at the same points."""
    bits = L.law_bits
    group_law = random_algebras.FractionExactMap(lc.polynomial_group_law(L), L.dim, bits)
    for x, y in points(L.dim):
        assert_fraction_vector(lc.bracket(L, x, y), random_algebras.fraction_bracket(L, x, y))
        assert_fraction_vector(lc.bch_product(L, x, y), group_law(x, y))
    orbit = ob.standard_orbit(L)
    if not orbit.flat:
        return
    product_polys, alpha_poly = ob.polynomial_law(orbit)
    orbit_law = random_algebras.FractionExactMap(product_polys + (alpha_poly,), orbit.d, bits)
    for x, y in points(orbit.d):
        *product, a = orbit_law(x, y)
        xy, a_xy = ob.product_and_alpha(orbit, x, y)
        assert_fraction_vector(xy, product)
        assert type(a_xy) is Fraction and a_xy == a == ob.alpha(orbit, x, y)


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


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras)
def test_the_proofs_hold_on_random_algebras(L):
    assert lc.jacobi_defect(L) == 0
    law = L._group_law
    assert pm.associativity_defect(law, L.dim) == pm.inverse_unit_defect(law, L.dim) == 0
    orbit = ob.standard_orbit(L)
    if orbit.flat:
        assert pm.associativity_defect(orbit._law, orbit.d) == 0
        assert pm.ray_defect(orbit._law, orbit.d) == 0


def perturb(law, first, n, bits, monkeypatch):
    """For the rest of the test, add 1 to the integer coefficient of y_1 in
    the first component of the compiled law ``law`` on n coordinates, whose
    polynomial is ``first`` in fields of ``bits`` bits: the law then scales
    y_1 by 1 + 1/D there, which no group law or cocycle absorbs."""
    t = [m for m, _ in pm.terms(first, 2 * n, bits)].index(
        tuple(int(v == n) for v in range(2 * n)))
    comps = list(law._components)
    coeffs, xs, ys = comps[0]
    comps[0] = (coeffs[:t] + (coeffs[t] + 1,) + coeffs[t + 1:], xs, ys)
    monkeypatch.setattr(law, "_components", comps)


def perturb_group_law(L, monkeypatch):
    perturb(L._group_law, lc.polynomial_group_law(L)[0], L.dim, L.law_bits,
            monkeypatch)


def failed_checks(rep) -> dict:
    return {c.name: c.value for c in rep.checks if c.status == "fail"}


@pytest.mark.parametrize("name", list(catalog.CORE))
def test_a_perturbed_group_law_fails_associativity(monkeypatch, name):
    # The suite reads the shared catalog algebra, and with it its compiled law.
    L = catalog.core_algebras()[name]
    perturb_group_law(L, monkeypatch)
    failed = failed_checks(verify.exact_suite(0))
    assert failed.get(f"bch_associativity_exact[{name}]", 0) > 0, failed
    assert all(f"[{name}]" in check for check in failed), failed


def test_a_perturbed_orbit_law_fails_the_cocycle_identity(monkeypatch):
    orbit = catalog.flat_orbits()["ext_nonhomog"]
    product_polys, _ = ob.polynomial_law(orbit)
    perturb(orbit._law, product_polys[0], orbit.d, orbit.algebra.law_bits,
            monkeypatch)
    failed = failed_checks(verify.exact_suite(0))
    assert failed.get("cocycle_identity_exact[ext_nonhomog]", 0) > 0, failed
    assert all("[ext_nonhomog]" in check for check in failed), failed


@pytest.mark.parametrize("name", list(catalog.CORE))
def test_a_perturbed_group_law_fails_inverse_and_unit(monkeypatch, name):
    # 0 y = (1 + 1/D) y_1 in the first component.
    L = catalog.core_algebras()[name]
    perturb_group_law(L, monkeypatch)
    assert f"bch_inverse_and_unit[{name}]" in failed_checks(verify.exact_suite(0))


def perturb_table(L, monkeypatch, entry=1):
    """For the rest of the test, add 1 to the first integer constant of one
    entry of the table that ``lc.bracket`` reads: D [X_i, X_j] gains X_k."""
    D, table = L._integer_form
    i, j, ((k, c), *rest) = table[entry]
    changed = table[:entry] + ((i, j, ((k, c + 1), *rest)),) + table[entry + 1:]
    monkeypatch.setitem(L.__dict__, "_integer_form", (D, changed))


def test_a_perturbed_bracket_table_fails_jacobi(monkeypatch):
    # Warm first: the flags are built from the ad-columns, which read the
    # table once; only the Jacobi proof reads it on every call.
    verify.exact_suite(0)
    L = catalog.core_algebras()["nonhomog"]
    perturb_table(L, monkeypatch)
    failed = failed_checks(verify.exact_suite(0))
    assert list(failed) == ["jacobi_exact[nonhomog]"] and failed["jacobi_exact[nonhomog]"] > 0


def symmetric_cross_sums(dim, table, X, Y):
    """``lc._cross_sums`` with a fault: [x, y] becomes symmetric,
    X_i Y_j + X_j Y_i."""
    out = [0] * dim
    for i, j, terms in table:
        cross = X[i] * Y[j] + X[j] * Y[i]
        for k, c in terms:
            out[k] += cross * c
    return out


def test_a_faulty_bracket_kernel_fails_jacobi(monkeypatch):
    # The proof runs the kernel of lc.bracket itself, so a fault in its code
    # fails Jacobi.  The laws compile on that kernel too: warm first, so
    # that the catalog algebras cache no law compiled under the fault.
    verify.exact_suite(0)
    monkeypatch.setattr(lc, "_cross_sums", symmetric_cross_sums)
    L = catalog.core_algebras()["nonhomog"]
    x, y = (1, 2) + (0,) * (L.dim - 2), (3, 1) + (0,) * (L.dim - 2)
    assert lc.bracket(L, x, y) == lc.bracket(L, y, x) != (0,) * L.dim
    failed = failed_checks(verify.exact_suite(0))
    assert {name for name in failed if name.startswith("jacobi_exact")} == {
        "jacobi_exact[nonhomog]", "jacobi_exact[ext_g0st_1_1]", "jacobi_exact[ext_triangle]",
        "jacobi_exact[ext_nonhomog]"}, failed


def test_the_laws_compile_on_the_bracket_kernel(monkeypatch):
    # Jacobi is proved on lc._cross_sums, and the group and orbit laws are
    # compiled on it: a fault in it changes both.  A fresh h3 each time, so
    # no catalog algebra caches a law compiled under the fault.
    def laws():
        L = lc.validate(3, {(0, 1): {2: 1}})
        product, alpha_poly = ob.polynomial_law(ob.standard_orbit(L))
        return ([pm.terms(p, 6, L.law_bits) for p in lc.polynomial_group_law(L)],
                [pm.terms(p, 4, L.law_bits) for p in (*product, alpha_poly)])

    group_law, orbit_law = laws()
    monkeypatch.setattr(lc, "_cross_sums", symmetric_cross_sums)
    faulty_group_law, faulty_orbit_law = laws()
    assert faulty_group_law != group_law
    assert faulty_orbit_law != orbit_law


def test_the_jacobi_brackets_hold_no_zero_coefficient():
    # Packed adds no term for the int zeros _cross_sums starts from, so the
    # brackets of the Jacobi proof carry only live terms.
    L = catalog.core_algebras()["ext_nonhomog"]
    n = L.dim
    _, table = L._integer_form
    vs = pm.Packed.variables(3 * n, 2)
    x, y, z = vs[:n], vs[n:2 * n], vs[2 * n:]
    inner = lc._cross_sums(n, table, y, z)
    outer = lc._cross_sums(n, table, x, inner)
    assert any(outer)
    for w in inner + outer:
        assert w == 0 or all(w.values()), w


def add_x1_y1_to_the_h3_cocycle(monkeypatch):
    """For the rest of the test, add x_1 y_1 to the cocycle component of the
    h3 orbit law, whose cocycle is (x_2 y_1 - x_1 y_2) / 2: reuse the node
    of x_1 from one term and that of y_1 from the other."""
    orbit = catalog.flat_orbits()["h3"]
    law = orbit._law
    _, alpha_poly = ob.polynomial_law(orbit)
    monomials = [m for m, _ in pm.terms(alpha_poly, 4, orbit.algebra.law_bits)]
    with_x1 = next(t for t, m in enumerate(monomials) if m[0])
    with_y1 = next(t for t, m in enumerate(monomials) if m[2])
    *product, (coeffs, xs, ys) = law._components
    cocycle = (coeffs + (law._den,), xs + (xs[with_x1],), ys + (ys[with_y1],))
    monkeypatch.setattr(law, "_components", product + [cocycle])


def test_a_cocycle_that_does_not_vanish_on_rays_fails_ray_vanishing(monkeypatch):
    # A bilinear term is a cocycle of the additive h3 orbit product, so only
    # the ray check sees it: alpha(lam x, mu x) gains lam mu x_1^2.
    add_x1_y1_to_the_h3_cocycle(monkeypatch)
    failed = failed_checks(verify.exact_suite(0))
    assert failed == {"cocycle_ray_vanishing_exact[h3]": 1}, failed


def test_a_perturbation_after_a_warm_suite_still_fails_the_proofs(monkeypatch):
    # Nothing keeps a verdict: each exact_suite call proves every identity
    # again on the tables as they are.
    assert verify.exact_suite(0).all_passed
    L = catalog.core_algebras()["ext_nonhomog"]
    perturb_group_law(L, monkeypatch)
    perturb_table(catalog.core_algebras()["nonhomog"], monkeypatch)
    add_x1_y1_to_the_h3_cocycle(monkeypatch)
    assert set(failed_checks(verify.exact_suite(0))) == {
        "jacobi_exact[nonhomog]", "bch_associativity_exact[ext_nonhomog]",
        "bch_inverse_and_unit[ext_nonhomog]", "cocycle_ray_vanishing_exact[h3]"}
    monkeypatch.undo()
    assert verify.exact_suite(0).all_passed


@pytest.mark.parametrize("seed", [0, 7])
def test_warm_caches_change_no_report_byte(cold_caches, seed):
    def report_bytes():
        return [json.dumps(rep.to_dict(), sort_keys=True)
                for rep in (verify.exact_suite(seed), verify.examples_suite(seed))]

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
