"""Exact algebra layer: validation, series, flags, derivations, Engel flags."""

from fractions import Fraction

import pytest
import random_algebras
from hypothesis import given, settings, strategies as st

from nilharm import catalog as cat, exactlinalg as ela, lie_core as lc, seeds
from nilharm.rationals import int_vec_add, integer_form, is_zero_vector

F = Fraction


def basis_vec(n, i):
    return tuple(F(1) if t == i else F(0) for t in range(n))


def flag_verdict(L, vectors) -> list[str]:
    """[] when FlagSequence accepts the vectors, else the one violation it
    refuses them with: comparable to the reference's list of violations cut
    to its first."""
    try:
        lc.FlagSequence(algebra=L, vectors=vectors)
    except ValueError as exc:
        return [str(exc).removeprefix("not a valid flag: ")]
    return []


# -- validate ----------------------------------------------------------------


def test_validate_abelian_dim4():
    L = lc.validate(4, {})
    assert L.step == 1
    assert L.dim == 4


def test_validate_h3(h3):
    assert h3.step == 2
    assert h3.basis_bracket(2, 1) == (F(1), F(0), F(0))  # [X3, X2] = X1


def test_validate_rejects_non_nilpotent():
    # [X1,X2] = X3, [X1,X3] = X2: the series stabilizes at span{X2, X3}.
    with pytest.raises(lc.NotNilpotent) as err:
        lc.validate(3, {(0, 1): {2: F(1)}, (0, 2): {1: F(1)}})
    assert err.value.stable_dim == 2


def test_validate_reports_first_jacobi_violation():
    # [X1,X2] = X3, [X1,X3] = X1: the cyclic sum over (X1,X2,X3) leaves X3.
    with pytest.raises(lc.JacobiViolation) as err:
        lc.validate(3, {(0, 1): {2: F(1)}, (0, 2): {0: F(1)}})
    assert err.value.triple == (1, 2, 3)
    assert err.value.residual == (F(0), F(0), F(1))


def test_jacobi_residual_with_fractional_constants():
    # [X1,X2] = X3/2, [X1,X3] = X1/3: the cyclic sum leaves [X2, -X1/3] = X3/6.
    with pytest.raises(lc.JacobiViolation) as err:
        lc.validate(3, {(0, 1): {2: F(1, 2)}, (0, 2): {0: F(1, 3)}})
    assert err.value.triple == (1, 2, 3)
    assert err.value.residual == (F(0), F(0), F(1, 6))


def test_validate_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError):
        lc.validate(3, [(0, 1, {2: F(1)}), (0, 1, {2: F(2)})])
    with pytest.raises(ValueError):
        lc.validate(3, {(1, 0): {2: F(1)}})
    with pytest.raises(ValueError):
        lc.validate(3, {(0, 1): {3: F(1)}})


# -- bracket -----------------------------------------------------------------


def test_bracket_reads_structure_table(h3):
    x3, x2 = basis_vec(3, 2), basis_vec(3, 1)
    assert lc.bracket(h3, x3, x2) == (F(1), F(0), F(0))


def test_bracket_antisymmetry_random():
    L = cat.nonhomog()
    rnd = seeds.stream("lie.antisym", 0)
    for _ in range(20):
        x = seeds.random_fraction_vector(rnd, 8)
        assert is_zero_vector(lc.bracket(L, x, x))


def test_bracket_nonhomog_example():
    L = cat.nonhomog()
    out = lc.bracket(L, basis_vec(8, 1), basis_vec(8, 2))  # [X2, X3]
    assert out == tuple(F(1) if i in (5, 6) else F(0) for i in range(8))


def test_bracket_dimension_mismatch(h3):
    with pytest.raises(ValueError):
        lc.bracket(h3, (F(1),), (F(0), F(0), F(0)))


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras, st.data())
def test_bracket_matches_fraction_reference(L, data):
    for _ in range(3):
        x = data.draw(random_algebras.points(L.dim))
        y = data.draw(random_algebras.points(L.dim))
        assert lc.bracket(L, x, y) == random_algebras.fraction_bracket(L, x, y)


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras, st.data())
def test_jacobi_on_random_points(L, data):
    x, y, z = (integer_form(data.draw(random_algebras.points(L.dim))) for _ in range(3))
    res = int_vec_add(int_vec_add(lc.bracket(L, x, lc.bracket(L, y, z)),
                                  lc.bracket(L, y, lc.bracket(L, z, x))),
                      lc.bracket(L, z, lc.bracket(L, x, y)))
    assert is_zero_vector(res[1])


@settings(max_examples=10, deadline=None)
@given(random_algebras.algebras)
def test_jordan_holder_flag_has_no_violations(L):
    assert random_algebras.reference_flag_violations(L, lc.jordan_holder_flag(L).vectors) == []


# -- series / center ---------------------------------------------------------


def test_nonhomog_step_and_center():
    L = cat.nonhomog()
    assert L.step == 7
    assert lc.center(L) == [basis_vec(8, 7)]


def test_abelian_center_is_everything():
    L = cat.abelian(4)
    assert len(lc.center(L)) == 4
    assert L.step == 1


def test_h3_series_and_center(h3):
    series = lc.lower_central_series(h3)
    assert [len(s) for s in series] == [3, 1, 0]
    assert lc.center(h3) == [basis_vec(3, 0)]


# -- flags ---------------------------------------------------------------


def test_h3_flag_with_preferred_first(h3):
    flag = lc.jordan_holder_flag(h3, preferred_first=basis_vec(3, 0))
    assert flag.vectors == (basis_vec(3, 0), basis_vec(3, 1), basis_vec(3, 2))


def test_abelian_flag_passes_invariants():
    L = cat.abelian(3)
    flag = lc.jordan_holder_flag(L)
    assert not random_algebras.reference_flag_violations(L, flag.vectors)


def test_extension_flag_starts_central():
    L = cat.extended_g0st(1, 1)
    flag = lc.jordan_holder_flag(L)
    assert not random_algebras.reference_flag_violations(L, flag.vectors)
    # The extension generator (index 0) spans the center and leads the flag.
    assert flag.vectors[0] == basis_vec(7, 0)


def test_preferred_vector_must_be_central(h3):
    with pytest.raises(lc.PreferredVectorNotCentral):
        lc.jordan_holder_flag(h3, preferred_first=basis_vec(3, 1))


def test_flag_violations_detects_bad_order(h3):
    vectors = (basis_vec(3, 1), basis_vec(3, 2), basis_vec(3, 0))
    with pytest.raises(ValueError, match="^not a valid flag: .* escapes the lower ideal$"):
        lc.FlagSequence(algebra=h3, vectors=vectors)
    assert flag_verdict(h3, vectors) == random_algebras.reference_flag_violations(h3, vectors)[:1]


def assert_flag_checks_match_the_rank_loop(L, data):
    """FlagSequence refuses with the first violation of the rank-by-rank
    reference, and accepts where it finds none, on the Jordan-Holder flag,
    on a reordering of it, and on that reordering with one vector replaced
    by a copy of another or by its sum with a multiple of another: a
    reordering alone never puts [X_i, flag_j] along flag_j itself."""
    flag = lc.jordan_holder_flag(L).vectors
    reordered = tuple(flag[k] for k in data.draw(st.permutations(range(L.dim))))
    cases = [flag, reordered]
    if L.dim > 1:
        a, b = data.draw(st.lists(st.integers(0, L.dim - 1), min_size=2, max_size=2,
                                  unique=True))
        c = data.draw(random_algebras.fractions)
        combined = tuple(p + c * q for p, q in zip(reordered[a], reordered[b]))
        for v in (reordered[b], combined):
            cases.append(reordered[:a] + (v,) + reordered[a + 1:])
    for vectors in cases:
        assert flag_verdict(L, vectors) == \
            random_algebras.reference_flag_violations(L, vectors)[:1]


@pytest.mark.parametrize("name", list(cat.CORE))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_flag_checks_match_the_rank_loop_on_the_catalog(name, data):
    assert_flag_checks_match_the_rank_loop(cat.CORE[name](), data)


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras, st.data())
def test_flag_checks_match_the_rank_loop_on_random_algebras(L, data):
    assert_flag_checks_match_the_rank_loop(L, data)


def test_flag_checks_are_one_elimination(monkeypatch):
    # Every rank, rref, nullspace and span basis eliminates through
    # bareiss_echelon; FlagSequence checks a flag in one rref of [F | I],
    # whether it accepts it or refuses it.
    L = cat.CORE["ext_nonhomog"]()
    flag = lc.jordan_holder_flag(L).vectors
    calls = []
    inner = ela.bareiss_echelon

    def counted(m):
        calls.append(len(m))
        return inner(m)

    monkeypatch.setattr(ela, "bareiss_echelon", counted)
    for vectors, escapes in ((flag, False), (flag[::-1], True), ((flag[0],) * L.dim, False)):
        calls.clear()
        assert any("escapes" in v for v in flag_verdict(L, vectors)) == escapes
        assert calls == [L.dim]


def test_flag_vectors_of_wrong_length_rejected(h3):
    with pytest.raises(ValueError):
        lc.jordan_holder_flag(h3, preferred_first=(F(1), F(0)))
    with pytest.raises(ValueError):
        lc.FlagSequence(algebra=h3, vectors=((F(1),), (F(0),), (F(0),)))


def assert_kernels_match_the_row_loops(L):
    """The centre and both flags (free, and led by the first central vector)
    equal the row-loop references tuple for tuple."""
    center = lc.center(L)
    assert tuple(center) == tuple(random_algebras.reference_center(L))
    assert lc.jordan_holder_flag(L).vectors == random_algebras.reference_flag(L)
    led = lc.jordan_holder_flag(L, preferred_first=center[0]).vectors
    assert led == random_algebras.reference_flag(L, center[0])


@pytest.mark.parametrize("name", list(cat.CORE))
def test_center_and_flag_match_the_row_loops_on_the_catalog(name):
    assert_kernels_match_the_row_loops(cat.CORE[name]())


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras)
def test_center_and_flag_match_the_row_loops_on_random_algebras(L):
    assert_kernels_match_the_row_loops(L)


# -- bch ---------------------------------------------------------------------


def test_bch_abelian_is_addition():
    L = cat.abelian(4)
    rnd = seeds.stream("lie.bch.abelian", 0)
    x = seeds.random_fraction_vector(rnd, 4)
    y = seeds.random_fraction_vector(rnd, 4)
    assert lc.bch_product(L, x, y) == tuple(a + b for a, b in zip(x, y))


def test_bch_h3_central_component(h3):
    rnd = seeds.stream("lie.bch.h3", 0)
    for _ in range(10):
        x = seeds.random_fraction_vector(rnd, 3)
        y = seeds.random_fraction_vector(rnd, 3)
        out = lc.bch_product(h3, x, y)
        # t-component of (t; x2, x3) * (s; y2, y3) gains (x3 y2 - x2 y3)/2.
        assert out[0] == x[0] + y[0] + (x[2] * y[1] - x[1] * y[2]) / 2


def test_bch_inverse_and_unit():
    L = cat.nonhomog()
    rnd = seeds.stream("lie.bch.unit", 0)
    x = seeds.random_fraction_vector(rnd, 8)
    neg = tuple(-a for a in x)
    assert is_zero_vector(lc.bch_product(L, x, neg))
    assert lc.bch_product(L, (F(0),) * 8, x) == x


def test_bch_associativity_nonhomog():
    L = cat.nonhomog()
    rnd = seeds.stream("lie.bch.assoc", 0)
    for _ in range(25):
        x = seeds.random_fraction_vector(rnd, 8, max_num=3, max_den=3)
        y = seeds.random_fraction_vector(rnd, 8, max_num=3, max_den=3)
        z = seeds.random_fraction_vector(rnd, 8, max_num=3, max_den=3)
        assert lc.bch_product(L, lc.bch_product(L, x, y), z) \
            == lc.bch_product(L, x, lc.bch_product(L, y, z))


# -- derivations --------------------------------------------------------------


def test_abelian_derivations_full_matrix_space():
    ders = lc.derivation_space(cat.abelian(3))
    assert len(ders.basis) == 9


def test_h3_derivations_satisfy_leibniz(h3):
    ders = lc.derivation_space(h3)
    for D in ders.basis:
        residuals = lc.leibniz_residuals(h3, D)
        assert sorted(residuals) == [(0, 1), (0, 2), (1, 2)]
        assert all(is_zero_vector(r) for r in residuals.values())


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras, st.integers(0, 2**16))
def test_leibniz_residuals_match_fraction_brackets(L, seed):
    # A random matrix is not a derivation: the residuals are nonzero in
    # general, and each equals D[Xi,Xj] - [D Xi, Xj] - [Xi, D Xj] computed
    # with the Fraction bracket, one pair at a time.
    n = L.dim
    rnd = seeds.stream("lie.leibniz", seed)
    D = tuple(seeds.random_fraction_vector(rnd, n) for _ in range(n))
    expected = {}
    for i in range(n):
        for j in range(i + 1, n):
            bij = random_algebras.fraction_bracket(L, basis_vec(n, i), basis_vec(n, j))
            lhs = tuple(sum((D[m][k] * bij[k] for k in range(n)), F(0)) for m in range(n))
            dxi = tuple(D[k][i] for k in range(n))
            dxj = tuple(D[k][j] for k in range(n))
            a = random_algebras.fraction_bracket(L, dxi, basis_vec(n, j))
            b = random_algebras.fraction_bracket(L, basis_vec(n, i), dxj)
            expected[(i, j)] = tuple(x - y - z for x, y, z in zip(lhs, a, b))
    assert lc.leibniz_residuals(L, D) == expected


def test_nonhomog_derivations_zero_diagonal():
    ders = lc.derivation_space(cat.nonhomog())
    assert ders.basis
    for D in ders.basis:
        assert all(D[i][i] == 0 for i in range(8))


def test_derivation_space_closed_under_commutator(h3):
    ders = lc.derivation_space(h3)
    n = h3.dim
    flat = [tuple(D[r][c] for r in range(n) for c in range(n))
            for D in ders.basis]
    for A in ders.basis:
        for B in ders.basis:
            comm = tuple(
                sum((A[r][m] * B[m][c] - B[r][m] * A[m][c] for m in range(n)),
                    F(0))
                for r in range(n) for c in range(n))
            assert ela.rank(flat + [comm]) == ela.rank(flat)


# -- Engel certificates --------------------------------------------------------


def test_abelian_not_characteristically_nilpotent():
    cert = lc.is_characteristically_nilpotent(lc.derivation_space(cat.abelian(2)))
    assert not cert.success
    assert cert.failed_stage == 0


def test_h3_not_characteristically_nilpotent(h3):
    cert = lc.is_characteristically_nilpotent(lc.derivation_space(h3))
    assert not cert.success


def test_nonhomog_characteristically_nilpotent_with_posthoc_powers():
    L = cat.nonhomog()
    ders = lc.derivation_space(L)
    cert = lc.is_characteristically_nilpotent(ders)
    assert cert.success
    assert len(cert.flag) == 8
    n = L.dim
    for D in ders.basis:
        power = [list(row) for row in D]
        for _ in range(n - 1):
            power = [[sum((power[r][m] * D[m][c] for m in range(n)), F(0))
                      for c in range(n)] for r in range(n)]
        assert all(power[r][c] == 0 for r in range(n) for c in range(n))


def filiform(n):
    """L_n: [X1, Xk] = X_{k+1} for k = 2..n-1."""
    return lc.validate(n, {(0, k): {k + 1: F(1)} for k in range(1, n - 1)})


ENGEL_CASES = {**cat.CORE, **{f"filiform{n}": (lambda n=n: filiform(n)) for n in range(3, 9)},
               # An abelian summand adds derivations that scale it.
               "nonhomog+R": lambda: lc.validate(9, cat.nonhomog().entries),
               "ext_nonhomog+R": lambda: lc.validate(10, cat.extended_nonhomog().entries)}
# Every other failing case fails at stage 0.
ENGEL_FAILED_STAGES = {"nonhomog+R": 6, "ext_nonhomog+R": 7}


def flag_coordinates(flag, w):
    """c with w = sum c_k flag_k, by one rref of [flag vectors as columns | w]."""
    n = len(flag)
    red, piv = ela.rref([[v[r] for v in flag] + [w[r]] for r in range(n)])
    assert piv == list(range(n))
    return [row[n] for row in red]


def assert_engel_matches_the_reference(L):
    """The certificate equals the quotient-and-lift elimination, and a
    success flag strictly triangularizes every derivation."""
    ders = lc.derivation_space(L)
    cert = lc.is_characteristically_nilpotent(ders)
    assert (cert.success, cert.flag, cert.failed_stage) == random_algebras.reference_engel(ders)
    if cert.success:
        n = L.dim
        for D in ders.basis:
            for k, v in enumerate(cert.flag):
                image = [sum((D[r][c] * v[c] for c in range(n)), F(0)) for r in range(n)]
                assert not any(flag_coordinates(cert.flag, image)[k:])
    return cert


@pytest.mark.parametrize("name", list(ENGEL_CASES))
def test_engel_certificate_matches_the_elimination(name):
    cert = assert_engel_matches_the_reference(ENGEL_CASES[name]())
    if name in ENGEL_FAILED_STAGES:
        assert cert.failed_stage == ENGEL_FAILED_STAGES[name]


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras)
def test_engel_certificate_matches_the_elimination_on_random_algebras(L):
    assert_engel_matches_the_reference(L)


@settings(max_examples=20, deadline=None)
@given(random_algebras.algebras)
def test_basis_bracket_is_the_bracket_of_unit_vectors(L):
    for i in range(L.dim):
        for j in range(L.dim):
            assert L.basis_bracket(i, j) == random_algebras.fraction_bracket(
                L, basis_vec(L.dim, i), basis_vec(L.dim, j))
