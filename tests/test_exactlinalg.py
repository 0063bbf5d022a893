"""Fraction-free elimination against a naive rational-elimination oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilharm import exactlinalg as ela

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def naive_rank(rows):
    """Plain rational Gaussian elimination, written independently of Bareiss."""
    m = [list(r) for r in rows]
    rank = 0
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def naive_det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    det = Fraction(1)
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sign * det


@st.composite
def matrices(draw, max_rows=5, max_cols=5, square=False):
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    return [[draw(fractions) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rank_matches_naive_elimination(m):
    assert ela.rank(m) == naive_rank(m)


@settings(max_examples=120, deadline=None)
@given(matrices(square=True))
def test_det_matches_naive_elimination(m):
    assert ela.det(m) == naive_det(m)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_nullspace_annihilates_and_has_right_dimension(m):
    basis = ela.nullspace(m)
    n_cols = len(m[0])
    assert len(basis) == n_cols - naive_rank(m)
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    if basis:
        assert ela.rank(list(basis)) == len(basis)


def test_nullspace_of_a_matrix_without_rows_is_the_unit_basis():
    basis = ela.nullspace([], n_cols=3)
    assert basis == [tuple(Fraction(int(t == s)) for t in range(3)) for s in range(3)]
    assert basis == ela.nullspace([[Fraction(0)] * 3], n_cols=3)
    with pytest.raises(ValueError, match="column count"):
        ela.nullspace([])


def test_rref_is_canonical():
    m = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    red, piv = ela.rref(m)
    assert red == [(Fraction(1), Fraction(2))]
    assert piv == [0]


def test_span_membership():
    basis = [(Fraction(1), Fraction(0), Fraction(2)),
             (Fraction(0), Fraction(1), Fraction(-1))]
    assert ela.rank(basis + [(Fraction(2), Fraction(3), Fraction(1))]) == 2
    assert ela.rank(basis + [(Fraction(0), Fraction(0), Fraction(1))]) == 3


def test_det_known_values():
    assert ela.det([[Fraction(1, 2), Fraction(1)],
                    [Fraction(1), Fraction(3)]]) == Fraction(1, 2)
    assert ela.det([]) == 1
