"""Exact linear algebra over the rationals.

Forward elimination is fraction-free (Bareiss): rows are scaled to integers
and eliminated with the two-step determinant identity, which keeps all
intermediate entries as minors of the input and avoids the coefficient
blow-up of naive rational elimination.  Pivots are chosen as the first
nonzero entry in column order, so every derived object (rank, echelon form,
nullspace basis, reduced span basis) is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import over_common_denominator

Vector = tuple[Fraction, ...]


def _integerize(rows: list[list[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators; return rows and scales."""
    out, scales = [], []
    for row in rows:
        mult, ints = over_common_denominator(row)
        out.append(ints)
        scales.append(mult)
    return out, scales


def bareiss_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """In-place fraction-free echelon form.

    Returns (rows, pivot_columns, sign) where sign tracks row swaps.  After
    the call, row r has its leading nonzero entry in pivot_columns[r].
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    piv_cols: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        p = m[r][c]
        for i in range(r + 1, n_rows):
            mic = m[i][c]
            row_i, row_r = m[i], m[r]
            for j in range(c + 1, n_cols):
                row_i[j] = (row_i[j] * p - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return m, piv_cols, sign


def echelon(rows: list[list[Fraction]] | list[Vector]) -> tuple[list[list[int]], list[int], int, list[int]]:
    """Bareiss echelon of a rational matrix: (int rows, pivot cols, sign, row scales)."""
    work, scales = _integerize([list(r) for r in rows])
    m, piv, sign = bareiss_echelon(work)
    return m, piv, sign, scales


def rank(rows: list[list[Fraction]] | list[Vector]) -> int:
    if not rows:
        return 0
    _, piv, _, _ = echelon(rows)
    return len(piv)


def det(rows: list[list[Fraction]] | list[Vector]) -> Fraction:
    """Exact determinant of a square matrix."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m, piv, sign, scales = echelon(rows)
    if len(piv) < n:
        return Fraction(0)
    d = Fraction(sign * m[n - 1][piv[-1]])
    for s in scales:
        d /= s
    return d


def rref(rows: list[list[Fraction]] | list[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    if not rows:
        return [], []
    n_cols = len(rows[0])
    m, piv, _, _ = echelon(rows)
    reduced = [[Fraction(x) for x in m[r]] for r in range(len(piv))]
    for r in range(len(piv) - 1, -1, -1):
        c = piv[r]
        p = reduced[r][c]
        reduced[r] = [x / p for x in reduced[r]]
        for r2 in range(r):
            f = reduced[r2][c]
            if f:
                reduced[r2] = [a - f * b for a, b in zip(reduced[r2], reduced[r])]
    return [tuple(row) for row in reduced], piv


def nullspace(rows: list[list[Fraction]] | list[Vector], n_cols: int | None = None) -> list[Vector]:
    """Basis of the right nullspace {v : M v = 0}.

    Each basis vector carries entry 1 in its own free column; free columns
    are taken in increasing order.  A matrix without rows, whose column count
    ``n_cols`` must then be given, has the n_cols unit vectors as its basis.
    """
    if n_cols is None:
        if not rows:
            raise ValueError("a matrix without rows needs its column count")
        n_cols = len(rows[0])
    red, piv = rref(rows)
    free = [c for c in range(n_cols) if c not in piv]
    basis: list[Vector] = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def span_basis(vectors: list[Vector]) -> list[Vector]:
    """Deterministic reduced basis of the span of the given vectors."""
    vs = [v for v in vectors if any(a != 0 for a in v)]
    if not vs:
        return []
    red, _ = rref(vs)
    return red

