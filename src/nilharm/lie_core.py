"""Exact-rational nilpotent Lie algebra arithmetic.

Structure constants are given for basis pairs i < j only (lower pairs follow
by antisymmetry), validated once against the Jacobi identity and nilpotency,
and then shared immutably by everything downstream: central series, flags
adapted to chains of ideals, truncated BCH products, derivation algebras and
characteristic-nilpotency certificates.

The bilinear layer (bracket, Jacobi check, series, flags) runs on one
integer form of the structure constants per algebra, cached on first use:
a common denominator D, the constants times D, and per basis vector X_i the
integer columns of D ad(X_i).  A bracket puts each argument over its own
common denominator, works in Python integers and builds one Fraction per
component at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import bch as _bch
from . import exactlinalg as ela
from .polymap import ExactMap, Poly
from .rationals import Vector, over_common_denominator, unit_vector, zero_vector

Terms = tuple[tuple[int, Fraction], ...]
Entry = tuple[int, int, Terms]
IntTerms = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)


class JacobiViolation(Exception):
    """Jacobi identity fails on a basis triple (1-based indices, residual vector)."""

    def __init__(self, i: int, j: int, k: int, residual: Vector):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple "
                         f"(X{i}, X{j}, X{k}); residual {residual}")


class NotNilpotent(Exception):
    """Lower central series stabilizes at a nonzero subspace."""

    def __init__(self, stable_dim: int):
        self.stable_dim = stable_dim
        super().__init__(f"lower central series stabilizes at dimension {stable_dim}")


class PreferredVectorNotCentral(Exception):
    pass


@dataclass(frozen=True)
class LieAlgebra:
    """Validated nilpotent Lie algebra with exact rational structure constants."""

    dim: int
    entries: tuple[Entry, ...]          # (i, j, ((k, c), ...)) with i < j, 0-based
    labels: tuple[str, ...]
    step: int                            # nilpotency step

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[tuple[int, int, IntTerms], ...]]:
        """(D, entries times D): D is the least common denominator of the
        structure constants, so every constant is an integer over D."""
        D = lcm(*(c.denominator for _, _, terms in self.entries for _, c in terms))
        return D, tuple((i, j, tuple((k, c.numerator * (D // c.denominator))
                                     for k, c in terms))
                        for i, j, terms in self.entries)

    @cached_property
    def _ad_columns(self) -> tuple[dict[int, IntTerms], ...]:
        """Per basis index i: s -> D [X_i, X_s] as sparse (k, C) terms,
        for every s with a nonzero bracket."""
        _, table = self._integer_form
        cols: list[dict[int, IntTerms]] = [{} for _ in range(self.dim)]
        for i, j, terms in table:
            cols[i][j] = terms
            cols[j][i] = tuple((k, -c) for k, c in terms)
        return tuple(cols)

    @cached_property
    def _basis_brackets(self) -> dict[tuple[int, int], Vector]:
        """[X_i, X_j] for both orders of every pair with a nonzero bracket."""
        out: dict[tuple[int, int], Vector] = {}
        for i, j, terms in self.entries:
            v = [_ZERO] * self.dim
            for k, c in terms:
                v[k] = c
            out[(i, j)] = tuple(v)
            out[(j, i)] = tuple(-a for a in v)
        return out

    @cached_property
    def _group_law(self) -> ExactMap:
        return _compile_group_law(self)

    def basis_bracket(self, i: int, j: int) -> Vector:
        """[X_i, X_j], any index order."""
        v = self._basis_brackets.get((i, j))
        return zero_vector(self.dim) if v is None else v


def _normalize_entries(dim: int, brackets) -> tuple[Entry, ...]:
    """Accepts {(i, j): {k: c}} or iterable of (i, j, terms); indices 0-based."""
    items = brackets.items() if isinstance(brackets, dict) else [(p[0:2], p[2]) for p in brackets]
    seen: set[tuple[int, int]] = set()
    entries: list[Entry] = []
    for (i, j), terms in items:
        if not (0 <= i < j < dim):
            raise ValueError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
        if (i, j) in seen:
            raise ValueError(f"duplicate bracket pair ({i}, {j})")
        seen.add((i, j))
        term_items = terms.items() if isinstance(terms, dict) else terms
        clean = []
        seen_k: set[int] = set()
        for k, c in term_items:
            if not 0 <= k < dim:
                raise ValueError(f"target index {k} out of range")
            if k in seen_k:
                raise ValueError(f"duplicate target index {k} in pair ({i}, {j})")
            seen_k.add(k)
            c = Fraction(c)
            if c != 0:
                clean.append((k, c))
        if clean:
            entries.append((i, j, tuple(sorted(clean))))
    return tuple(sorted(entries))


def _fractions(numerators: list[int], den: int) -> Vector:
    return tuple(Fraction(a, den) if a else _ZERO for a in numerators)


def bracket(L: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """[x, y]: bilinear, antisymmetric, exact.

    x = X/dx and y = Y/dy over their common denominators, so D [x, y] is
    the integer cross products of X and Y against the integer constants,
    over dx dy."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("vector dimension does not match the algebra")
    D, table = L._integer_form
    if not table:
        return zero_vector(L.dim)
    dx, X = over_common_denominator(x)
    dy, Y = over_common_denominator(y)
    out = [0] * L.dim
    for i, j, terms in table:
        cross = X[i] * Y[j] - X[j] * Y[i]
        if cross:
            for k, c in terms:
                out[k] += cross * c
    return _fractions(out, D * dx * dy)


def _ad_integers(L: LieAlgebra, i: int, w) -> list[int]:
    """D [X_i, w] for w = sum of V X_s over integer pairs (s, V), read from
    the integer ad-columns of X_i."""
    cols = L._ad_columns[i]
    out = [0] * L.dim
    for s, v in w:
        col = cols.get(s)
        if v and col:
            for k, c in col:
                out[k] += v * c
    return out


def _ad_direction(L: LieAlgebra, i: int, v: Vector) -> list[int]:
    """An integer vector on the ray of [X_i, v]: enough for span and zero tests."""
    return _ad_integers(L, i, enumerate(over_common_denominator(v)[1]))


def _series(L: LieAlgebra) -> list[list[Vector]]:
    """Lower central series as rref bases; final element is the empty basis iff nilpotent."""
    dim = L.dim
    full = [unit_vector(dim, s) for s in range(dim)]
    series = [full]
    current = full
    while True:
        # Spans ignore scale, so the brackets enter as integer directions.
        generated = [
            _ad_direction(L, i, v)
            for i in range(dim)
            for v in current
        ]
        nxt = ela.span_basis(generated)
        series.append(nxt)
        if len(nxt) == len(current):
            break
        if not nxt:
            break
        current = nxt
    return series


def validate(dim: int, brackets, labels: tuple[str, ...] | None = None) -> LieAlgebra:
    """Validate a structure table: antisymmetry (by input form), Jacobi, nilpotency."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    entries = _normalize_entries(dim, brackets)
    if labels is None:
        labels = tuple(f"X{i + 1}" for i in range(dim))
    if len(labels) != dim:
        raise ValueError("labels length must equal dim")

    probe = LieAlgebra(dim=dim, entries=entries, labels=labels, step=0)
    D, _ = probe._integer_form
    cols = probe._ad_columns

    def double(a: int, b: int, c: int) -> list[int]:
        """D^2 [X_a, [X_b, X_c]]."""
        return _ad_integers(probe, a, cols[b].get(c, ()))

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                res = [p + q + r for p, q, r in zip(double(i, j, k), double(j, k, i),
                                                    double(k, i, j))]
                if any(res):
                    raise JacobiViolation(i + 1, j + 1, k + 1, _fractions(res, D * D))

    series = _series(probe)
    if series[-1]:
        raise NotNilpotent(len(series[-1]))
    step = len(series) - 1
    return LieAlgebra(dim=dim, entries=entries, labels=labels, step=step)


def lower_central_series(L: LieAlgebra) -> list[list[Vector]]:
    """[g^0, g^1, ..., 0] as exact rref bases, g^k = [g, g^{k-1}]."""
    return _series(L)


def bracket_kernel(L: LieAlgebra, project) -> list[Vector]:
    """{v : project([X_i, v]) = 0 for every basis vector X_i}, for a linear
    ``project`` from vectors to coordinate sequences: the exact nullspace of
    the stacked maps v -> project([X_i, v]), whose columns are the projected
    basis brackets [X_i, X_s]; a zero bracket projects to one shared zero."""
    n = L.dim
    brackets = L._basis_brackets
    zero = project(zero_vector(n))
    rows: list[list[Fraction]] = []
    for i in range(n):
        cols = [project(brackets[i, s]) if (i, s) in brackets else zero for s in range(n)]
        for k in range(len(zero)):
            row = [col[k] for col in cols]
            if any(row):
                rows.append(row)
    return ela.nullspace(rows, n_cols=n)


def center(L: LieAlgebra) -> list[Vector]:
    """{X : [X, g] = 0}."""
    return bracket_kernel(L, lambda w: w)


@dataclass(frozen=True)
class FlagSequence:
    """Adapted basis X_1..X_n whose leading spans form a chain of ideals
    with one-dimensional quotients and [g, g_j] within g_{j-1}."""

    algebra: LieAlgebra
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        violations = flag_violations(self.algebra, self.vectors)
        if violations:
            raise ValueError(f"not a valid flag: {violations[0]}")


def flag_violations(L: LieAlgebra, vectors: tuple[Vector, ...]) -> list[str]:
    """Exact checks of the flag invariants; empty list when all hold."""
    out = []
    if len(vectors) != L.dim:
        return [f"expected {L.dim} vectors, got {len(vectors)}"]
    if any(len(v) != L.dim for v in vectors):
        raise ValueError("vector dimension does not match the algebra")
    for j in range(1, L.dim + 1):
        if ela.rank(list(vectors[:j])) != j:
            out.append(f"leading {j} vectors are dependent")
            return out
    for j in range(1, L.dim + 1):
        lower = ela.span_basis(list(vectors[:j - 1]))
        for i in range(L.dim):
            if not ela.in_span(lower, _ad_direction(L, i, vectors[j - 1])):
                out.append(f"[X{i + 1}, flag_{j}] escapes the lower ideal")
    return out


def jordan_holder_flag(L: LieAlgebra, preferred_first: Vector | None = None) -> FlagSequence:
    """Ascending central construction: pick a central vector, quotient, recurse.

    Tie-break among central vectors: the rref basis vector of the central
    preimage with the earliest pivot column not already spanned (pivot scaled
    to 1).  ``preferred_first`` overrides the first choice and must be central.
    """
    n = L.dim
    chosen: list[Vector] = []
    if preferred_first is not None:
        if len(preferred_first) != n:
            raise ValueError("vector dimension does not match the algebra")
        for i in range(n):
            if any(_ad_direction(L, i, preferred_first)):
                raise PreferredVectorNotCentral(
                    "requested first flag vector is not central")
        chosen.append(preferred_first)
    while len(chosen) < n:
        red, piv = ela.rref(chosen)
        free = [k for k in range(n) if k not in piv]

        def residue(w: Vector) -> list[Fraction]:
            """w modulo span(chosen), read at the non-pivot columns: zero
            exactly when w lies in the span."""
            w = list(w)
            for r, pc in enumerate(piv):
                f = w[pc]
                if f:
                    for t in range(n):
                        w[t] -= f * red[r][t]
            return [w[k] for k in free]

        # Preimage of the center of g / span(chosen): [X_i, v] inside span(chosen).
        candidates = bracket_kernel(L, residue)
        picked = next((v for v in ela.span_basis(candidates) if any(residue(v))), None)
        if picked is None:
            raise AssertionError("central refinement stalled on a nilpotent algebra")
        chosen.append(picked)
    return FlagSequence(algebra=L, vectors=tuple(chosen))


@lru_cache(maxsize=64)
def _compile_group_law(L: LieAlgebra) -> ExactMap:
    """The truncated Dynkin series as one exact polynomial map of (x, y),
    compiled once per algebra value."""
    n = L.dim
    xy = [Poly.variable(2 * n, v) for v in range(2 * n)]
    law = _bch.bch_apply_generic(L.entries, n, max(L.step, 1), xy[:n], xy[n:],
                                 Poly.zero(2 * n))
    return ExactMap(law, n)


def bch_product(L: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """Group product in exponential coordinates: Dynkin series truncated at the step."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("vector dimension does not match the algebra")
    return L._group_law(x, y)


Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class DerivationSpace:
    """Basis of Der(g); matrices act on coordinate columns (D X_i = sum_k D[k][i] X_k)."""

    algebra: LieAlgebra
    basis: tuple[Matrix, ...]


def derivation_space(L: LieAlgebra) -> DerivationSpace:
    """Exact basis of the Leibniz-identity solution space, by fraction-free elimination."""
    n = L.dim
    rows: list[list[Fraction]] = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = L.basis_bracket(i, j)
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    if bij[k]:
                        row[m * n + k] += bij[k]          # (D [Xi, Xj])_m
                    bkj = L.basis_bracket(k, j)
                    if bkj[m]:
                        row[k * n + i] -= bkj[m]          # -([D Xi, Xj])_m
                    bik = L.basis_bracket(i, k)
                    if bik[m]:
                        row[k * n + j] -= bik[m]          # -([Xi, D Xj])_m
                if any(row):
                    rows.append(row)
    flat_basis = ela.nullspace(rows, n_cols=n * n)
    mats = tuple(
        tuple(tuple(v[r * n + c] for c in range(n)) for r in range(n))
        for v in flat_basis
    )
    return DerivationSpace(algebra=L, basis=mats)


def leibniz_residual(L: LieAlgebra, D: Matrix, i: int, j: int) -> Vector:
    """D[Xi,Xj] - [D Xi, Xj] - [Xi, D Xj], exact."""
    n = L.dim
    bij = L.basis_bracket(i, j)
    lhs = tuple(sum((D[m][k] * b for k, b in enumerate(bij) if b), _ZERO) for m in range(n))
    dxi = tuple(D[k][i] for k in range(n))
    dxj = tuple(D[k][j] for k in range(n))
    # [D Xi, Xj] + [Xi, D Xj] = [Xi, D Xj] - [Xj, D Xi]
    rhs = tuple(a - b for a, b in zip(bracket(L, unit_vector(n, i), dxj),
                                      bracket(L, unit_vector(n, j), dxi)))
    return tuple(a - b for a, b in zip(lhs, rhs))


@dataclass(frozen=True)
class EngelCertificate:
    """Outcome of simultaneous strict triangularization of the derivation space."""

    success: bool
    flag: tuple[Vector, ...] | None = None
    failed_stage: int | None = None


def is_characteristically_nilpotent(derivs: DerivationSpace) -> EngelCertificate:
    """Engel-style flag extraction on the derivation space.

    SUCCESS returns a full common flag (every derivation strictly triangular,
    hence nilpotent); FAILURE reports the stage where the common kernel is
    trivial, which certifies that a non-nilpotent derivation exists.
    """
    L = derivs.algebra
    n = L.dim
    if not derivs.basis:
        # Zero derivation space is vacuously nilpotent (cannot occur for dim >= 1).
        return EngelCertificate(success=True, flag=())
    mats = [list(map(list, D)) for D in derivs.basis]
    lifts = [unit_vector(n, s) for s in range(n)]
    flag: list[Vector] = []
    dim_q = n
    for stage in range(n):
        stacked = [row for M in mats for row in M]
        kernel = ela.nullspace(stacked, n_cols=dim_q)
        if not kernel:
            return EngelCertificate(success=False, failed_stage=stage)
        v = kernel[0]
        flag.append(tuple(sum((v[c] * lifts[c][t] for c in range(dim_q)), Fraction(0))
                          for t in range(n)))
        if dim_q == 1:
            break
        p = next(c for c in range(dim_q) if v[c] != 0)
        keep = [c for c in range(dim_q) if c != p]
        new_lifts = [lifts[c] for c in keep]
        new_mats = []
        for M in mats:
            cols = []
            for c in keep:
                w = [M[r][c] for r in range(dim_q)]
                f = w[p] / v[p]
                if f:
                    w = [a - f * b for a, b in zip(w, v)]
                cols.append([w[r] for r in keep])
            new_mats.append([[cols[cc][rr] for cc in range(len(keep))]
                             for rr in range(len(keep))])
        mats = new_mats
        lifts = new_lifts
        dim_q -= 1
    return EngelCertificate(success=True, flag=tuple(flag))
