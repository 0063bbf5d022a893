"""Exact-rational nilpotent Lie algebra arithmetic.

Structure constants are given for basis pairs i < j only (lower pairs follow
by antisymmetry), validated once against the Jacobi identity and nilpotency,
and then shared immutably by everything downstream: central series, flags
adapted to chains of ideals, truncated BCH products, derivation algebras and
characteristic-nilpotency certificates.

The bilinear layer (bracket, Jacobi check, kernels, series, flags,
derivations) runs on one integer form of the structure constants per
algebra, cached on first use: a common denominator D, the constants times D,
and per basis vector X_i the integer columns of D ad(X_i).  The bracket and
the BCH product take and return Fraction vectors and compute on their
integer forms (d, X) (``rationals.IntVector``), converted once on the way in
and once on the way out.

``jacobi_sweep`` is the Jacobi check of ``validate`` and, on a central
extension's table, the 2-cocycle test; ``jacobi_defect`` proves the same
identity as a polynomial over the integer table that ``bracket`` reads.
``_ascending_flag`` is the one common-flag construction: over ad(X_1), ...,
ad(X_n) it builds the Jordan-Holder flag, over a basis of the derivations
the Engel certificate.
The lower central series dimensions and the compiled group law are cached on
the algebra object, which the catalog shares.  Flags, derivation spaces and
Engel certificates depend on the algebra value alone, so each is built once
per value and shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import bch as _bch
from . import exactlinalg as ela
from .polymap import ExactMap, Packed
from .rationals import (Vector, dot, fraction_form, integer_inputs, over_common_denominator,
                        unit_vector)

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
    def series_dims(self) -> tuple[int, ...]:
        """Dimensions of the lower central series g^0 = g, g^k = [g, g^{k-1}],
        until the dimension stops falling; the last is 0 iff nilpotent.

        g^k is spanned by the integer images D [X_i, v] over the echelon rows
        v of g^{k-1}: spans ignore scale, so each term stays the integer rows
        of one Bareiss echelon."""
        dims = [self.dim]
        current = [[int(s == t) for t in range(self.dim)] for s in range(self.dim)]
        while True:
            images = [_ad_integers(self, i, enumerate(v))
                      for i in range(self.dim) for v in current]
            rows, piv, _ = ela.bareiss_echelon(images)
            dims.append(len(piv))
            if len(piv) in (0, len(current)):
                return tuple(dims)
            current = rows[:len(piv)]

    @property
    def step(self) -> int:
        """Nilpotency step: the number of nonzero terms of the series."""
        return len(self.series_dims) - 1

    @property
    def law_bits(self) -> int:
        """Field width of the packed monomials of the group and orbit laws:
        a monomial's degree, and so each exponent, is at most the step."""
        return self.step.bit_length()

    @cached_property
    def _group_law(self) -> ExactMap:
        """The group law compiled once per algebra object."""
        return ExactMap(polynomial_group_law(self), self.dim, self.law_bits)

    def basis_bracket(self, i: int, j: int) -> Vector:
        """[X_i, X_j], any index order, read from the ad-columns of X_i."""
        D, _ = self._integer_form
        v = [_ZERO] * self.dim
        for k, c in self._ad_columns[i].get(j, ()):
            v[k] = Fraction(c, D)
        return tuple(v)


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


def _cross_sums(dim: int, table, X, Y) -> list:
    """The cross products of X and Y against the integer constants of
    ``table``: D [x, y] times dx dy for x = X/dx and y = Y/dy.  X and Y
    hold ints, or ``Packed`` polynomials for ``jacobi_defect``."""
    out = [0] * dim
    for i, j, terms in table:
        cross = X[i] * Y[j] - X[j] * Y[i]
        if cross:
            for k, c in terms:
                out[k] += cross * c
    return out


def bracket(L: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """[x, y]: bilinear, antisymmetric, exact, on Fraction vectors.

    Over their integer forms x = X/dx and y = Y/dy, D [x, y] is the integer
    cross products of X and Y against the integer constants, over dx dy."""
    (dx, X), (dy, Y) = integer_inputs(L.dim, "algebra", x, y)
    D, table = L._integer_form
    return fraction_form((D * dx * dy, _cross_sums(L.dim, table, X, Y)))


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


def jacobi_sweep(L: LieAlgebra) -> None:
    """Raise ``JacobiViolation`` on the first basis triple i < j < k whose
    cyclic sum [X_i, [X_j, X_k]] + [X_j, [X_k, X_i]] + [X_k, [X_i, X_j]] is
    not zero.  Reads only the structure table, so ``L`` need not be valid."""
    D, _ = L._integer_form
    cols = L._ad_columns

    def double(a: int, b: int, c: int) -> list[int]:
        """D^2 [X_a, [X_b, X_c]]."""
        return _ad_integers(L, a, cols[b].get(c, ()))

    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                res = [p + q + r for p, q, r in zip(double(i, j, k), double(j, k, i),
                                                    double(k, i, j))]
                if any(res):
                    raise JacobiViolation(i + 1, j + 1, k + 1, fraction_form((D * D, res)))


def jacobi_defect(L: LieAlgebra) -> int:
    """How many components of [x, [y, z]] + [y, [z, x]] + [z, [x, y]] are
    not the zero polynomial in the 3 dim variables of x, y and z: the
    kernel of ``bracket`` run on ``Packed`` variables over the integer
    table it reads.  0 is a proof of Jacobi."""
    n = L.dim
    _, table = L._integer_form

    def br(u, v) -> list:
        return _cross_sums(n, table, u, v)

    vs = Packed.variables(3 * n, 2)
    x, y, z = vs[:n], vs[n:2 * n], vs[2 * n:]
    return sum(map(bool, map(Packed.total, zip(br(x, br(y, z)), br(y, br(z, x)),
                                                  br(z, br(x, y))))))


def validate(dim: int, brackets, labels: tuple[str, ...] | None = None) -> LieAlgebra:
    """Validate a structure table: antisymmetry (by input form), Jacobi, nilpotency."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    entries = _normalize_entries(dim, brackets)
    if labels is None:
        labels = tuple(f"X{i + 1}" for i in range(dim))
    if len(labels) != dim:
        raise ValueError("labels length must equal dim")

    L = LieAlgebra(dim=dim, entries=entries, labels=labels)
    jacobi_sweep(L)
    if L.series_dims[-1]:
        raise NotNilpotent(L.series_dims[-1])
    return L


def _kernel(maps, n: int, project) -> list[Vector]:
    """{v : project(M v) = 0 for every map M}, each M given by its n columns
    as sparse (k, c) terms and ``project`` linear from vectors to coordinate
    sequences: the exact nullspace of the stacked maps v -> project(M v),
    whose columns are the projected columns of M; an empty column projects
    to one shared zero."""
    zero = project([0] * n)
    rows: list[list] = []
    for cols in maps:
        projected = [project([dict(col).get(k, 0) for k in range(n)]) if col else zero
                     for col in cols]
        rows.extend(list(row) for row in zip(*projected) if any(row))
    return ela.nullspace(rows, n_cols=n)


def _ad_maps(L: LieAlgebra) -> list[list[IntTerms]]:
    """D ad(X_i) for every basis vector X_i, by its integer columns."""
    return [[cols.get(s, ()) for s in range(L.dim)] for cols in L._ad_columns]


def bracket_kernel(L: LieAlgebra, project) -> list[Vector]:
    """{v : project([X_i, v]) = 0 for every basis vector X_i}, for a linear
    ``project`` from vectors to coordinate sequences.  A kernel does not
    depend on the common scale D, so the maps are the integer D ad(X_i)."""
    return _kernel(_ad_maps(L), L.dim, project)


def center(L: LieAlgebra) -> list[Vector]:
    """{X : [X, g] = 0}."""
    return bracket_kernel(L, lambda w: w)


@dataclass(frozen=True)
class FlagSequence:
    """Adapted basis X_1..X_n whose leading spans form a chain of ideals
    with one-dimensional quotients and [g, g_j] within g_{j-1}; the rref of
    [F | I] (F: the flag vectors as columns) that checks this on
    construction keeps F^-1 for ``coordinates``."""

    algebra: LieAlgebra
    vectors: tuple[Vector, ...]
    _inverse: tuple[Vector, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_inverse", _invert_flag(self.algebra, self.vectors))

    def coordinates(self, w, zero=_ZERO) -> tuple:
        """Ambient vector -> flag coordinates (c_1..c_n with w = sum c_j X_j),
        in any ring whose elements multiply Fractions; ``zero`` is that
        ring's zero."""
        return tuple(sum((wt * c for wt, c in zip(w, row) if wt and c), zero)
                     for row in self._inverse)


def _invert_flag(L: LieAlgebra, vectors: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """The rows of F^-1, from one rref of [F | I] that also checks the flag;
    ValueError("not a valid flag: ...") on the first violation.

    [F | I] has full row rank, so its pivots past the first column of F
    without one lie in I; that column is the first flag vector in the span
    of those before it.  With F invertible, [X_i, flag_j] lies in g_{j-1}
    exactly when its flag coordinates vanish from position j on."""
    n = L.dim
    if len(vectors) != n:
        raise ValueError(f"not a valid flag: expected {n} vectors, got {len(vectors)}")
    if any(len(v) != n for v in vectors):
        raise ValueError("vector dimension does not match the algebra")
    red, piv = ela.rref([[v[r] for v in vectors] + list(unit_vector(n, r)) for r in range(n)])
    dependent = next((c for c, p in enumerate(piv) if p != c), None)
    if dependent is not None:
        raise ValueError(f"not a valid flag: leading {dependent + 1} vectors are dependent")
    inverse = tuple(row[n:] for row in red)
    for j in range(1, n + 1):
        for i in range(n):
            d = _ad_direction(L, i, vectors[j - 1])
            if any(d) and any(dot(row, d) for row in inverse[j - 1:]):
                raise ValueError(f"not a valid flag: [X{i + 1}, flag_{j}] escapes the lower ideal")
    return inverse


def _ascending_flag(n: int, maps, chosen: list[Vector]) -> list[Vector]:
    """Extend ``chosen`` by one vector at a time until none qualifies: the
    earliest-pivot vector v of the rref basis of {v : M v in span(chosen)
    for every map M} (pivot scaled to 1) that lies outside span(chosen).
    ``maps`` are given by their n columns as sparse (k, c) terms.  The flag
    is full exactly when the maps are simultaneously strictly triangular on
    it: M v_k lies in span(v_1..v_{k-1})."""
    while len(chosen) < n:
        red, piv = ela.rref(chosen)
        free = [k for k in range(n) if k not in piv]

        def residue(w) -> list:
            """w modulo span(chosen) at the non-pivot columns: zero iff w is in it."""
            w = list(w)
            for r, pc in enumerate(piv):
                f = w[pc]
                if f:
                    for t in range(n):
                        w[t] -= f * red[r][t]
            return [w[k] for k in free]

        candidates = _kernel(maps, n, residue)
        picked = next((v for v in ela.span_basis(candidates) if any(residue(v))), None)
        if picked is None:
            break
        chosen.append(picked)
    return chosen


def jordan_holder_flag(L: LieAlgebra, preferred_first: Vector | None = None) -> FlagSequence:
    """Ascending central construction, ``_ascending_flag`` over the maps
    ad(X_i): each vector is central modulo the span of those before it.
    ``preferred_first`` overrides the first choice and must be central.
    Built once per (algebra value, first vector as Fractions)."""
    if preferred_first is not None:
        if len(preferred_first) != L.dim:
            raise ValueError("vector dimension does not match the algebra")
        preferred_first = tuple(Fraction(c) for c in preferred_first)
    return _central_flag(L, preferred_first)


@lru_cache(maxsize=64)
def _central_flag(L: LieAlgebra, preferred_first: Vector | None) -> FlagSequence:
    n = L.dim
    chosen: list[Vector] = []
    if preferred_first is not None:
        for i in range(n):
            if any(_ad_direction(L, i, preferred_first)):
                raise PreferredVectorNotCentral(
                    "requested first flag vector is not central")
        chosen.append(preferred_first)
    flag = _ascending_flag(n, _ad_maps(L), chosen)
    if len(flag) < n:
        raise AssertionError("central refinement stalled on a nilpotent algebra")
    return FlagSequence(algebra=L, vectors=tuple(flag))


def polynomial_group_law(L: LieAlgebra) -> list[Packed]:
    """Exact polynomials for the group law, as functions of
    (x_1..x_n, y_1..y_n) packed in fields of ``L.law_bits`` bits: the
    truncated Dynkin series of the variables."""
    n = L.dim
    xy = Packed.variables(2 * n, L.law_bits)
    return _bch.bch_apply_generic(L.entries, n, L.step, xy[:n], xy[n:], Packed())


def bch_product(L: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """Group product in exponential coordinates: Dynkin series truncated at
    the step, on Fraction vectors, computed by the compiled law on their
    integer forms."""
    return fraction_form(L._group_law(*integer_inputs(L.dim, "algebra", x, y)))


Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class DerivationSpace:
    """Basis of Der(g); matrices act on coordinate columns (D X_i = sum_k D[k][i] X_k)."""

    algebra: LieAlgebra
    basis: tuple[Matrix, ...]


@lru_cache(maxsize=64)
def derivation_space(L: LieAlgebra) -> DerivationSpace:
    """Exact basis of the Leibniz-identity solution space: one nullspace of
    the integer rows of D [X_i, X_j] - [D X_i, X_j] - [X_i, D X_j] = 0, read
    from the ad-columns (a kernel does not depend on their common scale).
    Solved once per algebra value."""
    n = L.dim
    cols = L._ad_columns
    rows: list[list[int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            block = [[0] * (n * n) for _ in range(n)]     # one row per coordinate m
            for k, c in cols[i].get(j, ()):
                for m in range(n):
                    block[m][m * n + k] += c                # (D [Xi, Xj])_m
            for k in range(n):
                for m, c in cols[k].get(j, ()):
                    block[m][k * n + i] -= c                # -([D Xi, Xj])_m
                for m, c in cols[i].get(k, ()):
                    block[m][k * n + j] -= c                # -([Xi, D Xj])_m
            rows.extend(row for row in block if any(row))
    flat_basis = ela.nullspace(rows, n_cols=n * n)
    mats = tuple(
        tuple(tuple(v[r * n + c] for c in range(n)) for r in range(n))
        for v in flat_basis
    )
    return DerivationSpace(algebra=L, basis=mats)


def leibniz_residuals(L: LieAlgebra, D: Matrix) -> dict[tuple[int, int], Vector]:
    """D[Xi,Xj] - [D Xi, Xj] - [Xi, D Xj] for every basis pair i < j, exact.

    The columns D X_k and the basis brackets [X_i, X_k] are read once, as
    Fractions; then [Xi, D Xj] = sum_k D[k][j] [X_i, X_k] and
    D[Xi,Xj] = sum_k [Xi,Xj]_k D X_k.
    """
    n = L.dim
    columns = [tuple(D[k][j] for k in range(n)) for j in range(n)]
    brackets = [[L.basis_bracket(i, k) for k in range(n)] for i in range(n)]

    def combine(coeffs: Vector, vectors) -> list[Fraction]:
        """sum_k coeffs[k] vectors[k]."""
        out = [_ZERO] * n
        for c, v in zip(coeffs, vectors):
            if c:
                for m, b in enumerate(v):
                    if b:
                        out[m] += c * b
        return out

    residuals = {}
    for i in range(n):
        for j in range(i + 1, n):
            lhs = combine(brackets[i][j], columns)
            # [D Xi, Xj] + [Xi, D Xj] = [Xi, D Xj] - [Xj, D Xi]
            x_dj = combine(columns[j], brackets[i])
            y_di = combine(columns[i], brackets[j])
            residuals[(i, j)] = tuple(a - b + c for a, b, c in zip(lhs, x_dj, y_di))
    return residuals


@dataclass(frozen=True)
class EngelCertificate:
    """Outcome of simultaneous strict triangularization of the derivation space."""

    success: bool
    flag: tuple[Vector, ...] | None = None
    failed_stage: int | None = None


@lru_cache(maxsize=64)
def is_characteristically_nilpotent(derivs: DerivationSpace) -> EngelCertificate:
    """Engel-style flag extraction: ``_ascending_flag`` over the derivation
    basis, once per derivation space value.

    SUCCESS returns a full common flag (every derivation strictly triangular,
    hence nilpotent); FAILURE reports the stage where the derivations, on the
    quotient by the flag so far, have no common kernel, which certifies that
    a non-nilpotent derivation exists."""
    n = derivs.algebra.dim
    maps = [[[(k, D[k][s]) for k in range(n) if D[k][s]] for s in range(n)]
            for D in derivs.basis]
    flag = _ascending_flag(n, maps, [])
    if len(flag) < n:
        return EngelCertificate(success=False, failed_stage=len(flag))
    return EngelCertificate(success=True, flag=tuple(flag))
