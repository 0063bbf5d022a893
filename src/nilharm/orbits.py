"""Coadjoint-orbit machinery over a fixed functional.

Isotropy algebras, jump indices with respect to a flag, the predual
decomposition, flat-orbit detection, and the polynomial group cocycle
obtained by pairing the functional with the central component of the BCH
product of predual elements.  All identities here are exact rational facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import bch as _bch
from . import exactlinalg as ela
from . import lie_core as lc
from .polymap import ExactMap, Poly
from .rationals import Vector, dot, unit_vector


class PairingNotOne(Exception):
    pass


class NotFlat(Exception):
    pass


@dataclass(frozen=True)
class Functional:
    """Element of the dual space, coordinates in the dual of the fixed basis."""

    coords: Vector

    def pair(self, v: Vector) -> Fraction:
        return dot(self.coords, v)


def isotropy_algebra(L: lc.LieAlgebra, xi0: Functional) -> list[Vector]:
    """{X : xi0([X, .]) = 0}: exact nullspace of the skew pairing matrix."""
    n = L.dim
    rows = []
    for j in range(n):
        row = [xi0.pair(L.basis_bracket(i, j)) for i in range(n)]
        if any(row):
            rows.append(row)
    return ela.nullspace(rows, n_cols=n)


@dataclass(frozen=True)
class OrbitData:
    """Jump-index data of the orbit through xi0 with respect to a flag.

    jump_set is 1-based to match the X_1..X_n basis labelling; the predual
    basis lists the flag vectors at the jump positions in increasing order.
    """

    algebra: lc.LieAlgebra
    flag: lc.FlagSequence
    xi0: Functional
    isotropy_basis: tuple[Vector, ...]
    jump_set: tuple[int, ...]
    predual_basis: tuple[Vector, ...]
    flat: bool

    @property
    def d(self) -> int:
        return len(self.jump_set)

    @cached_property
    def _split_inverse(self) -> list[Vector]:
        """Columns of the inverse split matrix, one per ambient coordinate.

        The split matrix M has the predual basis vectors, then the flag's
        first (central) vector, as columns; for a flat orbit it is square, and
        one rref of [M | I] gives [I | M^-1]."""
        cols = list(self.predual_basis) + [self.flag.vectors[0]]
        n = self.algebra.dim
        red, piv = ela.rref([[c[r] for c in cols] + list(unit_vector(n, r))
                             for r in range(n)])
        if piv != list(range(n)):
            raise AssertionError("split basis is not a basis")
        return [tuple(row[n + t] for row in red) for t in range(n)]

    @cached_property
    def _law(self) -> ExactMap:
        return _compile_law(self)

    def embed(self, x: Vector) -> Vector:
        """Predual coordinates -> ambient coordinates."""
        n = self.algebra.dim
        out = [Fraction(0)] * n
        for a, xa in enumerate(x):
            if xa:
                pa = self.predual_basis[a]
                for t in range(n):
                    out[t] += xa * pa[t]
        return tuple(out)

    def split(self, w: Vector) -> tuple[Vector, Fraction]:
        """Ambient vector -> (predual coordinates, central coordinate)."""
        if not self.flat:
            raise NotFlat("central splitting requires a flat orbit")
        n = self.algebra.dim
        cols = self._split_inverse
        x = [Fraction(0)] * n
        for t in range(n):
            wt = w[t]
            if wt:
                col = cols[t]
                for r in range(n):
                    if col[r]:
                        x[r] += wt * col[r]
        return tuple(x[:self.d]), x[self.d]


def jump_indices(L: lc.LieAlgebra, flag: lc.FlagSequence, xi0: Functional) -> OrbitData:
    """Jump indices e = {j : X_j escapes g_{j-1} + isotropy}, with the
    direct-sum and flatness invariants verified exactly."""
    if len(xi0.coords) != L.dim:
        raise ValueError(f"the functional needs {L.dim} coordinates, one per "
                         f"basis vector; got {len(xi0.coords)}")
    if xi0.pair(flag.vectors[0]) != 1:
        raise PairingNotOne("the functional must pair to 1 with the first flag vector")
    iso = isotropy_algebra(L, xi0)
    jump: list[int] = []
    for j in range(1, L.dim + 1):
        lower = list(flag.vectors[:j - 1]) + list(iso)
        xj = flag.vectors[j - 1]
        base_rank = ela.rank(lower)
        if ela.rank(lower + [xj]) > base_rank:
            jump.append(j)
    predual = tuple(flag.vectors[j - 1] for j in jump)
    if len(iso) + len(predual) != L.dim:
        raise AssertionError("isotropy and predual dimensions do not sum to dim")
    full = [list(v) for v in list(iso) + list(predual)]
    if ela.det(full) == 0:
        raise AssertionError("isotropy + predual is not a direct sum")
    ctr = lc.center(L)
    flat = len(ctr) == 1 and ela.subspace_equal(list(iso), ctr)
    return OrbitData(algebra=L, flag=flag, xi0=xi0, isotropy_basis=tuple(iso),
                     jump_set=tuple(jump), predual_basis=predual, flat=flat)


def _evaluate(orbit: OrbitData, x: Vector, y: Vector) -> tuple[Fraction, ...]:
    """The orbit's compiled map at (x, y): reduced product, then cocycle."""
    if not orbit.flat:
        raise NotFlat("the reduced product and the cocycle require a flat orbit")
    if len(x) != orbit.d or len(y) != orbit.d:
        raise ValueError("vector dimension does not match the predual")
    return orbit._law(x, y)


def alpha(orbit: OrbitData, x: Vector, y: Vector) -> Fraction:
    """Central pairing of the BCH product: the additive group cocycle."""
    return _evaluate(orbit, x, y)[-1]


def product_and_alpha(orbit: OrbitData, x: Vector, y: Vector) -> tuple[Vector, Fraction]:
    out = _evaluate(orbit, x, y)
    return out[:-1], out[-1]


def verify_cocycle_identity(orbit: OrbitData, x: Vector, y: Vector, z: Vector) -> bool:
    """alpha(x,y) + alpha(x*y, z) == alpha(x, y*z) + alpha(y, z), exactly."""
    xy, a_xy = product_and_alpha(orbit, x, y)
    yz, a_yz = product_and_alpha(orbit, y, z)
    lhs = a_xy + alpha(orbit, xy, z)
    rhs = alpha(orbit, x, yz) + a_yz
    return lhs == rhs


# ---------------------------------------------------------------------------
# Polynomial closed forms and predual structure
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def polynomial_law(orbit: OrbitData) -> tuple[tuple[Poly, ...], Poly]:
    """Exact polynomials for the reduced product (d components) and the cocycle,
    as functions of (x_1..x_d, y_1..y_d); computed once per orbit value."""
    if not orbit.flat:
        raise NotFlat("polynomial twist data requires a flat orbit")
    L = orbit.algebra
    d, n = orbit.d, L.dim
    nv = 2 * d
    zero = Poly.zero(nv)
    xs = [Poly.variable(nv, a) for a in range(d)]
    ys = [Poly.variable(nv, d + a) for a in range(d)]

    def embed(coeffs) -> list[Poly]:
        out = [zero] * n
        for a in range(d):
            pa = orbit.predual_basis[a]
            for t in range(n):
                if pa[t]:
                    out[t] = out[t] + coeffs[a] * pa[t]
        return out

    fraction_entries = L.entries
    w = _bch.bch_apply_generic(fraction_entries, n, max(L.step, 1),
                               embed(xs), embed(ys), zero)
    # Split the polynomial vector with the exact inverse matrix.
    inv_cols = orbit._split_inverse
    product_polys = []
    for a in range(d):
        acc = zero
        for t in range(n):
            coeff = inv_cols[t][a]
            if coeff and w[t]:
                acc = acc + w[t] * coeff
        product_polys.append(acc)
    central = zero
    for t in range(n):
        coeff = inv_cols[t][d]
        if coeff and w[t]:
            central = central + w[t] * coeff
    alpha_poly = central * orbit.xi0.pair(orbit.flag.vectors[0])
    return tuple(product_polys), alpha_poly


@lru_cache(maxsize=64)
def _compile_law(orbit: OrbitData) -> ExactMap:
    """Reduced product and cocycle of a flat orbit as one exact map."""
    product_polys, alpha_poly = polynomial_law(orbit)
    return ExactMap(product_polys + (alpha_poly,), orbit.d)


def predual_algebra(orbit: OrbitData) -> lc.LieAlgebra:
    """The quotient Lie algebra structure carried by predual coordinates."""
    if not orbit.flat:
        raise NotFlat("the predual group structure requires a flat orbit")
    d, P = orbit.d, orbit.predual_basis
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(d):
        for b in range(a + 1, d):
            w = lc.bracket(orbit.algebra, P[a], P[b])
            coords, _ = orbit.split(w)
            terms = {k: c for k, c in enumerate(coords) if c != 0}
            if terms:
                brackets[(a, b)] = terms
    return lc.validate(d, brackets)


def predual_weights(orbit: OrbitData) -> tuple[int, ...]:
    """Weight of each predual coordinate: its depth in the lower central
    series of the predual group (1 for generators, 2 for first commutators, ...)."""
    Q = predual_algebra(orbit)
    series = lc.lower_central_series(Q)
    weights = []
    for a in range(Q.dim):
        ea = unit_vector(Q.dim, a)
        w = 1
        for k in range(1, len(series)):
            if series[k] and ela.in_span(list(series[k]), ea):
                w = k + 1
        weights.append(w)
    return tuple(weights)


def standard_orbit(L: lc.LieAlgebra) -> OrbitData:
    """Convenience: flag with a central first vector and the dual functional.

    The flag starts at the canonical central vector and xi0 is read off as
    the dual coordinate vector pairing to 1 with it.
    """
    center = lc.center(L)
    flag = lc.jordan_holder_flag(L, preferred_first=center[0] if center else None)
    x1 = flag.vectors[0]
    idx = next(t for t in range(L.dim) if x1[t] != 0)
    coords = [Fraction(0)] * L.dim
    coords[idx] = 1 / x1[idx]
    return jump_indices(L, flag, Functional(tuple(coords)))
