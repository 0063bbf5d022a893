"""Coadjoint-orbit machinery over a fixed functional.

Isotropy algebras, jump indices with respect to a flag, the predual
decomposition, flat-orbit detection, and the polynomial group cocycle
obtained by pairing the functional with the central component of the BCH
product of predual elements.  The reduced product and the cocycle are
compiled once per flat orbit from their closed forms over ``polymap.Packed``
variables, the polynomial type of the group laws.  All identities here are
exact rational facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import exactlinalg as ela
from . import lie_core as lc
from .polymap import ExactMap, Packed
from .rationals import Vector, dot, fraction_form, integer_inputs


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
    """{X : xi0([X, .]) = 0}: the kernel of the skew pairing matrix."""
    return lc.bracket_kernel(L, lambda w: (xi0.pair(w),))


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
    def _law(self) -> ExactMap:
        """Reduced product and cocycle of a flat orbit as one exact map,
        compiled on first use."""
        product_polys, alpha_poly = polynomial_law(self)
        return ExactMap(product_polys + (alpha_poly,), self.d, self.algebra.law_bits)

    def embed(self, x) -> tuple:
        """Predual coordinates -> ambient coordinates, over the Fractions or
        ``Packed`` polynomials; a coordinate with no term is ``Fraction(0)``."""
        out = [Fraction(0)] * self.algebra.dim
        for xa, pa in zip(x, self.predual_basis):
            if xa:
                for t, p in enumerate(pa):
                    if p:
                        out[t] = out[t] + xa * p
        return tuple(out)

    def split(self, w) -> tuple[tuple, object]:
        """Ambient vector -> (predual coordinates, central coordinate), over
        the rings of ``embed``: the flag coordinates, rotated."""
        if not self.flat:
            raise NotFlat("central splitting requires a flat orbit")
        # A flat orbit's predual is X_2..X_n and its centre X_1.
        x = self.flag.coordinates(w)
        return x[1:], x[0]


def jump_indices(L: lc.LieAlgebra, flag: lc.FlagSequence, xi0: Functional) -> OrbitData:
    """Jump indices e = {j : X_j escapes g_{j-1} + isotropy}, with the
    direct-sum invariant verified exactly.

    The orbit is flat when its isotropy algebra is the centre and the centre
    is a line.  The centre always lies in the isotropy algebra and is
    nonzero in a nilpotent algebra, so both hold exactly when the isotropy
    algebra is one-dimensional; it is then span(X_1), since X_1 is central,
    the jump set is (2..n) and the predual X_2..X_n."""
    if len(xi0.coords) != L.dim:
        raise ValueError(f"the functional needs {L.dim} coordinates, one per "
                         f"basis vector; got {len(xi0.coords)}")
    if xi0.pair(flag.vectors[0]) != 1:
        raise PairingNotOne("the functional must pair to 1 with the first flag vector")
    iso = isotropy_algebra(L, xi0)
    # Echelon pivots are the columns outside the span of the columns before
    # them: with the isotropy basis first, the flag's pivots are its jumps.
    cols = list(iso) + list(flag.vectors)
    _, piv, _, _ = ela.echelon([[c[r] for c in cols] for r in range(L.dim)])
    if piv[:len(iso)] != list(range(len(iso))) or len(piv) != L.dim:
        raise AssertionError("isotropy + predual is not a direct sum")
    jump = [c - len(iso) + 1 for c in piv[len(iso):]]
    predual = tuple(flag.vectors[j - 1] for j in jump)
    return OrbitData(algebra=L, flag=flag, xi0=xi0, isotropy_basis=tuple(iso),
                     jump_set=tuple(jump), predual_basis=predual,
                     flat=len(iso) == 1)


def alpha(orbit: OrbitData, x: Vector, y: Vector) -> Fraction:
    """Central pairing of the BCH product: the additive group cocycle, at
    two Fraction vectors."""
    if not orbit.flat:
        raise NotFlat("the reduced product and the cocycle require a flat orbit")
    d, out = orbit._law(*integer_inputs(orbit.d, "predual", x, y))
    return Fraction(out[-1], d)


def product_and_alpha(orbit: OrbitData, x: Vector, y: Vector) -> tuple[Vector, Fraction]:
    """The reduced product, a Fraction vector, and the cocycle."""
    if not orbit.flat:
        raise NotFlat("the reduced product and the cocycle require a flat orbit")
    d, out = orbit._law(*integer_inputs(orbit.d, "predual", x, y))
    return fraction_form((d, out[:-1])), Fraction(out[-1], d)


def verify_cocycle_identity(orbit: OrbitData, x: Vector, y: Vector, z: Vector) -> bool:
    """alpha(x,y) + alpha(x*y, z) == alpha(x, y*z) + alpha(y, z), exactly,
    at three Fraction vectors."""
    xy, a_xy = product_and_alpha(orbit, x, y)
    yz, a_yz = product_and_alpha(orbit, y, z)
    lhs = a_xy + alpha(orbit, xy, z)
    rhs = alpha(orbit, x, yz) + a_yz
    return lhs == rhs


# ---------------------------------------------------------------------------
# Polynomial closed forms
# ---------------------------------------------------------------------------


def polynomial_law(orbit: OrbitData) -> tuple[tuple[Packed, ...], Packed]:
    """Exact polynomials for the reduced product (d components) and the cocycle,
    as functions of (x_1..x_d, y_1..y_d): the split of the BCH product of the
    embedded variables, with its central part paired against xi0, packed in
    fields of ``law_bits`` bits."""
    if not orbit.flat:
        raise NotFlat("polynomial twist data requires a flat orbit")
    L, d = orbit.algebra, orbit.d
    xy = Packed.variables(2 * d, L.law_bits)
    # embed leaves a coordinate that no predual vector reaches at Fraction(0),
    # and the walk's letters must be polynomials: scalar - Packed is undefined.
    x, y = ([Packed() + c for c in orbit.embed(v)] for v in (xy[:d], xy[d:]))
    product, central = orbit.split(lc.dynkin_series(L, x, y))
    return product, central * orbit.xi0.pair(orbit.flag.vectors[0])


@lru_cache(maxsize=64)
def standard_orbit(L: lc.LieAlgebra) -> OrbitData:
    """Convenience: flag with a central first vector and the dual functional,
    built once per algebra value.

    The flag starts at the first basis vector of the centre and xi0 is read
    off as the dual coordinate vector pairing to 1 with it.
    """
    center = lc.center(L)
    flag = lc.jordan_holder_flag(L, preferred_first=center[0] if center else None)
    x1 = flag.vectors[0]
    idx = next(t for t in range(L.dim) if x1[t] != 0)
    coords = [Fraction(0)] * L.dim
    coords[idx] = 1 / x1[idx]
    return jump_indices(L, flag, Functional(tuple(coords)))
