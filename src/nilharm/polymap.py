"""Sparse multivariate polynomials over the rationals, with packed monomials.

``Packed`` is the one polynomial type of the exact half.  With Fraction
coefficients it carries coordinate variables through the BCH series and
gives the exact closed forms of the group laws, and of a flat orbit's
reduced product and cocycle; ``terms`` unpacks them into sorted
(exponents, coefficient) terms, and ``ExactMap`` compiles those into an
exact integer-kernel evaluator, which takes integer-form vectors.  With
integer coefficients it carries the proofs of the laws' identities: each
map runs on ``Packed`` polynomials as it runs on integers, so an identity
of its tables is one substitution of variables into them, decided for every
point at once.  Pure Python: the exact half of the package needs no numpy.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Monomial = tuple[int, ...]  # exponents per variable


def _power_schedule(exponents, nvars: int) -> tuple[dict[Monomial, int], list[tuple[int, int]]]:
    """Evaluation order for monomials with one multiplication each.

    Node 0 is the constant 1 and node k > 0 is node steps[k-1][0] times
    variable steps[k-1][1].  A monomial's parent lowers its last nonzero
    exponent, so monomials share their common prefixes.  Returns the node of
    every monomial reached, the requested ones included, and the steps.
    """
    nodes: dict[Monomial, int] = {(0,) * nvars: 0}
    steps: list[tuple[int, int]] = []

    def node(e: Monomial) -> int:
        k = nodes.get(e)
        if k is None:
            v = max(i for i, a in enumerate(e) if a)
            steps.append((node(e[:v] + (e[v] - 1,) + e[v + 1:]), v))
            k = nodes[e] = len(steps)
        return k

    for e in sorted(exponents):
        node(e)
    return nodes, steps


class Packed(dict):
    """A polynomial with int or Fraction coefficients, {monomial: coefficient}.

    A monomial is one int that packs the exponents of its variables in
    fields of ``bits`` bits (``Packed.variables``), so multiplying monomials
    adds their ints; that is exact while every exponent stays below
    2**bits.  The ring structure that the BCH walk, ``ExactMap`` and the
    bracket kernel need: + and - (an int on either side of +), * by a Packed
    or by a scalar (an int or a Fraction) on either side, += in place, and
    ``total``.  A coefficient that cancels to 0 stays in the dict; truth
    tests the coefficients."""

    __slots__ = ()

    @classmethod
    def variables(cls, count: int, bits: int) -> list["Packed"]:
        return [cls({1 << (bits * v): 1}) for v in range(count)]

    @classmethod
    def total(cls, terms) -> "Packed":
        """The sum of ``terms`` (Packed or int), accumulated in one dict."""
        out = cls()
        for term in terms:
            out += term
        return out

    def __bool__(self) -> bool:
        return any(self.values())

    def __mul__(self, other):
        if not isinstance(other, Packed):
            return Packed({m: c * other for m, c in self.items()})
        out = Packed()
        get = out.get
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return out

    def __rmul__(self, other):
        return self * other

    def __iadd__(self, other):
        get = self.get
        for m, c in other.items() if isinstance(other, Packed) else ((0, other),):
            self[m] = get(m, 0) + c
        return self

    def __add__(self, other):
        out = Packed(self)
        out += other
        return out

    def __radd__(self, other: int):
        return self + other

    def __sub__(self, other):
        return self + other * -1


def terms(p: Packed, nvars: int, bits: int) -> tuple[tuple[Monomial, Fraction], ...]:
    """The nonzero terms of p, a polynomial in ``nvars`` variables packed in
    fields of ``bits`` bits, as (exponents, Fraction coefficient), sorted by
    exponents."""
    mask = (1 << bits) - 1
    return tuple(sorted((tuple(m >> (bits * v) & mask for v in range(nvars)), Fraction(c))
                        for m, c in p.items() if c))


class ExactMap:
    """Exact evaluator of polynomials in 2n variables at rational points (x, y).

    x fills variables 0..n-1 and y variables n..2n-1, both as integer forms
    (``rationals.IntVector``): x = X/dx and y = Y/dy with integer X, Y.  With
    A and B the largest degrees in x and in y, a monomial x^a y^b is
    X^a dx^(A-|a|) Y^b dy^(B-|b|) over dx^A dy^B.  Each distinct lifted
    x-part and y-part costs one multiplication per call.  The coefficients
    of all components are integers over one common denominator D, so each
    component sums them against products of parts over the one denominator
    D dx^A dy^B.  X and Y may also hold ``Packed`` polynomials, and the
    components are then polynomials over that denominator.

    The components are ``Packed`` polynomials in fields of ``bits`` bits,
    read through ``terms``.
    """

    def __init__(self, polys, n: int, bits: int):
        polys = [terms(p, 2 * n, bits) for p in polys]
        monomials = [m for p in polys for m, _ in p]
        self._A = max((sum(m[:n]) for m in monomials), default=0)
        self._B = max((sum(m[n:]) for m in monomials), default=0)
        # A lifted part lists the homogenizing exponent first, so the powers
        # of dx (of dy) are prefixes shared by all parts.
        def x_part(m):
            return (self._A - sum(m[:n]),) + m[:n]

        def y_part(m):
            return (self._B - sum(m[n:]),) + m[n:]

        x_node, self._x_steps = _power_schedule({x_part(m) for m in monomials}, n + 1)
        y_node, self._y_steps = _power_schedule({y_part(m) for m in monomials}, n + 1)
        self._den = lcm(*(c.denominator for p in polys for _, c in p))
        self._components = [
            (tuple(c.numerator * (self._den // c.denominator) for _, c in p),
             tuple(x_node[x_part(m)] for m, _ in p),
             tuple(y_node[y_part(m)] for m, _ in p))
            for p in polys]

    @staticmethod
    def _parts(v, steps) -> tuple[int, list]:
        """The denominator of v and the values of every schedule node."""
        d, numerators = v
        variables = (d, *numerators)
        vals = [1]
        for parent, k in steps:
            vals.append(vals[parent] * variables[k])
        return d, vals

    def __call__(self, x, y, total=sum) -> tuple[int, list]:
        """(D dx^A dy^B, the numerators of the components over it), not
        reduced: ``rationals.fraction_form`` of it is the Fraction vector.
        On Packed numerators ``total`` is ``Packed.total``, which sums each
        component in one dict."""
        dx, xv = self._parts(x, self._x_steps)
        dy, yv = self._parts(y, self._y_steps)
        return self._den * dx ** self._A * dy ** self._B, [
            total(map(mul, coeffs, map(mul, map(xv.__getitem__, xs), map(yv.__getitem__, ys))))
            for coeffs, xs, ys in self._components]


# ---------------------------------------------------------------------------
# Proofs: identities of a map's tables, as polynomials
# ---------------------------------------------------------------------------


def _variables(law: ExactMap, count: int) -> list[Packed]:
    """``count`` Packed variables, wide enough for the proofs below: the
    law substituted into itself has degree at most (A + B)^2, and on a ray
    (x, y) = (lam x, mu x) at most 2 (A + B)."""
    return Packed.variables(count, (2 * (law._A + law._B) ** 2).bit_length())


def _differ(a: Packed, da: int, b: Packed, db: int) -> bool:
    """Whether a / da and b / db are different polynomials."""
    return bool(a * db - b * da)


def associativity_defect(law: ExactMap, n: int) -> int:
    """How many components of (x y) z - x (y z), x y = law(x, y) on n
    coordinates each, are not the zero polynomial in the 3n variables of x,
    y and z; 0 is a proof of associativity.  A law with n + 1 components is
    a reduced product and a cocycle a: its last count is that of the
    cocycle identity a(x, y) + a(x y, z) - a(x, y z) - a(y, z), and the
    whole is the associativity of (x, s)(y, t) = (x y, s + t + a(x, y))."""
    vs = _variables(law, 3 * n)
    x, y, z = ((1, vs[k * n:(k + 1) * n]) for k in range(3))
    (dxy, xy), (dyz, yz) = law(x, y, Packed.total), law(y, z, Packed.total)
    dl, left = law((dxy, xy[:n]), z, Packed.total)
    dr, right = law(x, (dyz, yz[:n]), Packed.total)
    bad = sum(_differ(a, dl, b, dr) for a, b in zip(left[:n], right[:n]))
    if len(left) > n:
        bad += _differ(left[n] * dxy + xy[n] * dl, dl * dxy,
                       right[n] * dyz + yz[n] * dr, dr * dyz)
    return bad


def inverse_unit_defect(law: ExactMap, n: int) -> int:
    """How many components of x (-x) and of 0 x - x, on n coordinates, are
    not the zero polynomial in x: 0 proves that 0 is the unit and -x the
    inverse."""
    xs = _variables(law, n)
    _, inverse = law((1, xs), (1, [v * -1 for v in xs]), Packed.total)
    d, unit = law((1, [0] * n), (1, xs), Packed.total)
    return sum(map(bool, inverse)) + sum(_differ(u, d, v, 1) for u, v in zip(unit, xs))


def ray_defect(law: ExactMap, n: int) -> int:
    """1 if the last component at (lam x, mu x), x on n coordinates, is not
    the zero polynomial in x, lam and mu, else 0: 0 proves that the cocycle
    vanishes on every ray."""
    *xs, lam, mu = _variables(law, n + 2)
    _, out = law((1, [v * lam for v in xs]), (1, [v * mu for v in xs]), Packed.total)
    return int(bool(out[-1]))
