"""Sparse multivariate polynomials over the rationals.

Just enough ring structure to push coordinate variables through the BCH
series, producing exact closed forms for the group cocycle and the reduced
product: Poly + Poly, Poly - Poly, Poly * Poly and Poly * scalar (an int or
a Fraction); any other operand raises TypeError.  Plus compilation to exact
integer-kernel evaluators (``ExactMap``) for the group laws, which take and
return integer-form vectors.  Pure Python: the exact half of the package
needs no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from .rationals import IntVector, canonical

Monomial = tuple[int, ...]  # exponents per variable


@dataclass(frozen=True)
class Poly:
    nvars: int
    terms: tuple[tuple[Monomial, Fraction], ...]  # sorted, nonzero coefficients

    @staticmethod
    def _make(nvars: int, data: dict[Monomial, Fraction]) -> "Poly":
        return Poly(nvars, tuple(sorted(item for item in data.items() if item[1])))

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, ())

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        m = tuple(1 if v == index else 0 for v in range(nvars))
        return cls(nvars, ((m, Fraction(1)),))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        data = dict(self.terms)
        for m, c in other.terms:
            data[m] = data[m] + c if m in data else c
        return Poly._make(self.nvars, data)

    def __sub__(self, other):
        other = self._coerce(other)
        if not other.terms:
            return self
        data = dict(self.terms)
        for m, c in other.terms:
            data[m] = data[m] - c if m in data else -c
        return Poly._make(self.nvars, data)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            c0 = Fraction(other)
            if c0 == 0:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, tuple((m, c * c0) for m, c in self.terms))
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.nvars)
        data: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(map(add, m1, m2))
                c = c1 * c2
                data[m] = data[m] + c if m in data else c
        return Poly._make(self.nvars, data)

    def _coerce(self, other) -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"not a Poly: {type(other).__name__}")
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return other


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


class ExactMap:
    """Exact evaluator of polynomials in 2n variables at rational points (x, y).

    x fills variables 0..n-1 and y variables n..2n-1, both as integer forms
    (``rationals.IntVector``): x = X/dx and y = Y/dy with integer X, Y.  With
    A and B the largest degrees in x and in y, a monomial x^a y^b is
    X^a dx^(A-|a|) Y^b dy^(B-|b|) over dx^A dy^B.  Each distinct lifted
    x-part and y-part costs one integer multiplication per call.  The
    coefficients of all components are integers over one common denominator
    D, so each component sums them against products of parts over the one
    denominator D dx^A dy^B, and one gcd makes the result an integer form.
    """

    def __init__(self, polys, n: int):
        terms = [m for p in polys for m, _ in p.terms]
        self._A = max((sum(m[:n]) for m in terms), default=0)
        self._B = max((sum(m[n:]) for m in terms), default=0)
        # A lifted part lists the homogenizing exponent first, so the powers
        # of dx (of dy) are prefixes shared by all parts.
        def x_part(m):
            return (self._A - sum(m[:n]),) + m[:n]

        def y_part(m):
            return (self._B - sum(m[n:]),) + m[n:]

        x_node, self._x_steps = _power_schedule({x_part(m) for m in terms}, n + 1)
        y_node, self._y_steps = _power_schedule({y_part(m) for m in terms}, n + 1)
        self._den = lcm(*(c.denominator for p in polys for _, c in p.terms))
        self._components = [
            (tuple(c.numerator * (self._den // c.denominator) for _, c in p.terms),
             tuple(x_node[x_part(m)] for m, _ in p.terms),
             tuple(y_node[y_part(m)] for m, _ in p.terms))
            for p in polys]

    @staticmethod
    def _parts(v: IntVector, steps) -> tuple[int, list[int]]:
        """The denominator of v and the values of every schedule node."""
        d, numerators = v
        variables = (d,) + numerators
        vals = [1]
        for parent, k in steps:
            vals.append(vals[parent] * variables[k])
        return d, vals

    def __call__(self, x: IntVector, y: IntVector) -> IntVector:
        dx, xv = self._parts(x, self._x_steps)
        dy, yv = self._parts(y, self._y_steps)
        return canonical(
            self._den * dx ** self._A * dy ** self._B,
            [sum(map(mul, coeffs, map(mul, map(xv.__getitem__, xs),
                                      map(yv.__getitem__, ys))))
             for coeffs, xs, ys in self._components])
