"""Rational scalars and vectors: parsing, formatting, and common helpers.

Exact scalars are ``fractions.Fraction``s (lowest terms, positive
denominator, arbitrary precision).  Exact vectors have two forms: a tuple of
Fractions, and the integer form (d, X), the vector X / d with d > 0 and
gcd(d, *X) == 1.  The integer form of a value is unique, so two integer
forms are equal exactly when their vectors are, and its d is the least
common denominator of the Fraction entries (``over_common_denominator``).
The compiled group laws and the bracket compute on integer forms; a
function that also takes Fraction vectors converts them once, on the way in
with ``integer_forms`` and on the way out with ``fraction_form``.  Files and
CLI flags carry rationals as strings "p/q" or "p" to avoid floating
mangling.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]
IntVector = tuple[int, tuple[int, ...]]  # (d, X): the vector X / d, canonical

_ZERO = Fraction(0)

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (integers, optional sign); nothing else."""
    s = text.strip()
    if not _RATIONAL.match(s):
        raise ValueError(f"not a rational of the form p/q or p: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_vector(text: str) -> Vector:
    """Comma-separated rationals."""
    return tuple(parse_rational(part) for part in text.split(","))


def unit_vector(n: int, s: int) -> Vector:
    """The s-th standard basis vector of length n."""
    return tuple(Fraction(1) if t == s else Fraction(0) for t in range(n))


def is_zero_vector(x: Vector) -> bool:
    return all(a == 0 for a in x)


def dot(x: Vector, y: Vector) -> Fraction:
    return sum((a * b for a, b in zip(x, y, strict=True)), Fraction(0))


def over_common_denominator(x) -> tuple[int, list[int]]:
    """(d, X) with x = X / d: d is the least common denominator of the
    entries of x and X the integer numerators over it."""
    # A loop rather than lcm(*...): the argument tuple built on every call
    # raised the peak memory of the grid workloads measurably.
    d = 1
    for a in x:
        d = lcm(d, a.denominator)
    return d, [a.numerator * (d // a.denominator) for a in x]


def canonical(d: int, X) -> IntVector:
    """The integer form of X / d, for d > 0: one gcd divides both out."""
    g = gcd(d, *X)
    if g == 1:
        return d, tuple(X)
    return d // g, tuple(a // g for a in X)


def integer_form(x: Vector) -> IntVector:
    """The integer form of a Fraction vector: over its least common
    denominator the numerators already share no factor with it."""
    d, X = over_common_denominator(x)
    return d, tuple(X)


def fraction_form(v: IntVector) -> Vector:
    """The Fraction vector X / d of a pair (d, X), d > 0."""
    d, X = v
    return tuple(Fraction(a, d) if a else _ZERO for a in X)


def integer_forms(*vectors) -> tuple[bool, tuple[IntVector, ...]]:
    """The way in of a function that takes integer forms or Fraction
    vectors, all in one form: whether they are Fraction vectors, and their
    integer forms.  A pair (d, X) is told from a vector of scalars by its
    second entry, which a vector's entries never are: a tuple."""
    v = vectors[0]
    if len(v) == 2 and type(v[1]) is tuple:
        return False, vectors
    return True, tuple(map(integer_form, vectors))
