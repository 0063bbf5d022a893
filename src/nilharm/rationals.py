"""Rational scalars and vectors: parsing, formatting, and common helpers.

Exact scalars are ``fractions.Fraction``s (lowest terms, positive
denominator, arbitrary precision), and exact vectors are tuples of them;
ints are accepted wherever a Fraction is.  Inside the kernels of the
bracket and the group and orbit laws a vector takes the integer form (d, X),
the vector X / d with d > 0: ``integer_inputs`` checks the lengths of a
kernel's Fraction arguments and converts them, and ``fraction_form`` turns
the kernel's result back into Fractions, each entry in lowest terms.  Files
and CLI flags carry rationals as strings "p/q" or "p" to avoid floating
mangling.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

Vector = tuple[Fraction, ...]
IntVector = tuple[int, tuple[int, ...]]  # (d, X): the vector X / d, d > 0

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


def integer_form(x: Vector) -> IntVector:
    """The integer form of a Fraction vector: over its least common
    denominator the numerators already share no factor with it."""
    d, X = over_common_denominator(x)
    return d, tuple(X)


def fraction_form(v: IntVector) -> Vector:
    """The Fraction vector X / d of a pair (d, X), d > 0."""
    d, X = v
    return tuple(Fraction(a, d) if a else _ZERO for a in X)


def integer_inputs(n: int, space: str, *vectors: Vector) -> tuple[IntVector, ...]:
    """The integer forms of Fraction vectors of length n each, the way into
    an integer kernel; a ValueError names ``space`` when a length differs."""
    if any(len(v) != n for v in vectors):
        raise ValueError(f"vector dimension does not match the {space}")
    return tuple(map(integer_form, vectors))
