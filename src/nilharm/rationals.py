"""Rational scalars: parsing, formatting, and common vector helpers.

All exact arithmetic in the package is carried by ``fractions.Fraction``,
which already guarantees the invariants we need (lowest terms, positive
denominator, arbitrary precision).  Files and CLI flags carry rationals as
strings "p/q" or "p" to avoid floating mangling.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

Vector = tuple[Fraction, ...]

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


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, s: int) -> Vector:
    """The s-th standard basis vector of length n."""
    return tuple(Fraction(1) if t == s else Fraction(0) for t in range(n))


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_scale(c: Fraction, x: Vector) -> Vector:
    return tuple(c * a for a in x)


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
