"""Baker-Campbell-Hausdorff products via the Dynkin commutator series.

The series is organized as a universal table mapping bracket words over a
two-letter alphabet to rational coefficients:

    x * y = sum_w  c_w * [w_1, [w_2, [... [w_{m-1}, w_m] ...]]]

where w ranges over words in {x, y} of length <= nilpotency step.  The table
is algebra-independent and cached per truncation degree; one walk over it
costs one right-nested bracket per word, shared across words through their
common suffixes.

The walk runs over any commutative ring.  With polynomial coordinates it
compiles an algebra's group law (and a flat orbit's reduced product and
cocycle) into exact polynomials once, which ``polymap.ExactMap`` then
evaluates in integer arithmetic; with Fraction coordinates it is the
independent reference for those compiled maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

Word = tuple[int, ...]  # letters: 0 -> x, 1 -> y

# ---------------------------------------------------------------------------
# Universal word-coefficient table
# ---------------------------------------------------------------------------


def _pair_sequences(max_degree: int):
    """All sequences ((p_1,q_1),...,(p_n,q_n)), p_i+q_i >= 1, total weight <= max_degree."""
    stack: list[tuple[tuple[tuple[int, int], ...], int]] = [((), 0)]
    while stack:
        seq, weight = stack.pop()
        if seq:
            yield seq
        for w in range(1, max_degree - weight + 1):
            for p in range(w + 1):
                stack.append((seq + ((p, w - p),), weight + w))


@lru_cache(maxsize=None)
def word_coefficients(max_degree: int) -> dict[Word, Fraction]:
    """Dynkin coefficients, aggregated per bracket word, degrees <= max_degree."""
    table: dict[Word, Fraction] = {}
    for seq in _pair_sequences(max_degree):
        n = len(seq)
        m = sum(p + q for p, q in seq)
        denom = n * m
        word: list[int] = []
        for p, q in seq:
            word.extend([0] * p)
            word.extend([1] * q)
            denom *= factorial(p) * factorial(q)
        coeff = Fraction((-1) ** (n - 1), denom)
        key = tuple(word)
        table[key] = table.get(key, Fraction(0)) + coeff
    # Drop cancelled words and words that vanish identically ([.., a, a]).
    return {
        w: c
        for w, c in table.items()
        if c != 0 and (len(w) < 2 or w[-1] != w[-2])
    }


@lru_cache(maxsize=None)
def _words_by_length(max_degree: int) -> list[Word]:
    """All words of length 2..max_degree, shorter first (suffixes precede)."""
    out: list[Word] = []
    level: list[Word] = [(0,), (1,)]
    for _ in range(max_degree - 1):
        level = [(a,) + w for a in (0, 1) for w in level]
        out.extend(level)
    return out


# ---------------------------------------------------------------------------
# Evaluation over a commutative ring
# ---------------------------------------------------------------------------


def bch_apply_generic(fraction_entries, dim: int, step: int, x, y, zero):
    """x * y truncated at the nilpotency step, coordinates in any commutative ring.

    Ring elements must support +, -, * between themselves, * by Fraction,
    and truthiness as a zero test.  ``fraction_entries`` carries exact
    structure constants (i, j, ((k, Fraction), ...)).
    """
    coeffs = word_coefficients(step)

    def bracket(u, v):
        w = [zero] * dim
        hit = False
        for i, j, terms in fraction_entries:
            cross = u[i] * v[j] - u[j] * v[i]
            if cross:
                hit = True
                for k, c in terms:
                    w[k] = w[k] + cross * c
        return w if hit else None

    letters = {0: x, 1: y}
    vals: dict[Word, list | None] = {(0,): list(x), (1,): list(y)}
    result = [a + b for a, b in zip(x, y)]
    for w in _words_by_length(step):
        tail = vals[w[1:]]
        if tail is None:
            vals[w] = None
            continue
        val = bracket(letters[w[0]], tail)
        vals[w] = val
        if val is None:
            continue
        c = coeffs.get(w)
        if c is not None:
            for k, a in enumerate(val):
                if a:
                    result[k] = result[k] + a * c
    return result
