"""Baker-Campbell-Hausdorff products via the Dynkin commutator series.

The series is organized as a universal table mapping bracket words over a
two-letter alphabet to rational coefficients:

    x * y = sum_w  c_w * [w_1, [w_2, [... [w_{m-1}, w_m] ...]]]

where w ranges over words in {x, y} of length <= nilpotency step.  Writing
log(e^x e^y) = sum_w g_w w as a series in non-commuting x and y, Dynkin's
bracketing gives c_w = g_w / |w|, where g_w is Goldberg's coefficient (Duke
Math. J. 23, 1956):

    g_w = sum_k (-1)^(k-1) / k  sum_{covers}  prod_blocks 1 / (p! q!),

over the covers of w by k consecutive blocks of the form x^p y^q.  The table
comes from one walk over the words of length <= the degree, as a trie of
prefixes.  Each prefix w[:i] keeps the integers
F[i][k] = i! * sum_{covers of w[:i] by k blocks} prod 1/(p! q!); a new letter
adds a last block w[s:m+1] to the covers of w[:s], weighted by
comb(m+1, s) * comb(p+q, p).  So c_w = sum_k (-1)^(k-1) F[m][k] / (k m! m)
for |w| = m, one Fraction per word.

The table is algebra-independent and cached per truncation degree.  Summing
the series costs one right-nested bracket per word, shared across words
through their common suffixes.

The sum runs over any commutative ring.  With ``polymap.Packed`` variables
as coordinates it compiles an algebra's group law (and a flat orbit's
reduced product and cocycle) into exact polynomials once, which
``polymap.ExactMap`` then evaluates in integer arithmetic; with Fraction
coordinates it is the independent reference for those compiled maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

Word = tuple[int, ...]  # letters: 0 -> x, 1 -> y

# ---------------------------------------------------------------------------
# Universal word-coefficient table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def word_coefficients(max_degree: int) -> dict[Word, Fraction]:
    """Dynkin coefficients, aggregated per bracket word, degrees <= max_degree."""
    table: dict[Word, Fraction] = {}

    def visit(word: Word, counts: list[list[int]]) -> None:
        # counts[i][k] is F[i][k] of the module docstring for word[:i].
        m = len(word)
        if m:
            den = lcm(*range(1, m + 1))
            num = sum((-1) ** (k - 1) * f * (den // k)
                      for k, f in enumerate(counts[m]) if k)
            c = Fraction(num, den * factorial(m) * m)
            # Drop cancelled words and words that vanish identically ([.., a, a]).
            if c and (m < 2 or word[-1] != word[-2]):
                table[word] = c
        if m == max_degree:
            return
        for letter in (0, 1):
            longer = word + (letter,)
            row = [0] * (m + 2)
            p = q = 0
            # Last blocks longer[s:], from the shortest; x^p y^q fails at a y
            # followed by an x.
            for s in range(m, -1, -1):
                if longer[s]:
                    if p:
                        break
                    q += 1
                else:
                    p += 1
                weight = comb(m + 1, s) * comb(p + q, p)
                for k, f in enumerate(counts[s]):
                    if f:
                        row[k + 1] += weight * f
            counts.append(row)
            visit(longer, counts)
            counts.pop()

    visit((), [[1]])
    return table


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
