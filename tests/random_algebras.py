"""Hypothesis strategies for random nilpotent algebras and rational points,
and the plain-Fraction references the integer kernels are tested against:
the BCH walk for the compiled group laws, the structure-constant loop for
the bracket, the cyclic sum of the form for the cocycle check and the
term-by-term value of a polynomial at a rational point."""

from fractions import Fraction

from hypothesis import strategies as st

from nilharm import bch, symplectic as sp

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero_fractions = st.builds(Fraction, st.one_of(st.integers(-6, -1), st.integers(1, 6)),
                              st.integers(1, 4))


@st.composite
def graph_algebras(draw):
    """Graph algebra of a random simple graph on 1 to 4 vertices."""
    vertices = "abcd"[:draw(st.integers(1, 4))]
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(p for p, k in zip(pairs, keep) if k)
    return sp.graph_lie_algebra(sp.Graph(vertices=tuple(vertices), edges=edges))


# Base algebras with their nondegenerate 2-cocycles: the g0st family and the
# non-dilatable algebra with its two-parameter form.
g0st_bases = st.builds(sp.family_g0st, nonzero_fractions, nonzero_fractions)
nonhomog_bases = st.builds(lambda a, b: (sp.example_nonhomog(), sp.nonhomog_form(a, b)),
                           nonzero_fractions, nonzero_fractions)
extension_bases = st.one_of(g0st_bases, nonhomog_bases)


def _extend(base):
    return sp.central_extension(*base)


# Graph algebras are 2-step and mostly not flat; the central extensions of the
# g0st family and of the non-dilatable algebra have flat generic orbits and
# steps 3 and 8.
algebras = st.one_of(graph_algebras(), g0st_bases.map(_extend),
                     nonhomog_bases.map(_extend))


def points(n: int):
    return st.tuples(*[fractions] * n)


def fraction_bch(L, x, y) -> tuple[Fraction, ...]:
    """x * y by one walk of the Dynkin series in plain Fraction arithmetic."""
    return tuple(bch.bch_apply_generic(L.entries, L.dim, max(L.step, 1), x, y,
                                       Fraction(0)))


def fraction_poly_value(p, point) -> Fraction:
    """The polynomial p at a rational point, one Fraction product per factor."""
    total = Fraction(0)
    for m, c in p.terms:
        val = c
        for v, e in enumerate(m):
            for _ in range(e):
                val *= point[v]
        total += val
    return total


def fraction_bracket(L, x, y) -> tuple[Fraction, ...]:
    """[x, y] by one Fraction product per structure constant."""
    out = [Fraction(0)] * L.dim
    for i, j, terms in L.entries:
        cross = x[i] * y[j] - x[j] * y[i]
        if cross:
            for k, c in terms:
                out[k] += cross * c
    return tuple(out)


def fraction_cocycle_check(L0, omega) -> tuple[bool, tuple[int, int, int] | None]:
    """The cyclic sum omega(e_i, [e_j, e_k]) + ... over all basis triples,
    evaluated by the form's full double sum; the first violation, 1-based."""
    n = L0.dim
    e = [tuple(Fraction(int(t == s)) for t in range(n)) for s in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (omega(e[i], L0.basis_bracket(j, k)) + omega(e[j], L0.basis_bracket(k, i))
                        + omega(e[k], L0.basis_bracket(i, j))) != 0:
                    return False, (i + 1, j + 1, k + 1)
    return True, None
