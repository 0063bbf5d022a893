"""Hypothesis strategies for random nilpotent algebras and rational points,
and the Fraction-coordinate BCH walk the compiled group laws are tested
against."""

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


# Graph algebras are 2-step and mostly not flat; the central extensions of the
# g0st family and of the non-dilatable algebra have flat generic orbits and
# steps 3 and 8.
algebras = st.one_of(
    graph_algebras(),
    st.builds(lambda s, t: sp.central_extension(*sp.family_g0st(s, t)),
              nonzero_fractions, nonzero_fractions),
    st.builds(lambda a, b: sp.central_extension(sp.example_nonhomog(),
                                                sp.nonhomog_form(a, b)),
              nonzero_fractions, nonzero_fractions),
)


def points(n: int):
    return st.tuples(*[fractions] * n)


def fraction_bch(L, x, y) -> tuple[Fraction, ...]:
    """x * y by one walk of the Dynkin series in plain Fraction arithmetic."""
    return tuple(bch.bch_apply_generic(L.entries, L.dim, max(L.step, 1), x, y,
                                       Fraction(0)))
