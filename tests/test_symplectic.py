"""Cocycles, central extensions, graph algebras, and the example families."""

from fractions import Fraction

import pytest
import random_algebras
from hypothesis import given, settings, strategies as st

from nilharm import catalog as cat, lie_core as lc, seeds, symplectic as sp

F = Fraction


# -- is_two_cocycle ------------------------------------------------------------


def test_any_skew_form_is_cocycle_on_abelian():
    L = cat.abelian(4)
    omega = sp.form_from_pairs(4, {(0, 1): F(2), (1, 3): F(-5, 3), (2, 3): F(7)})
    ok, triple = sp.is_two_cocycle(L, omega)
    assert ok and triple is None


def test_g0st_form_is_cocycle_and_nondegenerate():
    L0, omega = cat.g0st(1, 1)
    assert sp.is_two_cocycle(L0, omega) == (True, None)
    assert omega.is_nondegenerate()


def test_elementary_skew_matrix_fails_with_reported_triple():
    L0, _ = cat.g0st(1, 1)
    bad = sp.form_from_pairs(6, {(0, 1): F(1)})
    ok, triple = sp.is_two_cocycle(L0, bad)
    assert not ok
    # Oracle: brute force over all 20 triples with an independent cyclic sum.
    def cyclic(i, j, k):
        def e(a):
            return tuple(F(1) if t == a else F(0) for t in range(6))
        return (bad(e(i), L0.basis_bracket(j, k))
                + bad(e(j), L0.basis_bracket(k, i))
                + bad(e(k), L0.basis_bracket(i, j)))
    violations = [(i + 1, j + 1, k + 1)
                  for i in range(6) for j in range(i + 1, 6)
                  for k in range(j + 1, 6) if cyclic(i, j, k) != 0]
    assert triple == violations[0]


@settings(max_examples=20, deadline=None)
@given(random_algebras.extension_bases, st.data())
def test_is_two_cocycle_matches_cyclic_sum(base, data):
    # The family's own form is a cocycle; a random skew form mostly is not.
    L0, omega = base
    n = L0.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = data.draw(st.lists(random_algebras.fractions, min_size=len(pairs),
                                max_size=len(pairs)))
    random_form = sp.form_from_pairs(n, dict(zip(pairs, values)))
    for form in (omega, random_form):
        assert sp.is_two_cocycle(L0, form) == random_algebras.fraction_cocycle_check(L0, form)


def test_form_must_be_skew():
    with pytest.raises(ValueError):
        sp.SymplecticForm(matrix=((F(1), F(0)), (F(0), F(0))))


# -- central_extension ----------------------------------------------------------


def test_heisenberg_from_symplectic_plane():
    ext = sp.central_extension(cat.abelian(2), sp.form_from_pairs(2, {(0, 1): F(1)}))
    assert ext.dim == 3 and ext.step == 2
    assert len(lc.center(ext)) == 1
    # [(0,X1), (0,X2)] = (omega(X1,X2), 0) = Z.
    assert ext.basis_bracket(1, 2) == (F(1), F(0), F(0))


def test_two_step_plus_nondegenerate_gives_three_step():
    L0, omega = cat.g0st(2, 3)
    ext = sp.central_extension(L0, omega)
    assert L0.step == 2 and ext.step == 3
    assert len(lc.center(ext)) == 1 and ext.dim == 7


def test_extension_rejects_non_cocycle():
    L0, _ = cat.g0st(1, 1)
    with pytest.raises(sp.NotACocycle):
        sp.central_extension(L0, sp.form_from_pairs(6, {(0, 1): F(1)}))


def test_extension_output_validates_for_random_parameters():
    rnd = seeds.stream("symp.ext", 0)
    for _ in range(5):
        s = seeds.random_fraction(rnd, nonzero=True)
        t = seeds.random_fraction(rnd, nonzero=True)
        L0, omega = cat.g0st(s, t)
        ext = sp.central_extension(L0, omega)  # validate() runs inside
        assert ext.dim == 7


# -- graphs ---------------------------------------------------------------------


def test_triangle_graph_algebra():
    L = cat.triangle_graph_algebra()
    assert L.dim == 6 and L.step == 2
    assert sp.symplectic_exists_graph(cat.triangle_graph())


def test_single_edge_graph_odd_dimension():
    g = sp.Graph(vertices=("u", "v"), edges=(("u", "v"),))
    assert sp.graph_lie_algebra(g).dim == 3
    assert not sp.symplectic_exists_graph(g)


def test_two_disjoint_triangles():
    g = sp.Graph(vertices=("a", "b", "c", "p", "q", "r"),
                 edges=(("a", "b"), ("b", "c"), ("a", "c"),
                        ("p", "q"), ("q", "r"), ("p", "r")))
    assert sp.graph_lie_algebra(g).dim == 12
    assert sp.symplectic_exists_graph(g)


def test_component_edge_excess_blocks_existence():
    # 4 vertices, 6 edges (complete graph): even total dim 10, but 6 > 4.
    g = sp.Graph(vertices=("a", "b", "c", "d"),
                 edges=(("a", "b"), ("a", "c"), ("a", "d"),
                        ("b", "c"), ("b", "d"), ("c", "d")))
    assert (len(g.vertices) + len(g.edges)) % 2 == 0
    assert not sp.symplectic_exists_graph(g)


def test_vertex_brackets_nonzero_iff_edge():
    g = cat.triangle_graph()
    L = sp.graph_lie_algebra(g)
    verts = sorted(g.vertices)
    edges = {frozenset(e) for e in g.edges}
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            nonzero = any(c != 0 for c in L.basis_bracket(i, j))
            assert nonzero == (frozenset((verts[i], verts[j])) in edges)


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        sp.Graph(vertices=("a",), edges=(("a", "a"),))
    with pytest.raises(ValueError):
        sp.Graph(vertices=("a", "b"), edges=(("a", "b"), ("b", "a")))


# -- g0st family ------------------------------------------------------------------


def test_g0st_requires_nonzero_parameters():
    with pytest.raises(sp.ZeroParameter):
        sp.family_g0st(F(0), F(1))
    with pytest.raises(sp.ZeroParameter):
        sp.family_g0st(F(1), F(0))


def test_g0st_relations():
    L0, _ = cat.g0st(2, 3)
    # [X6, X5] = s X3, [X6, X4] = (s+t) X2, [X5, X4] = t X1.
    assert L0.basis_bracket(5, 4) == (F(0), F(0), F(2), F(0), F(0), F(0))
    assert L0.basis_bracket(5, 3) == (F(0), F(5), F(0), F(0), F(0), F(0))
    assert L0.basis_bracket(4, 3) == (F(3), F(0), F(0), F(0), F(0), F(0))


def test_g0st_form_determinant_unit():
    _, omega = cat.g0st(1, 1)
    from nilharm import exactlinalg as ela
    assert abs(ela.det([list(r) for r in omega.matrix])) == 1


def test_g0st_sweep_cocycle_and_nondegenerate():
    rnd = seeds.stream("symp.sweep", 0)
    for _ in range(20):
        s = seeds.random_fraction(rnd, nonzero=True)
        t = seeds.random_fraction(rnd, nonzero=True)
        L0, omega = sp.family_g0st(s, t)
        assert sp.is_two_cocycle(L0, omega) == (True, None)
        assert omega.is_nondegenerate()


# -- nonhomogeneous example --------------------------------------------------------


def test_nonhomog_form_cocycle():
    g = cat.nonhomog()
    ok, _ = sp.is_two_cocycle(g, sp.nonhomog_form(1, 1))
    assert ok


def test_nonhomog_form_degenerate_iff_parameter_vanishes():
    assert not sp.nonhomog_form(1, 0).is_nondegenerate()
    assert not sp.nonhomog_form(0, 1).is_nondegenerate()
    assert sp.nonhomog_form(2, 3).is_nondegenerate()


def test_nonhomog_form_random_cocycles():
    g = cat.nonhomog()
    rnd = seeds.stream("symp.nonhomog", 0)
    for _ in range(10):
        a = seeds.random_fraction(rnd)
        b = seeds.random_fraction(rnd)
        assert sp.is_two_cocycle(g, sp.nonhomog_form(a, b))[0]


def test_extended_nonhomog_is_flat_candidate():
    ext = cat.extended_nonhomog()
    assert ext.dim == 9 and ext.step == 8
    assert len(lc.center(ext)) == 1
