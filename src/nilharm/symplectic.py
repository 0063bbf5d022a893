"""Symplectic 2-cocycles, 1-dimensional central extensions, and example families.

A skew form on a nilpotent algebra that satisfies the cocycle identity yields
a central extension with one added generator; when the form is nondegenerate
the extension has 1-dimensional center and its step grows by exactly one.
Three concrete families live here: the 6-dimensional two-parameter family,
graph algebras with the even-dimension / per-component edge-count existence
criterion, and the fixed 8-dimensional algebra with no dilations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactlinalg as ela
from . import lie_core as lc


class NotACocycle(Exception):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"form violates the 2-cocycle identity on basis triple {triple}")


class ZeroParameter(Exception):
    pass


@dataclass(frozen=True)
class SymplecticForm:
    """Skew-symmetric bilinear form on the basis of an algebra."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        for i in range(n):
            if len(self.matrix[i]) != n:
                raise ValueError("form matrix must be square")
            for j in range(n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise ValueError(f"form is not skew-symmetric at ({i}, {j})")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def is_nondegenerate(self) -> bool:
        return ela.det([list(row) for row in self.matrix]) != 0


def form_from_pairs(dim: int, pairs: dict[tuple[int, int], Fraction]) -> SymplecticForm:
    """Build a skew form from upper-triangular entries {(i, j): value}, 0-based, i < j."""
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), v in pairs.items():
        if not 0 <= i < j < dim:
            raise ValueError(f"pair ({i}, {j}) must satisfy 0 <= i < j < dim")
        v = Fraction(v)
        m[i][j] = v
        m[j][i] = -v
    return SymplecticForm(matrix=tuple(tuple(row) for row in m))


def _extended_table(L0: lc.LieAlgebra, omega: SymplecticForm) -> tuple[lc.Entry, ...]:
    """The structure table of [(t, x), (s, y)] = (omega(x, y), [x, y]): the
    added central generator Z is X_0, and X_k of L0 becomes X_{k+1}."""
    if omega.dim != L0.dim:
        raise ValueError("form dimension does not match the algebra")
    n = L0.dim
    table = {(i + 1, j + 1): [(k + 1, c) for k, c in terms] for i, j, terms in L0.entries}
    for i in range(n):
        for j in range(i + 1, n):
            w = omega.matrix[i][j]
            if w != 0:
                table.setdefault((i + 1, j + 1), []).insert(0, (0, w))
    return tuple((i, j, tuple(terms)) for (i, j), terms in sorted(table.items()))


def is_two_cocycle(L0: lc.LieAlgebra, omega: SymplecticForm) -> tuple[bool, tuple[int, int, int] | None]:
    """The cocycle identity is the Jacobi identity of the extended bracket
    (see ``central_extension``): the extended table's Jacobi sweep, whose
    first failing triple, shifted down by Z, is reported."""
    table = _extended_table(L0, omega)
    try:
        lc.jacobi_sweep(lc.LieAlgebra(dim=L0.dim + 1, entries=table,
                                      labels=("Z",) + L0.labels, step=0))
    except lc.JacobiViolation as exc:
        return False, tuple(t - 1 for t in exc.triple)
    return True, None


def central_extension(L0: lc.LieAlgebra, omega: SymplecticForm) -> lc.LieAlgebra:
    """One added central generator, indexed first:
    [(t, x), (s, y)] = (omega(x, y), [x, y]).

    The cocycle identity is the Jacobi identity of the extended bracket:
    on (X_i, X_j, X_k) the Z-component of the Jacobi residual is the cyclic
    sum of omega, the other components are L0's Jacobi residual (zero), and
    triples with Z vanish.  So one Jacobi sweep of the extended table both
    validates the extension and is ``is_two_cocycle``."""
    try:
        return lc.validate(L0.dim + 1, _extended_table(L0, omega),
                           labels=("Z",) + L0.labels)
    except lc.JacobiViolation as exc:
        raise NotACocycle(tuple(t - 1 for t in exc.triple)) from None


# ---------------------------------------------------------------------------
# Graph algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple finite graph; vertices are strings, edges 2-element subsets."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        vs = set(self.vertices)
        seen = set()
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1]:
                raise ValueError(f"not a simple edge: {e}")
            if e[0] not in vs or e[1] not in vs:
                raise ValueError(f"edge {e} uses unknown vertex")
            key = frozenset(e)
            if key in seen:
                raise ValueError(f"duplicate edge: {e}")
            seen.add(key)

    def components(self) -> list[set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        remaining = set(self.vertices)
        comps = []
        while remaining:
            start = min(remaining)
            comp, frontier = set(), {start}
            while frontier:
                v = frontier.pop()
                comp.add(v)
                frontier |= adj[v] - comp
            remaining -= comp
            comps.append(comp)
        return comps


def graph_lie_algebra(graph: Graph) -> lc.LieAlgebra:
    """2-step algebra of dim |V|+|E|: vertex generators bracket to edge generators.

    Generator order: vertices sorted, then edges sorted; deterministic tables.
    """
    verts = sorted(graph.vertices)
    edges = sorted(tuple(sorted(e)) for e in graph.edges)
    v_index = {v: i for i, v in enumerate(verts)}
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for e_pos, (a, b) in enumerate(edges):
        i, j = v_index[a], v_index[b]
        brackets[(min(i, j), max(i, j))] = {len(verts) + e_pos: Fraction(1)}
    labels = tuple(verts) + tuple(f"{a}^{b}" for a, b in edges)
    return lc.validate(len(verts) + len(edges), brackets, labels=labels)


def symplectic_exists_graph(graph: Graph) -> bool:
    """Even total dimension, and per connected component |E_c| <= |V_c|."""
    if (len(graph.vertices) + len(graph.edges)) % 2 != 0:
        return False
    for comp in graph.components():
        n_edges = sum(1 for a, b in graph.edges if a in comp and b in comp)
        if n_edges > len(comp):
            return False
    return True


# ---------------------------------------------------------------------------
# Fixed example families
# ---------------------------------------------------------------------------


def family_g0st(s: Fraction, t: Fraction) -> tuple[lc.LieAlgebra, SymplecticForm]:
    """Two-parameter 6-dimensional 2-step family with its anti-diagonal form.

    Relations [X6,X5] = s X3, [X6,X4] = (s+t) X2, [X5,X4] = t X1;
    form omega(X1,X6) = omega(X2,X5) = omega(X3,X4) = 1.
    """
    s, t = Fraction(s), Fraction(t)
    if s == 0 or t == 0:
        raise ZeroParameter("family parameters must be nonzero")
    brackets = {
        (4, 5): {2: -s},          # [X5, X6] = -s X3
        (3, 5): {1: -(s + t)},    # [X4, X6] = -(s+t) X2
        (3, 4): {0: -t},          # [X4, X5] = -t X1
    }
    L0 = lc.validate(6, brackets)
    omega = form_from_pairs(6, {(0, 5): Fraction(1), (1, 4): Fraction(1),
                                (2, 3): Fraction(1)})
    return L0, omega


def example_nonhomog() -> lc.LieAlgebra:
    """Fixed 8-dimensional 7-step algebra all of whose derivations are nilpotent.

    [X1,Xk] = X_{k+1} for k = 2..7, [X2,X3] = X6+X7, [X2,X4] = X7+X8,
    [X2,X5] = X8.
    """
    one = Fraction(1)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {
        (0, k): {k + 1: one} for k in range(1, 7)
    }
    brackets[(1, 2)] = {5: one, 6: one}
    brackets[(1, 3)] = {6: one, 7: one}
    brackets[(1, 4)] = {7: one}
    return lc.validate(8, brackets)


def nonhomog_form(a: Fraction, b: Fraction) -> SymplecticForm:
    """Skew form on the 8-dimensional example; nondegenerate iff a*b != 0."""
    a, b = Fraction(a), Fraction(b)
    return form_from_pairs(8, {
        (0, 7): a, (1, 4): a, (1, 5): a,
        (1, 6): b, (2, 5): -b, (3, 4): b,
    })
