"""Hypothesis strategies for random nilpotent algebras and rational points,
and the plain-Fraction references the integer kernels are tested against:
the BCH walk for the compiled group laws, the structure-constant loop for
the bracket and, rank by rank over its brackets, for the lower central
series dimensions, the cyclic sum of the form, each value by its full
double sum, for the cocycle check and the term-by-term value of a
polynomial at a rational point.  The row loops of the centre, the isotropy algebra and the
flag, and the rank-by-rank jump set, are the references of
``lie_core.bracket_kernel`` and of the single echelon in
``orbits.jump_indices``.  The rank-by-rank flag checks (whose first
violation is the one ``FlagSequence`` refuses a flag with), the [M | I]
split over the predual and centre, and the flatness rule "the centre is a
line and equals the isotropy algebra" are the references of the flag's one
coordinate map and of ``jump_indices``'s flatness test.  The
quotient-and-lift elimination on the derivation matrices is the reference of
the Engel certificate, which shares the flag's ascending construction."""

from fractions import Fraction
from math import lcm
from operator import mul

from hypothesis import strategies as st

from nilharm import bch, exactlinalg as ela, symplectic as sp
from nilharm.polymap import _power_schedule, terms
from nilharm.rationals import over_common_denominator

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
    """x * y by one walk of the Dynkin series in plain Fraction arithmetic,
    on ``fraction_bracket``."""
    return tuple(bch.bch_apply_generic(lambda u, v: fraction_bracket(L, u, v),
                                       max(L.step, 1), x, y))


def fraction_poly_value(p, point, bits: int) -> Fraction:
    """The packed polynomial p (fields of ``bits`` bits) at a rational point,
    one Fraction product per factor."""
    total = Fraction(0)
    for m, c in terms(p, len(point), bits):
        val = c
        for v, e in enumerate(m):
            for _ in range(e):
                val *= point[v]
        total += val
    return total


class FractionExactMap:
    """``polymap.ExactMap`` on Fraction vectors: each call puts x and y over
    their common denominators, each component sums its coefficients over
    their own common denominator and becomes one Fraction."""

    def __init__(self, polys, n: int, bits: int):
        polys = [terms(p, 2 * n, bits) for p in polys]
        monomials = [m for p in polys for m, _ in p]
        self._A = max((sum(m[:n]) for m in monomials), default=0)
        self._B = max((sum(m[n:]) for m in monomials), default=0)

        def x_part(m):
            return (self._A - sum(m[:n]),) + m[:n]

        def y_part(m):
            return (self._B - sum(m[n:]),) + m[n:]

        x_node, self._x_steps = _power_schedule({x_part(m) for m in monomials}, n + 1)
        y_node, self._y_steps = _power_schedule({y_part(m) for m in monomials}, n + 1)
        self._components = []
        for p in polys:
            den = lcm(*(c.denominator for _, c in p))
            self._components.append((
                den,
                tuple(c.numerator * (den // c.denominator) for _, c in p),
                tuple(x_node[x_part(m)] for m, _ in p),
                tuple(y_node[y_part(m)] for m, _ in p)))

    @staticmethod
    def _parts(coords, steps) -> tuple[int, list[int]]:
        d, numerators = over_common_denominator(coords)
        variables = [d] + numerators
        vals = [1]
        for parent, v in steps:
            vals.append(vals[parent] * variables[v])
        return d, vals

    def __call__(self, x, y) -> tuple[Fraction, ...]:
        dx, xv = self._parts(x, self._x_steps)
        dy, yv = self._parts(y, self._y_steps)
        lift = dx ** self._A * dy ** self._B
        return tuple(
            Fraction(sum(map(mul, coeffs, map(mul, map(xv.__getitem__, xs),
                                              map(yv.__getitem__, ys)))),
                     den * lift)
            for den, coeffs, xs, ys in self._components)


def fraction_bracket(L, x, y) -> tuple[Fraction, ...]:
    """[x, y] by one Fraction product per structure constant."""
    out = [Fraction(0)] * L.dim
    for i, j, terms in L.entries:
        cross = x[i] * y[j] - x[j] * y[i]
        if cross:
            for k, c in terms:
                out[k] += cross * c
    return tuple(out)


def form_value(omega, x, y) -> Fraction:
    """omega(x, y) = sum_ij x_i omega_ij y_j over the nonzero entries."""
    n = omega.dim
    return sum((x[i] * omega.matrix[i][j] * y[j]
                for i in range(n) for j in range(n) if omega.matrix[i][j] != 0),
               Fraction(0))


def fraction_cocycle_check(L0, omega) -> tuple[bool, tuple[int, int, int] | None]:
    """The cyclic sum omega(e_i, [e_j, e_k]) + ... over all basis triples,
    evaluated by the form's full double sum; the first violation, 1-based."""
    n = L0.dim
    e = [tuple(Fraction(int(t == s)) for t in range(n)) for s in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (form_value(omega, e[i], L0.basis_bracket(j, k))
                        + form_value(omega, e[j], L0.basis_bracket(k, i))
                        + form_value(omega, e[k], L0.basis_bracket(i, j))) != 0:
                    return False, (i + 1, j + 1, k + 1)
    return True, None


def reference_series_dims(L) -> tuple[int, ...]:
    """Dimensions of g^0 = g, g^k = [g, g^{k-1}] until they stop falling:
    g^k is spanned by the Fraction brackets [X_i, v] over a basis v of
    g^{k-1}, each bracket kept when it raises the rank."""
    e = [tuple(Fraction(int(t == s)) for t in range(L.dim)) for s in range(L.dim)]
    dims, current = [L.dim], e
    while True:
        nxt = []
        for x in e:
            for v in current:
                w = fraction_bracket(L, x, v)
                if ela.rank(nxt + [w]) > len(nxt):
                    nxt.append(w)
        dims.append(len(nxt))
        if len(nxt) in (0, len(current)):
            return tuple(dims)
        current = nxt


def in_span(vectors, v) -> bool:
    """v lies in the span of ``vectors``: adding it leaves the rank unchanged."""
    return ela.rank(list(vectors) + [v]) == ela.rank(list(vectors))


def reference_flag_violations(L, vectors) -> list[str]:
    """The flag checks by rank: one rank per leading prefix, then one span
    basis per lower ideal and one membership test per bracket [X_i, flag_j]."""
    n = L.dim
    if len(vectors) != n:
        return [f"expected {n} vectors, got {len(vectors)}"]
    for j in range(1, n + 1):
        if ela.rank(list(vectors[:j])) != j:
            return [f"leading {j} vectors are dependent"]
    out = []
    for j in range(1, n + 1):
        lower = ela.span_basis(list(vectors[:j - 1]))
        for i in range(n):
            e_i = tuple(Fraction(int(t == i)) for t in range(n))
            if not in_span(lower, fraction_bracket(L, e_i, vectors[j - 1])):
                out.append(f"[X{i + 1}, flag_{j}] escapes the lower ideal")
    return out


def reference_split(orbit, w) -> tuple[tuple[Fraction, ...], Fraction]:
    """(predual coordinates, central coordinate) of w: one rref of [M | I],
    M with the predual basis and then the first flag vector as columns."""
    cols = list(orbit.predual_basis) + [orbit.flag.vectors[0]]
    n = len(cols)
    red, piv = ela.rref([[c[r] for c in cols] + [Fraction(int(t == r)) for t in range(n)]
                         for r in range(n)])
    assert piv == list(range(n)), "split basis is not a basis"
    x = [sum((row[n + t] * w[t] for t in range(n)), Fraction(0)) for row in red]
    return tuple(x[:-1]), x[-1]


def reference_flat(L, iso) -> bool:
    """Flat when the centre is a line and equals the isotropy algebra."""
    center = reference_center(L)
    return (len(center) == 1
            and ela.rank(list(iso)) == 1 == ela.rank(list(iso) + center))


def reference_center(L) -> list[tuple[Fraction, ...]]:
    """{X : [X, g] = 0}: one row per (basis vector X_j, coordinate k) of the
    map X -> [X, X_j], and one exact nullspace."""
    rows = []
    for j in range(L.dim):
        cols = [L.basis_bracket(i, j) for i in range(L.dim)]
        for k in range(L.dim):
            row = [cols[i][k] for i in range(L.dim)]
            if any(row):
                rows.append(row)
    return ela.nullspace(rows, n_cols=L.dim)


def reference_isotropy(L, xi0) -> list[tuple[Fraction, ...]]:
    """{X : xi0([X, .]) = 0}: one row xi0([X_i, X_j]) per j, one nullspace."""
    rows = []
    for j in range(L.dim):
        row = [xi0.pair(L.basis_bracket(i, j)) for i in range(L.dim)]
        if any(row):
            rows.append(row)
    return ela.nullspace(rows, n_cols=L.dim)


def reference_jump_set(L, flag, xi0) -> tuple[int, ...]:
    """{j : X_j escapes g_{j-1} + isotropy}, by two ranks per flag vector."""
    iso = reference_isotropy(L, xi0)
    jump = []
    for j in range(1, L.dim + 1):
        lower = list(flag.vectors[:j - 1]) + list(iso)
        if ela.rank(lower + [flag.vectors[j - 1]]) > ela.rank(lower):
            jump.append(j)
    return tuple(jump)


def reference_flag(L, preferred_first=None) -> tuple[tuple[Fraction, ...], ...]:
    """The Jordan-Holder flag vectors: at each step the span of the chosen
    vectors is reduced twice (its basis, then that basis's rref), the central
    preimage comes from its own row loop, and each candidate is tested for
    membership by rank."""
    n = L.dim
    chosen = [] if preferred_first is None else [preferred_first]
    while len(chosen) < n:
        span = ela.span_basis(chosen)
        red, piv = ela.rref(span)

        def reduce_mod_span(w):
            w = list(w)
            for r, pc in enumerate(piv):
                f = w[pc]
                if f:
                    for t in range(n):
                        w[t] -= f * red[r][t]
            return w

        rows = []
        for i in range(n):
            reduced_cols = [reduce_mod_span(L.basis_bracket(i, s)) for s in range(n)]
            for k in range(n):
                if k in piv:
                    continue
                row = [reduced_cols[s][k] for s in range(n)]
                if any(row):
                    rows.append(row)
        candidates = ela.nullspace(rows, n_cols=n)
        chosen.append(next(v for v in ela.span_basis(candidates)
                           if not in_span(span, v)))
    return tuple(chosen)


def reference_engel(derivs) -> tuple[bool, tuple | None, int | None]:
    """(success, flag, failed_stage) of the Engel certificate by explicit
    quotients: at each stage one vector of the common kernel of the
    derivations on g / span(flag so far), in quotient coordinates, lifted
    through the kept unit vectors; its pivot column is then eliminated from
    every matrix."""
    n = derivs.algebra.dim
    mats = [list(map(list, D)) for D in derivs.basis]
    lifts = [tuple(Fraction(int(t == s)) for t in range(n)) for s in range(n)]
    flag = []
    dim_q = n
    for stage in range(n):
        kernel = ela.nullspace([row for M in mats for row in M], n_cols=dim_q)
        if not kernel:
            return False, None, stage
        v = kernel[0]
        flag.append(tuple(sum((v[c] * lifts[c][t] for c in range(dim_q)), Fraction(0))
                          for t in range(n)))
        if dim_q == 1:
            break
        p = next(c for c in range(dim_q) if v[c] != 0)
        keep = [c for c in range(dim_q) if c != p]
        new_mats = []
        for M in mats:
            cols = []
            for c in keep:
                w = [M[r][c] for r in range(dim_q)]
                f = w[p] / v[p]
                if f:
                    w = [a - f * b for a, b in zip(w, v)]
                cols.append([w[r] for r in keep])
            new_mats.append([[cols[cc][rr] for cc in range(len(keep))]
                             for rr in range(len(keep))])
        mats = new_mats
        lifts = [lifts[c] for c in keep]
        dim_q -= 1
    return True, tuple(flag), None
