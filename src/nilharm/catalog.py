"""Built-in algebra catalog and standard orbit setups.

Every entry passes full validation at construction time, once per process:
the ``CORE`` entries that ``core_algebras``, ``flat_orbits`` and
``get_algebra`` hand out are shared frozen values.  Flat entries pair an
algebra with the standard orbit data used by the grid suites.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import lie_core as lc
from . import orbits as ob
from . import symplectic as sp


def abelian(n: int) -> lc.LieAlgebra:
    return lc.validate(n, {})


def heisenberg3() -> lc.LieAlgebra:
    """dim 3, [X3, X2] = X1."""
    return lc.validate(3, {(1, 2): {0: Fraction(-1)}})


def g0st(s, t) -> tuple[lc.LieAlgebra, sp.SymplecticForm]:
    return sp.family_g0st(Fraction(s), Fraction(t))


def triangle_graph() -> sp.Graph:
    return sp.Graph(vertices=("a", "b", "c"),
                    edges=(("a", "b"), ("b", "c"), ("a", "c")))


def triangle_graph_algebra() -> lc.LieAlgebra:
    return sp.graph_lie_algebra(triangle_graph())


def nonhomog() -> lc.LieAlgebra:
    return sp.example_nonhomog()


def extended_g0st(s, t) -> lc.LieAlgebra:
    L0, omega = g0st(s, t)
    return sp.central_extension(L0, omega)


def extended_triangle() -> lc.LieAlgebra:
    """Triangle-graph algebra with an anti-diagonal pairing of vertex and
    edge generators; the middle coefficient 2 balances the vertex triple in
    the cocycle identity, and the form is nondegenerate."""
    L0 = triangle_graph_algebra()
    omega = sp.form_from_pairs(6, {(0, 5): Fraction(1), (1, 4): Fraction(2),
                                   (2, 3): Fraction(1)})
    return sp.central_extension(L0, omega)


def extended_nonhomog(a=1, b=1) -> lc.LieAlgebra:
    return sp.central_extension(nonhomog(), sp.nonhomog_form(Fraction(a), Fraction(b)))


# The fixed catalog entries, in report order: the exact-identity sweeps run
# over all of them, and every name resolves through get_algebra.
CORE = {
    "abelian4": lambda: abelian(4),
    "h3": heisenberg3,
    "g0st_1_1": lambda: g0st(1, 1)[0],
    "triangle": triangle_graph_algebra,
    "nonhomog": nonhomog,
    "ext_g0st_1_1": lambda: extended_g0st(1, 1),
    "ext_triangle": extended_triangle,
    "ext_nonhomog": extended_nonhomog,
}


@lru_cache(maxsize=None)
def _core(name: str) -> lc.LieAlgebra:
    """The ``CORE`` entry ``name``, built and validated once per process."""
    return CORE[name]()


def core_algebras() -> dict[str, lc.LieAlgebra]:
    """Catalog used by the exact-identity sweeps: a new dict of the shared
    algebras on each call."""
    return {name: _core(name) for name in CORE}


def flat_orbits() -> dict[str, ob.OrbitData]:
    """Catalog entries with flat generic orbits, with their standard orbit data."""
    return {name: ob.standard_orbit(_core(name))
            for name in ("h3", "ext_g0st_1_1", "ext_triangle", "ext_nonhomog")}


# The parameters of each parametrized family; every other name takes none.
FAMILY_PARAMETERS = {"abelian": ("n",), "g0st": ("s", "t"), "ext_g0st": ("s", "t"),
                     "ext_nonhomog": ("a", "b")}


def get_algebra(name: str, **params) -> lc.LieAlgebra:
    """Resolve a catalog name (CLI entry point).

    The parametrized families (``abelian<n>``, or ``abelian`` with n,
    ``g0st`` and ``ext_g0st`` with s, t, ``ext_nonhomog`` with a, b) come
    first; any other name is looked up in ``CORE``.  A parameter that the
    name does not take raises ``ValueError``.
    """
    name = name.lower()
    if not (name.startswith("abelian") or name in FAMILY_PARAMETERS or name in CORE):
        raise KeyError(f"unknown catalog algebra: {name}")
    takes = FAMILY_PARAMETERS.get(name, ())
    extra = [p for p in params if p not in takes]
    if extra:
        raise ValueError(f"catalog algebra {name} takes "
                         f"{', '.join(takes) or 'no parameters'}; got {', '.join(extra)}")
    if name.startswith("abelian"):
        return abelian(int(params.get("n", name.removeprefix("abelian") or 4)))
    if name == "g0st":
        return g0st(params.get("s", 1), params.get("t", 1))[0]
    if name == "ext_g0st":
        return extended_g0st(params.get("s", 1), params.get("t", 1))
    if name == "ext_nonhomog":
        return extended_nonhomog(params.get("a", 1), params.get("b", 1))
    return _core(name)
