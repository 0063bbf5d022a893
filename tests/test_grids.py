"""Grid geometry, sampled symbols, and file round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilharm import czdecomp as cz, fileio, funcs, multipliers as mult, verify
from nilharm.grids import (Grid, GridMismatch, SampledSymbol, TorusGridFunction,
                           fold_axes, lp_norm, symbol_check_involution,
                           torus_lp_norms, torus_sup_distance)


# -- dense references ---------------------------------------------------------------


def dense_torus_lp_norm(values, grid, p):
    """torus_lp_norms(fun, [p])[0] on the whole (angles,) + grid.shape array at once."""
    cell = grid.cell_volume / values.shape[0]
    if p == float("inf"):
        return float(np.max(np.abs(values)))
    return float((cell * np.sum(np.abs(values) ** p)) ** (1.0 / p))


def dense_random_torus(grid, angles, seed):
    """Standard normal real and imaginary parts on (circle) x (grid), drawn
    as two whole arrays."""
    gen = np.random.default_rng(seed)
    return (gen.standard_normal((angles,) + grid.shape)
            + 1j * gen.standard_normal((angles,) + grid.shape))


def dense_lift(psi, angles):
    """psi^sharp as one array: psi times the reciprocal 1 / t_k of each angle."""
    t = np.exp(2j * np.pi * np.arange(angles) / angles)
    return psi.values[None, ...] * (1 / t).reshape((angles,) + (1,) * psi.grid.dim)


def torus(grid, values):
    return TorusGridFunction(grid=grid, angles=len(values), slabs=lambda: values)


def torus_inputs(grid, angles):
    """A lifted Gaussian, a lifted Hermite symbol and the seeded random
    torus function, as dense arrays."""
    return {
        "gaussian": dense_lift(funcs.sample(grid, funcs.gaussian((0.2, -0.5), 0.9, (0.3, 0.1))),
                               angles),
        "hermite": dense_lift(funcs.hermite_family(grid, 3)[2], angles),
        "random": dense_random_torus(grid, angles, 7),
    }


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(2, 8.0, 7)
    with pytest.raises(ValueError):
        Grid(2, 8.0, 48)   # not a power of two
    with pytest.raises(ValueError):
        Grid(0, 8.0, 16)
    with pytest.raises(ValueError):
        Grid(2, -1.0, 16)


@pytest.mark.parametrize("half_width", [float("inf"), float("nan"), 1e308])
def test_grid_rejects_non_finite_half_width_or_step(half_width):
    # 1e308 is finite, but its step 2L/N overflows to inf.
    with pytest.raises(ValueError, match="half width must be finite and positive"):
        Grid(2, half_width, 16)


def test_grid_geometry():
    g = Grid(2, 8.0, 16)
    assert g.h == 1.0
    assert g.axis[0] == -8.0 and g.axis[-1] == 7.0
    assert g.axis[g.points // 2] == 0.0
    assert g.nodes().shape == (256, 2)


def test_node_set_symmetric_up_to_boundary():
    g = Grid(1, 4.0, 8)
    interior = g.axis[1:]
    assert np.allclose(sorted(-interior), sorted(interior))


def test_symbol_shape_and_finiteness(grid32):
    with pytest.raises(ValueError):
        SampledSymbol(grid32, np.zeros((3, 3)))
    bad = np.zeros(grid32.shape)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        SampledSymbol(grid32, bad)


def test_symbol_is_a_key_by_identity(grid32):
    sym = funcs.sample(grid32, funcs.gaussian())
    twin = SampledSymbol(grid32, sym.values)
    assert sym == sym and hash(sym) == hash(sym)
    assert sym != twin
    keyed = {sym: 1, twin: 2}
    assert keyed[sym] == 1 and keyed[twin] == 2


def test_symbol_difference_is_the_difference_of_values(grid32):
    a, b = funcs.gaussian_family(grid32, 2)
    diff = a - b
    assert diff.grid == a.grid and np.array_equal(diff.values, a.values - b.values)


def test_lp_norm_scaling(grid32):
    sym = funcs.sample(grid32, funcs.gaussian())
    doubled = SampledSymbol(grid32, 2.0 * sym.values)
    for p in (1.0, 2.0, 4.0):
        assert np.isclose(lp_norm(doubled, p), 2.0 * lp_norm(sym, p))
    assert np.isclose(lp_norm(sym, 2, density=0.25), 0.5 * lp_norm(sym, 2))


def test_check_involution_is_involutive(grid32):
    sym = funcs.sample(grid32, funcs.gaussian((0.4, -0.2), 0.8, (0.3, 0.7)))
    twice = symbol_check_involution(symbol_check_involution(sym))
    assert np.max(np.abs(twice.values - sym.values)) <= 1e-12


def test_torus_function_shape(grid32):
    with pytest.raises(ValueError):
        TorusGridFunction(grid=grid32, angles=4,
                          slabs=lambda: np.zeros((4,) + grid32.shape))
    with pytest.raises(TypeError):
        TorusGridFunction(grid=grid32, angles=8, slabs=np.ones((8,) + grid32.shape))
    for bad in (np.ones((8, 16, 16)), np.ones((7,) + grid32.shape),
                np.ones((9,) + grid32.shape)):
        with pytest.raises(ValueError, match="shape mismatch"):
            list(TorusGridFunction(grid=grid32, angles=8, slabs=lambda: bad))
    fun = torus(grid32, np.ones((8,) + grid32.shape))
    assert np.isclose(torus_lp_norms(fun, [2])[0],
                      np.sqrt(grid32.cell_volume * 32 * 32))
    # Every pass starts afresh.
    assert torus_lp_norms(fun, [2])[0] == torus_lp_norms(fun, [2])[0]
    assert len(list(fun)) == len(list(fun)) == 8


@pytest.mark.parametrize("points", [32, 64])
@pytest.mark.parametrize("angles", [8, 64])
def test_torus_lp_norm_matches_dense_reference(points, angles):
    # Slab sums combined by halves are np.sum's pairwise order on the dense
    # array when the slab size (> 128) and the angle count are powers of two.
    grid = Grid(2, 8.0, points)
    for name, values in torus_inputs(grid, angles).items():
        for p in (1.0, 1.5, 2.0, 4.0, float("inf")):
            assert torus_lp_norms(torus(grid, values), [p])[0] \
                == dense_torus_lp_norm(values, grid, p), (name, p)


@pytest.mark.parametrize("points, angles", [(32, 8), (64, 64), (16, 24)])
def test_torus_lp_norms_make_one_pass_with_each_norm_bit_for_bit(points, angles):
    grid = Grid(2, 8.0, points)
    ps = (1.0, 1.5, 2.0, 4.0, float("inf"))
    for values in torus_inputs(grid, angles).values():
        passes = []
        fun = TorusGridFunction(grid, angles, lambda: passes.append(1) or values)
        norms = torus_lp_norms(fun, ps)
        assert len(passes) == 1
        assert norms == [torus_lp_norms(torus(grid, values), [p])[0] for p in ps]
        if points >= 32 and angles in (8, 64):
            assert norms == [dense_torus_lp_norm(values, grid, p) for p in ps]


@pytest.mark.parametrize("points, angles", [(8, 8), (8, 64), (32, 12), (16, 24)])
def test_torus_lp_norm_within_bound_of_dense_reference(points, angles):
    # A slab of at most 128 nodes, or an angle count that is not a power of
    # two, sums in another order than np.sum on the dense array; both are
    # pairwise sums of positive terms, so they agree to a few ulps.
    grid = Grid(2, 8.0, points)
    for values in torus_inputs(grid, angles).values():
        for p in (1.0, 1.5, 2.0, 4.0):
            ref = dense_torus_lp_norm(values, grid, p)
            assert abs(torus_lp_norms(torus(grid, values), [p])[0] - ref) <= 1e-14 * ref
        assert torus_lp_norms(torus(grid, values), [float("inf")])[0] \
            == dense_torus_lp_norm(values, grid, float("inf"))


def test_torus_sup_distance(grid32):
    values = torus_inputs(grid32, 8)
    f, g = torus(grid32, values["random"]), torus(grid32, values["gaussian"])
    assert torus_sup_distance(f, g) \
        == float(np.max(np.abs(values["random"] - values["gaussian"])))
    assert torus_sup_distance(f, f) == 0.0
    with pytest.raises(GridMismatch):
        torus_sup_distance(f, mult.sharp_map(funcs.sample(grid32, funcs.gaussian()), 16))
    with pytest.raises(GridMismatch):
        torus_sup_distance(f, torus(Grid(2, 4.0, 32), values["random"]))


# -- per-axis folds -------------------------------------------------------------------

# The arguments of funcs.gaussian_family, hermite_family and the bumps below.
FAMILY = [((0.5, -0.3), 1.0, (0.4, 0.1)), ((-0.2, 0.8), 0.8, (-0.3, 0.2)),
          ((1.1, 0.4), 1.3, (0.0, -0.5)), ((-0.7, -0.6), 0.9, (0.6, 0.0)),
          ((0.0, 0.0), 1.1, (0.2, 0.3))]
HERMITE_ORDERS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]
# A negative height, a bump across the box edge x_0 = 8, and the CZ suite's.
BUMPS = [((0.0, 0.0), 1.5, 4.0), ((0.3, -1.2), 0.5, -1.3), ((7.5, -3.0), 1.5, -2.0),
         ((-2.0, 1.0), 1.0, 6.0), ((2.5, -2.5), 2.0, 2.0)]
POWERS = [(3.0, 1.0, 4.0), (3.0, 1.0, 5.0)]


def summed_gaussian(center, sigma, momentum):
    def ev(pts):
        z = (pts - np.asarray(center)) / sigma
        out = np.exp(-0.5 * np.sum(z * z, axis=-1)).astype(complex)
        return out * np.exp(1j * np.sum(pts * np.asarray(momentum), axis=-1))
    return ev


def summed_hermite(orders):
    def ev(pts):
        out = np.exp(-0.5 * np.sum(pts ** 2, axis=-1)).astype(complex)
        for axis, n in enumerate(orders):
            if n:
                out = out * np.polynomial.hermite_e.hermeval(pts[..., axis], [0.0] * n + [1.0])
        return out
    return ev


def summed_bump(center, radius, height):
    def ev(pts):
        r2 = np.sum(((pts - np.asarray(center)) / radius) ** 2, axis=-1)
        inside = r2 < 1.0
        safe = np.where(inside, r2, 0.0)
        return (height * np.where(inside, np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)).astype(complex)
    return ev


def summed_power(exponent, inner, outer):
    def ev(pts):
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        mask = (r > inner) & (r < outer)
        return np.where(mask, np.where(mask, r, 1.0) ** (-exponent), 0.0).astype(complex)
    return ev


def summed_f3(pts):
    return (np.exp(-np.sum(pts ** 2, axis=-1)) * (1.0 + np.cos(pts[..., 0]) ** 2)).astype(complex)


def bits(values):
    return np.ascontiguousarray(values).view(np.int64)


FOLD_SIZES = [8, 32, 128, 256]


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_fold_axes_is_the_last_axis_reduction_bit_for_bit(n):
    # Every array whose last axis an evaluator folds.  pts * (0.0, -0.5) holds
    # (-0.0, -0.0) where x_1 = 0 and x_0 < 0; np.sum gives +0.0 there, so a
    # fold that starts from the first column instead of +0.0 fails here.
    pts = Grid(2, 8.0, n).nodes()
    summed = [pts ** 2, pts * pts]
    for center, sigma, momentum in FAMILY:
        z = (pts - np.asarray(center)) / sigma
        summed += [z * z, pts * np.asarray(momentum)]
    summed += [((pts - np.asarray(c)) / r) ** 2 for c, r, _ in BUMPS]
    negative_zeros = np.all((pts * np.array([0.0, -0.5]) == 0.0)
                            & np.signbit(pts * np.array([0.0, -0.5])), axis=-1)
    assert np.any(negative_zeros)
    for terms in summed:
        assert np.array_equal(bits(fold_axes(np.add, terms)), bits(np.sum(terms, axis=-1)))
    for p in (pts, -pts):
        mag = np.abs(p)
        assert np.array_equal(bits(fold_axes(np.maximum, mag)), bits(np.max(mag, axis=-1)))


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_evaluators_match_their_last_axis_sums_bit_for_bit(n):
    grid = Grid(2, 8.0, n)
    pts = grid.nodes()
    pairs = [(funcs.gaussian(*args), summed_gaussian(*args)) for args in FAMILY]
    pairs += [(funcs.hermite_gaussian(o), summed_hermite(o)) for o in HERMITE_ORDERS]
    pairs += [(funcs.smooth_bump(*args), summed_bump(*args)) for args in BUMPS]
    pairs += [(funcs.truncated_power(*args), summed_power(*args)) for args in POWERS]
    for ev, ref in pairs:
        assert np.array_equal(bits(ev(pts)), bits(ref(pts)))
    families = funcs.gaussian_family(grid, 5) + funcs.hermite_family(grid, 7)
    refs = [summed_gaussian(*args) for args in FAMILY] + [summed_hermite(o) for o in HERMITE_ORDERS]
    for sym, ref in zip(families, refs, strict=True):
        assert np.array_equal(bits(sym.values), bits(ref(pts).reshape(grid.shape)))
    f3 = verify.cz_test_functions(grid)[2]
    assert np.array_equal(bits(f3.values), bits(summed_f3(pts).reshape(grid.shape)))
    gauge = cz.PseudoDistance(dim=2)
    for p in (pts, -pts, grid.offset_nodes()):
        assert np.array_equal(bits(gauge.value(p)), bits(np.max(np.abs(p), axis=-1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6), st.integers(1, 4))
def test_symbol_file_round_trip(log2n, scale):
    g = Grid(1, float(scale), 2 ** max(log2n, 3))
    gen = np.random.default_rng(log2n)
    vals = gen.standard_normal(g.shape) + 1j * gen.standard_normal(g.shape)
    sym = SampledSymbol(g, vals)
    doc = fileio.symbol_to_dict(sym)
    back = fileio.symbol_from_dict(json.loads(json.dumps(doc)))
    assert back.grid.same_box(g)
    assert np.array_equal(back.values, sym.values)
