"""Grid geometry, sampled symbols, and file round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilharm import fileio, funcs, multipliers as mult
from nilharm.grids import (Grid, GridMismatch, SampledSymbol, TorusGridFunction,
                           lp_norm, symbol_check_involution,
                           torus_lp_norm, torus_lp_norms, torus_sup_distance)


# -- dense references ---------------------------------------------------------------


def dense_torus_lp_norm(values, grid, p):
    """torus_lp_norm on the whole (angles,) + grid.shape array at once."""
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
    t = np.exp(2j * np.pi * np.arange(angles) / angles)
    return psi.values[None, ...] / t.reshape((angles,) + (1,) * psi.grid.dim)


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
    assert np.isclose(torus_lp_norm(fun, 2),
                      np.sqrt(grid32.cell_volume * 32 * 32))
    # Every pass starts afresh.
    assert torus_lp_norm(fun, 2) == torus_lp_norm(fun, 2)
    assert len(list(fun)) == len(list(fun)) == 8


@pytest.mark.parametrize("points", [32, 64])
@pytest.mark.parametrize("angles", [8, 64])
def test_torus_lp_norm_matches_dense_reference(points, angles):
    # Slab sums combined by halves are np.sum's pairwise order on the dense
    # array when the slab size (> 128) and the angle count are powers of two.
    grid = Grid(2, 8.0, points)
    for name, values in torus_inputs(grid, angles).items():
        for p in (1.0, 1.5, 2.0, 4.0, float("inf")):
            assert torus_lp_norm(torus(grid, values), p) \
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
        assert norms == [torus_lp_norm(torus(grid, values), p) for p in ps]
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
            assert abs(torus_lp_norm(torus(grid, values), p) - ref) <= 1e-14 * ref
        assert torus_lp_norm(torus(grid, values), float("inf")) \
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
