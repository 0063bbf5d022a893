"""The lattice layer of grids: alignment, shifts, offset tables and offset
positions, each against the per-module code it replaced, kept here as a
reference (equality is exact: these are index operations)."""

import numpy as np
import pytest

from nilharm.grids import Grid, lattice_shift, offset_values

SIZES = [8, 32, 64]


def _random_complex(shape, seed):
    gen = np.random.default_rng(seed)
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


# -- references ------------------------------------------------------------------


def shift_by_lattice(grid, values, v):
    """twist._shift_by_lattice: values at (node - v), zero fill, per axis."""
    steps = np.round(v / grid.h).astype(int)
    out = values
    for axis, s in enumerate(steps):
        shifted = np.zeros_like(out)
        n = grid.points
        if s >= 0:
            src = slice(0, n - s) if s else slice(None)
            dst = slice(s, n) if s else slice(None)
        else:
            src = slice(-s, n)
            dst = slice(0, n + s)
        sel_src = [slice(None)] * out.ndim
        sel_dst = [slice(None)] * out.ndim
        sel_src[axis] = src
        sel_dst[axis] = dst
        shifted[tuple(sel_dst)] = out[tuple(sel_src)]
        out = shifted
    return out.reshape(-1)


def rep_shift(f, s):
    """The 1-d shift of pedersen's rep_apply: f(x + s h), zero fill."""
    n = len(f)
    shifted = np.zeros_like(np.asarray(f, dtype=complex))
    if s >= 0:
        shifted[:n - s or None] = f[s:]
    else:
        shifted[-s:] = f[:n + s]
    return shifted


def fft_offset_table(values):
    """The np.ix_ offset table of b1 in twist._convolve_fft_2d."""
    n = values.shape[0]
    src = np.arange(-(n - 1), n) + n // 2
    valid = (src >= 0) & (src < n)
    d1 = np.zeros((2 * n - 1, 2 * n - 1), dtype=complex)
    take = np.clip(src, 0, n - 1)
    d1[np.ix_(valid, valid)] = values[np.ix_(take[valid], take[valid])]
    return d1


def assemble_offset_table(values):
    """The b_offs table of pedersen's transform: p-offsets on axis 1 only."""
    n = values.shape[0]
    src = np.arange(-(n - 1), n) + n // 2
    valid = (src >= 0) & (src < n)
    b_offs = np.zeros((n, 2 * n - 1), dtype=complex)
    b_offs[:, valid] = values[:, src[valid]]
    return b_offs


def inverse_diagonals(matrix):
    """The per-diagonal loop of pedersen's inverse."""
    n = matrix.shape[0]
    diags = np.zeros((n, n), dtype=complex)
    for mi in range(n):
        s = mi - n // 2
        j = np.arange(s, n) if s >= 0 else np.arange(0, n + s)
        diags[j, mi] = matrix[j - s, j]
    return diags


def lattice_index(grid, stride, shift, span):
    """czdecomp's row-major index of every node in a (span,)^d table."""
    idx = np.indices(grid.shape).reshape(grid.dim, -1).T * stride + shift
    return idx @ (span ** np.arange(grid.dim - 1, -1, -1))


# -- alignment -------------------------------------------------------------------


def test_lattice_steps_on_both_sides_of_the_tolerance():
    grid = Grid(2, 8.0, 32)                     # h = 0.5
    h = grid.h
    assert grid.lattice_steps((1.0, -2.5)) == (2, -5)
    assert grid.lattice_steps((0.0, 0.0)) == (0, 0)
    assert grid.lattice_steps((17.0, 0.0)) == (34, 0)
    for off in (0.9e-9, -0.9e-9):
        assert grid.lattice_steps((3 * h + off * h, -h)) == (3, -1)
    for off in (1.1e-9, -1.1e-9):
        assert grid.lattice_steps((3 * h + off * h, -h)) is None
        assert grid.lattice_steps((h, -h + off * h)) is None
    assert grid.lattice_steps((0.3, 0.0)) is None
    assert grid.lattice_steps((np.nan, 0.0)) is None
    assert grid.lattice_steps((np.inf, 0.0)) is None
    assert grid.axis_grid().lattice_steps(-4 * h) == (-4,)


# -- shifts -----------------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_lattice_shift_matches_the_delta_action_shift(n):
    grid = Grid(2, 8.0, n)
    values = _random_complex(grid.shape, n)
    for steps in [(0, 0), (1, -1), (n // 2, 3), (-(n - 1), n - 1), (5, -(n // 2))]:
        v = np.array(steps) * grid.h
        assert np.array_equal(lattice_shift(values, steps).reshape(-1),
                              shift_by_lattice(grid, values, v))


@pytest.mark.parametrize("n", SIZES)
def test_lattice_shift_matches_the_representation_shift(n):
    f = _random_complex(n, n + 1)
    for s in (0, 1, -1, n // 2, -(n // 2), n - 1, -(n - 1)):
        assert np.array_equal(lattice_shift(f, (-s,)), rep_shift(f, s))


@pytest.mark.parametrize("n", SIZES)
def test_lattice_shift_sizes(n):
    values = _random_complex((n, n), 2 * n)
    for size in (0, 1, n // 2, n - 1, n, n + 3):
        for s in {size, -size}:
            for steps in ((s, 0), (0, s)):
                out = lattice_shift(values, steps)
                assert out.shape == values.shape
                if size >= n:
                    assert not np.any(out)
                else:
                    grid = Grid(2, 8.0, n)
                    ref = shift_by_lattice(grid, values, np.array(steps) * grid.h)
                    assert np.array_equal(out.reshape(-1), ref)


# -- offset tables ------------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_offset_values_match_the_convolution_and_transform_tables(n):
    values = _random_complex((n, n), 3 * n)
    assert np.array_equal(offset_values(values, (0, 1)), fft_offset_table(values))
    assert np.array_equal(offset_values(values, (1,)), assemble_offset_table(values))


@pytest.mark.parametrize("n", SIZES)
def test_offset_gather_matches_the_inverse_diagonal_loop(n):
    matrix = _random_complex((n, n), 4 * n)
    j = np.arange(n)[:, None]
    gathered = offset_values(matrix, (0,))[j - np.arange(n)[None, :] + (n - 1), j]
    assert np.array_equal(gathered, inverse_diagonals(matrix))


@pytest.mark.parametrize("n", SIZES)
def test_offset_nodes_are_the_node_differences(n):
    grid = Grid(2, 8.0, n)
    u = np.arange(-(n - 1), n) * grid.h
    mesh = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
    assert np.array_equal(grid.offset_nodes(), mesh.reshape(-1, 2))
    assert np.array_equal(grid.offset_axis, u)


@pytest.mark.parametrize("dim, n_z, n_u", [(2, 64, 32), (2, 32, 32), (2, 8, 32),
                                           (1, 16, 64), (3, 8, 16)])
def test_offset_positions_match_the_hormander_index(dim, n_z, n_u):
    grid, u_grid = Grid(dim, 8.0, n_z), Grid(dim, 8.0, n_u)
    fine = grid if n_z >= n_u else u_grid
    P = fine.points
    span = 2 * P - 1
    table = fine.offset_nodes()
    z_index = grid.offset_positions(fine) + (len(table) - 1) // 2
    u_index = u_grid.offset_positions(fine)
    assert np.array_equal(z_index, lattice_index(grid, P // n_z, P - 1, span))
    assert np.array_equal(u_index, lattice_index(u_grid, P // n_u, 0, span))
    # The table entry at z_index - u_index is the offset z - u, exactly.
    diff = table[z_index[:, None] - u_index[None, :]]
    assert np.array_equal(diff, grid.nodes()[:, None, :] - u_grid.nodes()[None, :, :])
