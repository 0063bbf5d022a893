"""Pseudo-distances, coverings, twisted decompositions, kernel estimates."""

import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilharm import czdecomp as cz, funcs, seeds, twist as tw
from nilharm.grids import Grid, GridMismatch, SampledSymbol


@pytest.fixture(scope="module")
def pd_h3(h3_twist):
    return cz.calibrate(cz.default_pseudo_distance(h3_twist), h3_twist, seed=0)


# -- references ------------------------------------------------------------------


def indicator_sup_annulus(inner, outer):
    """Indicator of the sup-norm annulus inner < max|x_j| < outer."""

    def ev(pts):
        sup = np.max(np.abs(np.asarray(pts, dtype=float)), axis=-1)
        return np.where((sup > inner) & (sup < outer), 1.0, 0.0).astype(complex)

    return ev


def window_sum(arr, s):
    """Boundary-clipped cube sums of lattice half-width s, one fresh cumsum
    pass per axis."""
    if s <= 0:
        return arr if s == 0 else np.zeros_like(arr)
    out = arr
    for axis in range(arr.ndim):
        c = np.cumsum(out, axis=axis)
        n = out.shape[axis]
        idx_hi = np.minimum(np.arange(n) + s, n - 1)
        idx_lo = np.arange(n) - s - 1
        hi = np.take(c, idx_hi, axis=axis)
        lo = np.where(
            (idx_lo >= 0).reshape([-1 if a == axis else 1 for a in range(arr.ndim)]),
            np.take(c, np.maximum(idx_lo, 0), axis=axis),
            0.0,
        )
        out = hi - lo
    return out


def reference_ladder(vals, grid, level):
    """Maximal function and stopping radii with every ladder radius summing
    the grid twice: over the values and over an all-ones array."""
    ones = np.ones(grid.shape)
    maximal = np.zeros(grid.shape)
    stop_radius = np.full(grid.shape, -1.0)
    for r in cz._radius_ladder(grid):
        s = cz._window_step(grid, r)
        avg = window_sum(vals, s) / window_sum(ones, s)
        maximal = np.maximum(maximal, avg)
        stop_radius = np.where(avg > level, r, stop_radius)
    return maximal, stop_radius


def full_scan_cover(f, level, pd):
    """cz_cover with the reference ladder and the greedy selection scanning
    every node in decreasing maximal value, skipping those outside the level
    set."""
    vals = f.values.real
    grid = f.grid
    c_m = pd.quasi_constant if pd.quasi_constant is not None else 2.0
    expansion = max(3.0, c_m * c_m)
    maximal, stop_radius = reference_ladder(vals, grid, level)
    omega = maximal > level
    covered = np.zeros(grid.shape, dtype=bool)
    multiplicity = np.zeros(grid.shape, dtype=np.int32)
    balls = []
    cell = grid.cell_volume
    total_ball_measure = 0.0
    mean_bound = 0.0
    for flat in np.argsort(-maximal.reshape(-1), kind="stable"):
        idx = np.unravel_index(flat, grid.shape)
        if not omega[idx] or covered[idx]:
            continue
        r_sel = expansion * stop_radius[idx]
        s = cz._window_step(grid, r_sel)
        sel = tuple(slice(max(0, i - s), min(grid.points, i + s + 1)) for i in idx)
        covered[sel] = True
        multiplicity[sel] += 1
        measure = int(np.prod([s.stop - s.start for s in sel])) * cell
        total_ball_measure += measure
        mean_bound = max(mean_bound, float(np.sum(vals[sel]) * cell / measure) / level)
        balls.append((tuple(int(i) for i in idx),
                      tuple(float(grid.axis[i]) for i in idx), float(r_sel)))
    f_mass = float(np.sum(vals) * cell)
    return cz.Covering(grid=grid, level=level, balls=tuple(balls),
                       mean_bound=mean_bound,
                       mass_ratio=total_ball_measure * level / f_mass if f_mass > 0 else 0.0,
                       expansion=expansion, multiplicity=multiplicity)


def full_grid_decompose(f, level, covering, twist):
    """cz_decompose's good values, bad parts and report with its own
    multiplicity count and every bad part on a full-grid array: the
    decomposition loop as it ran before the parts were kept on their balls."""
    grid = f.grid
    vals = f.values.real.astype(float)
    cell = grid.cell_volume
    multiplicity = np.zeros(grid.shape, dtype=np.int64)
    slices = [cz.covering_slices(grid, ball) for ball in covering.balls]
    for sel in slices:
        multiplicity[sel] += 1
    mesh = np.meshgrid(*([grid.axis] * grid.dim), indexing="ij")
    bad_parts = []
    mean_zero_residuals = []
    sum_bad = np.zeros(grid.shape, dtype=complex)
    bad_l1_total = 0.0
    for ball, sel in zip(covering.balls, slices):
        _, center, _ = ball
        local_pts = np.stack([m[sel] for m in mesh], axis=-1)
        z_center = np.broadcast_to(np.asarray(center), local_pts.shape)
        gamma = np.exp(1j * twist.alpha(z_center, -local_pts))
        eta = 1.0 / multiplicity[sel]
        measure = local_pts[..., 0].size * cell
        weighted = np.sum(vals[sel] * eta * gamma) * cell
        local_bad = vals[sel] * eta - (weighted / measure) / gamma
        bad = np.zeros(grid.shape, dtype=complex)
        bad[sel] = local_bad
        mean_zero_residuals.append(abs(np.sum(local_bad * gamma) * cell))
        bad_parts.append(bad)
        sum_bad += bad
        bad_l1_total += float(np.sum(np.abs(local_bad)) * cell)
    good_vals = f.values - sum_bad
    f_l1 = float(np.sum(np.abs(vals)) * cell)
    report = {
        "n_balls": len(covering.balls),
        "reconstruction_max_error": float(np.max(np.abs(
            f.values - (good_vals + sum_bad)))) if covering.balls else 0.0,
        "good_sup_ratio": float(np.max(np.abs(good_vals))) / level,
        "good_l1_ratio": float(np.sum(np.abs(good_vals)) * cell) / f_l1 if f_l1 else 0.0,
        "bad_l1_ratio": bad_l1_total / f_l1 if f_l1 else 0.0,
        "mean_zero_max_residual": max(mean_zero_residuals, default=0.0),
        "f_l1": f_l1,
        "overlap": int(multiplicity.max()),
        "c_prime": covering.c_prime,
    }
    report["c_doubleprime"] = max(report["good_sup_ratio"], report["good_l1_ratio"],
                                  report["bad_l1_ratio"])
    return good_vals, bad_parts, multiplicity, report


def pointwise_integrals(kernel_eval, pd, twist, c2, grid, u_pts):
    """The integral over m(z) > c2 m(u) of |gamma(z, u^-1) k(z u^-1) - k(z)|
    for each row u of u_pts, with the kernel evaluated at every product
    z u^-1, one pair at a time through the compiled group law."""
    z_pts = grid.nodes()
    m_z = pd.value(z_pts)
    k_z = np.asarray(kernel_eval(z_pts), dtype=complex)
    U = np.asarray(u_pts, dtype=float)[:, None, :]
    MU = pd.value(u_pts)[:, None]
    Z = z_pts[None, :, :]
    mask = m_z[None, :] > c2 * MU
    shifted = twist.combine(Z, -U)
    phase = np.exp(1j * twist.alpha(Z, -U))
    k_shift = np.asarray(kernel_eval(shifted), dtype=complex)
    integrand = np.abs(phase * k_shift - k_z[None, :]) * mask
    return np.sum(integrand, axis=1) * grid.cell_volume


def pointwise_hormander(kernel_eval, pd, twist, c2, grid, u_grid):
    """hormander_twist_estimate from pointwise_integrals over every punctured
    node of the u-grid."""
    u_all = u_grid.nodes()
    u_all = u_all[pd.value(u_all) > 0]
    best = 0.0
    argmax = None
    chunk = max(1, (1 << 21) // grid.points ** grid.dim)
    for start in range(0, u_all.shape[0], chunk):
        vals = pointwise_integrals(kernel_eval, pd, twist, c2, grid,
                                   u_all[start:start + chunk])
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            argmax = tuple(float(c) for c in u_all[start + i])
    return {"estimate": best, "argmax_u": argmax, "c2": c2,
            "n_u": int(u_all.shape[0])}


def assert_matches_pointwise(out, args):
    """The estimate is within 1e-13 relative of the pointwise one, and so is
    the pointwise integral at the returned argmax_u; c2 and n_u are equal.

    The estimate's phase is a product of per-axis factors, the pointwise one
    a single exponential of the cocycle, so they agree to round-off, and
    argmax_u may move among test points whose integrals tie."""
    ref = pointwise_hormander(*args)
    assert abs(out["estimate"] - ref["estimate"]) <= 1e-13 * ref["estimate"]
    assert (out["c2"], out["n_u"]) == (ref["c2"], ref["n_u"])
    if ref["estimate"] == 0.0:
        assert out["argmax_u"] is None
        return
    at_argmax = pointwise_integrals(*args[:5], np.array([out["argmax_u"]]))[0]
    assert abs(at_argmax - out["estimate"]) <= 1e-13 * out["estimate"]


def zero_kernel(pts):
    return np.zeros(np.asarray(pts).shape[:-1], dtype=complex)


def many_bumps(grid, count=12, seed=7):
    """Seeded sum of separated narrow bumps of distinct heights."""
    gen = np.random.default_rng(seed)
    centers = []
    while len(centers) < count:
        c = gen.uniform(-0.8, 0.8, size=2) * grid.half_width
        if all(np.max(np.abs(c - o)) > 2.0 for o in centers):
            centers.append(c)
    vals = sum(funcs.sample(grid, funcs.smooth_bump(tuple(c), 0.8, h)).values
               for c, h in zip(centers, gen.uniform(0.5, 2.0, size=count)))
    return SampledSymbol(grid, vals)


def narrow_bumps(grid, gen):
    """Sum of 40 narrow bumps that may overlap, drawn from gen: with
    ``seeds.rng("perfbench.cz_bumps", seed)`` the benchmark's cz-bumps input."""
    centers = gen.uniform(-6.5, 6.5, size=(40, 2))
    radii = gen.uniform(0.25, 0.6, size=40)
    heights = gen.uniform(0.5, 2.0, size=40)
    parts = [funcs.smooth_bump(tuple(c), r, h) for c, r, h in zip(centers, radii, heights)]
    return funcs.sample(grid, lambda pts: sum(part(pts) for part in parts))


def cover_inputs(grid):
    """Name -> nonnegative function: bumps, a corner spike, a constant, zero,
    and seeded arrays of a few repeated values, so that maximal values tie."""
    gen = np.random.default_rng(grid.points)
    spike = np.zeros(grid.shape)
    spike[0, 0] = 3.0
    return {
        "many_bumps": many_bumps(grid),
        "corner_spike": SampledSymbol(grid, spike),
        "constant": SampledSymbol(grid, np.full(grid.shape, 2.5)),
        "zero": SampledSymbol(grid, np.zeros(grid.shape)),
        "ties": SampledSymbol(grid, gen.integers(0, 4, size=grid.shape).astype(float)),
        "sparse_ties": SampledSymbol(grid, np.where(
            gen.random(grid.shape) < 0.1, gen.integers(1, 3, size=grid.shape), 0.0)),
    }


# -- pseudo-distance -------------------------------------------------------------


def test_h3_gauge_is_sup_norm(h3_twist, pd_h3):
    pts = np.array([[3.0, -2.0], [0.5, 0.25]])
    assert np.allclose(pd_h3.value(pts), [3.0, 0.5])
    assert pd_h3.quasi_constant <= 2.0 + 1e-9
    assert pd_h3.doubling_constant == 4.0


def test_gauge_axioms_exact(pd_h3):
    assert pd_h3.value(np.zeros((1, 2)))[0] == 0.0
    pts = np.array([[0.7, -1.3], [2.0, 0.4]])
    assert np.array_equal(pd_h3.value(pts), pd_h3.value(-pts))
    assert np.all(pd_h3.value(pts) > 0)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
       st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
def test_gauge_quasi_triangle_property(x, y):
    # For the sup-norm gauge on an abelian predual the quasi-triangle
    # constant 2 is exact, not just sampled.
    pdist = cz.PseudoDistance(dim=2)
    pts = np.array([x, y, [x[0] + y[0], x[1] + y[1]]])
    m = pdist.value(pts)
    assert m[2] <= 2.0 * max(m[0], m[1]) + 1e-12


# -- covering -------------------------------------------------------------------


def test_cover_empty_when_below_level(pd_h3, grid32):
    f = funcs.sample(grid32, funcs.smooth_bump((0.0, 0.0), 1.0, 0.5))
    covering = cz.cz_cover(f, 1.0, pd_h3)
    assert covering.balls == ()


def test_cover_single_bump(pd_h3, grid32):
    f = funcs.sample(grid32, funcs.smooth_bump((1.0, -1.0), 1.0, 4.0))
    fmax = float(np.max(np.abs(f.values)))
    covering = cz.cz_cover(f, 0.1 * fmax, pd_h3)
    assert len(covering.balls) >= 1
    # Item 1: f <= level outside the union of the balls.
    outside = np.ones(grid32.shape, dtype=bool)
    for ball in covering.balls:
        outside[cz.covering_slices(grid32, ball)] = False
    assert np.all(f.values.real[outside] <= 0.1 * fmax)
    # Item 2: ball averages within the measured constant.
    assert covering.mean_bound < np.inf
    # Item 3: total ball mass bound with the measured constant.
    cell = grid32.cell_volume
    total = sum(
        np.prod([s.stop - s.start for s in cz.covering_slices(grid32, b)])
        for b in covering.balls) * cell
    assert total * 0.1 * fmax <= covering.c_prime * float(np.sum(f.values.real) * cell) + 1e-12


def test_cover_requires_positive_level(pd_h3, grid32):
    f = funcs.sample(grid32, funcs.smooth_bump())
    with pytest.raises(cz.AlphaNonPositive):
        cz.cz_cover(f, 0.0, pd_h3)


def test_cover_rejects_uncalibrated_gauge(h3_twist, grid32):
    f = funcs.sample(grid32, funcs.smooth_bump())
    with pytest.raises(ValueError, match="calibrated"):
        cz.cz_cover(f, 0.1, cz.default_pseudo_distance(h3_twist))


def test_cover_rejects_signed_input(pd_h3, grid32):
    f = SampledSymbol(grid32, -np.ones(grid32.shape))
    with pytest.raises(ValueError):
        cz.cz_cover(f, 1.0, pd_h3)


@pytest.mark.parametrize("fraction", [0.05, 0.15, 0.4])
def test_cover_matches_full_scan(pd_h3, fraction):
    # The ladder clips its half-width to N - 1 at every size: the shared
    # prefix sums must give the reference's maximal function and stopping
    # radii bit for bit, and so the same selection.
    for points in (8, 16, 32, 64, 128):
        grid = Grid(2, 8.0, points)
        for name, f in cover_inputs(grid).items():
            case = (points, name)
            vals = f.values.real
            peak = float(np.max(vals))
            level = fraction * peak if peak > 0 else 1.0
            maximal, stop_radius = cz._ladder_maximal(vals, grid, level)
            ref_maximal, ref_stop = reference_ladder(vals, grid, level)
            assert np.array_equal(maximal, ref_maximal), case
            assert np.array_equal(stop_radius, ref_stop), case
            covering = cz.cz_cover(f, level, pd_h3)
            ref = full_scan_cover(f, level, pd_h3)
            assert covering == ref, case
            assert np.array_equal(covering.multiplicity, ref.multiplicity), case
            assert not covering.multiplicity.flags.writeable
            if name == "zero":
                assert covering.balls == ()
            elif name == "many_bumps" and points >= 64:
                assert len(covering.balls) >= 4
            else:
                assert covering.balls, case


@pytest.mark.parametrize("grid", [Grid(1, 8.0, 64), Grid(3, 8.0, 16)])
def test_ladder_matches_reference_off_the_plane(grid):
    # The prefix sums run along every further axis, not only axis 1.
    vals = np.random.default_rng(grid.dim).integers(0, 4, size=grid.shape).astype(float)
    for level in (0.5, 1.5, 2.5):
        got = cz._ladder_maximal(vals, grid, level)
        ref = reference_ladder(vals, grid, level)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_cover_memory_peak(pd_h3):
    # One N = 128 cover of the benchmark-like 40-bump input: 0.93 MB under
    # tracemalloc with one axis-0 prefix sum per cover, windows built in
    # place and one held at a time; 1.46 MB with two fresh sums (values and
    # ones) per radius, 1.72 MB with every window cached.
    f = narrow_bumps(Grid(2, 8.0, 128), np.random.default_rng(0))
    level = 0.2 * float(np.max(f.values.real))
    tracemalloc.start()
    try:
        covering = cz.cz_cover(f, level, pd_h3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(covering.balls) >= 10
    assert peak <= 1.4e6


# -- decomposition -----------------------------------------------------------------


def test_decompose_trivial_below_level(h3_twist, pd_h3, grid32):
    f = funcs.sample(grid32, funcs.smooth_bump((0.0, 0.0), 1.5, 1.0))
    result = cz.cz_decompose(f, 10.0, pd_h3, h3_twist)
    assert not result.bad_parts
    assert np.array_equal(result.good.values, f.values)


def test_decompose_properties(h3_twist, pd_h3, grid32):
    f = funcs.sample(grid32, funcs.smooth_bump((0.5, 0.5), 2.0, 4.0))
    fmax = float(np.max(np.abs(f.values)))
    level = 0.1 * fmax
    result = cz.cz_decompose(f, level, pd_h3, h3_twist)
    r = result.report
    assert r["n_balls"] >= 1
    # Exact on-grid reconstruction (machine precision on re-evaluation).
    placed = np.zeros(grid32.shape, dtype=complex)
    for bad, ball in zip(result.bad_parts, result.covering.balls):
        placed[cz.covering_slices(grid32, ball)] += bad
    recon = np.abs(f.values - (result.good.values + placed))
    assert np.max(recon) <= 1e-14 * (1.0 + fmax)
    # Twisted mean-zero per bad part.
    assert r["mean_zero_max_residual"] <= 1e-12 * r["f_l1"]
    # Good part bounded by the measured constant.
    assert np.max(np.abs(result.good.values)) <= r["c_doubleprime"] * level + 1e-12
    assert np.isfinite(r["c_doubleprime"]) and np.isfinite(r["c_prime"])
    # Support containment holds by construction: each part is its ball's values.
    for bad, ball in zip(result.bad_parts, result.covering.balls):
        sel = cz.covering_slices(grid32, ball)
        assert bad.shape == tuple(s.stop - s.start for s in sel)


def test_decompose_mean_zero_uses_cocycle_phase(h3_twist, pd_h3, grid32):
    # With a genuinely twisted gamma the PLAIN mean of b_i is nonzero while
    # the gamma-weighted mean vanishes; this pins the phase convention.
    f = funcs.sample(grid32, funcs.smooth_bump((2.0, 1.0), 2.5, 4.0))
    level = 0.05 * float(np.max(np.abs(f.values)))
    result = cz.cz_decompose(f, level, pd_h3, h3_twist)
    mesh = np.stack(np.meshgrid(grid32.axis, grid32.axis, indexing="ij"), axis=-1)
    cell = grid32.cell_volume
    saw_twist = False
    for local, ball in zip(result.bad_parts, result.covering.balls):
        _, center, _ = ball
        bad = np.zeros(grid32.shape, dtype=complex)
        bad[cz.covering_slices(grid32, ball)] = local
        z = np.broadcast_to(np.asarray(center), mesh.shape)
        gamma = np.exp(1j * h3_twist.alpha(z, -mesh))
        weighted = abs(np.sum(bad * gamma) * cell)
        plain = abs(np.sum(bad) * cell)
        assert weighted <= 1e-12 * result.report["f_l1"]
        if plain > 1e-6:
            saw_twist = True
    assert saw_twist


@pytest.mark.parametrize("points", [64, 128])
@pytest.mark.parametrize("seed", [0, 1])
def test_decompose_matches_full_grid_reference(h3_twist, pd_h3, seed, points):
    # The ball-local parts read the cover's multiplicity and give the full-grid
    # loop's good values, report and parts bit for bit.  On the benchmark's
    # input these covers have 1 to 27 balls and overlap up to 4, so eta < 1
    # is exercised.
    f = narrow_bumps(Grid(2, 8.0, points), seeds.rng("perfbench.cz_bumps", seed))
    fmax = float(np.max(np.abs(f.values)))
    overlaps = []
    for fraction in (0.05, 0.15, 0.4):
        case = (points, seed, fraction)
        result = cz.cz_decompose(f, fraction * fmax, pd_h3, h3_twist)
        good, bad_parts, multiplicity, report = full_grid_decompose(
            f, fraction * fmax, result.covering, h3_twist)
        assert np.array_equal(result.covering.multiplicity, multiplicity), case
        assert np.array_equal(result.good.values, good), case
        assert result.report == report, case
        assert len(result.bad_parts) == len(bad_parts) == report["n_balls"] > 0, case
        for local, bad, ball in zip(result.bad_parts, bad_parts, result.covering.balls):
            assert np.array_equal(local, bad[cz.covering_slices(f.grid, ball)]), case
        overlaps.append(report["overlap"])
    assert max(overlaps) > 1


def test_decompose_memory_peak(h3_twist, pd_h3):
    # One N = 128 decomposition of the benchmark's input at seed 1 and 0.4 of
    # its maximum (25 balls): 1.36 MB under tracemalloc with the parts held
    # on their balls and the cover's multiplicity read, 8.17 MB with a
    # full-grid array per part, a second count and a full-grid meshgrid.
    f = narrow_bumps(Grid(2, 8.0, 128), seeds.rng("perfbench.cz_bumps", 1))
    level = 0.4 * float(np.max(np.abs(f.values)))
    tracemalloc.start()
    try:
        result = cz.cz_decompose(f, level, pd_h3, h3_twist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.bad_parts) == 25
    assert peak <= 2.5e6


# -- kernel estimates ----------------------------------------------------------------


def test_hormander_zero_kernel(h3_twist, pd_h3):
    grid = Grid(2, 8.0, 32)
    out = cz.hormander_twist_estimate(
        lambda pts: np.zeros(np.asarray(pts).shape[:-1], dtype=complex),
        pd_h3, h3_twist, 4.0 * pd_h3.quasi_constant, grid, grid)
    assert out["estimate"] == 0.0


def test_hormander_rejects_small_c2(h3_twist, pd_h3):
    with pytest.raises(cz.C2TooSmall):
        cz.hormander_twist_estimate(funcs.truncated_power(), pd_h3, h3_twist,
                                    1.0, Grid(2, 8.0, 32), Grid(2, 8.0, 32))


@pytest.mark.parametrize("c2", [float("inf"), float("nan")])
def test_hormander_rejects_non_finite_c2(h3_twist, pd_h3, c2):
    # inf passes "c2 > 2 quasi", and inf * m(u) is NaN where m(u) = 0.
    with pytest.raises(cz.C2TooSmall, match="need a finite c2"):
        cz.hormander_twist_estimate(funcs.truncated_power(), pd_h3, h3_twist,
                                    c2, Grid(2, 8.0, 32), Grid(2, 8.0, 32))


@pytest.mark.parametrize("u_grid", [Grid(3, 8.0, 32), Grid(2, 4.0, 32)])
def test_hormander_rejects_foreign_u_grid(h3_twist, pd_h3, u_grid):
    with pytest.raises(GridMismatch):
        cz.hormander_twist_estimate(funcs.truncated_power(), pd_h3, h3_twist,
                                    8.0, Grid(2, 8.0, 32), u_grid=u_grid)


# The u-grid is coarser than, as fine as, or finer than the z-grid.
@pytest.mark.parametrize("kernel, z_points, u_points", [
    pytest.param(funcs.truncated_power(3.0, 1.0, 5.0), z, u, id=f"truncated_power-{z}-{u}")
    for z, u in [(32, 32), (64, 32), (128, 32), (32, 16), (16, 32)]
] + [
    pytest.param(zero_kernel, z, u, id=f"zero-{z}-{u}") for z, u in [(32, 32), (16, 32)]
])
@pytest.mark.parametrize("twist_name", ["h3", "zero"])
def test_hormander_offset_table_matches_pointwise(h3_twist, pd_h3, twist_name,
                                                  kernel, z_points, u_points):
    twist = h3_twist if twist_name == "h3" else tw.zero_twist(2)
    args = (kernel, pd_h3, twist, 4.0 * pd_h3.quasi_constant,
            Grid(2, 8.0, z_points), Grid(2, 8.0, u_points))
    assert_matches_pointwise(cz.hormander_twist_estimate(*args), args)


# Each defect changes the phase by more than round-off on one axis.
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("defect", ["conjugated", "dropped"])
def test_hormander_phase_defects_fail_the_pointwise_comparison(h3_twist, pd_h3, axis,
                                                               defect, monkeypatch):
    args = (funcs.truncated_power(3.0, 1.0, 5.0), pd_h3, h3_twist,
            4.0 * pd_h3.quasi_constant, Grid(2, 8.0, 32), Grid(2, 8.0, 32))
    assert_matches_pointwise(cz.hormander_twist_estimate(*args), args)
    axis_phases = cz._axis_phases

    def defective(A, u, grid):
        factors = axis_phases(A, u, grid)
        f = factors[axis]
        factors[axis] = np.conj(f) if defect == "conjugated" else np.ones_like(f)
        return factors

    monkeypatch.setattr(cz, "_axis_phases", defective)
    with pytest.raises(AssertionError):
        assert_matches_pointwise(cz.hormander_twist_estimate(*args), args)


# c2 = 2.01 * quasi is the smallest accepted c2, so it leaves the most u-rows live.
@pytest.mark.parametrize("z_points, u_points", [(32, 32), (16, 32)])
def test_hormander_most_live_rows_matches_pointwise(h3_twist, pd_h3, z_points, u_points):
    args = (funcs.truncated_power(3.0, 1.0, 5.0), pd_h3, h3_twist,
            2.01 * pd_h3.quasi_constant, Grid(2, 8.0, z_points), Grid(2, 8.0, u_points))
    out = cz.hormander_twist_estimate(*args)
    assert out["estimate"] > 0
    assert_matches_pointwise(out, args)


def test_hormander_no_live_rows_matches_pointwise(h3_twist, pd_h3):
    # max m(z) = 8 and the smallest punctured m(u) is 0.5, so no mask is true.
    args = (funcs.truncated_power(3.0, 1.0, 5.0), pd_h3, h3_twist, 100.0,
            Grid(2, 8.0, 32), Grid(2, 8.0, 32))
    out = cz.hormander_twist_estimate(*args)
    assert (out["estimate"], out["argmax_u"]) == (0.0, None)
    assert_matches_pointwise(out, args)


def live_rows(pd, c2, grid, u_grid):
    m_u = pd.value(u_grid.nodes())
    return int(np.count_nonzero((m_u > 0) & (np.max(pd.value(grid.nodes())) > c2 * m_u)))


@pytest.mark.parametrize("z_points, c2_factor", [(64, 4.0), (32, 2.01)])
def test_hormander_evaluates_live_rows_only(h3_twist, pd_h3, z_points, c2_factor,
                                           monkeypatch):
    grid, u_grid = Grid(2, 8.0, z_points), Grid(2, 8.0, 32)
    c2 = c2_factor * pd_h3.quasi_constant
    args = (funcs.truncated_power(3.0, 1.0, 5.0), pd_h3, h3_twist, c2, grid, u_grid)
    live = live_rows(pd_h3, c2, grid, u_grid)
    assert 0 < live < u_grid.points ** 2 - 1
    seen = []
    axis_phases = cz._axis_phases

    def counting_phases(A, u, grid):
        seen.append(tuple(u))
        return axis_phases(A, u, grid)

    monkeypatch.setattr(cz, "_axis_phases", counting_phases)
    out = cz.hormander_twist_estimate(*args)
    assert len(seen) == live
    m_u = pd_h3.value(np.array(seen))
    assert np.all((m_u > 0) & (np.max(pd_h3.value(grid.nodes())) > c2 * m_u))
    assert_matches_pointwise(out, args)


def test_hormander_rejects_non_finite_kernel(h3_twist, pd_h3):
    # NaN only where |x| > 20: the corners of the offset table, never inside
    # the mask. A NaN row would win np.argmax in its chunk and then lose
    # `> best`, silently dropping that chunk's maximum.
    k = funcs.truncated_power(3.0, 1.0, 5.0)

    def nan_far(pts):
        return np.where(np.linalg.norm(pts, axis=-1) > 20.0, np.nan, k(pts))

    grid, u_grid = Grid(2, 8.0, 64), Grid(2, 8.0, 32)
    c2 = 4.0 * pd_h3.quasi_constant
    assert cz.hormander_twist_estimate(k, pd_h3, h3_twist, c2, grid, u_grid)["estimate"] > 0
    with pytest.raises(ValueError, match="finite"):
        cz.hormander_twist_estimate(nan_far, pd_h3, h3_twist, c2, grid, u_grid)


def test_hormander_estimate_memory_peak(h3_twist, pd_h3):
    # The CZ suite's N = 128 estimate (u-grid N = 32, 24 live rows) sets its
    # memory peak: 4.4 MB under tracemalloc with the integrand built in place
    # one live row at a time, 8.1 MB in blocks of 2^17 entries, 28.4 MB with
    # the whole (24 x 16384) chunk held in six separate arrays.
    args = (funcs.truncated_power(3.0, 1.0, 5.0), pd_h3, h3_twist,
            4.0 * pd_h3.quasi_constant, Grid(2, 8.0, 128), Grid(2, 8.0, 32))
    tracemalloc.start()
    try:
        out = cz.hormander_twist_estimate(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["estimate"] > 0
    assert peak < 12e6


def test_hormander_offset_table_on_non_dyadic_box(h3_twist, pd_h3):
    # With L = 5.3 the node differences z - u are not exactly the lattice
    # offsets m h, so the two evaluations agree to round-off only.
    args = (funcs.truncated_power(3.0, 1.0, 5.0), pd_h3, h3_twist,
            4.0 * pd_h3.quasi_constant, Grid(2, 5.3, 16), Grid(2, 5.3, 32))
    out, ref = cz.hormander_twist_estimate(*args), pointwise_hormander(*args)
    assert ref["estimate"] > 0
    assert abs(out["estimate"] - ref["estimate"]) <= 1e-13 * ref["estimate"]
    assert (out["c2"], out["n_u"]) == (ref["c2"], ref["n_u"])


def test_hormander_constant_annulus_untwisted(pd_h3):
    # Kernel supported away from the origin and constant on its annulus,
    # untwisted phase: where both k(z-u) and k(z) sit in the constancy region
    # the integrand cancels, so only boundary slivers of width |u| contribute
    # and the estimate stays far below the raw mass of the kernel.
    untwisted = tw.zero_twist(2)
    grid = Grid(2, 8.0, 64)
    k = indicator_sup_annulus(1.0, 4.0)
    out = cz.hormander_twist_estimate(k, pd_h3, untwisted,
                                      4.0 * pd_h3.quasi_constant, grid,
                                      u_grid=Grid(2, 8.0, 32))
    mass = 60.0  # integral of the kernel: 8^2 - 2^2
    assert 0.0 < out["estimate"] < 0.25 * mass


def test_hormander_refinement_stability(h3_twist, pd_h3):
    k = funcs.truncated_power(3.0, 1.0, 5.0)
    u_grid = Grid(2, 8.0, 16)
    c2 = 4.0 * pd_h3.quasi_constant
    coarse = cz.hormander_twist_estimate(k, pd_h3, h3_twist, c2,
                                         Grid(2, 8.0, 32), u_grid=u_grid)
    fine = cz.hormander_twist_estimate(k, pd_h3, h3_twist, c2,
                                       Grid(2, 8.0, 64), u_grid=u_grid)
    assert abs(fine["estimate"] - coarse["estimate"]) <= 0.15 * fine["estimate"]


# -- weak (1,1) -------------------------------------------------------------------


def test_weak11_zero_input(h3_twist, grid32):
    k = funcs.sample(grid32, funcs.smooth_bump((0.0, 0.0), 1.0, 1.0))
    f = SampledSymbol(grid32, np.zeros(grid32.shape))
    out = cz.weak11_empirical(h3_twist, k, f, [0.1, 1.0])
    assert all(v == 0.0 for v in out["ratios"].values())


def test_weak11_homogeneity(h3_twist, grid32):
    k = funcs.sample(grid32, funcs.smooth_bump((0.5, 0.0), 1.2, 2.0))
    f = funcs.sample(grid32, funcs.smooth_bump((-1.0, 1.0), 1.5, 3.0))
    probe = cz.weak11_empirical(h3_twist, k, f, [1.0])["kf_sup"]
    levels = [probe / 2, probe / 4, probe / 8]
    base = cz.weak11_empirical(h3_twist, k, f, levels)
    scaled = cz.weak11_empirical(h3_twist, k,
                                 SampledSymbol(grid32, 2.0 * f.values),
                                 [2 * lv for lv in levels])
    for a, b in zip(base["ratios"].values(), scaled["ratios"].values()):
        assert a == b


def test_weak11_stability(h3_twist):
    grid = Grid(2, 8.0, 64)
    k = funcs.sample(grid, funcs.smooth_bump((0.5, 0.0), 1.2, 2.0))
    f = funcs.sample(grid, funcs.smooth_bump((-1.0, 1.0), 1.5, 3.0))
    probe = cz.weak11_empirical(h3_twist, k, f, [1.0])["kf_sup"]
    levels = [probe / 2 ** j for j in range(1, 5)]
    out = cz.weak11_empirical(h3_twist, k, f, levels)
    assert out["stability_factor"] <= 4.0


def test_weak11_ladder_is_probe_then_levels(h3_twist, grid32):
    k = funcs.sample(grid32, funcs.smooth_bump((0.5, 0.0), 1.2, 2.0))
    f = funcs.sample(grid32, funcs.smooth_bump((-1.0, 1.0), 1.5, 3.0))
    probe = cz.weak11_empirical(h3_twist, k, f, [1.0])["kf_sup"]
    levels = [probe / 2 ** j for j in range(1, 5)]
    ladder = cz.weak11_ladder(h3_twist, k, f)
    assert ladder.pop("levels") == levels
    assert ladder == cz.weak11_empirical(h3_twist, k, f, levels)


def test_cz_demo_runs(capsys):
    demo = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "cz_demo.py"))
    demo["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("sup-norm gauge on 2 axes")
    assert lines[-1].startswith("empirical A1")
