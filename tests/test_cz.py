"""Pseudo-distances, coverings, twisted decompositions, kernel estimates."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nilharm import czdecomp as cz, funcs, twist as tw
from nilharm.grids import Grid, GridMismatch, SampledSymbol


@pytest.fixture(scope="module")
def pd_h3(h3_twist):
    return cz.calibrate(cz.default_pseudo_distance(h3_twist), h3_twist, seed=0)


@pytest.fixture(scope="module")
def ext7_twist(ext7_orbit):
    return tw.from_orbit(ext7_orbit)


# -- references ------------------------------------------------------------------


def indicator_sup_annulus(inner, outer):
    """Indicator of the sup-norm annulus inner < max|x_j| < outer."""

    def ev(pts):
        sup = np.max(np.abs(np.asarray(pts, dtype=float)), axis=-1)
        return np.where((sup > inner) & (sup < outer), 1.0, 0.0).astype(complex)

    return ev


def full_scan_cover(f, level, pd):
    """cz_cover with the greedy selection scanning every node in decreasing
    maximal value and skipping those outside the level set."""
    vals = f.values.real
    grid = f.grid
    c_m = pd.quasi_constant if pd.quasi_constant is not None else 2.0
    expansion = max(3.0, c_m * c_m)
    ones = np.ones(grid.shape)
    maximal = np.zeros(grid.shape)
    stop_radius = np.full(grid.shape, -1.0)
    for r in cz._radius_ladder(pd, grid):
        steps = cz._window_steps(pd, grid, r)
        avg = cz._window_sum(vals, steps) / cz._window_sum(ones, steps)
        maximal = np.maximum(maximal, avg)
        stop_radius = np.where(avg > level, r, stop_radius)
    omega = maximal > level
    if not np.any(omega):
        return cz.Covering(grid=grid, level=level, balls=(), mean_bound=0.0,
                           mass_ratio=0.0, overlap=0, expansion=expansion)
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
        steps = cz._window_steps(pd, grid, r_sel)
        sel = tuple(
            slice(max(0, idx[a] - steps[a]), min(grid.points, idx[a] + steps[a] + 1))
            for a in range(grid.dim))
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
                       overlap=int(multiplicity.max()), expansion=expansion)


def pointwise_hormander(kernel_eval, pd, twist, c2, grid, u_grid):
    """hormander_twist_estimate with the kernel evaluated at every product
    z u^-1, one pair at a time through the compiled group law."""
    z_pts = grid.nodes()
    m_z = pd.value(z_pts)
    k_z = np.asarray(kernel_eval(z_pts), dtype=complex)
    cell = grid.cell_volume
    u_all = u_grid.nodes()
    m_u = pd.value(u_all)
    keep = m_u > 0
    u_all, m_u = u_all[keep], m_u[keep]
    best = 0.0
    argmax = None
    chunk = max(1, (1 << 21) // z_pts.shape[0])
    for start in range(0, u_all.shape[0], chunk):
        U = u_all[start:start + chunk][:, None, :]
        MU = m_u[start:start + chunk][:, None]
        Z = z_pts[None, :, :]
        mask = m_z[None, :] > c2 * MU
        shifted = twist.combine(Z, -U)
        phase = np.exp(1j * twist.alpha(Z, -U))
        k_shift = np.asarray(kernel_eval(shifted), dtype=complex)
        integrand = np.abs(phase * k_shift - k_z[None, :]) * mask
        vals = np.sum(integrand, axis=1) * cell
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            argmax = tuple(float(c) for c in u_all[start + i])
    return {"estimate": best, "argmax_u": argmax, "c2": c2,
            "n_u": int(u_all.shape[0])}


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


# -- pseudo-distance -------------------------------------------------------------


def test_h3_gauge_is_sup_norm(h3_twist, pd_h3):
    assert pd_h3.weights == (1, 1)
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
    pdist = cz.PseudoDistance(weights=(1, 1))
    pts = np.array([x, y, [x[0] + y[0], x[1] + y[1]]])
    m = pdist.value(pts)
    assert m[2] <= 2.0 * max(m[0], m[1]) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
       st.floats(0.01, 10.0))
def test_gauge_ball_membership_matches_halfwidths(x, r):
    pdist = cz.PseudoDistance(weights=(1, 2))
    m = float(pdist.value(np.array([x]))[0])
    assume(abs(m - r) > 1e-9 * (1.0 + r))  # stay off the float boundary
    theta = pdist.ball_halfwidths(r)
    by_box = bool(abs(x[0]) < theta[0] and abs(x[1]) < theta[1])
    assert (m < r) == by_box


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
        outside[cz.covering_slices(grid32, pd_h3, ball)] = False
    assert np.all(f.values.real[outside] <= 0.1 * fmax)
    # Item 2: ball averages within the measured constant.
    assert covering.mean_bound < np.inf
    # Item 3: total ball mass bound with the measured constant.
    cell = grid32.cell_volume
    total = sum(
        np.prod([s.stop - s.start for s in cz.covering_slices(grid32, pd_h3, b)])
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
    grid = Grid(2, 8.0, 64)
    f = many_bumps(grid)
    level = fraction * float(np.max(f.values.real))
    covering = cz.cz_cover(f, level, pd_h3)
    assert len(covering.balls) >= 4
    assert covering == full_scan_cover(f, level, pd_h3)


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
    recon = np.abs(f.values - (result.good.values
                               + sum(b.values for b in result.bad_parts)))
    assert np.max(recon) <= 1e-14 * (1.0 + fmax)
    # Twisted mean-zero per bad part.
    assert r["mean_zero_max_residual"] <= 1e-12 * r["f_l1"]
    # Good part bounded by the measured constant.
    assert np.max(np.abs(result.good.values)) <= r["c_doubleprime"] * level + 1e-12
    assert np.isfinite(r["c_doubleprime"]) and np.isfinite(r["c_prime"])
    # Support containment, exact index test.
    for bad, ball in zip(result.bad_parts, result.covering.balls):
        mask = np.ones(grid32.shape, dtype=bool)
        mask[cz.covering_slices(grid32, pd_h3, ball)] = False
        assert np.all(bad.values[mask] == 0)


def test_decompose_mean_zero_uses_cocycle_phase(h3_twist, pd_h3, grid32):
    # With a genuinely twisted gamma the PLAIN mean of b_i is nonzero while
    # the gamma-weighted mean vanishes; this pins the phase convention.
    f = funcs.sample(grid32, funcs.smooth_bump((2.0, 1.0), 2.5, 4.0))
    level = 0.05 * float(np.max(np.abs(f.values)))
    result = cz.cz_decompose(f, level, pd_h3, h3_twist)
    mesh = np.stack(np.meshgrid(grid32.axis, grid32.axis, indexing="ij"), axis=-1)
    cell = grid32.cell_volume
    saw_twist = False
    for bad, ball in zip(result.bad_parts, result.covering.balls):
        _, center, _ = ball
        z = np.broadcast_to(np.asarray(center), mesh.shape)
        gamma = np.exp(1j * h3_twist.alpha(z, -mesh))
        weighted = abs(np.sum(bad.values * gamma) * cell)
        plain = abs(np.sum(bad.values) * cell)
        assert weighted <= 1e-12 * result.report["f_l1"]
        if plain > 1e-6:
            saw_twist = True
    assert saw_twist


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


def test_hormander_rejects_non_abelian_twist(ext7_twist, pd_h3):
    with pytest.raises(ValueError, match="abelian"):
        cz.hormander_twist_estimate(funcs.truncated_power(), pd_h3, ext7_twist,
                                    8.0, Grid(6, 8.0, 8), Grid(6, 8.0, 8))


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
    assert cz.hormander_twist_estimate(*args) == pointwise_hormander(*args)


# c2 = 2.01 * quasi is the smallest accepted c2, so it leaves the most u-rows live.
@pytest.mark.parametrize("z_points, u_points", [(32, 32), (16, 32)])
def test_hormander_most_live_rows_matches_pointwise(h3_twist, pd_h3, z_points, u_points):
    args = (funcs.truncated_power(3.0, 1.0, 5.0), pd_h3, h3_twist,
            2.01 * pd_h3.quasi_constant, Grid(2, 8.0, z_points), Grid(2, 8.0, u_points))
    out = cz.hormander_twist_estimate(*args)
    assert out["estimate"] > 0
    assert out == pointwise_hormander(*args)


def test_hormander_no_live_rows_matches_pointwise(h3_twist, pd_h3):
    # max m(z) = 8 and the smallest punctured m(u) is 0.5, so no mask is true.
    args = (funcs.truncated_power(3.0, 1.0, 5.0), pd_h3, h3_twist, 100.0,
            Grid(2, 8.0, 32), Grid(2, 8.0, 32))
    out = cz.hormander_twist_estimate(*args)
    assert (out["estimate"], out["argmax_u"]) == (0.0, None)
    assert out == pointwise_hormander(*args)


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
    reference = pointwise_hormander(*args)
    seen = []
    alpha = tw.TwistData.alpha

    def counting_alpha(self, X, Y):
        out = alpha(self, X, Y)
        seen.append(out.size)
        return out

    monkeypatch.setattr(tw.TwistData, "alpha", counting_alpha)
    out = cz.hormander_twist_estimate(*args)
    assert sum(seen) <= live * grid.points ** 2
    assert out == reference


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
    # memory peak: 8.1 MB under tracemalloc with the integrand built in place
    # in blocks of 2^17 entries, 28.4 MB with the whole (24 x 16384) chunk
    # held in six separate arrays.
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
