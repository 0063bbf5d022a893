"""Twisted Calderon-Zygmund machinery on a flat predual grid.

The pseudo-distance is the anisotropic gauge m(x) = max_j |x_j|^(1/w_j) with
per-axis weights from the depth of each coordinate in the lower central
series of the predual group; its quasi-triangle and volume-doubling constants
are measured, not assumed.  The covering comes from the level set of a
discrete maximal function over m-balls with a greedy Vitali selection
(decreasing maximal value, ties by row-major index), and the decomposition
implements the phase-corrected bad parts

    b_i(z) = f(z) eta_i(z)
             - (avg over B_i of f eta_i gamma(z_i, .^-1)) chi_i(z) / gamma(z_i, z^-1)

whose twisted mean against gamma(z_i, z^-1) vanishes on the grid by
construction.  The twist is a cocycle matrix (``twist.TwistData``): the
reduced product is z + u and the cocycle bilinear, and a twist without a
matrix is refused with a ValueError.  In the Hormander estimate z u^-1 is
then z - u: on grids of one half-width and power-of-two sizes every such
difference is an offset of the finer lattice, so the kernel is evaluated once
on the table of those offsets and read back by integer index.  Only live
test points u, those with max m(z) > c2 m(u), are integrated: the mask of any
other u is empty, so with a finite kernel its integral is exactly 0.0 and
cannot be the supremum, and skipping it changes no returned bit.  Haar measure
in exponential coordinates is Lebesgue; each node carries cell volume h^d,
and the group inverse is coordinate negation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import Grid, GridMismatch, SampledSymbol
from .seeds import rng as seeded_rng
from .twist import TwistData, twisted_convolve


class AlphaNonPositive(Exception):
    pass


class CoverMissing(Exception):
    pass


class C2TooSmall(Exception):
    pass


@dataclass(frozen=True)
class PseudoDistance:
    """Anisotropic gauge with measured quasi-triangle / doubling constants."""

    weights: tuple[int, ...]
    quasi_constant: float | None = None
    doubling_constant: float | None = None

    @property
    def dim(self) -> int:
        return len(self.weights)

    def value(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        parts = [np.abs(pts[..., j]) ** (1.0 / w) for j, w in enumerate(self.weights)]
        return np.max(np.stack(parts, axis=-1), axis=-1)

    def ball_halfwidths(self, r: float) -> np.ndarray:
        """Per-axis half-widths of the box {m < r}."""
        return np.array([r ** w for w in self.weights])

    def ball_volume(self, r: float) -> float:
        return float(np.prod(2.0 * self.ball_halfwidths(r)))


def default_pseudo_distance(twist: TwistData) -> PseudoDistance:
    """Anisotropic gauge with weights from the predual's lower central series."""
    return PseudoDistance(weights=twist.weights)


def calibrate(pd: PseudoDistance, twist: TwistData, seed: int = 0) -> PseudoDistance:
    """Measure the quasi-triangle constant on 2000 random pairs in each of the
    boxes of half width 1, 2, 4 and 8, and the volume-doubling ratio of the
    gauge balls.  The twist must have a cocycle matrix (``ValueError``
    otherwise), so that the product is x + y.
    """
    gen = seeded_rng("pseudo-distance-calibration", seed)
    radii = (1.0, 2.0, 4.0, 8.0)
    per_box = []
    for r in radii:
        x = gen.uniform(-r, r, size=(2000, pd.dim))
        y = gen.uniform(-r, r, size=(2000, pd.dim))
        prod = twist.combine(x, y)
        num = pd.value(prod)
        den = np.maximum(pd.value(x), pd.value(y))
        ok = den > 0
        per_box.append(float(np.max(num[ok] / den[ok])))
    c_m = max(per_box)
    doubling = max(
        pd.ball_volume(2.0 * r) / pd.ball_volume(r) for r in radii
    )
    return replace(pd, quasi_constant=c_m, doubling_constant=float(doubling))


# ---------------------------------------------------------------------------
# Covering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Covering:
    """Selected balls (center index, center coordinates, radius) plus measured
    covering constants."""

    grid: Grid
    level: float
    balls: tuple[tuple[tuple[int, ...], tuple[float, ...], float], ...]
    mean_bound: float        # max over balls of (ball average of f) / level
    mass_ratio: float        # sum |B_i| * level / ||f||_1
    overlap: int             # max covering multiplicity over grid nodes
    expansion: float

    @property
    def c_prime(self) -> float:
        return max(self.mean_bound, self.mass_ratio)


def _window_steps(pd: PseudoDistance, grid: Grid, r: float) -> tuple[int, ...]:
    """Lattice half-widths of the ball box {m(z - y) < r} on the grid."""
    theta = pd.ball_halfwidths(r)
    return tuple(int(np.ceil(t / grid.h - 1e-12)) - 1 for t in theta)


def _window_sum(arr: np.ndarray, steps: tuple[int, ...]) -> np.ndarray:
    """Boundary-clipped box sums with per-axis half-width steps[j]."""
    out = arr
    for axis, s in enumerate(steps):
        if s < 0:
            return np.zeros_like(arr)
        if s == 0:
            continue
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


def _radius_ladder(pd: PseudoDistance, grid: Grid) -> list[float]:
    r0 = 0.5 * min(grid.h ** (1.0 / w) for w in pd.weights)
    r_max = max((4.0 * grid.half_width) ** (1.0 / w) for w in pd.weights)
    ladder = [r0]
    while ladder[-1] <= r_max:
        ladder.append(ladder[-1] * 2.0)
    return ladder


def cz_cover(f: SampledSymbol, level: float, pd: PseudoDistance) -> Covering:
    """Discrete covering of the maximal-function level set by gauge balls.

    Stopping radius per node: the largest ladder radius whose ball average
    still exceeds the level; selection is greedy in decreasing maximal value
    (ties by row-major index) over the level-set nodes only, with the
    selected radius expanded by the Vitali factor max(3, c_m^2), c_m the
    quasi-triangle constant of the gauge, which must be calibrated.
    """
    if not level > 0:
        raise AlphaNonPositive("the level must be positive")
    vals = f.values.real
    if np.any(vals < -1e-15) or np.max(np.abs(f.values.imag)) > 1e-15:
        raise ValueError("covering input must be a nonnegative real function")
    grid = f.grid
    if pd.quasi_constant is None:
        raise ValueError("pseudo-distance must be calibrated first")
    c_m = pd.quasi_constant
    expansion = max(3.0, c_m * c_m)

    ladder = _radius_ladder(pd, grid)
    ones = np.ones(grid.shape)
    maximal = np.zeros(grid.shape)
    stop_radius = np.full(grid.shape, -1.0)
    for r in ladder:
        steps = _window_steps(pd, grid, r)
        counts = _window_sum(ones, steps)
        avg = _window_sum(vals, steps) / counts
        maximal = np.maximum(maximal, avg)
        stop_radius = np.where(avg > level, r, stop_radius)
    omega = maximal > level
    if not np.any(omega):
        return Covering(grid=grid, level=level, balls=(), mean_bound=0.0,
                        mass_ratio=0.0, overlap=0, expansion=expansion)

    # Only level-set nodes can be selected: keep their part of the stable
    # decreasing order and unravel it in one call.
    order = np.argsort(-maximal.reshape(-1), kind="stable")
    order = order[omega.reshape(-1)[order]]
    covered = np.zeros(grid.shape, dtype=bool)
    axes = grid.axis
    balls = []
    cell = grid.cell_volume
    multiplicity = np.zeros(grid.shape, dtype=np.int32)
    total_ball_measure = 0.0
    mean_bound = 0.0
    for idx in zip(*(c.tolist() for c in np.unravel_index(order, grid.shape))):
        if covered[idx]:
            continue
        ball = (idx, tuple(float(axes[i]) for i in idx),
                float(expansion * stop_radius[idx]))
        sel = covering_slices(grid, pd, ball)
        covered[sel] = True
        multiplicity[sel] += 1
        count = int(np.prod([s.stop - s.start for s in sel]))
        measure = count * cell
        total_ball_measure += measure
        mean_bound = max(mean_bound, float(np.sum(vals[sel]) * cell / measure) / level)
        balls.append(ball)
    f_mass = float(np.sum(vals) * cell)
    mass_ratio = total_ball_measure * level / f_mass if f_mass > 0 else 0.0
    return Covering(grid=grid, level=level, balls=tuple(balls),
                    mean_bound=mean_bound, mass_ratio=mass_ratio,
                    overlap=int(multiplicity.max()), expansion=expansion)


def covering_slices(grid: Grid, pd: PseudoDistance, ball) -> tuple[slice, ...]:
    idx, _, r = ball
    steps = _window_steps(pd, grid, r)
    return tuple(
        slice(max(0, idx[a] - steps[a]), min(grid.points, idx[a] + steps[a] + 1))
        for a in range(grid.dim)
    )


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CZResult:
    level: float
    covering: Covering
    good: SampledSymbol
    bad_parts: tuple[SampledSymbol, ...]
    report: dict


def cz_decompose(f: SampledSymbol, level: float, pd: PseudoDistance,
                 twist: TwistData) -> CZResult:
    """Good/bad splitting at the given level with twisted mean-zero bad parts."""
    covering = cz_cover(f, level, pd)
    grid = f.grid
    vals = f.values.real.astype(float)
    cell = grid.cell_volume
    outside = np.ones(grid.shape, dtype=bool)
    multiplicity = np.zeros(grid.shape, dtype=np.int64)
    slices = [covering_slices(grid, pd, ball) for ball in covering.balls]
    for sel in slices:
        multiplicity[sel] += 1
        outside[sel] = False
    if np.any(vals[outside] > level):
        raise CoverMissing("level set escapes the covering")

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
        residual = abs(np.sum(local_bad * gamma) * cell)
        mean_zero_residuals.append(residual)
        bad_parts.append(SampledSymbol(grid=grid, values=bad))
        sum_bad += bad
        bad_l1_total += float(np.sum(np.abs(local_bad)) * cell)

    good_vals = f.values - sum_bad
    good = SampledSymbol(grid=grid, values=good_vals)
    f_l1 = float(np.sum(np.abs(vals)) * cell)
    reconstruction = float(np.max(np.abs(
        f.values - (good_vals + sum_bad)))) if covering.balls else 0.0
    report = {
        "n_balls": len(covering.balls),
        "reconstruction_max_error": reconstruction,
        "good_sup_ratio": float(np.max(np.abs(good_vals))) / level,
        "good_l1_ratio": float(np.sum(np.abs(good_vals)) * cell) / f_l1 if f_l1 else 0.0,
        "bad_l1_ratio": bad_l1_total / f_l1 if f_l1 else 0.0,
        "mean_zero_max_residual": max(mean_zero_residuals, default=0.0),
        "f_l1": f_l1,
        "overlap": covering.overlap,
        "c_prime": covering.c_prime,
    }
    report["c_doubleprime"] = max(report["good_sup_ratio"], report["good_l1_ratio"],
                                  report["bad_l1_ratio"])
    return CZResult(level=level, covering=covering, good=good,
                    bad_parts=tuple(bad_parts), report=report)


# ---------------------------------------------------------------------------
# Kernel estimates
# ---------------------------------------------------------------------------


def hormander_twist_estimate(kernel_eval, pd: PseudoDistance, twist: TwistData,
                             c2: float, grid: Grid, u_grid: Grid) -> dict:
    """sup over test points u of  integral_{m(z) > c2 m(u)} |gamma(z, u^-1)
    k(z u^-1) - k(z)| dz, by trapezoid quadrature on the z-grid.

    The u set is the punctured node set of ``u_grid``, kept fixed under
    z-grid refinement so that refinement studies compare the same supremum.
    The twist must have a cocycle matrix (``ValueError`` otherwise), so that
    z u^-1 = z - u, and ``u_grid`` must share the z-grid's dimension and
    half-width.  Both grids then lie on the lattice of the finer one, with
    P = max(N_z, N_u) points and step h = 2L/P, so every z - u is a lattice
    offset m h with |m_j| < P: the kernel is evaluated once on that
    (2P-1)^d offset table and k(z - u) is read from it by integer index.

    Only the live test points, where the mask m(z) > c2 m(u) is not empty, are
    evaluated.  Every other u integrates to exactly 0.0 and cannot beat a
    running best of at least 0.0, and the live rows keep their order, so the
    result (including the first u to reach the maximum) is the one the full
    u set gives; ``n_u`` still counts the whole punctured set.  The kernel
    must be finite on the grid and on the offset table (``ValueError``
    otherwise): a NaN would make a sum unorderable and drop a real maximum.
    """
    twist.cocycle_matrix()
    if u_grid.dim != grid.dim or u_grid.half_width != grid.half_width:
        raise GridMismatch(
            f"the u-grid must share the z-grid's dimension and half-width, got "
            f"d,L = {u_grid.dim},{u_grid.half_width:g} and "
            f"{grid.dim},{grid.half_width:g}")
    if pd.quasi_constant is None:
        raise ValueError("pseudo-distance must be calibrated first")
    if not c2 > 2.0 * pd.quasi_constant:
        raise C2TooSmall(f"need c2 > {2.0 * pd.quasi_constant}")
    z_pts = grid.nodes()
    m_z = pd.value(z_pts)
    k_z = np.asarray(kernel_eval(z_pts), dtype=complex)
    cell = grid.cell_volume

    fine = grid if grid.points >= u_grid.points else u_grid
    table = fine.offset_nodes()
    k_table = np.asarray(kernel_eval(table), dtype=complex)
    # k(z - u) = k_table[z_index - u_index]; offset 0 is the table's centre.
    z_index = grid.offset_positions(fine) + (len(table) - 1) // 2
    u_index = u_grid.offset_positions(fine)

    if not (np.all(np.isfinite(k_z)) and np.all(np.isfinite(k_table))):
        raise ValueError("the kernel must be finite on the grid and on every "
                         "offset z - u")

    u_all = u_grid.nodes()
    m_u = pd.value(u_all)
    keep = m_u > 0
    n_u = int(np.count_nonzero(keep))
    # A row whose mask is empty sums to exactly 0.0 and never wins.
    keep &= np.max(m_z) > c2 * m_u
    u_all, m_u, u_index = u_all[keep], m_u[keep], u_index[keep]
    best = 0.0
    argmax = None
    # Blocks of about 2^17 integrand entries; each row is summed on its own,
    # so the block size changes no value.
    chunk = max(1, (1 << 17) // z_pts.shape[0])
    for start in range(0, u_all.shape[0], chunk):
        U = u_all[start:start + chunk][:, None, :]
        MU = m_u[start:start + chunk][:, None]
        Z = z_pts[None, :, :]
        # |e^{i alpha(z, -u)} k(z - u) - k(z)| on the mask, built in place.
        integrand = np.exp(1j * twist.alpha(Z, -U))
        integrand *= k_table[z_index[None, :] - u_index[start:start + chunk][:, None]]
        integrand -= k_z[None, :]
        integrand = np.abs(integrand)
        integrand *= m_z[None, :] > c2 * MU
        vals = np.sum(integrand, axis=1) * cell
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            argmax = tuple(float(c) for c in u_all[start + i])
    return {"estimate": best, "argmax_u": argmax, "c2": c2, "n_u": n_u}


def weak11_empirical(twist: TwistData, kernel: SampledSymbol, f: SampledSymbol,
                     levels) -> dict:
    """Empirical weak-(1,1) ratios  level * |{|Kf| > level}| / ||f||_1."""
    Kf = twisted_convolve(twist, kernel, [f])[0]
    return _weak11_ratios(np.abs(Kf.values), f, levels)


def weak11_ladder(twist: TwistData, kernel: SampledSymbol, f: SampledSymbol) -> dict:
    """weak11_empirical at the levels sup|Kf| / 2**j, j = 1..4, from one
    convolution; the levels are returned under "levels"."""
    mag = np.abs(twisted_convolve(twist, kernel, [f])[0].values)
    levels = [float(np.max(mag)) / 2 ** j for j in range(1, 5)]
    return {**_weak11_ratios(mag, f, levels), "levels": levels}


def _weak11_ratios(mag: np.ndarray, f: SampledSymbol, levels) -> dict:
    cell = f.grid.cell_volume
    f_l1 = float(np.sum(np.abs(f.values)) * cell)
    ratios = {}
    for lv in levels:
        measure = float(np.sum(mag > lv) * cell)
        ratios[float(lv)] = float(lv) * measure / f_l1 if f_l1 > 0 else 0.0
    positive = [v for v in ratios.values() if v > 0]
    return {
        "ratios": ratios,
        "empirical_a1": max(ratios.values()) if ratios else 0.0,
        "stability_factor": (max(positive) / min(positive)) if positive else float("inf"),
        "kf_sup": float(np.max(mag)),
    }
