"""Twisted Calderon-Zygmund machinery on a flat predual grid.

The pseudo-distance is the sup-norm gauge m(x) = max_j |x_j|, whose balls
are cubes: on the 2-step preduals that the grid engine takes, every predual
coordinate lies in the first layer of the lower central series.  Its
quasi-triangle constant is measured, not assumed; its volume-doubling
constant is 2^dim, the volume ratio of cubes of half-widths 2r and r.  The
covering comes from the level set of a discrete maximal function over m-balls
with a greedy Vitali selection (decreasing maximal value, ties by row-major
index).  The maximal function costs one axis-0 prefix sum per cover and one
prefix-sum pass along each further axis per distinct clipped half-width of
the radius ladder; the cell counts are products of per-axis counts, and only
the current window is held.  The cover keeps its per-node ball count (the
multiplicity), and the decomposition reads it: eta_i = 1 / count on B_i, and
a node of count 0 above the level is refused.  The phase-corrected bad parts

    b_i(z) = f(z) eta_i(z)
             - (avg over B_i of f eta_i gamma(z_i, .^-1)) chi_i(z) / gamma(z_i, z^-1)

vanish off B_i, so each is held on its ball's nodes (``covering_slices``);
each one's twisted mean against gamma(z_i, z^-1) vanishes on the grid by
construction.  The twist is a cocycle matrix (``twist.TwistData``): the
reduced product is z + u and the cocycle bilinear, and a twist without a
matrix is refused with a ValueError.  In the Hormander estimate z u^-1 is
then z - u and the phase gamma(z, u^-1) = e^{-i z^T A u} a tensor product of
one factor per grid axis, built from d exponentials of length N.  On grids of
one half-width and power-of-two sizes every difference z - u is an offset of
the finer lattice, so the kernel is evaluated once on the table of those
offsets and k(z - u) over the z-grid is read back as one strided slice of it
per test point u.  Only live test points u, those with max m(z) > c2 m(u),
are integrated: the mask of any other u is empty, so with a finite kernel its
integral is exactly 0.0 and cannot be the supremum, and skipping it changes
no returned bit.  Haar measure in exponential coordinates is Lebesgue; each
node carries cell volume h^d, and the group inverse is coordinate negation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import Grid, GridMismatch, SampledSymbol, fold_axes
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
    """Sup-norm gauge on ``dim`` axes with its quasi-triangle (measured) and
    doubling (2^dim) constants."""

    dim: int
    quasi_constant: float | None = None
    doubling_constant: float | None = None

    def value(self, pts: np.ndarray) -> np.ndarray:
        return fold_axes(np.maximum, np.abs(np.asarray(pts, dtype=float)))


def default_pseudo_distance(twist: TwistData) -> PseudoDistance:
    """Sup-norm gauge on the twist's predual coordinates."""
    return PseudoDistance(dim=twist.dim)


def calibrate(pd: PseudoDistance, twist: TwistData, seed: int = 0) -> PseudoDistance:
    """Measure the quasi-triangle constant on 2000 random pairs in each of the
    cubes of half width 1, 2, 4 and 8.  The twist must have a cocycle matrix
    (``ValueError`` otherwise), so that the product is x + y.
    """
    gen = seeded_rng("pseudo-distance-calibration", seed)
    per_box = []
    for r in (1.0, 2.0, 4.0, 8.0):
        x = gen.uniform(-r, r, size=(2000, pd.dim))
        y = gen.uniform(-r, r, size=(2000, pd.dim))
        prod = twist.combine(x, y)
        num = pd.value(prod)
        den = np.maximum(pd.value(x), pd.value(y))
        ok = den > 0
        per_box.append(float(np.max(num[ok] / den[ok])))
    c_m = max(per_box)
    # The balls are cubes: doubling the half-width multiplies the volume by 2^dim.
    return replace(pd, quasi_constant=c_m, doubling_constant=2.0 ** pd.dim)


# ---------------------------------------------------------------------------
# Covering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Covering:
    """Selected balls (center index, center coordinates, radius), the
    read-only count of selected balls over each grid node, plus measured
    covering constants."""

    grid: Grid
    level: float
    balls: tuple[tuple[tuple[int, ...], tuple[float, ...], float], ...]
    mean_bound: float        # max over balls of (ball average of f) / level
    mass_ratio: float        # sum |B_i| * level / ||f||_1
    expansion: float
    multiplicity: np.ndarray = field(compare=False)

    @property
    def overlap(self) -> int:
        """Max covering multiplicity over grid nodes."""
        return int(self.multiplicity.max())

    @property
    def c_prime(self) -> float:
        return max(self.mean_bound, self.mass_ratio)


def _window_step(grid: Grid, r: float) -> int:
    """Lattice half-width of the cube {m(z - y) < r} on the grid, every axis."""
    return int(np.ceil(r / grid.h - 1e-12)) - 1


def _radius_ladder(grid: Grid) -> list[float]:
    r0 = 0.5 * grid.h
    r_max = 4.0 * grid.half_width
    ladder = [r0]
    while ladder[-1] <= r_max:
        ladder.append(ladder[-1] * 2.0)
    return ladder


def _padded_cumsum(arr: np.ndarray, axis: int) -> np.ndarray:
    """Prefix sums of arr along axis, after a leading slice of zeros."""
    shape = list(arr.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    np.cumsum(arr, axis=axis, out=out[(slice(None),) * axis + (slice(1, None),)])
    return out


def _cube_average(c0: np.ndarray, s: int) -> np.ndarray:
    """Boundary-clipped cube averages of lattice half-width s > 0, from the
    axis-0 prefix sums c0 (``_padded_cumsum(vals, 0)``).

    Along each axis a window sum is hi minus lo of the padded prefix sums, so
    lo is 0.0 at the low edge; the cell counts are the products of the
    per-axis counts hi - lo, exact integers.
    """
    n = c0.shape[0] - 1
    pos = np.arange(n)
    hi = np.minimum(pos + s, n - 1) + 1
    lo = np.maximum(pos - s, 0)
    window = c0[hi]
    window -= c0[lo]
    for axis in range(1, c0.ndim):
        c = _padded_cumsum(window, axis)
        window = np.take(c, hi, axis=axis)
        window -= np.take(c, lo, axis=axis)
    cnt = (hi - lo).astype(float)
    counts = cnt
    for _ in range(1, c0.ndim):
        counts = np.multiply.outer(counts, cnt)
    window /= counts
    return window


def _ladder_maximal(vals: np.ndarray, grid: Grid,
                    level: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximal function over the radius ladder, and per node the largest
    ladder radius whose ball average exceeds the level (-1 where none does).

    The prefix sums along axis 0 are built once; each distinct half-width
    then takes one prefix-sum pass along each further axis.  The half-width
    never decreases along the ladder and every s >= N - 1 spans the grid, so
    radii of one clipped half-width share a window and only the current
    window is held.
    """
    c0 = _padded_cumsum(vals, 0)
    maximal = np.zeros(grid.shape)
    stop_radius = np.full(grid.shape, -1.0)
    current, avg = 0, vals      # half-width 0: the ball is the node itself
    for r in _radius_ladder(grid):
        s = min(_window_step(grid, r), grid.points - 1)
        if s > current:
            del avg
            current, avg = s, _cube_average(c0, s)
        np.maximum(maximal, avg, out=maximal)
        stop_radius[avg > level] = r
    return maximal, stop_radius


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

    maximal, stop_radius = _ladder_maximal(vals, grid, level)
    # Only level-set nodes can be selected: a stable sort of them alone is
    # their part of the stable decreasing order over the whole grid.
    nodes = np.flatnonzero(maximal > level)
    order = nodes[np.argsort(-maximal.reshape(-1)[nodes], kind="stable")]
    axes = grid.axis
    balls = []
    cell = grid.cell_volume
    multiplicity = np.zeros(grid.shape, dtype=np.int32)
    total_ball_measure = 0.0
    mean_bound = 0.0
    for idx in zip(*(c.tolist() for c in np.unravel_index(order, grid.shape))):
        if multiplicity[idx]:
            continue
        ball = (idx, tuple(float(axes[i]) for i in idx),
                float(expansion * stop_radius[idx]))
        sel = covering_slices(grid, ball)
        multiplicity[sel] += 1
        count = int(np.prod([s.stop - s.start for s in sel]))
        measure = count * cell
        total_ball_measure += measure
        mean_bound = max(mean_bound, float(np.sum(vals[sel]) * cell / measure) / level)
        balls.append(ball)
    f_mass = float(np.sum(vals) * cell)
    mass_ratio = total_ball_measure * level / f_mass if f_mass > 0 else 0.0
    multiplicity.flags.writeable = False
    return Covering(grid=grid, level=level, balls=tuple(balls),
                    mean_bound=mean_bound, mass_ratio=mass_ratio,
                    expansion=expansion, multiplicity=multiplicity)


def covering_slices(grid: Grid, ball) -> tuple[slice, ...]:
    idx, _, r = ball
    s = _window_step(grid, r)
    return tuple(slice(max(0, i - s), min(grid.points, i + s + 1)) for i in idx)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CZResult:
    covering: Covering
    good: SampledSymbol
    bad_parts: tuple[np.ndarray, ...]   # b_i on covering_slices(grid, B_i)
    report: dict


def cz_decompose(f: SampledSymbol, level: float, pd: PseudoDistance,
                 twist: TwistData) -> CZResult:
    """Good/bad splitting at the given level with twisted mean-zero bad parts,
    each held on its ball, in the order of ``covering.balls``."""
    covering = cz_cover(f, level, pd)
    grid = f.grid
    vals = f.values.real.astype(float)
    cell = grid.cell_volume
    multiplicity = covering.multiplicity
    if np.any(vals[multiplicity == 0] > level):
        raise CoverMissing("level set escapes the covering")

    bad_parts = []
    mean_zero_residuals = []
    sum_bad = np.zeros(grid.shape, dtype=complex)
    bad_l1_total = 0.0
    for ball in covering.balls:
        _, center, _ = ball
        sel = covering_slices(grid, ball)
        local_pts = np.stack(np.meshgrid(*(grid.axis[s] for s in sel), indexing="ij"),
                             axis=-1)
        z_center = np.broadcast_to(np.asarray(center), local_pts.shape)
        gamma = np.exp(1j * twist.alpha(z_center, -local_pts))
        eta = 1.0 / multiplicity[sel]
        measure = eta.size * cell
        weighted = np.sum(vals[sel] * eta * gamma) * cell
        local_bad = vals[sel] * eta - (weighted / measure) / gamma
        mean_zero_residuals.append(abs(np.sum(local_bad * gamma) * cell))
        bad_parts.append(local_bad)
        sum_bad[sel] += local_bad
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
    return CZResult(covering=covering, good=good, bad_parts=tuple(bad_parts),
                    report=report)


# ---------------------------------------------------------------------------
# Kernel estimates
# ---------------------------------------------------------------------------


def _axis_phases(A: np.ndarray, u: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """The factors e^{-i z_a (A u)_a} over the grid's axis values, factor a
    shaped to broadcast along axis a: their product is e^{i alpha(z, -u)}."""
    return [np.exp(1j * w * grid.axis).reshape((-1,) + (1,) * (grid.dim - 1 - a))
            for a, w in enumerate(A @ -u)]


def hormander_twist_estimate(kernel_eval, pd: PseudoDistance, twist: TwistData,
                             c2: float, grid: Grid, u_grid: Grid) -> dict:
    """sup over test points u of  integral_{m(z) > c2 m(u)} |gamma(z, u^-1)
    k(z u^-1) - k(z)| dz, by trapezoid quadrature on the z-grid.

    The u set is the punctured node set of ``u_grid``, kept fixed under
    z-grid refinement so that refinement studies compare the same supremum.
    The twist must have a cocycle matrix A (``ValueError`` otherwise), so
    that z u^-1 = z - u and gamma(z, u^-1) = e^{-i z^T A u} is the tensor
    product over the grid axes of the factors e^{-i z_a (A u)_a}: d
    exponentials of length N per test point, not N^d, applied to the kernel
    one axis at a time.  ``u_grid`` must share the z-grid's dimension and
    half-width.  Both grids then lie on the lattice of the finer one, with
    P = max(N_z, N_u) points and step h = 2L/P, so every z - u is a lattice
    offset m h with |m_j| < P: the kernel is evaluated once on that (2P-1)^d
    offset table, and k(z - u) over the z-grid is one strided slice of it
    (``Grid.offset_window``).  The product of the factors rounds differently
    from one exponential of the cocycle, so the estimate agrees with the
    pointwise integral to round-off, and the returned u may move among test
    points whose integrals tie.

    Only the live test points, where the mask m(z) > c2 m(u) is not empty, are
    evaluated.  Every other u integrates to exactly 0.0 and cannot beat a
    running best of at least 0.0, and the live rows keep their order, so the
    result (including the first u to reach the maximum) is the one the full
    u set gives; ``n_u`` still counts the whole punctured set.  The kernel
    must be finite on the grid and on the offset table (``ValueError``
    otherwise): a NaN would make a sum unorderable and drop a real maximum.
    """
    A = twist.cocycle_matrix()
    if u_grid.dim != grid.dim or u_grid.half_width != grid.half_width:
        raise GridMismatch(
            f"the u-grid must share the z-grid's dimension and half-width, got "
            f"d,L = {u_grid.dim},{u_grid.half_width:g} and "
            f"{grid.dim},{grid.half_width:g}")
    if pd.quasi_constant is None:
        raise ValueError("pseudo-distance must be calibrated first")
    if not (np.isfinite(c2) and c2 > 2.0 * pd.quasi_constant):
        raise C2TooSmall(f"need a finite c2 > {2.0 * pd.quasi_constant}, got {c2}")
    z_pts = grid.nodes()
    m_z = pd.value(z_pts).reshape(grid.shape)
    k_z = np.asarray(kernel_eval(z_pts), dtype=complex).reshape(grid.shape)
    cell = grid.cell_volume

    fine = grid if grid.points >= u_grid.points else u_grid
    k_table = np.asarray(kernel_eval(fine.offset_nodes()), dtype=complex)
    if not (np.all(np.isfinite(k_z)) and np.all(np.isfinite(k_table))):
        raise ValueError("the kernel must be finite on the grid and on every "
                         "offset z - u")
    k_table = k_table.reshape((2 * fine.points - 1,) * grid.dim)

    u_all = u_grid.nodes()
    u_index = np.indices(u_grid.shape).reshape(grid.dim, -1).T
    m_u = pd.value(u_all)
    keep = m_u > 0
    n_u = int(np.count_nonzero(keep))
    # A row whose mask is empty (c2 * m_u may overflow to inf) sums to 0.0 and never wins.
    with np.errstate(over="ignore"):
        keep &= np.max(m_z) > c2 * m_u
    best = 0.0
    argmax = None
    for u, mu, iu in zip(u_all[keep], m_u[keep], u_index[keep]):
        # |e^{i alpha(z, -u)} k(z - u) - k(z)| on the mask, built in place.
        first, *rest = _axis_phases(A, u, grid)
        integrand = first * k_table[grid.offset_window(u_grid, iu)]
        for factor in rest:
            integrand *= factor
        integrand -= k_z
        integrand = np.abs(integrand)
        integrand *= m_z > c2 * mu
        val = np.sum(integrand) * cell
        if val > best:
            best = float(val)
            argmax = tuple(float(c) for c in u)
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
