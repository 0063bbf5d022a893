"""Analytic test functions shared by the CLI, the verification suites, and tests."""

from __future__ import annotations

import numpy as np

from .grids import Grid, SampledSymbol, fold_axes


def gaussian(center=(0.0, 0.0), sigma: float = 1.0, momentum=None):
    """exp(-|x-c|^2 / (2 sigma^2)) with an optional plane-wave factor."""
    center = np.asarray(center, dtype=float)
    momentum = None if momentum is None else np.asarray(momentum, dtype=float)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        z = (pts - center) / sigma
        out = np.exp(-0.5 * fold_axes(np.add, z * z)).astype(complex)
        if momentum is not None:
            out = out * np.exp(1j * fold_axes(np.add, pts * momentum))
        return out

    return ev


def hermite_gaussian(orders):
    """Product of probabilists' Hermite polynomials times a unit Gaussian."""
    orders = tuple(int(n) for n in orders)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.exp(-0.5 * fold_axes(np.add, pts ** 2)).astype(complex)
        for axis, n in enumerate(orders):
            if n:
                coeffs = [0.0] * n + [1.0]
                out = out * np.polynomial.hermite_e.hermeval(pts[..., axis], coeffs)
        return out

    return ev


def smooth_bump(center=(0.0, 0.0), radius: float = 1.0, height: float = 1.0):
    """C^infinity bump exp(1 - 1/(1-|z|^2)) supported on |x - c| < radius.

    The exponential is evaluated on the support only; every other point holds
    height * 0.0, so a negative height gives -0.0 there."""
    center = np.asarray(center, dtype=float)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = fold_axes(np.add, ((pts - center) / radius) ** 2)
        inside = r2 < 1.0
        out = np.full(np.shape(r2), height * 0.0, dtype=complex)
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    return ev


def truncated_power(exponent: float = 3.0, inner: float = 1.0, outer: float = 4.0):
    """|x|^(-exponent) on the annulus inner < |x| < outer, zero elsewhere."""

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt(fold_axes(np.add, pts * pts))
        mask = (r > inner) & (r < outer)
        safe = np.where(mask, r, 1.0)
        return np.where(mask, safe ** (-exponent), 0.0).astype(complex)

    return ev


def discrete_delta(grid: Grid, mass_density: float = 1.0) -> SampledSymbol:
    """Unit point mass at the origin node for the measure density*h^d."""
    vals = np.zeros(grid.shape, dtype=complex)
    vals[grid.origin_index] = 1.0 / (mass_density * grid.cell_volume)
    return SampledSymbol(grid=grid, values=vals)


def sample(grid: Grid, fn) -> SampledSymbol:
    """The symbol with the values of fn (pts (..., dim) -> complex) at the nodes."""
    vals = np.asarray(fn(grid.nodes()), dtype=complex).reshape(grid.shape)
    return SampledSymbol(grid=grid, values=vals)


# The parameters of gaussian_family, (center, sigma, momentum) per member,
# and the Hermite orders of hermite_family, whose members all share the unit
# Gaussian gaussian().  The closed-form products of the suites read the same
# tables.
GAUSSIAN_PARAMS = (((0.5, -0.3), 1.0, (0.4, 0.1)), ((-0.2, 0.8), 0.8, (-0.3, 0.2)),
                   ((1.1, 0.4), 1.3, (0.0, -0.5)), ((-0.7, -0.6), 0.9, (0.6, 0.0)),
                   ((0.0, 0.0), 1.1, (0.2, 0.3)))
HERMITE_ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1))


def gaussian_family(grid: Grid, n: int):
    """Deterministic family of distinct Gaussian symbols."""
    return [sample(grid, gaussian(*GAUSSIAN_PARAMS[k % len(GAUSSIAN_PARAMS)]))
            for k in range(n)]


def hermite_family(grid: Grid, n: int):
    return [sample(grid, hermite_gaussian(HERMITE_ORDERS[k % len(HERMITE_ORDERS)]))
            for k in range(n)]


def hermite_moment(order: int, mean, variance: float):
    """E[He_order(Y)] for Y ~ N(mean, variance), mean complex: H_0 = 1,
    H_1 = mean, H_{k+1} = mean H_k - (1 - variance) k H_{k-1}, from the
    generating function E[exp(Y t - t^2/2)] = exp(mean t - (1 - variance) t^2/2)."""
    prev, cur = 0.0, 1.0
    for k in range(order):
        prev, cur = cur, mean * cur - (1.0 - variance) * k * prev
    return cur


def twisted_gaussian_product(alpha_matrix, density: float, first=((0.0, 0.0), 1.0, None),
                             second=((0.0, 0.0), 1.0, None), orders=(0, 0)):
    """The exact twisted convolution b1 * b2 over the whole plane, for
    b1 = gaussian(*first) and b2(y) = He_{o_0}(y_0) He_{o_1}(y_1) gaussian(*second)(y),
    under the cocycle x^T A y, A = alpha_matrix, and the measure density * dy:

        (b1 * b2)(x) = density * integral exp(i x^T A y) b1(x - y) b2(y) dy.

    With b_k(z) = exp(-|z|^2 / (2 sigma_k^2) + q_k^T z + r_k), where
    q_k = c_k / sigma_k^2 + i m_k and r_k = -|c_k|^2 / (2 sigma_k^2), the
    integral is Gaussian in y:

        (b1 * b2)(x) = density (2 pi s) exp(s J^T J / 2 - |x|^2 / (2 sigma_1^2)
                       + q_1^T x + r_1 + r_2) prod_a E[He_{o_a}(Y_a)],

    where 1/s = 1/sigma_1^2 + 1/sigma_2^2, J = x / sigma_1^2 - q_1 + q_2 + i A^T x
    and Y ~ N(s J, s) has a complex mean (``hermite_moment``).  The grid
    products miss it by their box term only (tests/test_twist.py)."""
    A = np.asarray(alpha_matrix, dtype=float)
    (c1, sig1, m1), (c2, sig2, m2) = first, second

    def linear(center, sigma, momentum):
        center = np.asarray(center, dtype=float)
        q = center / sigma ** 2 + 1j * np.asarray(0.0 if momentum is None else momentum)
        return q, -0.5 * float(center @ center) / sigma ** 2

    (q1, r1), (q2, r2) = linear(c1, sig1, m1), linear(c2, sig2, m2)
    s = 1.0 / (1.0 / sig1 ** 2 + 1.0 / sig2 ** 2)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        J = pts / sig1 ** 2 + (q2 - q1) + 1j * (pts @ A)
        exponent = (0.5 * s * (J[..., 0] ** 2 + J[..., 1] ** 2)
                    - 0.5 * fold_axes(np.add, pts * pts) / sig1 ** 2
                    + pts @ q1 + (r1 + r2))
        out = density * 2.0 * np.pi * s * np.exp(exponent)
        for axis, order in enumerate(orders):
            out = out * hermite_moment(order, s * J[..., axis], s)
        return out

    return ev
