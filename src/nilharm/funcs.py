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


def gaussian_family(grid: Grid, n: int):
    """Deterministic family of distinct Gaussian symbols."""
    centers = ((0.5, -0.3), (-0.2, 0.8), (1.1, 0.4), (-0.7, -0.6), (0.0, 0.0))
    sigmas = (1.0, 0.8, 1.3, 0.9, 1.1)
    moms = ((0.4, 0.1), (-0.3, 0.2), (0.0, -0.5), (0.6, 0.0), (0.2, 0.3))
    return [sample(grid, gaussian(centers[k % 5], sigmas[k % 5], moms[k % 5]))
            for k in range(n)]


def hermite_family(grid: Grid, n: int):
    orders = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1))
    return [sample(grid, hermite_gaussian(orders[k % len(orders)])) for k in range(n)]

