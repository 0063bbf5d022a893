"""Multiplier verification and the circle-extension transference maps.

A candidate multiplier is the operator transform of a fixed symbol u; its
companion acts on symbols by twisted convolution with u.  The report measures
the defining identity transform(u * phi) = transform(u) transform(phi), the
commutation of the companion with right twisted convolution, and empirical
L^p operator ratios.

The lift to the circle extension sends psi to psi^sharp(t, x) = psi(x)/t; its
left inverse integrates against the angle character, and the induced
projection is their composition.  With uniform angle samples the character
quadrature is exact for the single Fourier mode the lift occupies.
"""

from __future__ import annotations

import numpy as np

from .grids import SampledSymbol, TorusGridFunction, lp_norm
from .pedersen import HeisenbergRealization


def multiplier_check(engine: HeisenbergRealization, u: SampledSymbol,
                     phis: list[SampledSymbol],
                     psis: list[SampledSymbol] | None = None,
                     ps: tuple[float, ...] = (1.25, 1.5, 2.0)) -> dict:
    """Residual report for the multiplier defined by the symbol u.

    "identity_gap" holds ||u * phi - phi|| / ||phi|| per phi, the distance of
    the companion from the identity, which is small when u is an
    approximate identity."""
    M = engine.transform(u)
    psis = psis if psis is not None else phis
    report: dict = {"intertwining_hs": [], "right_commutation_l2": [],
                    "identity_gap": [], "lp_ratios": {p: [] for p in ps}}
    cphis = [engine.convolve(u, phi) for phi in phis]
    for phi, cphi in zip(phis, cphis):
        resid = (engine.transform(cphi) - M.compose(engine.transform(phi))).hs_norm()
        report["intertwining_hs"].append(resid)
        report["identity_gap"].append(
            engine.symbol_norm(SampledSymbol(cphi.grid, cphi.values - phi.values))
            / engine.symbol_norm(phi))
        for p in ps:
            denom = lp_norm(phi, p, density=engine.density)
            report["lp_ratios"][p].append(
                lp_norm(cphi, p, density=engine.density) / denom if denom else 0.0)
    for (phi, cphi), psi in zip(zip(phis, cphis), psis):
        lhs = engine.convolve(u, engine.convolve(phi, psi))
        rhs = engine.convolve(cphi, psi)
        diff = SampledSymbol(lhs.grid, lhs.values - rhs.values)
        report["right_commutation_l2"].append(engine.symbol_norm(diff))
    return report


# ---------------------------------------------------------------------------
# sharp / flat / projection
# ---------------------------------------------------------------------------


def sharp_map(psi: SampledSymbol, angles: int = 64) -> TorusGridFunction:
    """psi^sharp(t, x) = psi(x) / t on uniform unit-circle samples."""
    t = np.exp(2j * np.pi * np.arange(angles) / angles)
    shape = (angles,) + (1,) * psi.grid.dim
    values = psi.values[None, ...] / t.reshape(shape)
    return TorusGridFunction(grid=psi.grid, angles=angles, values=values)


def flat_map(phi: TorusGridFunction) -> SampledSymbol:
    """phi^flat(x) = integral over the circle of phi(s, x) s ds (normalized measure)."""
    s = phi.angle_samples.reshape((phi.angles,) + (1,) * phi.grid.dim)
    values = np.mean(phi.values * s, axis=0)
    return SampledSymbol(grid=phi.grid, values=values)


def proj_p(phi: TorusGridFunction) -> TorusGridFunction:
    """(P phi)(t, x) = (1/t) integral phi(s, x) s ds; the range of sharp."""
    flat = flat_map(phi)
    return sharp_map(flat, angles=phi.angles)
