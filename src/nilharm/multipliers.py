"""Multiplier verification and the circle-extension transference maps.

A candidate multiplier is the operator transform of a fixed symbol u; its
companion acts on symbols by twisted convolution with u.  The report measures
the defining identity transform(u * phi) = transform(u) transform(phi) as the
homomorphism residual of ``identity_report``, the commutation of the companion
with right twisted convolution, and empirical L^p operator ratios.

The lift to the circle extension sends psi to psi^sharp(t, x) = psi(x)/t; its
left inverse integrates against the angle character, and the induced
projection is their composition.  With uniform angle samples the character
quadrature is exact for the single Fourier mode the lift occupies.  Circle
functions are streamed one angle at a time, so the maps hold O(grid) memory.
"""

from __future__ import annotations

import numpy as np

from . import twist as tw
from .grids import SampledSymbol, TorusGridFunction, lp_norm
from .pedersen import HeisenbergRealization


def multiplier_checks(engine: HeisenbergRealization, us: list[SampledSymbol],
                      phis: list[SampledSymbol],
                      psis: list[SampledSymbol]) -> list[dict]:
    """Residual report for the multiplier defined by each symbol u in us.

    "intertwining_hs" and "intertwining_rel" are the raw and relative
    homomorphism residuals of ``identity_report`` on the pairs (u, phi).
    "lp_ratios" maps each p in 1.25, 1.5, 2 to ||u * phi||_p / ||phi||_p per
    phi.  "identity_gap" holds ||u * phi - phi|| / ||phi|| per phi, the
    distance of the companion from the identity, which is small when u is an
    approximate identity.  u * phi comes from one FFT sweep per u: the operator
    route would make the intertwining residual a round trip of the transform.
    phi * psi does not depend on u; it is computed once for all multipliers."""
    if len(psis) != len(phis):
        raise ValueError(f"need one psi per phi, got {len(psis)} psis "
                         f"for {len(phis)} phis")
    phi_psis = [engine.convolve(phi, psi) for phi, psi in zip(phis, psis)]
    ps = (1.25, 1.5, 2.0)
    reports = []
    for u in us:
        cphis = tw.twisted_convolve(engine.twist, u, phis, density=engine.density)
        idrep = engine.identity_report([], [(u, phi) for phi in phis], cphis)
        report: dict = {"intertwining_hs": idrep["homomorphism_hs"],
                        "intertwining_rel": idrep["homomorphism"], "right_commutation_l2": [],
                        "identity_gap": [], "lp_ratios": {p: [] for p in ps}}
        for phi, cphi in zip(phis, cphis):
            report["identity_gap"].append(
                engine.symbol_norm(SampledSymbol(cphi.grid, cphi.values - phi.values))
                / engine.symbol_norm(phi))
            for p in ps:
                denom = lp_norm(phi, p, density=engine.density)
                report["lp_ratios"][p].append(
                    lp_norm(cphi, p, density=engine.density) / denom if denom else 0.0)
        lhss = engine.convolve_each(u, phi_psis)
        for cphi, lhs, psi in zip(cphis, lhss, psis):
            rhs = engine.convolve(cphi, psi)
            diff = SampledSymbol(lhs.grid, lhs.values - rhs.values)
            report["right_commutation_l2"].append(engine.symbol_norm(diff))
        reports.append(report)
    return reports


def multiplier_check(engine: HeisenbergRealization, u: SampledSymbol,
                     phis: list[SampledSymbol],
                     psis: list[SampledSymbol]) -> dict:
    """multiplier_checks for the single multiplier u."""
    return multiplier_checks(engine, [u], phis, psis)[0]


# ---------------------------------------------------------------------------
# sharp / flat / projection
# ---------------------------------------------------------------------------


def sharp_map(psi: SampledSymbol, angles: int = 64) -> TorusGridFunction:
    """psi^sharp(t, x) = psi(x) / t on uniform unit-circle samples, one angle
    at a time."""
    t = np.exp(2j * np.pi * np.arange(angles) / angles)
    return TorusGridFunction(grid=psi.grid, angles=angles,
                             slabs=lambda: (psi.values / t_k for t_k in t))


def flat_map(phi: TorusGridFunction) -> SampledSymbol:
    """phi^flat(x) = integral over the circle of phi(s, x) s ds (normalized measure).

    The terms are added in angle order and the sum divided by the angle
    count, the arithmetic of np.mean over the angle axis of a dense array."""
    terms = (slab * s for slab, s in zip(phi, phi.angle_samples))
    total = next(terms)
    for term in terms:
        total += term
    return SampledSymbol(grid=phi.grid, values=total / phi.angles)


def proj_p(phi: TorusGridFunction) -> TorusGridFunction:
    """(P phi)(t, x) = (1/t) integral phi(s, x) s ds; the range of sharp."""
    flat = flat_map(phi)
    return sharp_map(flat, angles=phi.angles)
