"""Multiplier identities and the circle-extension transference maps."""

import numpy as np
import pytest

from nilharm import funcs, multipliers as mult, verify
from nilharm.grids import SampledSymbol, TorusGridFunction, lp_norm, torus_lp_norm


def test_approximate_identity_multiplier(engine64):
    grid = engine64.symbol_grid
    phis = funcs.gaussian_family(grid, 2)
    delta = funcs.discrete_delta(grid, engine64.density)
    out = mult.multiplier_check(engine64, delta, phis)
    assert max(out["intertwining_hs"]) <= 1e-2
    assert max(out["right_commutation_l2"]) <= 1e-2
    for phi in phis:
        gap = engine64.symbol_norm(SampledSymbol(
            grid, engine64.convolve(delta, phi).values - phi.values))
        assert gap / engine64.symbol_norm(phi) <= 1e-2
    assert out["identity_gap"] == [
        engine64.symbol_norm(SampledSymbol(
            grid, engine64.convolve(delta, phi).values - phi.values))
        / engine64.symbol_norm(phi) for phi in phis]


def test_zero_multiplier(engine64):
    grid = engine64.symbol_grid
    phis = funcs.gaussian_family(grid, 2)
    zero = SampledSymbol(grid, np.zeros(grid.shape))
    out = mult.multiplier_check(engine64, zero, phis)
    assert max(out["intertwining_hs"]) == 0.0
    assert max(out["right_commutation_l2"]) == 0.0
    assert out["identity_gap"] == [1.0] * len(phis)
    assert all(r == 0.0 for rs in out["lp_ratios"].values() for r in rs)


def test_integrable_kernel_family_bounded_ratios(engine64):
    grid = engine64.symbol_grid
    phis = funcs.gaussian_family(grid, 3)
    u = funcs.sample(grid, funcs.truncated_power(1.5, 0.25, 6.0))
    out = mult.multiplier_check(engine64, u, phis, ps=(1.25, 1.5, 2.0))
    for p, ratios in out["lp_ratios"].items():
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 50.0


def test_multiplier_checks_match_one_check_per_multiplier(engine64):
    grid = engine64.symbol_grid
    phis = funcs.gaussian_family(grid, 2)
    psis = funcs.hermite_family(grid, 2)
    us = [funcs.discrete_delta(grid, engine64.density),
          SampledSymbol(grid, np.zeros(grid.shape)),
          funcs.sample(grid, funcs.truncated_power(1.5, 0.25, 6.0))]
    assert mult.multiplier_checks(engine64, us, phis, psis) == [
        mult.multiplier_check(engine64, u, phis, psis) for u in us]


def test_multiplier_checks_need_one_psi_per_phi(engine64):
    grid = engine64.symbol_grid
    phis = funcs.gaussian_family(grid, 2)
    u = funcs.discrete_delta(grid, engine64.density)
    for psis in (phis[:1], phis + phis[:1]):
        with pytest.raises(ValueError):
            mult.multiplier_checks(engine64, [u], phis, psis)
        with pytest.raises(ValueError):
            mult.multiplier_check(engine64, u, phis, psis)


def test_multiplier_suite_shares_products_across_multipliers(convolve_calls):
    # 3 phi * psi products shared by the three multipliers, 9 per multiplier,
    # and 3 in the independent identity-report route.
    verify.multiplier_suite(0, 8.0, 32)
    assert convolve_calls[0] == 33


def test_sharp_map_values(grid32):
    psi = funcs.sample(grid32, funcs.gaussian((0.4, 0.0)))
    lifted = mult.sharp_map(psi, angles=8)
    t = lifted.angle_samples
    for k in (0, 3, 5):
        assert np.allclose(lifted.values[k], psi.values / t[k])


def test_sharp_flat_roundtrip_and_isometry(grid32):
    psi = funcs.sample(grid32, funcs.gaussian((0.2, -0.5), 0.9, (0.3, 0.1)))
    lifted = mult.sharp_map(psi, angles=64)
    back = mult.flat_map(lifted)
    assert np.max(np.abs(back.values - psi.values)) <= 1e-12
    for p in (1.0, 1.5, 2.0, 3.0):
        assert abs(torus_lp_norm(lifted, p) - lp_norm(psi, p)) \
            <= 1e-12 * lp_norm(psi, p)


def test_projection_properties(grid32):
    gen = np.random.default_rng(2)
    angles = 16
    vals = (gen.standard_normal((angles,) + grid32.shape)
            + 1j * gen.standard_normal((angles,) + grid32.shape))
    phi = TorusGridFunction(grid=grid32, angles=angles, values=vals)
    proj = mult.proj_p(phi)
    # (flat then sharp) equals the projection.
    again = mult.sharp_map(mult.flat_map(phi), angles)
    assert np.max(np.abs(again.values - proj.values)) <= 1e-12
    # Idempotence.
    twice = mult.proj_p(proj)
    assert np.max(np.abs(twice.values - proj.values)) <= 1e-12
    # The projection is norm non-increasing in L^2.
    assert torus_lp_norm(proj, 2) <= torus_lp_norm(phi, 2) * (1 + 1e-12)


def test_projection_fixes_sharp_image(grid32):
    psi = funcs.sample(grid32, funcs.gaussian())
    lifted = mult.sharp_map(psi, angles=32)
    assert np.max(np.abs(mult.proj_p(lifted).values - lifted.values)) <= 1e-12
