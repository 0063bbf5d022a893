"""Multiplier identities and the circle-extension transference maps."""

import tracemalloc

import numpy as np
import pytest
from test_grids import dense_lift, dense_random_torus, torus

from nilharm import funcs, multipliers as mult, pedersen as pe, twist as tw, verify
from nilharm.grids import Grid, SampledSymbol, lp_norm, torus_lp_norms, torus_sup_distance


# -- dense references: the maps on whole (angles,) + grid.shape arrays --------------


def dense_flat(values):
    angles = values.shape[0]
    s = np.exp(2j * np.pi * np.arange(angles) / angles)
    return np.mean(values * s.reshape((angles,) + (1,) * (values.ndim - 1)), axis=0)


def dense_proj(grid, values):
    return dense_lift(SampledSymbol(grid, dense_flat(values)), values.shape[0])


def dense(fun):
    return np.stack(list(fun))


def test_approximate_identity_multiplier(engine64):
    grid = engine64.symbol_grid
    phis = funcs.gaussian_family(grid, 2)
    delta = funcs.discrete_delta(grid, engine64.density)
    out = mult.multiplier_check(engine64, delta, phis, phis)
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
    out = mult.multiplier_check(engine64, zero, phis, phis)
    assert max(out["intertwining_hs"]) == 0.0
    assert max(out["right_commutation_l2"]) == 0.0
    assert out["identity_gap"] == [1.0] * len(phis)
    assert all(r == 0.0 for rs in out["lp_ratios"].values() for r in rs)


def test_integrable_kernel_family_bounded_ratios(engine64):
    grid = engine64.symbol_grid
    phis = funcs.gaussian_family(grid, 3)
    u = funcs.sample(grid, funcs.truncated_power(1.5, 0.25, 6.0))
    out = mult.multiplier_check(engine64, u, phis, phis)
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
    # 3 phi * psi products shared by the three multipliers and 9 per
    # multiplier.  Each multiplier u sweeps once for u * phi, which its
    # homomorphism residual reads as given, and once for u * (phi * psi).
    verify.multiplier_suite(0, 8.0, 32)
    assert convolve_calls == {"products": 30, "sweeps": 18}


def _intertwining_reference(engine, u, phis):
    """||T(u * phi) - T(u) . T(phi)||_HS per phi, u * phi on the FFT loop."""
    M = engine.transform(u)
    cphis = tw.twisted_convolve(engine.twist, u, phis, density=engine.density)
    return [(engine.transform(cphi) - M.compose(engine.transform(phi))).hs_norm()
            for phi, cphi in zip(phis, cphis)]


@pytest.mark.parametrize("points", [32, 64])
def test_intertwining_is_the_homomorphism_residual(h3_twist, points):
    # The multiplier report reads identity_report's residual on its own FFT
    # products: the raw residual is the direct formula bit for bit, and the
    # relative one is it divided by ||u|| ||phi||, or by 1 for a zero norm.
    engine = pe.HeisenbergRealization(h3_twist, Grid(2, 8.0, points))
    grid = engine.symbol_grid
    phis = funcs.gaussian_family(grid, 3)
    psis = funcs.hermite_family(grid, 3)
    us = [funcs.discrete_delta(grid, engine.density),
          SampledSymbol(grid, np.zeros(grid.shape)),
          funcs.sample(grid, funcs.truncated_power(1.5, 0.25, 6.0))]
    for u, out in zip(us, mult.multiplier_checks(engine, us, phis, psis)):
        assert out["intertwining_hs"] == _intertwining_reference(engine, u, phis)
        scales = [engine.symbol_norm(u) * engine.symbol_norm(phi) for phi in phis]
        assert out["intertwining_rel"] == [
            r / (scale if scale != 0.0 else 1.0)
            for r, scale in zip(out["intertwining_hs"], scales)]


def _flat_with_inverse_angles(phi):
    """flat_map integrating against s^-1 instead of s."""
    total = sum(slab / s for slab, s in zip(phi, phi.angle_samples))
    return SampledSymbol(phi.grid, total / phi.angles)


def _flat_at_first_angle(phi):
    """flat_map reading the angle s = 1 only, with no quadrature."""
    return SampledSymbol(phi.grid, next(iter(phi)))


def test_multiplier_suite_passes_at_n32():
    assert all(c.status != "fail" for c in verify.multiplier_suite(0, 8.0, 32).checks)


@pytest.mark.parametrize("defect, failing", [
    (_flat_with_inverse_angles,
     {"sharp_flat_roundtrip", "flat_sharp_equals_projection", "projection_idempotent"}),
    (_flat_at_first_angle, {"flat_sharp_equals_projection"}),
])
def test_multiplier_suite_sees_a_defective_flat_map(monkeypatch, defect, failing):
    # s^-1 loses the lifted mode, which every check through flat_map sees.
    # Reading one angle keeps flat(psi^sharp) = psi, so the round trip and
    # idempotence hold; only the projection of a function with other modes
    # than s^-1 can tell.  The unmodified suite passes at this grid
    # (test_multiplier_suite_passes_at_n32).
    monkeypatch.setattr(mult, "flat_map", defect)
    rep = verify.multiplier_suite(0, 8.0, 32)
    assert {c.name for c in rep.checks if c.status == "fail"} == failing


def test_sharp_map_values(grid32):
    psi = funcs.sample(grid32, funcs.gaussian((0.4, 0.0)))
    lifted = mult.sharp_map(psi, angles=8)
    t = lifted.angle_samples
    slabs = dense(lifted)
    for k in (0, 3, 5):
        assert np.allclose(slabs[k], psi.values / t[k])


def test_sharp_flat_roundtrip_and_isometry(grid32):
    psi = funcs.sample(grid32, funcs.gaussian((0.2, -0.5), 0.9, (0.3, 0.1)))
    lifted = mult.sharp_map(psi, angles=64)
    back = mult.flat_map(lifted)
    assert np.max(np.abs(back.values - psi.values)) <= 1e-12
    for p in (1.0, 1.5, 2.0, 3.0):
        assert abs(torus_lp_norms(lifted, [p])[0] - lp_norm(psi, p)) \
            <= 1e-12 * lp_norm(psi, p)


def test_projection_properties(grid32):
    angles = 16
    phi = torus(grid32, dense_random_torus(grid32, angles, 2))
    proj = mult.proj_p(phi)
    # (flat then sharp) equals the projection.
    again = mult.sharp_map(mult.flat_map(phi), angles)
    assert torus_sup_distance(again, proj) <= 1e-12
    # Idempotence.
    twice = mult.proj_p(proj)
    assert torus_sup_distance(twice, proj) <= 1e-12
    # The projection is norm non-increasing in L^2.
    assert torus_lp_norms(proj, [2])[0] <= torus_lp_norms(phi, [2])[0] * (1 + 1e-12)


def test_projection_fixes_sharp_image(grid32):
    psi = funcs.sample(grid32, funcs.gaussian())
    lifted = mult.sharp_map(psi, angles=32)
    assert torus_sup_distance(mult.proj_p(lifted), lifted) <= 1e-12


@pytest.mark.parametrize("points, angles",
                         [(32, 8), (32, 64), (64, 8), (64, 64), (8, 8), (32, 12)])
def test_torus_maps_match_dense_references(points, angles):
    # Dividing by t_k slab by slab and adding slab_k * s_k in angle order is
    # the arithmetic of the dense maps at every grid size and angle count.
    grid = Grid(2, 8.0, points)
    for psi in (funcs.sample(grid, funcs.gaussian((0.2, -0.5), 0.9, (0.3, 0.1))),
                funcs.hermite_family(grid, 3)[2]):
        lifted = mult.sharp_map(psi, angles)
        assert np.array_equal(dense(lifted), dense_lift(psi, angles))
        assert np.array_equal(mult.flat_map(lifted).values,
                              dense_flat(dense_lift(psi, angles)))
    values = dense_random_torus(grid, angles, 7)
    phi = torus(grid, values)
    assert np.array_equal(mult.flat_map(phi).values, dense_flat(values))
    proj = mult.proj_p(phi)
    assert np.array_equal(dense(proj), dense_proj(grid, values))
    twice = dense_proj(grid, dense_proj(grid, values))
    assert np.array_equal(dense(mult.proj_p(proj)), twice)
    assert torus_sup_distance(mult.proj_p(proj), proj) \
        == float(np.max(np.abs(twice - dense_proj(grid, values))))


def test_multiplier_suite_torus_checks_hold_o_grid_memory(monkeypatch):
    # From its first sharp_map call on, multiplier_suite runs only its torus
    # checks; at N=64 with 64 angles they must peak below one dense torus
    # array of 64 * 64 * 64 complex values.
    verify.multiplier_suite(0, 8.0, 64)
    dense_bytes = 64 * 64 * 64 * 16
    inner = mult.sharp_map
    start = []

    def sharp_map(psi, angles=64):
        if not start:
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
        return inner(psi, angles)

    monkeypatch.setattr(mult, "sharp_map", sharp_map)
    tracemalloc.start()
    try:
        verify.multiplier_suite(0, 8.0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert start
    assert peak - start[0] < dense_bytes
