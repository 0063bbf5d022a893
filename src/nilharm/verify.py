"""Verification suites: every invariant battery behind one Report interface.

Each suite draws its randomness from named seed streams, so identical
(seed, inputs) produce byte-identical reports.

Every numeric bound handed to ``Report.check_bound`` -- here and in the CLI --
is an entry of ``TOLERANCES``, keyed by the identity being checked.  A bound
that a suite and a CLI command share is one entry, so the two cannot drift
apart, and tightening a bound is a one-line change to this table.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from . import catalog as cat
from . import czdecomp as cz
from . import exactlinalg as ela
from . import funcs
from . import lie_core as lc
from . import multipliers as mult
from . import orbits as ob
from . import pedersen as pe
from . import symplectic as sp
from . import twist as tw
from .grids import (Grid, SampledSymbol, TorusGridFunction, fold_axes, lp_norm,
                    torus_lp_norms, torus_sup_distance)
from .polymap import associativity_defect, inverse_unit_defect, ray_defect
from .rationals import is_zero_vector, over_common_denominator
from .reports import Check, Report
from .seeds import random_fraction, stream


# Bounds may be tightened, never loosened; CHANGES.md records every change.
TOLERANCES: dict[str, float] = {
    # Operator transform and twisted convolution (twist suite, `twist ...`).
    "density_matches_power_of_2pi": 1e-6,  # grids with N >= 64
    "density_matches_power_of_2pi_coarse": 1e-4,  # grids with N < 64
    "trace_identity": 1e-3,
    "adjoint_identity_hs": 1e-8,
    "hs_isometry_rel": 1e-12,  # grids with N >= 64
    "hs_isometry_rel_coarse": 1e-3,  # grids with N < 64
    "inversion_roundtrip_rel": 1e-3,
    "homomorphism_rel": 1e-3,
    "trace_pairing_rel": 1e-3,
    "zero_symbol_zero_operator": 0.0,
    "ccr_phase_residual": 1e-10,
    "rep_isometry_residual": 1e-10,
    "l2_submultiplicativity_slack": 1.0 + 1e-6,
    "twisted_convolution_associativity": 1e-5,
    "approximate_identity_rel_l2": 1e-12,
    "delta_action_norm_preservation": 1e-10,
    "delta_action_at_zero": 0.0,
    "untwisted_gaussian_closed_form_rel_l2": 1e-6,
    # Twisted Calderon-Zygmund toolbox (CZ suite, `cz ...`).
    "quasi_triangle_finite": 4.0,
    "gauge_vanishes_at_origin": 0.0,
    "gauge_symmetric_under_negation": 0.0,
    "reconstruction_machine_exact": 1e-14,
    "twisted_mean_zero_rel": 1e-12,
    "bounded_overlap": 64.0,
    "weak11_stability_factor": 4.0,
    "weak11_homogeneity_exact": 1e-12,
    "hormander_refinement_drift": 0.10,
    "hormander_zero_kernel": 0.0,
    # Multipliers and circle-extension maps (multiplier suite).
    "approx_identity_intertwining_hs": 1e-2,
    "approx_identity_right_commutation": 1e-2,
    "approx_identity_companion_gap": 1e-2,
    "zero_multiplier_intertwining": 1e-10,
    "zero_multiplier_right_commutation": 1e-10,
    "integrable_kernel_intertwining": 1e-2,
    "multiplier_vs_transform_residual_agreement": 1e-10,
    "sharp_flat_roundtrip": 1e-12,
    "flat_sharp_equals_projection": 1e-12,
    "projection_idempotent": 1e-12,
    "sharp_isometric_lp": 1e-12,
}


def grid_bound(name: str, points: int) -> float:
    """``TOLERANCES[name]`` on grids with N >= 64, else its ``_coarse`` entry."""
    return TOLERANCES[name if points >= 64 else f"{name}_coarse"]


# ---------------------------------------------------------------------------
# 1. Exact-algebra suite
# ---------------------------------------------------------------------------


def exact_suite(seed: int = 0) -> Report:
    """Criterion 1.  Jacobi, BCH associativity, inverse and unit, the
    cocycle identity and ray vanishing are proved as polynomial identities
    on the integer tables that the bracket and the compiled laws run, on
    every call; each value counts the components that are not the zero
    polynomial.  Nothing here is drawn, so the seed names the report only."""
    rep = Report(command="verify exact", seed=seed)
    algebras = cat.core_algebras()

    for name, L in algebras.items():
        bad = lc.jacobi_defect(L)
        rep.check_true(f"jacobi_exact[{name}]", bad == 0, value=bad)

    for name, L in algebras.items():
        bad = associativity_defect(L._group_law, L.dim)
        rep.check_true(f"bch_associativity_exact[{name}]", bad == 0, value=bad)
        rep.check_true(f"bch_inverse_and_unit[{name}]",
                       inverse_unit_defect(L._group_law, L.dim) == 0)

    # An entry that cannot fail: FlagSequence raises on the first violated
    # invariant, so each one records that the construction passed.  It stays
    # byte for byte, because perfbench/reference.json names it.
    for name, L in algebras.items():
        lc.jordan_holder_flag(L)
        rep.check_true(f"flag_invariants_exact[{name}]", True)

    orbits = cat.flat_orbits()
    h3_orbit = orbits["h3"]
    rep.check_true("h3_jump_indices", h3_orbit.jump_set == (2, 3))
    rep.check_true("h3_flat", h3_orbit.flat)

    for name, orbit in orbits.items():
        full = [list(v) for v in list(orbit.isotropy_basis) + list(orbit.predual_basis)]
        rep.check_true(f"direct_sum_det_nonzero[{name}]", ela.det(full) != 0)
        rep.check_true(f"jump_set_even[{name}]", orbit.d % 2 == 0, value=orbit.d)

    # The orbit law is the reduced product and the cocycle: its
    # associativity count ends with the cocycle identity.
    for name, orbit in orbits.items():
        bad_cocycle = associativity_defect(orbit._law, orbit.d)
        bad_ray = ray_defect(orbit._law, orbit.d)
        rep.check_true(f"cocycle_identity_exact[{name}]", bad_cocycle == 0,
                       value=bad_cocycle)
        rep.check_true(f"cocycle_ray_vanishing_exact[{name}]", bad_ray == 0,
                       value=bad_ray)
    return rep


# ---------------------------------------------------------------------------
# 2. Example-families suite
# ---------------------------------------------------------------------------


def examples_suite(seed: int = 0) -> Report:
    rep = Report(command="verify examples", seed=seed)
    rnd = stream("examples.g0st", seed)

    pairs = []
    while len(pairs) < 20:
        s = random_fraction(rnd, max_num=5, max_den=3, nonzero=True)
        t = random_fraction(rnd, max_num=5, max_den=3, nonzero=True)
        pairs.append((s, t))
    # One Jacobi sweep of the extended table both builds the extension and
    # decides the cocycle identity (see sp.central_extension).
    cocycle_ok = nondeg_ok = ext_ok = 0
    for s, t in pairs:
        L0, omega = sp.family_g0st(s, t)
        nondeg_ok += omega.is_nondegenerate()
        try:
            ext = sp.central_extension(L0, omega)
        except sp.NotACocycle:
            continue
        cocycle_ok += 1
        ext_ok += (len(lc.center(ext)) == 1 and ext.step == L0.step + 1)
    rep.check_true("g0st_cocycle_20_samples", cocycle_ok == 20, value=cocycle_ok)
    rep.check_true("g0st_nondegenerate_20_samples", nondeg_ok == 20, value=nondeg_ok)
    rep.check_true("g0st_extension_center_and_step", ext_ok == 20, value=ext_ok)

    rep.check_true("triangle_symplectic_exists",
                   sp.symplectic_exists_graph(cat.triangle_graph()))
    single_edge = sp.Graph(vertices=("u", "v"), edges=(("u", "v"),))
    rep.check_true("odd_dim_graph_excluded",
                   not sp.symplectic_exists_graph(single_edge))
    two_triangles = sp.Graph(
        vertices=("a", "b", "c", "p", "q", "r"),
        edges=(("a", "b"), ("b", "c"), ("a", "c"),
               ("p", "q"), ("q", "r"), ("p", "r")))
    rep.check_true("two_triangles_exists",
                   sp.symplectic_exists_graph(two_triangles))

    g = cat.get_algebra("nonhomog")
    ders = lc.derivation_space(g)
    cert = lc.is_characteristically_nilpotent(ders)
    rep.check_true("nonhomog_characteristically_nilpotent", cert.success)
    if cert.success:
        n = g.dim
        all_nilpotent = True
        for D in ders.basis:
            # (cD)^n = 0 exactly when D^n = 0; c clears D's denominators.
            _, flat = over_common_denominator([a for row in D for a in row])
            M = [flat[r * n:(r + 1) * n] for r in range(n)]
            power = M
            for _ in range(n - 1):
                power = [[sum(power[r][m] * M[m][c] for m in range(n))
                          for c in range(n)] for r in range(n)]
            if any(any(row) for row in power):
                all_nilpotent = False
        rep.check_true("nonhomog_derivations_nilpotent_posthoc", all_nilpotent)
    rep.check_true("nonhomog_derivations_zero_diagonal",
                   all(all(D[i][i] == 0 for i in range(g.dim)) for D in ders.basis))
    leibniz_ok = all(is_zero_vector(r) for D in ders.basis
                     for r in lc.leibniz_residuals(g, D).values())
    rep.check_true("nonhomog_derivation_leibniz_exact", leibniz_ok)

    grid_vals = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    nd_ok = True
    for a in grid_vals:
        for b in grid_vals:
            expected = (a != 0 and b != 0)
            if sp.nonhomog_form(a, b).is_nondegenerate() != expected:
                nd_ok = False
    rep.check_true("nonhomog_form_nondegenerate_iff_ab_nonzero", nd_ok)

    rnd2 = stream("examples.nonhomog_form", seed)
    cocycle_ok = all(
        sp.is_two_cocycle(g, sp.nonhomog_form(
            random_fraction(rnd2, max_num=5, max_den=3),
            random_fraction(rnd2, max_num=5, max_den=3)))[0]
        for _ in range(10))
    rep.check_true("nonhomog_form_cocycle_10_samples", cocycle_ok)

    abelian2 = cat.abelian(2)
    std = sp.form_from_pairs(2, {(0, 1): Fraction(1)})
    h3_like = sp.central_extension(abelian2, std)
    rep.check_true("heisenberg_from_plane",
                   h3_like.step == 2 and len(lc.center(h3_like)) == 1)
    return rep


# ---------------------------------------------------------------------------
# 3. Operator-transform / twisted-convolution suite
# ---------------------------------------------------------------------------


def _h3_engine(half_width: float, points: int) -> pe.HeisenbergRealization:
    orbit = ob.standard_orbit(cat.heisenberg3())
    twist = tw.from_orbit(orbit)
    grid = Grid(2, half_width, points)
    return pe.HeisenbergRealization(twist, grid)


def twist_suite(seed: int = 0, half_width: float = 8.0, points: int = 128) -> Report:
    rep = Report(command="verify twist", seed=seed)
    eng = _h3_engine(half_width, points)
    grid = eng.symbol_grid
    rep.measure("calibrated_density", eng.density)
    rep.check_bound("density_matches_power_of_2pi",
                    abs(eng.density - (2 * np.pi) ** -1.0) / ((2 * np.pi) ** -1.0),
                    grid_bound("density_matches_power_of_2pi", points))

    symbols = funcs.hermite_family(grid, 5)
    gsyms = funcs.gaussian_family(grid, 5)
    pairs = list(zip(gsyms, symbols))
    # The transforms of both families, built once and handed on to the
    # identity report and to the operator route of the products below.
    held = eng.hold((*symbols, *gsyms))
    # Each g_k * h_k is the exact product under the twist's own cocycle matrix,
    # so the homomorphism residual compares T and compose with the integral.
    # identity_report samples them one at a time, as it reaches each pair.
    A = eng.twist.cocycle_matrix()
    closed = (funcs.sample(grid, funcs.twisted_gaussian_product(
        A, eng.density, funcs.GAUSSIAN_PARAMS[k], orders=funcs.HERMITE_ORDERS[k]))
        for k in range(len(pairs)))
    idrep = eng.identity_report(symbols, pairs, closed, held)
    rep.check_bound("trace_identity_max", max(idrep["trace"]),
                    TOLERANCES["trace_identity"])
    rep.check_bound("adjoint_identity_hs_max", max(idrep["adjoint"]),
                    TOLERANCES["adjoint_identity_hs"])
    rep.check_bound("hs_isometry_rel_max", max(idrep["hs_isometry"]),
                    grid_bound("hs_isometry_rel", points))
    rep.check_bound("inversion_roundtrip_rel_max", max(idrep["inversion"]),
                    TOLERANCES["inversion_roundtrip_rel"])
    rep.check_bound("homomorphism_rel_max", max(idrep["homomorphism"]),
                    TOLERANCES["homomorphism_rel"])
    rep.check_bound("trace_pairing_rel_max", max(idrep["pairing"]),
                    TOLERANCES["trace_pairing_rel"])

    zero = SampledSymbol(grid, np.zeros(grid.shape))
    rep.check_bound("zero_symbol_zero_operator",
                    eng.transform(zero).hs_norm(),
                    TOLERANCES["zero_symbol_zero_operator"])

    h = grid.h

    def snap(c: float) -> float:
        # Lattice-aligned shift near the physical value c; keeps the physical
        # scale grid-independent so boundary truncation stays negligible.
        return round(c / h) * h

    shifts = [((0.7, snap(1.0)), (0.3, snap(-0.5))),
              ((-0.4, 0.0), (1.1, snap(2.0))),
              ((0.9, snap(-1.0)), (0.9, snap(-1.0))),
              ((0.0, 0.0), (0.5, snap(0.5)))]
    x1 = eng.state_grid.axis
    vectors = [np.exp(-0.5 * (x1 - 0.4) ** 2), np.exp(-(x1 + 1.2) ** 2),
               np.exp(-0.5 * x1 ** 2) * x1]
    worst = max(eng.ccr_phase_residual(u, v, vectors) for u, v in shifts)
    rep.check_bound("ccr_phase_residual_max", worst,
                    TOLERANCES["ccr_phase_residual"])

    iso_worst = 0.0
    for q, p in [(0.8, snap(1.0)), (-1.3, snap(-2.0)), (2.0, 0.0)]:
        for f in vectors:
            iso_worst = max(iso_worst, abs(
                np.linalg.norm(eng.rep_apply(q, p, f)) / np.linalg.norm(f) - 1.0))
    rep.check_bound("rep_isometry_residual_max", iso_worst,
                    TOLERANCES["rep_isometry_residual"])

    # identity_report read the forward (g_i, h_i) products from the closed
    # form; the reversed pairs are convolved here.
    slack = max(idrep["submultiplicativity"])
    for a, b in zip(symbols, gsyms):
        conv = eng.convolve(a, b, held)
        slack = max(slack, eng.symbol_norm(conv)
                    / (eng.symbol_norm(a) * eng.symbol_norm(b)))
    rep.check_bound("l2_submultiplicativity_slack", slack,
                    TOLERANCES["l2_submultiplicativity_slack"])

    assoc_worst = 0.0
    triples = [(gsyms[0], gsyms[1], gsyms[2]), (gsyms[3], symbols[1], gsyms[4])]
    for a, b, c in triples:
        ab, right = eng.convolve_each(a, [b, eng.convolve(b, c, held)], held)
        left = eng.convolve(ab, c, held)
        num = lp_norm(SampledSymbol(grid, left.values - right.values), 2,
                      density=eng.density)
        den = (eng.symbol_norm(a) * eng.symbol_norm(b) * eng.symbol_norm(c))
        assoc_worst = max(assoc_worst, num / den)
    rep.check_bound("twisted_convolution_associativity", assoc_worst,
                    TOLERANCES["twisted_convolution_associativity"])
    del held

    delta = funcs.discrete_delta(grid, eng.density)
    out = eng.convolve(gsyms[0], delta)
    rep.check_bound(
        "approximate_identity_rel_l2",
        lp_norm(SampledSymbol(grid, out.values - gsyms[0].values), 2)
        / lp_norm(gsyms[0], 2), TOLERANCES["approximate_identity_rel_l2"])

    # The lattice vector nearest (1, 0), at least one step: exactly (1, 0)
    # whenever 1 is a multiple of h.
    v = (h * max(1, round(1.0 / h)), 0.0)
    da = tw.delta_action(eng.twist, gsyms[0], v)
    rep.check_bound("delta_action_norm_preservation",
                    abs(lp_norm(da, 2) / lp_norm(gsyms[0], 2) - 1.0),
                    TOLERANCES["delta_action_norm_preservation"])
    rep.check_bound("delta_action_at_zero",
                    float(np.max(np.abs(
                        tw.delta_action(eng.twist, gsyms[0], (0.0, 0.0)).values
                        - gsyms[0].values))), TOLERANCES["delta_action_at_zero"])

    first, second = ((0.0, 0.0), 1.0, None), ((0.0, 0.0), 0.7, None)
    g1 = funcs.sample(grid, funcs.gaussian(*first))
    g2 = funcs.sample(grid, funcs.gaussian(*second))
    plain = tw.twisted_convolve(tw.zero_twist(2), g1, [g2], density=1.0)[0]
    closed = funcs.sample(grid, funcs.twisted_gaussian_product(
        np.zeros((2, 2)), 1.0, first, second))
    rep.check_bound(
        "untwisted_gaussian_closed_form_rel_l2",
        lp_norm(SampledSymbol(grid, plain.values - closed.values), 2)
        / lp_norm(closed, 2), TOLERANCES["untwisted_gaussian_closed_form_rel_l2"])
    return rep


# ---------------------------------------------------------------------------
# 4. Calderon-Zygmund suite
# ---------------------------------------------------------------------------


def _cz_setup(half_width: float, points: int):
    orbit = ob.standard_orbit(cat.heisenberg3())
    twist = tw.from_orbit(orbit)
    grid = Grid(2, half_width, points)
    pdist = cz.calibrate(cz.default_pseudo_distance(twist), twist, seed=0)
    return twist, grid, pdist


def cz_test_functions(grid: Grid) -> list[SampledSymbol]:
    f1 = funcs.sample(grid, funcs.smooth_bump((0.0, 0.0), 1.5, 4.0))
    f2_eval = funcs.smooth_bump((-2.0, 1.0), 1.0, 6.0)
    f3_eval = funcs.smooth_bump((2.5, -2.5), 2.0, 2.0)

    def f2(pts):
        return f2_eval(pts) + f3_eval(pts)

    def f3(pts):
        pts = np.asarray(pts, float)
        return (np.exp(-fold_axes(np.add, pts ** 2))
                * (1.0 + np.cos(pts[..., 0]) ** 2)).astype(complex)

    return [f1, funcs.sample(grid, f2), funcs.sample(grid, f3)]


def cz_suite(seed: int = 0, half_width: float = 8.0, points: int = 128) -> Report:
    rep = Report(command="verify cz", seed=seed)
    twist, grid, pdist = _cz_setup(half_width, points)
    rep.measure("quasi_triangle_constant", pdist.quasi_constant)
    rep.measure("doubling_constant", pdist.doubling_constant)
    rep.check_bound("quasi_triangle_finite", pdist.quasi_constant,
                    TOLERANCES["quasi_triangle_finite"])

    zero_pts = np.zeros((1, 2))
    rep.check_bound("gauge_vanishes_at_origin", float(pdist.value(zero_pts)[0]),
                    TOLERANCES["gauge_vanishes_at_origin"])
    probe = np.array([[0.7, -1.3], [2.0, 0.4], [-0.1, 3.3]])
    rep.check_bound("gauge_symmetric_under_negation",
                    float(np.max(np.abs(pdist.value(probe) - pdist.value(-probe)))),
                    TOLERANCES["gauge_symmetric_under_negation"])

    worst = {"overlap": 0, "c_prime": 0.0, "c_dp": 0.0, "mz": 0.0, "recon": 0.0}
    n_balls_total = 0
    test_functions = cz_test_functions(grid)
    for f in test_functions:
        fmax = float(np.max(np.abs(f.values)))
        for level in (0.05 * fmax, 0.15 * fmax, 0.4 * fmax):
            result = cz.cz_decompose(f, level, pdist, twist)
            r = result.report
            n_balls_total += r["n_balls"]
            worst["overlap"] = max(worst["overlap"], r["overlap"])
            worst["c_prime"] = max(worst["c_prime"], r["c_prime"])
            worst["c_dp"] = max(worst["c_dp"], r["c_doubleprime"])
            worst["mz"] = max(worst["mz"],
                              r["mean_zero_max_residual"] / max(r["f_l1"], 1e-300))
            worst["recon"] = max(worst["recon"],
                                 r["reconstruction_max_error"] / (1.0 + fmax))
    # The identity f = g + sum b_i holds by construction; re-evaluating it in
    # doubles costs one rounding per node, so "exact" is certified at eps level.
    rep.check_bound("reconstruction_machine_exact", worst["recon"],
                    TOLERANCES["reconstruction_machine_exact"])
    rep.check_bound("twisted_mean_zero_rel", worst["mz"],
                    TOLERANCES["twisted_mean_zero_rel"])
    rep.check_bound("bounded_overlap_max", float(worst["overlap"]),
                    TOLERANCES["bounded_overlap"])
    rep.measure("covering_c_prime_max", worst["c_prime"])
    rep.measure("good_bad_c_doubleprime_max", worst["c_dp"])
    rep.measure("n_balls_total", n_balls_total)
    rep.check_true("measured_constants_finite",
                   np.isfinite(worst["c_prime"]) and np.isfinite(worst["c_dp"]))

    # Release the third function before the kernel estimates below, which set
    # the suite's peak memory.
    f, fsrc = test_functions[:2]
    del test_functions
    below = cz.cz_decompose(f, 2.0 * float(np.max(np.abs(f.values))), pdist, twist)
    rep.check_true("level_above_sup_trivial",
                   not below.bad_parts
                   and np.array_equal(below.good.values, f.values))

    kernel = funcs.sample(grid, funcs.smooth_bump((0.5, 0.0), 1.2, 2.0))
    w11 = cz.weak11_ladder(twist, kernel, fsrc)
    rep.measure("weak11_empirical_a1", w11["empirical_a1"])
    rep.check_bound("weak11_stability_factor", w11["stability_factor"],
                    TOLERANCES["weak11_stability_factor"])

    scale2 = cz.weak11_empirical(
        twist, kernel, SampledSymbol(grid, 2.0 * fsrc.values),
        [2.0 * lv for lv in w11["levels"]])
    drift = max(abs(a - b) / max(abs(a), 1e-300)
                for a, b in zip(w11["ratios"].values(), scale2["ratios"].values()))
    rep.check_bound("weak11_homogeneity_exact", drift,
                    TOLERANCES["weak11_homogeneity_exact"])

    u_grid = Grid(2, half_width, 32)
    k_eval = funcs.truncated_power(3.0, 1.0, 5.0)
    c2 = 4.0 * pdist.quasi_constant
    coarse = cz.hormander_twist_estimate(
        k_eval, pdist, twist, c2, Grid(2, half_width, 64), u_grid=u_grid)
    fine = cz.hormander_twist_estimate(
        k_eval, pdist, twist, c2, Grid(2, half_width, 128), u_grid=u_grid)
    rep.measure("hormander_estimate_n64", coarse["estimate"])
    rep.measure("hormander_estimate_n128", fine["estimate"])
    rep.check_bound(
        "hormander_refinement_drift",
        abs(fine["estimate"] - coarse["estimate"]) / max(fine["estimate"], 1e-300),
        TOLERANCES["hormander_refinement_drift"])
    zero_est = cz.hormander_twist_estimate(
        lambda pts: np.zeros(np.asarray(pts).shape[:-1], dtype=complex),
        pdist, twist, c2, Grid(2, half_width, 32), u_grid=u_grid)
    rep.check_bound("hormander_zero_kernel", zero_est["estimate"],
                    TOLERANCES["hormander_zero_kernel"])
    return rep


# ---------------------------------------------------------------------------
# 5. Multiplier / transference-maps suite
# ---------------------------------------------------------------------------


def multiplier_suite(seed: int = 0, half_width: float = 8.0,
                     points: int = 128) -> Report:
    rep = Report(command="verify multiplier", seed=seed)
    eng = _h3_engine(half_width, points)
    grid = eng.symbol_grid
    phis = funcs.gaussian_family(grid, 3)
    psis = funcs.hermite_family(grid, 3)

    delta = funcs.discrete_delta(grid, eng.density)
    zero_u = SampledSymbol(grid, np.zeros(grid.shape))
    power_u = funcs.sample(grid, funcs.truncated_power(1.5, 0.25, 6.0))
    approx, zrep, prep = mult.multiplier_checks(eng, [delta, zero_u, power_u],
                                                phis, psis)
    rep.check_bound("approx_identity_intertwining_hs",
                    max(approx["intertwining_hs"]),
                    TOLERANCES["approx_identity_intertwining_hs"])
    rep.check_bound("approx_identity_right_commutation",
                    max(approx["right_commutation_l2"]),
                    TOLERANCES["approx_identity_right_commutation"])
    rep.check_bound("approx_identity_companion_gap", max(approx["identity_gap"]),
                    TOLERANCES["approx_identity_companion_gap"])

    rep.check_bound("zero_multiplier_intertwining",
                    max(zrep["intertwining_hs"]),
                    TOLERANCES["zero_multiplier_intertwining"])
    rep.check_bound("zero_multiplier_right_commutation",
                    max(zrep["right_commutation_l2"]),
                    TOLERANCES["zero_multiplier_right_commutation"])

    ratio_max = max(max(v) for v in prep["lp_ratios"].values())
    rep.measure("integrable_kernel_lp_ratio_max", ratio_max)
    rep.check_true("integrable_kernel_lp_ratio_finite", np.isfinite(ratio_max))
    rep.check_bound("integrable_kernel_intertwining",
                    max(prep["intertwining_hs"]),
                    TOLERANCES["integrable_kernel_intertwining"])

    # The raw and the relative form of the one homomorphism residual must
    # agree once the relative form is scaled back by ||power_u|| ||phi||.
    via_identity = [r * eng.symbol_norm(power_u) * eng.symbol_norm(phi)
                    for r, phi in zip(prep["intertwining_rel"], phis)]
    gap = max(abs(a - b) for a, b in zip(prep["intertwining_hs"], via_identity))
    rep.check_bound("multiplier_vs_transform_residual_agreement", gap,
                    TOLERANCES["multiplier_vs_transform_residual_agreement"])

    _transference_checks(rep, phis)
    return rep


def _transference_checks(rep: Report, phis: list[SampledSymbol]) -> None:
    """The circle-extension checks of multiplier_suite on phis[0] (the lifted
    psi) and phis[1], phis[2] (the other modes), added to rep.  They read only
    the symbols, not the seed or the engine.

    The test functions lift psi as sharp_map does, times the reciprocal
    1 / s_k of each angle sample, so that the lift inside them has its bits."""
    angles = 64
    psi = phis[0]
    lifted = mult.sharp_map(psi, angles)
    back = mult.flat_map(lifted)
    rep.check_bound("sharp_flat_roundtrip",
                    float(np.max(np.abs(back.values - psi.values))),
                    TOLERANCES["sharp_flat_roundtrip"])

    # The modes s^0 and s^2 of psi/s + a + b s^2 integrate to zero against s
    # over the uniform angles, so its projection is psi^sharp.
    a, b = phis[1], phis[2]
    s = lifted.angle_samples
    r = 1 / s
    known = TorusGridFunction(psi.grid, angles, lambda: (
        psi.values * r_k + a.values + b.values * s_k ** 2 for s_k, r_k in zip(s, r)))
    rep.check_bound("flat_sharp_equals_projection",
                    torus_sup_distance(mult.proj_p(known), lifted),
                    TOLERANCES["flat_sharp_equals_projection"])
    # psi/s + a s projects to psi^sharp; its s^1 mode is the one a flat map
    # integrating against s^-1 would read, so idempotence fails under that defect.
    mixed = TorusGridFunction(psi.grid, angles, lambda: (
        psi.values * r_k + a.values * s_k for s_k, r_k in zip(s, r)))
    proj = mult.proj_p(mixed)
    twice = mult.proj_p(proj)
    rep.check_bound("projection_idempotent", torus_sup_distance(twice, proj),
                    TOLERANCES["projection_idempotent"])

    ps = (1.0, 1.5, 2.0, 4.0)
    for p, lhs in zip(ps, torus_lp_norms(lifted, ps)):
        rhs = lp_norm(psi, p)
        rep.check_bound(f"sharp_isometric_lp[p={p}]",
                        abs(lhs - rhs) / rhs, TOLERANCES["sharp_isometric_lp"])


# ---------------------------------------------------------------------------
# 6. Reproducibility suite
# ---------------------------------------------------------------------------


def reproducibility_suite(seed: int = 0) -> Report:
    """Each CLI command below, run twice with the seed, exits 0 and prints
    the same non-empty report bytes both times."""
    from . import cli  # the CLI imports this module

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    rep = Report(command="verify reproducibility", seed=seed)
    for command in (("cz", "decompose", "--grid", "8,32"), ("orbit", "--algebra", "h3")):
        argv = [*command, "--seed", str(seed)]
        first = run(argv)
        rep.check_true(f"byte_identical[{' '.join(command)}]",
                       first[0] == 0 and len(first[1]) > 0 and run(argv) == first)
    return rep


# ---------------------------------------------------------------------------
# Aggregate
# ---------------------------------------------------------------------------


# The acceptance gate: (label, wall-clock budget in seconds, suite, keyword
# arguments besides the seed).
ACCEPTANCE_CRITERIA = (
    ("criterion 1: exact-algebra suite (Jacobi, BCH associativity, flags, "
     "jump indices, cocycle identities)",
     5.0, exact_suite, {}),
    ("criterion 2: example families (two-parameter family, extensions, "
     "graphs, non-dilatable algebra)",
     10.0, examples_suite, {}),
    ("criterion 3: operator transform / twisted convolution, N=128, L=8",
     60.0, twist_suite, {"half_width": 8.0, "points": 128}),
    ("criterion 4: twisted Calderon-Zygmund suite, N=128, L=8",
     60.0, cz_suite, {"half_width": 8.0, "points": 128}),
    ("criterion 5: multiplier and transference-map suite, N=128, L=8",
     30.0, multiplier_suite, {"half_width": 8.0, "points": 128}),
    ("criterion 6: byte-identical CLI reports for one seed (cz decompose, orbit)",
     5.0, reproducibility_suite, {}),
)


def run_criterion(criterion, seed: int) -> tuple[bool, list[Check], float]:
    """Run one ACCEPTANCE_CRITERIA entry, print its [PASS]/[FAIL] line and its
    failed checks; return whether it passed, the failed checks and its seconds."""
    label, budget, suite, kwargs = criterion
    t0 = time.perf_counter()
    rep = suite(seed=seed, **kwargs)
    elapsed = time.perf_counter() - t0
    failed = [c for c in rep.checks if c.status == "fail"]
    ok = not failed and elapsed <= budget
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: "
          f"{len(rep.checks)} checks in {elapsed:.1f}s (budget {budget}s)")
    for c in failed:
        print(f"        failed: {c.name} value={c.value} tol={c.tolerance}")
    return ok, failed, elapsed


def full_report(seed: int = 0, quick: bool = False) -> Report:
    """Every acceptance criterion's checks, named <suite>.<check>; quick runs
    the grid suites at N=32."""
    smaller = {"points": 32} if quick else {}
    rep = Report(command="report", seed=seed)
    for _label, _budget, suite, kwargs in ACCEPTANCE_CRITERIA:
        sub = suite(seed, **{k: smaller.get(k, v) for k, v in kwargs.items()})
        prefix = sub.command.removeprefix("verify ")
        for c in sub.checks:
            rep.add(f"{prefix}.{c.name}", c.status, value=c.value,
                    tolerance=c.tolerance)
    return rep
