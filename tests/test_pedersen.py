"""Operator transform: calibration, kernel oracle, identities, inversion, CCR."""

import numpy as np
import pytest

from nilharm import funcs, pedersen as pe, twist as tw, verify
from nilharm.grids import Grid, GridMismatch, SampledSymbol


def test_calibration_matches_closed_form(engine64):
    # Expected measure normalization (2 pi)^(-d/2) for d = 2.
    assert abs(engine64.density - 1.0 / (2 * np.pi)) <= 1e-12 / (2 * np.pi)


def test_requires_two_dimensional_predual():
    with pytest.raises(pe.DimensionNot2):
        pe.HeisenbergRealization(tw.zero_twist(3), Grid(3, 8.0, 16))


def test_gaussian_kernel_closed_form(engine64):
    # Independent oracle: for b = exp(-(q^2+p^2)/2) the continuum kernel is
    # rho * sqrt(2 pi) * exp(-(x+y)^2/8) * exp(-(y-x)^2/2).
    grid = engine64.symbol_grid
    T = engine64.transform(funcs.sample(grid, funcs.gaussian()))
    x = engine64.state_grid.axis
    X, Y = np.meshgrid(x, x, indexing="ij")
    oracle = (engine64.density * np.sqrt(2 * np.pi)
              * np.exp(-(X + Y) ** 2 / 8.0) * np.exp(-(Y - X) ** 2 / 2.0))
    assert np.max(np.abs(T.matrix - oracle)) <= 1e-10


def test_zero_symbol_gives_zero_operator(engine64):
    grid = engine64.symbol_grid
    T = engine64.transform(SampledSymbol(grid, np.zeros(grid.shape)))
    assert T.hs_norm() == 0.0


def test_trace_and_pairing_identities(engine64):
    grid = engine64.symbol_grid
    syms = funcs.hermite_family(grid, 5)
    report = engine64.identity_report(syms, list(zip(syms, syms[1:] + syms[:1])))
    assert max(report["trace"]) <= 1e-3
    assert max(report["pairing"]) <= 1e-3
    assert max(report["adjoint"]) <= 1e-8
    assert max(report["hs_isometry"]) <= 1e-3
    assert max(report["inversion"]) <= 1e-3
    assert max(report["homomorphism"]) <= 1e-3


def test_submultiplicativity_is_the_ratio_of_the_pair_product(engine64):
    grid = engine64.symbol_grid
    pairs = list(zip(funcs.gaussian_family(grid, 3), funcs.hermite_family(grid, 3)))
    pairs.append((SampledSymbol(grid, np.zeros(grid.shape)), pairs[0][0]))
    report = engine64.identity_report([], pairs)
    expected = []
    for a, b in pairs:
        scale = engine64.symbol_norm(a) * engine64.symbol_norm(b)
        expected.append(engine64.symbol_norm(engine64.convolve(a, b))
                        / (scale if scale > 0 else 1.0))
    assert report["submultiplicativity"] == expected


def test_twist_suite_convolves_each_pair_once(convolve_calls):
    # 5 identity-report pairs, 5 reversed pairs, 8 for associativity, one
    # approximate identity and one untwisted closed form.  Associativity
    # convolves a with b and with b * c in one sweep, per triple.
    verify.twist_suite(0, 8.0, 32)
    assert convolve_calls == {"products": 20, "sweeps": 18}


def test_rank_one_operator_inversion_oracle(engine64):
    # B = (. | eta) eta with a shifted Gaussian eta(x) = exp(-(x-a)^2/2):
    # the symbol is sqrt(pi) exp(-(q^2+p^2)/4) exp(-i q a).
    grid1 = engine64.state_grid
    a = 0.5
    eta = np.exp(-0.5 * (grid1.axis - a) ** 2)
    B = pe.DiscretizedOperator(grid1, np.outer(eta, np.conj(eta)))
    sym = engine64.inverse(B)
    grid2 = engine64.symbol_grid
    Q, P = np.meshgrid(grid2.axis, grid2.axis, indexing="ij")
    oracle = np.sqrt(np.pi) * np.exp(-(Q ** 2 + P ** 2) / 4.0) * np.exp(-1j * Q * a)
    assert np.max(np.abs(sym.values - oracle)) <= 1e-8
    # Round trip back to the operator.
    back = engine64.transform(sym)
    assert (back - B).hs_norm() / B.hs_norm() <= 1e-3


def test_zero_symbols_give_zero_residuals(engine64):
    grid = engine64.symbol_grid
    z = SampledSymbol(grid, np.zeros(grid.shape))
    report = engine64.identity_report([z], [(z, z)])
    for key in ("trace", "adjoint", "hs_isometry", "inversion",
                "homomorphism", "pairing"):
        assert all(v == 0.0 for v in report[key])


def test_inverse_of_zero_operator(engine64):
    B = pe.DiscretizedOperator(engine64.state_grid,
                               np.zeros((64, 64), dtype=complex))
    sym = engine64.inverse(B)
    assert np.max(np.abs(sym.values)) == 0.0


def test_ccr_phase_values(engine64):
    h = engine64.symbol_grid.h
    x = engine64.state_grid.axis
    vecs = [np.exp(-0.5 * (x - 0.3) ** 2)]
    # u = v: the phase is exp(i a(u, u)) = 1.
    assert engine64.ccr_phase_residual((0.9, 8 * h), (0.9, 8 * h), vecs) <= 1e-10
    # u = 0: both sides equal rep(v).
    assert engine64.ccr_phase_residual((0.0, 0.0), (0.4, -8 * h), vecs) <= 1e-14


def test_ccr_reproduces_exact_cocycle(engine64, h3_orbit):
    # rep(u) rep(v) f against exp(i alpha(u, v)) rep(u+v) f with the exact alpha:
    # alpha((1,0), (0,1)) = -1/2.
    from fractions import Fraction
    from nilharm import orbits as ob

    u, v = (1.0, 0.0), (0.0, 1.0)
    exact = ob.alpha(h3_orbit, (Fraction(1), Fraction(0)),
                     (Fraction(0), Fraction(1)))
    assert exact == Fraction(-1, 2)
    x = engine64.state_grid.axis
    f = np.exp(-0.5 * x ** 2)
    lhs = engine64.rep_apply(u[0], u[1], engine64.rep_apply(v[0], v[1], f))
    rhs = np.exp(1j * float(exact)) * engine64.rep_apply(1.0, 1.0, f)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-12


def test_rep_isometry_on_lattice_shifts(engine64):
    x = engine64.state_grid.axis
    f = np.exp(-0.5 * (x + 0.7) ** 2)
    h = engine64.state_grid.h
    for q, p in [(0.6, 4 * h), (-1.1, -8 * h), (2.3, 0.0)]:
        out = engine64.rep_apply(q, p, f)
        assert abs(np.linalg.norm(out) / np.linalg.norm(f) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        engine64.rep_apply(1.0, 0.3 * h, f)


def test_operator_algebra_helpers(engine64):
    grid = engine64.symbol_grid
    a = funcs.sample(grid, funcs.gaussian((0.2, 0.1)))
    T = engine64.transform(a)
    assert abs(T.hs_inner(T) - T.hs_norm() ** 2) <= 1e-12
    assert np.allclose(T.adjoint().matrix, T.matrix.conj().T)
    f = np.exp(-engine64.state_grid.axis ** 2)

    def apply(op, f):
        return op.weight * (op.matrix @ f)

    assert np.allclose(apply(T.compose(T), f), apply(T, apply(T, f)))


def test_grid_mismatch_on_transform(engine64):
    other = Grid(2, 8.0, 32)
    sym = funcs.sample(other, funcs.gaussian())
    with pytest.raises(GridMismatch):
        engine64.transform(sym)


def test_rep_shift_beyond_the_grid_is_zero(engine64):
    # A shift of N or more steps moves every sample off the grid.
    h = engine64.state_grid.h
    f = np.exp(-0.5 * engine64.state_grid.axis ** 2)
    for s in (64, -64, 67, -67):
        assert not np.any(engine64.rep_apply(0.7, s * h, f))
