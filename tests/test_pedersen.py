"""Operator transform: calibration, kernel oracle, identities, inversion, CCR,
and the route each twisted convolution takes."""

import dataclasses

import numpy as np
import pytest

from nilharm import funcs, pedersen as pe, twist as tw, verify
from nilharm.grids import Grid, GridMismatch, SampledSymbol, offset_values


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
    # The report reads the products it is given, one per pair, and else the
    # FFT loop's, one call per pair: its homomorphism residual must not read
    # the operator route, which would measure only the inversion round trip.
    # The last three pairs share one left operand object; their products have
    # the bits of one shared sweep.
    grid = engine64.symbol_grid
    gaussians, hermites = funcs.gaussian_family(grid, 3), funcs.hermite_family(grid, 3)
    pairs = list(zip(gaussians, hermites))
    pairs.append((SampledSymbol(grid, np.zeros(grid.shape)), pairs[0][0]))
    pairs += [(hermites[1], b) for b in gaussians]

    def scales():
        for a, b in pairs:
            scale = engine64.symbol_norm(a) * engine64.symbol_norm(b)
            yield scale if scale > 0 else 1.0

    def ratios(products):
        return [engine64.symbol_norm(ab) / scale for ab, scale in zip(products, scales())]

    swept = [_fft(engine64, a, [b])[0] for a, b in pairs[:4]]
    swept += _fft(engine64, hermites[1], gaussians)
    report = engine64.identity_report([], pairs)
    assert report["submultiplicativity"] == ratios(swept)
    assert report["homomorphism"] == [
        r / scale for r, scale in zip(report["homomorphism_hs"], scales())]
    given = [SampledSymbol(grid, 1j * ab.values) for ab in swept[1:] + swept[:1]]
    assert engine64.identity_report([], pairs, given)["submultiplicativity"] == ratios(given)
    with pytest.raises(ValueError):
        engine64.identity_report([], pairs, given[1:])


def test_twist_suite_convolves_each_pair_once(convolve_calls):
    # 5 reversed pairs, 8 for associativity, one approximate identity and one
    # untwisted closed form; the 5 identity-report pairs read the closed-form
    # twisted product and convolve nothing.  Associativity convolves a with b
    # and with b * c in one sweep, per triple.
    verify.twist_suite(0, 8.0, 32)
    assert convolve_calls == {"products": 15, "sweeps": 13}


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
                "homomorphism", "homomorphism_hs", "pairing"):
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


# -- the cached tables ---------------------------------------------------------


def reference_assemble(engine, b, density):
    """The kernel gathered from all 2N-1 p-offset rows, with the phase table
    built per call."""
    grid = engine.symbol_grid
    n, h, ax = grid.points, grid.h, grid.axis
    mids = -grid.half_width + 0.5 * h * np.arange(2 * n - 1)
    f_table = offset_values(b.values, (1,)).T @ np.exp(1j * np.outer(ax, mids))
    j, k = np.arange(n)[:, None], np.arange(n)[None, :]
    return density * h * f_table[k - j + (n - 1), j + k]


def reference_inverse(engine, B):
    """The inverse with both exp tables built per call."""
    grid = engine.symbol_grid
    n, h, ax = grid.points, grid.h, grid.axis
    j = np.arange(n)[:, None]
    diags = offset_values(B.matrix, (0,))[j - np.arange(n)[None, :] + (n - 1), j]
    summed = np.exp(-1j * np.outer(ax, ax)) @ diags
    return h * np.exp(0.5j * np.outer(ax, ax)) * summed


@pytest.fixture(scope="module", params=[8, 32, 64, 128])
def any_engine(request, h3_twist):
    return pe.HeisenbergRealization(h3_twist, Grid(2, 8.0, request.param))


def test_transform_and_inverse_equal_the_per_call_tables_bit_for_bit(any_engine):
    grid = any_engine.symbol_grid
    probe = funcs.sample(grid, funcs.gaussian())
    raw = pe.DiscretizedOperator(any_engine.state_grid, reference_assemble(any_engine, probe, 1.0))
    assert any_engine.density == float((probe.at_origin() / raw.trace()).real)
    symbols = [funcs.sample(grid, funcs.gaussian((0.3, -0.2), 1.1)),
               funcs.hermite_family(grid, 3)[2],
               funcs.sample(grid, funcs.truncated_power(1.5, 0.25, 6.0)),
               funcs.discrete_delta(grid, any_engine.density),
               SampledSymbol(grid, np.zeros(grid.shape))]
    for b in symbols:
        T = any_engine.transform(b)
        assert np.array_equal(T.matrix, reference_assemble(any_engine, b, any_engine.density))
        assert np.array_equal(any_engine.inverse(T).values, reference_inverse(any_engine, T))


def test_cached_tables_are_read_only(engine64):
    tables = [value for value in vars(engine64).values() if isinstance(value, np.ndarray)]
    assert tables
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = table.flat[0]


def test_grid_that_cannot_calibrate_is_a_value_error(h3_twist):
    # The probe's raw trace would underflow, but Grid refuses the box first:
    # its cell volume underflows sooner (tests/test_cli.py).
    with pytest.raises(ValueError, match="L = 1e-300, N = 32 has a cell volume h"):
        pe.HeisenbergRealization(h3_twist, Grid(2, 1e-300, 32))


# -- the convolution routes ---------------------------------------------------


def _rel_gap(x: SampledSymbol, ref: SampledSymbol) -> float:
    return float(np.linalg.norm(x.values - ref.values) / np.linalg.norm(ref.values))


def _fft(engine, a, bs):
    return tw.twisted_convolve(engine.twist, a, bs, density=engine.density)


@pytest.fixture(scope="module")
def engine128(h3_twist):
    return pe.HeisenbergRealization(h3_twist, Grid(2, 8.0, 128))


def test_dense_product_is_the_inverse_of_the_composed_transforms(engine64):
    grid = engine64.symbol_grid
    g, h = funcs.gaussian_family(grid, 1)[0], funcs.hermite_family(grid, 2)[1]
    composed = engine64.transform(g).compose(engine64.transform(h))
    assert np.array_equal(engine64.convolve(g, h).values,
                          engine64.inverse(composed).values)


@pytest.mark.parametrize("points", [64, 128])
def test_operator_route_stays_within_its_stated_bound_of_the_fft_loop(
        engine64, engine128, points):
    # Relative L2 gap of the operator route to the FFT loop on the same
    # inputs, measured at L = 8: 2.2e-10 at most for Gaussian and Hermite
    # pairs (N = 64, 128, 256); truncated power * Gaussian 8.7e-5 (N = 64),
    # 6.0e-6 (N = 128), 1.4e-5 (N = 256); that product * Hermite 5.3e-5,
    # 2.6e-6, 1.0e-5.  The last two are set by the box, not the step.  A gap
    # of 0 would mean the product took the FFT loop.
    engine = engine64 if points == 64 else engine128
    grid = engine.symbol_grid
    gauss, herm = funcs.gaussian_family(grid, 5), funcs.hermite_family(grid, 5)
    if points == 64:
        lefts = rights = gauss + herm
    else:
        lefts, rights = gauss[:1], gauss[:2] + herm[:2]
    for a in lefts:
        for out, ref in zip(engine.convolve_each(a, rights), _fft(engine, a, rights)):
            assert 0.0 < _rel_gap(out, ref) <= 1e-9
    power = funcs.sample(grid, funcs.truncated_power(1.5, 0.25, 6.0))
    power_bound, then_bound = (1.5e-4, 1e-4) if points == 64 else (1e-5, 5e-6)
    swept = _fft(engine, power, gauss)
    for out, ref in zip(engine.convolve_each(power, gauss), swept):
        assert 0.0 < _rel_gap(out, ref) <= power_bound
    for pg, h in zip(swept, herm):
        assert 0.0 < _rel_gap(engine.convolve(pg, h), _fft(engine, pg, [h])[0]) <= then_bound


def test_each_product_takes_its_own_route(engine64):
    grid = engine64.symbol_grid
    a, g = funcs.gaussian_family(grid, 2)
    delta = funcs.discrete_delta(grid, engine64.density)
    both = engine64.convolve_each(a, [delta, g])
    alone = [engine64.convolve(a, delta), engine64.convolve(a, g)]
    assert all(np.array_equal(x.values, y.values) for x, y in zip(both, alone))


def test_held_operators_serve_only_their_own_symbols(monkeypatch, engine64):
    # convolve and identity_report read a held operator for its own symbol
    # object and give the bits they give without it.  A symbol with g's
    # values that is not in the mapping is transformed, and identity_report
    # adds nothing to the caller's mapping.
    grid = engine64.symbol_grid
    a, g = funcs.gaussian_family(grid, 2)
    twin = SampledSymbol(grid, g.values)
    held = {a: engine64.transform(a), g: engine64.transform(g)}
    plain = engine64.convolve(a, g).values
    report = engine64.identity_report([a], [(a, g)])
    transform = pe.HeisenbergRealization.transform
    calls = []
    monkeypatch.setattr(pe.HeisenbergRealization, "transform",
                        lambda self, b: calls.append(b) or transform(self, b))
    assert np.array_equal(engine64.convolve(a, g, held).values, plain) and calls == []
    assert np.array_equal(engine64.convolve(a, twin, held).values, plain)
    assert calls == [twin]
    calls.clear()
    # The product and the involution of a are transformed, not a or g.
    assert engine64.identity_report([a], [(a, g)], None, held) == report
    assert len(calls) == 2 and not any(b is a or b is g for b in calls)
    assert list(held) == [a, g]


def _operands(grid, density) -> dict:
    g = funcs.gaussian_family(grid, 1)[0]
    one_column = np.zeros(grid.shape, dtype=complex)
    col = grid.points * 5 // 8
    one_column[:, col] = g.values[:, col]
    return {"g": g, "h": funcs.hermite_family(grid, 2)[1],
            "delta": funcs.discrete_delta(grid, density),
            "zero": SampledSymbol(grid, np.zeros(grid.shape)),
            "column": SampledSymbol(grid, one_column)}


@pytest.mark.parametrize("factor, half_width, points, a, b", [
    # Sparse products on a resolved grid.
    (1.0, 8.0, 64, "g", "delta"), (1.0, 8.0, 64, "delta", "g"),
    (1.0, 8.0, 64, "g", "zero"), (1.0, 8.0, 64, "zero", "g"),
    (1.0, 8.0, 64, "g", "column"),
    # (2L)^2 > 2 pi N: the q-sum of the kernel wraps inside the state box.
    (1.0, 8.0, 32, "g", "h"), (1.0, 16.0, 128, "g", "h"),
    # A cocycle matrix that rep_apply does not realize: flipped, rescaled.
    (-1.0, 8.0, 64, "g", "h"), (2.0, 8.0, 64, "g", "h"),
])
def test_products_off_the_operator_route_take_the_fft_loop(h3_twist, factor, half_width,
                                                           points, a, b):
    twist = dataclasses.replace(h3_twist, alpha_matrix=factor * h3_twist.alpha_matrix)
    engine = pe.HeisenbergRealization(twist, Grid(2, half_width, points))
    ops = _operands(engine.symbol_grid, engine.density)
    assert np.array_equal(engine.convolve(ops[a], ops[b]).values,
                          _fft(engine, ops[a], [ops[b]])[0].values)


@pytest.mark.parametrize("points", [32, 64, 128])
def test_ufunc_hs_norm_stays_within_2e_15_of_the_blas_norm(monkeypatch, points):
    # hs_norm sums |m|^2 by numpy's pairwise reduction, where np.linalg.norm
    # reduces through BLAS in an order that depends on its thread count.  On
    # the 25 operators that the twist and multiplier suites take the norm of,
    # the two differ by at most 1.35e-15 relative at N = 128 under one or two
    # BLAS threads (2.7e-16 at N = 32, 8.1e-16 at N = 64).
    hs_norm = pe.DiscretizedOperator.hs_norm
    gaps = []

    def against_blas(T):
        value = hs_norm(T)
        blas = T.weight * float(np.linalg.norm(T.matrix))
        gaps.append(abs(value - blas) - 2e-15 * blas)
        return value

    monkeypatch.setattr(pe.DiscretizedOperator, "hs_norm", against_blas)
    verify.twist_suite(0, 8.0, points)
    verify.multiplier_suite(0, 8.0, points)
    assert len(gaps) == 25 and max(gaps) <= 0.0
