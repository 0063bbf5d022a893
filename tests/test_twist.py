"""Twisted convolution: the FFT path against references, the twists it
takes and refuses, degenerate cases, delta action."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import random_algebras
from hypothesis import given, settings, strategies as st

from nilharm import catalog as cat, czdecomp as cz, funcs, lie_core as lc, orbits as ob
from nilharm import twist as tw
from nilharm import pedersen as pe, symplectic as sp, verify
from nilharm.grids import Grid, GridMismatch, SampledSymbol, lp_norm
from nilharm.rationals import dot, unit_vector

RHO = 1.0 / (2.0 * np.pi)


def test_twist_data_h3(h3_twist):
    assert h3_twist.dim == 2
    assert np.allclose(h3_twist.alpha_matrix, [[0.0, -0.5], [0.5, 0.0]])


def test_h3_alpha_keeps_the_polynomial_term_order(h3_twist):
    # The CZ and twist reports depend on this evaluation bit for bit: each
    # term is (A[a, b] x_a) y_b, added in the cocycle polynomial's monomial
    # order.
    gen = np.random.default_rng(3)
    X, Y = gen.uniform(-8.0, 8.0, size=(2, 500, 2))
    X1, Y0, X0, Y1 = X[:, 1], Y[:, 0], X[:, 0], Y[:, 1]
    assert np.array_equal(h3_twist.alpha(X, Y), (0.5 * X1) * Y0 + (-0.5 * X0) * Y1)
    assert np.array_equal(h3_twist.combine(X, Y), X + Y)


REFUSAL = ("grid work needs an abelian twist: reduced product x + y and a "
           "bilinear cocycle (a 2-step flat orbit)")


@pytest.mark.parametrize("call", [
    lambda t, sym: t.alpha(np.zeros(6), np.zeros(6)),
    lambda t, sym: t.combine(np.zeros(6), np.zeros(6)),
    lambda t, sym: tw.twisted_convolve(t, sym, [sym]),
    lambda t, sym: tw.delta_action(t, sym, np.zeros(6)),
    lambda t, sym: cz.calibrate(cz.default_pseudo_distance(t), t),
    lambda t, sym: cz.hormander_twist_estimate(
        funcs.truncated_power(), cz.PseudoDistance(t.dim, 1.0, 1.0), t, 8.0,
        sym.grid, sym.grid),
], ids=["alpha", "combine", "twisted_convolve", "delta_action", "calibrate",
        "hormander_twist_estimate"])
def test_twist_without_a_cocycle_matrix_is_refused(ext7_orbit, call):
    # ext_g0st_1_1 is 3-step: its reduced product is not x + y.
    twist = tw.from_orbit(ext7_orbit)
    assert twist.alpha_matrix is None
    grid = Grid(6, 4.0, 8)
    with pytest.raises(ValueError) as refused:
        call(twist, SampledSymbol(grid, np.zeros(grid.shape)))
    assert str(refused.value) == REFUSAL


def test_twist_requires_flat_orbit():
    L = cat.abelian(4)
    from fractions import Fraction
    from nilharm import lie_core as lc
    orbit = ob.jump_indices(L, lc.jordan_holder_flag(L),
                            ob.Functional((Fraction(1),) + (Fraction(0),) * 3))
    with pytest.raises(tw.NotFlat):
        tw.from_orbit(orbit)


def _bilinear_twist(A) -> tw.TwistData:
    """d=2 twist with cocycle a(x, y) = x^T A y."""
    return tw.TwistData(dim=2, alpha_matrix=np.asarray(A, dtype=float))


# Not skew (c1 = 0.3, c2 = 0.7, so c1 != -c2): the polarized-gauge identity
# uses c1 and c2 separately, which the skew h3 cocycle does not exercise.
NON_SKEW = [[0.0, 0.3], [0.7, 0.0]]


def full_loop_fft_2d(twist, b1, b2, density, b1_eval=None, modulation=1.0):
    """_convolve_fft_2d transforming every column y1 and every output row x1,
    zero terms included.

    With b1_eval, b1 at each node difference is that evaluator's value, off
    the box too; without it, b1's node values, zero where the difference is
    not a node.  modulation = -1.0 flips the sign of the modulation's
    exponent, a defect."""
    grid = b1.grid
    n = grid.points
    ax = grid.axis
    c1 = float(twist.alpha_matrix[0, 1])
    c2 = float(twist.alpha_matrix[1, 0])
    cell = density * grid.cell_volume
    offs = np.arange(-(n - 1), n)
    u = offs * grid.h
    if b1_eval is not None:
        pts = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
        d1 = np.asarray(b1_eval(pts), dtype=complex)
    else:
        src = offs + n // 2
        valid = (src >= 0) & (src < n)
        d1 = np.zeros((2 * n - 1, 2 * n - 1), dtype=complex)
        take = np.clip(src, 0, n - 1)
        d1[np.ix_(valid, valid)] = b1.values[np.ix_(take[valid], take[valid])]
    m_fft = 2 * n
    # The gauge tables multiply from the left, as in the FFT path: numpy's
    # complex multiply is not bitwise commutative.
    d_t = np.ascontiguousarray((np.exp(-1j * c2 * np.outer(u, u)) * d1).T)
    b_t = (np.exp(1j * c1 * np.outer(ax, ax)) * b2.values).T
    fb = np.fft.fft(b_t, n=m_fft, axis=-1)
    spec = np.zeros((n, m_fft), dtype=complex)
    block = np.zeros((n, m_fft), dtype=complex)
    for j in range(n):
        np.multiply(d_t[n - 1 - j:2 * n - 1 - j],
                    np.exp(modulation * 1j * (c1 - c2) * ax[j] * u), out=block[:, :-1])
        fblock = np.fft.fft(block, axis=-1)
        fblock *= fb[j]
        spec += fblock
    conv = np.fft.ifft(spec, axis=-1)[:, n - 1:2 * n - 1]
    return cell * np.exp(1j * c2 * np.outer(ax, ax)) * conv.T


def direct_quadrature(twist, b1, b2, density, b1_eval=None):
    """The trapezoid double sum node by node,
    cell * sum_y exp(-i a(x, -y)) b1(x . (-y)) b2(y).

    With b1_eval, b1 at x . (-y) is that evaluator's value, off the box too.
    Without it b1 is read at the node difference x - y, node index
    i - j + N/2 (zero where that leaves the grid)."""
    grid = b1.grid
    n = grid.points
    nodes = grid.nodes()
    X, Y = nodes[:, None, :], nodes[None, :, :]
    phase = np.exp(-1j * twist.alpha(X, -Y))
    if b1_eval is not None:
        f1 = np.asarray(b1_eval(twist.combine(X, -Y)), dtype=complex)
    else:
        idx = np.indices(grid.shape).reshape(grid.dim, -1).T
        src = idx[:, None, :] - idx[None, :, :] + n // 2          # (G, G, d)
        inside = np.all((src >= 0) & (src < n), axis=-1)
        f1 = np.where(inside, b1.values[tuple(np.moveaxis(np.clip(src, 0, n - 1), -1, 0))],
                      0.0)
    cell = density * grid.cell_volume
    return (cell * np.sum(phase * f1 * b2.values.reshape(-1), axis=1)).reshape(grid.shape)


def _support_cases(grid):
    """Named (b1, b2) pairs: full-support, compact, sparse and zero inputs."""
    gauss = funcs.sample(grid, funcs.gaussian((0.5, -0.3), 1.2, (0.4, 0.1)))
    bare = funcs.sample(grid, funcs.gaussian((-0.2, 0.8), 0.9, (-0.3, 0.2)))
    delta = funcs.discrete_delta(grid, RHO)
    zero = SampledSymbol(grid, np.zeros(grid.shape))
    power = funcs.sample(grid, funcs.truncated_power(1.5, 0.25, 6.0))
    bump = funcs.sample(grid, funcs.smooth_bump((-2.0, 1.0), 1.5, 4.0))
    bump2 = funcs.sample(grid, funcs.smooth_bump((3.0, -0.5), 2.0, 1.0))
    # Offsets x1 - y1 near 6 miss the grid for y1 > 2: blocks with no row.
    edge = funcs.sample(grid, funcs.smooth_bump((0.0, 6.0), 1.5, 2.0))
    gen = np.random.default_rng(11)
    sparse_vals = np.zeros(grid.shape, dtype=complex)
    idx = gen.integers(0, grid.points, size=(6, 2))
    sparse_vals[idx[:, 0], idx[:, 1]] = (gen.standard_normal(6)
                                         + 1j * gen.standard_normal(6))
    sparse = SampledSymbol(grid, sparse_vals)
    pairs = {"gauss*delta": (gauss, delta), "gauss*zero": (gauss, zero),
             "gauss*power": (gauss, power), "bump*bump": (bump, bump2),
             "sparse*bare": (sparse, bare), "zero*zero": (zero, zero),
             "gauss*bare": (gauss, bare), "edge*gauss": (edge, gauss)}
    cases = {}
    for name, (a, b) in pairs.items():
        cases[name] = (a, b)
        cases["~" + name] = (b, a)
    return cases


def _same_bits(x, y) -> bool:
    """Equal values with equal sign bits on both parts, zeros included."""
    x, y = x.view(float), y.view(float)
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("points", [32, 64])
def test_fft_path_skips_only_exact_zero_terms(h3_twist, points):
    # Each left operand of the cases with every right operand in one sweep:
    # the zero, delta and sparse operands make the union of live columns wider
    # than each operand's own, and no product may see another's terms.
    grid = Grid(2, 8.0, points)
    cases = _support_cases(grid).values()
    lefts = list({id(a): a for a, _ in cases}.values())
    rights = list({id(b): b for _, b in cases}.values())
    for twist in (h3_twist, _bilinear_twist(NON_SKEW), _bilinear_twist([[0.0, 0.3], [0.3, 0.0]]),
                  tw.zero_twist(2)):
        for a in lefts:
            swept = tw.twisted_convolve(twist, a, rights, density=RHO)
            assert len(swept) == len(rights)
            for b, got in zip(rights, swept):
                alone = tw.twisted_convolve(twist, a, [b], density=RHO)[0]
                assert _same_bits(got.values, alone.values)
                assert _same_bits(got.values, full_loop_fft_2d(twist, a, b, RHO))


def test_gauge_tables_follow_the_grid_and_the_cocycle(h3_twist):
    # The phase tables are cached per grid and cocycle; each call here changes
    # one of them, so a stale table would show.  0.0 and -0.0 make one cache
    # key, and the convolution reads a cocycle entry -0.0 as 0.0.
    a_fn = funcs.gaussian((0.5, -0.3), 1.2, (0.4, 0.1))
    b_fn = funcs.smooth_bump((-1.0, 0.5), 2.0, 3.0)
    untwisted = tw.zero_twist(2)
    negative_zero = dataclasses.replace(untwisted, alpha_matrix=-untwisted.alpha_matrix)
    twists = (h3_twist, _bilinear_twist(NON_SKEW), untwisted, negative_zero, h3_twist)
    for grid in (Grid(2, 8.0, 32), Grid(2, 6.0, 32), Grid(2, 8.0, 32)):
        a, b = funcs.sample(grid, a_fn), funcs.sample(grid, b_fn)
        for twist in twists:
            got = tw.twisted_convolve(twist, a, [b], density=RHO)[0].values
            assert _same_bits(got, full_loop_fft_2d(twist, a, b, RHO))


def test_an_untwisted_product_leaves_the_gauge_cache_alone(h3_twist, cold_caches):
    # The zero twist multiplies by 1 + 0j in place of all-ones tables, so the
    # h3 tables stay the one cache entry across an untwisted product.
    grid = Grid(2, 8.0, 32)
    a = funcs.sample(grid, funcs.gaussian((0.5, -0.3), 1.2, (0.4, 0.1)))
    b = funcs.sample(grid, funcs.gaussian((-0.2, 0.8), 0.9, (-0.3, 0.2)))
    tw.twisted_convolve(h3_twist, a, [b], density=RHO)
    tw.twisted_convolve(tw.zero_twist(2), a, [b], density=RHO)
    tw.twisted_convolve(h3_twist, a, [b], density=RHO)
    info = tw._gauge_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def _fft_calls_by_row_length(monkeypatch) -> list[int]:
    """The length of the rows each np.fft.fft call of the sweep transforms:
    2n for packed blocks, 2n - 1 for the spectrum of the offset rows, n for
    a chunk of B columns."""
    fft = np.fft.fft
    calls = []

    def counted(x, *args, **kw):
        calls.append(np.shape(x)[-1])
        return fft(x, *args, **kw)

    monkeypatch.setattr(tw.np.fft, "fft", counted)
    return calls


def test_the_untwisted_sweep_transforms_its_offset_table_once(monkeypatch, h3_twist):
    # Under h3 each of the 32 live columns has a full-height block, so each
    # pack holds one block; under the zero twist one call transforms the
    # offset table's support rows.  With one operand its 32 columns are one
    # chunk: one call, where the sweep used to make one per column.
    grid = Grid(2, 8.0, 32)
    a = funcs.sample(grid, funcs.gaussian((0.5, -0.3), 1.2, (0.4, 0.1)))
    b = funcs.sample(grid, funcs.gaussian((-0.2, 0.8), 0.9, (-0.3, 0.2)))
    calls = _fft_calls_by_row_length(monkeypatch)
    for twist, expected in ((h3_twist, {64: 32, 32: 1}), (tw.zero_twist(2), {63: 1, 32: 1})):
        calls.clear()
        tw.twisted_convolve(twist, a, [b], density=RHO)
        assert {m: calls.count(m) for m in set(calls)} == expected


def test_a_point_mass_sweep_packs_its_one_row_blocks(monkeypatch, h3_twist):
    # The point mass has one offset row, so each of the 128 live columns has
    # a one-row block and all 128 fit one pack: one block call, where the
    # sweep used to make 128.  The three operands' columns come in chunks of
    # 128 // 3 = 42, four chunks each: 12 calls, where it used to make 384.
    grid = Grid(2, 8.0, 128)
    delta = funcs.discrete_delta(grid, RHO)
    phis = funcs.gaussian_family(grid, 3)
    calls = _fft_calls_by_row_length(monkeypatch)
    tw.twisted_convolve(h3_twist, delta, phis, density=RHO)
    assert (calls.count(256), calls.count(128), len(calls)) == (1, 12, 13)


def test_a_zero_left_operand_builds_no_offset_table(monkeypatch, h3_twist):
    # zero_u * phi returns its zero spectra before it builds the offset table
    # or transforms anything; the inverse FFT and the output gauge still run
    # and set the signs of the zeros, which the gauss*zero and zero*zero
    # cases of test_fft_path_skips_only_exact_zero_terms pin.
    grid = Grid(2, 8.0, 32)
    zero = SampledSymbol(grid, np.zeros(grid.shape))
    phis = funcs.gaussian_family(grid, 3)
    tables = []
    offset_values = tw.offset_values
    monkeypatch.setattr(tw, "offset_values", lambda *a: tables.append(a) or offset_values(*a))
    calls = _fft_calls_by_row_length(monkeypatch)
    out = tw.twisted_convolve(h3_twist, zero, phis, density=RHO)
    assert (len(tables), len(calls)) == (0, 0)
    for b, got in zip(phis, out):
        assert _same_bits(got.values, full_loop_fft_2d(h3_twist, zero, b, RHO))


def _family_evaluators(monkeypatch):
    """The evaluators behind gaussian_family(5) + hermite_family(5)."""
    with monkeypatch.context() as m:
        m.setattr(funcs, "sample", lambda grid, ev: ev)
        return funcs.gaussian_family(None, 5) + funcs.hermite_family(None, 5)


@pytest.mark.parametrize("points", [32, 64])
def test_node_values_stay_within_1e_7_of_off_box_reads(h3_twist, monkeypatch, points):
    # The convolution reads b1 as its node values, zero off the grid.  The
    # discretization it replaced read b1's evaluator at every node difference,
    # off the box too; on the suites' families the two differ by at most
    # 2.7e-8 of the output's sup.
    grid = Grid(2, 8.0, points)
    evaluators = _family_evaluators(monkeypatch)
    symbols = funcs.gaussian_family(grid, 5) + funcs.hermite_family(grid, 5)
    for ev, sym in zip(evaluators, symbols):
        assert np.array_equal(funcs.sample(grid, ev).values, sym.values)
    worst = 0.0
    for ev, a in zip(evaluators, symbols):
        for b in symbols[:3]:
            ref = full_loop_fft_2d(h3_twist, a, b, RHO, b1_eval=ev)
            got = tw.twisted_convolve(h3_twist, a, [b], density=RHO)[0].values
            worst = max(worst, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    assert worst <= 1e-7


def test_off_box_reference_matches_direct_quadrature(h3_twist, grid32):
    ea = funcs.gaussian((0.5, -0.3), 1.2, (0.4, 0.1))
    a = funcs.sample(grid32, ea)
    b = funcs.sample(grid32, funcs.gaussian((-0.2, 0.8), 0.9, (-0.3, 0.2)))
    for twist in (h3_twist, _bilinear_twist(NON_SKEW)):
        fast = full_loop_fft_2d(twist, a, b, RHO, b1_eval=ea)
        direct = direct_quadrature(twist, a, b, RHO, b1_eval=ea)
        assert np.max(np.abs(fast - direct)) <= 1e-13


def test_fast_path_matches_direct_without_evaluators(h3_twist, grid32):
    gen = np.random.default_rng(5)
    a = SampledSymbol(grid32, gen.standard_normal(grid32.shape)
                      + 1j * gen.standard_normal(grid32.shape))
    b = SampledSymbol(grid32, gen.standard_normal(grid32.shape)
                      + 1j * gen.standard_normal(grid32.shape))
    for twist in (h3_twist, _bilinear_twist(NON_SKEW)):
        fast = tw.twisted_convolve(twist, a, [b], density=RHO)[0]
        direct = direct_quadrature(twist, a, b, RHO)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast.values - direct)) <= 1e-12 * scale


def test_fast_path_is_exactly_homogeneous_in_b2(h3_twist, grid32):
    # Doubling is exact in floating point and the FFT path is linear in b2,
    # so the output doubles bit for bit (the weak-(1,1) homogeneity check
    # relies on this).
    a = funcs.sample(grid32, funcs.gaussian((0.5, -0.3), 1.2, (0.4, 0.1)))
    b = funcs.sample(grid32, funcs.smooth_bump((-1.0, 0.5), 2.0, 3.0))
    for twist in (h3_twist, _bilinear_twist(NON_SKEW)):
        once, twice = tw.twisted_convolve(
            twist, a, [b, SampledSymbol(grid32, 2.0 * b.values)], density=RHO)
        assert np.array_equal(twice.values, 2.0 * once.values)


def test_grid_mismatch_rejected(h3_twist, grid32):
    other = Grid(2, 8.0, 64)
    a = funcs.sample(grid32, funcs.gaussian())
    b = funcs.sample(other, funcs.gaussian())
    with pytest.raises(GridMismatch):
        tw.twisted_convolve(h3_twist, a, [b])


def test_zero_twist_reduces_to_ordinary_convolution(grid32):
    # Untwisted Gaussians convolve to the closed-form Gaussian.
    untwisted = tw.zero_twist(2)
    s1, s2 = 1.0, 0.7
    a = funcs.sample(grid32, funcs.gaussian(sigma=s1))
    b = funcs.sample(grid32, funcs.gaussian(sigma=s2))
    out = tw.twisted_convolve(untwisted, a, [b], density=1.0)[0]
    s2tot = s1 ** 2 + s2 ** 2
    closed = funcs.sample(grid32, lambda pts: (
        (2 * np.pi * s1 ** 2 * s2 ** 2 / s2tot)
        * np.exp(-0.5 * np.sum(np.asarray(pts, float) ** 2, axis=-1) / s2tot)
    ).astype(complex))
    rel = lp_norm(SampledSymbol(grid32, out.values - closed.values), 2) \
        / lp_norm(closed, 2)
    assert rel <= 1e-8


def _closed_form_gaps(engine) -> dict[str, list[float]]:
    """Relative L2 gap of each convolution route to the closed-form product
    (funcs.twisted_gaussian_product), over the five (g_k, h_k) pairs of the
    twist suite and the 25 ordered pairs of gaussian_family(5).  The
    operator route inverse(T(a) . T(b)) is taken only on a grid that
    resolves the calculus, (2L)^2 <= 2 pi N."""
    grid = engine.symbol_grid
    A = engine.twist.cocycle_matrix()
    gauss, herm = funcs.gaussian_family(grid, 5), funcs.hermite_family(grid, 5)
    resolved = (2 * grid.half_width) ** 2 <= 2 * np.pi * grid.points
    gaps = {"fft": [], "operator": []}
    for k, a in enumerate(gauss):
        rights = gauss + [herm[k]]
        closed = [funcs.twisted_gaussian_product(A, engine.density, funcs.GAUSSIAN_PARAMS[k],
                                                 funcs.GAUSSIAN_PARAMS[j])
                  for j in range(5)]
        closed.append(funcs.twisted_gaussian_product(A, engine.density, funcs.GAUSSIAN_PARAMS[k],
                                                     orders=funcs.HERMITE_ORDERS[k]))
        Ta = engine.transform(a)
        swept = tw.twisted_convolve(engine.twist, a, rights, density=engine.density)
        for b, ab, ev in zip(rights, swept, closed):
            exact = funcs.sample(grid, ev).values
            gaps["fft"].append(np.linalg.norm(ab.values - exact) / np.linalg.norm(exact))
            if resolved:
                op = engine.inverse(Ta.compose(engine.transform(b))).values
                gaps["operator"].append(np.linalg.norm(op - exact) / np.linalg.norm(exact))
    return gaps


# Largest relative L2 gaps measured.  At L = 8 the FFT loop reads 2.5e-8,
# 1.6e-8 and 1.24e-8 at N = 32, 64 and 128 (1.08e-8 at N = 256), the operator
# route 1.6e-8 to 1.1e-8 for N >= 64: the box term of the widest Gaussian,
# sigma = 1.3, which falls with L and not with N.  At L = 12 both routes read
# 6.0e-16 to 7.0e-16 (N = 128 and 256): the formula is exact.  N = 256 stays
# out of the suite, where its five FFT sweeps would take about 3.5 s.
@pytest.mark.parametrize("half_width, points, bound", [
    (8.0, 32, 3e-8), (8.0, 64, 2e-8), (8.0, 128, 1.5e-8), (12.0, 128, 1e-15)])
def test_both_routes_match_the_closed_form_twisted_gaussian_product(h3_twist, half_width,
                                                                   points, bound):
    engine = pe.HeisenbergRealization(h3_twist, Grid(2, half_width, points))
    gaps = _closed_form_gaps(engine)
    assert len(gaps["fft"]) == 30 and len(gaps["operator"]) == (0 if points == 32 else 30)
    assert max(gaps["fft"] + gaps["operator"]) <= bound


def test_approximate_identity(h3_twist, grid32):
    a = funcs.sample(grid32, funcs.gaussian((0.3, 0.2)))
    delta = funcs.discrete_delta(grid32, RHO)
    out = tw.twisted_convolve(h3_twist, a, [delta], density=RHO)[0]
    rel = lp_norm(SampledSymbol(grid32, out.values - a.values), 2) / lp_norm(a, 2)
    assert rel <= 0.02


def test_delta_action_identity_at_zero(h3_twist, grid32):
    phi = funcs.sample(grid32, funcs.gaussian((0.1, -0.4)))
    out = tw.delta_action(h3_twist, phi, (0.0, 0.0))
    assert np.max(np.abs(out.values - phi.values)) == 0.0


def test_delta_action_norm_preservation(h3_twist, grid32):
    phi = funcs.sample(grid32, funcs.gaussian())
    out = tw.delta_action(h3_twist, phi, (1.0, 0.5))
    assert abs(lp_norm(out, 2) / lp_norm(phi, 2) - 1.0) <= 1e-10


def test_delta_action_matches_narrowing_bump(h3_twist):
    grid = Grid(2, 8.0, 128)
    phi = funcs.sample(grid, funcs.gaussian())
    target = tw.delta_action(h3_twist, phi, (1.0, 0.0))
    errs = []
    for sigma in (0.5, 0.25, 0.125):
        bump_vals = funcs.sample(grid, funcs.gaussian((1.0, 0.0), sigma)).values
        mass = RHO * grid.cell_volume * np.sum(bump_vals)
        bump = SampledSymbol(grid, bump_vals / mass)
        approx = tw.twisted_convolve(h3_twist, phi, [bump], density=RHO)[0]
        errs.append(lp_norm(SampledSymbol(grid, approx.values - target.values), 2)
                    / lp_norm(target, 2))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 0.03


def test_delta_action_refuses_off_lattice_shifts(h3_twist, ext7_orbit, grid32):
    # h = 0.5, so (1, 0) is two lattice steps: the moved node values are the
    # analytic shift wherever x - v stays on the grid, and zero elsewhere.
    gauss = funcs.gaussian((0.1, -0.4))
    phi = funcs.sample(grid32, gauss)
    v = np.array([1.0, 0.0])
    out = tw.delta_action(h3_twist, phi, v).values
    nodes = grid32.nodes()
    exact = (np.exp(-1j * h3_twist.alpha(nodes, -v))
             * gauss(nodes - v)).reshape(grid32.shape)
    assert np.max(np.abs(out[2:] - exact[2:])) <= 1e-15
    assert not np.any(out[:2])
    with pytest.raises(ValueError, match="h = 0.5"):
        tw.delta_action(h3_twist, phi, (0.3, 0.0))
    grid6 = Grid(6, 4.0, 8)
    with pytest.raises(ValueError, match="abelian twist"):
        tw.delta_action(tw.from_orbit(ext7_orbit), SampledSymbol(grid6, np.zeros(grid6.shape)),
                        np.zeros(6))


# Catalog entries, random algebras and two families of Heisenberg algebras:
# [X2, X3] = c X1 with the center first, and the central extension of the
# plane by c dx1 ^ dx2 with the center last.  Every 2-dimensional flat orbit
# among them must give a twist that twisted_convolve takes.
_heisenberg = st.one_of(
    random_algebras.nonzero_fractions.map(lambda c: lc.validate(3, {(1, 2): {0: c}})),
    random_algebras.nonzero_fractions.map(lambda c: sp.central_extension(
        cat.abelian(2), sp.form_from_pairs(2, {(0, 1): c}))))
_candidates = st.one_of(random_algebras.algebras, _heisenberg,
                        st.sampled_from(sorted(cat.CORE)).map(lambda k: cat.CORE[k]()))


# The central extension of R^4 by c1 dx1 ^ dx2 + c2 dx3 ^ dx4: 2-step, with
# 4-dimensional flat-orbit preduals.
_heisenberg5 = st.builds(
    lambda c1, c2: sp.central_extension(
        cat.abelian(4), sp.form_from_pairs(4, {(0, 1): c1, (2, 3): c2})),
    random_algebras.nonzero_fractions, random_algebras.nonzero_fractions)


def _random_orbit(L, data) -> ob.OrbitData:
    """The orbit of a random functional under a flag that starts at the
    centre; the functional is moved along one coordinate to pair to 1 with
    the flag's first vector."""
    center = lc.center(L)
    flag = lc.jordan_holder_flag(L, preferred_first=center[0])
    x1 = flag.vectors[0]
    coords = list(data.draw(random_algebras.points(L.dim)))
    k = next(t for t in range(L.dim) if x1[t])
    coords[k] += (1 - dot(tuple(coords), x1)) / x1[k]
    return ob.jump_indices(L, flag, ob.Functional(tuple(coords)))


def test_catalog_twists_have_a_matrix_only_on_h3():
    matrices = {name: tw.from_orbit(orbit).alpha_matrix
                for name, orbit in cat.flat_orbits().items()}
    assert [name for name, A in matrices.items() if A is not None] == ["h3"]


@settings(max_examples=40, deadline=None)
@given(st.one_of(_candidates, _heisenberg5), st.data())
def test_twist_is_read_from_the_predual_brackets(L, data):
    # A flat orbit has a cocycle matrix exactly when its algebra is 2-step,
    # and then A[a, b] is the exact cocycle at (e_a, e_b), rounded once.
    orbit = _random_orbit(L, data)
    if not orbit.flat:
        return
    A = tw.from_orbit(orbit).alpha_matrix
    assert (A is None) == (L.step > 2)
    if A is None:
        return
    assert np.array_equal(A, -A.T)
    e = [unit_vector(orbit.d, a) for a in range(orbit.d)]
    for a in range(orbit.d):
        for b in range(orbit.d):
            assert A[a, b] == float(ob.alpha(orbit, e[a], e[b]))


@settings(max_examples=40, deadline=None)
@given(_candidates, st.data())
def test_every_two_dimensional_flat_orbit_takes_the_fft_path(L, data):
    orbit = _random_orbit(L, data)
    if not (orbit.flat and orbit.d == 2):
        return
    twist = tw.from_orbit(orbit)
    A = twist.alpha_matrix
    assert A is not None and np.array_equal(A, -A.T)
    # The matrix form agrees with the exact reduced product and cocycle.
    for _ in range(3):
        x, y = data.draw(random_algebras.points(2)), data.draw(random_algebras.points(2))
        prod, a = ob.product_and_alpha(orbit, x, y)
        X, Y = np.array([float(c) for c in x]), np.array([float(c) for c in y])
        assert abs(float(twist.alpha(X, Y)) - float(a)) <= 1e-12 * (1.0 + abs(a))
        assert np.max(np.abs(twist.combine(X, Y) - [float(c) for c in prod])) <= 1e-12
    grid = Grid(2, 4.0, 8)
    sym = funcs.sample(grid, funcs.gaussian())
    out = tw.twisted_convolve(twist, sym, [sym], density=RHO)[0]
    assert np.all(np.isfinite(out.values))


def _failed(rep) -> set[str]:
    return {c.name for c in rep.checks if c.status == "fail"}


def _value(rep, name: str) -> float:
    return next(c.value for c in rep.checks if c.name == name)


def test_twist_suite_fails_on_a_flipped_cocycle_matrix(monkeypatch):
    # The twist is its cocycle matrix: the convolution, the closed-form
    # product and the pointwise cocycle all read alpha_matrix.  With its sign
    # flipped the product is the twisted convolution of the opposite group,
    # still associative (6.1e-9 at N = 32) and still an approximate identity,
    # while the representation keeps the group's own phase.  So two checks
    # see the defect: the homomorphism T(a * b) = T(a) T(b), with a * b the
    # closed form (0.95 against 4.4e-6, bound 1e-3), and the CCR phase
    # rep(u) rep(v) = exp(i a(u, v)) rep(u . v) (0.78 against 6.0e-12, bound
    # 1e-10).
    assert not _failed(verify.twist_suite(seed=0, points=32))
    compile_twist = tw.from_orbit

    def flipped(orbit):
        twist = compile_twist(orbit)
        return dataclasses.replace(twist, alpha_matrix=-twist.alpha_matrix)

    monkeypatch.setattr(tw, "from_orbit", flipped)
    assert _failed(verify.twist_suite(seed=0, points=32)) == {"homomorphism_rel_max",
                                                              "ccr_phase_residual_max"}


def _report_bytes(points: int) -> list[str]:
    return [json.dumps(suite(0, 8.0, points).to_dict(), sort_keys=True)
            for suite in (verify.twist_suite, verify.multiplier_suite)]


def test_warm_grid_caches_change_no_report_byte(cold_caches):
    # The realization tables and the calibrated density are cached per grid,
    # the gauge tables per grid and cocycle: the first run builds them, the
    # second reads them.
    assert _report_bytes(32) == _report_bytes(32)


@pytest.mark.parametrize("points, factor", [(64, -1.0), (64, 2.0)],
                         ids=["flipped", "rescaled"])
def test_a_wrong_cocycle_matrix_is_seen_after_warm_suites(monkeypatch, points, factor):
    # Only grid tables are cached, never the h3 realization: each suite
    # compiles its twist anew, so a defect in from_orbit shows after both
    # suites have run on its grid.
    _report_bytes(points)
    compile_twist = tw.from_orbit

    def wrong(orbit):
        twist = compile_twist(orbit)
        return dataclasses.replace(twist, alpha_matrix=factor * twist.alpha_matrix)

    monkeypatch.setattr(tw, "from_orbit", wrong)
    assert _failed(verify.twist_suite(seed=0, points=points)) == {"homomorphism_rel_max",
                                                                  "ccr_phase_residual_max"}


@pytest.mark.parametrize("points, transforms", [(32, (21, 18)), (64, (25, 21))])
def test_suites_keep_the_fft_loop_bits_and_transform_each_symbol_once(monkeypatch, points,
                                                                      transforms):
    # Every product the FFT loop makes in the twist and multiplier suites is
    # the full loop's, bit for bit.  Each suite transforms each symbol once,
    # by its bytes, except the multiplier suite's three products
    # zero_u * phi_k: equal zero symbols, one transform each, so 2 repeats.
    # At N = 32 no product takes the operator route, which the multiplier
    # suite's T(psi) are built for.
    products = []
    inner = tw.twisted_convolve

    def recorded(twist, b1, b2s, density=1.0):
        b2s = list(b2s)
        out = inner(twist, b1, b2s, density)
        products.extend((twist, b1, b2, density, c) for b2, c in zip(b2s, out))
        return out

    transform = pe.HeisenbergRealization.transform
    symbols = []

    def counted(self, b):
        symbols.append(b.values.tobytes())
        return transform(self, b)

    monkeypatch.setattr(tw, "twisted_convolve", recorded)
    monkeypatch.setattr(pe, "twisted_convolve", recorded)
    monkeypatch.setattr(pe.HeisenbergRealization, "transform", counted)
    suites = ((verify.twist_suite, 0), (verify.multiplier_suite, 2))
    for (suite, repeats), calls in zip(suites, transforms):
        products.clear()
        symbols.clear()
        assert not _failed(suite(0, 8.0, points))
        assert (len(symbols), len(symbols) - len(set(symbols))) == (calls, repeats)
        assert products
        for twist, b1, b2, density, got in products:
            assert _same_bits(got.values, full_loop_fft_2d(twist, b1, b2, density))


def test_warm_operator_suites_memory_peak():
    # The benchmark's operator-calculus battery at N = 128, both suites with
    # their grid tables cached: 9.3 MB under tracemalloc, where the bound
    # leaves 3.7 MB, about fourteen N = 128 operators of 0.26 MB.  The peak is
    # set in the multiplier suite's point-mass sweep of u * (phi * psi), with
    # T(phi), T(psi) and T(u) held (7 x 0.26 MB); the twist suite, holding
    # the transforms of both families, peaks at 8.4 MB.  A warm run keeps
    # only the h3 gauge tables, 1.58 MB, which the gauge cache's one entry
    # rebuilds after the twist suite's untwisted product.
    suites = (verify.twist_suite, verify.multiplier_suite)
    for suite in suites:
        suite(0, 8.0, 128)
    tracemalloc.start()
    try:
        for suite in suites:
            suite(0, 8.0, 128)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13.0e6
    assert current < 1.7e6


def test_twist_suite_sees_a_density_off_by_a_part_per_million(monkeypatch):
    # The point-mass product is then 1 + 1e-6 times the Gaussian.  That read
    # inside the earlier approximate-identity bound of 0.02; the bound of
    # 1e-12 (2e-16 measured at L = 8, N = 16..128) sees it.
    convolve = pe.twisted_convolve

    def scaled(twist, b1, b2s, density=1.0):
        return convolve(twist, b1, b2s, density * (1 + 1e-6))

    monkeypatch.setattr(pe, "twisted_convolve", scaled)
    rep = verify.twist_suite(seed=0, points=32)
    assert 1e-12 < _value(rep, "approximate_identity_rel_l2") < 0.02
    assert _failed(rep) == {"approximate_identity_rel_l2"}


def test_twist_suite_sees_one_dropped_convolution_term(monkeypatch):
    # Every product drops the term of the right operand's node y = (4, 0).
    # Associativity then reads 1.2e-3 at N = 32 (2.7e-9 without the defect):
    # inside the earlier bound of 1e-2, outside the bound of 1e-5, and no
    # other check fails.
    convolve = pe.twisted_convolve

    def dropped(twist, b1, b2s, density=1.0):
        cut = []
        for b2 in b2s:
            values = b2.values.copy()
            values[tuple(np.searchsorted(b2.grid.axis, (4.0, 0.0)))] = 0.0
            cut.append(SampledSymbol(b2.grid, values))
        return convolve(twist, b1, cut, density)

    monkeypatch.setattr(pe, "twisted_convolve", dropped)
    rep = verify.twist_suite(seed=0, points=32)
    assert 1e-5 < _value(rep, "twisted_convolution_associativity") < 1e-2
    assert _failed(rep) == {"twisted_convolution_associativity"}


@pytest.mark.parametrize("owner, norm", [(pe.DiscretizedOperator, "hs_norm"),
                                         (pe.HeisenbergRealization, "symbol_norm")],
                         ids=["hs_norm", "symbol_norm"])
def test_twist_suite_sees_an_hs_norm_off_by_a_part_per_million(monkeypatch, owner, norm):
    # The HS isometry ||T(b)||_HS = ||b|| reads 6.3e-16 at N = 64 and is held
    # to 1e-12 there; either norm times (1 + 1e-6) moves it to 1.0e-6.  At
    # N = 32 it is held to 1e-3 and reads 2.5e-6 (hs_norm) or 4.5e-6
    # (symbol_norm) with the defect, so there every twist and multiplier
    # check passes: a known gap.
    unscaled = getattr(owner, norm)
    monkeypatch.setattr(owner, norm, lambda *args: unscaled(*args) * (1 + 1e-6))
    rep = verify.twist_suite(seed=0, points=64)
    assert _failed(rep) == {"hs_isometry_rel_max"}


# At L = 8, N = 64 the calculus is resolved and the dense products take the
# operator route, inverse(T(a) T(b)), which reads neither the cocycle matrix
# nor pe.twisted_convolve.  Each defect is injected where both routes see it.
# The homomorphism residual reads the closed-form product, under the twist's
# own matrix, and the multiplier intertwining reads the FFT loop directly, so
# that each compares composition with something other than itself.


@pytest.mark.parametrize("factor", [-1.0, 2.0], ids=["flipped", "rescaled"])
def test_resolved_grid_sees_a_wrong_cocycle_matrix(monkeypatch, factor):
    # T(a) T(b) is the product of the twist rep_apply realizes, whatever the
    # matrix says, so a matrix that is not rep_apply's cocycle sends every
    # product to the FFT loop, and the closed form reads the wrong matrix too.
    # The two checks of the N = 32 case fail: the homomorphism (0.95 flipped,
    # 0.45 rescaled, against 2.8e-6) and the CCR phase (0.78 and 0.40,
    # against 4.3e-12).
    compile_twist = tw.from_orbit

    def wrong(orbit):
        twist = compile_twist(orbit)
        return dataclasses.replace(twist, alpha_matrix=factor * twist.alpha_matrix)

    monkeypatch.setattr(tw, "from_orbit", wrong)
    assert _failed(verify.twist_suite(seed=0, points=64)) == {"homomorphism_rel_max",
                                                              "ccr_phase_residual_max"}


def test_resolved_grid_sees_a_density_off_by_a_part_per_million(monkeypatch):
    # The density is scaled for the products only, where both routes read it:
    # the FFT loop as its measure, the operator route in T(a) and T(b).  The
    # point-mass product is sparse and takes the FFT loop: the approximate
    # identity reads 1e-6 against 1e-12.  The dense products take the
    # operator route and come out (1 + 1e-6)^2 times too large, which
    # associativity, with both sides scaled alike, does not see.  The
    # homomorphism reads the closed-form products, past convolve_each.  The
    # operators the suite holds were built at the true density, so the
    # scaled products are handed none of them.
    convolve_each = pe.HeisenbergRealization.convolve_each

    def scaled(self, a, bs, held=None):
        density = self.density
        self.density = density * (1 + 1e-6)
        try:
            return convolve_each(self, a, bs)
        finally:
            self.density = density

    monkeypatch.setattr(pe.HeisenbergRealization, "convolve_each", scaled)
    rep = verify.twist_suite(seed=0, points=64)
    assert 1e-12 < _value(rep, "approximate_identity_rel_l2") < 0.02
    assert _failed(rep) == {"approximate_identity_rel_l2"}


def test_resolved_grid_sees_one_dropped_convolution_term(monkeypatch):
    # Every right operand loses its node y = (4, 0) before the route is
    # chosen.  The associativity triples are dense and take the operator
    # route: 3.1e-4 against 1e-5 (1.7e-9 without the defect).  The point
    # mass at 0 loses nothing, and the homomorphism reads the closed-form
    # products, past convolve_each.
    convolve_each = pe.HeisenbergRealization.convolve_each

    def dropped(self, a, bs, held=None):
        cut = []
        for b in bs:
            values = b.values.copy()
            values[tuple(np.searchsorted(b.grid.axis, (4.0, 0.0)))] = 0.0
            cut.append(SampledSymbol(b.grid, values))
        return convolve_each(self, a, cut, held)

    monkeypatch.setattr(pe.HeisenbergRealization, "convolve_each", dropped)
    rep = verify.twist_suite(seed=0, points=64)
    assert 1e-5 < _value(rep, "twisted_convolution_associativity") < 1e-2
    assert _failed(rep) == {"twisted_convolution_associativity"}


def test_resolved_grid_sees_a_compose_without_its_quadrature_weight(monkeypatch):
    # T(a) . T(b) comes out 1/h = 4 times too large.  The homomorphism
    # compares the closed-form product with it: 2.5 against 1e-3.  The reversed
    # pairs take the operator route, inverse(T(a) . T(b)), four times too
    # large: the L2 slack reads 3.5 against 1.  Associativity, with both sides
    # scaled alike, does not see the defect.  In the multiplier suite both
    # intertwining checks compare the FFT loop with composition and fail.
    monkeypatch.setattr(pe.DiscretizedOperator, "compose",
                        lambda self, other: pe.DiscretizedOperator(
                            self.grid, self.matrix @ other.matrix))
    rep = verify.twist_suite(seed=0, points=64)
    assert _value(rep, "homomorphism_rel_max") > 1.0
    assert _failed(rep) == {"homomorphism_rel_max", "l2_submultiplicativity_slack"}
    assert _failed(verify.multiplier_suite(seed=0, points=64)) == {
        "approx_identity_intertwining_hs", "integrable_kernel_intertwining"}


def _sign_flipped_modulation(twist, b1, b2s, density):
    return [full_loop_fft_2d(twist, b1, b2, density, modulation=-1.0) for b2 in b2s]


@pytest.mark.parametrize("points", [32, 64])
def test_a_sign_flipped_fft_modulation_is_seen_outside_the_twist_suite(monkeypatch, h3_twist,
                                                                      points):
    # The FFT loop multiplies each block by e^{-i (c1 - c2) u0 y1} in place of
    # e^{+i (c1 - c2) u0 y1}.  While the homomorphism residual read the FFT
    # loop's products, homomorphism_rel_max failed on this at N = 32 and 64
    # (0.72 against 4.4e-6 and 2.8e-6).  It now reads the closed form, and
    # the twist suite sees nothing: its other products are associative and
    # an approximate identity all the same, and the L2 slack stays below 1.
    # The multiplier intertwining, which compares the FFT loop with
    # composition, and the closed-form comparison of the loop (1.24 against
    # 2.5e-8) do see it.
    monkeypatch.setattr(tw, "_convolve_fft_2d", _sign_flipped_modulation)
    assert not _failed(verify.twist_suite(seed=0, points=points))
    assert _failed(verify.multiplier_suite(seed=0, points=points)) == {
        "integrable_kernel_intertwining"}
    engine = pe.HeisenbergRealization(h3_twist, Grid(2, 8.0, points))
    assert max(_closed_form_gaps(engine)["fft"]) > 1.0


def test_twist_suite_sees_a_closed_form_without_its_moment_variance(monkeypatch):
    # The Hermite moments drop (1 - s) from their recurrence, so E[He_2(Y)]
    # reads mu^2 - 1 in place of mu^2 - (1 - s): the product g_4 * h_4, with
    # h_4 of order (2, 0), is wrong, and the homomorphism sees it: 0.56
    # against 2.8e-6.
    moment = funcs.hermite_moment
    monkeypatch.setattr(funcs, "hermite_moment",
                        lambda order, mean, variance: moment(order, mean, 0.0))
    rep = verify.twist_suite(seed=0, points=64)
    assert _value(rep, "homomorphism_rel_max") > 0.1
    assert _failed(rep) == {"homomorphism_rel_max"}


@pytest.mark.parametrize("points", [32, 64, 128])
def test_closed_form_products_move_only_the_homomorphism_residual(monkeypatch, points):
    # The reference is the report of the identity residuals on the FFT loop's
    # products, as the suite made them before it read the closed form.  Every
    # other value keeps its bits.  The homomorphism residual moves by a few
    # parts in 1e5: 4.4303e-6 -> 4.4307e-6 (N = 32), 2.84081e-6 -> 2.84069e-6
    # (64), 2.27518e-6 -> 2.27503e-6 (128).
    new = verify.twist_suite(seed=0, points=points)
    report = pe.HeisenbergRealization.identity_report
    monkeypatch.setattr(pe.HeisenbergRealization, "identity_report",
                        lambda self, symbols, pairs, products, held:
                        report(self, symbols, pairs, None, held))
    old = verify.twist_suite(seed=0, points=points)
    assert [c.name for c in new.checks] == [c.name for c in old.checks]
    for was, now in zip(old.checks, new.checks):
        assert now.status == was.status
        if now.name == "homomorphism_rel_max":
            assert 0.0 < abs(now.value - was.value) <= 1e-3 * was.value
        else:
            assert now.value == was.value, now.name


@pytest.mark.parametrize("points", [32, 64, 128])
def test_untwisted_closed_form_moves_by_round_off(points):
    # The untwisted Gaussian check reads funcs.twisted_gaussian_product under
    # the zero matrix.  Against the inline formula it replaced,
    # 2 pi s1^2 s2^2 / (s1^2 + s2^2) exp(-|x|^2 / (2 (s1^2 + s2^2))), the
    # relative L2 error moves by 1.15e-17 at N = 32 (1.0580374e-11 ->
    # 1.0580386e-11), 1.2e-18 at N = 64 and 1.3e-18 at N = 128, against the
    # check's bound of 1e-6.  At N = 32 the suite is run and reads this value.
    grid = Grid(2, 8.0, points)
    first, second = ((0.0, 0.0), 1.0, None), ((0.0, 0.0), 0.7, None)
    g1, g2 = (funcs.sample(grid, funcs.gaussian(*params)) for params in (first, second))
    plain = tw.twisted_convolve(tw.zero_twist(2), g1, [g2], density=1.0)[0]
    s2 = 1.0 ** 2 + 0.7 ** 2
    inline = funcs.sample(grid, lambda pts: (
        (2 * np.pi * 1.0 ** 2 * 0.7 ** 2 / s2)
        * np.exp(-0.5 * np.sum(np.asarray(pts, float) ** 2, axis=-1) / s2)).astype(complex))
    closed = funcs.sample(grid, funcs.twisted_gaussian_product(
        np.zeros((2, 2)), 1.0, first, second))

    def rel(ref):
        return lp_norm(SampledSymbol(grid, plain.values - ref.values), 2) / lp_norm(ref, 2)

    assert abs(rel(closed) - rel(inline)) <= 2e-17
    if points == 32:
        rep = verify.twist_suite(seed=0, points=32)
        assert _value(rep, "untwisted_gaussian_closed_form_rel_l2") == rel(closed)
