"""Discretized operator calculus for the 2-dimensional flat predual.

The Schrodinger-type convention is fixed once:

    (rep(q, p) f)(x) = exp(i (q x + q p / 2)) f(x + p),

acting on a 1-d grid sharing the axis of the 2-d symbol grid; lattice-aligned
p-shifts are exact index displacements.  The symbol-to-operator transform is

    transform(b) = density * integral b(q, p) rep(q, p) dq dp

assembled as an integral-kernel matrix; the p-integration collapses onto the
matrix diagonals, the q-integration is a trapezoid sum.  ``density`` is the
measure normalization on the predual: calibrating it so that the operator
trace of one Gaussian symbol reproduces the symbol value at 0 makes the
transform simultaneously trace-correct, a *-homomorphism for the twisted
convolution, and unitary from L^2(density * dx) onto Hilbert-Schmidt
operators.  The expected calibrated value is (2 pi)^(-d/2).

Through the transform, twisted convolution is operator composition:
a * b = inverse(transform(a) . transform(b)) (Folland, Harmonic Analysis in
Phase Space, 1989, ch. 1).  ``convolve_each`` takes this operator route for a
product when all three of these hold, and the FFT loop of
``twist.twisted_convolve`` otherwise:

1. The twist's cocycle matrix is REP_COCYCLE, the cocycle of ``rep_apply``.
   The operator route never reads the matrix: under any other matrix it
   would return the product of the twist that ``rep_apply`` realizes.
2. The grid resolves the calculus: (2L)^2 <= 2 pi N, i.e. the period 2 pi / h
   of the q-sum in the kernel's midpoint variable covers the state box 2L.
   At L = 8 this holds from N = 64 on.  At L = 8, N = 32 the operator route
   fails the homomorphism (3.2e-2), associativity (8.9e-4) and integrable-
   kernel intertwining (1.1e-2) bounds.
3. The product is dense: (span of a's nonzero columns) x (nonzero columns of
   b) > N^2 / 2, so the FFT sweep would transform more than half of its N^2
   block rows.  A sparse product such as g * delta costs the FFT loop little,
   and the inversion round trip would cost it accuracy: 2.4e-11 against the
   approximate identity's 1e-12 at N = 128, where the FFT loop gives 2e-16.
   Over half a sweep the operator route is the cheaper one: a dense product
   costs it about a third of the FFT loop's time at N = 64 and a tenth at
   N = 256.

Error model, measured at L = 8 for N = 64, 128 and 256: the relative L2 gap of
the operator route to the FFT loop is at most 2.2e-10 for Gaussian and
Hermite pairs; for the truncated power law |x|^-1.5 on 0.25 < |x| < 6 it is
up to 8.7e-5 (N = 64), 6.0e-6 (128) and 1.4e-5 (256) against Gaussians, and
5.3e-5, 2.6e-6 and 1.0e-5 for those products against Hermites.  The last two
are set by the box, not the step; tests/test_pedersen.py holds the bounds.

Cost.  The grid-only tables and the calibrated density read no twist: they
are built once per grid (about 2 ms at N = 128) in ``_grid_tables``, which
keeps the last grid, and every realization on that grid shares them
read-only.  The tables are the transform's (q, midpoint) phases,
N x (2N-1); the inverse's h exp(i q p / 2) on (q, p), N x N; and the two
fixed gather indices, N x N each (0.52 MB + 0.26 MB + 2 x 0.13 MB at
N = 128, four times that at N = 256).  A transform is one N x N by
N x (2N-1) product, b's N p-node rows against the phases, and one gather of
the N^2 kernel entries.  An inverse is one gather of the operator's
diagonals, one N x N product with the exp(-i q x_j) table, which is
conj(phases[:, ::2]) bit for bit and is derived per call, and one
elementwise multiply.  No operator is cached.  A caller that holds
transforms hands them to ``identity_report`` and ``convolve_each`` as
``held``, the mapping ``hold`` builds, and they read those instead of
transforming the symbol again; an operator lives as long as the caller's
mapping.  So the twist and multiplier suites make 25 and 21 transforms at
N = 128, where they made 50 and 43 when each product transformed its own
operands.

The checks that compare a product with operator composition never take it
from the operator route, where the product is inverse(T(a) . T(b)) and the
residual would measure only the round trip.  ``identity_report`` holds the one
homomorphism residual and reads the products it is given, or else the FFT
loop's: the twist suite passes the closed form ``funcs.twisted_gaussian_product``
and the multiplier intertwining its FFT products u * phi.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import funcs
from .grids import (Grid, GridMismatch, SampledSymbol, lattice_shift, lp_norm,
                    symbol_check_involution)
from .twist import TwistData, twisted_convolve


# The cocycle of rep_apply: rep(u) rep(v) = exp(i u^T A v) rep(u + v).
REP_COCYCLE = np.array([[0.0, -0.5], [0.5, 0.0]])


class DimensionNot2(Exception):
    pass


@dataclass(frozen=True)
class DiscretizedOperator:
    """Integral-kernel matrix on the 1-d grid; quadrature weight = spacing."""

    grid: Grid
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        m = self.grid.points
        if mat.shape != (m, m):
            raise ValueError("operator matrix shape mismatch")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "matrix", mat)

    @property
    def weight(self) -> float:
        return self.grid.h

    def compose(self, other: "DiscretizedOperator") -> "DiscretizedOperator":
        if not self.grid.same_box(other.grid):
            raise GridMismatch("operator grids differ")
        return DiscretizedOperator(self.grid, self.weight * (self.matrix @ other.matrix))

    def adjoint(self) -> "DiscretizedOperator":
        return DiscretizedOperator(self.grid, self.matrix.conj().T)

    def hs_norm(self) -> float:
        """The Hilbert-Schmidt norm, summed by numpy's pairwise ufunc
        reduction: ``np.linalg.norm`` reduces through BLAS, whose partial
        sums, and so the last bits of the norm, depend on its thread count."""
        m = self.matrix
        return float(self.weight * np.sqrt(np.sum(m.real * m.real + m.imag * m.imag)))

    def trace(self) -> complex:
        return complex(self.weight * np.trace(self.matrix))

    def hs_inner(self, other: "DiscretizedOperator") -> complex:
        """Trace of self . other^*, the Hilbert-Schmidt pairing."""
        return complex(self.weight ** 2 * np.sum(self.matrix * other.matrix.conj()))

    def __sub__(self, other: "DiscretizedOperator") -> "DiscretizedOperator":
        return DiscretizedOperator(self.grid, self.matrix - other.matrix)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _kernel(grid: Grid, phases: np.ndarray, kernel_index: np.ndarray,
            values: np.ndarray, density: float) -> np.ndarray:
    """Kernel K(x_j, x_k) = density * h * sum_q b(q, (k-j) h) exp(i q (x_j+x_k)/2),
    one gather from the (p node, midpoint) table."""
    n = grid.points
    table = np.empty((n + 1, 2 * n - 1), dtype=complex)
    np.matmul(values.T, phases, out=table[:n])
    table[n] = 0.0
    return density * grid.h * table.ravel()[kernel_index]


@lru_cache(maxsize=1)
def _grid_tables(grid: Grid) -> tuple:
    """The read-only tables of the module docstring's cost paragraph and the
    calibrated density, for one symbol grid.  None of them reads the twist, so
    every realization on the grid shares them."""
    n = grid.points
    h = grid.h
    ax = grid.axis
    j = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    # The transform's (q, midpoint) phases exp(i q (x_j + x_k)/2) at the
    # 2n-1 midpoints; every other midpoint is a node, so conj(phases[:, ::2])
    # is the inverse's exp(-i q x_j) table.
    mids = -grid.half_width + 0.5 * h * np.arange(2 * n - 1)
    phases = _read_only(np.exp(1j * np.outer(ax, mids)))
    # Flat index of kernel entry (j, k) in the (p node, midpoint) table with
    # one zero row n appended: column j + k of row k - j + n/2, or of row n
    # where (k - j) h is not a node.
    rows = k - j + n // 2
    kernel_index = _read_only(
        np.where((rows >= 0) & (rows < n), rows, n) * (2 * n - 1) + j + k)
    # The inverse's h exp(i q p / 2) on (q, p), and the flat index of
    # B[j - s, j], the p-step s = k - n/2, in B.matrix with one zero
    # appended (entry n^2 where j - s is off the grid).
    half_phases = _read_only(h * np.exp(0.5j * np.outer(ax, ax)))
    rows = j - k + n // 2
    diagonal_index = _read_only(np.where((rows >= 0) & (rows < n), rows * n + j, n * n))
    # The density for which trace(transform(b)) = b(0), b a standard Gaussian.
    probe = funcs.sample(grid, funcs.gaussian())
    trace = DiscretizedOperator(grid.axis_grid(),
                                _kernel(grid, phases, kernel_index, probe.values, 1.0)).trace()
    if abs(trace) == 0.0:
        raise ValueError(
            f"the grid L = {grid.half_width:g}, N = {n} cannot calibrate the "
            "operator transform: the Gaussian probe has zero raw trace")
    density = float((probe.at_origin() / trace).real)
    return phases, kernel_index, half_phases, diagonal_index, density


# id(s) -> (s, transform(s)) for symbols s a caller holds (``hold``).
Held = dict[int, tuple[SampledSymbol, DiscretizedOperator]]


class HeisenbergRealization:
    """Operator calculus bound to one twist structure and one grid pair."""

    def __init__(self, twist: TwistData, symbol_grid: Grid):
        if twist.dim != 2 or symbol_grid.dim != 2:
            raise DimensionNot2("this realization needs a 2-dimensional predual")
        self.twist = twist
        self.symbol_grid = symbol_grid
        self.state_grid = symbol_grid.axis_grid()
        (self._phases, self._kernel_index, self._half_phases, self._diagonal_index,
         self.density) = _grid_tables(symbol_grid)

    # -- representation ---------------------------------------------------

    def rep_apply(self, q: float, p: float, f: np.ndarray) -> np.ndarray:
        """(rep(q,p) f)(x) = exp(i(qx + qp/2)) f(x+p); p must be lattice-aligned."""
        steps = self.state_grid.lattice_steps(p)
        if steps is None:
            raise ValueError("representation shifts must be lattice-aligned")
        x = self.state_grid.axis
        shifted = lattice_shift(np.asarray(f, dtype=complex), (-steps[0],))
        return np.exp(1j * (q * x + q * p / 2.0)) * shifted

    def ccr_phase_residual(self, u, v, test_vectors) -> float:
        """Max relative discrepancy of rep(u) rep(v) = exp(i a(u,v)) rep(u . v)."""
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        uv = self.twist.combine(u[None, :], v[None, :])[0]
        phase = np.exp(1j * float(self.twist.alpha(u[None, :], v[None, :])[0]))
        worst = 0.0
        for f in test_vectors:
            lhs = self.rep_apply(u[0], u[1], self.rep_apply(v[0], v[1], f))
            rhs = phase * self.rep_apply(uv[0], uv[1], f)
            scale = np.linalg.norm(rhs)
            if scale == 0.0:
                continue
            worst = max(worst, float(np.linalg.norm(lhs - rhs) / scale))
        return worst

    # -- transform and inverse --------------------------------------------

    def transform(self, b: SampledSymbol) -> DiscretizedOperator:
        if not b.grid.same_box(self.symbol_grid) or b.grid.dim != 2:
            raise GridMismatch("symbol grid does not match the realization")
        return DiscretizedOperator(self.state_grid, _kernel(
            self.symbol_grid, self._phases, self._kernel_index, b.values, self.density))

    def inverse(self, B: DiscretizedOperator) -> SampledSymbol:
        """Symbol recovery b(q,p) = trace(rep(q,p)^{-1} B); no density factor."""
        if not B.grid.same_box(self.state_grid):
            raise GridMismatch("operator grid does not match the realization")
        # diags[j, k] = B[j - s, j] for the p-step s = k - n/2, zero off the grid.
        diags = np.append(B.matrix.ravel(), 0.0)[self._diagonal_index]   # (state j, p index)
        summed = np.conj(self._phases[:, ::2]) @ diags                   # (q, p)
        return SampledSymbol(grid=self.symbol_grid, values=self._half_phases * summed)

    # -- convolution and norms ---------------------------------------------

    def hold(self, symbols: Iterable[SampledSymbol]) -> Held:
        """{id(s): (s, transform(s))} for the symbols: the ``held`` mapping
        that ``convolve_each`` and ``identity_report`` read.  Each entry keeps
        its symbol, and is read only for that symbol object, so an id that a
        freed symbol's successor reuses finds no operator."""
        return {id(s): (s, self.transform(s)) for s in symbols}

    def convolve(self, a: SampledSymbol, b: SampledSymbol,
                 held: Held | None = None) -> SampledSymbol:
        return self.convolve_each(a, [b], held)[0]

    def convolve_each(self, a: SampledSymbol, bs: list[SampledSymbol],
                      held: Held | None = None) -> list[SampledSymbol]:
        """[a * b for b in bs], each by the route the module docstring states.

        A dense product on a grid that resolves the calculus, under the twist
        that ``rep_apply`` realizes, is inverse(transform(a) . transform(b)),
        with transform(a) built once per call.  The other products share one
        FFT sweep of a's offset blocks.  The route depends on a and that b
        alone, so each result is the one that bs = [b] gives.  The operator
        route reads the operators of a and b from ``held`` (``hold``) when it
        has them, instead of transforming again."""
        bs = list(bs)
        grid = self.symbol_grid
        n = grid.points
        resolved = (np.array_equal(self.twist.alpha_matrix, REP_COCYCLE)
                    and (2 * grid.half_width) ** 2 <= 2 * np.pi * n
                    and a.grid == grid)
        # The FFT sweep transforms, per nonzero column of b, at most the span
        # of a's nonzero columns: the block rows of a's offset table.
        cols = np.flatnonzero(a.values.any(axis=0)) if resolved else ()
        rows = cols[-1] - cols[0] + 1 if len(cols) else 0
        dense = [b.grid == grid and rows * np.count_nonzero(b.values.any(axis=0)) > n * n / 2
                 for b in bs]
        fft_bs = [b for b, d in zip(bs, dense) if not d]
        swept = iter(twisted_convolve(self.twist, a, fft_bs, density=self.density)
                     if fft_bs else ())
        held = held or {}
        Ta = self._operator(a, held) if any(dense) else None
        return [self.inverse(Ta.compose(self._operator(b, held))) if d else next(swept)
                for b, d in zip(bs, dense)]

    def _operator(self, b: SampledSymbol, held: Held,
                  store: bool = False) -> DiscretizedOperator:
        """transform(b): the operator ``held`` has for b itself, else a new
        one, which ``store`` adds to ``held``."""
        entry = held.get(id(b))
        if entry is not None and entry[0] is b:
            return entry[1]
        T = self.transform(b)
        if store:
            held[id(b)] = (b, T)
        return T

    def symbol_norm(self, b: SampledSymbol) -> float:
        """L^2 norm in the calibrated measure (density * Lebesgue)."""
        return lp_norm(b, 2.0, density=self.density)

    # -- identity reports ----------------------------------------------------

    def identity_report(self, symbols: list[SampledSymbol],
                        pairs: list[tuple[SampledSymbol, SampledSymbol]],
                        products: Iterable[SampledSymbol] | None = None,
                        held: Held | None = None) -> dict:
        """Residuals of the trace, adjoint, isometry, pairing, inversion and
        homomorphism identities on the given test family.

        The homomorphism residual ||T(a * b) - T(a) . T(b)||_HS is kept raw as
        "homomorphism_hs" and relative to ||a|| ||b|| as "homomorphism";
        "submultiplicativity" holds ||a * b|| / (||a|| ||b||) per pair.  All
        three read one product a * b per pair: the i-th of ``products`` for
        pairs[i] when given, else the FFT loop's, one call per pair, not
        ``convolve_each`` (module docstring).  Each product is read as its
        pair comes up, so a generator holds one at a time.

        Each symbol and pair operand is transformed once per call, and not at
        all when ``held`` (``hold``) has its operator; a product is
        transformed unless ``held`` has it.
        The twist suite hands in the transforms of both families, which its
        later products read too, and the multiplier checks T(u), T(phi) and
        T(u * phi)."""
        report: dict = {"density": self.density, "trace": [], "adjoint": [],
                        "hs_isometry": [], "pairing": [], "inversion": [], "homomorphism": [],
                        "homomorphism_hs": [], "submultiplicativity": []}
        # The held operators and those of this call's symbols and pair operands.
        ops = dict(held or {})
        for b in symbols:
            T = self._operator(b, ops, store=True)
            b0 = b.at_origin()
            report["trace"].append(abs(T.trace() - b0) / (1.0 + abs(b0)))
            report["adjoint"].append(
                (self.transform(symbol_check_involution(b)) - T.adjoint()).hs_norm())
            nb = self.symbol_norm(b)
            scale = nb if nb > 0 else 1.0
            report["hs_isometry"].append(abs(T.hs_norm() - nb) / scale)
            back = self.inverse(T)
            diff = SampledSymbol(b.grid, back.values - b.values)
            report["inversion"].append(self.symbol_norm(diff) / scale)
        if products is None:
            products = (twisted_convolve(self.twist, a, [b], density=self.density)[0]
                        for a, b in pairs)
        for (a, b), conv in zip(pairs, products, strict=True):
            Ta, Tb = self._operator(a, ops, store=True), self._operator(b, ops, store=True)
            resid = (self._operator(conv, ops) - Ta.compose(Tb)).hs_norm()
            scale = self.symbol_norm(a) * self.symbol_norm(b)
            if scale == 0.0:
                scale = 1.0
            report["homomorphism"].append(resid / scale)
            report["homomorphism_hs"].append(resid)
            report["submultiplicativity"].append(self.symbol_norm(conv) / scale)
            lhs = Ta.hs_inner(Tb)
            rhs = self.density * a.grid.cell_volume * np.sum(a.values * b.values.conj())
            report["pairing"].append(abs(lhs - rhs) / scale)
        return report
