"""Numerical twisted convolution on a flat-orbit predual.

The convolution of two symbols is

    (b1 * b2)(x) = density * integral  exp(-i a(x, -y)) b1(x . (-y)) b2(y) dy

by trapezoid quadrature on the grid, where a is the additive cocycle and
x . y the reduced group product of the orbit.

The grid engine takes the 2-step case: the reduced product is x + y and the
cocycle is bilinear, a(x, y) = x^T A y.  ``TwistData`` is that matrix A, read
from the brackets of the predual basis: a flat orbit splits g as the predual
span plus the centre RZ, and in the 2-step case every bracket [P_a, P_b] is
c_ab Z, so A[a, b] = c_ab / 2.  A flat orbit with a bracket that has a predual
part (step > 2) gives a twist without a matrix, which every grid map refuses
with a ValueError.  A 2-dimensional flat-orbit predual
comes from a Heisenberg-type algebra: g/z is 2-dimensional, so g is 2-step
and the cocycle is skew.  The convolution takes exactly the d=2 twists whose
matrix has a zero diagonal.  The kernel phase is then c1 x0 y1 + c2 x1 y0
and the trapezoid sum is computed by FFT.  The polarized gauge (Folland,
Harmonic Analysis in Phase Space, ch. 1) rewrites it with u = x - y as

    c1 x0 y1 + c2 x1 y0 = c2 x0 x1 + c1 y0 y1 - c2 u0 u1 + (c1 - c2) u0 y1.

The first three terms are pointwise factors on the output, on b2 and on the
offset table of b1; the last depends on u0 and on the column y1 only.  So for
each y1 the y0-sum is a 1-d convolution along axis 0, and the sum over y1 is
taken on the spectra before one inverse FFT.  FFT length 2n is alias-free
for the kept output rows.  The three pointwise phase tables depend only on
the grid and the cocycle; they are computed once and reused while these stay
the same.

One call convolves b1 with several right operands b2 in one sweep of b1's
offset blocks: each modulated block is transformed once and multiplied into
the spectrum of every b2 that is nonzero in its column.  Terms that are
exactly zero are skipped: a column y1 where b2 vanishes adds nothing to that
b2's product, and neither does an output row whose offset rows fall outside
the support of b1, so each product is bit for bit the one a call with that
b2 alone gives.  The cost of a sweep is (columns where some b2 is nonzero) x
(output rows inside b1's offset support) FFTs of length 2n, at most n^2,
plus, for each b2, one FFT per column where it is nonzero and n inverse
FFTs, against O(n^4) per product for the plain double sum.  Under a twist
with c1 = c2, such as the zero twist, the modulation is exactly one and every
block is a row slice of one spectrum: the sweep makes at most 2n - 1 block
FFTs instead of n^2 (one untwisted Gaussian product at n = 128 takes 9-11 ms,
against 31-33 ms with one block FFT per column).

This FFT loop is the reference for the operator route of
``pedersen.HeisenbergRealization.convolve_each``, which takes the dense
products on grids that resolve the operator calculus.  The loop keeps the
sparse products, the grids that do not resolve the calculus, the twists the
realization does not realize, and every direct caller.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lie_core as lc
from . import orbits as ob
from .grids import Grid, GridMismatch, SampledSymbol, lattice_shift, offset_values
from .orbits import NotFlat


@dataclass(frozen=True)
class TwistData:
    """Float-level twist of a flat orbit: its cocycle matrix.

    With ``alpha_matrix`` = A the reduced product is x + y and the cocycle is
    x^T A y.  A twist whose reduced product is not additive has no matrix
    (``None``): every grid map refuses it with ``ValueError``.
    """

    dim: int
    alpha_matrix: np.ndarray | None  # None unless the reduced product is x + y

    def cocycle_matrix(self) -> np.ndarray:
        """A, or ``ValueError`` for a twist without a cocycle matrix."""
        if self.alpha_matrix is None:
            raise ValueError("grid work needs an abelian twist: reduced product "
                             "x + y and a bilinear cocycle (a 2-step flat orbit)")
        return self.alpha_matrix

    def alpha(self, X, Y) -> np.ndarray:
        """x^T A y over the last axis.  The nonzero entries are added with
        row a descending, then column b descending, the first term as it is:
        the term order of the cocycle polynomial, which the reports depend on
        bit for bit."""
        A = self.cocycle_matrix()
        X, Y = np.asarray(X, float), np.asarray(Y, float)
        acc = None
        for a in reversed(range(self.dim)):
            for b in reversed(range(self.dim)):
                if A[a, b]:
                    term = (A[a, b] * X[..., a]) * Y[..., b]
                    acc = term if acc is None else acc + term
        if acc is None:
            return np.zeros(np.broadcast(X[..., 0], Y[..., 0]).shape)
        return acc

    def combine(self, X, Y) -> np.ndarray:
        """The reduced product x + y."""
        self.cocycle_matrix()
        return np.asarray(X, float) + np.asarray(Y, float)


def from_orbit(orbit: ob.OrbitData) -> TwistData:
    """The cocycle matrix of a 2-step flat orbit, A[a, b] = c_ab / 2 where the
    bracket [P_a, P_b] of predual basis vectors splits as c_ab Z; ``None`` for
    a flat orbit with a bracket that has a predual part."""
    if not orbit.flat:
        raise NotFlat("twist data requires a flat orbit")
    d, P = orbit.d, orbit.predual_basis
    A = np.zeros((d, d))
    for a in range(d):
        for b in range(a + 1, d):
            coords, c = orbit.split(lc.bracket(orbit.algebra, P[a], P[b]))
            if any(coords):
                return TwistData(dim=d, alpha_matrix=None)
            A[a, b], A[b, a] = float(c / 2), float(-c / 2)
    return TwistData(dim=d, alpha_matrix=A)


def zero_twist(d: int) -> TwistData:
    """Untwisted structure: zero cocycle over an abelian predual."""
    return TwistData(dim=d, alpha_matrix=np.zeros((d, d)))


def _check_grids(b1: SampledSymbol, b2: SampledSymbol, d: int):
    if b1.grid.dim != d or b2.grid.dim != d:
        raise GridMismatch("symbol grid dimension does not match the twist")
    if not b1.grid.same_box(b2.grid):
        raise GridMismatch(
            f"symbols must share one grid, got L,N = {b1.grid.half_width:g},"
            f"{b1.grid.points} and {b2.grid.half_width:g},{b2.grid.points}")


def twisted_convolve(twist: TwistData, b1: SampledSymbol, b2s: Sequence[SampledSymbol],
                     density: float = 1.0) -> list[SampledSymbol]:
    """Trapezoid-rule twisted convolutions b1 * b2, one per b2 in b2s, on the
    common grid of b1 and the b2s.

    The products share one sweep of b1's offset blocks; each result is bit for
    bit the one that b2s = [b2] gives.  Needs a d=2 twist whose cocycle matrix
    has a zero diagonal (``ValueError`` otherwise), as every flat orbit with
    d=2 gives.
    """
    A = twist.cocycle_matrix()
    if not (twist.dim == 2 and A[0, 0] == 0.0 and A[1, 1] == 0.0):
        raise ValueError("twisted convolution needs a d=2 twist whose cocycle "
                         "matrix has a zero diagonal")
    b2s = list(b2s)
    for b2 in b2s:
        _check_grids(b1, b2, twist.dim)
    return [SampledSymbol(grid=b1.grid, values=v)
            for v in _convolve_fft_2d(twist, b1, b2s, density)]


@lru_cache(maxsize=1)
def _gauge_tables(grid: Grid, c1: float, c2: float):
    """The read-only phase tables of the polarized gauge:
    e^{-i c2 u0 u1} on the (2n-1)^2 offset grid, e^{i c1 y0 y1} and
    e^{i c2 x0 x1} on the nodes.  They depend on the grid and the cocycle only,
    and consecutive convolutions mostly share both."""
    u = grid.offset_axis
    ax = grid.axis
    tables = (np.exp(-1j * c2 * np.outer(u, u)), np.exp(1j * c1 * np.outer(ax, ax)),
              np.exp(1j * c2 * np.outer(ax, ax)))
    for table in tables:
        table.flags.writeable = False
    return tables


# The untwisted phases: every entry of the three tables is 1 + 0j, and a
# scalar 1 + 0j multiplies with the bits of such a table, signs of zeros
# included.  Not caching them leaves the one cache entry to a twisted cocycle.
_UNTWISTED_GAUGE = (1 + 0j, 1 + 0j, 1 + 0j)


def _convolve_fft_2d(twist: TwistData, b1: SampledSymbol, b2s: list[SampledSymbol],
                     density: float) -> list[np.ndarray]:
    """The d=2 path in the polarized gauge, one sweep for all of b2s.

    With c1 = A[0, 1], c2 = A[1, 0] the kernel phase is c1 x0 y1 + c2 x1 y0.
    Substituting u = x - y gives

        c1 x0 y1 + c2 x1 y0 = c2 x0 x1 + c1 y0 y1 - c2 u0 u1 + (c1 - c2) u0 y1,

    so out(x) = cell e^{i c2 x0 x1} sum_y D(x - y) B(y) e^{i (c1 - c2) u0 y1}
    with D = b1(u) e^{-i c2 u0 u1} on the (2n-1)^2 offset table and
    B = b2 e^{i c1 y0 y1}.  For a fixed column y1 the leftover phase depends
    on u0 only, so the y0-sum is a 1-d linear convolution of a modulated
    D-column block with B[:, y1], and the y1-sum is taken on the spectra
    before a single inverse FFT.  The linear convolution has indices
    0..3n-3 and only n-1..2n-2 are kept; with FFT length M = 2n their
    aliases sit at 3n-1 and beyond, so M = 2n is exact.

    The modulated block of a column y1 does not depend on b2, so it is
    transformed once and multiplied into the spectrum of every B with a
    nonzero entry in that column.  When c1 = c2 the modulation
    e^{i (c1 - c2) u0 y1} is 1 up to the sign of its zero imaginary part, so
    each block is D's offset rows x1 - y1 + n - 1, and its spectrum is that
    row slice of the spectrum of D's support rows, taken once per call.  The
    slice keeps the bits of the per-column FFT: numpy transforms the rows of
    a 2-d array one at a time, and D times the modulation differs from D
    only in the signs of zeros, which the accumulated spectra drop.

    Only the terms that can be nonzero are transformed: the columns y1 where
    some B has a nonzero entry, and in each of their blocks the rows x1 whose
    offset x1 - y1 lies in the bounding interval of D's nonzero rows.  The
    skipped terms are exact zeros and the accumulated spectra never hold a
    negative zero, so each result is the full sum bit for bit, whatever the
    other operands are.

    Cost: (columns y1 where some B is nonzero) x (output rows inside b1's
    offset support) forward FFTs of length 2n, at most n^2, or, when c1 = c2,
    the rows of D's support interval, at most 2n - 1; plus one for each
    nonzero column of each B and n inverse FFTs per B.  The sweep's tables
    are freed before the inverse FFTs, which run in place.  Arrays are held
    transposed, index [axis 1, axis 0], so every FFT runs along the
    contiguous last axis.  The gauge tables multiply from the left: numpy's
    complex multiply is not bitwise commutative.
    """
    grid = b1.grid
    n = grid.points
    # -0.0 + 0.0 is 0.0: the cache key does not tell the two zeros apart, so
    # neither does the table.
    c1 = float(twist.alpha_matrix[0, 1]) + 0.0
    c2 = float(twist.alpha_matrix[1, 0]) + 0.0
    gauge_u, gauge_y, gauge_x = (_UNTWISTED_GAUGE if c1 == c2 == 0.0
                                 else _gauge_tables(grid, c1, c2))
    specs = _spectra(b1, b2s, c1, c2, gauge_u, gauge_y)
    cell = density * grid.cell_volume
    for k, spec in enumerate(specs):
        np.fft.ifft(spec, axis=-1, out=spec)
        specs[k] = cell * gauge_x * spec[:, n - 1:2 * n - 1].T
    return specs


def _spectra(b1: SampledSymbol, b2s: list[SampledSymbol], c1: float, c2: float,
             gauge_u: np.ndarray | complex,
             gauge_y: np.ndarray | complex) -> list[np.ndarray]:
    """The sweep of ``_convolve_fft_2d``: the y1-summed spectra, [x1, freq],
    one per b2.  Its offset table, block buffers and operand columns are
    freed when it returns, before the inverse FFTs allocate."""
    grid = b1.grid
    n = grid.points
    ax = grid.axis
    # b1 at all lattice differences, offset m in [-(n-1), n-1] per axis; zero
    # where m*h is not a node.  The gauge table is symmetric, so the table is
    # built transposed and scaled in place.
    u = grid.offset_axis
    d_t = offset_values(b1.values.T, (0, 1))                                  # [u1, u0]
    np.multiply(gauge_u, d_t, out=d_t)
    b_ts = [(gauge_y * b2.values).T for b2 in b2s]                           # [y1, y0]
    nonzero = [b_t.any(axis=1) for b_t in b_ts]                               # per y1

    m_fft = 2 * n
    specs = [np.zeros((n, m_fft), dtype=complex) for _ in b2s]               # [x1, freq]
    support = np.flatnonzero(d_t.any(axis=1))      # offset rows where b1 is nonzero
    live = np.flatnonzero(np.any(nonzero, axis=0)) if support.size and b2s else []
    # Output buffers for the block FFTs and their products: blocks of varying
    # height, each allocated afresh, fragment the heap and raise the peak RSS.
    pbuf = np.empty((n, m_fft), dtype=complex)
    unmodulated = c1 == c2 and len(live) > 0
    if unmodulated:
        # Every block is a row slice of one spectrum of b1's offset rows,
        # taken over their support interval.
        top = support[0]
        spectrum = np.fft.fft(d_t[top:support[-1] + 1], n=m_fft, axis=-1)
    else:
        block = np.zeros((n, m_fft), dtype=complex)    # last column stays the zero pad
        fbuf = np.empty((n, m_fft), dtype=complex)
    for j in live:
        # Rows x1 whose offset row x1 - y1 + n - 1 lies in the support interval.
        lo = max(0, support[0] - (n - 1) + j)
        hi = min(n, support[-1] - (n - 1) + j + 1)
        if lo >= hi:
            continue
        if unmodulated:
            fblock = spectrum[lo + n - 1 - j - top:hi + n - 1 - j - top]
        else:
            # Columns x1 - y1, modulated by e^{i (c1 - c2) u0 y1}.
            np.multiply(d_t[lo + n - 1 - j:hi + n - 1 - j],
                        np.exp(1j * (c1 - c2) * ax[j] * u), out=block[lo:hi, :-1])
            fblock = np.fft.fft(block[lo:hi], axis=-1, out=fbuf[lo:hi])
        for b_t, live_k, spec in zip(b_ts, nonzero, specs):
            if live_k[j]:
                term = np.multiply(fblock, np.fft.fft(b_t[j], n=m_fft), out=pbuf[lo:hi])
                spec[lo:hi] += term
    return specs


def delta_action(twist: TwistData, phi: SampledSymbol, v) -> SampledSymbol:
    """Right action of the point mass at v:
    (phi * delta_v)(x) = exp(-i a(x, -v)) phi(x - v).

    Needs a twist with a cocycle matrix and a lattice vector v (``ValueError``
    otherwise); phi(x - v) is then phi's node values moved by v, zero where
    x - v leaves the grid."""
    grid = phi.grid
    if grid.dim != twist.dim:
        raise GridMismatch("grid dimension does not match the twist")
    v = np.asarray(v, dtype=float)
    if v.shape != (twist.dim,):
        raise ValueError(f"the shift needs {twist.dim} components, one per "
                         f"predual coordinate; got {v.size}")
    steps = grid.lattice_steps(v)
    if steps is None:
        raise ValueError(f"delta action needs a shift on the grid lattice, "
                         f"multiples of h = {grid.h:g}")
    nodes = grid.nodes()
    phase = np.exp(-1j * twist.alpha(nodes, -np.broadcast_to(v, nodes.shape)))
    values = phase.reshape(grid.shape) * lattice_shift(phi.values, steps)
    return SampledSymbol(grid=grid, values=values)
