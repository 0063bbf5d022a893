"""Uniform box grids, sampled complex symbols, and circle-extended grid functions.

Nodes along each axis are -L + h*k, k = 0..N-1 with h = 2L/N, so coordinate
differences of nodes land back on the node lattice and the node set is
symmetric under negation except for the single -L boundary layer.  Values are
stored C-contiguous with the last axis varying fastest.

Every lattice index rule lives here: the node m*h has index m + N/2, a node
difference m*h (|m_j| < N) has offset index m + N - 1, and a lattice shift
is an exact index displacement with zero fill.  The test functions and the
gauge form their radii per coordinate column with ``fold_axes``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridMismatch(Exception):
    pass


@dataclass(frozen=True)
class Grid:
    dim: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("grid dimension must be positive")
        if self.points < 8 or (self.points & (self.points - 1)) != 0:
            raise ValueError("points per axis must be a power of two, at least 8")
        if not (math.isfinite(self.half_width) and self.half_width > 0
                and math.isfinite(self.h)):
            raise ValueError("half width must be finite and positive")
        # h ** dim would raise OverflowError; a product of floats overflows to
        # inf, or underflows to 0.0.
        cell = math.prod([self.h] * self.dim)
        if not math.isfinite(cell):
            raise ValueError(f"the box L = {self.half_width:g}, N = {self.points} has a "
                             f"cell volume h^{self.dim} past the largest double")
        if cell == 0.0:
            raise ValueError(f"the box L = {self.half_width:g}, N = {self.points} has a "
                             f"cell volume h^{self.dim} that underflows to zero")
        # Squared norms of node offsets reach the squared diagonal dim*(2L)^2.
        side = 2.0 * self.half_width
        if not math.isfinite(self.dim * (side * side)):
            raise ValueError(f"the box L = {self.half_width:g}, N = {self.points} has a "
                             f"squared diagonal {self.dim}*(2L)^2 past the largest double")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def origin_index(self) -> tuple[int, ...]:
        return (self.points // 2,) * self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.points)

    def nodes(self) -> np.ndarray:
        """All nodes, shape (points**dim, dim), row-major order."""
        return _mesh_points(self.axis, self.dim)

    @cached_property
    def offset_axis(self) -> np.ndarray:
        """Node differences along one axis, m*h for m = -(N-1)..N-1."""
        return np.arange(-(self.points - 1), self.points) * self.h

    def offset_nodes(self) -> np.ndarray:
        """All node differences m*h, shape ((2N-1)**dim, dim), row-major order."""
        return _mesh_points(self.offset_axis, self.dim)

    def offset_window(self, u_grid: "Grid", u_index) -> tuple[slice, ...]:
        """Slices of the finer grid's offset table, ``fine.offset_nodes()``
        as a (2P-1,)*dim array with P = max(N_z, N_u), that hold z - u for
        every node z of this grid in row-major order, u the node of
        ``u_grid`` (same box) at ``u_index``: per axis the window starts at
        P - 1 - i_u P/N_u and steps by P/N_z."""
        p = max(self.points, u_grid.points)
        step, u_step = p // self.points, p // u_grid.points
        return tuple(slice(p - 1 - i * u_step, p - 1 - i * u_step + self.points * step, step)
                     for i in u_index)

    def lattice_steps(self, v) -> tuple[int, ...] | None:
        """The integer steps v / h of a lattice vector v, or None when some
        component is more than 1e-9 steps away from the lattice."""
        steps = np.atleast_1d(np.asarray(v, dtype=float)) / self.h
        nearest = np.round(steps)
        if not (np.all(np.isfinite(steps)) and np.all(np.abs(steps - nearest) <= 1e-9)):
            return None
        return tuple(int(s) for s in nearest)

    def axis_grid(self) -> "Grid":
        return Grid(dim=1, half_width=self.half_width, points=self.points)

    def same_box(self, other: "Grid") -> bool:
        return (self.half_width == other.half_width
                and self.points == other.points)


def _mesh_points(axis: np.ndarray, dim: int) -> np.ndarray:
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def fold_axes(ufunc, values) -> np.ndarray:
    """ufunc folded over the last axis of values, one coordinate column at a
    time in axis order, starting from +0.0.

    With np.add it is np.sum(values, axis=-1) bit for bit for fewer than 8
    columns: np.sum adds them in order from +0.0 too, so (-0.0) + (-0.0) is
    +0.0.  With np.maximum on nonnegative values it is np.max(values,
    axis=-1).  Whole-column arithmetic, in place in one output array,
    replaces numpy's reduction over the length-dim axis, which cost a test
    function about half its evaluation.
    """
    out = np.zeros(values.shape[:-1])
    for a in range(values.shape[-1]):
        ufunc(out, values[..., a], out=out)
    return out


def lattice_shift(values: np.ndarray, steps) -> np.ndarray:
    """values at index k - steps along the leading axes, zero where k - steps
    leaves the grid: the grid function moved by the lattice vector steps * h.
    A shift of N or more steps on an axis leaves only zeros."""
    values = np.asarray(values)
    out = np.zeros_like(values)
    dst, src = [], []
    for s, n in zip(steps, values.shape):
        s = max(-n, min(n, s))
        dst.append(slice(max(s, 0), n + min(s, 0)))
        src.append(slice(max(-s, 0), n - max(s, 0)))
    out[tuple(dst)] = values[tuple(src)]
    return out


def offset_values(values: np.ndarray, axes) -> np.ndarray:
    """values on the offset index of the given axes: entry m + N - 1 holds the
    value at the node m*h (node index m + N/2), zero where m*h is not a node."""
    values = np.asarray(values)
    shape = list(values.shape)
    sel = [slice(None)] * values.ndim
    for a in axes:
        n = values.shape[a]
        shape[a] = 2 * n - 1
        sel[a] = slice(n // 2 - 1, n // 2 - 1 + n)
    out = np.zeros(shape, dtype=values.dtype)
    out[tuple(sel)] = values
    return out


@dataclass(frozen=True, eq=False)
class SampledSymbol:
    """Complex grid function: its values at the nodes of one grid.

    A symbol equals and hashes as itself only, so it can key a mapping,
    such as the operators ``pedersen`` holds for the symbols a caller has
    transformed; two symbols with equal values are two keys."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("symbol values must be finite")
        object.__setattr__(self, "values", vals)

    def at_origin(self) -> complex:
        return complex(self.values[self.grid.origin_index])

    def __sub__(self, other: "SampledSymbol") -> "SampledSymbol":
        return SampledSymbol(self.grid, self.values - other.values)


def lp_norm(sym: SampledSymbol, p: float, density: float = 1.0) -> float:
    """Discrete L^p norm with measure density * (cell volume) per node."""
    cell = density * sym.grid.cell_volume
    if p == float("inf"):
        return float(np.max(np.abs(sym.values)))
    return float((cell * np.sum(np.abs(sym.values) ** p)) ** (1.0 / p))


def symbol_check_involution(sym: SampledSymbol) -> SampledSymbol:
    """The involution b -> conj(b(-x)).

    Node negation maps index k to N-k; the single -L boundary layer has no
    mirror node and is zero.
    """
    grid = sym.grid
    out = np.zeros_like(sym.values)
    inner = (slice(1, None),) * grid.dim
    rev = (slice(None, 0, -1),) * grid.dim
    out[inner] = np.conj(sym.values[rev])
    return SampledSymbol(grid=grid, values=out)


@dataclass(frozen=True)
class TorusGridFunction:
    """Function on (circle) x (box grid): K uniform angles, normalized measure.

    The values are per-angle slabs of shape grid.shape, in angle order.  slabs
    is a zero-argument callable that starts a fresh pass over them; a dense
    (angles,) + grid.shape array is one source (lambda: array), a generator
    that computes each slab on demand is another, so that a pass holds
    O(grid) memory rather than O(angles x grid).
    """

    grid: Grid
    angles: int
    slabs: Callable[[], Iterable[np.ndarray]]

    def __post_init__(self):
        if self.angles < 8:
            raise ValueError("need at least 8 angle samples")
        if not callable(self.slabs):
            raise TypeError("slabs must be a callable that starts a pass over them")

    def __iter__(self) -> Iterator[np.ndarray]:
        """One pass over the slabs as complex arrays, checking their shape and count."""
        count = 0
        for slab in self.slabs():
            slab = np.asarray(slab, dtype=complex)
            count += 1
            if slab.shape != self.grid.shape or count > self.angles:
                raise ValueError("torus values shape mismatch")
            yield slab
        if count != self.angles:
            raise ValueError("torus values shape mismatch")

    @cached_property
    def angle_samples(self) -> np.ndarray:
        return unit_circle_samples(self.angles)


def unit_circle_samples(angles: int) -> np.ndarray:
    """The uniform angle samples t_k = e^{2 pi i k / angles}, k = 0, ..., angles - 1."""
    return np.exp(2j * np.pi * np.arange(angles) / angles)


def _sum_by_halves(sums: list) -> float:
    """Pairwise sum, splitting at the middle: the order in which np.sum adds
    the slabs of a dense (angles,) + shape array when angles and the slab
    size are powers of two and a slab has more than 128 nodes."""
    if len(sums) == 1:
        return sums[0]
    mid = len(sums) // 2
    return _sum_by_halves(sums[:mid]) + _sum_by_halves(sums[mid:])


def torus_lp_norms(fun: TorusGridFunction, ps) -> list[float]:
    """The L^p norms of fun for each p in ps, from one pass over the slabs."""
    ps = list(ps)
    per_slab = []
    for slab in fun:
        mag = np.abs(slab)
        per_slab.append([np.max(mag) if p == float("inf") else np.sum(mag ** p)
                         for p in ps])
    cell = fun.grid.cell_volume / fun.angles
    norms = []
    for p, sums in zip(ps, zip(*per_slab)):
        if p == float("inf"):
            norms.append(float(np.max(sums)))
        else:
            norms.append(float((cell * _sum_by_halves(list(sums))) ** (1.0 / p)))
    return norms


def torus_sup_distance(f: TorusGridFunction, g: TorusGridFunction) -> float:
    """max over angles k of max |f_k - g_k|."""
    if f.grid != g.grid or f.angles != g.angles:
        raise GridMismatch("torus functions must share one grid and angle count")
    return float(np.max([np.max(np.abs(a - b)) for a, b in zip(f, g, strict=True)]))
