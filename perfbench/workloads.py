"""Set-up, inputs and batteries of the benchmark workloads.

Importing this module imports numpy and nilharm, so the benchmark imports it
inside its timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from nilharm import (catalog, czdecomp, exactlinalg, funcs, grids, lie_core,
                     multipliers, orbits, pedersen, seeds, symplectic, twist,
                     verify)
from nilharm.grids import Grid
from nilharm.reports import FAIL, Report

HALF_WIDTH = 8.0
POINTS = 128
BUMPS = 40
BUMP_LEVELS = (0.05, 0.15, 0.4)


def algebra_key(L: lie_core.LieAlgebra) -> tuple:
    return (L.dim, L.entries)


@dataclass
class Context:
    """What set-up builds: catalog names, flat orbits, compiled twists, gauge."""

    algebra_names: dict
    orbits: dict
    twists: dict
    pdist: czdecomp.PseudoDistance


def setup() -> Context:
    algebras = catalog.core_algebras()
    flat = catalog.flat_orbits()
    twists = {name: twist.from_orbit(orbit) for name, orbit in flat.items()}
    h3 = twists["h3"]
    pdist = czdecomp.calibrate(czdecomp.default_pseudo_distance(h3), h3, seed=0)
    names = {algebra_key(L): name for name, L in algebras.items()}
    return Context(algebra_names=names, orbits=flat, twists=twists, pdist=pdist)


def cz_bumps(ctx: Context, seed: int) -> Report:
    """Decompose a seeded sum of narrow bumps at three levels.

    Many separated bumps make the greedy Vitali selection pick tens of balls,
    where the suite's own test functions give about one ball per cover.
    """
    gen = seeds.rng("perfbench.cz_bumps", seed)
    centers = gen.uniform(-6.5, 6.5, size=(BUMPS, 2))
    radii = gen.uniform(0.25, 0.6, size=BUMPS)
    heights = gen.uniform(0.5, 2.0, size=BUMPS)
    parts = [funcs.smooth_bump(tuple(c), r, h) for c, r, h in zip(centers, radii, heights)]
    grid = Grid(2, HALF_WIDTH, POINTS)
    f = funcs.sample(grid, lambda pts: sum(part(pts) for part in parts))
    fmax = float(np.max(np.abs(f.values)))
    rep = Report(command="bench cz-bumps", seed=seed)
    for li, frac in enumerate(BUMP_LEVELS):
        r = czdecomp.cz_decompose(f, frac * fmax, ctx.pdist, ctx.twists["h3"]).report
        rep.measure(f"n_balls[l{li}]", r["n_balls"])
        rep.check_bound(f"reconstruction_rel[l{li}]",
                        r["reconstruction_max_error"] / (1.0 + fmax), 1e-14)
        rep.check_bound(f"twisted_mean_zero_rel[l{li}]",
                        r["mean_zero_max_residual"] / r["f_l1"], 1e-12)
        rep.check_bound(f"bounded_overlap[l{li}]", float(r["overlap"]), 64.0)
        rep.measure(f"c_prime[l{li}]", r["c_prime"])
        rep.measure(f"c_doubleprime[l{li}]", r["c_doubleprime"])
    return rep


# Each workload is a list of (label, suite) pairs; a suite maps (ctx, seed)
# to a Report.
WORKLOADS = {
    "exact-algebra": [
        ("exact", lambda ctx, seed: verify.exact_suite(seed)),
        ("examples", lambda ctx, seed: verify.examples_suite(seed)),
    ],
    "operator-calculus": [
        ("twist", lambda ctx, seed: verify.twist_suite(seed, HALF_WIDTH, POINTS)),
        ("multiplier", lambda ctx, seed: verify.multiplier_suite(seed, HALF_WIDTH, POINTS)),
    ],
    "cz-toolbox": [
        ("cz", lambda ctx, seed: verify.cz_suite(seed, HALF_WIDTH, POINTS)),
        ("cz_bumps", cz_bumps),
    ],
}


@dataclass
class BatteryResult:
    seconds: float
    cpu_seconds: float
    reports: dict          # label -> Report.to_dict(), or None if the suite raised
    errors: dict           # label -> repr of the exception
    suite_seconds: list    # wall seconds of each suite, in order

    def digest(self) -> str:
        h = hashlib.sha256()
        for label, rep in self.reports.items():
            h.update(f"{label}:{json.dumps(rep, sort_keys=True)}\n".encode())
        return h.hexdigest()

    def tally(self, reference: dict) -> tuple[int, int]:
        """(attempted, failed) checks; a raised suite fails all its reference checks."""
        attempted = failed = 0
        for label, rep in self.reports.items():
            if rep is None:
                n = len(reference.get(label, {}).get("checks", ())) or 1
                attempted += n
                failed += n
            else:
                attempted += len(rep["checks"])
                failed += sum(c["status"] == FAIL for c in rep["checks"])
        return attempted, failed


def run_battery(workload: str, ctx: Context, seed: int, after_suite=None) -> BatteryResult:
    """Run every suite of the workload once; `after_suite()`, if given, runs
    after each suite, outside its timing."""
    reports, errors, wall = {}, {}, []
    cpu = 0.0
    for label, suite in WORKLOADS[workload]:
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            reports[label] = suite(ctx, seed).to_dict()
        except Exception as exc:  # a raising suite is a measured failure
            reports[label] = None
            errors[label] = repr(exc)
        wall.append(time.perf_counter() - start)
        cpu += time.process_time() - start_cpu
        if after_suite is not None:
            after_suite()
    return BatteryResult(sum(wall), cpu, reports, errors, wall)


def result_drift(reports: dict, reference: dict) -> float:
    """Largest deviation of a report value from the stored reference.

    A bound check's deviation is scaled by its reference tolerance, a
    measurement's by |reference|. Non-numeric values, statuses and the list of
    checks must match exactly; a mismatch is an infinite drift.
    """
    worst = 0.0
    for label, ref in reference.items():
        got = reports.get(label)
        if got is None or len(got["checks"]) != len(ref["checks"]):
            return math.inf
        for g, r in zip(got["checks"], ref["checks"]):
            if g["name"] != r["name"] or g["status"] != r["status"]:
                return math.inf
            worst = max(worst, _deviation(g["value"], r["value"], r["tolerance"]))
    return worst


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _deviation(value, ref, tolerance) -> float:
    if value == ref:
        return 0.0
    if not (_is_number(value) and _is_number(ref)):
        return math.inf
    scale = tolerance if _is_number(tolerance) and tolerance > 0 else abs(ref)
    return abs(value - ref) / scale if scale > 0 else math.inf


def probe(ctx: Context, seed: int) -> None:
    """One small call into every traced layer.

    Gives a measured time to the layers a workload never calls; the figures of
    the layers it does call come from the workload alone.
    """
    rnd = seeds.stream("perfbench.probe", seed)

    def vec(n):
        return seeds.random_fraction_vector(rnd, n, max_num=3, max_den=3)

    for L in catalog.core_algebras().values():
        x, y = vec(L.dim), vec(L.dim)
        lie_core.bch_product(L, x, y)
        lie_core.bracket(L, x, y)
    h3 = catalog.heisenberg3()
    lie_core.is_characteristically_nilpotent(lie_core.derivation_space(h3))
    L0, omega = symplectic.family_g0st(1, 1)
    symplectic.is_two_cocycle(L0, omega)
    symplectic.central_extension(L0, omega)
    m = [list(vec(3)) for _ in range(3)]
    exactlinalg.det(m)
    exactlinalg.rank(m)
    exactlinalg.nullspace(m)
    orbit = ctx.orbits["h3"]
    x, y, z = vec(orbit.d), vec(orbit.d), vec(orbit.d)
    orbits.alpha(orbit, x, y)
    orbits.product_and_alpha(orbit, x, y)
    orbits.verify_cocycle_identity(orbit, x, y, z)
    orbits.standard_orbit(h3)

    tw = ctx.twists["h3"]
    grid = Grid(2, HALF_WIDTH, 32)
    eng = pedersen.HeisenbergRealization(tw, grid)
    a, b = funcs.gaussian_family(grid, 2)
    eng.inverse(eng.transform(a).compose(eng.transform(b)))
    eng.identity_report([a], [(a, b)])
    twist.delta_action(tw, a, (1.0, 0.0))
    multipliers.multiplier_check(eng, b, [a], [a])
    multipliers.proj_p(multipliers.sharp_map(a, 8))
    grids.lp_norm(a, 2.0)
    bump = funcs.sample(grid, funcs.smooth_bump((0.0, 0.0), 1.5, 4.0))
    czdecomp.cz_decompose(bump, 1.0, ctx.pdist, tw)
    czdecomp.hormander_twist_estimate(
        funcs.truncated_power(3.0, 1.0, 5.0), ctx.pdist, tw,
        4.0 * ctx.pdist.quasi_constant, Grid(2, HALF_WIDTH, 16),
        u_grid=Grid(2, HALF_WIDTH, 8))
    czdecomp.weak11_empirical(tw, a, bump, [0.1])


def sweep(ctx: Context, seed: int, sizes) -> dict[str, float]:
    """Median ms of convolve, transform and inverse on one seeded
    Gaussian/Hermite pair per grid size."""
    gen = seeds.rng("perfbench.sweep", seed)
    center = tuple(gen.uniform(-1.0, 1.0, size=2))
    sigma = float(gen.uniform(0.8, 1.2))
    orders = tuple(int(k) for k in gen.integers(0, 3, size=2))
    out = {}
    for n in sizes:
        grid = Grid(2, HALF_WIDTH, n)
        eng = pedersen.HeisenbergRealization(ctx.twists["h3"], grid)
        a = funcs.sample(grid, funcs.gaussian(center, sigma))
        b = funcs.sample(grid, funcs.hermite_gaussian(orders))
        T = eng.transform(a)
        out[f"twist.twisted_convolve.n{n}.ms"] = _median_ms(lambda: eng.convolve(a, b))
        out[f"pedersen.HeisenbergRealization.transform.n{n}.ms"] = _median_ms(
            lambda: eng.transform(a))
        out[f"pedersen.HeisenbergRealization.inverse.n{n}.ms"] = _median_ms(
            lambda: eng.inverse(T))
    return out


def _median_ms(fn) -> float:
    """Median of up to 15 calls within 0.3 s, and at least one call."""
    times = []
    while not times or (sum(times) < 0.3 and len(times) < 15):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)
