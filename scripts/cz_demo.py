#!/usr/bin/env python3
"""Demo: twisted Calderon-Zygmund decomposition on the Heisenberg predual.

Decomposes a two-bump test function at three levels and prints the measured
covering/decomposition constants, the twisted mean-zero residuals, and the
empirical weak-(1,1) ratios of a compactly supported kernel.
"""

import numpy as np

from nilharm import catalog as cat, czdecomp as cz, funcs, orbits as ob, twist as tw
from nilharm.grids import Grid


def main():
    orbit = ob.standard_orbit(cat.heisenberg3())
    twist = tw.from_orbit(orbit)
    grid = Grid(2, 8.0, 128)
    pdist = cz.calibrate(cz.default_pseudo_distance(twist), twist, seed=0)
    print(f"gauge weights {pdist.weights}, quasi-triangle constant "
          f"{pdist.quasi_constant:.4f}, doubling {pdist.doubling_constant:.1f}")

    def two_bumps(pts):
        return (funcs.smooth_bump((-2.0, 1.0), 1.0, 6.0)(pts)
                + funcs.smooth_bump((2.5, -2.5), 2.0, 2.0)(pts))

    f = funcs.sample(grid, two_bumps)
    fmax = float(np.max(np.abs(f.values)))
    for frac in (0.4, 0.15, 0.05):
        level = frac * fmax
        result = cz.cz_decompose(f, level, pdist, twist)
        r = result.report
        print(f"level {level:8.4f}: {r['n_balls']:3d} balls, overlap {r['overlap']}, "
              f"C' {r['c_prime']:7.3f}, C'' {r['c_doubleprime']:6.3f}, "
              f"twisted mean-zero {r['mean_zero_max_residual']:.2e}")

    kernel = funcs.sample(grid, funcs.smooth_bump((0.5, 0.0), 1.2, 2.0))
    w11 = cz.weak11_ladder(twist, kernel, f)
    print("weak-(1,1) ratios per level:")
    for lv, ratio in w11["ratios"].items():
        print(f"  level {lv:9.5f}  ratio {ratio:.4f}")
    print(f"empirical A1 = {w11['empirical_a1']:.4f}, "
          f"stability factor {w11['stability_factor']:.2f}")


if __name__ == "__main__":
    main()
