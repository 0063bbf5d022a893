"""Command-line front-end.

Exit codes: 0 all checks pass, 1 check failure, 2 usage error, 3 I/O error.
Reports are byte-identical for identical (inputs, flags, seed, version);
--timings adds a "runtime" field to every check, null until checks are timed.
"""

from __future__ import annotations

import argparse
import json
import sys
import numpy as np

from . import catalog as cat
from . import czdecomp as cz
from . import fileio
from . import funcs
from . import lie_core as lc
from . import orbits as ob
from . import pedersen as pe
from . import symplectic as sp
from . import twist as tw
from . import verify
from .grids import Grid, GridMismatch, SampledSymbol, lp_norm
from .rationals import parse_rational, parse_vector
from .reports import Report
from .seeds import master_seed


def _load_algebra_arg(ref: str) -> lc.LieAlgebra:
    """A path to an algebra JSON file, or a built-in catalog name."""
    import os
    if os.path.exists(ref):
        return fileio.load_algebra(ref)
    try:
        return cat.get_algebra(ref)
    except KeyError:
        raise FileNotFoundError(f"no such file or catalog entry: {ref}")


def _orbit_arg(algebra: str, xi0: str | None) -> ob.OrbitData:
    """The orbit of --xi0 under the Jordan-Holder flag, else the standard orbit."""
    L = _load_algebra_arg(algebra)
    if xi0 is None:
        return ob.standard_orbit(L)
    return ob.jump_indices(L, lc.jordan_holder_flag(L),
                           ob.Functional(parse_vector(xi0)))


def _parse_grid(text: str) -> Grid:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--grid needs L,N (a half width and a point count), got {text!r}")
    return Grid(2, float(parts[0]), int(parts[1]))


def _symbol_arg(args, opt: str, grid: Grid, default) -> SampledSymbol:
    """The symbol file of --symbol or --symbol2, which must lie on --grid;
    without one, ``default`` sampled on the grid."""
    if getattr(args, opt) is None:
        return funcs.sample(grid, default)
    sym = fileio.load_symbol(getattr(args, opt))
    if sym.grid != grid:
        raise GridMismatch(f"--{opt} and --grid must share one grid; got d,L,N = " + " and ".join(
            f"{g.dim},{g.half_width:g},{g.points}" for g in (sym.grid, grid)))
    return sym


def _emit(report: Report, args) -> int:
    sys.stdout.write(report.to_json(timings=args.timings))
    return report.exit_code


# The options that each twist and cz action reads.  Any other option of the
# command would be ignored, so a value other than its default is refused; a
# read option other than its default is named in the report's command.
READS = {
    "twist": {
        "conv": ("catalog", "grid", "symbol", "symbol2", "out"),
        "delta": ("catalog", "grid", "symbol", "v", "out"),
        "pedersen": ("catalog", "grid", "symbol"),
        "verify": ("grid",),
    },
    "cz": {
        "cover": ("algebra", "xi0", "grid", "alpha", "symbol"),
        "decompose": ("algebra", "xi0", "grid", "alpha", "symbol"),
        "kernel-check": ("algebra", "xi0", "grid", "c2"),
        "weak11": ("algebra", "xi0", "grid", "symbol"),
        "multiplier": ("grid",),
    },
}
H3_SUITES = {("twist", "verify"), ("cz", "multiplier")}


def _read_options(parser: argparse.ArgumentParser, args) -> str:
    """The report command of a twist or cz action: its name, --grid, then each
    other option it reads that is not at its default, in READS order.  Raise
    ValueError on an option that it does not read, given a value other than
    its default; the bare command's namespace holds every default."""
    reads = READS[args.command][args.action]
    defaults = vars(parser.parse_args([args.command, args.action]))
    for opt, default in defaults.items():
        if opt not in reads and getattr(args, opt) != default:
            why = ("runs the h3 suite only" if (args.command, args.action) in H3_SUITES
                   else f"does not read --{opt}")
            raise ValueError(f"{args.command} {args.action} {why}; "
                             f"got --{opt} {getattr(args, opt)}")
    return " ".join([args.command, args.action, "--grid", args.grid]
                    + [f"--{opt} {getattr(args, opt)}" for opt in reads
                       if opt != "grid" and getattr(args, opt) != defaults[opt]])


def _h3_suite(suite, args) -> int:
    """Run a verify suite, which is fixed to h3, on --grid."""
    grid = _parse_grid(args.grid)
    rep = suite(master_seed(args.seed), half_width=grid.half_width, points=grid.points)
    rep.command = args.report_command
    return _emit(rep, args)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_algebra(args) -> int:
    seed = master_seed(args.seed)
    rep = Report(command=f"algebra {args.action} {args.file}", seed=seed)
    L = _load_algebra_arg(args.file)
    rep.data["dim"] = L.dim
    rep.data["labels"] = list(L.labels)
    if args.action == "validate":
        rep.check_true("jacobi_and_nilpotency", True)
        rep.measure("step", L.step)
    elif args.action == "series":
        rep.measure("step", L.step)
        rep.measure("series_dims", list(L.series_dims))
        center = lc.center(L)
        rep.measure("center_dim", len(center))
        rep.data["center"] = center
    elif args.action == "flag":
        flag = lc.jordan_holder_flag(L)    # FlagSequence raises on a violation
        rep.check_true("flag_invariants", True)
        rep.data["flag"] = flag.vectors
    elif args.action == "derivations":
        ders = lc.derivation_space(L)
        rep.measure("derivation_dim", len(ders.basis))
        rep.data["basis"] = ders.basis
    elif args.action == "charnilp":
        cert = lc.is_characteristically_nilpotent(lc.derivation_space(L))
        rep.check_true("characteristically_nilpotent", cert.success,
                       value="SUCCESS" if cert.success else
                       f"FAILURE at stage {cert.failed_stage}")
        if cert.flag:
            rep.data["engel_flag"] = cert.flag
    return _emit(rep, args)


def cmd_extend(args) -> int:
    seed = master_seed(args.seed)
    rep = Report(command=f"extend {args.algebra} {args.form}", seed=seed)
    L0 = _load_algebra_arg(args.algebra)
    omega = fileio.load_form(args.form)
    ext = sp.central_extension(L0, omega)
    rep.check_true("cocycle", True)
    rep.measure("extended_dim", ext.dim)
    rep.measure("extended_step", ext.step)
    rep.measure("center_dim", len(lc.center(ext)))
    rep.data["algebra"] = fileio.algebra_to_dict(ext)
    return _emit(rep, args)


def cmd_graph_lie(args) -> int:
    seed = master_seed(args.seed)
    rep = Report(command=f"graph-lie {args.graph}", seed=seed)
    graph = fileio.load_graph(args.graph)
    L = sp.graph_lie_algebra(graph)
    rep.measure("dim", L.dim)
    rep.check_true("validates", True)
    rep.measure("symplectic_exists", sp.symplectic_exists_graph(graph))
    rep.data["algebra"] = fileio.algebra_to_dict(L)
    return _emit(rep, args)


def cmd_catalog(args) -> int:
    seed = master_seed(args.seed)
    rep = Report(command=f"catalog {args.name}", seed=seed)
    params = {}
    if args.s is not None:
        params["s"] = parse_rational(args.s)
    if args.t is not None:
        params["t"] = parse_rational(args.t)
    if args.a is not None:
        params["a"] = parse_rational(args.a)
    if args.b is not None:
        params["b"] = parse_rational(args.b)
    if args.n is not None:
        params["n"] = args.n
    # g0st_1_1 is g0st(1, 1); no other catalog entry is defined by a 2-form.
    if args.check == "cocycle" and args.name.lower() not in ("g0st", "g0st_1_1"):
        raise ValueError(f"--check cocycle needs an algebra with a defining "
                         f"2-form (g0st, g0st_1_1); {args.name} has none")
    L = cat.get_algebra(args.name, **params)
    rep.measure("dim", L.dim)
    rep.measure("step", L.step)
    rep.measure("center_dim", len(lc.center(L)))
    rep.data["algebra"] = fileio.algebra_to_dict(L)
    if args.check == "charnilp":
        cert = lc.is_characteristically_nilpotent(lc.derivation_space(L))
        rep.check_true("characteristically_nilpotent", cert.success)
    elif args.check == "cocycle":
        L0, omega = cat.g0st(params.get("s", 1), params.get("t", 1))
        ok, triple = sp.is_two_cocycle(L0, omega)
        rep.check_true("two_cocycle", ok, value=triple)
        rep.check_true("nondegenerate", omega.is_nondegenerate())
    return _emit(rep, args)


def cmd_orbit(args) -> int:
    seed = master_seed(args.seed)
    rep = Report(command=f"orbit {args.algebra}"
                 + (f" --xi0 {args.xi0}" if args.xi0 is not None else ""), seed=seed)
    orbit = _orbit_arg(args.algebra, args.xi0)
    rep.measure("jump_set", list(orbit.jump_set))
    rep.measure("orbit_dim", orbit.d)
    rep.measure("flat", orbit.flat)
    rep.data["isotropy_basis"] = orbit.isotropy_basis
    rep.data["xi0"] = orbit.xi0.coords
    return _emit(rep, args)


def _twist_engine(args) -> pe.HeisenbergRealization:
    orbit = ob.standard_orbit(_load_algebra_arg(args.catalog))
    twist = tw.from_orbit(orbit)
    return pe.HeisenbergRealization(twist, _parse_grid(args.grid))


def cmd_twist(args) -> int:
    if args.action == "verify":
        return _h3_suite(verify.twist_suite, args)
    seed = master_seed(args.seed)
    eng = _twist_engine(args)
    grid = eng.symbol_grid
    rep = Report(command=args.report_command, seed=seed)
    rep.measure("density", eng.density)
    a = _symbol_arg(args, "symbol", grid, funcs.gaussian((0.5, -0.3), 1.0, (0.4, 0.1)))
    if args.action == "conv":
        b = _symbol_arg(args, "symbol2", grid, funcs.gaussian((-0.2, 0.8), 0.9))
        out = eng.convolve(a, b)
        rep.measure("output_l2", eng.symbol_norm(out))
        # A zero input norm divides by 1, as in identity_report.
        scale = eng.symbol_norm(a) * eng.symbol_norm(b)
        rep.check_bound("l2_submultiplicativity_slack",
                        eng.symbol_norm(out) / (scale if scale > 0 else 1.0),
                        verify.TOLERANCES["l2_submultiplicativity_slack"])
        if args.out is not None:
            with open(args.out, "w") as fh:
                json.dump(fileio.symbol_to_dict(out), fh)
    elif args.action == "delta":
        v = tuple(float(x) for x in args.v.split(","))
        out = tw.delta_action(eng.twist, a, v)
        rep.measure("output_l2", eng.symbol_norm(out))
        # |out| - |a| relative to |a|; a zero input norm divides by 1.
        norm_a = lp_norm(a, 2)
        rep.check_bound("norm_preservation",
                        abs(lp_norm(out, 2) / norm_a - 1.0) if norm_a > 0
                        else lp_norm(out, 2),
                        verify.TOLERANCES["delta_action_norm_preservation"])
        if args.out is not None:
            with open(args.out, "w") as fh:
                json.dump(fileio.symbol_to_dict(out), fh)
    elif args.action == "pedersen":
        idrep = eng.identity_report([a], [])
        rep.check_bound("trace_identity", idrep["trace"][0],
                        verify.TOLERANCES["trace_identity"])
        rep.check_bound("hs_isometry_rel", idrep["hs_isometry"][0],
                        verify.grid_bound("hs_isometry_rel", grid.points))
        rep.check_bound("inversion_roundtrip_rel", idrep["inversion"][0],
                        verify.TOLERANCES["inversion_roundtrip_rel"])
    return _emit(rep, args)


def cmd_cz(args) -> int:
    if args.action == "multiplier":
        return _h3_suite(verify.multiplier_suite, args)
    seed = master_seed(args.seed)
    twist = tw.from_orbit(_orbit_arg(args.algebra, args.xi0))
    if twist.dim != 2:
        raise pe.DimensionNot2(f"cz {args.action} needs a 2-dimensional orbit "
                               f"predual; {args.algebra} gives dimension {twist.dim}")
    grid = _parse_grid(args.grid)
    pdist = cz.calibrate(cz.default_pseudo_distance(twist), twist, seed=seed)
    rep = Report(command=args.report_command, seed=seed)
    rep.measure("quasi_triangle_constant", pdist.quasi_constant)
    rep.measure("doubling_constant", pdist.doubling_constant)
    if args.action != "kernel-check":
        f = _symbol_arg(args, "symbol", grid, funcs.smooth_bump((0.0, 0.0), 1.5, 4.0))
    if args.action in ("cover", "decompose"):
        level = (float(args.alpha) if args.alpha is not None
                 else 0.1 * float(np.max(np.abs(f.values))))
    if args.action == "cover":
        covering = cz.cz_cover(f, level, pdist)
        rep.measure("n_balls", len(covering.balls))
        rep.measure("c_prime", covering.c_prime)
        rep.measure("overlap", covering.overlap)
        rep.data["balls"] = [
            {"center": list(center), "radius": radius}
            for _, center, radius in covering.balls]
    elif args.action == "decompose":
        result = cz.cz_decompose(f, level, pdist, twist)
        for key, val in sorted(result.report.items()):
            rep.measure(key, val)
        rep.check_bound("twisted_mean_zero_rel",
                        result.report["mean_zero_max_residual"]
                        / max(result.report["f_l1"], 1e-300),
                        verify.TOLERANCES["twisted_mean_zero_rel"])
    elif args.action == "kernel-check":
        k_eval = funcs.truncated_power(3.0, 1.0, 5.0)
        c2 = float(args.c2) if args.c2 is not None else 4.0 * pdist.quasi_constant
        est = cz.hormander_twist_estimate(k_eval, pdist, twist, c2, grid,
                                          u_grid=Grid(2, grid.half_width, 32))
        rep.measure("hormander_estimate", est["estimate"])
        rep.measure("c2", est["c2"])
        rep.check_true("finite", np.isfinite(est["estimate"]))
    elif args.action == "weak11":
        kernel = funcs.sample(grid, funcs.smooth_bump((0.5, 0.0), 1.2, 2.0))
        w11 = cz.weak11_ladder(twist, kernel, f)
        rep.measure("empirical_a1", w11["empirical_a1"])
        rep.check_bound("stability_factor", w11["stability_factor"],
                        verify.TOLERANCES["weak11_stability_factor"])
    return _emit(rep, args)


def cmd_report(args) -> int:
    seed = master_seed(args.seed)
    rep = verify.full_report(seed, quick=args.quick)
    return _emit(rep, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="master seed (default: NILHARM_SEED or 0)")
    common.add_argument("--timings", action="store_true",
                        default=argparse.SUPPRESS,
                        help="add a runtime field to every check (null for now)")
    top = argparse.ArgumentParser(
        prog="nilharm",
        parents=[common],
        description="Exact nilpotent Lie algebra computations, orbit cocycles, "
                    "twisted convolution operator calculus, and twisted "
                    "Calderon-Zygmund verification.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("algebra", help="validate and analyze an algebra file")
    p.add_argument("action", choices=["validate", "series", "flag",
                                      "derivations", "charnilp"])
    p.add_argument("file")
    p.set_defaults(func=cmd_algebra)

    p = add_parser("extend", help="1-dimensional central extension")
    p.add_argument("algebra")
    p.add_argument("form")
    p.set_defaults(func=cmd_extend)

    p = add_parser("graph-lie", help="Lie algebra of a simple graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_graph_lie)

    p = add_parser("catalog", help="built-in example algebras")
    p.add_argument("name")
    p.add_argument("--s", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--check", choices=["charnilp", "cocycle"], default=None)
    p.set_defaults(func=cmd_catalog)

    p = add_parser("orbit", help="jump indices and flatness for a functional")
    p.add_argument("--algebra", required=True)
    p.add_argument("--xi0", default=None,
                   help="comma-separated rational coordinates in the dual basis")
    p.set_defaults(func=cmd_orbit)

    p = add_parser("twist", help="twisted convolution and operator transform")
    p.add_argument("action", choices=["conv", "delta", "pedersen", "verify"])
    p.add_argument("--catalog", default="h3")
    p.add_argument("--grid", default="8,128", help="L,N")
    p.add_argument("--symbol", default=None)
    p.add_argument("--symbol2", default=None)
    p.add_argument("--v", default="1,0", help="shift vector for delta")
    p.add_argument("--out", default=None, help="write the output symbol here")
    p.set_defaults(func=cmd_twist)

    p = add_parser("cz", help="twisted Calderon-Zygmund toolbox")
    p.add_argument("action", choices=["cover", "decompose", "kernel-check",
                                      "weak11", "multiplier"])
    p.add_argument("--algebra", default="h3",
                   help="algebra file or catalog name with a flat orbit")
    p.add_argument("--xi0", default=None,
                   help="comma-separated rational functional coordinates")
    p.add_argument("--grid", default="8,128", help="L,N")
    p.add_argument("--alpha", default=None, help="decomposition level")
    p.add_argument("--symbol", default=None)
    p.add_argument("--c2", default=None)
    p.set_defaults(func=cmd_cz)

    p = add_parser("report", help="run the full verification battery")
    p.add_argument("--quick", action="store_true",
                   help="small grids (N=32) for the grid suites")
    p.set_defaults(func=cmd_report)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.seed = getattr(args, "seed", None)
    args.timings = getattr(args, "timings", False)
    try:
        if args.command in READS:
            args.report_command = _read_options(parser, args)
        return args.func(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError,
            json.JSONDecodeError) as exc:
        print(f"nilharm: i/o error: {exc}", file=sys.stderr)
        return 3
    except (lc.JacobiViolation, lc.NotNilpotent) as exc:
        rep = Report(command=args.command, seed=master_seed(args.seed))
        rep.check_true("validates", False, value=str(exc))
        sys.stdout.write(rep.to_json(timings=args.timings))
        return 1
    except (ValueError, KeyError, sp.NotACocycle, sp.ZeroParameter,
            ob.PairingNotOne, ob.NotFlat, pe.DimensionNot2, GridMismatch,
            cz.AlphaNonPositive, cz.C2TooSmall) as exc:
        print(f"nilharm: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"nilharm: error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
