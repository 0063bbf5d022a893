#!/usr/bin/env python3
"""Benchmark of the nilharm engines: exact algebra, operator calculus, CZ toolbox.

    python3 perfbench/run.py --workload exact-algebra --seed 1 --seconds 25 --trace 0

Each workload runs in this one process as a closed loop with one client: the
next battery starts when the previous one has finished. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones, their times
scaled to nominal host speed (hostspeed.py); with --trace 1 they are the
per-layer ones from a traced battery. The line before it is a JSON record
of the machine and the run, which is also written, with the spans of a traced
run, to .bench_out/ at the root of the checkout.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()  # set-up time counts from here, before numpy loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0  # seed of the reports stored in reference.json
WORKLOAD_NAMES = ("exact-algebra", "operator-calculus", "cz-toolbox")
SETUP_CHILDREN = 5
# The timed loop runs at least MIN_REPS batteries, so that run_s is a mean
# even where one battery takes most of --seconds.
MIN_REPS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_frac": "frac",
    "result_agreement": "frac",
}

CATALOG = ("abelian4", "h3", "g0st_1_1", "triangle", "nonhomog",
           "ext_g0st_1_1", "ext_triangle", "ext_nonhomog")
FLAT_ORBITS = ("h3", "ext_g0st_1_1", "ext_triangle", "ext_nonhomog")
SWEEP_POINTS = (32, 64, 128, 256)
P50_MS = ("twist.twisted_convolve", "pedersen.HeisenbergRealization.transform",
          "pedersen.HeisenbergRealization.inverse")
OWN_PHASES = ("setup", "run")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    from spans import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for alg in CATALOG:
        units[f"lie_core.bch_product.{alg}.p50_us"] = "us"
    for orbit in FLAT_ORBITS:
        units[f"twist.from_orbit.{orbit}.s"] = "s"
    for name in P50_MS:
        units[f"{name}.p50_ms"] = "ms"
    units["czdecomp.cz_cover.balls"] = "count"
    for n in SWEEP_POINTS:
        units[f"twist.twisted_convolve.n{n}.ms"] = "ms"
        units[f"pedersen.HeisenbergRealization.transform.n{n}.ms"] = "ms"
        units[f"pedersen.HeisenbergRealization.inverse.n{n}.ms"] = "ms"
    units["process.cpu_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it")
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite reference.json from this checkout's program")
    args = p.parse_args(argv)
    if not (args.workload or args.setup_only or args.write_reference):
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nilharm" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: {SRC / 'nilharm'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if not Path(workloads.verify.__file__).resolve().is_relative_to(SRC):
        print(f"error: nilharm was imported from {workloads.verify.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        workloads.setup()
        print(time.perf_counter() - START)
        return 0
    if args.write_reference:
        return write_reference(workloads)
    if args.trace:
        return traced_run(workloads, args)
    return untraced_run(workloads, args)


def rep_seed(seed: int, k: int) -> int:
    """Seed of repetition k of the timed loop.

    Repetition 0 runs at the reference seed, so its reports give the drift.
    The others run at 1000 * seed + k: the cost of the exact suites depends on
    the sampled rationals, so one run averages over several input sets.
    """
    return REFERENCE_SEED if k == 0 else 1000 * seed + k


def untraced_run(workloads, args) -> int:
    from hostspeed import HostClock

    ctx = workloads.setup()
    clock = HostClock(args.workload)
    own_setup = time.perf_counter() - START
    setup_raw, setup_speed = [], [clock.sample()]
    for _ in range(SETUP_CHILDREN):
        setup_raw.append(child_setup_seconds())
        setup_speed.append(clock.sample())
    setup_scaled = [clock.scaled(s, a, b)
                    for s, a, b in zip(setup_raw, setup_speed, setup_speed[1:])]
    reference = load_reference()[args.workload]

    # speed[j] and speed[j + 1] are the kernel samples around suite j of the loop.
    speed = [clock.sample()]
    rep_seeds = []
    timed = []
    elapsed = []
    loop_start = time.perf_counter()
    while True:
        rep_seeds.append(rep_seed(args.seed, len(timed)))
        start = time.perf_counter()
        timed.append(workloads.run_battery(
            args.workload, ctx, rep_seeds[-1],
            after_suite=lambda: speed.append(clock.sample())))
        elapsed.append(time.perf_counter() - start)
        typical = statistics.median(elapsed)
        if (len(timed) >= MIN_REPS
                and time.perf_counter() - loop_start + typical > args.seconds):
            break
    suite_walls = [w for b in timed for w in b.suite_seconds]
    suite_scaled = [clock.scaled(w, a, b)
                    for w, a, b in zip(suite_walls, speed, speed[1:])]
    per_battery = len(timed[0].suite_seconds)
    battery_scaled = [sum(suite_scaled[i:i + per_battery])
                      for i in range(0, len(suite_scaled), per_battery)]
    drift = workloads.result_drift(timed[0].reports, reference)

    attempted = failed = 0
    for battery in timed:
        a, f = battery.tally(reference)
        attempted += a
        failed += f
    correct = failed == 0 and math.isfinite(drift)

    values = {
        "setup_s": statistics.median(setup_scaled),
        "run_s": statistics.mean(battery_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_pass_frac": 1.0 - failed / attempted,
        "result_agreement": 1.0 / (1.0 + drift),
    }
    record = {
        "own_setup_s": own_setup,
        "setup_wall_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "setup_speed_s": setup_speed,
        "run_wall_s": statistics.median(b.seconds for b in timed),
        "battery_s": [b.seconds for b in timed],
        "battery_scaled_s": battery_scaled,
        "speed_s": speed,
        "battery_cpu_s": [b.cpu_seconds for b in timed],
        "check_fail_frac": failed / attempted,
        "result_drift": drift,
        "rep_seeds": rep_seeds,
        "errors": {k: v for b in timed for k, v in b.errors.items()},
    }
    emit(args, correct, attempted, failed, values, END_TO_END, record)
    return 0


def traced_run(workloads, args) -> int:
    import spans

    tracer = spans.Tracer()
    algebra = workloads.algebra_key
    tracer.install(
        cases={"lie_core.bch_product": lambda a: algebra(a[0]),
               "twist.from_orbit": lambda a: algebra(a[0].algebra)},
        counters={"czdecomp.cz_cover": lambda cover: len(cover.balls)})
    try:
        tracer.phase = "setup"
        ctx = workloads.setup()
        tracer.phase = None
        untraced = workloads.run_battery(args.workload, ctx, args.seed)
        tracer.phase = "run"
        traced = workloads.run_battery(args.workload, ctx, args.seed)
        tracer.phase = "probe"
        workloads.probe(ctx, args.seed)
        tracer.phase = None
    finally:
        tracer.uninstall()
    sweep_ms = workloads.sweep(ctx, args.seed, SWEEP_POINTS)

    reference = load_reference()[args.workload]
    attempted = failed = 0
    for battery in (untraced, traced):
        a, f = battery.tally(reference)
        attempted += a
        failed += f
    drift = (workloads.result_drift(traced.reports, reference)
             if args.seed == REFERENCE_SEED else None)
    same = untraced.digest() == traced.digest()
    correct = failed == 0 and same and (drift is None or math.isfinite(drift))

    values = layer_values(tracer, ctx)
    values.update(sweep_ms)
    values["process.cpu_s"] = untraced.cpu_seconds
    values["trace.overhead_s"] = traced.seconds - untraced.seconds
    units = per_layer_units()
    record = {
        "untraced_s": untraced.seconds,
        "traced_s": traced.seconds,
        "untraced_digest": untraced.digest(),
        "traced_digest": traced.digest(),
        "check_fail_frac": failed / attempted,
        "result_drift": drift,
        "spans": len(tracer.spans),
        "errors": {**untraced.errors, **traced.errors},
    }
    names = ctx.algebra_names
    spans_out = [[s[0], names.get(s[1], s[1] and "other"), *s[2:]] for s in tracer.spans]
    emit(args, correct, attempted, failed, values, units, record, spans_out)
    return 0


def layer_values(tracer, ctx) -> dict:
    """Per-layer figures from the workload's own set-up and battery.

    `calls` always counts the workload's own calls. A layer the workload never
    calls takes its time figures from the probe phase instead, so that every
    time figure is measured.
    """
    from spans import SPAN_NAMES

    own = tracer.summary(OWN_PHASES)
    probe = tracer.summary(("probe",))
    keys = {name: key for key, name in ctx.algebra_names.items()}
    empty = {"calls": 0, "self_s": 0.0, "p50_s": 0.0}

    def stats(name, case=None):
        return own.get((name, case)) or probe.get((name, case), empty)

    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = own.get((name, None), empty)["calls"]
        values[f"{name}.self_s"] = stats(name)["self_s"]
    for alg in CATALOG:
        values[f"lie_core.bch_product.{alg}.p50_us"] = (
            1e6 * stats("lie_core.bch_product", keys[alg])["p50_s"])
    for orbit in FLAT_ORBITS:
        values[f"twist.from_orbit.{orbit}.s"] = stats("twist.from_orbit", keys[orbit])["p50_s"]
    for name in P50_MS:
        values[f"{name}.p50_ms"] = 1e3 * stats(name)["p50_s"]
    values["czdecomp.cz_cover.balls"] = tracer.count("czdecomp.cz_cover", OWN_PHASES)
    return values


def emit(args, correct, attempted, failed, values, units, record, spans=None) -> None:
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), **record}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "metrics": values, "spans": spans}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def child_setup_seconds() -> float:
    """One set-up timed in a fresh interpreter, so imports count every time."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only"],
                          capture_output=True, text=True, check=True, timeout=170)
    return float(done.stdout.split()[-1])


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["workloads"]


def write_reference(workloads) -> int:
    ctx = workloads.setup()
    out = {}
    for name in WORKLOAD_NAMES:
        battery = workloads.run_battery(name, ctx, REFERENCE_SEED)
        attempted, failed = battery.tally({})
        if failed:
            print(f"error: {name} fails {failed} of {attempted} checks "
                  f"{battery.errors}", file=sys.stderr)
            return 1
        out[name] = battery.reports
    REFERENCE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "workloads": out}, indent=1, sort_keys=True) + "\n")
    return 0


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _source_digest() -> str:
    """Digest of the program's sources, which identifies a checkout without .git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(f"{path.relative_to(SRC)}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly: a checkout without one
    must not pick up the commit of an enclosing repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
