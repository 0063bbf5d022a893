"""Self-tests of the benchmark: metric names, span coverage, trace neutrality,
correctness at the reference seed and failure without the program.

Most tests run the benchmark in a process of its own; the file takes two to
three minutes:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECOND_SEED = 7

# Per-layer metrics that each workload must exercise itself. A span name is
# covered when its `.calls` metric is positive; any other name, or every name
# a pattern matches, must have a positive value.
COVERAGE = {
    "exact-algebra": [
        "lie_core.bch_product", "lie_core.bracket", "orbits.alpha",
        "orbits.product_and_alpha", "orbits.verify_cocycle_identity",
        "orbits.standard_orbit", "catalog.flat_orbits", "twist.from_orbit",
        "lie_core.derivation_space", "lie_core.is_characteristically_nilpotent",
        "symplectic.is_two_cocycle", "symplectic.central_extension",
        "exactlinalg.det", "exactlinalg.rank", "exactlinalg.nullspace",
        "lie_core.bch_product.*.p50_us", "twist.from_orbit.*.s",
    ],
    "operator-calculus": [
        "twist.twisted_convolve", "twist.delta_action",
        "pedersen.HeisenbergRealization.__init__",
        "pedersen.HeisenbergRealization.transform",
        "pedersen.HeisenbergRealization.inverse",
        "pedersen.HeisenbergRealization.identity_report",
        "pedersen.DiscretizedOperator.compose",
        "multipliers.multiplier_check", "multipliers.sharp_map",
        "multipliers.flat_map", "multipliers.proj_p", "grids.lp_norm",
        "funcs.sample", "catalog.flat_orbits", "*.n*.ms",
    ],
    "cz-toolbox": [
        "twist.twisted_convolve", "twist.TwistData.combine", "twist.TwistData.alpha",
        "czdecomp.calibrate", "czdecomp.cz_cover", "czdecomp.cz_decompose",
        "czdecomp.hormander_twist_estimate", "czdecomp.weak11_empirical",
        "czdecomp.cz_cover.balls", "catalog.flat_orbits",
    ],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(COVERAGE) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_covers_its_layers(workload):
    record, result = parse(bench("--workload", workload, "--seed", str(SECOND_SEED),
                                 "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert record["traced_digest"] == record["untraced_digest"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(run.per_layer_units())
    assert "trace.overhead_s" in metrics and metrics["process.cpu_s"] > 0
    for prefix in COVERAGE[workload]:
        if "*" in prefix:
            hits = fnmatch.filter(metrics, prefix)
            assert hits, prefix
            assert all(metrics[k] > 0 for k in hits), {k: metrics[k] for k in hits}
        elif f"{prefix}.calls" in metrics:
            assert metrics[f"{prefix}.calls"] > 0, prefix
        else:
            assert metrics[prefix] > 0, prefix


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_reference_seed_has_no_failures_and_no_drift(workload):
    record, result = parse(bench("--workload", workload, "--seed", "0",
                                 "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert record["check_fail_frac"] == 0.0 and record["result_drift"] == 0.0
    metrics = {k: v for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert metrics["check_pass_frac"]["value"] == 1.0
    assert metrics["result_agreement"]["value"] == 1.0
    assert all(v["value"] > 0 for v in metrics.values())


def test_result_drift_scales_by_tolerance_or_reference():
    import math

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ref = {"s": {"checks": [
        {"name": "b", "status": "pass", "value": 1e-9, "tolerance": 1e-3},
        {"name": "m", "status": "measured", "value": 2.0, "tolerance": None}]}}
    got = json.loads(json.dumps(ref))
    assert workloads.result_drift(got, ref) == 0.0
    got["s"]["checks"][0]["value"] = 1e-9 + 1e-5
    assert workloads.result_drift(got, ref) == pytest.approx(1e-2)
    got["s"]["checks"][1]["value"] = 2.5
    assert workloads.result_drift(got, ref) == pytest.approx(0.25)
    got["s"]["checks"][1]["status"] = "fail"
    assert workloads.result_drift(got, ref) == math.inf


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_host_speed_scaling(workload):
    from hostspeed import HostClock

    clock = HostClock(workload)
    n = clock.nominal
    assert clock.scaled(4.0, n, n) == pytest.approx(4.0)
    assert clock.scaled(6.0, 1.4 * n, 1.6 * n) == pytest.approx(4.0)
    assert clock.sample() > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "exact-algebra", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
