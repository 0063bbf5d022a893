"""Report determinism, seed streams, and seed-independence of exact facts."""

import json
from fractions import Fraction

from nilharm import seeds, verify
from nilharm.reports import Report


def test_report_json_is_canonical_and_stable():
    rep = Report(command="demo", seed=0)
    rep.check_bound("residual", 0.5, 1.0)
    rep.measure("constant", 4.0)
    rep.data["values"] = {"b": Fraction(1, 3), "a": [1.5, 2]}
    assert rep.to_json() == rep.to_json()
    doc = json.loads(rep.to_json())
    assert doc["checks"][0]["status"] == "pass"
    assert doc["data"]["values"]["b"] == "1/3"
    assert "runtime" not in doc["checks"][0]


def test_timings_flag_adds_runtime_field():
    rep = Report(command="demo", seed=0)
    rep.check_bound("residual", 0.5, 1.0, runtime=0.01)
    doc = json.loads(rep.to_json(timings=True))
    assert doc["checks"][0]["runtime"] == 0.01


def test_exit_code_contract():
    rep = Report(command="demo", seed=0)
    rep.check_bound("ok", 0.0, 1.0)
    assert rep.exit_code == 0
    rep.check_bound("bad", 2.0, 1.0)
    assert rep.exit_code == 1


def test_streams_are_named_and_deterministic():
    a = seeds.stream("alpha", 7)
    b = seeds.stream("alpha", 7)
    c = seeds.stream("beta", 7)
    seq_a = [a.randint(0, 10 ** 6) for _ in range(5)]
    seq_b = [b.randint(0, 10 ** 6) for _ in range(5)]
    seq_c = [c.randint(0, 10 ** 6) for _ in range(5)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_numpy_streams_deterministic():
    import numpy as np
    x = seeds.rng("gamma", 3).standard_normal(4)
    y = seeds.rng("gamma", 3).standard_normal(4)
    assert np.array_equal(x, y)


def test_exact_invariants_hold_for_other_seeds():
    # Sampled points change with the seed; the exact identities do not.
    for seed in (0, 42):
        rep = verify.exact_suite(seed=seed, samples=10)
        assert rep.all_passed


def test_random_fraction_respects_bounds():
    rnd = seeds.stream("frac", 0)
    for _ in range(200):
        q = seeds.random_fraction(rnd, max_num=5, max_den=3, nonzero=True)
        assert q != 0
        assert abs(q.numerator) <= 5 * 3


def test_non_finite_values_are_strict_json():
    import numpy as np

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rep = Report(command="demo", seed=0)
    rep.measure("s", float("inf"))
    rep.measure("t", np.float64("-inf"))
    rep.data["u"] = [float("nan"), complex(float("inf"), 1.0)]
    doc = json.loads(rep.to_json(), parse_constant=reject)
    assert [c["value"] for c in doc["checks"]] == ["inf", "-inf"]
    assert doc["data"]["u"] == ["nan", {"re": "inf", "im": 1.0}]
