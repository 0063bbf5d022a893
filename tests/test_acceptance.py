"""Acceptance gate: the six shipped criteria at full scale.

Each criterion runs its suite at the stated grid sizes and sample counts,
prints one pass/fail line (run with -s to see them on success), and asserts
both the checks and the stated wall-clock budget.  The criteria come from
`verify.ACCEPTANCE_CRITERIA`, and `verify.run_criterion` runs and prints
each one, as it does for `scripts/run_acceptance.py`.
"""

from nilharm import verify


def _run_criterion(number):
    criterion = verify.ACCEPTANCE_CRITERIA[number - 1]
    label, budget_seconds = criterion[:2]
    _ok, failed, elapsed = verify.run_criterion(criterion, seed=0)
    assert not failed, [c.name for c in failed]
    assert elapsed <= budget_seconds, f"{label} exceeded {budget_seconds}s"


def test_criterion_1_exact_algebra_suite():
    _run_criterion(1)


def test_criterion_2_example_families_suite():
    _run_criterion(2)


def test_criterion_3_operator_transform_suite():
    _run_criterion(3)


def test_criterion_4_cz_suite():
    _run_criterion(4)


def test_criterion_5_multiplier_transference_suite():
    _run_criterion(5)


def test_criterion_6_reproducibility():
    _run_criterion(6)


def test_quick_full_report_runs_every_criterion_smaller(monkeypatch):
    calls = []

    def recording(suite):
        def run(seed, **kw):
            calls.append((suite.__name__, kw))
            return suite(seed, **kw)
        return run

    monkeypatch.setattr(verify, "ACCEPTANCE_CRITERIA", tuple(
        (label, budget, recording(suite), kw)
        for label, budget, suite, kw in verify.ACCEPTANCE_CRITERIA))
    rep = verify.full_report(0, quick=True)
    assert calls == [
        ("exact_suite", {}),
        ("examples_suite", {}),
        ("twist_suite", {"half_width": 8.0, "points": 32}),
        ("cz_suite", {"half_width": 8.0, "points": 32}),
        ("multiplier_suite", {"half_width": 8.0, "points": 32}),
        ("reproducibility_suite", {}),
    ]
    prefixes = {c.name.split(".", 1)[0] for c in rep.checks}
    assert prefixes == {"exact", "examples", "twist", "cz", "multiplier",
                        "reproducibility"}
    assert {c.name for c in rep.checks if c.name.startswith("reproducibility.")} == {
        "reproducibility.byte_identical[cz decompose --grid 8,32]",
        "reproducibility.byte_identical[orbit --algebra h3]"}
    assert all(c.status != "fail" for c in rep.checks)
