"""Acceptance gate: the six shipped criteria at full scale.

Each criterion runs its suite at the stated grid sizes and sample counts,
prints one pass/fail line (run with -s to see them on success), and asserts
both the checks and the stated wall-clock budget.  Criteria 1-5 come from
`verify.ACCEPTANCE_CRITERIA`, which `scripts/run_acceptance.py` also reads.
"""

import io
import time
from contextlib import redirect_stdout

from nilharm import cli, verify


def _run_criterion(number):
    label, budget_seconds, suite_fn, kw = verify.ACCEPTANCE_CRITERIA[number - 1]
    t0 = time.perf_counter()
    rep = suite_fn(seed=0, **kw)
    elapsed = time.perf_counter() - t0
    failed = [c for c in rep.checks if c.status == "fail"]
    ok = not failed and elapsed <= budget_seconds
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: "
          f"{len(rep.checks)} checks, {elapsed:.1f}s (budget {budget_seconds}s)")
    for c in failed:
        print(f"       failed check: {c.name} value={c.value} tol={c.tolerance}")
    assert not failed, [c.name for c in failed]
    assert elapsed <= budget_seconds, f"{label} exceeded {budget_seconds}s"
    return rep


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
    t0 = time.perf_counter()

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    argv = ["cz", "decompose", "--grid", "8,32", "--seed", "123"]
    code_a, out_a = capture(argv)
    code_b, out_b = capture(argv)
    ok = code_a == code_b == 0 and out_a == out_b and len(out_a) > 0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 6: byte-identical reports "
          f"for identical seed/inputs ({time.perf_counter() - t0:.1f}s)")
    assert ok

    code_c, out_c = capture(["orbit", "--algebra", "h3", "--seed", "123"])
    code_d, out_d = capture(["orbit", "--algebra", "h3", "--seed", "123"])
    assert code_c == code_d == 0 and out_c == out_d
