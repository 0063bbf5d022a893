#!/usr/bin/env python3
"""Run the acceptance suites at full scale and print one line per criterion.

Exit code 0 iff every criterion passes; the last line is the process's peak
resident set size.  Equivalent to
`pytest tests/test_acceptance.py -v -s` but without pytest in the loop; both
read the criteria from `verify.ACCEPTANCE_CRITERIA`.
"""

import resource
import sys
import time

from nilharm import verify
from nilharm.seeds import master_seed


def main() -> int:
    seed = master_seed()
    all_ok = True
    for label, budget, suite, kwargs in verify.ACCEPTANCE_CRITERIA:
        t0 = time.perf_counter()
        rep = suite(seed=seed, **kwargs)
        elapsed = time.perf_counter() - t0
        failed = [c for c in rep.checks if c.status == "fail"]
        ok = not failed and elapsed <= budget
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: "
              f"{len(rep.checks)} checks in {elapsed:.1f}s (budget {budget}s)")
        for c in failed:
            print(f"        failed: {c.name} value={c.value} tol={c.tolerance}")

    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak_kib //= 1024
    print(f"peak RSS: {peak_kib / 1024:.1f} MB")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
