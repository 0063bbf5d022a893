#!/usr/bin/env python3
"""Run the acceptance suites at full scale and print one line per criterion.

Exit code 0 iff every criterion passes; the last line is the process's peak
resident set size.  Equivalent to
`pytest tests/test_acceptance.py -v -s` but without pytest in the loop; both
run the criteria of `verify.ACCEPTANCE_CRITERIA` through `verify.run_criterion`.
"""

import resource
import sys

from nilharm import verify
from nilharm.seeds import master_seed


def main() -> int:
    seed = master_seed()
    all_ok = True
    for criterion in verify.ACCEPTANCE_CRITERIA:
        all_ok &= verify.run_criterion(criterion, seed)[0]

    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak_kib //= 1024
    print(f"peak RSS: {peak_kib / 1024:.1f} MB")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
