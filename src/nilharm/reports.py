"""Machine-readable verification reports with a byte-stable JSON encoding.

Reports are deterministic given (inputs, flags, seed, version): keys are
sorted, floats use shortest round-trip repr, and wall-clock timings are
omitted unless explicitly requested (they would break byte-identity).  The
output is strict JSON: non-finite floats are written as the strings "inf",
"-inf" and "nan".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
MEASURED = "measured"


@dataclass
class Check:
    name: str
    status: str
    value: object = None
    tolerance: object = None
    runtime: float | None = None


@dataclass
class Report:
    command: str
    seed: int
    checks: list[Check] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    version: str = VERSION

    def add(self, name: str, status: str, value=None, tolerance=None) -> Check:
        chk = Check(name=name, status=status, value=value, tolerance=tolerance)
        self.checks.append(chk)
        return chk

    def check_bound(self, name: str, value: float, tolerance: float) -> Check:
        status = PASS if value <= tolerance else FAIL
        return self.add(name, status, value=value, tolerance=tolerance)

    def check_true(self, name: str, ok: bool, value=None) -> Check:
        return self.add(name, PASS if ok else FAIL, value=value)

    def measure(self, name: str, value) -> Check:
        return self.add(name, MEASURED, value=value)

    @property
    def all_passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def to_dict(self, timings: bool = False) -> dict:
        checks = []
        for c in self.checks:
            item = {"name": c.name, "status": c.status,
                    "value": _jsonable(c.value), "tolerance": _jsonable(c.tolerance)}
            if timings:
                item["runtime"] = c.runtime
            checks.append(item)
        return {
            "command": self.command,
            "seed": self.seed,
            "version": self.version,
            "checks": checks,
            "data": _jsonable(self.data),
        }

    def to_json(self, timings: bool = False) -> str:
        return json.dumps(self.to_dict(timings=timings), sort_keys=True,
                          indent=2, allow_nan=False) + "\n"


def _float(x: float):
    if math.isfinite(x):
        return x
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")


def _jsonable(obj):
    import numpy as np
    from fractions import Fraction
    from .rationals import format_rational

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _float(float(obj.real)), "im": _float(float(obj.imag))}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in obj]
    return str(obj)
