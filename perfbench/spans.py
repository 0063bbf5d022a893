"""In-memory span tracer that wraps the public functions of the nilharm layers.

A span is one call of a wrapped function: its name, an optional case label
(for example the catalog algebra of a BCH product), the benchmark phase it ran
in, the index of its parent span, and its start and end times. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# Span name -> every place the function is bound. A name bound by
# `from ... import` in another module is a separate attribute there, so
# patching the defining module alone would miss those calls. Names absent
# here are bound only in the module their span name starts with.
EXTRA_BINDINGS = {
    "twist.twisted_convolve": ["pedersen", "czdecomp"],
    "grids.lp_norm": ["verify", "multipliers", "pedersen"],
}

SPAN_NAMES = (
    "lie_core.bch_product",
    "lie_core.bracket",
    "lie_core.derivation_space",
    "lie_core.is_characteristically_nilpotent",
    "orbits.alpha",
    "orbits.product_and_alpha",
    "orbits.verify_cocycle_identity",
    "orbits.standard_orbit",
    "catalog.flat_orbits",
    "twist.from_orbit",
    "symplectic.is_two_cocycle",
    "symplectic.central_extension",
    "exactlinalg.det",
    "exactlinalg.rank",
    "exactlinalg.nullspace",
    "twist.twisted_convolve",
    "twist.delta_action",
    "twist.TwistData.combine",
    "twist.TwistData.alpha",
    "pedersen.HeisenbergRealization.__init__",
    "pedersen.HeisenbergRealization.transform",
    "pedersen.HeisenbergRealization.inverse",
    "pedersen.HeisenbergRealization.identity_report",
    "pedersen.DiscretizedOperator.compose",
    "multipliers.multiplier_check",
    "multipliers.sharp_map",
    "multipliers.flat_map",
    "multipliers.proj_p",
    "grids.lp_norm",
    "funcs.sample",
    "czdecomp.calibrate",
    "czdecomp.cz_cover",
    "czdecomp.cz_decompose",
    "czdecomp.hormander_twist_estimate",
    "czdecomp.weak11_empirical",
)

_NAME, _CASE, _PHASE, _PARENT, _START, _END = range(6)


class Tracer:
    """Records spans of the wrapped functions while `phase` is not None."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.phase: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, cases: dict | None = None, counters: dict | None = None) -> None:
        """Wrap every function in SPAN_NAMES.

        cases: span name -> function of the call arguments giving a case label.
        counters: span name -> function of the result giving a count to add.
        """
        cases, counters = cases or {}, counters or {}
        for name in SPAN_NAMES:
            module, _, attr_path = name.partition(".")
            owner_path, _, attr = attr_path.rpartition(".")
            homes = [module] + EXTRA_BINDINGS.get(name, [])
            original = _resolve_owner(module, owner_path).__dict__[attr]
            wrapper = self._wrapper(name, original, cases.get(name), counters.get(name))
            for home in homes:
                owner = _resolve_owner(home, owner_path)
                self._undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrapper(self, name, original, case_of, count_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return original(*args, **kwargs)
            index = len(spans)
            span = [name, case_of(args) if case_of else None, self.phase,
                    stack[-1] if stack else -1, time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if count_of:
                key = (name, self.phase)
                self.counts[key] = self.counts.get(key, 0) + count_of(result)
            return result

        return wrapper

    def summary(self, phases) -> dict[tuple[str, str | None], dict]:
        """calls, self_s and per-call durations per (name, case) over `phases`.

        Case None aggregates every case of the name. Self time is the span's
        duration minus the durations of its direct child spans.
        """
        self_time = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                self_time[s[_PARENT]] -= s[_END] - s[_START]
        out: dict = {}
        for s, own in zip(self.spans, self_time):
            if s[_PHASE] not in phases:
                continue
            keys = [(s[_NAME], None)] + ([(s[_NAME], s[_CASE])] if s[_CASE] else [])
            for key in keys:
                entry = out.setdefault(key, {"calls": 0, "self_s": 0.0, "durations": []})
                entry["calls"] += 1
                entry["self_s"] += own
                entry["durations"].append(s[_END] - s[_START])
        for entry in out.values():
            entry["p50_s"] = statistics.median(entry.pop("durations"))
        return out

    def count(self, name: str, phases) -> int:
        return sum(v for (n, p), v in self.counts.items() if n == name and p in phases)


def _resolve_owner(module: str, owner_path: str):
    owner = importlib.import_module(f"nilharm.{module}")
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    return owner
