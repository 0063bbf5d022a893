"""The benchmark's span tracer names only functions that nilharm defines.

perfbench/spans.py wraps each name in SPAN_NAMES, in its defining module and
in every module of EXTRA_BINDINGS that imported it by name.  A name that no
longer resolves makes a traced benchmark run fail at install time, so it is
checked here, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module: str, owner_path: str):
    owner = importlib.import_module(f"nilharm.{module}")
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    return owner


def test_every_span_name_resolves_in_nilharm():
    spans = _load_spans()
    assert set(spans.EXTRA_BINDINGS) <= set(spans.SPAN_NAMES)
    for name in spans.SPAN_NAMES:
        module, _, attr_path = name.partition(".")
        owner_path, _, attr = attr_path.rpartition(".")
        original = _owner(module, owner_path).__dict__.get(attr)
        assert callable(original), name
        for home in spans.EXTRA_BINDINGS.get(name, []):
            assert _owner(home, owner_path).__dict__.get(attr) is original, (name, home)
