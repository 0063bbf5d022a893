"""Every check bound comes from the one table, verify.TOLERANCES: a read of
one entry, or verify.grid_bound, which picks an entry or its coarse-grid
entry by the grid size."""

import ast
from pathlib import Path

from nilharm import verify

SOURCES = [Path(verify.__file__).with_name(name) for name in ("verify.py", "cli.py")]


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _string(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) \
        else None


def _table_keys(node) -> set:
    """The keys that a ``TOLERANCES["key"]`` read or a
    ``grid_bound("key", points)`` call reads (the latter also reads
    "key_coarse"); empty for any other expression."""
    if isinstance(node, ast.Subscript) and _name(node.value) == "TOLERANCES" \
            and (key := _string(node.slice)):
        return {key}
    if isinstance(node, ast.Call) and _name(node.func) == "grid_bound" and node.args \
            and (key := _string(node.args[0])):
        return {key, f"{key}_coarse"}
    return set()


def _bound_argument(call: ast.Call):
    if len(call.args) >= 3:
        return call.args[2]
    return next(kw.value for kw in call.keywords if kw.arg == "tolerance")


def _parsed():
    return [(path.name, ast.parse(path.read_text())) for path in SOURCES]


def test_every_check_bound_reads_the_table():
    calls = 0
    for fname, tree in _parsed():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "check_bound"):
                calls += 1
                # A numeric literal, or any other expression, fails here.
                assert _table_keys(_bound_argument(node)), \
                    f"{fname}:{node.lineno}: bound is not a TOLERANCES entry"
    assert calls > 0


def test_every_table_entry_is_read():
    read = {key for _, tree in _parsed() for node in ast.walk(tree)
            for key in _table_keys(node)}
    assert read <= set(verify.TOLERANCES), read - set(verify.TOLERANCES)
    assert set(verify.TOLERANCES) <= read, set(verify.TOLERANCES) - read
