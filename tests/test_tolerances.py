"""Every check bound comes from the one table, verify.TOLERANCES."""

import ast
from pathlib import Path

from nilharm import verify

SOURCES = [Path(verify.__file__).with_name(name) for name in ("verify.py", "cli.py")]


def _table_key(node):
    """The string key of a ``TOLERANCES["key"]`` read, else None."""
    if not isinstance(node, ast.Subscript):
        return None
    table = node.value
    name = table.attr if isinstance(table, ast.Attribute) else getattr(table, "id", None)
    if name != "TOLERANCES":
        return None
    key = node.slice
    return key.value if isinstance(key, ast.Constant) and isinstance(key.value, str) \
        else None


def _reads_table(node) -> bool:
    """A table read, or a conditional choosing between two table reads."""
    if isinstance(node, ast.IfExp):
        return _reads_table(node.body) and _reads_table(node.orelse)
    return _table_key(node) is not None


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
                assert _reads_table(_bound_argument(node)), \
                    f"{fname}:{node.lineno}: bound is not a TOLERANCES entry"
    assert calls > 0


def test_every_table_entry_is_read():
    read = {key for _, tree in _parsed() for node in ast.walk(tree)
            if (key := _table_key(node)) is not None}
    assert read <= set(verify.TOLERANCES), read - set(verify.TOLERANCES)
    assert set(verify.TOLERANCES) <= read, set(verify.TOLERANCES) - read
