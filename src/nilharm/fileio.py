"""JSON file formats: algebras, graphs, skew forms, sampled symbols.

Rationals travel as strings "p/q" or "p"; dimensions, indices and point
counts as JSON integers; a half width as a JSON number; labels and
vertices as lists of strings, an edge as a list of two; bracket tables list
pairs i < j with 1-based indices; symbol values are [re, im] pairs in
row-major order with the last axis varying fastest.  Each file holds one
JSON object; a file of another shape is a ValueError that names it.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from . import lie_core as lc
from . import symplectic as sp
from .grids import Grid, SampledSymbol
from .rationals import format_rational, parse_rational


def _load(path: str, from_dict):
    """from_dict of the JSON object in the file at path.  A top level that is
    not an object, a field that is missing or of the wrong type, and any
    ValueError of from_dict are a ValueError that names the file."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level must be a JSON object")
    try:
        return from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: a field has the wrong type ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _integer(value, field: str) -> int:
    """``value``, which must be a JSON integer: 3.0, 3.9, "3" and true are
    refused rather than cast, as "0.75" is refused as a rational."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {field} must be a JSON integer, got {json.dumps(value)}")
    return value


def _number(value, field: str) -> float:
    """``value``, which must be a JSON number: "8" and true are refused
    rather than cast."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {field} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def _strings(value, field: str, count: int | None = None) -> tuple[str, ...]:
    """``value``, which must be a JSON list of strings, of ``count`` of them
    if given: "abc" and [1, 2.5] are refused rather than cast."""
    if not (isinstance(value, list) and all(isinstance(a, str) for a in value)
            and count in (None, len(value))):
        what = "strings" if count is None else f"{count} strings"
        raise ValueError(f"field {field} must be a list of {what}, got {json.dumps(value)}")
    return tuple(value)


def load_algebra(path: str) -> lc.LieAlgebra:
    return _load(path, algebra_from_dict)


def algebra_from_dict(doc: dict) -> lc.LieAlgebra:
    dim = _integer(doc["dim"], "dim")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for n, entry in enumerate(doc.get("brackets", [])):
        i, j = (_integer(entry[f], f"brackets[{n}].{f}") for f in "ij")
        if not (1 <= i < j <= dim):
            raise ValueError(f"bracket pair ({i}, {j}) must satisfy 1 <= i < j <= dim")
        if (i - 1, j - 1) in brackets:
            raise ValueError(f"duplicate bracket pair ({i}, {j})")
        terms = {}
        for m, t in enumerate(entry["terms"]):
            k = _integer(t["k"], f"brackets[{n}].terms[{m}].k")
            if not 1 <= k <= dim:
                raise ValueError(f"target index {k} out of range")
            terms[k - 1] = parse_rational(str(t["c"]))
        brackets[(i - 1, j - 1)] = terms
    labels = _strings(doc["labels"], "labels") if "labels" in doc else None
    return lc.validate(dim, brackets, labels=labels)


def algebra_to_dict(L: lc.LieAlgebra) -> dict:
    return {
        "dim": L.dim,
        "brackets": [
            {"i": i + 1, "j": j + 1,
             "terms": [{"k": k + 1, "c": format_rational(c)} for k, c in terms]}
            for i, j, terms in L.entries
        ],
        "labels": list(L.labels),
    }


def load_graph(path: str) -> sp.Graph:
    return _load(path, graph_from_dict)


def graph_from_dict(doc: dict) -> sp.Graph:
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ValueError(f"field edges must be a list of vertex pairs, got {json.dumps(edges)}")
    return sp.Graph(vertices=_strings(doc["vertices"], "vertices"),
                    edges=tuple(_strings(e, f"edges[{n}]", 2) for n, e in enumerate(edges)))


def load_form(path: str) -> sp.SymplecticForm:
    """{"dim": n, "entries": [{"i": .., "j": .., "v": "p/q"}, ...]}, 1-based, i < j."""
    return _load(path, form_from_dict)


def form_from_dict(doc: dict) -> sp.SymplecticForm:
    dim = _integer(doc["dim"], "dim")
    pairs = {}
    for n, entry in enumerate(doc["entries"]):
        i, j = (_integer(entry[f], f"entries[{n}].{f}") for f in "ij")
        if not (1 <= i < j <= dim):
            raise ValueError(f"form pair ({i}, {j}) must satisfy 1 <= i < j <= dim")
        if (i - 1, j - 1) in pairs:
            raise ValueError(f"duplicate form pair ({i}, {j})")
        pairs[(i - 1, j - 1)] = parse_rational(str(entry["v"]))
    return sp.form_from_pairs(dim, pairs)


def load_symbol(path: str) -> SampledSymbol:
    return _load(path, symbol_from_dict)


def symbol_from_dict(doc: dict) -> SampledSymbol:
    d = _integer(doc["d"], "d")
    grid = Grid(dim=d, half_width=_number(doc["L"], "L"), points=_integer(doc["N"], "N"))
    raw = np.asarray(doc["values"], dtype=float)
    if raw.shape != (grid.points ** d, 2):
        raise ValueError("symbol values must list [re, im] pairs, one per node")
    values = (raw[:, 0] + 1j * raw[:, 1]).reshape(grid.shape)
    return SampledSymbol(grid=grid, values=values)


def symbol_to_dict(sym: SampledSymbol) -> dict:
    flat = sym.values.reshape(-1)
    return {
        "d": sym.grid.dim,
        "L": sym.grid.half_width,
        "N": sym.grid.points,
        "values": [[float(v.real), float(v.imag)] for v in flat],
    }
