"""File format contracts: 1-based indices, duplicates rejected, round trips."""

import json
import re

import pytest

from nilharm import catalog as cat, fileio


def test_algebra_round_trip():
    for name in ("h3", "nonhomog", "ext_g0st_1_1"):
        L = cat.core_algebras()[name]
        doc = json.loads(json.dumps(fileio.algebra_to_dict(L)))
        back = fileio.algebra_from_dict(doc)
        assert back.dim == L.dim
        assert back.entries == L.entries
        assert back.labels == L.labels


def test_algebra_rejects_duplicate_pairs():
    doc = {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "2"}]},
    ]}
    with pytest.raises(ValueError, match="duplicate"):
        fileio.algebra_from_dict(doc)


def test_algebra_rejects_lower_triangle_and_bad_targets():
    with pytest.raises(ValueError):
        fileio.algebra_from_dict(
            {"dim": 3, "brackets": [{"i": 2, "j": 1,
                                     "terms": [{"k": 3, "c": "1"}]}]})
    with pytest.raises(ValueError):
        fileio.algebra_from_dict(
            {"dim": 3, "brackets": [{"i": 1, "j": 2,
                                     "terms": [{"k": 4, "c": "1"}]}]})


def test_rational_strings():
    doc = {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "-3/4"}]},
    ]}
    L = fileio.algebra_from_dict(doc)
    from fractions import Fraction
    assert L.basis_bracket(0, 1) == (Fraction(0), Fraction(0), Fraction(-3, 4))
    with pytest.raises(ValueError):
        fileio.algebra_from_dict(
            {"dim": 3, "brackets": [{"i": 1, "j": 2,
                                     "terms": [{"k": 3, "c": "0.75"}]}]})



def test_form_indices_are_one_based():
    with pytest.raises(ValueError, match=r"form pair \(0, 1\) must satisfy 1 <= i < j <= dim"):
        fileio.form_from_dict({"dim": 3, "entries": [{"i": 0, "j": 1, "v": "1"}]})


H3 = {"dim": 3, "brackets": [{"i": 2, "j": 3, "terms": [{"k": 1, "c": "-1"}]}]}


@pytest.mark.parametrize("field, value, where", [
    ("dim", 3.9, "dim"),
    ("dim", 3.0, "dim"),
    ("dim", "3", "dim"),
    ("dim", True, "dim"),
    ("i", 2.0, "brackets[0].i"),
    ("j", False, "brackets[0].j"),
    ("k", "1", "brackets[0].terms[0].k"),
])
def test_algebra_integer_fields_must_be_json_integers(field, value, where):
    doc = json.loads(json.dumps(H3))
    if field == "dim":
        doc["dim"] = value
    elif field == "k":
        doc["brackets"][0]["terms"][0]["k"] = value
    else:
        doc["brackets"][0][field] = value
    with pytest.raises(ValueError, match=rf"field {re.escape(where)} must be a JSON integer"):
        fileio.algebra_from_dict(doc)


@pytest.mark.parametrize("labels", ["XYZ", ["X", "Y", 3], None, {"X": 1}])
def test_algebra_labels_must_be_a_list_of_strings(labels):
    with pytest.raises(ValueError, match="field labels must be a list of strings"):
        fileio.algebra_from_dict({**H3, "labels": labels})
    assert fileio.algebra_from_dict({**H3, "labels": ["P", "Q", "Z"]}).labels == ("P", "Q", "Z")


@pytest.mark.parametrize("doc, where", [
    ({"dim": 2.0, "entries": []}, "dim"),
    ({"dim": 2, "entries": [{"i": 1, "j": True, "v": "1"}]}, "entries[0].j"),
    ({"dim": 2, "entries": [{"i": 1.5, "j": 2, "v": "1"}]}, "entries[0].i"),
])
def test_form_integer_fields_must_be_json_integers(doc, where):
    with pytest.raises(ValueError, match=rf"field {re.escape(where)} must be a JSON integer"):
        fileio.form_from_dict(doc)


@pytest.mark.parametrize("field, value", [("d", 2.0), ("N", 4.5), ("N", True)])
def test_symbol_integer_fields_must_be_json_integers(field, value):
    doc = {"d": 2, "L": 8.0, "N": 4, "values": [[0.0, 0.0]] * 16, field: value}
    with pytest.raises(ValueError, match=rf"field {field} must be a JSON integer"):
        fileio.symbol_from_dict(doc)


@pytest.mark.parametrize("value", [True, "8", None, [8.0]])
def test_symbol_half_width_must_be_a_json_number(value):
    doc = {"d": 2, "L": value, "N": 8, "values": [[0.0, 0.0]] * 64}
    with pytest.raises(ValueError, match="field L must be a JSON number"):
        fileio.symbol_from_dict(doc)
    assert fileio.symbol_from_dict({**doc, "L": 8}).grid.half_width == 8.0


TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}


@pytest.mark.parametrize("field, value, where, what", [
    ("vertices", "abc", "vertices", "strings"),
    ("vertices", [1, 2.5, True], "vertices", "strings"),
    ("edges", ["ab", ["b", "c"]], "edges[0]", "2 strings"),
    ("edges", [["a", "b"], ["b", "c", "a"]], "edges[1]", "2 strings"),
    ("edges", [["a", 1]], "edges[0]", "2 strings"),
])
def test_graph_fields_must_be_lists_of_strings(field, value, where, what):
    with pytest.raises(ValueError, match=rf"field {re.escape(where)} must be a list of {what}"):
        fileio.graph_from_dict({**TRIANGLE, field: value})
    assert fileio.graph_from_dict(TRIANGLE).vertices == ("a", "b", "c")


def test_graph_edges_must_be_a_list():
    with pytest.raises(ValueError, match="field edges must be a list of vertex pairs"):
        fileio.graph_from_dict({**TRIANGLE, "edges": "ab"})


def test_load_names_the_file_and_the_field(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({**H3, "dim": 3.9}))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: field dim must be"):
        fileio.load_algebra(str(path))
