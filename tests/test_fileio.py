"""File format contracts: 1-based indices, duplicates rejected, round trips."""

import json

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
