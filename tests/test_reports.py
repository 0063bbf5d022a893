"""Report determinism, seed streams, and seed-independence of exact facts."""

import hashlib
import json
from fractions import Fraction

from nilharm import seeds, verify
from nilharm.reports import Report


def test_report_json_is_canonical_and_stable():
    rep = Report(command="demo", seed=0)
    rep.check_bound("residual", 0.5, 1.0)
    rep.measure("constant", 4.0)
    rep.data["values"] = {"b": Fraction(1, 3), "a": [1.5, 2]}
    assert rep.to_json() == rep.to_json()
    doc = json.loads(rep.to_json())
    assert doc["checks"][0]["status"] == "pass"
    assert doc["data"]["values"]["b"] == "1/3"
    assert "runtime" not in doc["checks"][0]


def test_timings_flag_adds_runtime_field():
    rep = Report(command="demo", seed=0)
    rep.check_bound("residual", 0.5, 1.0).runtime = 0.01
    doc = json.loads(rep.to_json(timings=True))
    assert doc["checks"][0]["runtime"] == 0.01


def test_exit_code_contract():
    rep = Report(command="demo", seed=0)
    rep.check_bound("ok", 0.0, 1.0)
    assert rep.exit_code == 0
    rep.check_bound("bad", 2.0, 1.0)
    assert rep.exit_code == 1


def test_streams_are_named_and_deterministic():
    a = seeds.stream("alpha", 7)
    b = seeds.stream("alpha", 7)
    c = seeds.stream("beta", 7)
    seq_a = [a.randint(0, 10 ** 6) for _ in range(5)]
    seq_b = [b.randint(0, 10 ** 6) for _ in range(5)]
    seq_c = [c.randint(0, 10 ** 6) for _ in range(5)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_numpy_streams_deterministic():
    import numpy as np
    x = seeds.rng("gamma", 3).standard_normal(4)
    y = seeds.rng("gamma", 3).standard_normal(4)
    assert np.array_equal(x, y)


# sha256 of the exact half's report bytes: the exact and examples suites at
# seeds 0 and 1.  Every value in these reports is an exact rational, so the digests
# depend on no float library.
EXACT_REPORT_DIGESTS = {
    "exact": "268bd1d6deaadae962adc9587a1f46653229b35e8e92b23f8e8ab36538a04afe",
    "examples": "e2e07f59732582535c602a7c89f732dd8a67fc82fafdaab0976b09c9d060b0c6",
    "exact seed 1": "5f9bdaef743721058301efb35101812b230d532cabb79405dbffcddc728abfee",
    "examples seed 1": "705a0157f20e29b337816720d47e36cd3bd45397d0dc106f0983f55e77727750",
}


def test_exact_reports_keep_their_bytes():
    reports = {"exact": verify.exact_suite(0),
               "examples": verify.examples_suite(0),
               "exact seed 1": verify.exact_suite(1),
               "examples seed 1": verify.examples_suite(1)}
    for name, rep in reports.items():
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        assert digest == EXACT_REPORT_DIGESTS[name], name


# sha256 of the stdout of the flag, series, derivations, charnilp and orbit
# commands on every catalog algebra, and of the two catalog checks: exact
# rationals only, like the reports above.
CLI_STDOUT_DIGESTS = {
    "algebra flag abelian4": "8cb04604408c4223c376726d6bbc7633772dcd4498671dcde9ba76bbe32608c5",
    "algebra flag h3": "acd051dd7dd26847cc19cf12a1641be4159c946d4f4e9dba202132e9a3dea154",
    "algebra flag g0st_1_1": "994118963a5dcd8bcbb0147201b3c96dccfd5ff60ff1b03d2ab40addfcab87e2",
    "algebra flag triangle": "1029c16785366884fce7260ce1b98aaa8501ae8f28a13217aa50295b56d573c8",
    "algebra flag nonhomog": "f8d149542fea86ab436e7745fa2f6cebcdef45f090d9da507b9d3abda15e7f78",
    "algebra flag ext_g0st_1_1": "66bfde62a4d96dc2640f47fd20e3b089c486f8acee7db5371df7109cb7f72a4d",
    "algebra flag ext_triangle": "698b8a3960d2231d5ee51975b631faf8217210ea58291ff9113390947c7275d6",
    "algebra flag ext_nonhomog": "73326b7492e1bfc0271f5f9863e680d670e9a107de3fc3f4aa76f7072c9bc84b",
    "algebra series abelian4": "10dd5a37e81612f99242df43f0b2023e14bb21c9352b95ac79a30529af132276",
    "algebra series h3": "417c64c267e5ec9740f151d7b490eb015852227b274124b01b8c3b39f0cf7654",
    "algebra series g0st_1_1": "6be05ec467d21ad20d968ac18097aa31e63c00614288dab6ab0f058e4e5700a7",
    "algebra series triangle": "2e06431ec03af564d0c01f864fa2d8e78a67ef972883156c09713017ebc4dec2",
    "algebra series nonhomog": "7a988bc3c3735b8339f0f07766d321bab2e0def803865c98a0b4735b5652b96b",
    "algebra series ext_g0st_1_1": "01abb56014e30bd6f3dad682a340222c3ff9a7eb81f60defec317b625add7ca8",
    "algebra series ext_triangle": "939214074a4eaa2aafdc5cd3e36d85a1ef5e786f1f8023aaac7325e3a6e53f95",
    "algebra series ext_nonhomog": "6a5a020d6bd7f13dc5efcadfe8a0bf489a2ccc2054d18e30d2498bde4ca67784",
    "orbit --algebra abelian4": "d8d652c89a308b5d2823b78736c64582ee823040f57dc9940a945c9f295d0710",
    "orbit --algebra h3": "9412038f40ad74af8343f963ad0907dcedbc51d80987fac61f5c3963cfb22977",
    "orbit --algebra g0st_1_1": "8b0ac870a31a2806d0e7ac954c4360432f93f714381dbc4bf51e71b08882abc1",
    "orbit --algebra triangle": "bae58cb7c2bbce2c04141bcc8a5782c091198e05d72abfba617637c58f00f6e5",
    "orbit --algebra nonhomog": "2ab249bfe6b3a62a99c8649d50bf9eac74b0f5eb26de3608705306f3488a11b7",
    "orbit --algebra ext_g0st_1_1": "deaec66a3b892b6f8341ea4f7c322a1bc3c1a909465efcb8a51df942f3a49fa8",
    "orbit --algebra ext_triangle": "f9adffdfc31cd18af0356924c01f5afc26f322ae99a4b8149fc0c714e040e92b",
    "orbit --algebra ext_nonhomog": "c2a9033f04563107585ce76add8b300f9f3c1b05fc68ae34224a113c6be442ca",
    "algebra derivations abelian4": "c401882654c1843961ebdf74768fc6e11c3fe014c96b792f5fde534ca66874fa",
    "algebra derivations h3": "d4aec99ac59d0bd52f4e3454e6951482e0b9fb785909d4ac1facf5e4bdaf701a",
    "algebra derivations g0st_1_1": "f11cbc7ba871a805b694c8e8735442c6a1b09612af277e9983c84fcd8a1d62ed",
    "algebra derivations triangle": "503976f526e41d6104dc29c270be63599f589c39dcc56fbe068ca7003f4352d9",
    "algebra derivations nonhomog": "bafce482af8118623e1ee1c5b664ad1a4ed3e09b545e0a11b71f75ddaa306640",
    "algebra derivations ext_g0st_1_1": "7035b2dc268c8269b0300f61addd68cd49c4a3a62322d25fc2386c731160bec1",
    "algebra derivations ext_triangle": "6ba12dc27e857bab320fa17364feebff3c1423b35430bcee3d2c241e651939c7",
    "algebra derivations ext_nonhomog": "adffefd4697f294cab325cf65b36de770aa674ae319f4cd0a0cef764820ee0d3",
    "algebra charnilp abelian4": "feb01c26d788e39d5382ec0330e575764910d8611b1b54faa4fca0c1a6091afb",
    "algebra charnilp h3": "f8a99d25ee1cd8f7dbc6034c600d51814a0c97043a0096bae5503e717703c151",
    "algebra charnilp g0st_1_1": "a384bc491aa0525bc16a7e551c4c7ba8b34ffaad7dfa1a59caca1f8c61da5d43",
    "algebra charnilp triangle": "2c4fed053c53be175aaa76c906c1390f29f75272975d4ca61bf4bc679b9ea184",
    "algebra charnilp nonhomog": "8b535c842909b8776d4537305ba90a615febcd27b8827f2df0f55758ba68d9d4",
    "algebra charnilp ext_g0st_1_1": "1d892b7fdabc58b58ea591878788d5733d1dacd2fcf6e452205787e8ef31b167",
    "algebra charnilp ext_triangle": "5311f057a01133078a30312b4a1b9bbc4fec3e89954c2a50a83eb1844379c63d",
    "algebra charnilp ext_nonhomog": "76fade1006e4ee7be155888253cd084dfc504f69715b9cea5a64cae05a324b42",
    "catalog g0st --check cocycle": "820feb90515e6609514ef80a97ecdf91e06cef97b87ade411fbdf7b445eda690",
    "catalog nonhomog --check charnilp": "4b528b53cb4fc24b19689c122c42a9c83d832fa076570ab539dff99e03c19193",
}
# Nonzero exit codes: the six catalog algebras that are not characteristically
# nilpotent fail the charnilp check.
CLI_EXIT_CODES = {
    "algebra charnilp abelian4": 1,
    "algebra charnilp h3": 1,
    "algebra charnilp g0st_1_1": 1,
    "algebra charnilp triangle": 1,
    "algebra charnilp ext_g0st_1_1": 1,
    "algebra charnilp ext_triangle": 1,
}


def test_exact_cli_reports_keep_their_bytes(capsys):
    from nilharm import catalog, cli
    for command in ("algebra flag", "algebra series", "algebra derivations",
                    "algebra charnilp", "orbit --algebra"):
        assert {f"{command} {name}" for name in catalog.CORE} <= set(CLI_STDOUT_DIGESTS)
    for key, digest in CLI_STDOUT_DIGESTS.items():
        assert cli.main(key.split()) == CLI_EXIT_CODES.get(key, 0), key
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


def test_exact_invariants_hold_for_other_seeds():
    # The identities are proved, not sampled: no seed changes a verdict.
    for seed in (0, 42):
        rep = verify.exact_suite(seed=seed)
        assert rep.all_passed


def test_random_fraction_respects_bounds():
    rnd = seeds.stream("frac", 0)
    for _ in range(200):
        q = seeds.random_fraction(rnd, max_num=5, max_den=3, nonzero=True)
        assert q != 0
        assert abs(q.numerator) <= 5 * 3


def test_non_finite_values_are_strict_json():
    import numpy as np

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rep = Report(command="demo", seed=0)
    rep.measure("s", float("inf"))
    rep.measure("t", np.float64("-inf"))
    rep.data["u"] = [float("nan"), complex(float("inf"), 1.0)]
    doc = json.loads(rep.to_json(), parse_constant=reject)
    assert [c["value"] for c in doc["checks"]] == ["inf", "-inf"]
    assert doc["data"]["u"] == ["nan", {"re": "inf", "im": 1.0}]
