"""CLI contract: formats, exit codes, byte-identical reports.

Most tests call ``cli.main`` in this process (``run_cli``).  The contract of
the process itself, its exit code, its environment and a stderr without a
traceback, is held by the tests that start ``python -m nilharm.cli``
(``run_cli_process``), one of which pins that both runners give the same
code and bytes."""

import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from nilharm import cli, pedersen as pe
from nilharm.grids import Grid

H3_DOC = {
    "dim": 3,
    "brackets": [{"i": 2, "j": 3, "terms": [{"k": 1, "c": "-1"}]}],
    "labels": ["X1", "X2", "X3"],
}

BAD_JACOBI_DOC = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
        {"i": 1, "j": 3, "terms": [{"k": 1, "c": "1"}]},
    ],
}

FORM_DOC = {
    "dim": 2,
    "entries": [{"i": 1, "j": 2, "v": "1"}],
}

PLANE_DOC = {"dim": 2, "brackets": []}

GRAPH_DOC = {"vertices": ["a", "b", "c"],
             "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}


def run_cli(*args, env_extra=None):
    """``cli.main(args)`` in this process, with ``env_extra`` added to the
    environment: its (returncode, stdout, stderr), an argparse exit turned
    into its code, and each warning printed to stderr once per place, as a
    fresh process prints it."""
    stdout, stderr = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with mock.patch.dict(os.environ, env_extra or {}), redirect_stdout(stdout), \
            redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = show
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def run_cli_process(*args, env_extra=None):
    """``python -m nilharm.cli args`` in a fresh interpreter."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nilharm.cli", *args],
        capture_output=True, text=True, env=env)


@pytest.fixture()
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(H3_DOC))
    return str(path)


def test_validate_h3_file(h3_file):
    out = run_cli("algebra", "validate", h3_file)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    step = [c for c in doc["checks"] if c["name"] == "step"][0]
    assert step["value"] == 2


def test_series_flag_derivations_charnilp(h3_file):
    for action in ("series", "flag", "derivations", "charnilp"):
        out = run_cli("algebra", action, h3_file)
        doc = json.loads(out.stdout)
        assert doc["command"].startswith(f"algebra {action}")
        if action == "charnilp":
            assert out.returncode == 1  # h3 has a non-nilpotent derivation
        else:
            assert out.returncode == 0


def test_invalid_algebra_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_JACOBI_DOC))
    out = run_cli("algebra", "validate", str(path))
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert doc["checks"][0]["status"] == "fail"


def test_missing_file_exits_3():
    out = run_cli("algebra", "validate", "/nonexistent/void.json")
    assert out.returncode == 3
    out = run_cli("algebra", "flag", "no_such_algebra")
    assert out.returncode == 3
    assert "no such file or catalog entry" in out.stderr


def test_every_core_catalog_name_resolves(capsys):
    from nilharm import catalog as cat
    from nilharm import cli

    for name in cat.core_algebras():
        assert cli.main(["algebra", "flag", name]) == 0, name
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == f"algebra flag {name}"


def test_usage_error_exits_2():
    out = run_cli("algebra", "frobnicate", "x.json")
    assert out.returncode == 2


# JSON of the wrong shape, each given where the command reads its file: a
# top level that is not an object, a missing field, a field of the wrong
# type, a 0-based form index, a form pair given twice and an edge given as
# a string rather than a pair.  Each error names the file.
@pytest.mark.parametrize("args, doc", [
    (("algebra", "validate", "{}"), [1, 2]),
    (("algebra", "validate", "{}"), {"dim": 3, "brackets": 5}),
    (("graph-lie", "{}"), {"vertices": 5, "edges": []}),
    (("extend", "h3", "{}"), {"dim": 3}),
    (("extend", "h3", "{}"), {"dim": 3, "entries": [{"i": 0, "j": 1, "v": "1"}]}),
    (("extend", "h3", "{}"), {"dim": 3, "entries": [{"i": 1, "j": 2, "v": "1"},
                                                    {"i": 1, "j": 2, "v": "5"}]}),
    (("twist", "conv", "--grid", "8,32", "--symbol", "{}"), [1, 2]),
    (("cz", "decompose", "--grid", "8,32", "--symbol", "{}"), {"d": 2, "L": 8}),
    (("algebra", "validate", "{}"), {"dim": 3.9, "brackets": []}),
    (("graph-lie", "{}"), {"vertices": ["a", "b"], "edges": ["ab"]}),
], ids=["algebra-list", "algebra-brackets-int", "graph-vertices-int",
        "form-missing-entries", "form-index-0", "form-duplicate-pair", "symbol-list",
        "symbol-missing-N", "algebra-dim-float", "graph-edge-string"])
def test_malformed_json_exits_2(tmp_path, args, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = run_cli(*(a.format(path) for a in args))
    assert out.returncode == 2
    assert out.stderr.startswith(f"nilharm: error: {path}: ")
    assert "Traceback" not in out.stderr


def test_extend_plane_to_heisenberg(tmp_path):
    alg = tmp_path / "plane.json"
    alg.write_text(json.dumps(PLANE_DOC))
    form = tmp_path / "form.json"
    form.write_text(json.dumps(FORM_DOC))
    out = run_cli("extend", str(alg), str(form))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    values = {c["name"]: c["value"] for c in doc["checks"]}
    assert values["extended_dim"] == 3
    assert values["extended_step"] == 2
    assert values["center_dim"] == 1


def test_graph_lie_triangle(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPH_DOC))
    out = run_cli("graph-lie", str(path))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    values = {c["name"]: c["value"] for c in doc["checks"]}
    assert values["dim"] == 6
    assert values["symplectic_exists"] is True


def test_catalog_nonhomog_charnilp():
    out = run_cli("catalog", "nonhomog", "--check", "charnilp")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["characteristically_nilpotent"] == "pass"


def test_catalog_g0st_with_parameters():
    out = run_cli("catalog", "g0st", "--s", "2", "--t", "3", "--check", "cocycle")
    assert out.returncode == 0


def test_catalog_g0st_1_1_runs_cocycle_check():
    out = run_cli("catalog", "g0st_1_1", "--check", "cocycle")
    assert out.returncode == 0
    statuses = {c["name"]: c["status"] for c in json.loads(out.stdout)["checks"]}
    assert statuses["two_cocycle"] == "pass"
    assert statuses["nondegenerate"] == "pass"


@pytest.mark.parametrize("name", ["h3", "ext_g0st", "ext_g0st_1_1"])
def test_catalog_cocycle_check_without_form_exits_2(name):
    out = run_cli("catalog", name, "--check", "cocycle")
    assert out.returncode == 2
    assert f"{name} has none" in out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


def test_orbit_with_explicit_functional(h3_file):
    out = run_cli("orbit", "--algebra", h3_file, "--xi0", "1,0,0")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    values = {c["name"]: c["value"] for c in doc["checks"]}
    assert values["jump_set"] == [2, 3]
    assert values["flat"] is True


def test_orbit_bad_pairing_exits_2(h3_file):
    out = run_cli("orbit", "--algebra", h3_file, "--xi0", "2,0,0")
    assert out.returncode == 2


def test_reports_byte_identical_same_seed(h3_file):
    a = run_cli("orbit", "--algebra", h3_file, "--seed", "7")
    b = run_cli("orbit", "--algebra", h3_file, "--seed", "7")
    assert a.stdout == b.stdout and a.returncode == 0


def test_seed_env_var_respected(h3_file):
    via_env = run_cli_process("orbit", "--algebra", h3_file,
                              env_extra={"NILHARM_SEED": "42"})
    via_flag = run_cli("--seed", "42", "orbit", "--algebra", h3_file)
    assert via_env.stdout == via_flag.stdout
    assert json.loads(via_env.stdout)["seed"] == 42


def test_seed_env_var_that_is_not_an_integer_exits_2():
    out = run_cli_process("catalog", "h3", env_extra={"NILHARM_SEED": "abc"})
    assert out.returncode == 2
    assert "NILHARM_SEED must be an integer, got 'abc'" in out.stderr
    assert "Traceback" not in out.stderr


# One command per exit code, and a refusal of the numeric code that a warning
# would reach: both runners give the same code and the same bytes on both
# streams, and the process prints no traceback.
@pytest.mark.parametrize("args, code", [
    (("orbit", "--algebra", "{h3}", "--seed", "7"), 0),
    (("twist", "pedersen", "--grid", "8,32"), 0),
    (("algebra", "validate", "{bad}"), 1),
    (("algebra", "charnilp", "{h3}"), 1),
    (("algebra", "frobnicate", "x.json"), 2),
    (("cz", "kernel-check", "--grid", "8,32", "--c2", "inf"), 2),
    (("algebra", "validate", "/nonexistent/void.json"), 3),
], ids=["orbit", "twist-pedersen", "invalid-algebra", "charnilp-failure", "usage",
        "non-finite-c2", "missing-file"])
def test_in_process_runner_matches_the_process(tmp_path, h3_file, args, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_JACOBI_DOC))
    args = [a.format(h3=h3_file, bad=bad) for a in args]
    process = run_cli_process(*args)
    assert process.returncode == code
    assert "Traceback" not in process.stderr
    in_process = run_cli(*args)
    assert (in_process.returncode, in_process.stdout, in_process.stderr) \
        == (process.returncode, process.stdout, process.stderr)


def test_twist_verify_small_grid():
    out = run_cli("twist", "verify", "--catalog", "h3", "--grid", "8,32")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert all(c["status"] != "fail" for c in doc["checks"])


@pytest.mark.parametrize("grid", ["6,64", "8,8"])
def test_twist_verify_shifts_on_the_lattice_of_any_grid(grid):
    # 1 is not a multiple of h = 0.1875 or h = 2; the point-mass shift still
    # lies on the lattice, so the whole suite runs.  Boxes this narrow or
    # coarse fail some identity tolerances (exit 1), never the shift (exit 2).
    out = run_cli("twist", "verify", "--catalog", "h3", "--grid", grid)
    assert out.returncode in (0, 1)
    assert "Traceback" not in out.stderr
    statuses = {c["name"]: c["status"] for c in json.loads(out.stdout)["checks"]}
    assert statuses["delta_action_norm_preservation"] == "pass"
    assert statuses["delta_action_at_zero"] == "pass"
    assert len(statuses) == 17


def test_twist_pedersen_small_grid():
    out = run_cli("twist", "pedersen", "--grid", "8,32")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["trace_identity"] == "pass"
    assert statuses["hs_isometry_rel"] == "pass"
    assert statuses["inversion_roundtrip_rel"] == "pass"


def test_twist_conv_symbol_files_roundtrip(tmp_path):
    import numpy as np
    from nilharm import fileio, funcs
    from nilharm.grids import Grid

    grid = Grid(2, 8.0, 32)
    sym = funcs.sample(grid, funcs.gaussian((0.2, -0.1)))
    sym_path = tmp_path / "sym.json"
    sym_path.write_text(json.dumps(fileio.symbol_to_dict(sym)))
    out_path = tmp_path / "out.json"
    res = run_cli("twist", "conv", "--grid", "8,32",
                  "--symbol", str(sym_path), "--symbol2", str(sym_path),
                  "--out", str(out_path))
    assert res.returncode == 0
    back = fileio.load_symbol(str(out_path))
    assert back.grid.same_box(grid)
    assert np.max(np.abs(back.values)) > 0


@pytest.mark.parametrize("action", ["conv", "delta", "pedersen"])
def test_twist_on_zero_symbol_exits_0(tmp_path, action):
    import numpy as np
    from nilharm import fileio
    from nilharm.grids import Grid, SampledSymbol

    grid = Grid(2, 8.0, 32)
    sym_path = tmp_path / "zero32.json"
    sym_path.write_text(json.dumps(fileio.symbol_to_dict(
        SampledSymbol(grid, np.zeros(grid.shape, dtype=complex)))))
    out = run_cli("twist", action, "--grid", "8,32", "--symbol", str(sym_path))
    assert out.returncode == 0
    assert "Traceback" not in out.stderr
    doc = json.loads(out.stdout)
    assert all(c["status"] != "fail" for c in doc["checks"])


def test_cz_decompose_small_grid():
    out = run_cli("cz", "decompose", "--grid", "8,32")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["twisted_mean_zero_rel"] == "pass"


@pytest.mark.parametrize("args, message", [
    (("cz", "cover", "--algebra", "abelian4"), "flat orbit"),
    (("cz", "decompose", "--algebra", "ext_g0st"), "2-dimensional"),
    (("twist", "conv", "--catalog", "ext_g0st"), "2-dimensional"),
])
def test_unsuitable_orbit_exits_2(args, message):
    out = run_cli(*args, "--grid", "8,16")
    assert out.returncode == 2
    assert message in out.stderr
    assert "Traceback" not in out.stderr


def test_twist_conv_symbol_on_other_grid_exits_2(tmp_path):
    from nilharm import fileio, funcs
    from nilharm.grids import Grid

    sym = funcs.sample(Grid(2, 8.0, 16), funcs.gaussian())
    sym_path = tmp_path / "sym16.json"
    sym_path.write_text(json.dumps(fileio.symbol_to_dict(sym)))
    out = run_cli("twist", "conv", "--grid", "8,32", "--symbol", str(sym_path))
    assert out.returncode == 2
    assert "share one grid" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("action, options", [
    (("twist", "conv"), ("--symbol",)),
    (("twist", "conv"), ("--symbol2",)),
    (("twist", "conv"), ("--symbol", "--symbol2")),
    (("twist", "delta"), ("--symbol",)),
    (("twist", "pedersen"), ("--symbol",)),
    (("cz", "cover"), ("--symbol",)),
    (("cz", "decompose"), ("--symbol",)),
    (("cz", "weak11"), ("--symbol",)),
])
def test_symbol_off_the_grid_exits_2(tmp_path, action, options):
    # Every action that reads a symbol file refuses one on another grid,
    # before it computes on either grid.
    from nilharm import fileio, funcs
    from nilharm.grids import Grid

    sym = funcs.sample(Grid(2, 8.0, 16), funcs.gaussian())
    sym_path = tmp_path / "sym16.json"
    sym_path.write_text(json.dumps(fileio.symbol_to_dict(sym)))
    out = run_cli(*action, *(a for opt in options for a in (opt, str(sym_path))),
                  "--grid", "8,32")
    assert out.returncode == 2
    assert "share one grid" in out.stderr
    assert "2,8,16" in out.stderr and "2,8,32" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args, message", [
    (("orbit", "--algebra", "h3", "--xi0", "1,2"),
     "the functional needs 3 coordinates, one per basis vector; got 2"),
    (("cz", "cover", "--algebra", "h3", "--xi0", "1,2", "--grid", "8,16"),
     "the functional needs 3 coordinates, one per basis vector; got 2"),
    (("twist", "delta", "--v", "1", "--grid", "8,16"),
     "the shift needs 2 components, one per predual coordinate; got 1"),
    (("catalog", "abelian", "--n", "0"), "dimension must be positive"),
    (("catalog", "abelian0"), "dimension must be positive"),
    (("twist", "delta", "--v", "0.3,0", "--grid", "8,32"),
     "a shift on the grid lattice, multiples of h = 0.5"),
    (("twist", "delta", "--grid", "8,8"),
     "a shift on the grid lattice, multiples of h = 2"),
    # The verify suites are fixed to h3 and would ignore these options.
    (("twist", "verify", "--catalog", "ext_nonhomog", "--grid", "8,32"),
     "twist verify runs the h3 suite only; got --catalog ext_nonhomog"),
    (("cz", "multiplier", "--algebra", "ext_g0st_1_1", "--grid", "8,32"),
     "cz multiplier runs the h3 suite only; got --algebra ext_g0st_1_1"),
    (("cz", "multiplier", "--xi0", "0,0,1", "--grid", "8,32"),
     "cz multiplier runs the h3 suite only; got --xi0 0,0,1"),
    (("cz", "cover", "--grid", "8"),
     "--grid needs L,N (a half width and a point count), got '8'"),
    (("twist", "verify", "--grid", "8,64,1"),
     "--grid needs L,N (a half width and a point count), got '8,64,1'"),
    # Options that the action would ignore: each twist and cz action reads
    # only its row of cli.READS, and a catalog family only its own parameters.
    (("cz", "kernel-check", "--grid", "8,32", "--alpha", "5"),
     "cz kernel-check does not read --alpha; got --alpha 5"),
    (("cz", "kernel-check", "--symbol", "/nonexistent.json"),
     "cz kernel-check does not read --symbol; got --symbol /nonexistent.json"),
    (("cz", "weak11", "--alpha", "5"), "cz weak11 does not read --alpha; got --alpha 5"),
    (("cz", "cover", "--c2", "9"), "cz cover does not read --c2; got --c2 9"),
    (("cz", "decompose", "--c2", "9"), "cz decompose does not read --c2; got --c2 9"),
    (("cz", "weak11", "--c2", "9"), "cz weak11 does not read --c2; got --c2 9"),
    (("twist", "conv", "--v", "0,1"), "twist conv does not read --v; got --v 0,1"),
    (("twist", "pedersen", "--v", "0,1"), "twist pedersen does not read --v; got --v 0,1"),
    (("twist", "verify", "--v", "0,1"), "twist verify runs the h3 suite only; got --v 0,1"),
    (("twist", "delta", "--symbol2", "b.json"),
     "twist delta does not read --symbol2; got --symbol2 b.json"),
    (("twist", "pedersen", "--symbol2", "b.json"),
     "twist pedersen does not read --symbol2; got --symbol2 b.json"),
    (("twist", "verify", "--symbol2", "b.json"),
     "twist verify runs the h3 suite only; got --symbol2 b.json"),
    (("catalog", "h3", "--s", "5"), "catalog algebra h3 takes no parameters; got s"),
    (("catalog", "abelian4", "--n", "6"),
     "catalog algebra abelian4 takes no parameters; got n"),
    (("catalog", "g0st_1_1", "--check", "cocycle", "--t", "2"),
     "catalog algebra g0st_1_1 takes no parameters; got t"),
    (("catalog", "ext_nonhomog", "--s", "2"),
     "catalog algebra ext_nonhomog takes a, b; got s"),
])
def test_wrong_sizes_exit_2(args, message):
    out = run_cli(*args)
    assert out.returncode == 2
    assert message in out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


# A grid too large for memory fails in numpy's allocation, as 8,1048576
# does under a capped address space; here the first large table of each
# command raises instead, so the test allocates nothing.
@pytest.mark.parametrize("args, target", [
    (("twist", "verify", "--grid", "8,32"), (pe, "_grid_tables")),
    (("cz", "cover", "--grid", "8,32"), (Grid, "nodes")),
])
def test_a_grid_too_large_for_memory_exits_2(monkeypatch, args, target):
    message = "Unable to allocate 16.0 TiB for an array with shape (1048576, 2097151)"

    def allocate(*_):
        raise MemoryError(message)

    monkeypatch.setattr(*target, allocate)
    out = run_cli(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"nilharm: error: out of memory: {message}\n"


# Each pair of invocations differs in one option that the command reads, so
# their reports differ in value and must differ in command; the default
# invocation keeps its command.
@pytest.mark.parametrize("argv, option, command", [
    (("cz", "kernel-check", "--grid", "8,32"), ("--c2", "9"),
     "cz kernel-check --grid 8,32 --c2 9"),
    (("twist", "delta", "--grid", "8,32"), ("--v", "0,1"), "twist delta --grid 8,32 --v 0,1"),
    (("orbit", "--algebra", "h3"), ("--xi0", "1,0,0"), "orbit h3 --xi0 1,0,0"),
])
def test_read_options_are_named_in_the_command(capsys, argv, option, command):
    from nilharm import cli
    commands = []
    for args in (argv, argv + option):
        cli.main(list(args))
        commands.append(json.loads(capsys.readouterr().out)["command"])
    assert commands == [command.rsplit(" ", 2)[0], command]


def test_non_finite_c2_exits_2():
    out = run_cli("cz", "kernel-check", "--grid", "8,32", "--c2", "inf")
    assert out.returncode == 2
    assert "need a finite c2" in out.stderr
    assert "Warning" not in out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command", [("twist", "verify"), ("cz", "kernel-check"),
                                     ("cz", "cover")])
@pytest.mark.parametrize("half_width", ["inf", "nan", "1e308"])
def test_non_finite_half_width_exits_2(command, half_width):
    out = run_cli(*command, "--grid", f"{half_width},16")
    assert out.returncode == 2
    assert "half width must be finite and positive" in out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("action", ["cover", "decompose", "weak11", "kernel-check"])
def test_cell_volume_past_the_largest_double_exits_2(action):
    # h = 1.25e299 is finite, h^2 is not.
    out = run_cli("cz", action, "--grid", "1e300,16")
    assert out.returncode == 2
    assert ("the box L = 1e+300, N = 16 has a cell volume h^2 past the largest double"
            in out.stderr)
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("action", ["cover", "decompose", "weak11", "kernel-check"])
def test_cell_volume_that_underflows_exits_2(action):
    # h = 6.25e-302 is positive, h^2 underflows to 0.0.
    out = run_cli("cz", action, "--grid", "1e-300,32")
    assert out.returncode == 2
    assert ("the box L = 1e-300, N = 32 has a cell volume h^2 that underflows to zero"
            in out.stderr)
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command", [("twist", "conv"), ("twist", "pedersen"),
                                     ("twist", "delta"), ("cz", "multiplier"),
                                     ("cz", "kernel-check"), ("cz", "weak11")])
@pytest.mark.parametrize("half_width", ["1e154", "6e153"])
def test_squared_diagonal_past_the_largest_double_exits_2(command, half_width):
    # h^2 is finite at both; (2L)^2 overflows at 1e154, and 2 (2L)^2, the
    # squared norm of the longest node offset, at 6e153.
    out = run_cli(*command, "--grid", f"{half_width},16")
    assert out.returncode == 2
    assert (f"the box L = {float(half_width):g}, N = 16 has a squared diagonal "
            "2*(2L)^2 past the largest double" in out.stderr)
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args, message", [
    (("cz", "decompose", "--grid", "8,32", "--alpha", ""), "could not convert string to float"),
    (("cz", "kernel-check", "--grid", "8,32", "--c2", ""), "could not convert string to float"),
    (("orbit", "--algebra", "h3", "--xi0", ""), "not a rational"),
])
def test_empty_option_value_exits_2(args, message):
    # An empty value is parsed, not taken for the option's absence.
    out = run_cli(*args)
    assert out.returncode == 2
    assert message in out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args", [("twist", "conv", "--symbol", ""),
                                  ("twist", "conv", "--symbol2", ""),
                                  ("twist", "delta", "--out", "")])
def test_empty_path_exits_3(args):
    out = run_cli(*args, "--grid", "8,32")
    assert out.returncode == 3
    assert "No such file or directory: ''" in out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


def test_c2_whose_products_overflow_warns_nothing():
    # c2 = 3e307 is finite and above 2 quasi, and c2 m(u) overflows to inf
    # for every u with m(u) > 6: no u is live, as for any c2 past max m.
    out = run_cli("cz", "kernel-check", "--grid", "8,16", "--c2", "3e307")
    assert out.returncode == 0
    assert out.stderr == ""
    checks = {c["name"]: c["value"] for c in json.loads(out.stdout)["checks"]}
    assert checks["hormander_estimate"] == 0.0


@pytest.mark.parametrize("command", [("twist", "verify"), ("twist", "pedersen"),
                                     ("twist", "conv"), ("twist", "delta"),
                                     ("cz", "multiplier")])
def test_grid_that_cannot_calibrate_exits_2(command):
    # h = 6.25e-302: the Gaussian probe's raw trace, about (2L)^2, would
    # underflow to zero, but the cell volume h^2 underflows first, and the
    # grid is refused before any calibration.  No box of N = 8-128 with a
    # nonzero cell volume has a zero raw trace.
    out = run_cli(*command, "--grid", "1e-300,32")
    assert out.returncode == 2
    assert ("the box L = 1e-300, N = 32 has a cell volume h^2 that underflows to zero"
            in out.stderr)
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("v", ["17,0", "-17,0", "0,17", "0,-17"])
def test_twist_delta_shift_beyond_the_grid_gives_zero_symbol(tmp_path, v):
    # h = 0.5 on an 8,32 grid, so each shift is 34 steps, more than N = 32:
    # the shifted symbol leaves the box, and norm preservation fails.
    import numpy as np
    from nilharm import fileio, funcs
    from nilharm.grids import Grid

    sym = funcs.sample(Grid(2, 8.0, 32), funcs.gaussian((0.5, -0.3)))
    sym_path = tmp_path / "g.json"
    sym_path.write_text(json.dumps(fileio.symbol_to_dict(sym)))  # no evaluator
    out_path = tmp_path / "out.json"
    out = run_cli("twist", "delta", "--grid", "8,32", "--symbol", str(sym_path),
                  f"--v={v}", "--out", str(out_path))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    statuses = {c["name"]: c["status"] for c in json.loads(out.stdout)["checks"]}
    assert statuses["norm_preservation"] == "fail"
    assert not np.any(fileio.load_symbol(str(out_path)).values)
