#!/usr/bin/env python3
"""List the functions of src/nilharm that the system never runs.

One ``sys.setprofile`` hook records every function entered while these run:
- every action of ``cli.build_parser()``, in process, on temporary input files;
- the six acceptance criteria (``verify.ACCEPTANCE_CRITERIA``);
- ``perfbench/workloads.run_battery`` for each benchmark workload, after its
  ``setup()``.

The script then prints each function and method defined in src/nilharm that
none of them entered, leaving out exception constructors, and each method
alias in a class body (``__radd__ = __add__``), which a profile hook cannot
see.  It exits 0 when that list is exactly HELD_BACK, and 1 otherwise.

    python scripts/dead_paths.py
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import io
import json
import pkgutil
import sys
import tempfile
from contextlib import redirect_stdout
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import nilharm  # noqa: E402
from nilharm import cli, fileio, funcs, verify  # noqa: E402
from nilharm.grids import Grid  # noqa: E402

# Only tests and perfbench/ call these; they leave src/ with the benchmark's
# own change.
HELD_BACK = ("exactlinalg.rank", "multipliers.multiplier_check",
             "seeds.random_fraction_vector")

GRID = "8,32"

INPUTS = {
    "h3.json": {"dim": 3, "brackets": [{"i": 2, "j": 3, "terms": [{"k": 1, "c": "-1"}]}],
                "labels": ["X1", "X2", "X3"]},
    "plane.json": {"dim": 2, "brackets": []},
    "form.json": {"dim": 2, "entries": [{"i": 1, "j": 2, "v": "1"}]},
    "graph.json": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
    "gaussian.json": fileio.symbol_to_dict(funcs.sample(Grid(2, 8.0, 32), funcs.gaussian())),
}


def commands(tmp: Path) -> list[list[str]]:
    """One argv per action, each optional input given at least once."""
    h3, plane, form, graph, sym = (str(tmp / name) for name in INPUTS)
    out = str(tmp / "out.json")
    return [
        *(["algebra", action, h3] for action in
          ("validate", "series", "flag", "derivations", "charnilp")),
        ["extend", plane, form],
        ["graph-lie", graph],
        ["catalog", "nonhomog", "--check", "charnilp"],
        ["catalog", "g0st", "--s", "2", "--t", "3", "--check", "cocycle"],
        ["catalog", "ext_nonhomog", "--a", "1", "--b", "2"],
        ["catalog", "abelian", "--n", "3"],
        ["orbit", "--algebra", h3],
        ["orbit", "--algebra", "h3", "--xi0", "1,0,0"],
        ["--timings", "twist", "conv", "--grid", GRID, "--symbol", sym, "--symbol2", sym,
         "--out", out],
        ["twist", "delta", "--grid", GRID, "--symbol", sym, "--v", "0,1", "--out", out],
        ["twist", "pedersen", "--grid", GRID, "--symbol", sym],
        ["twist", "verify", "--grid", GRID],
        ["cz", "cover", "--grid", GRID, "--alpha", "0.05", "--symbol", sym],
        ["cz", "decompose", "--grid", GRID, "--algebra", h3, "--xi0", "1,0,0"],
        ["cz", "kernel-check", "--grid", GRID, "--c2", "9"],
        ["cz", "weak11", "--grid", GRID],
        ["cz", "multiplier", "--grid", GRID],
        ["--seed", "1", "report", "--quick"],
    ]


def check_coverage(argvs: list[list[str]]) -> None:
    """Exit unless the argvs name every subcommand and every choice of its
    arguments."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    wanted = {(command, command) for command in sub.choices}
    wanted.update((command, choice) for command, parser in sub.choices.items()
                  for action in parser._actions for choice in action.choices or ())
    named = set()
    for argv in argvs:
        command = next(word for word in argv if word in sub.choices)
        named.update((command, word) for word in argv[argv.index(command):])
    if wanted - named:
        raise SystemExit(f"the sweep runs no command for {sorted(wanted - named)}")


def run_everything(tmp: Path) -> None:
    for name, doc in INPUTS.items():
        (tmp / name).write_text(json.dumps(doc))
    argvs = commands(tmp)
    check_coverage(argvs)
    with redirect_stdout(io.StringIO()):
        for argv in argvs:
            if cli.main(argv) not in (0, 1):
                raise SystemExit(f"nilharm {' '.join(argv)} did not run")
        for criterion in verify.ACCEPTANCE_CRITERIA:
            verify.run_criterion(criterion, seed=0)
    import workloads
    ctx = workloads.setup()
    for workload in workloads.WORKLOADS:
        battery = workloads.run_battery(workload, ctx, seed=0)
        if battery.errors:
            raise SystemExit(f"{workload} raised: {battery.errors}")


def _functions(member):
    """The plain functions behind a module or class attribute."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f]
    if isinstance(member, cached_property):
        return [member.func]
    member = inspect.unwrap(member) if callable(member) else member
    return [member] if inspect.isfunction(member) else []


def defined_functions():
    """(name, function, alias of) for every function that a module of
    src/nilharm defines at its top level or in a class body; ``alias of`` is
    the function's own name where the class binds it under another."""
    src = Path(nilharm.__file__).parent
    for info in pkgutil.iter_modules(nilharm.__path__):
        module = importlib.import_module(f"nilharm.{info.name}")
        for obj in vars(module).values():
            members = [(None, obj)]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [(attr, m) for attr, m in vars(obj).items()
                           if not (issubclass(obj, BaseException) and attr == "__init__")]
            for attr, member in members:
                for fn in _functions(member):
                    if Path(fn.__code__.co_filename).parent != src or \
                            (attr is None and fn.__module__ != module.__name__):
                        continue
                    alias = fn.__name__ if attr and fn.__name__ != attr else None
                    owner = f"{obj.__name__}.{attr}" if attr else fn.__qualname__
                    yield f"{info.name}.{owner}", fn, alias


def main() -> int:
    entered: set[int] = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(id(frame.f_code))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            run_everything(Path(tmp))
        finally:
            sys.setprofile(None)

    found = set()
    for name, fn, alias in defined_functions():
        if alias:
            found.add(f"{name} (alias of {alias})")
        elif id(fn.__code__) not in entered:
            found.add(name)
    for name in sorted(found):
        print(name)
    if tuple(sorted(found)) != HELD_BACK:
        print(f"expected exactly {', '.join(HELD_BACK)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
