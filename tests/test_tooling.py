"""Static checks on the package source and the tools that drive it."""

from __future__ import annotations

import argparse
import ast
import functools
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkdroute

from conftest import NETWORKS_DIR

SRC = Path(qkdroute.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MUTANTS = Path(__file__).resolve().parent.parent / "mutants"


def _child_env() -> dict:
    """The environment for a child interpreter that imports this source tree."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


def test_all_names_resolve():
    missing = [name for name in qkdroute.__all__ if not hasattr(qkdroute, name)]
    assert missing == []


def _names_read(path: Path) -> set:
    """Names a file loads, imports, reads as an attribute or spells as a string."""
    return _names_in(ast.parse(path.read_text()))


def _names_in(tree: ast.AST) -> set:
    """Names a syntax tree loads, imports, reads as an attribute or spells as
    a string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _public_methods() -> list:
    """Every public method and property of the package's classes, as
    ``Class.name``, but for those that override one of a base class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        classes = [node for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.ClassDef)]
        if not classes:
            continue
        module = importlib.import_module(f"qkdroute.{path.stem}")
        for node in classes:
            bases = getattr(module, node.name).__mro__[1:]
            found += [
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                and not any(hasattr(base, item.name) for base in bases)
            ]
    return found


def test_every_public_name_is_used_outside_the_tests():
    # a public helper or method that only tests call is a candidate for
    # deletion; its own definition and the re-export in __init__.py do not
    # count as uses.  A method that overrides a base class's, such as
    # cli._Parser.error, is called through the base class.
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [*DEMOS.glob("*.py"), *PERFBENCH.glob("*.py")]
    read = set().union(*map(_names_read, files))
    assert [name for name in qkdroute.__all__ if name not in read] == []
    methods = _public_methods()
    assert "KeySimulation.record_block" in methods
    assert [name for name in methods if name.rsplit(".", 1)[1] not in read] == []


def _defined(statement: ast.stmt) -> set:
    """The public names a top-level statement defines or assigns."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
    else:
        names = set()
    return {name for name in names if not name.startswith("_")}


def test_code_no_command_runs_is_the_listed_reference_api():
    # the public top-level names of the library that no other module and no
    # demo reads, counting a read only where it lies in code that is read
    # itself: the object-level API kept for the benchmark's tracer, which
    # wraps it by name, and no other dead helper
    readers = [
        (_defined(statement), _names_in(statement))
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
        for statement in ast.parse(path.read_text()).body
    ]
    readers += [(set(), _names_read(path)) for path in DEMOS.glob("*.py")]
    public = set().union(*(defined for defined, _ in readers))
    live = set()
    while True:
        # imports, private helpers, module code and demos always run
        read = set().union(*(names - defined for defined, names in readers
                             if not defined or defined & live))
        if read & public <= live:
            break
        live |= read & public
    assert public - live == {
        "GuardViolation", "PairPathCache", "apply_increment",
        "enumerate_m_path_sets", "enumerate_simple_paths", "set_deficiency",
    }


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names re-exported through __all__ count as used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_top_level_imports():
    unused = {
        f"{path.parent.name}/{path.name}": _unused_imports(ast.parse(path.read_text()))
        for folder in (SRC, DEMOS, TESTS) for path in sorted(folder.glob("*.py"))
    }
    assert {name: found for name, found in unused.items() if found} == {}


def test_cli_constructs_no_format_error():
    # format checks live in netfile and artifacts; the CLI only dispatches
    tree = ast.parse((SRC / "cli.py").read_text())
    built = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "NetworkFormatError"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert built == []


def test_cli_main_handles_only_the_input_and_runtime_errors():
    # out-of-range numbers are refused where they enter, as one of these
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught.update(ast.unparse(t).rsplit(".", 1)[-1] for t in types)
    assert caught == {"NetworkFormatError", "ValidationError", "ValueError",
                      "CapacityError", "OSError"}


def test_keysim_draws_no_integers():
    # pools come from raw generator words; integers(0, 2) would spend a
    # 32-bit word on every four key bits
    tree = ast.parse((SRC / "keysim.py").read_text())
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "integers"
    ]
    assert calls == []


def test_netfile_translates_value_errors_in_one_handler():
    # one boundary, netfile._format_errors, turns every TypeError or
    # ValueError (ValidationError and NetworkFormatError included) of the
    # package's readers into a NetworkFormatError; the JSON decode error of
    # the one file read is not counted
    translations = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught = {ast.unparse(t).rsplit(".", 1)[-1] for t in types}
                built = any(
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func).endswith("NetworkFormatError")
                    for statement in node.body for call in ast.walk(statement)
                )
                if built and caught & {"TypeError", "ValueError", "ValidationError",
                                       "NetworkFormatError"}:
                    translations.append(f"{path.name}:{node.lineno}")
    assert [site.split(":")[0] for site in translations] == ["netfile.py"], translations


def test_json_files_are_read_only_in_netfile():
    # netfile._read_json is the one read of every JSON input
    calls = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.loads"
    ]
    assert calls == ["netfile.py"]


def test_paths_defines_no_nested_function():
    # the enumerators loop over explicit stacks, so a path may be longer than
    # the recursion limit and no closure refers to itself
    tree = ast.parse((SRC / "paths.py").read_text())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = [
        inner.lineno
        for outer in ast.walk(tree) if isinstance(outer, functions)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, functions)
    ]
    assert nested == []


def test_no_function_takes_a_routing_list_and_its_effective_rates():
    # effective rates follow from the routing list (RoutingList.effective);
    # a second argument carrying them could disagree with it
    both = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                routed = any(
                    p.annotation is not None and "RoutingList" in ast.unparse(p.annotation)
                    for p in params
                )
                if routed and any(p.arg == "effective" for p in params):
                    both.append(f"{path.name}:{node.name}")
    assert both == []


class _ReadRecorder(argparse.Namespace):
    """Parsed arguments that remember which of them a command read."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._read = set()

    def __getattribute__(self, name: str):
        value = super().__getattribute__(name)
        if not name.startswith("_"):
            self._read.add(name)
        return value


def test_every_accepted_flag_is_read(tmp_path, capsys):
    # a flag that the parser accepts but its command ignores runs silently
    # with some other value; route runs first, so simulate has an artifact
    from qkdroute import cli

    k23 = str(NETWORKS_DIR / "k23.json")
    route_dir = str(tmp_path / "route")
    commands = [
        ["validate", "--input", k23],
        ["route", "--input", k23, "--out-dir", route_dir],
        ["paths", "--input", k23, "--pair", "0,4"],
        ["simulate", "--input", k23, "--routing", route_dir, "--tau", "1"],
    ]
    unread = {}
    for argv in commands:
        parsed = vars(cli.build_parser().parse_args(argv))
        args = _ReadRecorder(**parsed)
        assert cli._COMMANDS[parsed["command"]](args) == cli.EXIT_OK
        # main reads the command name to dispatch
        unread[argv[0]] = set(parsed) - args._read - {"command"}
    capsys.readouterr()
    assert unread == {argv[0]: set() for argv in commands}


# run in a fresh interpreter: numpy must not be loaded by the end of the
# command, and the names served from keysim must still resolve afterwards
_NUMPY_PROBE = """
import sys
import qkdroute
if sys.argv[1:]:
    from qkdroute import cli
    assert cli.main(sys.argv[1:]) == 0
assert "numpy" not in sys.modules, "numpy is loaded"
from qkdroute import keysim
assert qkdroute.simulate is keysim.simulate
assert qkdroute.KeySimulation is keysim.KeySimulation
assert issubclass(keysim.CapacityError, RuntimeError)
"""


@pytest.mark.parametrize("command", [
    [],
    ["validate", "--input", "{k23}"],
    ["route", "--input", "{k23}", "--out-dir", "{out}"],
    ["paths", "--input", "{k23}", "--pair", "0,4"],
], ids=["import", "validate", "route", "paths"])
def test_routing_commands_load_no_numpy(command, tmp_path):
    k23 = NETWORKS_DIR / "k23.json"
    argv = [arg.format(k23=k23, out=tmp_path / "route") for arg in command]
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv], capture_output=True, text=True,
        env=_child_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr


# each command, in a fresh interpreter, loads none of the modules listed for
# it but each of those it needs, and every package name resolves afterwards;
# "setup" imports the CLI and reads the network, as every command does first
_UNLOADED_PROBE = """
import sys
from qkdroute import cli
from qkdroute.netfile import load_network
unloaded, needed = (set(names.split(",")) for names in sys.argv[1:3])
command = sys.argv[3:]
if command[0] == "setup":
    load_network(command[1])
else:
    assert cli.main(command) == 0
loaded = sorted(unloaded & set(sys.modules))
assert not loaded, f"loaded: {loaded}"
assert needed <= set(sys.modules), f"not loaded: {sorted(needed - set(sys.modules))}"
import qkdroute
from qkdroute import run, MPathSet, find_unroutable_pairs
assert [name for name in qkdroute.__all__ if not hasattr(qkdroute, name)] == []
"""
# the routing loop and its tie-break stream; the artifact module with the
# hashing module only it uses; the key simulation with numpy; the dataclass
# machinery and the csv module, which no command needs.  numpy loads inspect
# itself.
_ENGINE = ("qkdroute.engine", "qkdroute.tiebreak")
_ARTIFACTS = ("qkdroute.artifacts", "hashlib")
_KEYSIM = ("qkdroute.keysim", "numpy")
_DATACLASSES = ("dataclasses", "inspect")


@pytest.mark.parametrize("command, unloaded, needed", [
    (["setup", "{k23}"],
     (*_ENGINE, "qkdroute.paths", *_ARTIFACTS, *_KEYSIM, *_DATACLASSES, "csv"),
     ("qkdroute.netfile",)),
    (["validate", "--input", "{k23}"],
     (*_ENGINE, *_ARTIFACTS, *_KEYSIM, *_DATACLASSES, "csv"), ("qkdroute.paths",)),
    (["paths", "--input", "{k23}", "--pair", "0,4"],
     (*_ARTIFACTS, *_KEYSIM, *_DATACLASSES, "csv"), _ENGINE),
    (["route", "--input", "{k23}", "--out-dir", "{out}"],
     (*_KEYSIM, *_DATACLASSES, "csv"), (*_ENGINE, *_ARTIFACTS)),
    (["simulate", "--input", "{k23}", "--routing", "{out}", "--tau", "1"],
     ("dataclasses", "csv"), (*_ENGINE, *_ARTIFACTS, *_KEYSIM)),
], ids=["setup", "validate", "paths", "route", "simulate"])
def test_each_command_loads_only_what_it_runs(command, unloaded, needed, tmp_path):
    k23, out = NETWORKS_DIR / "k23.json", tmp_path / "route"
    if command[0] == "simulate":
        from qkdroute import cli

        assert cli.main(["route", "--input", str(k23), "--out-dir", str(out)]) == 0
    argv = [arg.format(k23=k23, out=out) for arg in command]
    done = subprocess.run(
        [sys.executable, "-c", _UNLOADED_PROBE, ",".join(unloaded), ",".join(needed), *argv],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr


# the sha256 of each demo's stdout; a demo prints exactly what it printed
# when it was pinned
DEMO_STDOUT = {
    "capacity_plateau.py": "5c305dc54fbd3e5d330ed89e192acdcd0599764f01fc2eb83a7411b9f49ab482",
    "greedy_walkthrough.py": "d920c7c5c7e409e6283a7974aeade8eb1a0c6c941bd6a4f091f4630de8e97276",
    "key_relay.py": "1f5c50cbaa5ec01eaa673aeab9664485cb6fe18589d0aae5814a758ca9a7ffbc",
    "route_basics.py": "af1ed9f9644e8a42957c19b30b3fe9e27029123490ec0256fda1434828c0d3f0",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, env=_child_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT[demo], done.stdout.decode()


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the traced benchmark wraps these functions by name; a renamed helper
    # would fail only there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    missing = [
        tracer._span_name(owner, attr)
        for owner, attr, _ in tracer._targets()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_benchmark_tracer_sees_the_loop_kernels_through_the_module(monkeypatch, dense5):
    # the tracer times the loop's kernels by replacing them in the engine
    # module; a loop that bound them before the tracer was installed, or
    # inlined them, would leave the benchmark's per-layer counters at 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    from qkdroute import engine

    graph, target = dense5
    with tracer.Tracer().installed() as spy:
        out = engine.run(graph, target, qkdroute.RouterConfig(m=2, delta_r=100, seed=4))
    assert (out.stop_reason, out.iterations) == (engine.StopReason.CONVERGED, 4)
    calls = {name: spy.counts["calls:engine." + name]
             for name in ("run", "worst_pairs", "optimal_sets", "cost_delta")}
    # the pairs are scanned once per deficiency level, 200 and 100, and
    # cost_delta also gives the starting cost and the final 0; the rows
    # are ranked once per step
    assert calls == {"run": 1, "worst_pairs": 2, "optimal_sets": 4, "cost_delta": 3}


@functools.cache
def _test_functions(path: str) -> dict:
    """The top-level functions of a repository file, by name, parsed once."""
    tree = ast.parse((MUTANTS.parent / path).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_mutant_snippets_occur_once(monkeypatch):
    # mutants/run.py replaces each snippet; code that moves must take its
    # catalogue entry along, and every test named must still exist
    monkeypatch.syspath_prepend(str(MUTANTS))
    import catalogue

    counts = {
        mutant.name: (SRC.parent / mutant.file).read_text().count(mutant.snippet)
        for mutant in catalogue.MUTANTS
    }
    assert counts == {mutant.name: 1 for mutant in catalogue.MUTANTS}
    missing = [
        test_id for mutant in catalogue.MUTANTS for test_id in mutant.tests
        if test_id.split("::")[1] not in _test_functions(test_id.split("::")[0])
    ]
    assert missing == []


def test_every_mutant_has_a_killer_with_fixed_inputs(monkeypatch):
    # a derandomized @given test draws its examples from a seed that
    # Hypothesis takes from the test's source, so an edit to the test can
    # draw examples that no longer kill a mutant; a plain test, or an
    # @example on a @given one, runs the same inputs whatever is edited
    monkeypatch.syspath_prepend(str(MUTANTS))
    import catalogue

    def decorators(test_id):
        path, name = test_id.split("::")
        for decorator in _test_functions(path)[name].decorator_list:
            call = decorator.func if isinstance(decorator, ast.Call) else decorator
            yield call.id if isinstance(call, ast.Name) else call.attr

    drawn_only = [
        mutant.name for mutant in catalogue.MUTANTS
        if not any("given" not in names or "example" in names
                   for names in (set(decorators(test)) for test in mutant.tests))
    ]
    assert drawn_only == []
