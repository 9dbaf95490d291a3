"""The package's public surface: each module declares the names it
defines in its own `__all__`, the package root exports exactly their
union, the README names each exported name, and the README's library and
CLI examples run against it."""

import ast
import importlib
import pkgutil
import re
import shlex
import types
from pathlib import Path

import pytest

import pebbletools
from pebbletools.cli import main

README = Path(__file__).parent.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(pebbletools.__path__)
                 if m.name != "cli")


def _top_level_bindings(module) -> set[str]:
    """Names a module binds at its top level by def, class or assignment."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_each_module_declares_what_it_defines():
    """Each module's `__all__` is a list of distinct public names it
    defines itself; no name is declared by two modules, and the package
    exports their union and `__version__`, nothing else."""
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"pebbletools.{name}")
        declared = module.__all__
        assert isinstance(declared, list), name
        assert len(set(declared)) == len(declared), name
        assert not [n for n in declared if n.startswith("_")], name
        defined = _top_level_bindings(module)
        assert set(declared) <= defined, (name, set(declared) - defined)
        for n in declared:
            assert n not in owner, (n, owner.get(n), name)
            owner[n] = name
            assert getattr(pebbletools, n) is getattr(module, n), n
    assert sorted(pebbletools.__all__) == sorted([*owner, "__version__"])


def _scopes():
    """(`module.qualname`, node) for each top-level function, and method
    of a top-level class, in src/pebbletools, nested functions included
    in its node; `module.<module>` for each other top-level statement."""
    for path in sorted(Path(pebbletools.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{node.name}"
                           if isinstance(node, ast.FunctionDef) else top.name,
                           node) for node in top.body]
            elif isinstance(top, ast.FunctionDef):
                scopes = [(top.name, top)]
            else:
                scopes = [("<module>", top)]
            for qualname, node in scopes:
                yield f"{path.stem}.{qualname}", node


def _callers(name: str) -> set[str]:
    """Each scope (`_scopes`) whose body calls `name(...)`."""
    return {qualname for qualname, node in _scopes()
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and name in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None))}


def test_one_cap_refusal_and_one_search_stop():
    """A SizeLimitError means "refused before any work": only
    `errors._check_cap` builds one.  A search that has started stops with
    a BudgetError built in one of two places: the layer scanner's `stop`,
    which gives it both bounds, and the engine's reachability search."""
    assert _callers("SizeLimitError") == {"errors._check_cap"}
    assert _callers("BudgetError") == {"invariants._LayerScanner.stop",
                                       "engine._reach"}


def test_one_place_turns_a_stopped_search_into_a_row():
    """A sweep's search stopped by a budget or a cap becomes a row in
    `cli._row` alone: it holds the package's one `except` clause that
    catches BudgetError and SizeLimitError together."""
    both = {"BudgetError", "SizeLimitError"}
    handlers = [qualname for qualname, node in _scopes()
                for handler in ast.walk(node)
                if isinstance(handler, ast.ExceptHandler) and handler.type
                and both <= {getattr(n, "id", None) for n in ast.walk(handler.type)}]
    assert handlers == ["cli._row"]


def test_each_refusal_has_one_raise_site():
    """Each message of a raised error, a string or f-string first argument
    of the raised call, is written at one raise site: a rule copied to two
    places can drift apart."""
    sites = {}
    for qualname, node in _scopes():
        for raised in ast.walk(node):
            message = (raised.exc.args[0] if isinstance(raised, ast.Raise)
                       and isinstance(raised.exc, ast.Call) and raised.exc.args
                       else None)
            if (isinstance(message, ast.JoinedStr)
                    or isinstance(getattr(message, "value", None), str)):
                sites.setdefault(ast.unparse(message), []).append(qualname)
    repeated = {message: where for message, where in sites.items()
                if len(where) > 1}
    assert not repeated, repeated


def test_all_matches_the_public_names():
    for name in pebbletools.__all__:
        assert hasattr(pebbletools, name), name
    public = {name for name, value in vars(pebbletools).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(pebbletools.__all__), public - set(pebbletools.__all__)


def test_readme_names_every_exported_name():
    """Each exported name appears in README.md inside a code span, so no
    export goes undocumented."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    missing = set(pebbletools.__all__) - named - {"__version__"}
    assert not missing, sorted(missing)


def test_readme_library_example_runs():
    section = README.read_text().split("## Library at a glance", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})


def _readme_cli_lines():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_example_runs(capsys, argv):
    assert argv[0] == "pebbletools"
    assert main(argv[1:]) == 0
