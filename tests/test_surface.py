"""The library surface stays what the verifiers reach.

Every public module-level def or class of ``src/qsatake/``, and every public
method of such a class, must be referenced somewhere in the package, in the
acceptance suite or in the benchmark's span table; otherwise it is code that
no verifier, criterion or benchmark layer runs.  References are found by name
(a bare name, an attribute, an imported name or a string constant, outside the
definition itself); a method counts as referenced by an attribute or string of
its name only, so it shares those with every same-named attribute.
``__init__.py`` holds only the package docstring and ``__version__``; it
re-exports nothing, so library code imports from the modules themselves, as
the README's library example does, which runs here as written.  The package
also imports nothing outside the standard library, parses as Python 3.10,
the floor ``pyproject.toml`` declares, and its caches are
bounded and are the two character caches that a sweep rereads.  Every name
that only the acceptance suite or the span table calls is listed in the
README's library surface.
The installed command is ``cli.run``, as for ``python -m qsatake.cli``, and
since ``run`` ends the process with ``os._exit``, nothing registers
``atexit`` work.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "qsatake"
CALLERS = [
    REPO_ROOT / "tests" / "test_acceptance.py",
    REPO_ROOT / "perfbench" / "traced.py",
]

# Kept although nothing listed above calls them; each entry says why.  Code
# that only tests use lives in tests/ instead (modules.py, reports.py).
ALLOWED: set[str] = set()


def _package_trees() -> dict[str, ast.Module]:
    """Parsed modules of the package by name, without ``__init__``."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _public_definitions(trees: dict[str, ast.Module]):
    """(qualified name, definition node, module, keys that reference it)."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                keys = {node.name, "." + node.name}
                yield f"{module}.{node.name}", node, module, keys
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        # A method is reached through an attribute only.
                        keys = {"." + sub.name}
                        yield f"{module}.{node.name}.{sub.name}", sub, module, keys


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name that ``tree`` mentions, outside the subtree ``skip``: bare
    and imported names as ``name``, attributes as ``.name``, and string
    constants as both."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add("." + node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update((node.value, "." + node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unreferenced(callers=CALLERS) -> list[str]:
    trees = _package_trees()
    found = {module: _referenced_names(tree) for module, tree in trees.items()}
    for path in callers:
        found[path.name] = _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    out = []
    for qualified, node, home, keys in _public_definitions(trees):
        if any(keys & names for where, names in found.items() if where != home):
            continue
        if keys & _referenced_names(trees[home], skip=node):
            continue
        out.append(qualified)
    return out


def test_every_public_name_has_a_caller():
    orphans = [name for name in _unreferenced() if name not in ALLOWED]
    assert orphans == [], f"public names with no caller: {orphans}"


def test_allowlist_names_only_uncalled_definitions():
    # An entry that is gone, or that gained a caller, no longer needs to be here.
    assert sorted(set(_unreferenced()) & ALLOWED) == sorted(ALLOWED)


def test_readme_lists_every_name_without_a_package_caller():
    # A name that only the acceptance suite or the span table calls is kept
    # for that caller, which the README's library surface says.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Library surface\n", 1)[1].split("\n#", 1)[0]
    missing = [name for name in _unreferenced(callers=()) if f"`{name}`" not in section]
    assert missing == [], f"kept for a caller outside the package, not in README: {missing}"


def test_package_imports_only_the_standard_library():
    # The package has no runtime dependencies; test helpers stay outside it.
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == [], f"imports outside the standard library: {foreign}"


def test_package_parses_at_the_declared_python_floor():
    # pyproject.toml declares Python 3.10; a newer syntax (``except*``, say)
    # would parse under the interpreter that runs the tests and break there.
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=(3, 10))


def _caches() -> dict:
    """Every ``lru_cache`` the package defines, by ``module.name``."""
    caches = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"qsatake.{path.stem}")
        for name, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == module.__name__:
                caches[f"{path.stem}.{name}"] = value
    return caches


def test_every_cache_is_bounded():
    # Caches are keyed by value and hold a fixed number of entries.
    caches = _caches()
    unbounded = [name for name, f in caches.items() if f.cache_info().maxsize is None]
    assert unbounded == [], f"caches without a maxsize: {unbounded}"


def test_caches_are_the_ones_a_sweep_rereads():
    # Each serves a sweep that reads its keys again, named in its comment; a
    # value derived from an immutable object is kept on the object instead.
    assert sorted(_caches()) == ["characters.simple_char", "characters.standard_char"]


def test_installed_command_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"qsatake": "qsatake.cli:run"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    guard = tree.body[-1]  # if __name__ == "__main__": run()
    assert isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == ["run()"]


def test_package_registers_no_exit_handler():
    # os._exit skips atexit handlers, so none may hold work to finish.
    users = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "atexit" in _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert users == [], f"modules that use atexit: {users}"


def test_readme_library_example_runs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
