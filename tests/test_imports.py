"""Import hygiene of the package: no unused imports, no dangling exports."""

import ast
import importlib
import pathlib

import pytest

import tricloud

SRC = pathlib.Path(tricloud.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(name bound in the module, line) of every import, module-level or local."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module != "__future__":
                    yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_exported_name_resolves():
    missing = [name for name in tricloud.__all__ if not hasattr(tricloud, name)]
    assert not missing, f"tricloud.__all__ names what the package does not bind: {missing}"


def test_oracles_bind_no_private_callable_of_the_package():
    # an oracle that calls the library's own helpers checks them against
    # themselves; frozen constants such as entropy._L may be shared
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    shared = [f"{node.module}.{alias.name}"
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module.startswith("tricloud")
              for alias in node.names
              if alias.name.startswith("_")
              and callable(getattr(importlib.import_module(node.module), alias.name))]
    assert not shared, f"tests/oracles.py binds private callables of tricloud: {shared}"
