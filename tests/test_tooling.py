"""Static checks on the package source, using only the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

import qkdroute

SRC = Path(qkdroute.__file__).resolve().parent


def test_all_names_resolve():
    missing = [name for name in qkdroute.__all__ if not hasattr(qkdroute, name)]
    assert missing == []


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
        path.name: _unused_imports(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in unused.items() if found} == {}
