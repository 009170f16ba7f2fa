from __future__ import annotations

import ast
from pathlib import Path

import mfhrr


def _package_nodes():
    sources = sorted(Path(mfhrr.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so an exact check written as one
    # would silently stop running; checks in the package raise instead
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_assertion_errors_raised_in_package():
    # a failed check raises the package's own error, which the CLI and the
    # per-entry handlers catch; an AssertionError would abort a whole run
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert found == []
