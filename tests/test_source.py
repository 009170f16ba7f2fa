from __future__ import annotations

import ast
from pathlib import Path

import mfhrr


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so an exact check written as one
    # would silently stop running; checks in the package raise instead
    sources = sorted(Path(mfhrr.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
