from __future__ import annotations

import ast
import importlib
import importlib.util
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


def test_traced_methods_exist():
    # bench/tracer.py wraps these methods on their classes by name: a
    # refactor that renames or moves one would break the traced benchmark
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = [*tracer.METHODS, *tracer.COUNTED]
    assert named
    missing = [key for key in named
               if key[2] not in vars(getattr(
                   importlib.import_module(f"mfhrr.{key[0]}"), key[1], object))]
    assert missing == []
