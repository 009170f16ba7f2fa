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


def _unused_imports(path):
    """Names a module imports and never reads: every name that an import
    binds, other than __future__ features, must occur as a name node."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(bound.items())
            if name not in read]


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


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


class _ReadNames(dict):
    """An empty span table that records every name looked up in it."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return default


# span names that Tracer.metrics() reads although no function carries them;
# each is a known stale metric, named with the ROADMAP item that mends it
KNOWN_STALE_SPANS = {
    "groebner.module_kernel": "ROADMAP item 1: the Ext path builds its graph "
                              "bases through groebner.matrix_graph",
}


def test_traced_methods_exist():
    # bench/tracer.py wraps these methods on their classes by name: a
    # refactor that renames or moves one would break the traced benchmark
    tracer = _bench_tracer()
    named = [*tracer.METHODS, *tracer.COUNTED]
    assert named
    missing = [key for key in named
               if key[2] not in vars(getattr(
                   importlib.import_module(f"mfhrr.{key[0]}"), key[1], object))]
    assert missing == []
    # it names a function's span module.function from the function's own
    # __module__ and __name__, and metrics() reads spans by that name: a
    # function renamed, or moved to another module, would make its metric
    # read 0 with no error
    spans = _ReadNames()
    reader = tracer.Tracer()
    reader.totals = lambda: spans
    reader.metrics()
    functions = sorted(spans.read - set(tracer.METHODS.values()))
    assert "pairing.phi_eta_suite" in functions
    unresolved = []
    for name in functions:
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"mfhrr.{module}"), attr, None)
        if (not callable(obj) or isinstance(obj, type)
                or (obj.__module__, obj.__name__) != (f"mfhrr.{module}", attr)):
            unresolved.append(name)
    assert unresolved == sorted(KNOWN_STALE_SPANS)


def test_no_unused_imports():
    # an import nothing reads is dead weight, and in a test it hides what
    # the test really exercises
    package = Path(mfhrr.__file__).parent
    sources = sorted([*package.glob("*.py"), *Path(__file__).parent.glob("*.py")])
    found = [hit for path in sources for hit in _unused_imports(path)]
    assert found == []
