"""Every name the benchmark traces or calls still resolves in the package.

``perfbench/tracing.py`` skips a function it cannot find, so a renamed layer
would read 0 in its per-layer metric and nothing would fail.  A name that the
workloads call directly fails only when the benchmark runs.  These tests read
the tracer's tables and the workload sources and fail instead.
"""

import ast
import functools
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING_PATH = _PERFBENCH / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING_PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr",
    [entry[1:3] for entry in tracing.FUNCTIONS],
    ids=[entry[0] for entry in tracing.FUNCTIONS],
)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize(
    "module, cls, attr",
    [entry[1:4] for entry in tracing.METHODS],
    ids=[entry[0] for entry in tracing.METHODS],
)
def test_traced_method_resolves(module, cls, attr):
    # the tracer patches the class's own __dict__ entry, not an inherited one
    assert attr in vars(getattr(importlib.import_module(module), cls))


def _module_named_by(node, bound):
    """The package module an expression evaluates to, or None.

    Recognises ``_pkg("<module>")``, ``sys.modules["semecs.<module>"]`` and a
    local name bound to either.
    """
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_pkg" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)):
        return "semecs." + node.args[0].value
    if (isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules"
            and isinstance(node.slice, ast.Constant)
            and str(node.slice.value).startswith("semecs.")):
        return node.slice.value
    return None


def _benchmark_names():
    """Sorted (module, dotted attribute) pairs the benchmark reads from the package."""
    names = set()
    for path in (_PERFBENCH / "workloads.py", _PERFBENCH / "run.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            bound = {}
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = [(target, node.value)]
                        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                            pairs = zip(target.elts, node.value.elts)
                        for name, value in pairs:
                            module = _module_named_by(value, bound)
                            if module and isinstance(name, ast.Name):
                                bound[name.id] = module
            attributes = [n for n in ast.walk(func) if isinstance(n, ast.Attribute)]
            inner = {id(n.value) for n in attributes}
            for node in attributes:
                if id(node) in inner:
                    continue  # part of a longer chain, checked with it
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                module = _module_named_by(node, bound)
                if module:
                    names.add((module, ".".join(reversed(chain))))
        # the source of child processes: "from semecs import a, b\n..."
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for line in re.findall(r"^from semecs import (.+)$", node.value, re.M):
                    names.update(("semecs", n.strip()) for n in line.split(","))
    return sorted(names)


_BENCHMARK_NAMES = _benchmark_names()


def test_benchmark_name_scan_sees_every_kind_of_reference():
    modules = {module for module, _ in _BENCHMARK_NAMES}
    assert {"semecs", "semecs.cli", "semecs.keystore", "semecs.semecs"} <= modules
    assert ("semecs.keystore", "atomic_write") in _BENCHMARK_NAMES  # via sys.modules


@pytest.mark.parametrize(
    "module, dotted", _BENCHMARK_NAMES, ids=[".".join(n) for n in _BENCHMARK_NAMES]
)
def test_benchmark_name_resolves(module, dotted):
    functools.reduce(getattr, dotted.split("."), importlib.import_module(module))
