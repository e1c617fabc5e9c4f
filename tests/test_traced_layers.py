"""Every layer the benchmark traces still resolves in the package.

``perfbench/tracing.py`` skips a function it cannot find, so a renamed layer
would read 0 in its per-layer metric and nothing would fail.  This test reads
the tracer's tables and fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
