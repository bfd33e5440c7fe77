"""The benchmark's tracing shims must name functions the library still has."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _shims():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SHIMS


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _ in _shims()])
def test_every_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"ccgame.{module}"), function))
