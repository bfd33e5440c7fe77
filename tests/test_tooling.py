"""Repository tooling: the benchmark's tracing shims must name functions the
library still has, and the bundled scenario files must be what their builders
write."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
DATA = ROOT / "src" / "ccgame" / "data"


def _shims():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SHIMS


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _ in _shims()])
def test_every_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"ccgame.{module}"), function))


def test_bundled_scenarios_regenerate_byte_for_byte(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "ccgame.scenarios", str(tmp_path)],
                   check=True, env=env, capture_output=True)
    bundled = sorted(p.name for p in DATA.glob("*.json"))
    assert bundled == sorted(p.name for p in tmp_path.glob("*.json"))
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
