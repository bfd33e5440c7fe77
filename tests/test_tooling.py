"""Repository tooling: the benchmark's tracing shims must name functions the
library still has, the bundled scenario files must be what their builders
write, and the README's scenario example must load."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccgame.dualascent import prepare_game
from ccgame.model import scenario_from_dict, validate_scenario

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


def test_readme_scenario_example_loads():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    scenario = validate_scenario(scenario_from_dict(doc))
    prep = prepare_game(scenario)
    assert prep.M > 0
    per_agent = doc["dynamics"]["noise"]["per_agent_diag"]
    assert np.array_equal(scenario.dynamics.W, np.diag(np.tile(per_agent, 2)))
    q_terminal = scenario.costs[1].Q[-1]
    assert np.array_equal(q_terminal[4:8, 4:8], np.diag([30.0, 30.0, 0.0, 2.0]))
    assert np.count_nonzero(q_terminal) == 3
    box = scenario.constraints[1]
    assert box.rows() == [(3, "lower", 0.0), (3, "upper", 3.0)]
    assert np.array_equal(scenario.constraints[0].C, np.diag([1.0, 1.0, 0.0, 0.0]))
