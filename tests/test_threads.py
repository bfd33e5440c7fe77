"""The determinism contract across BLAS thread counts: the bundled ``solve``,
``rollout`` and ``mpc`` artifacts (``test_golden.artifacts``) are the same
with one OpenBLAS thread and with two, and so are the states and inputs of a
many-episode central-MPC call, whose stacked column passes are hundreds of
columns wide.

Three diagnostics are exempt.  L (``lipschitz``), the step ``eta`` drawn
from it and ``asymmetry`` read the full G through ``np.linalg.norm`` (a
threaded BLAS dot) and ``eigvalsh``, and their last digit moves with the
thread count (on ``intersection``, L is 182.97137016301892 with one thread
and 182.97137016301895 with two).  So ``report.json`` is compared without
them and the two timings, and ``trace.csv`` without its ``eta`` column.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, TIMINGS

ROOT = Path(__file__).resolve().parents[1]
THREAD_DEPENDENT = ("lipschitz", "eta", "asymmetry")


def _run(threads, code, *args):
    """The JSON that ``code`` prints, run in a subprocess with ``threads``
    OpenBLAS threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                                          os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         check=True, capture_output=True, text=True, cwd=ROOT, timeout=600)
    return json.loads(run.stdout)


def _artifacts(name, out, threads):
    """Digests and counts of ``test_golden.artifacts`` with ``threads``
    OpenBLAS threads, the files written under ``out``."""
    return _run(threads, "import json, sys, test_golden; "
                "json.dump(test_golden.artifacts(sys.argv[1], sys.argv[2]), sys.stdout)",
                name, str(out))


def _report(out):
    report = json.loads((out / "solve" / "report.json").read_text())
    for key in TIMINGS + THREAD_DEPENDENT:
        report.pop(key)
    return report


def _trace(out):
    with open(out / "solve" / "trace.csv", newline="") as fh:
        return [{k: v for k, v in row.items() if k != "eta"} for row in csv.DictReader(fh)]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_do_not_depend_on_the_blas_thread_count(name, tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    got = {out: _artifacts(name, out, threads) for out, threads in ((one, 1), (two, 2))}
    for key in ("policy.json", "rollout/stats.csv", "mpc/stats.csv", "replans",
                "replans_with_active_rows", "map_columns"):
        assert got[one][key] == got[two][key], key
    assert _report(one) == _report(two)
    assert _trace(one) == _trace(two)


def test_a_many_episode_mpc_call_does_not_depend_on_the_blas_thread_count():
    # 128 intersection-mini episodes at seed 777, one screen block: a replan
    # time's one pass carries every solving episode's columns, up to 384
    code = ("import hashlib, json, sys; from ccgame import scenarios, simulate; "
            "from ccgame.model import assemble_problem, validate_scenario; "
            "problem = assemble_problem(validate_scenario(scenarios.make_intersection_mini())); "
            "batch, failures, totals = simulate.central_mpc(problem, 777, 128); "
            "json.dump([hashlib.sha256(batch.states.tobytes()).hexdigest(), "
            "hashlib.sha256(batch.inputs.tobytes()).hexdigest(), len(failures), "
            "totals['replans_with_active_rows']], sys.stdout)")
    one, two = _run(1, code), _run(2, code)
    assert one == two and one[2] == 0 and one[3] > 128
