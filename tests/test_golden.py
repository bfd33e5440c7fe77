"""Golden digests of the fixed-seed CLI artifacts on both bundled scenarios.

A change that should leave every number where it was (a refactor, a
deletion) must keep these bytes: ``solve --trace`` writes ``policy.json``,
``trace.csv`` and ``report.json`` (digested without its two timings),
``rollout`` (seed 777, 3,000 samples) and ``mpc`` (seed 42, 2 episodes)
write ``stats.csv``, and the MPC manifest counts its replans and map
columns.  A change that moves a number on purpose re-takes the digests with
``python tests/test_golden.py`` and says so.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from ccgame import scenarios
from ccgame.cli import main

TIMINGS = ("solve_seconds", "wall_seconds")

GOLDEN = {
    "intersection-mini": {
        "policy.json": "451e33e50ed3559385bc20c1f82ee449caf7c619e0bfffbe3bf6717a88db06fa",
        "trace.csv": "e357159143f24072cc10eceae3d42aa536be8ec60ed0a79d88dea4ae15cc16e3",
        "report.json": "c1baf2f85f3691050670b50c55ea203fd350d3cc899a1115805365d20205633d",
        "rollout/stats.csv": "08b8eeb9c14815ae4a498705c58c8b09f5c1cd19d832803ca824d568715b7bdd",
        "mpc/stats.csv": "ad288708c8483cef781043bc6c810642b1fceb0886d3aed108909eadbe22b854",
        "replans": 40,
        "replans_with_active_rows": 13,
        "map_columns": 19,
    },
    "intersection": {
        "policy.json": "9631345bd025ec32d15f3602827025bced20e47e1bb64f52509d7f213c950f58",
        "trace.csv": "ee607309c275b6729567cdd28d407f3a114561e076ca3944509cd3d867f59b2f",
        "report.json": "086da2397a4b52160195d43cb091446c6bef7494e88d694fdd46706b4cd3b98b",
        "rollout/stats.csv": "b64a1a0021b82826b2e0fba165866d3ab422edb1d1b8edcae66dc58433d910e7",
        "mpc/stats.csv": "49391e491d2680ea6b35279d5e49f3e8c7e9a6033000aecd35cf42e03c4f8ab2",
        "replans": 100,
        "replans_with_active_rows": 27,
        "map_columns": 145,
    },
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def artifacts(name, out):
    """{artifact: sha256 or count} of the three commands on a bundled scenario."""
    path = str(scenarios.bundled_path(name))
    out = Path(out)
    commands = (
        ["solve", "--scenario", path, "--trace", "--out", str(out / "solve")],
        ["rollout", "--scenario", path, "--policy", str(out / "solve" / "policy.json"),
         "--seed", "777", "--samples", "3000", "--out", str(out / "rollout")],
        ["mpc", "--scenario", path, "--seed", "42", "--samples", "2",
         "--out", str(out / "mpc")])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    report = json.loads((out / "solve" / "report.json").read_text())
    for key in TIMINGS:
        report.pop(key)
    manifest = json.loads((out / "mpc" / "manifest.json").read_text())
    got = {f: _sha((out / "solve" / f).read_bytes()) for f in ("policy.json", "trace.csv")}
    got["report.json"] = _sha(json.dumps(report, sort_keys=True).encode())
    got["rollout/stats.csv"] = _sha((out / "rollout" / "stats.csv").read_bytes())
    got["mpc/stats.csv"] = _sha((out / "mpc" / "stats.csv").read_bytes())
    got.update({k: manifest[k] for k in ("replans", "replans_with_active_rows",
                                         "map_columns")})
    return got


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_artifacts_match_their_digests(name, tmp_path):
    assert artifacts(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    for name in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            json.dump({name: artifacts(name, tmp)}, sys.stdout, indent=4)
            print()
