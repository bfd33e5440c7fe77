"""Golden digests of the fixed-seed CLI artifacts on both bundled scenarios.

A change that should leave every number where it was (a refactor, a
deletion) must keep these bytes: ``solve --trace`` writes ``policy.json``,
``trace.csv`` and ``report.json`` (digested without its two timings),
``rollout`` (seed 777, 3,000 samples) and ``mpc`` (seed 42, 2 episodes)
write ``stats.csv``, and the MPC manifest counts its replans and map
columns.  A 2-sample ``rollout --dump-trajectories`` (seed 777) is digested
as its files' bytes concatenated in name order, and ``report`` of the two
``stats.csv`` as its ``report.csv`` without the timing column ``comp_t``.
A change that moves a number on purpose re-takes the digests with
``python tests/test_golden.py`` and says so.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from ccgame import scenarios
from ccgame.cli import main

TIMINGS = ("solve_seconds", "wall_seconds")

GOLDEN = {
    "intersection-mini": {
        "policy.json": "960f5484ce97067e29425f98643199e52601bc24f111ea4cec4059586358e413",
        "trace.csv": "e357159143f24072cc10eceae3d42aa536be8ec60ed0a79d88dea4ae15cc16e3",
        "report.json": "c1baf2f85f3691050670b50c55ea203fd350d3cc899a1115805365d20205633d",
        "rollout/stats.csv": "08b8eeb9c14815ae4a498705c58c8b09f5c1cd19d832803ca824d568715b7bdd",
        "mpc/stats.csv": "ca392a2ab133a274d46cd8e9e1749df679336a8b104f6dfc3b14f9ce041c31bd",
        "dump/trajectories": "886d39833b14aa4f5ceaaee3b1e61d10e6b94d9579acc199ee137c75e6db94ea",
        "report/report.csv": "5c2d17cc63d430a86df85f2bf4fd682d2d6a5ad77c15e5f66e421cf91b61b48d",
        "replans": 40,
        "replans_with_active_rows": 13,
        "map_columns": 19,
    },
    "intersection": {
        "policy.json": "2ca6d2b23a0787726142f9947ff46ec576e074c1acda8355958ffcdd258a7402",
        "trace.csv": "ee607309c275b6729567cdd28d407f3a114561e076ca3944509cd3d867f59b2f",
        "report.json": "086da2397a4b52160195d43cb091446c6bef7494e88d694fdd46706b4cd3b98b",
        "rollout/stats.csv": "b64a1a0021b82826b2e0fba165866d3ab422edb1d1b8edcae66dc58433d910e7",
        "mpc/stats.csv": "49391e491d2680ea6b35279d5e49f3e8c7e9a6033000aecd35cf42e03c4f8ab2",
        "dump/trajectories": "75cf496d355b784ffa41cbcb2832de3abb42c508fd2dfb81c038e63c55d66f0b",
        "report/report.csv": "f6d878e81e7d473e5d36be70cf5873d1ce5227490f9a29fbbb78c36ee2bcc2ca",
        "replans": 100,
        "replans_with_active_rows": 27,
        "map_columns": 145,
    },
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def artifacts(name, out):
    """{artifact: sha256 or count} of the CLI's commands on a bundled scenario."""
    path = str(scenarios.bundled_path(name))
    out = Path(out)
    commands = (
        ["solve", "--scenario", path, "--trace", "--out", str(out / "solve")],
        ["rollout", "--scenario", path, "--policy", str(out / "solve" / "policy.json"),
         "--seed", "777", "--samples", "3000", "--out", str(out / "rollout")],
        ["mpc", "--scenario", path, "--seed", "42", "--samples", "2",
         "--out", str(out / "mpc")],
        ["rollout", "--scenario", path, "--policy", str(out / "solve" / "policy.json"),
         "--seed", "777", "--samples", "2", "--dump-trajectories", "--out", str(out / "dump")],
        ["report", str(out / "rollout" / "stats.csv"), str(out / "mpc" / "stats.csv"),
         "--out", str(out / "report")])
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
    dumps = sorted((out / "dump" / "trajectories").iterdir())
    got["dump/trajectories"] = _sha(b"".join(f.read_bytes() for f in dumps))
    # comp_t, the last cell of each line, is a timing
    merged = (out / "report" / "report.csv").read_bytes()
    got["report/report.csv"] = _sha(re.sub(rb",[^,\r\n]*(?=\r?\n)", b"", merged))
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
