"""Repository tooling: the benchmark's tracing shims must name functions the
library still has, one round of each benchmark workload must pass its
checks, a traced solve must time the map's pass as the map's, a traced
rollout and MPC round must read their results, the traced memory peaks of a
prepare, a solve, a rollout and an MPC call stay under their guards, the bundled scenario
files must be what their builders write and expand to the full-form files
they replaced, the README's scenario example must load and its library
example must run as written, every `module.name` code span in the README
must resolve on the library, and the library has no unused import, no
private name, no public function or class that neither the library reads
nor the README names, and no line over 100 characters."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ccgame import scenarios
from ccgame.dualascent import prepare_game, run_dual_ascent
from ccgame.model import (load_scenario, save_scenario, scenario_from_dict,
                          validate_scenario)
from ccgame.simulate import central_mpc, rollout

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
DATA = ROOT / "src" / "ccgame" / "data"
SRC = ROOT / "src" / "ccgame"


def _shims():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SHIMS


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _ in _shims()])
def test_every_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"ccgame.{module}"), function))


def _one_round(workload, trace):
    """The result line of one benchmark round of ``workload`` at seed 1."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["solve-intersection", "rollout-intersection",
                                      "mpc-mini"])
def test_benchmark_workload_passes_its_checks(workload):
    # one round: the benchmark's own oracles judge the library's outputs
    result = _one_round(workload, 0)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1


def test_traced_solve_times_the_map_pass():
    # one traced round of the solve workload: the map's one zeta pass runs in
    # estimate_affine_map, so the traced map time holds all of affine_response
    result = _one_round("solve-intersection", 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["dualascent.map_s"] > 0
    assert metrics["lqnash.affine_response_calls"] >= 1
    assert metrics["dualascent.map_s"] >= metrics["lqnash.affine_response_s"] > 0


@pytest.mark.parametrize("workload, metric, value", [
    ("rollout-intersection", "simulate.rollout_samples", 2000),
    ("mpc-mini", "simulate.replans", 40),
    ("mpc-mini", "lqnash.integrate_expected_calls", 0)])
def test_traced_round_reads_its_results(workload, metric, value):
    # the shims read the traced results: simulate.rollout's samples,
    # central_mpc_run's replans and failures, assemble_constraints' rows;
    # an MPC replan integrates no mean (the 12 of the 40 that were active
    # did, before a report's mean was computed when first read)
    result = _one_round(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"][metric]["value"] == value

def _traced_peak_mib(fn):
    """The tracemalloc peak of fn() after one untraced warm-up call: numpy
    reports its buffers to tracemalloc, and the figure does not move with the
    allocator's mmap threshold as the benchmark's peak RSS does."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_memory_of_one_intersection_prepare_and_solve():
    # guards fixed against 4.05 and 9.94 MiB with the dense (T n_x, M) rows;
    # the solve's, against 6.63 MiB with the full (M, M) map built per solve
    vs = validate_scenario(load_scenario(scenarios.bundled_path("intersection")))
    prep, prepare_peak = _traced_peak_mib(lambda: prepare_game(vs))
    _, solve_peak = _traced_peak_mib(lambda: run_dual_ascent(prep))
    assert prepare_peak <= 1.0
    assert solve_peak <= 1.5


def test_memory_of_one_intersection_rollout():
    # guard fixed at 15.6 MiB, the peak with the closed-loop step on 256-sample
    # chunks of drawn noise; the batch's own states and inputs are 13.9 MiB
    vs = validate_scenario(load_scenario(scenarios.bundled_path("intersection")))
    prep = prepare_game(vs)
    policy = run_dual_ascent(prep).policy
    _, peak = _traced_peak_mib(lambda: rollout(prep.problem, policy, seed=5, samples=2000))
    assert peak <= 15.6


def test_memory_of_one_intersection_mpc_call():
    # guard fixed at 10 MiB against 9.05 MiB with a covariance and transition
    # products built per replan time, and 11.71 MiB with them in one square
    # (T, T+1, ...) array per schedule; one ragged buffer each reads 8.91 MiB
    problem = prepare_game(validate_scenario(
        load_scenario(scenarios.bundled_path("intersection")))).problem
    _, peak = _traced_peak_mib(lambda: central_mpc(problem, seed=3, samples=2))
    assert peak <= 10.0


def test_memory_of_a_100_episode_intersection_mpc_call():
    # guard fixed at 32 MiB before measuring, from an estimate of 26 MiB: the
    # 2-episode call's 9 MiB plus the lockstep screen at tau = 0, whose 100
    # episodes' rows l and gathered means are (100, 750, 12) each (7.2 MB);
    # it reads 22.0 MiB, 29.9 MiB while a replan time's rows outlived it
    problem = prepare_game(validate_scenario(
        load_scenario(scenarios.bundled_path("intersection")))).problem
    _, peak = _traced_peak_mib(lambda: central_mpc(problem, seed=3, samples=100))
    assert peak <= 32.0


def test_bundled_scenarios_regenerate_byte_for_byte(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "ccgame.scenarios", str(tmp_path)],
                   check=True, env=env, capture_output=True)
    bundled = sorted(p.name for p in DATA.glob("*.json"))
    assert bundled == sorted(p.name for p in tmp_path.glob("*.json"))
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("make, digest", [
    (scenarios.make_intersection,
     "95910571cb70a147c34ec8533f73d99070a7bfa4e2994962802b56367245e23f"),
    (scenarios.make_intersection_mini,
     "8202b0c894489a968c4cae1b44d8bf00497d3cd08b07a9d7c09e28a9b656447e"),
], ids=["intersection", "intersection-mini"])
def test_bundled_documents_expand_to_the_full_form_files(make, digest, tmp_path):
    # the loader's expansion of a bundled shorthand document, written in the
    # lossless full form, is byte for byte the full-form file that numpy
    # builders wrote before the files became shorthand
    path = tmp_path / "full.json"
    save_scenario(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    rate, wilson_hi, residual = map(float, capsys.readouterr().out.split())
    assert 0.0 <= rate <= wilson_hi <= 1.0
    assert 0.0 <= residual <= 1e-6


def test_readme_module_references_resolve():
    # a code span that starts `module.name` or `module.name.member`, on a
    # module of the library and called or not, names an attribute that
    # ccgame.<module> has: a renamed or deleted name leaves no stale span
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"),
                    flags=re.S)
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    calls = (re.fullmatch(r"(\w+)((?:\.\w+){1,2})(?:\(.*\))?", span, re.S)
             for span in re.findall(r"`([^`]*)`", readme))
    spans = [m.groups() for m in calls if m and m.group(1) in modules]
    missing = []
    for module, path in spans:
        target = importlib.import_module(f"ccgame.{module}")
        for name in path[1:].split("."):
            target = getattr(target, name, None)
        missing += [f"{module}{path}"] if target is None else []
    assert len(spans) >= 9 and not missing, f"README spans that do not resolve: {missing}"


def test_src_has_no_unused_imports_or_private_names():
    # a lint with no linter dependency: each module-level import is
    # read in its module (``# noqa: F401`` re-exports excepted), and each
    # module-level _private function, class or constant is read somewhere
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loads = {name: {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for name, tree in trees.items()}
    reads = set().union(*loads.values())
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    unused, unread = [], []
    for name, tree in trees.items():
        lines = sources[name].splitlines()
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if (getattr(node, "module", None) == "__future__"
                        or "noqa: F401" in lines[node.lineno - 1]):
                    continue
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{name}: {b}" for b in bound if b not in loads[name]]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign)):
                defined = ([node.name] if not isinstance(node, ast.Assign)
                           else [t.id for t in node.targets if isinstance(t, ast.Name)])
                unread += [f"{name}: {d}" for d in defined
                           if d.startswith("_") and not d.startswith("__") and d not in reads]
    assert not unused, f"unused imports: {unused}"
    assert not unread, f"private names read nowhere: {unread}"


def test_src_lines_fit_in_100_characters():
    # the library's size is counted in lines, so a line may not grow to save one
    long = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert not long, f"lines over 100 characters: {long}"


def test_only_the_cli_model_and_scenarios_touch_files():
    # cli owns the artifacts it writes and reads back, model the scenario
    # files and scenarios the bundled documents; every other module returns
    # values, so it imports neither csv nor os and calls no builtin open
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cli.py", "model.py", "scenarios.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module.split(".")[0]]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [f"{node.func.id}()"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in ("csv", "os", "open()")]
    assert not found, f"file access outside cli, model and scenarios: {found}"


def test_every_public_function_and_class_in_src_is_read():
    # a module-level public function or class in src/ccgame is read by a
    # src/ module outside its own definition (by name, attribute, import or
    # an identifier string), or README.md names it as a word; __init__.py's
    # re-exports, tests/ and perfbench/ do not count, so a name that only
    # they read is an API that the library does not use or document
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    public = []
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    public.append(f"{path.name}: {own}")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value] if node.value.isidentifier() else []
                else:
                    continue
                read.update(name for name in names if name != own)
    unread = [entry for entry in public if entry.split(": ")[1] not in read]
    assert not unread, f"public names that src/ reads nowhere: {unread}"


def test_every_public_member_of_a_public_class_in_src_is_read():
    # a public method, property or dataclass field of a public class in
    # src/ccgame is read by a src/ module (as an attribute or an identifier
    # string), or README.md names it in a code span: a member is often a
    # common word, so prose does not document it.  A member that only tests/
    # or perfbench/ reads is an API that the library does not use or document
    read = {word for span in re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text(
        encoding="utf-8")) for word in re.findall(r"\w+", span)}
    members = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
                continue
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.append(f"{path.name}: {top.name}.{name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update([node.value] if node.value.isidentifier() else [])
    unread = [entry for entry in members if entry.rsplit(".", 1)[1] not in read]
    assert not unread, f"public members that src/ reads nowhere: {unread}"
