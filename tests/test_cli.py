import csv
import json

import numpy as np
import pytest

from ccgame import scenarios
from ccgame.cli import STATS_HEADER, _load_policy, main
from ccgame.dualascent import DualAscentOptions, solve_scenario
from ccgame.model import (Scenario, file_fingerprint, load_scenario, save_scenario,
                          scenario_to_dict, validate_scenario)
from conftest import (NOT_NUMBERS, NUMBER_FIELDS, make_ltv_scenario, mini_doc_with,
                      random_small_scenario, scalar_single_agent_instance)


def _speed_box(doc, **fields):
    """Turn the first box of a scenario document into a per-agent speed box."""
    box = next(c for c in doc["constraints"] if c["type"] == "box")
    box.update(x_min=[None, None, None, 0.0], x_max=[None, None, None, 3.0], **fields)


@pytest.fixture()
def tiny_active(tmp_path):
    path = tmp_path / "active.json"
    save_scenario(scalar_single_agent_instance(T=3, bound=0.4), path)
    return str(path)


@pytest.fixture()
def infeasible(tmp_path):
    # no lam >= 0 gives g <= 0: the pivot ends on a ray and the ascent runs
    path = tmp_path / "infeasible.json"
    save_scenario(random_small_scenario(np.random.default_rng(2)), path)
    return str(path)


@pytest.fixture()
def tiny_inactive(tmp_path):
    path = tmp_path / "inactive.json"
    save_scenario(scalar_single_agent_instance(T=3, bound=50.0), path)
    return str(path)


def read_stats(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_feasible_scenario_exits_zero(self, tiny_inactive, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["solve", "--scenario", tiny_inactive, "--iters", "200",
                   "--out", out, "--trace"])
        assert rc == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["lambda_bar"] == [0.0]
        assert report["feasibility_residual"] == 0.0
        policy = json.loads((tmp_path / "run" / "policy.json").read_text())
        assert len(policy["K"]) == 3
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert len(manifest["scenario_sha256"]) == 64
        with open(tmp_path / "run" / "trace.csv") as fh:
            header = fh.readline().strip()
        assert header == "iter,max_violation,complementarity,dual_value_p1,eta"

    def test_active_scenario_under_iterated_exits_two(self, infeasible, tmp_path):
        rc = main(["solve", "--scenario", infeasible, "--iters", "200",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert (tmp_path / "run" / "policy.json").exists()
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["termination"] == "lcp_infeasible"
        assert report["iterations"] == 200

    def test_active_scenario_solves_exactly_by_default(self, tiny_active, tmp_path):
        out = tmp_path / "run"
        rc = main(["solve", "--scenario", tiny_active, "--out", str(out), "--trace"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] == "lcp_solved"
        assert report["lambda_bar"][0] > 0.0
        for key in ("feasibility_residual", "complementarity", "natural_residual"):
            assert report[key] <= 1e-10, key
        assert report["asymmetry"] == 0.0
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["iter"]) for r in rows] == [report["pivots"]]

    def test_traced_solve_integrates_two_means(self, tmp_path, lqnash_calls):
        # the lam = 0 mean, which the traced dual value at lam = 0 reuses, and
        # the mean at the solved multiplier
        src = str(scenarios.bundled_path("intersection-mini"))
        assert main(["solve", "--scenario", src, "--trace",
                     "--out", str(tmp_path / "o")]) == 0
        assert lqnash_calls["integrate_expected"] == 2

    @pytest.mark.parametrize("name", ["intersection-mini", "intersection"])
    def test_traced_solve_computes_the_covariance_once(self, tmp_path, lqnash_calls, name):
        # the dual value at lam = 0 and the report's dual values share K, so
        # their trace terms tr(Q Sigma) and tr(R K Sigma K') are computed once
        src = str(scenarios.bundled_path(name))
        assert main(["solve", "--scenario", src, "--trace",
                     "--out", str(tmp_path / "o")]) == 0
        assert lqnash_calls["closed_loop_covariance"] == 1
        assert lqnash_calls["evaluate_cost"] == 2

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--iters", "0"], ["--iters", "-5"],
                                        ["--eta", "-1"], ["--eta", "nan"],
                                        ["--eta", "0"], ["--eta", "foo"]])
    def test_bad_ascent_options_exit_one(self, tiny_active, tmp_path, capsys,
                                         option):
        rc = main(["solve", "--scenario", tiny_active,
                   "--out", str(tmp_path / "o")] + option)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, encoding, error", [
        (lambda d: d.update(agents="two"), "utf-8", "SchemaError"),
        (lambda d: d["costs"][0].update(R="x"), "utf-8", "SchemaError"),
        (lambda d: next(c for c in d["constraints"]
                        if c["type"] == "collision").update(pair=[7, 0]), "utf-8",
         "SchemaError"),
        (lambda d: None, "utf-16", "SchemaError"),
        (lambda d: d.update(horizon=20.7), "utf-8", "SchemaError"),
        (lambda d: d.update(agents=2.5), "utf-8", "SchemaError"),
        (lambda d: d.update(seed=1.5), "utf-8", "SchemaError"),
        (lambda d: next(c for c in d["constraints"]
                        if c["type"] == "collision").update(pair=[0.5, 1]), "utf-8",
         "SchemaError"),
        (lambda d: _speed_box(d, agent=-1), "utf-8", "SchemaError"),
        (lambda d: _speed_box(d, agent=True), "utf-8", "SchemaError"),
        (lambda d: _speed_box(d, agent=0, active_times=[2.5, 3]), "utf-8",
         "DimensionMismatch"),
        (lambda d: _speed_box(d, agent=0, active_times=[3.0]), "utf-8",
         "DimensionMismatch"),
        # a plain list is the diagonal form; {"diag": [...]} is no noise form
        (lambda d: d["dynamics"].update(noise={"diag": [1e-5] * 8}), "utf-8",
         "SchemaError: dynamics.noise: unknown key(s) ['diag']"),
        # a dynamics or a constraint that is not an object
        (lambda d: d.update(dynamics=[1]), "utf-8", "SchemaError"),
        (lambda d: d.update(dynamics=5), "utf-8", "SchemaError"),
        (lambda d: d.update(constraints=[1]), "utf-8", "SchemaError"),
        (lambda d: d.update(constraints={"a": 1}), "utf-8", "SchemaError"),
    ], ids=["agents", "R", "pair", "utf-16", "horizon-fraction", "agents-fraction",
            "seed-fraction", "pair-fraction", "box-agent-negative", "box-agent-bool",
            "active-times-fraction", "active-times-float", "noise-diag", "dynamics-list",
            "dynamics-number", "constraint-number", "constraints-object"])
    def test_malformed_scenario_values_exit_one(self, tmp_path, capsys, edit,
                                                encoding, error):
        doc = json.loads(scenarios.bundled_path("intersection-mini").read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding=encoding)
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "-inf", "1e400", "int-1e400"])
    def test_non_finite_scenario_numbers_exit_one(self, tmp_path, capsys, literal):
        doc = json.loads(scenarios.bundled_path("intersection-mini").read_text())
        doc["dynamics"]["initial_states"][0][3] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError") and literal[:20] in err
        assert "Traceback" not in err

    def test_an_overflowing_number_deep_in_a_full_form_file_exits_one(self, tmp_path,
                                                                     capsys):
        doc = scenario_to_dict(scenarios.make_intersection_mini())
        doc["costs"][1]["Q"][12][5][5] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@"', "1e400"))
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError") and "1e400" in err
        assert "Traceback" not in err

    def test_every_float_of_the_mini_scenario_at_an_extreme_exits_cleanly(self, tmp_path,
                                                                           capsys):
        # each float of the bundled file (the first entry of a list of numbers;
        # not agents, horizon or seed, whose size numpy would try to allocate)
        # at 1e308, -1e308, 1e200 and 1e-320, solved and run as a 2-episode MPC:
        # no traceback and no RuntimeWarning, and an exit 1 prints an error line
        doc = json.loads(scenarios.bundled_path("intersection-mini").read_text())

        def floats(node, path=()):
            if isinstance(node, float):
                yield path
            elif isinstance(node, dict):
                for key, value in node.items():
                    if key not in ("agents", "horizon", "seed"):
                        yield from floats(value, path + (key,))
            elif isinstance(node, list) and node:   # of numbers: its first entry
                nested = isinstance(node[0], (dict, list))
                for k, value in enumerate(node) if nested else [(0, node[0])]:
                    yield from floats(value, path + (k,))

        path, bad, runs = tmp_path / "extreme.json", [], 0
        for leaf in floats(doc):
            for value in (1e308, -1e308, 1e200, 1e-320):
                edited = json.loads(json.dumps(doc))
                parent = edited
                for key in leaf[:-1]:
                    parent = parent[key]
                parent[leaf[-1]] = value
                path.write_text(json.dumps(edited))
                for command in (["solve"], ["mpc", "--samples", "2"]):
                    try:
                        rc = main([*command, "--scenario", str(path),
                                   "--out", str(tmp_path / "o")])
                        err = capsys.readouterr().err
                        if rc not in (0, 1, 2) or (rc == 1 and not err.startswith("error: ")):
                            bad.append((command[0], leaf, value, rc, err))
                    except Exception as exc:    # noqa: BLE001 -- every escape is a finding
                        bad.append((command[0], leaf, value, type(exc).__name__, str(exc)))
                    runs += 1
        assert runs == 2 * 12 * 4 and bad == []

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    def test_a_string_or_bool_number_exits_one(self, tmp_path, capsys, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mini_doc_with(field, value)))
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: SchemaError")
        assert "Traceback" not in err

    def test_the_report_flag_is_the_exit_code(self, tmp_path, monkeypatch):
        # one verdict: a report whose complementarity alone is above 1e-6 (a
        # multiplier raised on a row that is not active; the policy and so the
        # feasibility residual stay the pivot's) is flagged and exits 2
        import dataclasses
        from ccgame import cli
        real = cli.solve_scenario

        def raised(*args, **kwargs):
            prepared, report = real(*args, **kwargs)
            j = int(np.argmin(report.g_final))
            lam = report.lambda_bar.copy()
            lam[j] += 1e-5 / -report.g_final[j]
            report = dataclasses.replace(report, lambda_bar=lam)
            assert report.feasibility_residual <= 1e-6 < report.complementarity
            return prepared, report

        def run(out):
            rc = main(["solve", "--scenario", str(scenarios.bundled_path("intersection-mini")),
                       "--out", str(out)])
            return rc, json.loads((out / "report.json").read_text())["residual_above_tolerance"]

        assert run(tmp_path / "pivot") == (0, False)
        monkeypatch.setattr(cli, "solve_scenario", raised)
        assert run(tmp_path / "raised") == (2, True)

    def test_negative_relinearize_exits_one(self, tiny_active, tmp_path, capsys):
        rc = main(["solve", "--scenario", tiny_active, "--relinearize", "-3",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: DomainError: relinearize")

    def test_relinearize_rounds_run(self, tmp_path):
        src = scenarios.bundled_path("intersection-mini")
        out = tmp_path / "relin"
        rc = main(["solve", "--scenario", str(src), "--iters", "300",
                   "--relinearize", "1", "--out", str(out)])
        assert rc in (0, 2)
        policy = json.loads((out / "policy.json").read_text())
        assert policy["nominal_inputs"] is not None
        # rollout must reconstruct the relinearized problem from the policy
        rc = main(["rollout", "--scenario", str(src),
                   "--policy", str(out / "policy.json"), "--samples", "50",
                   "--seed", "4", "--out", str(tmp_path / "rr")])
        assert rc == 0
        row = read_stats(tmp_path / "rr" / "stats.csv")[0]
        assert float(row["collision_rate"]) <= 0.05

    def test_policy_json_round_trips_bit_for_bit(self, tmp_path):
        src = str(scenarios.bundled_path("intersection-mini"))
        out = tmp_path / "s"
        assert main(["solve", "--scenario", src, "--out", str(out)]) == 0
        prepared, report = solve_scenario(validate_scenario(load_scenario(src)),
                                          DualAscentOptions(k_max=2000))
        policy, fingerprint, nominal = _load_policy(str(out / "policy.json"))
        assert fingerprint == file_fingerprint(src)
        for got, want in ((policy.K, report.policy.K), (policy.alpha, report.policy.alpha),
                          (nominal, np.transpose(prepared.problem.nominal_inputs, (1, 0, 2)))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        doc = json.loads((out / "policy.json").read_text())
        assert list(doc) == ["fingerprint", "horizon", "players", "K", "alpha",
                             "nominal_inputs"]
        assert (doc["horizon"], doc["players"]) == (policy.T, policy.N)

    def test_ltv_relinearize_traces_the_round_that_ends_the_loop(self, tiny_active,
                                                                 tmp_path):
        # an LTV scenario has no nominal to relinearize, so its loop ends after
        # round 0 whatever --relinearize asks, and that round writes the trace
        traces = []
        for rounds in ("0", "1"):
            out = tmp_path / f"relin{rounds}"
            rc = main(["solve", "--scenario", tiny_active, "--relinearize", rounds,
                       "--trace", "--out", str(out)])
            assert rc == 0
            traces.append((out / "trace.csv").read_text())
        assert len(traces[0].splitlines()) == 2     # the header and the pivot row
        assert traces[1] == traces[0]

    def test_coincident_agents_exit_one_with_pair_context(self, tmp_path, capsys):
        s = scenarios.make_intersection_mini()
        init = np.array(s.dynamics.initial_states)
        init[1] = init[0]                      # same start
        goals = s.costs[0].ref[-1][:4]
        from ccgame.model import CostSpec, UnicycleDynamicsSpec
        costs = []
        for c in s.costs:
            ref = np.array(c.ref)
            ref[:, 4:] = ref[:, :4]            # same goal too
            costs.append(CostSpec(Q=c.Q, R=c.R, ref=ref))
        dyn = UnicycleDynamicsSpec(initial_states=init,
                                   nominal_inputs=None, W=s.dynamics.W)
        bad = Scenario(**{**s.__dict__, "dynamics": dyn, "costs": tuple(costs)})
        path = tmp_path / "coincident.json"
        save_scenario(bad, path)
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "DegenerateReference" in err
        assert "(0,1)" in err


class TestRollout:
    def _solve(self, scenario, tmp_path, name="s"):
        out = tmp_path / name
        main(["solve", "--scenario", scenario, "--iters", "500",
              "--out", str(out)])
        return str(out / "policy.json")

    def test_stats_schema_and_determinism(self, tiny_active, tmp_path):
        policy = self._solve(tiny_active, tmp_path)
        rc = main(["rollout", "--scenario", tiny_active, "--policy", policy,
                   "--samples", "50", "--seed", "7", "--out", str(tmp_path / "r1")])
        assert rc == 0
        rc = main(["rollout", "--scenario", tiny_active, "--policy", policy,
                   "--samples", "50", "--seed", "7", "--out", str(tmp_path / "r2")])
        assert rc == 0
        b1 = (tmp_path / "r1" / "stats.csv").read_bytes()
        b2 = (tmp_path / "r2" / "stats.csv").read_bytes()
        assert b1 == b2
        rows = read_stats(tmp_path / "r1" / "stats.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "lqg_game"
        assert rows[0]["samples"] == "50"

    def test_wilson_width_shrinks_with_samples(self, tiny_active, tmp_path):
        policy = self._solve(tiny_active, tmp_path)
        widths = {}
        for n in (100, 10_000):
            out = tmp_path / f"r{n}"
            main(["rollout", "--scenario", tiny_active, "--policy", policy,
                  "--samples", str(n), "--seed", "3", "--out", str(out)])
            row = read_stats(out / "stats.csv")[0]
            widths[n] = float(row["wilson_hi"]) - float(row["wilson_lo"])
        assert widths[10_000] < widths[100] / 5

    def test_manifest_reports_throughput_and_travel_flags(self, tiny_active, tmp_path):
        policy = self._solve(tiny_active, tmp_path)
        rc = main(["rollout", "--scenario", tiny_active, "--policy", policy,
                   "--samples", "40", "--seed", "7", "--out", str(tmp_path / "r")])
        assert rc == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["rollout_seconds"] > 0.0
        assert manifest["safety_seconds"] > 0.0
        assert manifest["samples_per_s"] == pytest.approx(40 / manifest["rollout_seconds"])
        # the bound at 0.4 holds every sample away from the goal at 1.0
        assert manifest["travel_flagged"] == 40

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exit_one(self, tiny_active, tmp_path, capsys,
                                          samples):
        policy = self._solve(tiny_active, tmp_path)
        capsys.readouterr()
        rc = main(["rollout", "--scenario", tiny_active, "--policy", policy,
                   "--samples", samples, "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: samples")

    @pytest.mark.parametrize("samples", [10**12, 10**20])
    @pytest.mark.parametrize("command", ["rollout", "mpc"])
    def test_unallocatable_samples_exit_one(self, tmp_path, capsys, command, samples):
        # numpy refuses both counts' arrays before touching any memory; mpc
        # allocates its episodes' before it lists their indices or draws noise
        src = str(scenarios.bundled_path("intersection-mini"))
        policy = ["--policy", self._solve(src, tmp_path)] if command == "rollout" else []
        capsys.readouterr()
        rc = main([command, "--scenario", src, *policy, "--samples", str(samples),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: DomainError: samples")
        assert "Traceback" not in err and not (tmp_path / "r" / "stats.csv").exists()

    @pytest.mark.parametrize("edit, error, encoding", [
        (lambda d: d.pop("K"), "SchemaError", "utf-8"),
        (lambda d: d.update(alpha=d["alpha"][:-1]), "SchemaError", "utf-8"),
        (lambda d: d.update(nominal_inputs=[a[:-1] for a in d["nominal_inputs"]]),
         "DimensionMismatch", "utf-8"),
        (lambda d: None, "SchemaError", "utf-16"),
    ], ids=["no-K", "short-alpha", "short-nominal", "utf-16"])
    def test_malformed_policy_exits_one(self, tmp_path, capsys, edit, error,
                                        encoding):
        src = str(scenarios.bundled_path("intersection-mini"))
        path = tmp_path / "s" / "policy.json"
        main(["solve", "--scenario", src, "--out", str(path.parent)])
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc), encoding=encoding)
        capsys.readouterr()
        rc = main(["rollout", "--scenario", src, "--policy", str(path),
                   "--samples", "5", "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("literal", ["NaN", "1e400"])
    def test_non_finite_policy_exits_one(self, tmp_path, capsys, literal):
        src = str(scenarios.bundled_path("intersection-mini"))
        path = tmp_path / "s" / "policy.json"
        main(["solve", "--scenario", src, "--out", str(path.parent)])
        doc = json.loads(path.read_text())
        doc["alpha"][0][0][0] = "@"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        capsys.readouterr()
        rc = main(["rollout", "--scenario", src, "--policy", str(path),
                   "--samples", "50", "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError") and literal in err
        assert not (tmp_path / "r" / "stats.csv").exists()

    def test_fingerprint_mismatch_exits_one(self, tiny_active, tiny_inactive,
                                            tmp_path, capsys):
        policy = self._solve(tiny_active, tmp_path)
        rc = main(["rollout", "--scenario", tiny_inactive, "--policy", policy,
                   "--samples", "10", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "FingerprintMismatch" in capsys.readouterr().err

    def test_trajectory_dump(self, tiny_active, tmp_path):
        policy = self._solve(tiny_active, tmp_path)
        out = tmp_path / "dump"
        rc = main(["rollout", "--scenario", tiny_active, "--policy", policy,
                   "--samples", "3", "--dump-trajectories", "--out", str(out)])
        assert rc == 0
        files = sorted((out / "trajectories").glob("*.csv"))
        assert len(files) == 3

    def test_trajectory_dump_pads_narrower_agents(self, tmp_path):
        scenario = random_small_scenario(np.random.default_rng(0))
        assert scenario.state_dims == (2, 2, 1)
        path = tmp_path / "mixed.json"
        save_scenario(scenario, path)
        policy = self._solve(str(path), tmp_path)
        out = tmp_path / "dump"
        rc = main(["rollout", "--scenario", str(path), "--policy", policy,
                   "--samples", "2", "--dump-trajectories", "--out", str(out)])
        assert rc == 0
        for f in sorted((out / "trajectories").glob("*.csv")):
            header, *rows = [line.split(",") for line in f.read_text().splitlines()]
            assert header[:4] == ["t", "agent", "x0", "x1"] and header[4] == "u0"
            assert rows and all(len(row) == len(header) for row in rows)
            narrow = [row for row in rows if row[1] == "2"]
            assert narrow and all(row[3] == "" and row[4] != "" for row in narrow)

    def test_unicycle_trajectory_dump_schema(self, tmp_path):
        src = str(scenarios.bundled_path("intersection-mini"))
        out_s = tmp_path / "s"
        main(["solve", "--scenario", src, "--iters", "300", "--out", str(out_s)])
        out = tmp_path / "d"
        rc = main(["rollout", "--scenario", src,
                   "--policy", str(out_s / "policy.json"), "--samples", "1",
                   "--dump-trajectories", "--out", str(out)])
        assert rc == 0
        first = next(iter(sorted((out / "trajectories").glob("*.csv"))))
        assert first.read_text().splitlines()[0] == "t,agent,px,py,theta,v,a,omega"


    def test_planar_double_integrator_dump_is_not_labelled_unicycle(self, tmp_path):
        # four states and two inputs, like a unicycle, but LTV dynamics
        A = np.eye(4)
        A[0, 2] = A[1, 3] = 0.5
        B = np.zeros((4, 2))
        B[2, 0] = B[3, 1] = 0.5
        s = make_ltv_scenario([4], 3, [A], [B], [0.0] * 4, [1e-6] * 4, [np.eye(4)],
                              [np.eye(2)], [np.array([1.0, 1.0, 0.0, 0.0])], [])
        path = tmp_path / "di.json"
        save_scenario(s, path)
        policy = self._solve(str(path), tmp_path)
        out = tmp_path / "d"
        rc = main(["rollout", "--scenario", str(path), "--policy", policy,
                   "--samples", "1", "--dump-trajectories", "--out", str(out)])
        assert rc == 0
        first = next(iter(sorted((out / "trajectories").glob("*.csv"))))
        assert first.read_text().splitlines()[0] == "t,agent,x0,x1,x2,x3,u0,u1"


class TestMpc:
    def test_single_agent_identity_with_rollout_pipeline(self, tmp_path):
        s = scalar_single_agent_instance(T=4, bound=100.0)
        s = Scenario(**{**s.__dict__, "constraints": ()})
        path = tmp_path / "one.json"
        save_scenario(s, path)
        out_s = tmp_path / "solve"
        main(["solve", "--scenario", str(path), "--out", str(out_s)])
        main(["rollout", "--scenario", str(path),
              "--policy", str(out_s / "policy.json"),
              "--samples", "20", "--seed", "5", "--out", str(tmp_path / "game")])
        rc = main(["mpc", "--scenario", str(path), "--samples", "20",
                   "--seed", "5", "--out", str(tmp_path / "mpc")])
        assert rc == 0
        game = read_stats(tmp_path / "game" / "stats.csv")[0]
        mpc = read_stats(tmp_path / "mpc" / "stats.csv")[0]
        assert float(mpc["cost_mean"]) == pytest.approx(float(game["cost_mean"]),
                                                        rel=1e-9)
        assert mpc["collision_rate"] == game["collision_rate"]

    def test_coarse_replanning_option(self, tiny_active, tmp_path):
        rc = main(["mpc", "--scenario", tiny_active, "--samples", "4",
                   "--seed", "1", "--replan-every", "2", "--iters", "150",
                   "--out", str(tmp_path / "m")])
        assert rc == 0
        row = read_stats(tmp_path / "m" / "stats.csv")[0]
        assert row["method"] == "central_mpc"

    def test_manifest_counts_the_replans_with_active_rows(self, tmp_path, monkeypatch):
        # a replan has active rows exactly when the pivot moves off lam = 0,
        # counted here outside the code under test; the shared start, active
        # here, pivots once and counts once per episode
        from ccgame import dualascent
        real, pivoting = dualascent.solve_lcp, []

        def counting(G, ctilde):
            out = real(G, ctilde)
            pivoting.extend([out[1]] if out[1] > 0 else [])
            return out

        monkeypatch.setattr(dualascent, "solve_lcp", counting)
        rc = main(["mpc", "--scenario", str(scenarios.bundled_path("intersection-mini")),
                   "--samples", "2", "--seed", "3", "--out", str(tmp_path / "m")])
        assert rc == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["replans"] == 2 * 20
        assert (manifest["replans_with_active_rows"], len(pivoting)) == (13, 12)

    def test_manifest_times_the_shared_work(self, tmp_path):
        # the gains, one zeta pass for Psi and the lam = 0 terms, every replan time's covariance,
        # transition products and layout, and the slice of each replan time
        # where a replan solves, which the replans' own times include
        rc = main(["mpc", "--scenario", str(scenarios.bundled_path("intersection-mini")),
                   "--samples", "2", "--seed", "3", "--out", str(tmp_path / "m")])
        assert rc == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["replans_with_active_rows"] > 0
        assert 0 < manifest["planner_seconds"] < (manifest["replans"]
                                                  * manifest["comp_seconds_per_step"])

    def test_manifest_records_every_option(self, tiny_active, tmp_path):
        # --eta sets the fallback ascent's step, so it changes results as
        # --iters does, and `solve` records it too
        rc = main(["mpc", "--scenario", tiny_active, "--samples", "1", "--eta", "0.25",
                   "--out", str(tmp_path / "m")])
        assert rc == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["options"] == {"samples": 1, "seed": 0, "replan_every": 1,
                                       "iters": 500, "eta": "0.25"}

    @pytest.mark.parametrize("option", [["--samples", "0"], ["--replan-every", "0"],
                                        ["--iters", "0"]])
    def test_nonpositive_counts_exit_one(self, tiny_active, tmp_path, capsys, option):
        rc = main(["mpc", "--scenario", tiny_active, "--iters", "100",
                   "--out", str(tmp_path / "m")] + option)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError")

    def test_seed_failures_exit_two(self, tiny_active, tmp_path, monkeypatch):
        import ccgame.cli as cli_mod
        real = cli_mod.simulate.central_mpc

        def with_failure(*args, **kw):
            batch, failures, sec = real(*args, **kw)
            return batch, failures + [(0, 2, "injected")], sec

        monkeypatch.setattr(cli_mod.simulate, "central_mpc", with_failure)
        rc = main(["mpc", "--scenario", tiny_active, "--samples", "2",
                   "--seed", "1", "--iters", "100", "--out", str(tmp_path / "m")])
        assert rc == 2
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["failures"] == [{"sample": 0, "step": 2,
                                         "error": "injected"}]


@pytest.mark.parametrize("argv, names", [
    (["solve", "--iters", "1.5"], "--iters"),
    (["rollout", "--samples", "x"], "--samples"),
    (["mpc", "--seed", "1e3"], "--seed"),
    (["solve"], "--scenario"),
    (["simulate"], "invalid choice"),
], ids=["float-iters", "string-samples", "float-seed", "no-scenario", "unknown-command"])
def test_malformed_arguments_exit_one(capsys, argv, names):
    # argparse's own exit code, 2, would read as "completed with warnings"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError")
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["collision", "box"])
def test_empty_active_times_run_as_if_the_constraint_were_removed(tmp_path, kind):
    # a constraint with no active step has no row and no predicate to check
    doc = json.loads(scenarios.bundled_path("intersection-mini").read_text())
    k = next(k for k, c in enumerate(doc["constraints"]) if c["type"] == kind)
    empty, removed = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    empty["constraints"][k]["active_times"] = []
    del removed["constraints"][k]
    stats = {}
    for name, d in (("empty", empty), ("removed", removed)):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(d))
        assert main(["solve", "--scenario", str(path), "--out", str(out / "solve")]) == 0
        assert main(["rollout", "--scenario", str(path), "--samples", "300", "--seed", "4",
                     "--policy", str(out / "solve" / "policy.json"),
                     "--out", str(out / "rollout")]) == 0
        assert main(["mpc", "--scenario", str(path), "--samples", "2", "--seed", "4",
                     "--out", str(out / "mpc")]) == 0
        stats[name] = [(out / cmd / "stats.csv").read_bytes() for cmd in ("rollout", "mpc")]
    assert stats["empty"] == stats["removed"]


class TestReport:
    def test_two_row_table(self, tiny_active, tmp_path, capsys):
        out_s = tmp_path / "s"
        main(["solve", "--scenario", tiny_active, "--iters", "300",
              "--out", str(out_s)])
        main(["rollout", "--scenario", tiny_active,
              "--policy", str(out_s / "policy.json"), "--samples", "20",
              "--seed", "2", "--out", str(tmp_path / "g")])
        main(["mpc", "--scenario", tiny_active, "--samples", "5", "--seed", "2",
              "--iters", "150", "--out", str(tmp_path / "m")])
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "g" / "stats.csv"),
                   str(tmp_path / "m" / "stats.csv"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "lqg_game" in text and "central_mpc" in text
        assert "Col. rate" in text
        merged = read_stats(tmp_path / "rep" / "report.csv")
        assert len(merged) == 2
        # the game's Comp. T is its solve's time, which rollout copies
        solve_seconds = json.loads((out_s / "manifest.json").read_text())["solve_seconds"]
        rollout = json.loads((tmp_path / "g" / "manifest.json").read_text())
        assert rollout["solve_seconds"] == solve_seconds
        game = next(row for row in merged if row["method"] == "lqg_game")
        assert game["comp_t"] == f"{solve_seconds:.3f} s"

    def test_bundled_mini_game_vs_mpc_rates_under_budget(self, tmp_path, capsys):
        src = str(scenarios.bundled_path("intersection-mini"))
        out_s = tmp_path / "solve"
        main(["solve", "--scenario", src, "--iters", "5000", "--out", str(out_s)])
        main(["rollout", "--scenario", src,
              "--policy", str(out_s / "policy.json"), "--samples", "200",
              "--seed", "8", "--out", str(tmp_path / "game")])
        main(["mpc", "--scenario", src, "--samples", "20", "--seed", "8",
              "--iters", "300", "--out", str(tmp_path / "mpc")])
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "game" / "stats.csv"),
                   str(tmp_path / "mpc" / "stats.csv")])
        assert rc == 0
        for row in (read_stats(tmp_path / "game" / "stats.csv")[0],
                    read_stats(tmp_path / "mpc" / "stats.csv")[0]):
            assert float(row["collision_rate"]) <= 0.05

    def test_schema_mismatch_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("method,foo\na,1\n")
        rc = main(["report", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError")
        assert "schema" in err

    @pytest.mark.parametrize("row, manifest, encoding", [
        ("lqg_game,10,0,cheap,0.5,4.0,0.0,0.0,0.3", None, "utf-8"),
        ("lqg_game,10,0,1.5,0.5,4.0,0.0,0.0,0.3,extra", None, "utf-8"),
        ("lqg_game,10,0,1.5,0.5,4.0,0.0,0.0,0.3", None, "utf-16"),
        ("lqg_game,10,0,1.5,0.5,4.0,0.0,0.0,0.3", {"comp_seconds_per_step": "fast"},
         "utf-8"),
        ("lqg_game,10,0,1.5,0.5,4.0,0.0,0.0,0.3", [1, 2], "utf-8"),
    ], ids=["non-numeric", "extra-cell", "utf-16", "manifest", "manifest-list"])
    def test_malformed_stats_exit_one(self, tmp_path, capsys, row, manifest,
                                      encoding):
        stats = tmp_path / "in" / "stats.csv"
        stats.parent.mkdir()
        stats.write_text(",".join(STATS_HEADER) + "\n" + row + "\n",
                         encoding=encoding)
        if manifest is not None:
            (stats.parent / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["report", str(stats), "--out", str(tmp_path / "rep")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError")
        assert "Traceback" not in err

    def test_missing_file_exits_one(self, tmp_path):
        rc = main(["report", str(tmp_path / "nope.csv")])
        assert rc == 1
