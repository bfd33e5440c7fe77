"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Heavy artifacts (solved
policies for the bundled scenarios) are session fixtures shared with the rest
of the suite.
"""

import time

import numpy as np
import pytest

from ccgame import scenarios, simulate
from ccgame.cli import main as cli_main
from ccgame.dualascent import (DualAscentOptions, estimate_affine_map, prepare_game,
                               run_dual_ascent, _ascent, _resolve_eta)
from ccgame.lqnash import backward_recursion, evaluate_cost, evaluate_lagrangian
from ccgame.model import validate_scenario
from conftest import (coupled_constrained_instance, double_integrator_instance,
                      random_small_scenario, scalar_single_agent_instance,
                      scalar_two_agent_instance)
from oracles import (best_response, conservativeness_probe, dense_kkt_single_row,
                     lqr_oracle, replace_player, solve_at)


def _announce(n, name, detail=""):
    print(f"\nACCEPTANCE {n} ({name}): PASS {detail}")


@pytest.fixture(scope="session")
def acceptance_preps(mini_prep, random_scenarios):
    preps = [mini_prep]
    preps += [prepare_game(validate_scenario(s)) for s in random_scenarios]
    return preps


def _fd_dual_gradient_errors(prep, lam, delta=1e-4):
    """Max mixed-relative FD error over all rows and players at one lam."""
    base_policy, _, g = solve_at(prep, lam)
    N, M = prep.problem.N, prep.M
    worst = 0.0
    for m in range(M):
        e = np.zeros(M)
        e[m] = delta
        vals = {}
        for tag, lam_p in (("+", lam + e), ("-", lam - e)):
            per_player = []
            for i in range(N):
                K_i, a_i = best_response(prep.problem, base_policy, i, lam_p,
                                         prep.conset)
                combined = replace_player(base_policy, i, K_i, a_i)
                per_player.append(evaluate_lagrangian(prep.problem, combined,
                                                      lam_p, prep.conset)[i])
            vals[tag] = per_player
        for i in range(N):
            fd = (vals["+"][i] - vals["-"][i]) / (2 * delta)
            err = abs(fd - g[m]) / max(1.0, abs(g[m]))
            worst = max(worst, err)
    return worst


def test_criterion_01_dual_gradient_identity(acceptance_preps):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for prep in acceptance_preps:
        if prep.M == 0:
            continue
        n_lam = 20
        for _ in range(n_lam):
            lam = rng.uniform(0.0, 1.5, prep.M)
            worst = max(worst, _fd_dual_gradient_errors(prep, lam))
            assert worst <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    _announce(1, "dual-gradient identity",
              f"max rel FD error {worst:.2e} over 6 scenarios, {elapsed:.1f}s")


def test_criterion_02_gradient_affinity(acceptance_preps):
    worst = 0.0
    rng = np.random.default_rng(202)
    # the coupled-cost game adds a non-symmetric map
    coupled = prepare_game(validate_scenario(coupled_constrained_instance()))
    for prep in acceptance_preps + [coupled]:
        if prep.M == 0:
            continue
        lam1 = rng.uniform(0.0, 1.5, prep.M)
        lam2 = rng.uniform(0.0, 1.5, prep.M)
        _, _, g1 = solve_at(prep, lam1)
        _, _, g2 = solve_at(prep, lam2)
        for theta in (0.25, 0.5, 0.75):
            _, _, g = solve_at(prep, theta * lam1 + (1 - theta) * lam2)
            expected = theta * g1 + (1 - theta) * g2
            err = np.max(np.abs(g - expected)) / (np.max(np.abs(expected)) + 1.0)
            worst = max(worst, err)
            assert err <= 1e-8
    _announce(2, "dual-gradient affinity", f"max interpolation residual {worst:.2e}")


def test_criterion_03_convergence_rate(mini_prep):
    t0 = time.perf_counter()
    ks = (10, 100, 1000, 10000)
    # the paper's ascent itself, not the pivot that replaces it by default
    options = DualAscentOptions(k_max=100_000)
    gmap = estimate_affine_map(mini_prep)
    eta = _resolve_eta(options, gmap)
    assert eta == pytest.approx(0.5 / gmap.L)
    lam_bar, _ = _ascent(gmap, eta, options)
    # the average of the first k iterates is a run with budget k; each run
    # is placed at the iteration count it returns
    runs = [_ascent(gmap, eta, DualAscentOptions(k_max=k)) for k in ks]
    iterations = np.array([k for _, k in runs])
    # gap of the concave potential with gradient g (the function the
    # constant-step analysis controls); its map is validated by criteria 1-2
    F = lambda lam: gmap.dual_value(0, lam)
    f_star = F(lam_bar)
    gaps = np.array([f_star - F(lam) for lam, _ in runs])
    assert np.all(gaps > 0)
    slope = np.polyfit(np.log10(iterations), np.log10(gaps), 1)[0]
    elapsed = time.perf_counter() - t0
    assert slope <= -0.85
    assert elapsed <= 600.0
    _announce(3, "sublinear convergence rate",
              f"log-log slope {slope:.2f} (<= -0.85), {elapsed:.1f}s")


def test_criterion_04_gne_fixed_point(acceptance_preps, mini_report,
                                      intersection_prep, intersection_report):
    # coupled costs give non-symmetric maps; coupled seed 6 ends on a ray,
    # so its multiplier is the fallback ascent's
    coupled = [coupled_constrained_instance()] + [
        random_small_scenario(np.random.default_rng(k), coupled=True)
        for k in (6, 8, 12, 17)]
    cases = []
    for prep in acceptance_preps[1:] + [prepare_game(validate_scenario(s))
                                        for s in coupled]:
        rep = run_dual_ascent(prep, DualAscentOptions(k_max=400))
        cases.append((prep, rep))
    cases.append((acceptance_preps[0], mini_report))
    cases.append((intersection_prep, intersection_report))
    worst = 0.0
    for prep, rep in cases:
        lam = rep.lambda_bar
        for i in range(prep.problem.N):
            li = evaluate_lagrangian(prep.problem, rep.policy, lam, prep.conset)[i]
            K_i, a_i = best_response(prep.problem, rep.policy, i, lam, prep.conset)
            li_br = evaluate_lagrangian(
                prep.problem, replace_player(rep.policy, i, K_i, a_i), lam,
                prep.conset)[i]
            improvement = (li - li_br) / (1 + abs(li))
            worst = max(worst, improvement)
            assert improvement < 1e-8
    _announce(4, "GNE fixed point",
              f"max relative best-response improvement {worst:.2e} over "
              f"{len(cases)} scenarios")


def test_criterion_05_kkt_oracle_equivalence():
    instances = [
        ("scalar 1-player", scalar_single_agent_instance()),
        ("scalar 2-player", scalar_two_agent_instance()),
        ("double integrator", double_integrator_instance(bound=0.3)),
    ]
    details = []
    for name, s in instances:
        prep = prepare_game(validate_scenario(s))
        lam_star, traj_star = dense_kkt_single_row(
            prep.problem, prep.conset.lmat, prep.conset.c)
        rep = run_dual_ascent(prep, DualAscentOptions(k_max=10_000))
        dlam = float(np.max(np.abs(rep.lambda_bar - lam_star)))
        dtraj = float(np.max(np.abs(rep.mean_traj - traj_star)))
        assert dlam <= 1e-3, name
        assert dtraj <= 1e-3, name
        details.append(f"{name}: dlam={dlam:.1e} dtraj={dtraj:.1e}")
    _announce(5, "KKT oracle equivalence", "; ".join(details))


def test_criterion_06_lqr_degeneracy():
    from conftest import make_ltv_scenario
    s = make_ltv_scenario(
        [2], 8, [np.array([[1.0, 0.3], [0.0, 0.92]])],
        [np.array([[0.1], [0.5]])], [1.0, -0.5], [2e-3, 1e-3],
        [np.diag([1.5, 0.4])], [np.array([[0.8]])], [np.zeros(2)], [])
    prep = prepare_game(validate_scenario(s))
    assert prep.M == 0
    policy = backward_recursion(prep.problem)
    Ks, cost = lqr_oracle(prep.problem.dyn.A, prep.problem.dyn.B[:, 0],
                          prep.problem.Q[0, 1:], prep.problem.R[0],
                          prep.problem.dyn.W, prep.problem.dyn.x0)
    gain_err = float(np.max(np.abs(policy.K[:, 0] - Ks)))
    cost_err = abs(evaluate_cost(prep.problem, policy)[0] - cost)
    assert gain_err <= 1e-10
    assert cost_err <= 1e-10 * (1 + abs(cost))
    _announce(6, "LQR degeneracy",
              f"gain err {gain_err:.1e}, cost err {cost_err:.1e}")


def test_criterion_07_safety_rate(mini_prep, mini_report, intersection_prep,
                                  intersection_report):
    t0 = time.perf_counter()
    details = []
    for name, prep, rep in (("intersection-mini", mini_prep, mini_report),
                            ("intersection", intersection_prep,
                             intersection_report)):
        batch = simulate.rollout(prep.problem, rep.policy, seed=777,
                                 samples=10_000)
        stats = simulate.evaluate_safety(batch, prep.problem)
        assert stats.wilson_hi <= 0.05 + 0.01, name
        details.append(f"{name}: rate={stats.rate:.4f} "
                       f"wilson_hi={stats.wilson_hi:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    _announce(7, "safety rate", "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_08_conservative_reformulation():
    rng = np.random.default_rng(808)
    worst_margin = np.inf
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        m = rng.normal(size=(dim, dim))
        sigma = float(rng.uniform(0.01, 0.3)) * (m @ m.T + 0.3 * np.eye(dim))
        radius = float(rng.uniform(0.3, 2.5))
        eps_row = float(10 ** rng.uniform(-4, -0.8))
        rate, required = conservativeness_probe(
            direction=rng.normal(size=dim), sigma_pair=sigma, radius=radius,
            C=np.eye(dim), eps_row=eps_row, samples=1_000_000,
            seed=int(rng.integers(1 << 30)))
        worst_margin = min(worst_margin, rate - required)
        assert rate >= required
    _announce(8, "conservative linearization",
              f"min empirical margin {worst_margin:.2e} over 10 configs")


def test_criterion_09_cost_ordering(mini_prep, mini_report):
    problem = mini_prep.problem
    game = simulate.rollout(problem, mini_report.policy, seed=99, samples=100)
    mpc_batch, failures, _ = simulate.central_mpc(
        problem, seed=99, samples=100, options=DualAscentOptions(k_max=300))
    assert not failures
    game_total = game.costs.sum(axis=1)
    mpc_total = mpc_batch.costs.sum(axis=1)
    se = game_total.std(ddof=1) / np.sqrt(game_total.shape[0])
    ordered = mpc_total.mean() <= game_total.mean() + se
    detail = (f"mpc={mpc_total.mean():.4f} game={game_total.mean():.4f} "
              f"se={se:.4f}")
    if not ordered:
        # the source comparison proves no ordering; record, do not fail
        print(f"\nACCEPTANCE 9 (cost ordering): FINDING (not a failure) {detail}")
    else:
        _announce(9, "cost ordering", detail)


def test_criterion_10_reproducibility(tmp_path):
    scenario = str(scenarios.bundled_path("intersection-mini"))
    stats = []
    for run in ("a", "b"):
        out_solve = tmp_path / f"solve_{run}"
        out_roll = tmp_path / f"roll_{run}"
        rc = cli_main(["solve", "--scenario", scenario, "--iters", "2000",
                       "--out", str(out_solve)])
        assert rc in (0, 2)
        rc = cli_main(["rollout", "--scenario", scenario,
                       "--policy", str(out_solve / "policy.json"),
                       "--samples", "500", "--seed", "31415",
                       "--out", str(out_roll)])
        assert rc == 0
        stats.append((out_roll / "stats.csv").read_bytes())
        stats.append((out_solve / "policy.json").read_bytes())
    assert stats[0] == stats[2]
    assert stats[1] == stats[3]
    _announce(10, "reproducibility",
              "stats.csv and policy.json byte-identical across reruns")
