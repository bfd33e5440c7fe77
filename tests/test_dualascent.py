import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccgame import dualascent
from ccgame.dualascent import (DualAscentOptions, dual_step,
                               estimate_affine_map, prepare_game,
                               run_dual_ascent, solve_lcp, _ascent)
from ccgame.errors import DomainError, StepSizeUnavailable
from ccgame.lqnash import (FeedbackPolicy, backward_recursion, evaluate_cost,
                           evaluate_lagrangian, integrate_expected)
from ccgame.model import (BoxSpec, CostSpec, Scenario, UnicycleDynamicsSpec,
                          validate_scenario)
from ccgame.uncertainty import assemble_constraints, propagate_covariance
from conftest import (coupled_constrained_instance, double_integrator_instance,
                      make_ltv_scenario, random_small_scenario,
                      scalar_single_agent_instance, scalar_two_agent_instance)
from oracles import (averaged_ascent, column_pass, dense_kkt_single_row, dual_function,
                     planner_game, solve_at)

# the seeds k = 2..17 of random_small_scenario(default_rng(k)) whose LCP has a
# solution; on 2, 6, 11, 13 and 14 no lam >= 0 gives g <= 0
FEASIBLE_SEEDS = (3, 4, 5, 7, 8, 9, 10, 12, 15, 16, 17)
# the same for random_small_scenario(default_rng(k), coupled=True) among
# k = 2..17: on 6 and 11 no lam >= 0 gives g <= 0.  On 12 and 14 (lam up to
# 365) the ascent approaches the pivot's solution only as O(1/k): after 200k,
# 1M and 3M steps its trajectory is 1.3e-2, 2.5e-3 and 8.5e-4 away on 12,
# about 10 times its natural residual, outside the comparison's 4 times
COUPLED_FEASIBLE_SEEDS = (2, 3, 4, 5, 7, 8, 9, 10, 13, 15, 16, 17)


def _iterates(gmap, eta, k):
    """The first k projected ascent iterates from lam = 0, by dual_step."""
    lam = np.zeros(gmap.ctilde.shape[0])
    out = []
    for _ in range(k):
        out.append(lam)
        lam = dual_step(lam, eta, gmap.gradient(lam))
    return np.array(out)


class TestAffineMap:
    def test_unconstrained_map_is_empty(self):
        s = scalar_single_agent_instance()
        s = Scenario(**{**s.__dict__, "constraints": ()})
        prep = prepare_game(validate_scenario(s))
        gmap = estimate_affine_map(prep)
        assert gmap.G.shape == (0, 0)
        assert gmap.L == 0.0

    def test_single_row_map_equals_probe_difference(self):
        prep = prepare_game(validate_scenario(scalar_single_agent_instance()))
        assert prep.M == 1
        gmap = estimate_affine_map(prep)
        _, _, g0 = solve_at(prep, np.zeros(1))
        _, _, g1 = solve_at(prep, np.ones(1))
        assert gmap.G[0, 0] == pytest.approx(g1[0] - g0[0], abs=1e-10)
        assert gmap.ctilde[0] == pytest.approx(g0[0], abs=1e-12)

    def test_two_row_map_predicts_third_solve(self):
        s = scalar_two_agent_instance(T=3)
        from ccgame.model import CollisionSpec
        con = CollisionSpec(pair=(0, 1), radius=0.5, C=np.array([[1.0]]),
                            active_times=(2, 3))
        s = Scenario(**{**s.__dict__, "constraints": (con,)})
        prep = prepare_game(validate_scenario(s))
        assert prep.M == 2
        gmap = estimate_affine_map(prep)
        lam = np.array([0.3, 0.7])
        _, _, g = solve_at(prep, lam)
        assert np.max(np.abs(gmap.gradient(lam) - g)) < 1e-8

    def test_affinity_interpolation(self, mini_prep):
        rng = np.random.default_rng(4)
        lam1 = rng.uniform(0, 1.0, mini_prep.M)
        lam2 = rng.uniform(0, 1.0, mini_prep.M)
        _, _, g1 = solve_at(mini_prep, lam1)
        _, _, g2 = solve_at(mini_prep, lam2)
        for theta in (0.25, 0.5, 0.75):
            _, _, g = solve_at(mini_prep, theta * lam1 + (1 - theta) * lam2)
            expected = theta * g1 + (1 - theta) * g2
            scale = np.max(np.abs(expected)) + 1.0
            assert np.max(np.abs(g - expected)) / scale < 1e-8

    def test_coupled_cost_map_is_asymmetric_and_matches_solves(self):
        prep = prepare_game(validate_scenario(coupled_constrained_instance()))
        assert prep.M == 10
        gmap = estimate_affine_map(prep)
        G = gmap.G
        assert np.linalg.norm(G - G.T) / np.linalg.norm(G) > 1e-2
        rng = np.random.default_rng(5)
        for _ in range(5):
            lam = rng.uniform(0.0, 1.5, prep.M)
            _, _, g = solve_at(prep, lam)
            assert np.max(np.abs(gmap.gradient(lam) - g)) < 1e-10


    def test_constant_column_is_the_zero_multiplier_policy(self, mini_prep):
        # the map's constant part, ctilde and policy0, is the lam = 0 solve's
        # g and policy, bit for bit
        unconstrained = scalar_single_agent_instance()
        unconstrained = Scenario(**{**unconstrained.__dict__, "constraints": ()})
        for prep in (mini_prep, prepare_game(validate_scenario(unconstrained))):
            gmap = estimate_affine_map(prep)
            solved, _, g = solve_at(prep, np.zeros(prep.M))
            assert np.array_equal(gmap.policy0.K, solved.K)
            assert np.array_equal(gmap.policy0.alpha, solved.alpha)
            assert gmap.ctilde.tobytes() == g.tobytes()

    def test_lipschitz_is_the_spectral_norm(self, mini_prep):
        coupled = prepare_game(validate_scenario(coupled_constrained_instance()))
        for prep, symmetric in ((mini_prep, True), (coupled, False)):
            gmap = estimate_affine_map(prep)
            G = gmap.G
            asymmetry = np.linalg.norm(G - G.T) / np.linalg.norm(G)
            assert (asymmetry <= 1e-12) == symmetric
            assert gmap.asymmetry == pytest.approx(asymmetry, rel=1e-12)
            assert gmap.L == pytest.approx(np.linalg.svd(G, compute_uv=False)[0],
                                           rel=1e-12)


class TestSweepCount:
    def test_solve_sweeps_twice(self, mini_prep, lqnash_calls):
        # one gain recursion with an rcond check per stage, the lam = 0
        # equilibrium (a zeta pass and its mean trajectory) unless prepared,
        # and the map's column passes: the policy at a multiplier is alpha0
        # plus its columns, one more pass computing those not cached; its
        # mean trajectory and the dual values cost one integration and one
        # evaluation when first read, once.  An LTV game (no nominal) runs its gain recursion and lam = 0
        # equilibrium in prepare_game, for the reference, and the solve
        # reuses both; where that equilibrium violates no row (the
        # unconstrained game) it is the solution, and the solve runs no zeta
        # pass and no integration
        unconstrained = scalar_single_agent_instance()
        unconstrained = Scenario(**{**unconstrained.__dict__, "constraints": ()})
        ray = random_small_scenario(np.random.default_rng(2))
        preps = [mini_prep]
        for s in (unconstrained, ray):
            lqnash_calls.clear()
            preps.append(prepare_game(validate_scenario(s)))
            assert lqnash_calls == {"stage_gains": 1, "_check_rcond": preps[-1].problem.T,
                                    "_zeta_sweep": 1, "integrate_expected": 1}
        assert preps[1].M == 0
        assert mini_prep.gains is None and preps[1].gains is not None
        # (column passes, full maps, G columns) of each solve: the unicycle
        # game's one pass of the 3 rows its lam = 0 equilibrium violates,
        # which hold every column its pivot reads; nothing when lam = 0
        # solves; the ray game's pass of its violated rows and the full map
        # of its fallback ascent, whose multiplier is nonzero only on columns
        # the pivot read, so its alphas are cached
        for prep, (passes, full, columns) in zip(preps, ((1, 0, 3), (0, 0, 0), (1, 1, 11))):
            lqnash_calls.clear()
            rep = run_dual_ascent(prep, DualAscentOptions(k_max=200))
            in_solve = int(prep.gains is None)
            assert (prep.equilibrium0 is None) == bool(in_solve)
            assert +lqnash_calls == +Counter({
                "stage_gains": in_solve,
                "_check_rcond": in_solve * prep.problem.T,
                "_zeta_sweep": in_solve + passes + full,
                "affine_response": passes + full, "full_map": full,
                "integrate_expected": in_solve}), rep.termination
            assert rep.map_columns == columns == len(rep.map.columns)
            # the report's L reads the full G: one more full map, unless built
            lqnash_calls.clear()
            rep.to_dict()
            rep.to_dict()
            assert +lqnash_calls == +Counter({
                "affine_response": 1 - full, "full_map": 1 - full, "_zeta_sweep": 1 - full,
                "integrate_expected": int(np.any(rep.lambda_bar)),
                "evaluate_cost": 1, "closed_loop_covariance": 1})
            assert rep.to_dict()["map_columns"] == columns
        assert rep.termination == "lcp_infeasible" and preps[2].M == columns


class TestColumnMap:
    """The column map against the full pass: every column (of G and alpha)
    that a map or a pass of chosen columns computes equals the full pass
    (``oracles.column_pass``), and the map's ctilde and policy0 are the lam = 0
    equilibrium's g and policy, bit for bit: the preparer's where it has one,
    else the solve of the stage gains here."""

    @staticmethod
    def _check(prep, sample=None):
        problem, conset = prep.problem, prep.conset
        gmap = estimate_affine_map(prep)
        gains = gmap.gains
        G, alphas = column_pass(problem, conset, gains)
        policy0 = backward_recursion(problem, gains=gains)
        if prep.equilibrium0 is None:
            mean0 = integrate_expected(problem.dyn, policy0)
        else:
            # a replan's mean is contracted (Phi x0 + d), not integrated, and
            # differs from an integrated one in the last bits
            assert np.array_equal(prep.equilibrium0[0].alpha, policy0.alpha)
            policy0, mean0 = prep.equilibrium0
        assert gmap.ctilde.tobytes() == conset.evaluate(mean0).tobytes()
        assert gmap.mean0.tobytes() == mean0.tobytes()
        assert gmap.policy0.alpha.tobytes() == policy0.alpha.tobytes()
        assert gmap.policy0.K.tobytes() == policy0.K.tobytes()
        # the map's one pass carries every row violated at lam = 0
        violated = np.flatnonzero(gmap.ctilde > 0).tolist()
        assert set(gmap.columns) == set(gmap.alphas) == set(violated)
        columns = range(prep.M - 1, -1, -1) if sample is None else sample
        for j in columns:
            # a missed column comes in a pass of its own
            assert np.array_equal(gmap[:, j], G[:, j]), j
            assert np.array_equal(gmap.alphas[j], alphas[j]), j
            # one column alone, padded to two
            alone = column_pass(problem, conset, gains, [j])
            assert np.array_equal(alone[0][:, 0], G[:, j]), j
            assert np.array_equal(alone[1][0], alphas[j]), j
        assert "G" not in vars(gmap)
        # the full G is the same pass over every column
        assert np.array_equal(gmap.G, G) and len(gmap.columns) == prep.M

    def test_bundled_scenarios(self, mini_prep, intersection_prep):
        with pytest.raises(TypeError):      # the cache is the map's own state
            dualascent.AffineGradientMap(mini_prep.problem, mini_prep.conset, columns={})
        self._check(mini_prep)
        self._check(intersection_prep, range(0, intersection_prep.M, 37))

    def test_small_games(self):
        scenarios = [random_small_scenario(np.random.default_rng(k), coupled=coupled)
                     for coupled in (False, True) for k in range(10)]
        scenarios += [coupled_constrained_instance(), scalar_single_agent_instance()]
        preps = [prepare_game(validate_scenario(s)) for s in scenarios]
        assert preps[-1].M == 1 and max(prep.problem.dyn.n_u for prep in preps) == 2
        for prep in preps:
            self._check(prep)

    @pytest.mark.parametrize("name, sample", [("intersection-mini", None),
                                              ("intersection", 4)])
    def test_every_replan_of_an_episode(self, name, sample):
        from ccgame import scenarios, simulate
        from ccgame.model import assemble_problem, load_scenario
        problem = assemble_problem(validate_scenario(
            load_scenario(str(scenarios.bundled_path(name)))))
        # the replans' own alpha columns come from the call's Psi (see
        # test_simulate's TestResponseRoute); the map on each planner slice
        # without it runs the pass route, which this pins bit for bit
        planner = simulate.CentralPlanner(problem)
        run = simulate.central_mpc_run(planner, 5, [0])
        rng = np.random.default_rng(3)
        for tau in range(problem.T):
            prep = dataclasses.replace(planner_game(planner, tau, run.states[0, tau]),
                                       psi=None, columns=None)
            self._check(prep, None if sample is None else rng.choice(prep.M, sample))


    def test_an_active_solve_runs_one_pass_from_the_latest_violated_step(
            self, monkeypatch):
        # an LTV solve or a central-MPC replan whose prepared lam = 0
        # equilibrium violates rows runs no lam = 0 solve of its own and
        # builds the map in one pass over those rows; a further pass would
        # run only for a column the pivot reads beyond them, which none of
        # these solves does.  An LTV solve's pass is a zeta pass that starts
        # at their latest step; a replan's takes its alpha columns from the
        # call's Psi, which the planner's constructor computes in one zeta
        # pass (from T) with the lam = 0 affine terms, and arrives with them,
        # from its screen's pass
        from ccgame import lqnash, scenarios, simulate
        from ccgame.model import assemble_problem, load_scenario
        starts = []
        real_sweep, real_solve = lqnash._zeta_sweep, simulate.run_dual_ascent

        def sweep(problem, gains, linear_term, start=None):
            starts.append(start)
            return real_sweep(problem, gains, linear_term, start)

        solved, replans = [], []

        def solve(prepared, options=None, **kw):
            starts.clear()
            rep = real_solve(prepared, options, **kw)
            g0 = prepared.conset.evaluate(prepared.equilibrium0[1])
            violated = np.flatnonzero(g0 > 0)
            assert np.any(rep.lambda_bar) == bool(violated.size)
            if violated.size:
                if prepared.psi is None:
                    assert starts == [prepared.conset.t[violated].max()]
                else:
                    replans.append(list(starts))
                assert set(rep.map.columns) == set(violated.tolist())
                solved.append(prepared.M)
            return rep

        monkeypatch.setattr(lqnash, "_zeta_sweep", sweep)
        monkeypatch.setattr(simulate, "run_dual_ascent", solve)
        for k in COUPLED_FEASIBLE_SEEDS:
            solve(prepare_game(validate_scenario(
                random_small_scenario(np.random.default_rng(k), coupled=True))))
        assert not replans
        problem = assemble_problem(validate_scenario(
            load_scenario(str(scenarios.bundled_path("intersection-mini")))))
        starts.clear()
        planner = simulate.CentralPlanner(problem)
        assert starts == [None]
        run = simulate.central_mpc_run(planner, 5, [0])
        assert not run.failures
        assert len(solved) == len(COUPLED_FEASIBLE_SEEDS) + run.replans_with_active_rows
        assert replans == [[]] * run.replans_with_active_rows


class TestDynamicsType:
    def test_unicycle_at_rest_at_the_origin_is_a_unicycle(self, monkeypatch):
        # its nominal trajectory is all zeros, as an LTV game's is, but its
        # declared type makes the nominal the reference and lets it relinearize
        T, nan = 5, np.nan
        cost = CostSpec(Q=np.repeat(np.eye(4)[None], T, axis=0),
                        R=np.repeat(np.eye(2)[None], T, axis=0), ref=np.zeros((T, 4)))
        box = BoxSpec(x_min=np.array([nan, nan, nan, 0.0]),
                      x_max=np.array([nan, nan, nan, 1.0]))
        at_rest = validate_scenario(Scenario(
            num_agents=1, horizon=T, dt=0.2,
            dynamics=UnicycleDynamicsSpec(initial_states=np.zeros((1, 4)),
                                          nominal_inputs=None, W=1e-4 * np.eye(4)),
            costs=(cost,), constraints=(box,), risk_epsilon=0.05, rng_seed=1,
            state_dims=(4,)))
        prep = prepare_game(at_rest)
        assert not np.any(prep.problem.nominal_states)
        assert prep.equilibrium0 is None and prep.gains is None
        rounds = Counter()

        def counting(*args, **kwargs):
            rounds["prepare_game"] += 1
            return prepare_game(*args, **kwargs)
        monkeypatch.setattr(dualascent, "prepare_game", counting)
        dualascent.solve_scenario(at_rest, relinearize=2)
        assert rounds == {"prepare_game": 3}

    def test_a_relinearized_round_keeps_its_nominal_as_the_reference(self, mini_scenario):
        # under relinearize the nominal is the previous round's constrained
        # solution, so it stays the collision reference; the round's lam = 0
        # mean is far enough from zero (0.016) that "nominal + lam = 0 mean"
        # would move the reference
        prep, _ = dualascent.solve_scenario(mini_scenario, relinearize=1)
        nominal, mean0 = prep.problem.nominal_states, estimate_affine_map(prep).mean0
        assert prep.equilibrium0 is None and np.max(np.abs(mean0)) >= 1e-3
        cov = propagate_covariance(prep.problem.dyn)
        at_nominal = assemble_constraints(prep.problem, cov, nominal)
        at_mean = assemble_constraints(prep.problem, cov, nominal + mean0)
        assert prep.conset.l.tobytes() == at_nominal.l.tobytes()
        assert prep.conset.c.tobytes() == at_nominal.c.tobytes()
        assert prep.conset.l.tobytes() != at_mean.l.tobytes()


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


class TestZeroMultiplierSolve:
    """An LTV game's prepared lam = 0 equilibrium, when it violates no row, is
    the report; withholding it makes the solve compute it on the same gains,
    which must give the same report bit for bit, with or without active rows."""

    @pytest.mark.parametrize("coupled", (False, True))
    def test_short_circuit_equals_the_full_path(self, coupled, lqnash_calls):
        # the withheld path adds the lam = 0 zeta pass and its mean
        # trajectory, and nothing else: the map's passes, the multiplier, the
        # policy, its mean and g are the prepared path's bit for bit
        lam0 = Counter({"_zeta_sweep": 1, "integrate_expected": 1})
        zero, asymmetry = [], []
        for k in range(40):
            prep = prepare_game(validate_scenario(
                random_small_scenario(np.random.default_rng(k), coupled=coupled)))
            assert prep.equilibrium0 is not None
            # the same game with every row slackened so that lam = 0 solves it
            g0 = prep.conset.evaluate(prep.equilibrium0[1])
            slack = dataclasses.replace(prep.conset, c=prep.conset.c - g0.max() - 1.0)
            for game in (prep, dataclasses.replace(prep, conset=slack)):
                withheld = dataclasses.replace(game, equilibrium0=None)
                lqnash_calls.clear()
                rep = run_dual_ascent(game, DualAscentOptions(k_max=200))
                calls = +lqnash_calls
                lqnash_calls.clear()
                full = run_dual_ascent(withheld, DualAscentOptions(k_max=200))
                assert calls + lam0 == +lqnash_calls, k
                for a, b in ((rep.lambda_bar, full.lambda_bar),
                             (rep.policy.K, full.policy.K),
                             (rep.policy.alpha, full.policy.alpha),
                             (rep.mean_traj, full.mean_traj),
                             (rep.g_final, full.g_final),
                             (rep.map.ctilde, full.map.ctilde),
                             (rep.feasibility_residual, full.feasibility_residual),
                             (rep.complementarity, full.complementarity),
                             (rep.natural_residual, full.natural_residual)):
                    assert _bits(a) == _bits(b), k
                assert rep.termination == full.termination and rep.pivots == full.pivots
                assert rep.map_columns == full.map_columns, k
                if np.any(rep.lambda_bar):
                    assert calls["full_map"] == int(rep.termination != "lcp_solved"), k
                    assert rep.map_columns > 0, k
                    continue
                zero.append(k)
                assert calls == Counter(), k
                assert rep.termination == "lcp_solved" and rep.pivots == 0
                assert rep.map_columns == 0, k
                lqnash_calls.clear()
                assert rep.lipschitz == full.lipschitz, k
                assert lqnash_calls == {"affine_response": 2, "_zeta_sweep": 2,
                                        "full_map": 2}, k
                for a, b in ((rep.map.asymmetry, full.map.asymmetry),
                             (rep.eta, full.eta), (rep.dual_values, full.dual_values),
                             (rep.map.dual_value(0, rep.lambda_bar),
                              full.map.dual_value(0, full.lambda_bar))):
                    assert _bits(a) == _bits(b), k
                asymmetry.append(rep.map.asymmetry)
        # each slackened game, and the games whose own rows hold at lam = 0;
        # only coupled costs make G non-symmetric
        assert len(zero) == 40 + (1 if coupled else 2)
        assert (max(asymmetry) > 1e-8) == coupled


class TestColumnPolicy:
    """A solve the pivot ends combines its policy from the map's cached
    columns: alpha(lam) = alpha0 + sum_j lam_j alpha_j.  It equals the
    full sweep at the same multiplier to 1e-13 of each quantity's scale, and
    the multiplier equals the pivot's on the full G bit for bit."""

    @staticmethod
    def _check(prep, rep):
        assert rep.termination == "lcp_solved" and np.any(rep.lambda_bar)
        assert set(np.flatnonzero(rep.lambda_bar).tolist()) <= set(rep.map.alphas)
        policy, traj, g = solve_at(prep, rep.lambda_bar)
        assert np.array_equal(rep.policy.K, policy.K)
        for got, want in ((rep.policy.alpha, policy.alpha), (rep.mean_traj, traj),
                          (rep.g_final, g)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert _bits(rep.lambda_bar) == _bits(solve_lcp(rep.map.G, rep.map.ctilde)[0])

    def test_bundled_scenarios(self, mini_prep, mini_report, intersection_prep,
                               intersection_report):
        self._check(mini_prep, mini_report)
        self._check(intersection_prep, intersection_report)

    def test_coupled_games(self):
        # coupled costs make G non-symmetric; each of these games has active rows
        for k in COUPLED_FEASIBLE_SEEDS:
            prep = prepare_game(validate_scenario(
                random_small_scenario(np.random.default_rng(k), coupled=True)))
            self._check(prep, run_dual_ascent(prep))

    @pytest.mark.parametrize("name", ["intersection-mini", "intersection"])
    def test_every_active_replan_of_an_episode(self, monkeypatch, name):
        from ccgame import scenarios, simulate
        from ccgame.model import assemble_problem, load_scenario
        problem = assemble_problem(validate_scenario(
            load_scenario(str(scenarios.bundled_path(name)))))
        real = simulate.run_dual_ascent

        def checking(prepared, options=None, **kw):
            rep = real(prepared, options, **kw)
            if np.any(rep.lambda_bar):
                self._check(prepared, rep)
            return rep

        monkeypatch.setattr(simulate, "run_dual_ascent", checking)
        planner = simulate.CentralPlanner(problem)
        for seed in (0, 5, 42):
            run = simulate.central_mpc_run(planner, seed, [0])
            assert not run.failures and run.replans_with_active_rows > 0, seed


class TestOneRoute:
    """The policy at any multiplier is the map's, (K, alpha(lam)) on the
    stage gains.  It, its mean and g equal the full sweep at lam, which
    shares no code with the map, to 1e-13 of max(1, |.|): at a random dense
    lam and at the fallback ascent's averaged lam, which is the report's own
    multiplier when the pivot ends on a ray."""

    @staticmethod
    def _check(prep, rng):
        rep = run_dual_ascent(prep, DualAscentOptions(k_max=200))
        gmap = rep.map
        fallback = rep.termination != "lcp_solved"
        lam_bar = rep.lambda_bar if fallback else _ascent(gmap, rep.eta, rep.options)[0]
        for lam in (rng.uniform(0.0, 1.5, prep.M), lam_bar):
            policy = FeedbackPolicy(K=gmap.gains.K, alpha=gmap.alpha(lam))
            traj = integrate_expected(prep.problem.dyn, policy)
            got = (policy.alpha, traj, prep.conset.evaluate(traj))
            want_policy, want_traj, want_g = solve_at(prep, lam)
            assert np.array_equal(policy.K, want_policy.K)
            for a, b in zip(got, (want_policy.alpha, want_traj, want_g)):
                scale = max(1.0, np.max(np.abs(b), initial=0.0))
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * scale
        if fallback:
            for a, b in zip(got, (rep.policy.alpha, rep.mean_traj, rep.g_final)):
                assert _bits(a) == _bits(b)
        return fallback

    def test_bundled_scenarios(self, mini_prep, intersection_prep):
        rng = np.random.default_rng(21)
        for prep in (mini_prep, intersection_prep):
            assert not self._check(prep, rng)

    @pytest.mark.parametrize("coupled", (False, True))
    def test_small_games(self, coupled):
        rng = np.random.default_rng(22)
        rays = [k for k in range(18) if self._check(prepare_game(validate_scenario(
            random_small_scenario(np.random.default_rng(k), coupled=coupled))), rng)]
        assert rays == ([6, 11] if coupled else [2, 6, 11, 13, 14])

    def test_coupled_constrained_instance(self):
        prep = prepare_game(validate_scenario(coupled_constrained_instance()))
        assert not self._check(prep, np.random.default_rng(23))


class TestLazyDiagnostics:
    def test_each_lazy_property_equals_its_formula(self, mini_prep):
        # the ray game runs the fallback ascent, which reads L for its step;
        # the coupled game has a non-symmetric G
        coupled = prepare_game(validate_scenario(coupled_constrained_instance()))
        ray = prepare_game(validate_scenario(random_small_scenario(
            np.random.default_rng(2))))
        for prep in (mini_prep, coupled, ray):
            rep = run_dual_ascent(prep, DualAscentOptions(k_max=200))
            gmap = rep.map
            computed = ({"_norms", "dual0"} & set(vars(gmap))
                        | {"eta", "dual_values"} & set(vars(rep)))
            assert computed == ({"_norms"} if rep.iterations else set())
            L, asymmetry = dualascent._spectral_norm(gmap.G)
            assert gmap.L == L and rep.lipschitz == L
            assert gmap.asymmetry == asymmetry
            assert rep.eta == 0.5 / L
            assert np.array_equal(gmap.dual0, evaluate_cost(prep.problem,
                                                            gmap.policy0))
            assert np.array_equal(rep.dual_values, evaluate_lagrangian(
                prep.problem, rep.policy, rep.lambda_bar, prep.conset,
                rep.mean_traj))


    def test_the_map_keeps_the_stage_gains_once_built(self, intersection_report):
        # a unicycle solve computes its own gains; only a zeta pass reads
        # them, and the map keeps them after the full G for the alpha
        # columns a multiplier may still ask for
        assert np.any(intersection_report.lambda_bar)
        gmap = intersection_report.map
        gains = gmap.gains
        gmap.G
        assert gmap.gains is gains

    def test_a_short_circuited_map_keeps_its_gains_until_read(self):
        prep = prepare_game(validate_scenario(random_small_scenario(
            np.random.default_rng(0))))
        g0 = prep.conset.evaluate(prep.equilibrium0[1])
        slack = dataclasses.replace(prep, conset=dataclasses.replace(
            prep.conset, c=prep.conset.c - g0.max() - 1.0))
        rep = run_dual_ascent(slack)
        full = run_dual_ascent(dataclasses.replace(slack, equilibrium0=None))
        assert not np.any(rep.lambda_bar) and rep.map.gains is prep.gains
        assert rep.lipschitz == full.lipschitz
        assert rep.map.G.tobytes() == full.map.G.tobytes()


class TestDualStep:
    def test_projection_cases(self):
        assert np.array_equal(dual_step(np.zeros(2), 0.5, np.array([-1.0, -2.0])),
                              np.zeros(2))
        assert dual_step(np.array([1.0]), 0.5, np.array([-4.0]))[0] == 0.0
        assert dual_step(np.array([1.0]), 0.5, np.array([2.0]))[0] == 2.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
           st.floats(1e-6, 10.0))
    def test_result_nonnegative(self, g, eta):
        lam = np.abs(np.asarray(g))[::-1].copy()
        out = dual_step(lam, eta, np.asarray(g))
        assert np.all(out >= 0.0)


class TestRunDualAscent:
    def test_feasible_unconstrained_ne_terminates_at_zero(self):
        # wide bound: the unconstrained equilibrium already satisfies it
        s = scalar_single_agent_instance(bound=10.0)
        prep = prepare_game(validate_scenario(s))
        rep = run_dual_ascent(prep, DualAscentOptions(k_max=500))
        assert rep.termination == "lcp_solved"
        assert rep.pivots == rep.iterations == 0
        assert np.array_equal(rep.lambda_bar, np.zeros(1))
        policy0 = backward_recursion(prep.problem)
        assert np.allclose(rep.policy.K, policy0.K, atol=1e-14)
        assert np.allclose(rep.policy.alpha, policy0.alpha, atol=1e-14)
        # the fallback ascent stops at zero too, on its tolerance before its budget
        lam_bar, iterations = _ascent(rep.map, rep.eta, DualAscentOptions(k_max=500))
        assert iterations < 500
        assert np.array_equal(lam_bar, np.zeros(1))

    def test_lambda_bar_is_average_and_iterates_nonnegative(self):
        prep = prepare_game(validate_scenario(scalar_single_agent_instance()))
        gmap = estimate_affine_map(prep)
        eta = 0.5 / gmap.L
        lam_bar, iterations = _ascent(gmap, eta, DualAscentOptions(k_max=300))
        iterates = _iterates(gmap, eta, iterations)
        assert np.all(iterates >= 0.0)
        G = gmap.G
        assert np.max(np.abs(averaged_ascent(G, gmap.ctilde, eta, iterations)
                             - lam_bar)) < 1e-12
        assert np.max(np.abs(iterates.mean(axis=0) - lam_bar)) < 1e-12

    def test_scalar_instance_converges_to_kkt(self):
        s = scalar_single_agent_instance()
        prep = prepare_game(validate_scenario(s))
        lam_star, traj_star = dense_kkt_single_row(prep.problem, prep.conset.lmat,
                                                   prep.conset.c)
        assert lam_star[0] > 0
        rep = run_dual_ascent(prep, DualAscentOptions(k_max=10_000))
        assert abs(rep.lambda_bar[0] - lam_star[0]) < 1e-3
        assert np.max(np.abs(rep.mean_traj - traj_star)) < 1e-3

    def test_affine_map_matches_literal_solves_at_ascent_iterates(self, mini_prep):
        gmap = estimate_affine_map(mini_prep)
        eta = 0.5 / gmap.L
        lam_bar, iterations = _ascent(gmap, eta, DualAscentOptions(k_max=40))
        iterates = _iterates(gmap, eta, iterations)
        assert np.max(np.abs(averaged_ascent(gmap.G, gmap.ctilde, eta, iterations)
                             - lam_bar)) < 1e-12
        for lam in iterates:
            _, _, g = solve_at(mini_prep, lam)
            assert np.max(np.abs(gmap.gradient(lam) - g)) < 1e-10

    def test_mini_residual_magnitude(self, mini_report):
        # the pivot is exact: measured 0.0 on all three residuals
        assert mini_report.termination == "lcp_solved"
        assert mini_report.feasibility_residual <= 1e-10
        assert mini_report.complementarity <= 1e-10
        assert mini_report.natural_residual <= 1e-10
        assert mini_report.eta == pytest.approx(0.5 / mini_report.lipschitz)

    def test_report_flags_residual_against_the_run_tolerance(self, mini_prep,
                                                             mini_report, monkeypatch):
        # the pivot's residual is 0; a zero pivot cap forces the fallback,
        # whose 1000 ascent iterations leave a residual between 1e-6 and 1e-2
        assert mini_report.to_dict()["residual_above_tolerance"] is False
        monkeypatch.setattr(dualascent, "PIVOTS_PER_ROW", 0)
        report = run_dual_ascent(mini_prep, DualAscentOptions(k_max=1000))
        assert report.termination == "lcp_pivot_cap"
        assert 1e-6 < report.feasibility_residual <= 1e-2
        assert report.to_dict()["residual_above_tolerance"] is True

    def test_step_size_unavailable_on_uncontrollable_violation(self):
        from ccgame.model import BoxSpec
        con = BoxSpec(x_min=np.array([np.nan, np.nan]),
                      x_max=np.array([np.nan, 0.5]), active_times=(2,))
        s = make_ltv_scenario(
            [2], 3, [np.array([[1.0, 0.0], [0.0, 1.0]])],
            [np.array([[1.0], [0.0]])], [0.0, 1.0], [1e-6, 1e-6],
            [np.diag([1.0, 0.0])], [np.array([[1.0]])],
            [np.array([0.0, 0.0])], [con])
        prep = prepare_game(validate_scenario(s))
        with pytest.raises(StepSizeUnavailable):
            run_dual_ascent(prep, DualAscentOptions(k_max=50))


def _natural_residual(lam, g):
    return float(np.max(np.abs(lam - np.maximum(0.0, lam + g)), initial=0.0))


class TestLcp:
    def test_agrees_with_a_long_ascent_on_g_and_trajectory(self):
        self._agrees_with_a_long_ascent([coupled_constrained_instance()] + [
            random_small_scenario(np.random.default_rng(k)) for k in FEASIBLE_SEEDS])

    def test_agrees_with_a_long_ascent_on_coupled_costs(self):
        preps = self._agrees_with_a_long_ascent([
            random_small_scenario(np.random.default_rng(k), coupled=True)
            for k in COUPLED_FEASIBLE_SEEDS])
        assert max(estimate_affine_map(prep).asymmetry for prep in preps) > 1e-8

    @staticmethod
    def _agrees_with_a_long_ascent(games):
        preps = [prepare_game(validate_scenario(s)) for s in games]
        reports = [run_dual_ascent(prep) for prep in preps]
        for rep in reports:
            assert rep.termination == "lcp_solved"
            assert rep.natural_residual <= 1e-10
            assert np.all(rep.lambda_bar >= 0.0)
        # the ascent is separable across a block-diagonal map, so one
        # 200k-step loop runs every game with its own step 0.5 / L
        sizes = [prep.M for prep in preps]
        G = np.zeros((sum(sizes), sum(sizes)))
        offsets = np.cumsum([0] + sizes)
        for rep, lo, hi in zip(reports, offsets, offsets[1:]):
            G[lo:hi, lo:hi] = rep.map.G
        c = np.concatenate([rep.map.ctilde for rep in reports])
        eta = np.repeat([0.5 / rep.lipschitz for rep in reports], sizes)
        lam_ascent = averaged_ascent(G, c, eta, 200_000)
        for prep, rep, lo, hi in zip(preps, reports, offsets, offsets[1:]):
            # lam is not unique on a rank-deficient G, so compare what it
            # determines, up to the ascent's own natural residual
            _, traj, g = solve_at(prep, lam_ascent[lo:hi])
            tol = 4.0 * _natural_residual(lam_ascent[lo:hi], g) + 1e-12
            assert np.max(np.abs(rep.g_final - g)) <= tol
            assert np.max(np.abs(rep.mean_traj - traj)) <= tol
        return preps

    @pytest.mark.parametrize("seed", (2, 6))
    def test_ray_falls_back_to_the_ascent(self, seed):
        prep = prepare_game(validate_scenario(
            random_small_scenario(np.random.default_rng(seed))))
        options = DualAscentOptions(k_max=3000, eta=0.05)
        rep = run_dual_ascent(prep, options)
        lam_bar, iterations = _ascent(rep.map, 0.05, options)
        assert rep.termination == "lcp_infeasible"
        assert rep.pivots > 0
        assert rep.iterations == iterations == 3000     # the whole budget
        assert np.array_equal(rep.lambda_bar, lam_bar)
        assert rep.feasibility_residual > 1e-2

    def test_duplicated_rows_tie_to_the_lower_index(self):
        prep = prepare_game(validate_scenario(coupled_constrained_instance()))
        cs, M = prep.conset, prep.M
        # each step's rows, then their copies: a copy's index is above its row's
        order = np.argsort(np.concatenate([cs.t, cs.t]), kind="stable")
        doubled = dataclasses.replace(prep, conset=dataclasses.replace(
            cs, t=np.concatenate([cs.t, cs.t])[order],
            source=np.concatenate([cs.source, cs.source])[order],
            l=np.vstack([cs.l, cs.l])[order], c=np.concatenate([cs.c, cs.c])[order]))
        assert doubled.conset.lmat.tobytes() == np.hstack([cs.lmat, cs.lmat])[:, order].tobytes()
        rep = run_dual_ascent(prep)
        rep2 = run_dual_ascent(doubled)
        assert rep2.termination == "lcp_solved"
        assert rep2.natural_residual <= 1e-10
        # every tie between a row and its copy went to the first copy
        assert np.all(rep2.lambda_bar[order >= M] == 0.0)
        assert np.max(np.abs(rep2.lambda_bar[order < M] - rep.lambda_bar)) <= 1e-12
        assert np.max(np.abs(rep2.mean_traj - rep.mean_traj)) <= 1e-12

    def test_pivot_cap_falls_back_to_the_ascent(self, monkeypatch):
        prep = prepare_game(validate_scenario(coupled_constrained_instance()))
        assert run_dual_ascent(prep).pivots == 11
        monkeypatch.setattr(dualascent, "PIVOTS_PER_ROW", 0)
        options = DualAscentOptions(k_max=500)
        rep = run_dual_ascent(prep, options)
        lam_bar, iterations = _ascent(rep.map, rep.eta, options)
        assert rep.termination == "lcp_pivot_cap"
        assert rep.iterations == iterations
        assert np.array_equal(rep.lambda_bar, lam_bar)

    def test_singular_basis_is_returned_not_raised(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        lam, pivots, termination = solve_lcp(-np.eye(2), np.array([1.0, 0.5]))
        assert lam is None
        assert pivots == 2
        assert termination == "lcp_singular_basis"

    def test_artificial_variable_wins_a_ratio_tie(self):
        # after z0 enters, z0 and w_1 block at the same ratio 1; z0 leaving
        # ends at the solution in 2 pivots, w_1 leaving would take a third
        lam, pivots, termination = solve_lcp(-np.eye(2), np.array([1.0, 0.0]))
        assert (pivots, termination) == (2, "lcp_solved")
        assert np.array_equal(lam, [1.0, 0.0])

    def test_feasible_start_needs_no_pivot(self):
        lam, pivots, termination = solve_lcp(-np.eye(3), np.array([-1.0, 0.0, -2.0]))
        assert (pivots, termination) == (0, "lcp_solved")
        assert np.array_equal(lam, np.zeros(3))


class TestOptions:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-3, 5),
           st.one_of(st.just("auto"), st.floats(), st.integers(-2, 2),
                     st.text(max_size=4), st.booleans()))
    @example(1, True)
    @example(1, False)
    def test_construction_accepts_exactly_the_valid_options(self, k_max, eta):
        valid_eta = eta == "auto" or (not isinstance(eta, (str, bool))
                                      and math.isfinite(eta) and eta > 0)
        if k_max >= 1 and valid_eta:
            assert DualAscentOptions(k_max=k_max, eta=eta).eta == eta
        else:
            with pytest.raises(DomainError):
                DualAscentOptions(k_max=k_max, eta=eta)


    @pytest.mark.parametrize("name", ["tol_feas", "tol_slack"])
    @pytest.mark.parametrize("value", [math.nan, np.float64("nan"), -1.0, -1, -1e-300,
                                       math.inf, -math.inf, "x", "0", None, [0.0], True])
    def test_tolerances_must_be_finite_and_nonnegative(self, name, value):
        # a NaN tolerance made report.json say the residual was within it
        # while `ccgame solve` exited 2; the tolerances are now fixed, and
        # k_max and eta are the only options
        with pytest.raises(TypeError, match=name):
            DualAscentOptions(**{name: value})
        assert getattr(DualAscentOptions(), name) == 1e-6
        assert [f.name for f in dataclasses.fields(DualAscentOptions)] == ["k_max", "eta"]

class TestDualFunction:
    def test_zero_multiplier_is_unconstrained_cost(self):
        prep = prepare_game(validate_scenario(double_integrator_instance()))
        policy0 = backward_recursion(prep.problem)
        for i in range(prep.problem.N):
            assert dual_function(prep, np.zeros(prep.M), i) == pytest.approx(
                evaluate_cost(prep.problem, policy0)[i], abs=1e-12)

    def test_finite_differences_match_gradient(self):
        # envelope form: rivals frozen at the base multiplier's equilibrium
        prep = prepare_game(validate_scenario(scalar_two_agent_instance(T=3)))
        rng = np.random.default_rng(9)
        lam = rng.uniform(0.1, 1.0, prep.M)
        _, _, g = solve_at(prep, lam)
        delta = 1e-4
        for m in range(prep.M):
            e = np.zeros(prep.M)
            e[m] = delta
            for i in range(prep.problem.N):
                fd = (dual_function(prep, lam + e, i, others_from=lam)
                      - dual_function(prep, lam - e, i, others_from=lam)) / (2 * delta)
                assert abs(fd - g[m]) <= 1e-6 * max(1.0, abs(g[m]))

    def test_coupled_composite_derivative_includes_rival_term(self):
        # differentiating with rivals moving too does NOT reproduce g; this
        # pins why the frozen-rival form above is the one the identity holds for
        prep = prepare_game(validate_scenario(scalar_two_agent_instance(T=3)))
        rng = np.random.default_rng(9)
        lam = rng.uniform(0.1, 1.0, prep.M)
        _, _, g = solve_at(prep, lam)
        delta = 1e-4
        e = np.zeros(prep.M)
        e[0] = delta
        fd = (dual_function(prep, lam + e, 0)
              - dual_function(prep, lam - e, 0)) / (2 * delta)
        assert abs(fd - g[0]) > 1e-3

    def test_concavity_midpoint(self):
        prep = prepare_game(validate_scenario(double_integrator_instance()))
        rng = np.random.default_rng(12)
        lam1 = rng.uniform(0, 2.0, prep.M)
        lam2 = rng.uniform(0, 2.0, prep.M)
        for i in range(prep.problem.N):
            mid = dual_function(prep, (lam1 + lam2) / 2, i)
            ends = (dual_function(prep, lam1, i) + dual_function(prep, lam2, i)) / 2
            assert mid >= ends - 1e-8


def test_unconstrained_run_returns_plain_equilibrium():
    s = scalar_single_agent_instance()
    s = Scenario(**{**s.__dict__, "constraints": ()})
    prep = prepare_game(validate_scenario(s))
    assert prep.M == 0
    policy0 = backward_recursion(prep.problem)
    rep = run_dual_ascent(prep, DualAscentOptions(k_max=100))
    assert rep.lambda_bar.shape == (0,)
    assert rep.feasibility_residual == 0.0
    assert rep.termination == "lcp_solved"
    assert np.array_equal(rep.policy.K, policy0.K)


def test_random_scenarios_solve_cleanly(random_scenarios):
    for s in random_scenarios:
        prep = prepare_game(validate_scenario(s))
        rep = run_dual_ascent(prep, DualAscentOptions(k_max=400))
        assert np.all(rep.lambda_bar >= 0.0)
        assert np.isfinite(rep.dual_values).all()
