import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgame import lqnash, scenarios, simulate
from ccgame.errors import DomainError, SingularStageSystem
from ccgame.lqnash import (FeedbackPolicy, _check_rcond, _zeta_sweep, affine_response,
                           backward_recursion, closed_loop_step, evaluate_cost,
                           evaluate_lagrangian, fixed_order_sums, integrate_expected,
                           mean_inputs, quadratic_sums, realized_costs, stage_gains,
                           zeta_response)
from ccgame.model import (GameProblem, LtvGameDynamics, Scenario, assemble_problem,
                          validate_scenario)
from ccgame.dualascent import (DualAscentOptions, estimate_affine_map, prepare_game,
                               run_dual_ascent)
from conftest import (coupled_constrained_instance, coupled_two_agent_scenario,
                      dense_input_scenario, double_integrator_instance, make_ltv_scenario,
                      random_small_scenario, scalar_single_agent_instance,
                      scalar_two_agent_instance)
from oracles import (_riccati_sweep, batched_closed_loop_step, best_response,
                     check_stage_rcond, column_pass,
                     dense_best_response, dense_game_inputs, loop_quadratic_sums,
                     lqr_oracle, replace_player, stage_linear_terms,
                     sweep_affine_response, sweep_backward_recursion)


def riccati_matrices(problem):
    """P (T+1, N, n_x, n_x) of the coupled sweep; P does not depend on lam."""
    return stage_gains(problem).P


def lq_game(A, B, Q, R):
    """A game with no references, noise or rows from A (T, n_x, n_x),
    B (T, N, n_x, n_u), Q (N, T+1, n_x, n_x) and R (N, T, n_u, n_u)."""
    T, N, n_x, n_u = B.shape
    dyn = LtvGameDynamics(A=A, B=B, W=np.zeros((T, n_x, n_x)), x0=np.zeros(n_x))
    return GameProblem(dyn=dyn, Q=Q, R=R, ref=np.zeros((N, T + 1, n_x)), constraints=(),
                       nominal_states=np.zeros((T + 1, n_x)),
                       nominal_inputs=np.zeros((T, N, n_u)), state_dims=(n_x,),
                       dt=0.1, risk_epsilon=0.05)


def one_stage_gains(P, A, B, R):
    """K (N, n_u, n_x) of the one-stage game whose terminal Q is P:
    P (N, n_x, n_x), A (n_x, n_x), B (N, n_x, n_u), R (N, n_u, n_u)."""
    Q = np.stack([np.zeros_like(P), P], axis=1)
    return stage_gains(lq_game(A[None], B[None], Q, R[:, None])).K[0]


class TestStageGains:
    def test_single_player_reduces_to_lqr_gain(self):
        rng = np.random.default_rng(0)
        n, m = 3, 2
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(1, n, m))
        R = np.eye(m)[None] * 1.5
        P = np.eye(n)[None] * 2.0
        K = one_stage_gains(P, A, B, R)
        expected = np.linalg.solve(R[0] + B[0].T @ P[0] @ B[0],
                                   B[0].T @ P[0] @ A)
        assert np.allclose(K[0], expected, atol=1e-12)

    def test_two_player_scalar_frozen(self):
        P = np.ones((2, 1, 1))
        A = np.array([[1.0]])
        B = np.ones((2, 1, 1))
        R = np.ones((2, 1, 1))
        K = one_stage_gains(P, A, B, R)
        assert K[0, 0, 0] == pytest.approx(1 / 3, abs=1e-14)
        assert K[1, 0, 0] == pytest.approx(1 / 3, abs=1e-14)

    def test_powerless_player_gets_zero_gain(self):
        P = np.ones((2, 1, 1))
        A = np.array([[1.0]])
        B = np.stack([np.array([[1.0]]), np.array([[0.0]])])
        R = np.ones((2, 1, 1))
        K = one_stage_gains(P, A, B, R)
        assert K[1, 0, 0] == 0.0
        assert K[0, 0, 0] == pytest.approx(0.5)   # (R + B'PB)^-1 B'PA

    def test_singular_stage_detected(self):
        # 8 stages; the sweep starts at stage 7, where S = R + B'PB = 0
        T = 8
        problem = lq_game(np.ones((T, 1, 1)), np.ones((T, 1, 1, 1)),
                          np.zeros((1, T + 1, 1, 1)), np.zeros((1, T, 1, 1)))
        with pytest.raises(SingularStageSystem) as info:
            stage_gains(problem)
        assert info.value.t == 7


def outcome(call):
    """(class, stage, message) of the error ``call()`` raises, under warnings as
    errors, or None when it raises none."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except Exception as e:
            return type(e), getattr(e, "t", None), str(e)
    return None


class TestStackedCheck:
    """``_check_rcond``'s one stacked SVD fails as the one-stage check run from
    t = T-1 down (``oracles.check_stage_rcond``) does: the same class, stage
    and message."""

    @staticmethod
    def per_stage(S, start=0):
        for t in range(len(S) - 1, start - 1, -1):
            check_stage_rcond(S[t], t)

    def test_crafted_stacks(self):
        rng = np.random.default_rng(39)
        L = rng.normal(size=(6, 3, 3))
        fine = L @ L.transpose(0, 2, 1) + np.eye(3)
        rank2 = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        bad = {"singular": rank2, "near": np.diag([1.0, 1.0, 1e-13]),
               "inf": np.diag([np.inf, 1.0, 1.0]), "nan": np.diag([np.nan, 1.0, 1.0])}
        # (stages set to a bad system, the class and stage that must be named)
        cases = [({}, None, None),
                 ({3: "singular"}, SingularStageSystem, 3),
                 ({3: "near"}, SingularStageSystem, 3),
                 ({1: "singular", 4: "near"}, SingularStageSystem, 4),
                 ({2: "inf"}, SingularStageSystem, 2),
                 ({2: "nan"}, DomainError, None),
                 ({4: "nan", 2: "singular"}, DomainError, None),
                 ({4: "singular", 2: "nan"}, SingularStageSystem, 4),
                 ({4: "inf", 2: "singular"}, SingularStageSystem, 4),
                 ({4: "singular", 2: "inf"}, SingularStageSystem, 4),
                 ({5: "nan", 0: "nan"}, DomainError, None)]
        for stages, cls, t in cases:
            S = fine.copy()
            for u, name in stages.items():
                S[u] = bad[name]
            for start in range(len(S)):
                got = outcome(lambda: _check_rcond(S, start))
                assert got == outcome(lambda: self.per_stage(S, start)), (stages, start)
            got = outcome(lambda: _check_rcond(S))
            assert (got[:2] if got else None) == ((cls, t) if cls else None), stages
        assert outcome(lambda: _check_rcond(S)) == (
            DomainError, None, "stage 5: the joint gain system overflows")
        S[5] = bad["inf"]
        assert outcome(lambda: _check_rcond(S)) == (
            SingularStageSystem, 5, str(SingularStageSystem(5, 0.0)))

    @pytest.mark.parametrize("B3, R3", [(0.0, 0.0), (1.0, 1e-15), (1e200, 1.0), (np.nan, 1.0)],
                             ids=["zero", "near", "inf", "nan"])
    def test_stage_3_of_8_fails_as_the_full_sweep_does(self, B3, R3):
        # at stage 3 of 8: S_3 = 0, which the solve fails on; S_3 = p [1 1; 1 1]
        # + diag(0, 1e-15), which it solves into large gains below; S_3 = inf,
        # and NaN.  The error names stage 3, as the full sweep's per-stage
        # check does, and no RuntimeWarning escapes
        T = 8
        B, R = np.ones((T, 1, 1, 2)), np.ones((1, T, 2, 2)) + np.eye(2)
        B[3], R[0, 3] = B3, np.diag([0.0, R3])
        problem = lq_game(np.ones((T, 1, 1)), B, np.ones((1, T + 1, 1, 1)), R)
        got = outcome(lambda: stage_gains(problem))
        with np.errstate(all="ignore"):
            want = outcome(lambda: _riccati_sweep(problem, lambda t: np.zeros((1, 1, 2))))
        assert got == want and got[:2] in ((SingularStageSystem, 3), (DomainError, None))
        assert "stage 3" in got[2]


class TestGainsOnce:
    """The gains-once path against the full sweep it replaced
    (``oracles._riccati_sweep``), bit for bit."""

    @staticmethod
    def wide_games():
        """(problem, C) for 120 seeds: N 1-5, n_u 1-3, n_x 1-12, T 1-7 and a
        linear term C (T+1, N, n_x, m) of 2-6 columns, shapes past
        random_small_scenario's (N <= 3, n_u <= 2, T >= 4)."""
        for k in range(120):
            rng = np.random.default_rng(k)
            N, n_u, n_x = (int(rng.integers(1, 6)), int(rng.integers(1, 4)),
                           int(rng.integers(1, 13)))
            T, m = int(rng.integers(1, 8)), int(rng.integers(2, 7))
            L = rng.normal(size=(N, T + 1, n_x, n_x))
            Lr = rng.normal(size=(N, T, n_u, n_u))
            problem = lq_game(rng.normal(size=(T, n_x, n_x)),
                              rng.normal(size=(T, N, n_x, n_u)),
                              L @ np.swapaxes(L, -1, -2),
                              Lr @ np.swapaxes(Lr, -1, -2) + np.eye(n_u))
            yield problem, rng.normal(size=(T + 1, N, n_x, m))

    def test_stage_and_zeta_pass_equal_the_full_sweep_on_wide_shapes(self):
        for problem, C in self.wide_games():
            K, a, F, P = _riccati_sweep(problem, lambda t: C[t])
            gains = stage_gains(problem)
            shape = (problem.N, problem.n_u, problem.n_x, problem.T, C.shape[-1])
            assert np.array_equal(gains.K, K), shape
            assert np.array_equal(gains.F, F), shape
            assert np.array_equal(gains.P, P), shape
            assert np.array_equal(_zeta_sweep(problem, gains, lambda t: C[t]), a), shape

    def test_alpha0_and_the_zeta_response_equal_the_full_sweep_on_wide_shapes(self):
        # the gains' solves [B'P A | Ya] give alpha0 and Psi the full sweep's
        # bits, here with references drawn at random; the zeta response's
        # gains are stage_gains' bit for bit
        for k, (problem, _) in enumerate(self.wide_games()):
            ref = np.random.default_rng(1000 + k).normal(size=problem.ref.shape)
            problem = replace(problem, ref=ref)
            N, T, n_x = problem.N, problem.T, problem.n_x
            s = stage_linear_terms(problem)
            goal = np.stack([s, np.zeros_like(s)], axis=-1)
            shape = (N, problem.n_u, n_x, T)
            gains = stage_gains(problem)
            a = _riccati_sweep(problem, lambda t: goal[:, t])[1]
            assert np.array_equal(gains.alpha0, a[..., 0]), shape

            def linear_term(t):
                C = np.zeros((N, n_x, T, n_x))
                C[:, :, t - 1] = np.eye(n_x) * (t > 0)
                return np.concatenate([C.reshape(N, n_x, T * n_x), s[:, t, :, None]], axis=2)

            a = _riccati_sweep(problem, linear_term)[1]
            response, psi = zeta_response(problem)
            assert psi.tobytes() == a[..., :-1].reshape(T, N, -1, T, n_x).tobytes(), shape
            assert np.array_equal(response.alpha0, a[..., -1]), shape
            for name in ("K", "F", "P", "S", "KtR", "alpha0"):
                assert np.array_equal(getattr(response, name), getattr(gains, name)), shape

    def test_a_one_column_zeta_pass_equals_a_padded_one(self):
        # the sweep pads a single column itself, so its bits are those of
        # column 0 of the term a caller pads with a zero column
        for problem, C in self.wide_games():
            padded = np.concatenate([C[..., :1], np.zeros_like(C[..., :1])], axis=-1)
            gains = stage_gains(problem)
            one = _zeta_sweep(problem, gains, lambda t: C[t, ..., :1])
            assert one.shape == (problem.T, problem.N, problem.n_u, 1)
            want = _zeta_sweep(problem, gains, lambda t: padded[t])[..., :1]
            assert np.array_equal(one, want), (problem.N, problem.n_u, problem.n_x, problem.T)

    def test_backward_recursion_and_map_equal_the_full_sweep(self, mini_prep,
                                                             intersection_prep):
        # both bundled scenarios, random_small_scenario(default_rng(k)) for
        # k = 0..17 and the coupled game, whose G is not symmetric
        scenarios = [random_small_scenario(np.random.default_rng(k)) for k in range(18)]
        scenarios.append(coupled_constrained_instance())
        preps = [mini_prep, intersection_prep]
        preps += [prepare_game(validate_scenario(s)) for s in scenarios]
        for prep in preps:
            problem, conset = prep.problem, prep.conset
            got = backward_recursion(problem)
            for lam in (None, np.zeros(prep.M)):
                want = sweep_backward_recursion(problem, conset, lam)
                assert np.array_equal(got.K, want.K)
                assert np.array_equal(got.alpha, want.alpha)
            G, alphas = column_pass(problem, conset, stage_gains(problem))
            G_ref, alphas_ref, ctilde_ref, policy0_ref = sweep_affine_response(problem,
                                                                               conset)
            assert np.array_equal(G, G_ref)
            assert np.array_equal(alphas, alphas_ref)
            # the sweep's constant column is the lam = 0 policy; the map's
            # ctilde, g at that policy's integrated mean, is its forward
            # pass's to rounding (3.9e-16 of max(1, |ctilde|) measured)
            policy0 = backward_recursion(problem)
            assert np.array_equal(policy0.K, policy0_ref.K)
            assert np.array_equal(policy0.alpha, policy0_ref.alpha)
            ctilde = conset.evaluate(integrate_expected(problem.dyn, policy0))
            assert np.max(np.abs(ctilde - ctilde_ref), initial=0.0) <= 2e-15 * max(
                1.0, np.max(np.abs(ctilde_ref), initial=0.0))

    def test_tail_is_the_sliced_problems_gains(self, mini_prep):
        # P[0] differs by design: the slice zeroes Q at tau
        agg = simulate.aggregate_problem(mini_prep.problem)
        coupled = prepare_game(validate_scenario(coupled_constrained_instance()))
        rng = np.random.default_rng(4)
        for problem in (agg, coupled.problem):
            full = stage_gains(problem)
            for tau in range(problem.T):
                x = rng.normal(size=problem.n_x)
                tail = full.tail(tau)
                own = stage_gains(simulate.slice_problem(problem, tau, x))
                for name in ("K", "F", "S", "KtR", "alpha0"):
                    assert np.array_equal(getattr(tail, name), getattr(own, name)), \
                        (name, tau)
                assert np.array_equal(tail.P[1:], own.P[1:]), tau

    def test_lam0_policy_tail_is_the_sliced_problems_reference_policy(
            self, mini_prep, intersection_prep):
        # a central-MPC replan at tau takes its reference policy from the
        # aggregate's lam = 0 policy instead of solving the slice
        scenarios = [random_small_scenario(np.random.default_rng(k)) for k in range(18)]
        scenarios.append(coupled_constrained_instance())
        problems = [mini_prep.problem, intersection_prep.problem]
        problems += [assemble_problem(validate_scenario(s)) for s in scenarios]
        rng = np.random.default_rng(5)
        for problem in problems:
            agg = simulate.aggregate_problem(problem)
            full = backward_recursion(agg)
            for tau in range(agg.T):
                x = rng.normal(size=agg.n_x)
                own = backward_recursion(simulate.slice_problem(agg, tau, x))
                assert np.array_equal(full.K[tau:], own.K), tau
                assert np.array_equal(full.alpha[tau:], own.alpha), tau

    def test_every_zeta_pass_has_two_columns_or_more(self, monkeypatch):
        # a 1-column solve takes another LAPACK route and moves a column's
        # last bits, so every stage solve of a zeta pass has two right-hand
        # sides or more, and one that builds the gains, [B'P A | Ya], n_x + 2
        # or more (3 or more): the bundled solves with their report's full G,
        # the ray game's fallback ascent and a central-MPC episode
        widths, inside = [], []
        solve, sweep = np.linalg.solve, lqnash._zeta_sweep

        def recording_solve(S, b):
            if inside:
                widths.append((inside[-1], b.shape[-1]))
            return solve(S, b)

        def recording_sweep(problem, gains, *args, **kwargs):
            inside.append(problem.n_x if gains is None else 0)    # n_x if building
            try:
                return sweep(problem, gains, *args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        monkeypatch.setattr(lqnash, "_zeta_sweep", recording_sweep)
        ray = random_small_scenario(np.random.default_rng(2))
        for s in (scenarios.make_intersection_mini(), scenarios.make_intersection(), ray):
            report = run_dual_ascent(prepare_game(validate_scenario(s)),
                                     DualAscentOptions(k_max=200))
            report.to_dict()
        assert report.termination == "lcp_infeasible" and report.iterations == 200
        solves = len(widths)
        mini = assemble_problem(validate_scenario(scenarios.make_intersection_mini()))
        simulate.central_mpc_run(simulate.CentralPlanner(mini), 5, [0])
        assert (0, 750) in widths[:solves] and len(widths) > solves
        assert {n > 0 for n, _ in widths[:solves]} == {True, False}     # both kinds
        assert all(n > 0 for n, _ in widths[solves:])     # the planner's one sweep
        assert all(w >= n + 2 >= 2 and w >= 2 + (n > 0) for n, w in widths), widths


class TestStackedPass:
    """``affine_response``'s entries do not see each other: on random entry widths
    (0, 1, 2 and more columns, in random order), each entry's G and alphas are its
    own one-entry pass's byte for byte, and pads of other finite values leave every
    live column's bytes as they were."""

    def test_each_entry_is_its_own_pass(self, mini_prep):
        rng = np.random.default_rng(38)
        unconstrained = scalar_single_agent_instance()
        unconstrained = Scenario(**{**unconstrained.__dict__, "constraints": ()})
        games = [mini_prep] + [prepare_game(validate_scenario(s)) for s in (
            unconstrained, *(random_small_scenario(np.random.default_rng(k)) for k in range(4)))]
        assert games[1].M == 0
        for prep in games:
            problem, conset, M = prep.problem, prep.conset, prep.M
            gains = stage_gains(problem)
            shape = (problem.T, problem.N, problem.n_u)
            # all entries empty (the M = 0 full pass among them), then random widths
            cases = [[0], [0, 0, 0]] + [rng.choice([0, 1, 1, 2, 3, 5], rng.integers(1, 6))
                                        .tolist() for _ in range(12 if M else 0)]
            for k in cases:
                columns = [rng.choice(M, n).tolist() if n else [] for n in k]
                l = rng.normal(size=(len(k), M, problem.n_x))
                a = rng.normal(size=(*shape, sum(k)))
                out = affine_response(problem, conset, gains, columns, a, l)
                ends, width = np.cumsum(k), max(2, *k)
                for e, (n, (G, alphas)) in enumerate(zip(k, out)):
                    assert G.shape == (M, n) and alphas.shape == (n, *shape), k
                    [(G_e, alphas_e)] = affine_response(problem, conset, gains, [columns[e]],
                                                        a[..., ends[e] - n:ends[e]], l[e][None])
                    assert G.tobytes() == G_e.tobytes(), (k, e)
                    assert alphas.tobytes() == alphas_e.tobytes(), (k, e)
                # every live entry at the common width, its pads random: no pass pads
                pads = [width - n if n else 0 for n in k]
                a_pads = np.concatenate([np.concatenate(
                    [a[..., end - n:end], 1e3 * rng.normal(size=(*shape, p))], axis=-1)
                    for end, n, p in zip(ends, k, pads)], axis=-1)
                wide = affine_response(problem, conset, gains,
                                       [cols + [0] * p for cols, p in zip(columns, pads)],
                                       a_pads, l)
                for n, (G, alphas), (G_w, alphas_w) in zip(k, out, wide):
                    assert G_w[:, :n].tobytes() == G.tobytes(), k
                    assert alphas_w[:n].tobytes() == alphas.tobytes(), k


class TestBackwardRecursion:
    def test_zero_multiplier_zero_refs_gives_zero_alpha(self):
        s = coupled_two_agent_scenario()
        problem = assemble_problem(validate_scenario(s))
        zero_ref = np.zeros_like(problem.ref)
        from dataclasses import replace
        problem = replace(problem, ref=zero_ref)
        policy = backward_recursion(problem)
        assert np.array_equal(policy.alpha, np.zeros_like(policy.alpha))

    def test_single_player_matches_textbook_riccati(self):
        T = 6
        s = make_ltv_scenario(
            [2], T, [np.array([[1.0, 0.2], [0.0, 0.95]])],
            [np.array([[0.0], [0.3]])], [1.0, -0.5], [1e-3, 2e-3],
            [np.diag([1.0, 0.2])], [np.array([[0.7]])],
            [np.zeros(2)], [])
        problem = assemble_problem(validate_scenario(s))
        policy = backward_recursion(problem)
        Ks, cost = lqr_oracle(problem.dyn.A, problem.dyn.B[:, 0],
                              problem.Q[0, 1:], problem.R[0], problem.dyn.W,
                              problem.dyn.x0)
        assert np.max(np.abs(policy.K[:, 0] - Ks)) < 1e-12
        assert evaluate_cost(problem, policy)[0] == pytest.approx(cost, abs=1e-12)

    def test_active_row_alpha_matches_kkt_oracle(self):
        s = scalar_single_agent_instance()
        prep = prepare_game(validate_scenario(s))
        lam = np.array([0.7])
        gmap = estimate_affine_map(prep)
        policy = FeedbackPolicy(K=gmap.gains.K, alpha=gmap.alpha(lam))
        us, _, traj = dense_game_inputs(prep.problem, prep.conset.lmat,
                                        prep.conset.c, lam)
        mean_traj = integrate_expected(prep.problem.dyn, policy)
        mean_u = mean_inputs(prep.problem.dyn, policy, mean_traj)
        assert np.allclose(mean_u[:, 0, 0], us[0], atol=1e-10)
        assert np.allclose(mean_traj, traj, atol=1e-10)

    def test_riccati_matrices_symmetric_and_psd(self, mini_prep):
        P = riccati_matrices(mini_prep.problem)
        assert np.max(np.abs(P - np.transpose(P, (0, 1, 3, 2)))) < 1e-12
        for t in range(P.shape[0]):
            for i in range(P.shape[1]):
                assert np.linalg.eigvalsh(P[t, i])[0] > -1e-9


class TestIntegrateExpected:
    def test_zero_everything_stays_at_origin(self):
        s = scalar_single_agent_instance(goal=0.0)
        problem = assemble_problem(validate_scenario(s))
        policy = backward_recursion(problem)
        traj = integrate_expected(problem.dyn, policy)
        assert np.array_equal(traj, np.zeros_like(traj))

    def test_geometric_decay_frozen(self):
        T = 4
        dyn = LtvGameDynamics(
            A=np.full((T, 1, 1), 0.5), B=np.zeros((T, 1, 1, 1)),
            W=np.full((T, 1, 1), 1e-6), x0=np.array([1.0]))
        from ccgame.lqnash import FeedbackPolicy
        policy = FeedbackPolicy(K=np.zeros((T, 1, 1, 1)), alpha=np.zeros((T, 1, 1)))
        traj = integrate_expected(dyn, policy)
        assert traj[:, 0] == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_unconstrained_ne_matches_best_response_iteration(self):
        s = coupled_two_agent_scenario(T=5)
        problem = assemble_problem(validate_scenario(s))
        policy = backward_recursion(problem)
        # fixed-point iteration over best_response from a cold start
        from ccgame.lqnash import FeedbackPolicy
        cur = FeedbackPolicy(K=np.zeros_like(policy.K),
                             alpha=np.zeros_like(policy.alpha))
        for _ in range(60):
            for i in range(2):
                Ki, ai = best_response(problem, cur, i)
                cur = replace_player(cur, i, Ki, ai)
        t1 = integrate_expected(problem.dyn, policy)
        t2 = integrate_expected(problem.dyn, cur)
        assert np.max(np.abs(t1 - t2)) < 1e-6


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _random_form(rng, T, n, density):
    """(T, n, n) weights, each entry nonzero with probability ``density``."""
    M = rng.normal(size=(T, n, n))
    M[rng.random((T, n, n)) >= density] = 0.0
    return M


def _stacked_inputs(B_t):
    """The agent-stacked input matrix [B^1_t .. B^N_t] (n_x, N n_u)."""
    return B_t.transpose(1, 0, 2).reshape(B_t.shape[1], -1)


class TestClosedLoopMatrix:
    """A policy's stacked F, one einsum over the horizon, equals the per-step
    F_t = A_t - sum_i B^i_t K^i_t (the einsum it replaced at each step) and the
    sweep's F byte for byte: on the stage gains of both bundled games and of
    200 random games (T <= 5, N <= 4, n_x <= 8, n_u <= 3), and on random K."""

    @staticmethod
    def _per_step(dyn, K):
        return np.stack([dyn.A[t] - np.einsum("iab,ibc->ac", dyn.B[t], K[t])
                         for t in range(dyn.T)])

    def _check(self, problem, K=None):
        gains = stage_gains(problem)
        for K_ in (gains.K,) if K is None else (gains.K, K):
            F = lqnash.closed_loop_matrix(problem.dyn, K_)
            assert F.shape == gains.F.shape
            assert _bits(F) == _bits(self._per_step(problem.dyn, K_))
        assert _bits(lqnash.closed_loop_matrix(problem.dyn, gains.K)) == _bits(gains.F)

    @pytest.mark.parametrize("make", [scenarios.make_intersection_mini,
                                      scenarios.make_intersection])
    def test_bundled_games(self, make):
        self._check(assemble_problem(validate_scenario(make())))

    def test_random_games(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            T, N, n, m = (int(v) for v in rng.integers(1, [6, 5, 9, 4]))
            Q = rng.normal(size=(N, T + 1, n, n))
            R = rng.normal(size=(N, T, m, m))
            problem = lq_game(rng.normal(size=(T, n, n)), rng.normal(size=(T, N, n, m)),
                              Q @ Q.swapaxes(-1, -2), R @ R.swapaxes(-1, -2) + np.eye(m))
            self._check(problem, rng.normal(size=(T, N, m, n)))


class TestClosedLoopStep:
    """The step sums B^i_t u^i by one matvec on the agent-stacked input matrix,
    and steps each state of a stack bit for bit as alone.  Where every state row of it has at most one nonzero coefficient, as on the
    bundled scenarios and their central-MPC aggregate, that sum has one term
    and equals the einsum it replaced bit for bit; so their rollouts cannot move."""

    @pytest.fixture(scope="class")
    def bundled_inputs(self):
        mini, full = (assemble_problem(validate_scenario(make()))
                      for make in (scenarios.make_intersection_mini,
                                   scenarios.make_intersection))
        return {"intersection-mini": mini.dyn.B, "intersection": full.dyn.B,
                "aggregate-mini": simulate.aggregate_problem(mini).dyn.B}

    @pytest.mark.parametrize("name", ["intersection-mini", "intersection",
                                      "aggregate-mini"])
    def test_bundled_input_rows_have_at_most_one_coefficient(self, bundled_inputs,
                                                             name):
        for B_t in bundled_inputs[name]:
            assert np.count_nonzero(_stacked_inputs(B_t), axis=1).max() <= 1

    @pytest.mark.parametrize("S", [1, 7, 256])
    @pytest.mark.parametrize("name", ["intersection-mini", "intersection",
                                      "aggregate-mini"])
    def test_stacked_product_is_the_einsum_on_bundled_inputs(self, bundled_inputs,
                                                             name, S):
        rng = np.random.default_rng(S)
        for B_t in bundled_inputs[name]:
            u = rng.normal(size=(S, *B_t.shape[::2]))
            stacked = (_stacked_inputs(B_t) @ u.reshape(S, -1, 1))[..., 0]
            assert stacked.tobytes() == np.einsum("iab,sib->sa", B_t, u).tobytes()

    @pytest.fixture(scope="class")
    def plants(self):
        """Per name, the dynamics, the stacked inputs the library steps with,
        K, alpha and noise factors (None: the mean trajectory's step) of a
        policy the library steps: each game's lam = 0 policy and, on the
        aggregate, the central plan driving the plant on the aggregate's B."""
        out = {}
        for name, make in (("intersection-mini", scenarios.make_intersection_mini),
                           ("intersection", scenarios.make_intersection),
                           ("dense-input", dense_input_scenario)):
            problem = assemble_problem(validate_scenario(make()))
            policy = backward_recursion(problem)
            stacked = [_stacked_inputs(B_t) for B_t in problem.dyn.B]
            out[name] = problem.dyn, stacked, policy.K, policy.alpha, None
        mini = assemble_problem(validate_scenario(scenarios.make_intersection_mini()))
        planner = simulate.CentralPlanner(mini)
        out["aggregate-mini"] = (mini.dyn, planner.agg.dyn.B[:, 0], planner.gains.K,
                                 planner.gains.alpha0, planner.factors)
        return out

    @pytest.mark.parametrize("name", ["intersection-mini", "intersection",
                                      "dense-input", "aggregate-mini"])
    def test_one_row_step_is_the_batched_step(self, plants, name):
        # at each step, the state the batched reference reaches from x0 and
        # four random states; the reached states of a game's mean step are
        # its expected trajectory, and the aggregate's plant adds L_t z_t
        dyn, stacked, K, alpha, factors = plants[name]
        rng = np.random.default_rng(0)
        path = [dyn.x0]
        for t in range(dyn.T):
            x = np.vstack([path[-1], path[-1] + rng.normal(size=(4, dyn.n_x))])
            L, z = (None, None) if factors is None else (factors[t], rng.normal(size=x.shape))
            A = dyn.A[t]
            assert stacked[t].tobytes() == _stacked_inputs(dyn.B[t]).tobytes()
            u_batch, x_batch = batched_closed_loop_step(A, dyn.B[t], K[t], alpha[t], x, L, z)
            u_stack, x_stack = closed_loop_step(A, stacked[t], K[t], alpha[t], x, L, z)
            assert _bits(u_stack) == _bits(u_batch) and _bits(x_stack) == _bits(x_batch)
            for s in range(len(x)):
                u, x_next = closed_loop_step(A, stacked[t], K[t], alpha[t], x[s],
                                             L, None if z is None else z[s])
                assert _bits(u) == _bits(u_batch[s]) and _bits(x_next) == _bits(x_batch[s])
            path.append(x_batch[0])
        if factors is None:
            xs = integrate_expected(dyn, FeedbackPolicy(K=K, alpha=alpha))
            assert _bits(xs) == _bits(path)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_random_shapes_step_as_the_batched_step(self, N, n_u, n_x, seed):
        rng = np.random.default_rng(seed)
        A, B = rng.normal(size=(n_x, n_x)), rng.normal(size=(N, n_x, n_u))
        K, alpha = rng.normal(size=(N, n_u, n_x)), rng.normal(size=(N, n_u))
        L, (x, z) = rng.normal(size=(n_x, n_x)), rng.normal(size=(2, 3, n_x))
        u_batch, x_batch = batched_closed_loop_step(A, B, K, alpha, x, L, z)
        for s in range(3):
            u, x_next = closed_loop_step(A, _stacked_inputs(B), K, alpha, x[s], L, z[s])
            assert _bits(u) == _bits(u_batch[s]) and _bits(x_next) == _bits(x_batch[s])
        # the library's stack, alpha per state as a central-MPC call's plans
        alphas = rng.normal(size=(3, N, n_u))
        u_stack, x_stack = closed_loop_step(A, _stacked_inputs(B), K, alphas, x, L, z)
        for s in range(3):
            u, x_next = closed_loop_step(A, _stacked_inputs(B), K, alphas[s], x[s], L, z[s])
            assert _bits(u) == _bits(u_stack[s]) and _bits(x_next) == _bits(x_stack[s])


class TestFixedOrderSums:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 300),
           st.sampled_from([0.2, 0.6, 1.0]), st.integers(0, 2**32 - 1))
    def test_each_sample_sums_as_if_alone(self, n_x, m, S, density, seed):
        rng = np.random.default_rng(seed)
        F, L = rng.normal(size=(2, n_x, n_x)) * (rng.random((2, n_x, n_x)) < density)
        K = rng.normal(size=(m, n_x)) * (rng.random((m, n_x)) < density)
        F[rng.integers(n_x)] = 0.0
        e, z = rng.normal(size=(2, n_x, S))
        # an input step, a noisy step and a step of zero noise (no L terms)
        for pairs in ([(K, e)], [(F, e), (L, z)], [(F, e), (np.zeros_like(L), z)]):
            batch = fixed_order_sums(*pairs)
            for s in range(S):
                alone = fixed_order_sums(*((M, X[:, s:s + 1]) for M, X in pairs))
                assert batch[:, s].tobytes() == alone[:, 0].tobytes()


class TestQuadraticSums:
    @pytest.mark.parametrize("density", [1.0, 0.3, 0.0])
    @pytest.mark.parametrize("S", [1, 2, 9])
    @pytest.mark.parametrize("contiguous", [True, False])
    def test_kernel_matches_flat_loop_bit_for_bit(self, S, density, contiguous):
        rng = np.random.default_rng([S, int(10 * density), contiguous])
        for _ in range(25):
            T, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            scale = 10.0 ** rng.uniform(-4, 4, size=(S, 1, 1))
            x = rng.normal(size=(S, T + 2, n + 2)) * scale
            x = np.ascontiguousarray(x[:, 1:-1, :n]) if contiguous else x[:, 1:-1, 1:-1]
            M = _random_form(rng, T, n, density)
            assert _bits(quadratic_sums(x, M)) == _bits(loop_quadratic_sums(x, M))

    def test_collision_form_matches_flat_loop_per_step(self):
        # the violation mask sums C over (sample, step) rows of the differences
        rng = np.random.default_rng(11)
        for k in (1, 2, 3, 4):
            S, T = 6, 5
            d = rng.normal(size=(S, T, k))
            C = _random_form(rng, 1, k, 0.6)
            sq = quadratic_sums(d.reshape(-1, 1, k), C).reshape(S, T)
            ref = np.array([[loop_quadratic_sums(d[s, t][None, None], C)[0]
                             for t in range(T)] for s in range(S)])
            assert _bits(sq) == _bits(ref)

    def test_flat_loop_is_numpy_einsum_on_the_callers_layouts(self):
        """The costs and the mask were einsums on these layouts until the kernel
        replaced them; the kernel follows the flat loop, so if numpy's loop
        order moves, this test names the change."""
        rng = np.random.default_rng(5)
        S, T, n_x, N, n_u = 6, 50, 12, 3, 2
        states = rng.normal(size=(S, T + 1, n_x)) * 3.0
        ref = rng.normal(size=(T + 1, n_x))
        inputs = rng.normal(size=(S, T, N, n_u))
        mean_traj, us = states[0], inputs[0]
        for density in (1.0, 0.1):
            Q = _random_form(rng, T, n_x, density)
            R = _random_form(rng, T, n_u, density)
            for x, M in ((states[:, 1:] - ref[1:], Q),          # rollout states
                         (inputs[:, :, 1, :], R),                # one player's inputs
                         (mean_traj[None][:, 1:] - ref[1:], Q),  # evaluate_cost
                         (us[None][:, :, 1, :], R)):
                assert _bits(np.einsum("sta,tab,stb->s", x, M, x)) == _bits(
                    loop_quadratic_sums(x, M))
            # the collision form on two 4-state agents' differences
            d = states[:, 1:, 0:4] - states[:, 1:, 4:8]
            C = _random_form(rng, 1, 4, density)
            ref_sq = [[loop_quadratic_sums(d[s, t][None, None], C)[0] for t in range(T)]
                      for s in range(S)]
            assert _bits(np.einsum("sta,ab,stb->st", d, C[0], d)) == _bits(ref_sq)

    def test_realized_costs_match_flat_loop(self, mini_prep):
        problem = mini_prep.problem
        batch = simulate.rollout(problem, backward_recursion(problem), seed=3, samples=4)
        costs = realized_costs(problem, batch.states, batch.inputs)
        for i in range(problem.N):
            expect = (loop_quadratic_sums(batch.states[:, 1:] - problem.ref[i, 1:],
                                          problem.Q[i, 1:])
                      + loop_quadratic_sums(batch.inputs[:, :, i, :], problem.R[i]))
            assert _bits(costs[:, i]) == _bits(expect)

    def test_zero_weights_are_skipped(self):
        # a non-finite x where M is zero is never read
        x = np.array([[[1.5, np.nan], [np.inf, 2.0]]])
        M = np.array([[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 3.0]]])
        assert quadratic_sums(x, M).tolist() == [1.5 * 2.0 * 1.5 + 2.0 * 3.0 * 2.0]


class TestEvaluateCost:
    def test_zero_noise_equals_deterministic_sum(self):
        s = coupled_two_agent_scenario()
        problem = assemble_problem(validate_scenario(s))
        from dataclasses import replace
        dyn0 = LtvGameDynamics(A=problem.dyn.A, B=problem.dyn.B,
                               W=np.zeros_like(problem.dyn.W), x0=problem.dyn.x0)
        problem0 = replace(problem, dyn=dyn0)
        policy = backward_recursion(problem0)
        traj = integrate_expected(problem0.dyn, policy)
        us = mean_inputs(problem0.dyn, policy, traj)
        for i in range(2):
            direct = 0.0
            for t in range(1, problem0.T + 1):
                e = traj[t] - problem0.ref[i, t]
                direct += e @ problem0.Q[i, t] @ e
            for t in range(problem0.T):
                direct += us[t, i] @ problem0.R[i, t] @ us[t, i]
            assert evaluate_cost(problem0, policy)[i] == pytest.approx(direct,
                                                                       abs=1e-12)

    def test_trace_only_cost_matches_monte_carlo(self):
        T = 5
        s = make_ltv_scenario(
            [1], T, [np.array([[0.8]])], [np.array([[1.0]])], [0.0], [1.0],
            [np.array([[1.0]])], [np.array([[1.0]])], [np.array([0.0])], [])
        problem = assemble_problem(validate_scenario(s))
        policy = backward_recursion(problem)
        exact = evaluate_cost(problem, policy)[0]
        batch = simulate.rollout(problem, policy, seed=5, samples=100_000)
        mc = batch.costs[:, 0]
        se = mc.std(ddof=1) / np.sqrt(mc.shape[0])
        assert abs(mc.mean() - exact) < 3 * se

    def test_noise_only_adds_cost(self):
        s = coupled_two_agent_scenario()
        problem = assemble_problem(validate_scenario(s))
        policy = backward_recursion(problem)
        from dataclasses import replace
        noiseless = replace(problem, dyn=LtvGameDynamics(
            A=problem.dyn.A, B=problem.dyn.B, W=np.zeros_like(problem.dyn.W),
            x0=problem.dyn.x0))
        for i in range(2):
            assert evaluate_cost(problem, policy)[i] >= evaluate_cost(
                noiseless, policy)[i]


class TestEvaluateLagrangian:
    def test_zero_multiplier_equals_cost(self, mini_prep):
        policy = backward_recursion(mini_prep.problem)
        for i in range(2):
            assert evaluate_lagrangian(
                mini_prep.problem, policy, np.zeros(mini_prep.M),
                mini_prep.conset)[i] == pytest.approx(
                    evaluate_cost(mini_prep.problem, policy)[i])

    def test_known_slack_arithmetic(self):
        s = scalar_single_agent_instance(T=3, bound=0.4)
        prep = prepare_game(validate_scenario(s))
        policy = backward_recursion(prep.problem)
        traj = integrate_expected(prep.problem.dyn, policy)
        g = prep.conset.evaluate(traj)
        lam = np.array([2.0])
        want = evaluate_cost(prep.problem, policy)[0] + 2.0 * g[0]
        got = evaluate_lagrangian(prep.problem, policy, lam, prep.conset)[0]
        assert got == pytest.approx(want, abs=1e-12)


class TestBestResponse:
    def test_single_player_reduces_to_backward_recursion(self):
        s = double_integrator_instance()
        prep = prepare_game(validate_scenario(s))
        lam = np.array([0.5])
        policy = sweep_backward_recursion(prep.problem, prep.conset, lam)
        Ki, ai = best_response(prep.problem, policy, 0, lam, prep.conset)
        assert np.allclose(Ki, policy.K[:, 0], atol=1e-12)
        assert np.allclose(ai, policy.alpha[:, 0], atol=1e-12)

    def test_ne_is_fixed_point(self, mini_prep, mini_report):
        lam = mini_report.lambda_bar
        policy = mini_report.policy
        for i in range(2):
            li = evaluate_lagrangian(mini_prep.problem, policy, lam,
                                     mini_prep.conset)[i]
            Ki, ai = best_response(mini_prep.problem, policy, i, lam,
                                   mini_prep.conset)
            li_br = evaluate_lagrangian(mini_prep.problem,
                                        replace_player(policy, i, Ki, ai),
                                        lam, mini_prep.conset)[i]
            assert li - li_br < 1e-8 * (1 + abs(li))

    def test_perturbed_rival_improvement_matches_dense_oracle(self):
        s = coupled_two_agent_scenario(T=4)
        problem = assemble_problem(validate_scenario(s))
        policy = backward_recursion(problem)
        rng = np.random.default_rng(8)
        K = np.array(policy.K)
        alpha = np.array(policy.alpha)
        K[:, 1] += 0.2 * rng.normal(size=K[:, 1].shape)
        alpha[:, 1] += 0.1 * rng.normal(size=alpha[:, 1].shape)
        from ccgame.lqnash import FeedbackPolicy
        perturbed = FeedbackPolicy(K=K, alpha=alpha)

        lam = np.zeros(0)
        lmat = np.zeros((problem.T * problem.n_x, 0))
        cvec = np.zeros(0)
        K0, a0 = best_response(problem, perturbed, 0)
        improved = replace_player(perturbed, 0, K0, a0)
        l_perturbed = evaluate_cost(problem, perturbed)[0]
        l_improved = evaluate_cost(problem, improved)[0]
        assert l_improved < l_perturbed
        oracle_traj, _ = dense_best_response(problem, perturbed, 0, lam, lmat, cvec)
        got_traj = integrate_expected(problem.dyn, improved)
        assert np.max(np.abs(oracle_traj - got_traj)) < 1e-9


class TestValueFunctionIdentity:
    def _lagrangian_via_value(self, problem, conset, lam, i):
        """Accumulate V_0(x_0) plus all constants alongside the recursion.

        P comes from the sweep; zeta is rebuilt here from the returned gains:
        zeta_t = F_t' (zeta_{t+1} - P_{t+1} B alpha_t) + K_t' R alpha_t + s_t.
        """
        dyn = problem.dyn
        T = problem.T
        const = 0.0
        for t in range(1, T + 1):
            const += float(problem.ref[i, t] @ problem.Q[i, t] @ problem.ref[i, t])
        if conset is not None and lam is not None and conset.M:
            const += float(np.asarray(lam) @ conset.c)
        policy = sweep_backward_recursion(problem, conset, lam)
        P = riccati_matrices(problem)
        s = stage_linear_terms(problem, conset, lam)[i]
        zeta = s[T]
        c_acc = 0.0
        for t in range(T - 1, -1, -1):
            Ba = np.einsum("iab,ib->a", dyn.B[t], policy.alpha[t])
            Pn = P[t + 1, i]
            c_acc += float(np.trace(Pn @ dyn.W[t]))
            c_acc += float(Ba @ Pn @ Ba) - 2 * float(zeta @ Ba)
            a_i, K_i = policy.alpha[t, i], policy.K[t, i]
            c_acc += float(a_i @ problem.R[i, t] @ a_i)
            F = dyn.A[t] - np.einsum("iab,ibc->ac", dyn.B[t], policy.K[t])
            zeta = F.T @ (zeta - Pn @ Ba) + K_i.T @ problem.R[i, t] @ a_i + s[t]
        x0 = dyn.x0
        return (float(x0 @ P[0, i] @ x0) + 2 * float(zeta @ x0)
                + c_acc + const)

    def test_trajectory_evaluation_equals_value_function(self):
        # exercises P, zeta and the trace bookkeeping jointly
        cases = []
        prep = prepare_game(validate_scenario(coupled_two_agent_scenario()))
        assert prep.M == 0
        cases.append((prep.problem, prep.conset, np.zeros(0)))
        prep = prepare_game(validate_scenario(scalar_two_agent_instance()))
        cases.append((prep.problem, prep.conset, np.array([0.8])))
        prep = prepare_game(validate_scenario(coupled_constrained_instance()))
        lam = np.random.default_rng(6).uniform(0.0, 1.5, prep.M)
        cases.append((prep.problem, prep.conset, lam))
        for problem, conset, lam in cases:
            policy = sweep_backward_recursion(problem, conset, lam)
            for i in range(problem.N):
                direct = evaluate_lagrangian(problem, policy, lam, conset)[i]
                via_value = self._lagrangian_via_value(problem, conset, lam, i)
                assert direct == pytest.approx(via_value, abs=1e-12)


class TestAlphaLinearity:
    def test_affine_in_multiplier(self, mini_prep):
        rng = np.random.default_rng(2)
        lam1 = rng.uniform(0, 1.5, mini_prep.M)
        lam2 = rng.uniform(0, 1.5, mini_prep.M)

        def alpha_at(lam):
            policy = sweep_backward_recursion(mini_prep.problem, mini_prep.conset, lam)
            return policy.alpha

        lhs = alpha_at(lam1 + lam2) + alpha_at(np.zeros(mini_prep.M))
        rhs = alpha_at(lam1) + alpha_at(lam2)
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-8
