import tracemalloc
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from ccgame import simulate, uncertainty
from ccgame.dualascent import DualAscentOptions, solve_scenario
from ccgame.errors import (AllSeedsFailed, DegenerateReference, DomainError,
                           FactorizationFailure, SingularStageSystem)
from ccgame.lqnash import FeedbackPolicy, backward_recursion, integrate_expected, realized_costs
from ccgame.model import (BoxSpec, CollisionSpec, LtvGameDynamics, Scenario,
                          assemble_problem, validate_scenario)
from ccgame.simulate import (GOAL_TOLERANCE, RolloutBatch, central_mpc, evaluate_safety,
                             noise_factors, rollout, travel_time, wilson_interval)
from ccgame.uncertainty import assemble_constraints, propagate_covariance, row_table
from conftest import (dense_input_scenario, make_ltv_scenario, random_small_scenario,
                      scalar_single_agent_instance)
from oracles import (column_pass, eigen_factors, game_reference, loop_rollout, mean_map,
                     planner_game, recursion_rollout, row_violations)


def zero_noise(problem):
    dyn = problem.dyn
    return replace(problem, dyn=LtvGameDynamics(
        A=dyn.A, B=dyn.B, W=np.zeros_like(dyn.W), x0=dyn.x0))


def _fields_equal(a, b):
    """Recursive field equality of dataclasses; arrays bit for bit, NaN == NaN."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _fields_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_fields_equal, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


def count_replan_work(monkeypatch, calls):
    """Count into ``calls`` the eigvalsh calls, and as "pivoting" the
    solve_lcp calls that pivot: the replans whose multiplier is not 0,
    counted outside the code under test."""
    from ccgame import dualascent
    real_lcp, real_eigvalsh = dualascent.solve_lcp, np.linalg.eigvalsh

    def solve_lcp(G, ctilde):
        out = real_lcp(G, ctilde)
        if out[1] > 0:
            calls["pivoting"] += 1
        return out

    def eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return real_eigvalsh(*args, **kwargs)

    monkeypatch.setattr(dualascent, "solve_lcp", solve_lcp)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


@pytest.fixture(scope="module")
def mini_problem(mini_scenario_module=None):
    from ccgame.scenarios import make_intersection_mini
    return assemble_problem(validate_scenario(make_intersection_mini()))


@pytest.fixture(scope="module")
def loop_reference(mini_problem):
    """Per scenario: problem, policy and the sample loop's first 600 samples."""
    ltv = assemble_problem(validate_scenario(
        random_small_scenario(np.random.default_rng(3), N=3, with_rows=False)))
    dense = assemble_problem(validate_scenario(dense_input_scenario()))
    out = {}
    for name, problem in (("intersection-mini", mini_problem), ("ltv-3-agent", ltv),
                          ("dense-input", dense)):
        policy = backward_recursion(problem)
        ref = loop_rollout(problem, np.asarray(policy.K), np.asarray(policy.alpha),
                           seed=21, samples=600)
        out[name] = (problem, policy, ref)
    return out


class TestRollout:
    def test_zero_noise_reproduces_expected_trajectory(self, mini_problem):
        problem = zero_noise(mini_problem)
        policy = backward_recursion(problem)
        batch = rollout(problem, policy, seed=1, samples=257)
        expected = integrate_expected(problem.dyn, policy)
        for s in range(257):
            assert np.array_equal(batch.states[s], expected)

    @pytest.mark.parametrize("scenario", ["intersection-mini", "ltv-3-agent",
                                          "dense-input"])
    @pytest.mark.parametrize("samples", [1, 255, 256, 257, 600])
    def test_batched_rollout_matches_sample_loop(self, loop_reference, scenario,
                                                 samples):
        # any sample whose bits depended on the batch size or on its place in
        # the batch would show
        problem, policy, (states, inputs, costs) = loop_reference[scenario]
        batch = rollout(problem, policy, seed=21, samples=samples)
        assert np.array_equal(batch.states, states[:samples])
        assert np.array_equal(batch.inputs, inputs[:samples])
        assert np.array_equal(batch.costs, costs[:samples])

    @pytest.mark.parametrize("scenario", ["intersection-mini", "ltv-3-agent",
                                          "dense-input"])
    def test_rollout_follows_the_closed_loop_recursion(self, loop_reference, scenario):
        # the bound of the benchmark's input check, 1e-12 scaled by 1 + max |.|,
        # fixed before measuring, for the states as well
        problem, policy, _ = loop_reference[scenario]
        K, alpha = np.asarray(policy.K), np.asarray(policy.alpha)
        states, _, _ = recursion_rollout(problem, K, alpha, seed=21, samples=600)
        batch = rollout(problem, policy, seed=21, samples=600)
        assert np.max(np.abs(batch.states - states)) <= 1e-12 * (1 + np.max(np.abs(states)))
        expect = -np.einsum("tiab,stb->stia", K, batch.states[:, :-1]) - alpha
        assert (np.max(np.abs(batch.inputs - expect))
                <= 1e-12 * (1 + np.max(np.abs(batch.inputs))))

    def test_counter_based_streams_are_batch_invariant(self, mini_problem):
        policy = backward_recursion(mini_problem)
        b1 = rollout(mini_problem, policy, seed=9, samples=1)
        b2 = rollout(mini_problem, policy, seed=9, samples=2)
        assert np.array_equal(b1.states[0], b2.states[0])
        assert np.array_equal(b1.inputs[0], b2.inputs[0])

    def test_bit_identical_reproducibility(self, mini_problem):
        policy = backward_recursion(mini_problem)
        b1 = rollout(mini_problem, policy, seed=123, samples=16)
        b2 = rollout(mini_problem, policy, seed=123, samples=16)
        assert np.array_equal(b1.states, b2.states)
        assert np.array_equal(b1.costs, b2.costs)

    def test_open_loop_variance_matches_covariance_schedule(self):
        T = 4
        s = make_ltv_scenario(
            [1], T, [np.array([[0.7]])], [np.array([[1.0]])], [0.0], [0.5],
            [np.array([[1.0]])], [np.array([[1.0]])], [np.array([0.0])], [])
        problem = assemble_problem(validate_scenario(s))
        policy = FeedbackPolicy(K=np.zeros((T, 1, 1, 1)),
                                alpha=np.zeros((T, 1, 1)))
        batch = rollout(problem, policy, seed=3, samples=100_000)
        cov = propagate_covariance(problem.dyn)
        xT = batch.states[:, T, 0]
        var = xT.var(ddof=1)
        se = cov[T, 0, 0] * np.sqrt(2.0 / (batch.samples - 1))
        assert abs(var - cov[T, 0, 0]) < 3 * se
        mean_se = xT.std(ddof=1) / np.sqrt(batch.samples)
        assert abs(xT.mean() - 0.0) < 4 * mean_se

    def test_seeds_past_two_to_the_63_keep_their_own_streams(self, mini_problem):
        # numpy converts a list key holding an int >= 2**63 through float64:
        # -5, -6 and -1000 (mod 2**64) all rounded to the key 0
        import warnings
        policy = backward_recursion(mini_problem)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [simulate.noise_stream(seed, 0).standard_normal(8)
                     for seed in (-5, -6, -1000, 2**64 - 5)]
            batches = [rollout(mini_problem, policy, seed=seed, samples=2)
                       for seed in (-5, -6, -1000)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[0], draws[2])
        assert not np.array_equal(draws[1], draws[2])
        assert np.array_equal(draws[0], draws[3])     # the mod-2**64 mask
        assert not np.array_equal(batches[0].states, batches[1].states)
        assert not np.array_equal(batches[1].states, batches[2].states)

    def test_noise_factorization_rejects_indefinite(self):
        W = -np.eye(2)[None]
        with pytest.raises(FactorizationFailure):
            noise_factors(W)

    def test_noise_factorization_names_the_first_indefinite_step(self):
        W = np.repeat(np.eye(3)[None], 5, axis=0)
        W[3, 1, 1] = -0.5
        W[4, 0, 0] = -2.0
        with pytest.raises(FactorizationFailure) as info:
            noise_factors(W)
        assert info.value.t == 3
        assert info.value.eigenvalue == -0.5

    @pytest.mark.parametrize("name", ["mini", "intersection", "zero-eigenvalue"])
    def test_stacked_factors_equal_the_step_loop(self, request, name):
        if name == "zero-eigenvalue":
            M = np.random.default_rng(4).normal(size=(3, 3, 2))
            W = np.stack([np.diag([1.0, 0.0, 2.0]), M[0] @ M[0].T,
                          np.diag([-1e-12, 1.0, 3.0])])     # PSD to the tolerance
            assert np.linalg.eigvalsh(W[0])[0] == 0.0
        else:
            W = request.getfixturevalue(f"{name}_prep").problem.dyn.W
        assert np.array_equal(noise_factors(W), eigen_factors(W))


class TestSafetyStats:
    def _toy_problem(self, T=3):
        con = BoxSpec(x_min=np.array([np.nan]), x_max=np.array([1.0]))
        s = make_ltv_scenario(
            [1], T, [np.array([[1.0]])], [np.array([[1.0]])], [0.0], [1e-4],
            [np.array([[1.0]])], [np.array([[1.0]])], [np.array([0.0])], [con])
        return assemble_problem(validate_scenario(s))

    def _batch(self, problem, states):
        S, Tp1 = states.shape[:2]
        return RolloutBatch(states=states,
                            inputs=np.zeros((S, Tp1 - 1, 1, 1)),
                            costs=np.zeros((S, 1)), seed=0)

    def test_all_safe_boundary(self):
        problem = self._toy_problem()
        states = np.zeros((10, 4, 1))
        stats = evaluate_safety(self._batch(problem, states), problem)
        assert stats.rate == 0.0
        assert stats.wilson_lo == 0.0
        assert stats.wilson_hi > 0.0

    def test_counts_joint_violations_once_per_sample(self):
        problem = self._toy_problem()
        states = np.zeros((100, 4, 1))
        # five samples breach the bound, some at multiple times
        states[:5, 2, 0] = 2.0
        states[:3, 3, 0] = 2.0
        stats = evaluate_safety(self._batch(problem, states), problem)
        assert stats.violations == 5
        assert stats.rate == pytest.approx(0.05)
        assert stats.wilson_lo <= 0.05 <= stats.wilson_hi

    def test_initial_state_not_checked(self):
        problem = self._toy_problem()
        states = np.zeros((4, 4, 1))
        states[:, 0, 0] = 5.0          # x_0 is known, never constrained
        stats = evaluate_safety(self._batch(problem, states), problem)
        assert stats.violations == 0

    def _pair_problem(self):
        s = make_ltv_scenario(
            [1, 1], 2, [np.array([[1.0]])] * 2, [np.array([[1.0]])] * 2, [0.0, 1.0],
            [1e-4, 1e-4], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
            [np.array([[1.0]])] * 2, [np.zeros(2)] * 2,
            [CollisionSpec(pair=(0, 1), radius=0.5, C=np.array([[1.0]]))])
        return assemble_problem(validate_scenario(s))

    def test_non_finite_trajectory_counts_as_violation(self):
        problem = self._toy_problem()
        states = np.zeros((6, 4, 1))
        states[0, 2, 0] = np.nan       # not below the bound: no longer safe
        states[1, 1:, 0] = np.nan
        states[2, 3, 0] = np.inf
        states[3, 0, 0] = np.nan       # x_0 is never checked
        stats = evaluate_safety(self._batch(problem, states), problem)
        assert stats.violations == 3

    def test_non_finite_distance_counts_as_collision(self):
        problem = self._pair_problem()
        states = np.tile(np.array([0.0, 1.0]), (4, 3, 1))
        states[0, 1, 0] = np.nan
        states[1, 2, :] = np.inf       # inf - inf is NaN
        states[2, 2, 0] = np.inf       # infinitely far apart: safe
        stats = evaluate_safety(self._batch(problem, states), problem)
        assert stats.violations == 2

    # (a sample's states index, value): the plants of the three tests above
    BOX_PLANTS = [((2, 0), 2.0), ((2, 0), np.nan), ((slice(1, None), 0), np.nan),
                  ((3, 0), np.inf), ((0, 0), np.nan)]
    PAIR_PLANTS = [((1, 0), np.nan), ((2, slice(None)), np.inf), ((2, 0), np.inf)]

    @pytest.mark.parametrize("S", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("pair", [False, True], ids=["box", "collision"])
    def test_block_size_changes_no_result(self, monkeypatch, pair, S):
        # random samples (some violate, travel times vary) with the plants
        # above cycled over both sides of the boundaries of 7- and 256-sample
        # blocks; every block size must give what the absolute copy gives
        # judged in one block
        rng = np.random.default_rng(S)
        if pair:
            problem, plants = self._pair_problem(), self.PAIR_PLANTS
            states = np.array([0.0, 1.0]) + rng.uniform(-0.3, 0.3, (S, problem.T + 1, 2))
        else:
            problem, plants = self._toy_problem(), self.BOX_PLANTS
            states = rng.uniform(-0.4, 1.05, (S, problem.T + 1, 1))
        where = sorted({0, 5, 6, 7, 8, 254, 255, 256, 257, 599, S - 1} & set(range(S)))
        for k, s in enumerate(where):
            index, value = plants[k % len(plants)]
            states[s][index] = value
        batch = replace(self._batch(problem, states), costs=rng.normal(size=(S, problem.N)))

        def judged(batch, problem):
            return (repr(evaluate_safety(batch, problem)),
                    *(a.tobytes() for a in simulate._judge(problem, batch.states)))

        monkeypatch.setattr(simulate, "SAFETY_BLOCK", S)
        reference = judged(*on_absolute_copy(batch, problem))
        mask = np.frombuffer(reference[1], dtype=bool)
        assert mask[0] and (S == 1 or not mask.all())
        for block in (1, 7, 256, S):
            monkeypatch.setattr(simulate, "SAFETY_BLOCK", block)
            assert judged(batch, problem) == reference

    @pytest.mark.parametrize("n", [7, 10, 100, 200, 1000, 2000, 76000])
    def test_wilson_interval_is_exact_at_its_ends(self, n):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0
        lo, hi = wilson_interval(1, n)
        assert 0.0 < lo < 1.0 / n < hi < 1.0

    def test_wilson_interval_shrinks_with_samples(self):
        lo1, hi1 = wilson_interval(5, 100)
        lo2, hi2 = wilson_interval(500, 10_000)
        assert (hi2 - lo2) < (hi1 - lo1) / 5


class TestViolationsMask:
    @pytest.fixture(scope="class")
    def problem(self, mini_problem):
        nan = np.full(mini_problem.n_x, np.nan)
        x_min, x_max = nan.copy(), nan.copy()
        x_min[0], x_max[0] = -1.0, 1.0        # both sides
        x_min[3] = 0.5                         # lower side only
        x_max[5] = 0.4                         # upper side only
        C = np.zeros((4, 4))
        C[:3, :3] = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 0.5]]
        return replace(mini_problem, constraints=(
            BoxSpec(x_min=x_min, x_max=x_max, active_times=(1, 3, 7)),
            CollisionSpec(pair=(0, 1), radius=0.8, C=C, active_times=(2, 5, 6, 9)),
            CollisionSpec(pair=(1, 0), radius=0.3, C=np.diag([1.0, 1.0, 0.0, 0.0]),
                          active_times=(4,))))

    def test_mask_matches_per_row_oracle(self, problem):
        rng = np.random.default_rng(8)
        S = 300
        x = rng.normal(scale=0.4, size=(S, problem.T + 1, problem.n_x))
        x[..., 3] += 1.2               # mostly above its lower bound
        x[..., 4] += 1.5               # agent 1 mostly clear of agent 0
        x[:20, 3, 0] = np.nan          # a read coordinate at an active time
        x[20:40, 8, :] = np.nan        # no constraint is active at t = 8
        x[40:60, 2, 7] = np.nan        # nothing reads agent 1's speed
        x[60:70, 6, 4] = np.inf
        x -= problem.nominal_states    # the mask reads solver coordinates
        mask = simulate._violations_mask(problem, x)
        assert np.array_equal(mask, row_violations(problem, problem.to_absolute(x)))
        assert mask[:20].all()
        assert 0 < mask.sum() < S

    @pytest.mark.parametrize("spec", [0, 1, 2])
    def test_each_spec_alone_matches_per_row_oracle(self, problem, spec):
        one = replace(problem, constraints=problem.constraints[spec:spec + 1])
        rng = np.random.default_rng(spec)
        x = rng.uniform(-1.4, 1.4, size=(200, problem.T + 1, problem.n_x))
        x -= problem.nominal_states
        mask = simulate._violations_mask(one, x)
        assert np.array_equal(mask, row_violations(one, problem.to_absolute(x)))
        assert 0 < mask.sum() < 200


def on_absolute_copy(batch, problem):
    """The batch with the copy ``problem.to_absolute(batch.states)`` and the
    problem that judges it: a zero nominal and absolute goal references."""
    absolute = replace(problem, nominal_states=np.zeros_like(problem.nominal_states),
                       ref=problem.ref + problem.nominal_states)
    return replace(batch, states=problem.to_absolute(batch.states)), absolute


def safety_on_absolute_copy(batch, problem):
    """``evaluate_safety`` of ``on_absolute_copy``."""
    return evaluate_safety(*on_absolute_copy(batch, problem))


@pytest.mark.parametrize("seed", [0, 7, 777])
@pytest.mark.parametrize("name, off_plan", [("mini", 0.5), ("intersection", 3.0)])
def test_safety_equals_the_absolute_copy_route(request, name, off_plan, seed):
    # the mask and the travel times add the nominal at the entries they read;
    # every field must be what judging the full absolute copy gives, also for
    # a policy pushed off its plan (alpha scaled; 3 alpha is safe on the mini
    # scenario, 0.5 alpha is not) whose samples collide
    prep = request.getfixturevalue(f"{name}_prep")
    policy = request.getfixturevalue(f"{name}_report").policy
    violations = []
    for scale in (1.0, off_plan):
        batch = rollout(prep.problem, replace(policy, alpha=scale * policy.alpha),
                        seed, samples=3000)
        stats = evaluate_safety(batch, prep.problem)
        assert repr(stats) == repr(safety_on_absolute_copy(batch, prep.problem))
        violations.append(stats.violations)
    assert violations[1] > 0


def test_safety_memory_is_a_block_not_the_batch(intersection_prep, intersection_report):
    # a 2000-sample batch is 9.8 MB of states; gathers over the whole batch
    # took 6.9 MiB above it, gathers over SAFETY_BLOCK samples take under 1 MiB
    batch = rollout(intersection_prep.problem, intersection_report.policy, 5, samples=2000)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        evaluate_safety(batch, intersection_prep.problem)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


class TestTravelTime:
    def _line_problem(self, dt=0.05, T=22):
        s = make_ltv_scenario(
            [1], T, [np.array([[1.0]])], [np.array([[1.0]])], [1.0], [1e-6],
            [np.array([[1.0]])], [np.array([[1.0]])], [np.array([0.0])], [],
            dt=dt)
        return assemble_problem(validate_scenario(s))

    def test_start_at_goal_is_zero(self):
        problem = self._line_problem()
        times, flagged = travel_time(problem, np.zeros((2, problem.T + 1, 1)))
        assert np.array_equal(times, [0.0, 0.0])
        assert not flagged.any()

    def test_never_reaching_is_flagged_at_horizon(self):
        problem = self._line_problem()
        times, flagged = travel_time(problem, np.ones((1, problem.T + 1, 1)))
        assert times[0] == pytest.approx(problem.T * problem.dt)
        assert flagged[0]

    def test_unit_speed_approach_kinematics(self):
        problem = self._line_problem(dt=0.05, T=22)
        t_grid = np.arange(problem.T + 1) * problem.dt
        states = np.maximum(1.0 - t_grid, 0.0)[None, :, None]
        times, flagged = travel_time(problem, states)
        assert not flagged[0]
        assert 1.0 - GOAL_TOLERANCE <= times[0] <= 1.0


class TestCentralMpc:
    def test_deterministic_receding_horizon_matches_open_loop_optimum(self):
        s = make_ltv_scenario(
            [1, 1], 5,
            [np.array([[1.0]]), np.array([[0.9]])],
            [np.array([[1.0]]), np.array([[0.8]])],
            [1.0, -0.5], [1e-4, 1e-4],
            [np.diag([1.0, 0.0]), np.diag([0.0, 2.0])],
            [np.array([[1.0]]), np.array([[1.0]])],
            [np.array([0.2, 0.0]), np.array([0.0, 0.3])], [])
        problem = zero_noise(assemble_problem(validate_scenario(s)))
        agg = simulate.aggregate_problem(problem)
        policy = backward_recursion(agg)
        optimum = integrate_expected(agg.dyn, policy)
        batch, failures, _ = central_mpc(problem, seed=0, samples=1)
        assert not failures
        assert np.max(np.abs(batch.states[0] - optimum)) < 1e-9

    def test_the_aggregate_reference_is_the_per_step_lstsq_loop(self, mini_problem,
                                                              intersection_prep):
        # a step the summed Q does not weigh (all but T on both bundled games) keeps
        # its reference at +0.0, the bytes lstsq gives there
        for problem in (mini_problem, intersection_prep.problem):
            agg = simulate.aggregate_problem(problem)
            want = np.zeros_like(agg.ref)
            for t in range(1, problem.T + 1):
                rhs = np.einsum("iab,ib->a", problem.Q[:, t], problem.ref[:, t])
                want[0, t] = np.linalg.lstsq(agg.Q[0, t], rhs, rcond=None)[0]
            assert agg.ref.tobytes() == want.tobytes()
            assert np.flatnonzero(agg.Q[0].any(axis=(1, 2))).tolist() == [problem.T]

    def test_single_agent_mpc_equals_policy_rollout(self):
        s = scalar_single_agent_instance(T=4, bound=50.0)  # inactive bound
        s = Scenario(**{**s.__dict__, "constraints": ()})
        problem = assemble_problem(validate_scenario(s))
        policy = backward_recursion(problem)
        game = rollout(problem, policy, seed=11, samples=4)
        mpc_batch, failures, _ = central_mpc(problem, seed=11, samples=4)
        assert not failures
        assert np.max(np.abs(game.states - mpc_batch.states)) < 1e-9
        assert np.max(np.abs(game.costs - mpc_batch.costs)) < 1e-9

    def test_a_replan_whose_rows_cannot_take_the_risk_fails_alone(self):
        # epsilon 0.6 over rows at steps 1..3 of T = 4: the replans at tau = 0
        # and 1 split it over 3 and 2 rows, tau = 2's one row would take
        # 0.6 > 0.5, and tau = 3 has no row.  Only the replan at 2 fails, with
        # its step; the plan from 1 drives step 2 and the episode completes
        con = BoxSpec(x_min=np.array([np.nan]), x_max=np.array([5.0]),
                      active_times=(1, 2, 3))
        s = make_ltv_scenario([1], 4, [np.array([[1.0]])], [np.array([[1.0]])], [0.0],
                              [1e-4], [np.array([[1.0]])], [np.array([[1.0]])],
                              [np.array([1.0])], [con], eps=0.6)
        problem = assemble_problem(validate_scenario(s))
        run = simulate.central_mpc_run(simulate.CentralPlanner(problem), 0, [0])
        assert [(s, step) for s, step, _ in run.failures] == [(0, 2)] and run.replans == 3
        assert run.failures[0][2].startswith("BadProbability")
        assert np.all(np.isfinite(run.states))
        batch, failures, totals = central_mpc(problem, seed=0, samples=2)
        assert batch.samples == 2 and totals["replans"] == 6
        assert [(s, step) for s, step, _ in failures] == [(0, 2), (1, 2)]

    def test_coarser_replanning_still_valid(self, mini_problem):
        batch, failures, _ = central_mpc(
            mini_problem, seed=2, samples=2, replan_every=5,
            options=DualAscentOptions(k_max=200))
        assert not failures
        stats = evaluate_safety(batch, mini_problem)
        assert stats.samples == 2
        assert np.isfinite(stats.cost_mean)

    def test_replan_failures_recorded_and_survived(self, monkeypatch, mini_problem):
        import ccgame.simulate as sim
        real = sim.run_dual_ascent
        calls = {"n": 0}

        def flaky(prepared, options=None, **kw):
            calls["n"] += 1
            if calls["n"] > 3:
                raise SingularStageSystem(0, 0.0)
            return real(prepared, options, **kw)

        monkeypatch.setattr(sim, "run_dual_ascent", flaky)
        batch, failures, _ = central_mpc(
            mini_problem, seed=5, samples=1,
            options=DualAscentOptions(k_max=100))
        assert failures
        assert all(step >= 3 for _, step, _ in failures)
        assert batch.states.shape[0] == 1  # stale plan drove to the end

    def test_pivot_without_a_solution_is_not_a_replan_failure(self, monkeypatch,
                                                              mini_problem):
        # a zero pivot cap sends every replan to the fallback ascent
        import ccgame.dualascent as da
        monkeypatch.setattr(da, "PIVOTS_PER_ROW", 0)
        batch, failures, _ = central_mpc(mini_problem, seed=5, samples=1,
                                         options=DualAscentOptions(k_max=100))
        assert not failures
        assert np.isfinite(batch.costs).all()

    def test_programming_errors_propagate(self, monkeypatch, mini_problem):
        import ccgame.simulate as sim
        real = sim.run_dual_ascent
        calls = {"n": 0}

        def broken(prepared, options=None, **kw):
            calls["n"] += 1
            if calls["n"] > 3:
                raise TypeError("injected programming error")
            return real(prepared, options, **kw)

        monkeypatch.setattr(sim, "run_dual_ascent", broken)
        with pytest.raises(TypeError, match="injected"):
            central_mpc(mini_problem, seed=5, samples=1,
                        options=DualAscentOptions(k_max=100))

    def test_all_seeds_failed_is_a_runtime_error(self, monkeypatch, mini_problem):
        import ccgame.simulate as sim

        def singular(prepared, options=None, **kw):
            raise SingularStageSystem(0, 0.0)

        monkeypatch.setattr(sim, "run_dual_ascent", singular)
        with pytest.raises(AllSeedsFailed) as info:
            central_mpc(mini_problem, seed=5, samples=2)
        assert isinstance(info.value, RuntimeError)
        assert "SingularStageSystem" in str(info.value)

    def test_repeated_runs_identical(self, mini_problem):
        b, f, _ = central_mpc(mini_problem, seed=21, samples=2,
                              options=DualAscentOptions(k_max=100))
        b2, f2, _ = central_mpc(mini_problem, seed=21, samples=2,
                                options=DualAscentOptions(k_max=100))
        assert not f and not f2
        assert np.array_equal(b.states, b2.states)

    def test_surrogate_satisfaction_implies_original_rate(self, mini_prep_ref=None):
        # a policy whose mean trajectory satisfies every affine row keeps the
        # empirical joint violation rate within the budget (plus Wilson slack)
        from ccgame.dualascent import DualAscentOptions as DAO
        from ccgame.dualascent import prepare_game, run_dual_ascent
        from ccgame.scenarios import make_intersection_mini
        prep = prepare_game(validate_scenario(make_intersection_mini()))
        rep = run_dual_ascent(prep, DAO(k_max=20000))
        policy = FeedbackPolicy(K=rep.policy.K, alpha=rep.map.alpha(1.5 * rep.lambda_bar))
        traj = integrate_expected(prep.problem.dyn, policy)
        g = prep.conset.evaluate(traj)
        assert np.max(g) < 0.0        # strictly inside the affine set
        batch = rollout(prep.problem, policy, seed=17, samples=2000)
        stats = evaluate_safety(batch, prep.problem)
        eps = prep.problem.risk_epsilon
        slack = stats.wilson_hi - stats.rate
        assert stats.rate <= eps + slack

    def test_slicing_the_aggregate_equals_aggregating_the_slice(self, mini_problem):
        agg = simulate.aggregate_problem(mini_problem)
        rng = np.random.default_rng(1)
        for tau in range(mini_problem.T):
            x = rng.normal(size=mini_problem.n_x)
            once = simulate.slice_problem(agg, tau, x)
            per_replan = simulate.aggregate_problem(
                simulate.slice_problem(mini_problem, tau, x))
            assert _fields_equal(once, per_replan), tau

    def test_replan_sweeps_three_times(self, mini_problem, lqnash_calls,
                                       monkeypatch):
        # an episode's own planner: one zeta response, its one sweep and one
        # stacked rcond check, in its constructor, for the gains, the zeta
        # response Psi and the lam = 0 affine terms, whose tail is every
        # replan's reference policy; a replan's reference mean
        # is a contraction of its state, and only where a row is violated (a
        # of them) its replan time's screen runs one pass (one per replan
        # time that solves; 2 here, one per solve before), whose alpha
        # columns (the violated rows', all that the pivot reads here) come
        # from Psi and give the policy at the pivot's multiplier; no mean
        # trajectory of that policy, no final solve's zeta pass, no full map
        # and no diagnostic that only a report reads (a gain recursion with T
        # rcond checks beside the zeta pass before the sweep was one; 2 zeta
        # passes, the lam = 0 one apart; 3 zeta passes and 7 means with a zeta pass per
        # active replan and an integrated reference mean; 2 means, the active
        # policies', before the report's mean was computed when first read)
        count_replan_work(monkeypatch, lqnash_calls)
        run = simulate.central_mpc_run(simulate.CentralPlanner(mini_problem, 4), 3, [0])
        assert not run.failures
        assert run.replans == -(-mini_problem.T // 4) == 5
        a = lqnash_calls.pop("pivoting")
        assert run.replans_with_active_rows == a == 2 and run.map_columns == 4
        assert lqnash_calls == {"zeta_response": 1, "_check_rcond": 1,
                                "_zeta_sweep": 1, "affine_response": 2}

    def test_episodes_share_the_call_and_replan_time_work(self, mini_problem,
                                                           lqnash_calls, monkeypatch):
        # 2 episodes of T = 20 replans: one aggregate, one zeta response (one
        # sweep, one stacked rcond check) for the gains, Psi and the lam = 0
        # affine terms, and one horizon pass (every replan time's covariance) per
        # call, and per replan time at which some episode's lam = 0 mean
        # violates a row (7, for 12 such replans) one stacked pass with the
        # 18 columns of the violated rows, whose alphas come from Psi and
        # give the policy too; no full map and no integrated mean (a gain
        # recursion with T rcond checks beside the zeta pass before the sweep
        # was one; 2 zeta passes, the lam = 0 one apart, and 12 map passes,
        # one per such
        # replan; 14 zeta passes and 53 means
        # with a zeta pass per such replan; 27 passes with a final solve's;
        # 81 when every replan ran the full map; 120 passes, 40 covariances
        # before that; 20 covariances, one per replan time, before the
        # horizon pass; 13 means, the active policies', before the report's
        # mean was computed when first read).  The start is every episode's:
        # solved once, counted twice
        from ccgame import uncertainty
        count_replan_work(monkeypatch, lqnash_calls)
        for module, name in ((simulate, "aggregate_problem"),
                             (uncertainty, "propagate_covariance"),
                             (uncertainty, "horizon_pass")):
            real = getattr(module, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                lqnash_calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        T = mini_problem.T
        _, failures, totals = central_mpc(mini_problem, seed=3, samples=2,
                                          replan_every=1)
        assert not failures and T == 20
        a = lqnash_calls["pivoting"]
        assert totals["replans"] == 2 * T and totals["replans_with_active_rows"] == a + 1
        assert totals["map_columns"] == 18
        assert lqnash_calls["aggregate_problem"] == 1
        assert lqnash_calls["zeta_response"] == 1 and lqnash_calls["stage_gains"] == 0
        assert lqnash_calls["_check_rcond"] == 1
        assert lqnash_calls["_zeta_sweep"] == 1
        assert lqnash_calls["integrate_expected"] == 0 and a == 12
        assert lqnash_calls["affine_response"] == 7 and lqnash_calls["full_map"] == 0
        assert lqnash_calls["eigvalsh"] == 0
        assert lqnash_calls["horizon_pass"] == 1
        assert lqnash_calls["propagate_covariance"] == 0

    @pytest.mark.parametrize("name, seeds, episodes",
                             [("intersection-mini", (0, 7, 42), 2),
                              ("intersection", (5,), 1)])
    def test_zero_multiplier_replans_equal_the_full_path(self, lqnash_calls,
                                                         name, seeds, episodes):
        # the lockstep call solves only the replans whose lam = 0 mean
        # violates a row and keeps the planner's lam = 0 policy tail at the
        # others.  The full path (oracles.episode_mpc) prepares and solves
        # every replan of an episode on its own: bit for bit the lockstep
        # episode, whose shared start, active on every seed here, is solved
        # once and counted once per episode; with the prepared lam = 0
        # equilibrium withheld, each solve runs it on the tail of the
        # planner's gains, which is the planner's alpha0 tail bit for bit,
        # and integrates its mean, where the planner contracts it from x0, so
        # the episodes agree to 1e-13 of max(1, |withheld|).  Both have the same replans, active replans
        # and columns.  A replan time at which an episode's lam = 0 mean
        # violates rows runs one pass, with every such episode's columns of
        # the rows it violates, and a replan a pass per pivot read of a
        # column not among them (one, on intersection at seed 5), never the
        # full map
        from ccgame import scenarios
        from ccgame.model import load_scenario
        from oracles import episode_mpc
        problem = assemble_problem(validate_scenario(
            load_scenario(str(scenarios.bundled_path(name)))))
        # (active replans, map passes); with a pass per solve, mini's were 13, 14, 12
        counts = {"intersection-mini": ((14, 8), (15, 8), (13, 7)),
                  "intersection": ((15, 16),)}[name]
        for seed, want in zip(seeds, counts):
            lqnash_calls.clear()
            batch, failures, totals = central_mpc(problem, seed, episodes)
            maps, full_maps = lqnash_calls["affine_response"], lqnash_calls["full_map"]
            assert failures == [] and totals["replans"] == episodes * problem.T
            assert (totals["replans_with_active_rows"], maps) == want and full_maps == 0
            planner = simulate.CentralPlanner(problem)
            for withhold in (False, True):
                full = [episode_mpc(planner, seed, s, withhold) for s in range(episodes)]
                assert [sum(counts) for counts in zip(*(f[2:] for f in full))] == [
                    totals["replans"], totals["replans_with_active_rows"],
                    totals["map_columns"]]
                states, inputs = (np.stack([f[k] for f in full]) for k in (0, 1))
                costs = realized_costs(problem, states, inputs)
                for field, ref in (("states", states), ("inputs", inputs), ("costs", costs)):
                    got = getattr(batch, field)
                    if not withhold:
                        assert got.tobytes() == ref.tobytes(), field
                    assert np.max(np.abs(got - ref)) <= 1e-13 * max(
                        1.0, np.max(np.abs(ref))), field

    @pytest.mark.parametrize("name", ["intersection-mini", "intersection"])
    def test_an_episode_does_not_depend_on_the_call(self, name):
        # each tau's slice and rows are built by whichever episode first
        # needs them, and do not depend on its state
        from ccgame import scenarios
        from ccgame.model import load_scenario
        problem = assemble_problem(validate_scenario(
            load_scenario(str(scenarios.bundled_path(name)))))
        batch, failures, _ = central_mpc(problem, 7, 3)
        assert not failures
        for s in range(3):
            run = simulate.central_mpc_run(simulate.CentralPlanner(problem), 7, [s])
            assert batch.states[s].tobytes() == run.states[0].tobytes(), s
            assert batch.inputs[s].tobytes() == run.inputs[0].tobytes(), s

    def test_planner_failure_is_its_seeds_failure(self, monkeypatch, mini_problem):
        # the planner is built once per call, before its episodes advance
        # together: a planner that fails fails every episode of the call, and
        # the next call builds its own
        from ccgame import lqnash
        real = lqnash.zeta_response
        calls = {"n": 0}

        def singular_once(problem):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SingularStageSystem(3, 0.0)
            return real(problem)

        msg = f"SingularStageSystem: {SingularStageSystem(3, 0.0)}"
        monkeypatch.setattr(lqnash, "zeta_response", singular_once)
        with pytest.raises(AllSeedsFailed) as info:
            central_mpc(mini_problem, seed=5, samples=3, options=DualAscentOptions(k_max=100))
        assert str(info.value) == f"all 3 MPC seeds failed; first: {msg}" and calls["n"] == 1
        batch, failures, _ = central_mpc(mini_problem, seed=5, samples=3,
                                         options=DualAscentOptions(k_max=100))
        assert not failures and batch.samples == 3 and calls["n"] == 2

        def singular(problem):
            raise SingularStageSystem(3, 0.0)

        monkeypatch.setattr(lqnash, "zeta_response", singular)
        with pytest.raises(AllSeedsFailed) as info:
            central_mpc(mini_problem, seed=5, samples=2)
        assert str(info.value) == f"all 2 MPC seeds failed; first: {msg}"

    def test_comp_time_covers_the_whole_replan(self, mini_problem, monkeypatch):
        # the per-step figure also counts slicing, every episode's screen (its
        # reference mean and rows) and the preparation of the games that are
        # solved, which no report's solve_seconds includes; only a replan
        # whose lam = 0 mean violates a row is solved
        reports = []
        real = simulate.run_dual_ascent

        def recording(prepared, options=None, **kw):
            reports.append(real(prepared, options, **kw))
            return reports[-1]

        monkeypatch.setattr(simulate, "run_dual_ascent", recording)
        run = simulate.central_mpc_run(simulate.CentralPlanner(mini_problem, 2), 3, [0])
        assert not run.failures and 0 < len(reports) == run.replans_with_active_rows
        assert len(reports) < run.replans
        assert run.solve_seconds > sum(r.solve_seconds for r in reports)
        reports.clear()
        _, failures, totals = central_mpc(mini_problem, seed=3, samples=2,
                                          replan_every=2)
        assert not failures and totals["replans"] == 2 * run.replans
        # the constructor and every replan's own time, beyond the shared work
        assert (totals["comp_seconds_per_step"] * totals["replans"]
                > totals["planner_seconds"] + sum(r.solve_seconds for r in reports))

    def test_aggregation_preserves_cost_structure(self, mini_problem):
        agg = simulate.aggregate_problem(mini_problem)
        assert agg.N == 1
        assert agg.n_u == mini_problem.N * mini_problem.n_u
        t = mini_problem.T
        rng = np.random.default_rng(0)
        x = rng.normal(size=mini_problem.n_x)
        total = sum(
            (x - mini_problem.ref[i, t]) @ mini_problem.Q[i, t] @ (x - mini_problem.ref[i, t])
            for i in range(mini_problem.N))
        agg_val = (x - agg.ref[0, t]) @ agg.Q[0, t] @ (x - agg.ref[0, t])
        # summed quadratics agree up to an x-independent constant
        y = rng.normal(size=mini_problem.n_x)
        total_y = sum(
            (y - mini_problem.ref[i, t]) @ mini_problem.Q[i, t] @ (y - mini_problem.ref[i, t])
            for i in range(mini_problem.N))
        agg_y = (y - agg.ref[0, t]) @ agg.Q[0, t] @ (y - agg.ref[0, t])
        assert (total - agg_val) == pytest.approx(total_y - agg_y, abs=1e-9)


class TestLockstep:
    """The episodes of a central-MPC call advance together, and only a replan
    whose lam = 0 mean violates a row is solved.  Episode s is bit for bit
    its own S = 1 call (the determinism contract)."""

    @pytest.mark.parametrize("replan_every", [1, 3])
    @pytest.mark.parametrize("name", ["intersection-mini", "intersection"])
    def test_an_episode_is_its_own_one_episode_call(self, name, replan_every):
        from ccgame import scenarios
        from ccgame.model import load_scenario
        problem = assemble_problem(validate_scenario(
            load_scenario(str(scenarios.bundled_path(name)))))
        batch, failures, totals = central_mpc(problem, 777, 100, replan_every)
        assert not failures and batch.samples == 100
        for s in (0, 57, 99):
            run = simulate.central_mpc_run(simulate.CentralPlanner(problem, replan_every),
                                           777, [s])
            assert run.states.shape[0] == 1 and not run.failures
            assert run.states[0].tobytes() == batch.states[s].tobytes(), s
            assert run.inputs[0].tobytes() == batch.inputs[s].tobytes(), s
        if (name, replan_every) == ("intersection", 1):    # the manifest's counts
            assert (totals["replans"], totals["replans_with_active_rows"],
                    totals["map_columns"]) == (5000, 1341, 7157)

    def test_the_screen_block_changes_no_result(self, monkeypatch, mini_problem):
        want = central_mpc(mini_problem, 3, 20)
        monkeypatch.setattr(simulate, "SCREEN_BLOCK", 7)
        got = central_mpc(mini_problem, 3, 20)
        for field in ("states", "inputs", "costs"):
            assert getattr(got[0], field).tobytes() == getattr(want[0], field).tobytes()
        assert got[1] == want[1] == []
        assert {k: v for k, v in got[2].items() if "seconds" not in k} == {
            k: v for k, v in want[2].items() if "seconds" not in k}

    def test_only_a_replan_that_violates_a_row_is_solved(self, monkeypatch, lqnash_calls,
                                                         mini_problem):
        # run_dual_ascent runs once per replan whose lam = 0 mean violates a
        # row of its game, as each episode's planner_game gives it, the
        # shared start once for all 4 episodes, and a replan integrates no
        # mean and evaluates no cost
        solved = []
        real = simulate.run_dual_ascent

        def recording(prepared, options=None, **kw):
            solved.append(prepared.conset.evaluate(prepared.equilibrium0[1]))
            return real(prepared, options, **kw)

        monkeypatch.setattr(simulate, "run_dual_ascent", recording)
        batch, failures, totals = central_mpc(mini_problem, 3, 4, replan_every=2)
        assert not failures
        assert lqnash_calls["integrate_expected"] == 0
        assert lqnash_calls["evaluate_cost"] == lqnash_calls["closed_loop_covariance"] == 0
        assert all(np.any(g > 0) for g in solved)
        planner = simulate.CentralPlanner(mini_problem, 2)
        violated = []
        for x in batch.states:
            for tau in range(0, mini_problem.T, 2):
                prepared = planner_game(planner, tau, x[tau])
                violated.append(np.any(prepared.conset.evaluate(prepared.equilibrium0[1]) > 0))
        assert violated[0] and sum(violated) == 14 and totals["replans"] == 40
        assert len(solved) == 14 - 3

    def test_a_replan_time_is_sliced_only_where_a_game_is_built(self, monkeypatch,
                                                                  mini_problem):
        # the planner lays out every replan time's rows in its constructor, and a
        # replan time's first game slices the problem: an intersection-mini call
        # slices once per replan time at which some episode solves, and at no other
        sliced, solved = [], []
        real_slice, real_solve = simulate.slice_problem, simulate.run_dual_ascent

        def slicing(problem, tau, x0):
            sliced.append(tau)
            return real_slice(problem, tau, x0)

        def solving(prepared, options=None, **kw):
            solved.append(mini_problem.T - prepared.problem.T)
            return real_solve(prepared, options, **kw)

        monkeypatch.setattr(simulate, "slice_problem", slicing)
        monkeypatch.setattr(simulate, "run_dual_ascent", solving)
        _, failures, totals = central_mpc(mini_problem, 3, 4)
        assert not failures and totals["replans"] == 4 * mini_problem.T
        assert sorted(sliced) == sorted(set(solved))
        assert len(solved) > len(sliced) and 0 < len(sliced) < mini_problem.T

    def test_the_shared_start_is_solved_once(self, monkeypatch, mini_problem):
        # every episode starts at x0, whose lam = 0 mean violates a row here: the
        # replan at t = 0 is solved once for all 5 episodes and counted once per
        # episode, and each episode's first input is the one-episode call's
        starts = []
        real = simulate.run_dual_ascent

        def recording(prepared, options=None, **kw):
            starts.append(prepared.problem.T == mini_problem.T)
            return real(prepared, options, **kw)

        planner = simulate.CentralPlanner(mini_problem)
        start = planner_game(planner, 0, mini_problem.dyn.x0)
        assert np.any(start.conset.evaluate(start.equilibrium0[1]) > 0)
        one = simulate.central_mpc_run(planner, 3, [0])
        monkeypatch.setattr(simulate, "run_dual_ascent", recording)
        run = simulate.central_mpc_run(planner, 3, range(5))
        assert not run.failures and sum(starts) == 1 and run.replans == 5 * mini_problem.T
        for s in range(5):
            assert run.inputs[s, 0].tobytes() == one.inputs[0, 0].tobytes(), s

    @pytest.mark.parametrize("name", ["intersection-mini", "intersection"])
    def test_a_replan_times_one_pass_gives_each_game_its_own_columns(self, monkeypatch,
                                                                    name):
        # a replan time's screen runs one pass over the violated columns of all its
        # solving episodes: every solve's map, its G and alpha columns and any a
        # pivot read beyond them, is byte for byte the map of the episode's own
        # solve in oracles.episode_mpc, whose game runs its own pass, at S = 1 and
        # S = 100.  Some replan time stacks an episode of one violated column
        # (padded to two) beside another solving episode
        from ccgame import lqnash, scenarios
        from ccgame.model import load_scenario
        from oracles import episode_mpc
        problem = assemble_problem(validate_scenario(
            load_scenario(str(scenarios.bundled_path(name)))))
        planner = simulate.CentralPlanner(problem)
        want = {}
        for s in range(100):
            episode_mpc(planner, 777, s, maps=want)
        solves, widths = [], []
        real_solve, real_pass = simulate.run_dual_ascent, lqnash.affine_response

        def solving(prepared, options=None, **kw):
            report = real_solve(prepared, options, **kw)
            tau = problem.T - prepared.problem.T
            solves.append((tau, prepared.problem.dyn.x0.tobytes(), report.map))
            return report

        def stacking(*args):
            widths.append([len(cols) for cols in args[3]])
            return real_pass(*args)

        monkeypatch.setattr(simulate, "run_dual_ascent", solving)
        monkeypatch.setattr(lqnash, "affine_response", stacking)
        for indices in ([0], [57], [99], range(100)):
            solves.clear()
            run = simulate.central_mpc_run(simulate.CentralPlanner(problem), 777, indices)
            assert not run.failures and solves
            for tau, x0, gmap in solves:
                ref = want[tau, x0]
                assert sorted(gmap.columns) == sorted(ref.columns), (indices, tau)
                assert sorted(gmap.alphas) == sorted(ref.alphas), (indices, tau)
                for j in ref.columns:
                    assert gmap.columns[j].tobytes() == ref.columns[j].tobytes(), (tau, j)
                for j in ref.alphas:
                    assert gmap.alphas[j].tobytes() == ref.alphas[j].tobytes(), (tau, j)
        assert any(len(k) > 1 and 1 in k for k in widths)

    def test_a_failed_stacked_pass_is_each_solving_episodes_failure(self, monkeypatch,
                                                                    mini_problem):
        # the pass that a replan time's violating episodes share raises in the game of
        # each of them, whose replan fails alone; the others replan as usual
        from ccgame import lqnash
        real, solving = lqnash.affine_response, []

        def failing(*args):
            if len(args[3]) > 1 and args[0].T == mini_problem.T - 6:     # at tau = 6
                solving.append([s for s, cols in enumerate(args[3]) if cols])
                raise np.linalg.LinAlgError("the stacked pass")
            return real(*args)

        monkeypatch.setattr(lqnash, "affine_response", failing)
        run = simulate.central_mpc_run(simulate.CentralPlanner(mini_problem), 3, range(4))
        assert 1 < len(solving[0]) < 4 and solving == [solving[0]] * len(solving[0])
        assert run.failures == [(s, 6, "LinAlgError: the stacked pass") for s in solving[0]]

    @staticmethod
    def _two_scalar_agents(x0, T=6):
        """Two unit scalar agents from x0, both drawn to 0, a 0.1 keep-out at every step."""
        con = CollisionSpec(pair=(0, 1), radius=0.1, C=np.array([[1.0]]),
                            active_times=tuple(range(1, T + 1)))
        one = np.array([[1.0]])
        return assemble_problem(validate_scenario(make_ltv_scenario(
            [1, 1], T, [one, one], [one, one], x0, [1e-2, 1e-2],
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [one, one],
            [np.zeros(2), np.zeros(2)], [con])))

    def test_a_replans_degenerate_reference_names_the_episodes_step(self):
        # agents that coincide at tau coincide at every later step, and the first
        # row of a slice is at its step 1: the error names step tau + 1 of the episode
        planner = simulate.CentralPlanner(self._two_scalar_agents([1.0, -1.0]))
        for tau in (0, 2, 4):
            *_, degenerate, _ = planner.screen(tau, np.array([[0.3, 0.3], [0.3, -0.3]]))
            assert list(degenerate) == [0], tau
            assert (degenerate[0].pair, degenerate[0].t) == ((0, 1), tau + 1)
            assert f"in the reference at t={tau + 1} " in str(degenerate[0])

    def test_a_degenerate_reference_fails_its_own_episode(self, monkeypatch):
        # episode 1's first noise draw puts both agents at one point at
        # t = 1, so that its lam = 0 means coincide: its replan at 1 alone
        # fails, its plan from 0 drives on, and the other episodes are bit
        # for bit their own S = 1 runs.  A coincident start fails the call
        problem = self._two_scalar_agents([1.0, -1.0])
        planner = simulate.CentralPlanner(problem)
        u0 = simulate.central_mpc_run(planner, 0, [0]).inputs[0, 0]
        step = problem.dyn.A[0] @ problem.dyn.x0 + planner.agg.dyn.B[0, 0] @ u0.ravel()
        z0 = np.linalg.solve(planner.factors[0], [step[1] - step[0], 0.0])
        real = simulate.noise_stream

        def stream(seed, s):
            if s != 1:
                return real(seed, s)
            z = real(seed, s).standard_normal((problem.T, problem.n_x))
            z[0] = z0
            return SimpleNamespace(standard_normal=lambda shape: z)

        monkeypatch.setattr(simulate, "noise_stream", stream)
        batch, failures, totals = central_mpc(problem, 0, 3)
        assert [(s, step) for s, step, _ in failures] == [(1, 1)]
        assert failures[0][2].startswith("DegenerateReference: agents (0,1) coincide or overflow")
        assert batch.samples == 3 and np.all(np.isfinite(batch.states))
        assert totals["replans"] == 3 * problem.T - 1
        assert abs(batch.states[1, 1, 0] - batch.states[1, 1, 1]) < 1e-12
        for s in range(3):
            run = simulate.central_mpc_run(simulate.CentralPlanner(problem), 0, [s])
            assert run.failures == [f for f in failures if f[0] == s]
            assert run.states[0].tobytes() == batch.states[s].tobytes(), s
            assert run.inputs[0].tobytes() == batch.inputs[s].tobytes(), s
        coincident = self._two_scalar_agents([0.5, 0.5])
        with pytest.raises(AllSeedsFailed, match=r"^all 3 MPC seeds failed; first: "
                                                 r"DegenerateReference: agents \(0,1\)"):
            central_mpc(coincident, 0, 3)
        with pytest.raises(DegenerateReference):    # the shared start raises, once
            simulate.central_mpc_run(simulate.CentralPlanner(coincident), 0, range(3))


@pytest.fixture(scope="module")
def planner_games():
    """(name, problem): both bundled games, 60 random small games (every
    other one coupled, 1-4 agents, so n_x runs from 1 to 12) and one random
    game whose first constraint ends mid-horizon, so that the later slices
    keep it with no active time and no row, and their rows' sources stay the
    full table's."""
    from ccgame import scenarios
    games = [(name, assemble_problem(validate_scenario(make())))
             for name, make in (("intersection-mini", scenarios.make_intersection_mini),
                                ("intersection", scenarios.make_intersection))]
    rng = np.random.default_rng(27)
    for k in range(60):
        coupled = k % 2 == 1
        N = 2 + k // 2 % 3 if coupled else 1 + k // 2 % 4
        s = random_small_scenario(rng, N=N, coupled=coupled)
        games.append((f"random {k}", assemble_problem(validate_scenario(s))))
    n_x = games[-1][1].n_x
    early = BoxSpec(x_min=np.full(n_x, np.nan), x_max=np.full(n_x, 50.0),
                    active_times=tuple(range(1, s.horizon // 2 + 1)))
    s = Scenario(**{**s.__dict__, "constraints": (early, *s.constraints)})
    games.append(("mid-horizon", assemble_problem(validate_scenario(s))))
    assert {1, 12} <= {problem.n_x for _, problem in games}
    return games


class TestHorizonPass:
    """The planner's one pass over the horizon gives every replan time the
    covariance, transition products and rows of its own slice, bit for bit;
    the planner keeps the products and the layout, not the covariance."""

    @pytest.mark.parametrize("replan_every", [1, 3])
    def test_every_replan_time_equals_its_own_slice(self, planner_games, replan_every):
        for name, problem in planner_games:
            planner = simulate.CentralPlanner(problem, replan_every)
            states = simulate.central_mpc_run(planner, 4, [0]).states[0]
            starts = list(range(0, problem.T, replan_every))
            assert list(planner.transitions) == starts, name
            assert not {"cov", "rows"} & set(vars(planner)), name
            dyn = planner.agg.dyn
            (_, covs), = uncertainty.horizon_pass(
                problem.T, starts, uncertainty.covariance_step(dyn.A, dyn.W))
            for tau, cov in zip(starts, covs):
                prep = planner_game(planner, tau, states[tau])
                reference, Z = game_reference(prep), planner.transitions[tau]
                sub = simulate.slice_problem(planner.agg, tau, states[tau])
                sub_cov = propagate_covariance(sub.dyn)
                Phi, d = mean_map(sub.dyn, planner.gains.F[tau:], planner.gains.alpha0[tau:])
                for got, want in ((cov, sub_cov), (Z[..., :-1], Phi), (Z[..., -1], d)):
                    assert got.shape == want.shape, (name, tau)
                    assert got.tobytes() == want.tobytes(), (name, tau)
                steps, source, (l,), (c,), degenerate = planner.fill(tau, reference[None])
                want = assemble_constraints(sub, sub_cov, reference)
                assert not degenerate and want.T == problem.T - tau, (name, tau)
                for key, got in (("t", steps), ("source", source), ("l", l), ("c", c),
                                 ("t", prep.conset.t), ("source", prep.conset.source)):
                    assert got.tobytes() == getattr(want, key).tobytes(), (name, tau, key)

    def test_a_slice_keeps_every_constraint(self, planner_games):
        # the mid-horizon game's first constraint, a box, ends at T // 2
        problem = dict(planner_games)["mid-horizon"]
        agg = simulate.aggregate_problem(problem)
        t, source = row_table(agg)[:2]
        for tau in range(problem.T):
            sub = simulate.slice_problem(agg, tau, agg.dyn.x0)
            assert len(sub.constraints) == len(agg.constraints), tau
            assert (sub.constraints[0].active_times == ()) == (tau >= problem.T // 2), tau
            first = np.searchsorted(t, tau, side="right")
            assert np.array_equal(row_table(sub)[1], source[first:]), tau


class TestResponseRoute:
    """A replan's map takes its alpha columns from the call's zeta response
    Psi and its lam = 0 mean from the tau's transition products; the pass
    route (a zeta pass per set of columns, an integrated mean) is the
    reference.  The bound, 1e-13 of max(1, max |pass route|), was fixed
    before the route was built."""

    @staticmethod
    def _close(got, want):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * max(
            1.0, np.max(np.abs(want), initial=0.0))

    @pytest.mark.parametrize("name, alone", [("intersection-mini", None),
                                             ("intersection", 4)])
    def test_every_replan_of_an_episode(self, name, alone):
        from ccgame import scenarios
        from ccgame.model import load_scenario
        problem = assemble_problem(validate_scenario(
            load_scenario(str(scenarios.bundled_path(name)))))
        planner = simulate.CentralPlanner(problem)
        run = simulate.central_mpc_run(planner, 5, [0])
        assert not run.failures and run.replans_with_active_rows > 0
        rng = np.random.default_rng(8)
        for tau in range(problem.T):
            prep = planner_game(planner, tau, run.states[0, tau])
            sub, conset, gains = prep.problem, prep.conset, prep.gains
            policy0, mean0 = prep.equilibrium0
            self._close(mean0, integrate_expected(sub.dyn, policy0))
            if prep.M == 0:
                continue
            G, alphas = column_pass(sub, conset, gains)
            columns = np.arange(prep.M)
            G_psi, alphas_psi = column_pass(sub, conset, gains, columns, prep.psi)
            self._close(G_psi, G)
            self._close(alphas_psi, alphas)
            # a column's bits do not depend on the columns computed with it
            for j in columns if alone is None else rng.choice(prep.M, alone):
                G_j, alpha_j = column_pass(sub, conset, gains, [j], prep.psi)
                assert G_j[:, 0].tobytes() == G_psi[:, j].tobytes(), (tau, j)
                assert alpha_j[0].tobytes() == alphas_psi[j].tobytes(), (tau, j)


class TestIntegerArguments:
    """Counts and seeds of the library go through one integer check: a bool,
    float or str raises DomainError instead of being truncated, and numpy
    integers pass."""

    @staticmethod
    def calls():
        scenario = scalar_single_agent_instance(T=3)
        problem = assemble_problem(validate_scenario(scenario))
        policy = backward_recursion(problem)
        planner = simulate.CentralPlanner(problem)
        return {
            "rollout-samples": lambda v: rollout(problem, policy, 0, v),
            "rollout-seed": lambda v: rollout(problem, policy, v, 2),
            "mpc-samples": lambda v: central_mpc(problem, 0, v),
            "mpc-replan_every": lambda v: central_mpc(problem, 0, 1, replan_every=v),
            "mpc-seed": lambda v: central_mpc(problem, v, 1),
            "planner-replan_every": lambda v: simulate.CentralPlanner(problem, v),
            "mpc-run-seed": lambda v: simulate.central_mpc_run(planner, v, [0]),
            "k_max": lambda v: DualAscentOptions(k_max=v),
            "relinearize": lambda v: solve_scenario(scenario, relinearize=v),
        }

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2"],
                             ids=["float", "integral-float", "bool", "str"])
    @pytest.mark.parametrize("call", ["rollout-samples", "rollout-seed", "mpc-samples",
                                      "mpc-replan_every", "mpc-seed",
                                      "planner-replan_every", "mpc-run-seed", "k_max",
                                      "relinearize"])
    def test_a_non_integer_raises(self, call, value):
        with pytest.raises(DomainError):
            self.calls()[call](value)

    @staticmethod
    def _no_work(monkeypatch):
        """A planner whose call fails if it allocates an episode or draws noise."""
        planner = simulate.CentralPlanner(
            assemble_problem(validate_scenario(scalar_single_agent_instance(T=3))))
        for name in ("_sample_arrays", "noise_stream"):
            monkeypatch.setattr(simulate, name, lambda *a: pytest.fail("work began"))
        return planner

    def test_indices_past_ssize_t_raise_before_any_work(self, monkeypatch):
        # len() of a range of 10**20 indices overflows (OverflowError before)
        planner = self._no_work(monkeypatch)
        with pytest.raises(DomainError, match=r"^sample_indices: expected 1 to 2\*\*63 - 1"):
            simulate.central_mpc_run(planner, 0, range(10**20))

    @pytest.mark.parametrize("indices", [range(0), []], ids=["range", "list"])
    def test_no_indices_raise_before_any_work(self, monkeypatch, indices):
        # numpy's "need at least one array to stack" before
        planner = self._no_work(monkeypatch)
        with pytest.raises(DomainError, match=r"^sample_indices: expected 1 to 2\*\*63 - 1"):
            simulate.central_mpc_run(planner, 0, indices)

    @pytest.mark.parametrize("call", ["planner-replan_every", "mpc-replan_every"])
    def test_a_zero_cadence_raises(self, call):
        # the planner checks its own cadence, and central_mpc before any
        # episode, so that it is not an episode's failure (AllSeedsFailed)
        with pytest.raises(DomainError):
            self.calls()[call](0)

    def test_numpy_integers_pass(self):
        for call in self.calls().values():
            call(np.int64(2))
        problem = assemble_problem(validate_scenario(scalar_single_agent_instance(T=3)))
        policy = backward_recursion(problem)
        got = rollout(problem, policy, np.uint8(5), np.int32(3))
        want = rollout(problem, policy, 5, 3)
        assert got.samples == 3 and got.seed == 5 and type(got.seed) is int
        assert got.states.tobytes() == want.states.tobytes()
