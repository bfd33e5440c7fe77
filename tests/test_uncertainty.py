import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgame import linearize, lqnash, scenarios, simulate, uncertainty
from ccgame.dualascent import prepare_game
from ccgame.errors import (AllocationTooSmall, DegenerateReference, DomainError)
from ccgame.model import (BoxSpec, CollisionSpec, Scenario, assemble_problem,
                          load_scenario, validate_scenario)
from ccgame.uncertainty import (allocate_risk, assemble_constraints,
                                inverse_normal_cdf, linearize_collision,
                                propagate_covariance)
from conftest import (coupled_constrained_instance, make_ltv_scenario,
                      random_small_scenario, scalar_single_agent_instance,
                      scalar_two_agent_instance)
from oracles import (bisect_normal_quantile, column_pass, conservativeness_probe,
                     dense_affine_response, game_reference, loop_assemble_constraints,
                     pair_difference_cov, planner_game, row_linearize_collision,
                     row_reference_direction, series_normal_cdf)

# frozen with the series-CDF bisection oracle (tests/oracles.py)
Z_950000 = 1.6448536269514449
Z_999800 = 3.540083799205675


class TestInverseNormalCdf:
    def test_median_maps_to_zero(self):
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_oracle_values(self):
        assert inverse_normal_cdf(0.95) == pytest.approx(Z_950000, abs=1e-10)
        assert inverse_normal_cdf(0.9998) == pytest.approx(Z_999800, abs=1e-10)

    def test_cdf_residual_below_1e10(self):
        for p in (1e-11, 1e-6, 0.02, 0.3, 0.5, 0.77, 0.9998, 1 - 1e-6, 1 - 1e-11):
            z = inverse_normal_cdf(p)
            assert abs(series_normal_cdf(z) - p) <= 1e-10

    def test_domain_guard(self):
        for p in (0.0, 1e-13, 1.0, 1 - 1e-13, -0.2, 1.2):
            with pytest.raises(DomainError):
                inverse_normal_cdf(p)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_roundtrip_identity(self, z):
        cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
        assert inverse_normal_cdf(cdf) == pytest.approx(z, abs=1e-8)

    def test_realized_row_risk_within_1e13(self):
        """A row backed off by z = Phi^-1(1 - eps/M) realises the tail risk
        0.5 erfc(z / sqrt 2).  The float p = 1 - eps/M carries eps/M as 1 - p,
        exact by Sterbenz's lemma, and the tail must match it to 1e-13."""
        for eps in (0.01, 0.05, 0.2):
            for M in [*np.logspace(0, 9, 46), 750.0]:
                p = 1.0 - eps / M
                tail = 0.5 * math.erfc(inverse_normal_cdf(p) / math.sqrt(2.0))
                assert tail == pytest.approx(1.0 - p, rel=1e-13, abs=0.0), (eps, M)

    def test_quantiles_match_bisection_oracle(self):
        for p in (0.001, 0.1, 0.25, 0.6, 0.9, 0.99, 0.99999):
            assert inverse_normal_cdf(p) == pytest.approx(
                bisect_normal_quantile(p), abs=1e-10)

    def test_tail_quantiles_match_bisection_oracle(self):
        # bound fixed at 1e-9 in z before measuring; with the series alone
        # the oracle was off by up to 3.6e-8 on this grid
        for p in np.logspace(-9, math.log10(0.5), 200):
            assert abs(bisect_normal_quantile(p) - inverse_normal_cdf(p)) <= 1e-9, p


class TestCovariancePropagation:
    def test_identity_dynamics_accumulates_linearly(self):
        delta = 1e-6
        T, n = 3, 2
        from ccgame.model import LtvGameDynamics
        dyn = LtvGameDynamics(
            A=np.repeat(np.eye(n)[None], T, axis=0),
            B=np.zeros((T, 1, n, 1)),
            W=np.repeat((delta * np.eye(n))[None], T, axis=0),
            x0=np.zeros(n))
        cov = propagate_covariance(dyn)
        for t in range(T + 1):
            assert np.allclose(cov[t], t * delta * np.eye(n), atol=1e-18)

    def test_scalar_recursion_frozen_values(self):
        from ccgame.model import LtvGameDynamics
        T = 3
        dyn = LtvGameDynamics(
            A=np.full((T, 1, 1), 0.5), B=np.zeros((T, 1, 1, 1)),
            W=np.ones((T, 1, 1)), x0=np.zeros(1))
        cov = propagate_covariance(dyn)
        assert cov[:, 0, 0] == pytest.approx([0.0, 1.0, 1.25, 1.3125])

    def test_recursion_residual_invariant(self, mini_prep):
        dyn = mini_prep.problem.dyn
        cov = propagate_covariance(dyn)
        for t in range(dyn.T):
            res = cov[t + 1] - (dyn.A[t] @ cov[t] @ dyn.A[t].T + dyn.W[t])
            assert np.max(np.abs(res)) < 1e-12

    def test_decoupled_agents_have_zero_cross_covariance(self):
        s = scalar_two_agent_instance()
        problem = assemble_problem(validate_scenario(s))
        cov = propagate_covariance(problem.dyn)
        assert not cov.flags.writeable
        assert np.all(cov[:, 0, 1] == 0.0) and np.all(cov[:, 1, 0] == 0.0)
        for t in range(problem.T + 1):
            assert pair_difference_cov(cov[t], slice(0, 1), slice(1, 2)) == (
                pytest.approx(cov[t][0, 0] + cov[t][1, 1]))


class TestRiskAllocation:
    def test_single_row(self):
        assert allocate_risk(0.05, 1) == 0.05

    def test_uniform_case_study_split(self):
        per_row = allocate_risk(0.05, 5 * 50)
        assert per_row == pytest.approx(2e-4, rel=1e-12)
        assert per_row * (5 * 50) == pytest.approx(0.05, abs=1e-12)

    def test_allocation_too_small_guard(self):
        with pytest.raises(AllocationTooSmall):
            allocate_risk(0.05, 10**13 * 100)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=0.4),
           st.integers(min_value=1, max_value=500),
           st.integers(min_value=1, max_value=50))
    def test_sums_to_budget(self, eps, k, t):
        assert allocate_risk(eps, k * t) * (k * t) == pytest.approx(eps, abs=1e-12)


class TestCollisionRow:
    C2 = np.eye(2)

    def test_boundary_mean_has_zero_slack(self):
        dbar = np.array([0.8, 0.6])            # ||dbar|| = 1 = R
        a, c = linearize_collision(dbar, np.zeros((2, 2)), 1.0, self.C2,
                                   inverse_normal_cdf(1.0 - 0.01))
        g = -a @ dbar + c
        assert g == pytest.approx(0.0, abs=1e-12)

    def test_double_separation_slack(self):
        dbar = np.array([1.0, 0.0])
        a, c = linearize_collision(dbar, np.zeros((2, 2)), 1.0, self.C2,
                                   inverse_normal_cdf(1.0 - 0.01))
        g = -a @ (2 * dbar) + c
        assert g == pytest.approx(-2.0, abs=1e-12)   # -2 R^2

    def test_backoff_composition(self):
        radius, sigma = 0.7, 0.3
        dbar = np.array([radius])
        a, c = linearize_collision(dbar, np.array([[sigma**2]]), radius,
                                   np.array([[1.0]]), inverse_normal_cdf(1.0 - 2e-4))
        backoff = c - 2 * radius**2
        assert backoff == pytest.approx(Z_999800 * 2 * radius * sigma, rel=1e-9)

    @staticmethod
    def _game(d, specs, N=2, T=3):
        """N agents of d states each and zero nominal, with the constraints ``specs``."""
        n_x, eye = N * d, np.eye(d)
        return assemble_problem(validate_scenario(make_ltv_scenario(
            [d] * N, T, [eye] * N, [np.ones((d, 1))] * N, np.zeros(n_x),
            np.full(n_x, 1e-2), [np.eye(n_x)] * N, [np.eye(1)] * N, [np.zeros(n_x)] * N,
            specs)))

    def test_reference_direction_scaling_and_degeneracy(self):
        # a row's a = 2 C dbar, with dbar the separation projected onto ||dbar||_C = R
        con = CollisionSpec(pair=(0, 1), radius=2.0, C=self.C2, active_times=(1, 2, 3))
        problem = self._game(2, [con])
        cov = np.zeros((4, 4, 4))
        reference = np.zeros((4, 4))
        reference[1:, :2] = [3.0, 4.0]
        conset = assemble_constraints(problem, cov, reference)
        dbar = conset.l[:, 2:] / 2.0
        assert np.allclose(dbar, [1.2, 1.6], rtol=0, atol=1e-15)
        assert all(math.hypot(*row) == pytest.approx(2.0) for row in dbar)
        assert np.array_equal(conset.l[:, :2], -conset.l[:, 2:])
        assert np.array_equal(conset.c, np.full(3, 8.0))     # 2 R^2, no backoff at Sigma = 0
        reference[1, 0] = 1e-12
        reference[1, 1] = 0.0
        with pytest.raises(DegenerateReference) as err:
            assemble_constraints(problem, cov, reference)
        assert err.value.pair == (0, 1) and err.value.t == 1
        # the game names its first degenerate step, with its pair and separation
        reference[1:, :2] = [[1.0, 0.0], [0.0, 1e-12], [0.0, 0.0]]
        with pytest.raises(DegenerateReference) as err:
            assemble_constraints(problem, cov, reference)
        assert err.value.pair == (0, 1) and err.value.t == 2
        assert err.value.separation == 1e-12

    def test_a_separation_whose_norm_is_not_finite_is_unusable(self):
        # a squared separation that overflows (1e200) or a NaN reference gives no
        # direction: the fill names that entry's step as it names a coincident one,
        # without a warning, and fills the other entries as alone
        con = CollisionSpec(pair=(0, 1), radius=2.0, C=self.C2, active_times=(1, 2, 3))
        problem = self._game(2, [con])
        cov = np.zeros((4, 4, 4))
        refs = np.zeros((3, 4, 4))
        refs[:, 1:, :2] = [3.0, 4.0]
        refs[1, 2, 0] = 1e200
        refs[2, 3, 1] = np.nan
        *_, l, c, degenerate = uncertainty.constraint_layout(problem, cov, [0])(0, refs)
        assert [(s, e.pair, e.t) for s, e in sorted(degenerate.items())] == [
            (1, (0, 1), 2), (2, (0, 1), 3)]
        assert degenerate[1].separation == math.inf and math.isnan(degenerate[2].separation)
        assert "in the reference at t=2 (weighted separation inf)" in str(degenerate[1])
        want = assemble_constraints(problem, cov, refs[0])
        assert l[0].tobytes() == want.l.tobytes() and c[0].tobytes() == want.c.tobytes()

    def test_a_stack_names_each_entrys_first_constraint_then_first_step(self):
        # three agents 1 apart on a line, keep-outs on pairs (0,1) and (1,2): entry 1
        # has (0,1) coincident at t = 3, entry 2 at t = 2 and 3, and entry 3 has (1,2)
        # coincident at t = 1 and (0,1) at t = 3, so that it names (0,1) at t = 3
        cons = [CollisionSpec(pair=pair, radius=0.5, C=self.C2, active_times=(1, 2, 3))
                for pair in ((0, 1), (1, 2))]
        problem = self._game(2, cons, N=3)
        cov = propagate_covariance(problem.dyn)
        refs = np.zeros((4, 4, 6))
        refs[:, :, 2], refs[:, :, 4] = 1.0, 2.0
        refs[1, 3, 2] = 0.0
        refs[2, 2:, 2] = 0.0
        refs[3, 3, 2] = 0.0
        refs[3, 1, 4] = 1.0
        _, source, l, c, degenerate = uncertainty.constraint_layout(problem, cov, [0])(0, refs)
        assert sorted(degenerate) == [1, 2, 3]
        assert [(degenerate[s].pair, degenerate[s].t) for s in (1, 2, 3)] == [
            ((0, 1), 3), ((0, 1), 2), ((0, 1), 3)]
        assert degenerate[3].separation == 0.0
        # a degenerate entry's rows of that constraint are left unwritten, its others not
        unwritten = {1: [0], 2: [0], 3: [0, 1]}
        for s in range(4):
            if s in degenerate:
                with pytest.raises(DegenerateReference) as err:
                    assemble_constraints(problem, cov, refs[s])
                assert (err.value.pair, err.value.t) == (degenerate[s].pair, degenerate[s].t)
                for k in (0, 1):
                    rows_k = source == k
                    assert np.any(l[s, rows_k]) != (k in unwritten[s]), (s, k)
                    assert np.any(c[s, rows_k]) != (k in unwritten[s]), (s, k)
            else:
                want = assemble_constraints(problem, cov, refs[s])
                assert l[s].tobytes() == want.l.tobytes() and c[s].tobytes() == want.c.tobytes()

    def test_a_later_start_returns_its_slices_rows_and_names_the_problems_step(self):
        # from each start tau the fill returns the rows of the slice from tau, as
        # row_table numbers them there, and names an entry coincident at the slice's
        # last step at the problem's step T
        box = BoxSpec(x_min=np.full(4, np.nan), x_max=np.array([10.0, np.nan, np.nan, 5.0]),
                      active_times=(1, 3))
        con = CollisionSpec(pair=(0, 1), radius=0.5, C=self.C2, active_times=(2, 3))
        problem = self._game(2, [con, box])
        starts = [0, 1, 2]
        (cov, _), = uncertainty.horizon_pass(
            problem.T, starts, uncertainty.covariance_step(problem.dyn.A, problem.dyn.W))
        fill = uncertainty.constraint_layout(problem, cov, starts)
        for tau in starts:
            refs = np.zeros((2, problem.T + 1 - tau, 4))
            refs[:, :, :2] = 1.0
            refs[1, -1, :2] = 0.0
            steps, source, _, _, degenerate = fill(tau, refs)
            want = uncertainty.row_table(simulate.slice_problem(problem, tau, problem.dyn.x0))
            assert steps.tobytes() == want[0].tobytes(), tau
            assert source.tobytes() == want[1].tobytes(), tau
            assert list(degenerate) == [1], tau
            assert (degenerate[1].pair, degenerate[1].t) == ((0, 1), problem.T), tau
        assert steps.tolist() == [1, 1, 1] and source.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacks_match_the_per_row_oracle_bit_for_bit(self, d):
        rng = np.random.default_rng(40 + d)
        for shape in ((), (1,), (7,), (3, 5)):
            m = rng.normal(size=(d, d))
            C = m @ m.T + 0.1 * np.eye(d)
            w = rng.normal(size=shape + (d, d))
            sigma = w @ np.swapaxes(w, -1, -2)
            delta = rng.normal(size=shape + (d,))
            radius, z = float(rng.uniform(0.2, 2.0)), float(rng.uniform(1.0, 4.0))
            dbar = np.array([row_reference_direction(delta[k], C, radius)
                             for k in np.ndindex(*shape)]).reshape(delta.shape)
            a, c = linearize_collision(dbar, sigma, radius, C, z)
            assert a.shape == delta.shape and np.shape(c) == shape
            for k in np.ndindex(*shape):
                a_k, c_k = row_linearize_collision(dbar[k], sigma[k], radius, C, z)
                assert a[k].tobytes() == a_k.tobytes()
                assert np.float64(c[k]).tobytes() == np.float64(c_k).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_filled_stacks_match_the_per_row_oracle_bit_for_bit(self, d):
        # the fill of a stack of references (its projection, its rows) is the
        # single loop on the per-row helpers at each reference, byte for byte
        rng = np.random.default_rng(50 + d)
        m = rng.normal(size=(d, d))
        con = CollisionSpec(pair=(1, 0), radius=float(rng.uniform(0.2, 2.0)),
                            C=m @ m.T + 0.1 * np.eye(d), active_times=(1, 2, 4, 5))
        problem = self._game(d, [con], T=5)
        w = rng.normal(size=(6, 2 * d, 2 * d))
        cov = w @ np.swapaxes(w, -1, -2)
        refs = rng.normal(size=(7, 6, 2 * d))
        *_, l, c, degenerate = uncertainty.constraint_layout(problem, cov, [0])(0, refs)
        assert not degenerate and l.shape == (7, 4, 2 * d) and c.shape == (7, 4)
        for s in range(7):
            want = loop_assemble_constraints(problem, cov, refs[s])
            assert l[s].tobytes() == want.l.tobytes(), s
            assert c[s].tobytes() == want.c.tobytes(), s


def _box_row(coord, side, bound, sigma_qq, eps_row, n_x):
    """(l, c) of the one row of a one-sided box active at t = 1 of an
    n_x-state game with zero nominal, assembled at Sigma_1[q, q] = sigma_qq;
    the game's budget is eps_row, all of it this row's."""
    x_min = np.full(n_x, np.nan)
    x_max = np.full(n_x, np.nan)
    (x_max if side == "upper" else x_min)[coord] = bound
    s = make_ltv_scenario([n_x], 1, [np.eye(n_x)], [np.ones((n_x, 1))], np.zeros(n_x),
                          np.ones(n_x), [np.eye(n_x)], [np.eye(1)], [np.zeros(n_x)],
                          [BoxSpec(x_min=x_min, x_max=x_max, active_times=(1,))],
                          eps=eps_row)
    problem = assemble_problem(validate_scenario(s))
    Sigma = np.zeros((2, n_x, n_x))
    Sigma[1, coord, coord] = sigma_qq
    conset = assemble_constraints(problem, Sigma, np.zeros((2, n_x)))
    assert conset.M == 1 and conset.t.tolist() == [1] and conset.source.tolist() == [0]
    assert np.array_equal(conset.l[0], conset.lmat[:, 0])
    return conset.lmat[:, 0], conset.c[0]


class TestBoxRow:
    def test_zero_covariance_is_deterministic(self):
        l, c = _box_row(0, "upper", 2.0, 0.0, 0.01, 3)
        assert np.array_equal(l, [1.0, 0.0, 0.0])
        assert c == -2.0

    def test_backoff_value(self):
        _, c = _box_row(1, "upper", 0.0, 0.01, 2e-4, 2)
        assert c == pytest.approx(Z_999800 * 0.1, rel=1e-9)

    def test_lower_bound_sign(self):
        l, c = _box_row(0, "lower", -1.0, 0.0, 0.01, 1)
        assert l[0] == -1.0
        assert c == -1.0
        assert l[0] * (-2.0) + c > 0     # below the bound: violated
        assert l[0] * (-0.5) + c <= 0    # above the bound: satisfied

    def test_both_sides_emit_two_rows(self):
        from conftest import scalar_single_agent_instance
        s = scalar_single_agent_instance(T=2)
        con = BoxSpec(x_min=np.array([-1.0]), x_max=np.array([1.0]),
                      active_times=(2,))
        s = Scenario(**{**s.__dict__, "constraints": (con,)})
        prep = prepare_game(validate_scenario(s))
        assert prep.M == 2
        # lower before upper, both at step 2
        assert prep.conset.t.tolist() == [2, 2]
        assert prep.conset.l[:, 0].tolist() == [-1.0, 1.0]


class TestAssembly:
    def test_no_constraints_empty_set(self):
        s = scalar_two_agent_instance()
        s = Scenario(**{**s.__dict__, "constraints": ()})
        prep = prepare_game(validate_scenario(s))
        assert prep.M == 0

    def test_single_pair_two_times(self):
        s = scalar_two_agent_instance(T=3)
        con = CollisionSpec(pair=(0, 1), radius=0.3, C=np.array([[1.0]]),
                            active_times=(1, 2))
        s = Scenario(**{**s.__dict__, "constraints": (con,)})
        prep = prepare_game(validate_scenario(s))
        assert prep.M == 2
        n_x = prep.problem.n_x
        for m, t in enumerate(prep.conset.t.tolist()):
            col = prep.conset.lmat[:, m]
            outside = np.concatenate([col[:(t - 1) * n_x], col[t * n_x:]])
            assert np.array_equal(outside, np.zeros_like(outside))
            assert np.any(col[(t - 1) * n_x:t * n_x] != 0)

    def test_intersection_row_count(self, intersection_prep):
        # 3 collision pairs + 3 lane rows x 2 sides? lanes are two-sided,
        # speed bounds two-sided: per agent 4 box rows; 15 rows per time
        assert intersection_prep.M == (3 + 3 * 4) * 50

    def test_columns_supported_on_time_block(self, mini_prep):
        n_x = mini_prep.problem.n_x
        for m, t in enumerate(mini_prep.conset.t.tolist()):
            col = mini_prep.conset.lmat[:, m]
            block = col[(t - 1) * n_x: t * n_x]
            rest = np.delete(col, slice((t - 1) * n_x, t * n_x))
            assert np.any(block != 0.0)
            assert not np.any(rest != 0.0)

    def test_degenerate_reference_reports_pair_and_time(self):
        s = scalar_two_agent_instance()
        # identical starts and goals -> coincident reference means
        dyn = s.dynamics
        from ccgame.model import LtvGameDynamics
        dyn2 = LtvGameDynamics(A=dyn.A, B=dyn.B, W=dyn.W,
                               x0=np.array([0.2, 0.2]))
        goals = [np.array([0.1, 0.0]), np.array([0.0, 0.1])]
        costs = []
        from ccgame.model import CostSpec
        for i, c in enumerate(s.costs):
            costs.append(CostSpec(Q=c.Q, R=c.R,
                                  ref=np.repeat(goals[i][None], s.horizon, axis=0)))
        bad = Scenario(**{**s.__dict__, "dynamics": dyn2, "costs": tuple(costs)})
        with pytest.raises(DegenerateReference) as err:
            prepare_game(validate_scenario(bad))
        assert err.value.pair == (0, 1)
        assert 1 <= err.value.t <= s.horizon

    def test_degenerate_reference_names_its_one_step(self):
        # the two agents' reference means coincide at t_star only
        s = scalar_two_agent_instance(T=5)
        con = CollisionSpec(pair=(0, 1), radius=0.3, C=np.array([[1.0]]))
        problem = assemble_problem(validate_scenario(
            Scenario(**{**s.__dict__, "constraints": (con,)})))
        cov = propagate_covariance(problem.dyn)
        for t_star in range(1, problem.T + 1):
            reference = np.zeros((problem.T + 1, 2))
            reference[:, 1] = 1.0
            reference[t_star, 1] = 0.0
            with pytest.raises(DegenerateReference) as err:
                assemble_constraints(problem, cov, reference)
            assert err.value.pair == (0, 1) and err.value.t == t_star


@pytest.fixture(scope="module")
def mpc_subgame(mini_prep):
    """The game a central-MPC replan at t = 5 of intersection-mini prepares."""
    planner = simulate.CentralPlanner(mini_prep.problem)
    return planner_game(planner, 5, np.zeros(mini_prep.problem.n_x))


def _assert_same_bytes(got, want):
    """Two constraint sets agree byte for byte: the rows' t, source, l and c,
    and the dense lmat."""
    for name in ("t", "source", "l", "c", "lmat"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _rebuilt(prep):
    """l and c rebuilt row by row from each row's step, its source and its
    place among the rows of that (step, source), at z = Phi^-1(1 - eps / M);
    a collision row's reference direction comes from the prepared means."""
    problem, conset = prep.problem, prep.conset
    cov = propagate_covariance(problem.dyn)
    reference = game_reference(prep)
    z = inverse_normal_cdf(1.0 - problem.risk_epsilon / prep.M)
    l, c = np.zeros_like(conset.l), np.zeros_like(conset.c)
    for m, (t, k) in enumerate(zip(conset.t.tolist(), conset.source.tolist())):
        spec = problem.constraints[k]
        Sigma, nominal = cov[t], problem.nominal_states[t]
        if spec.kind == "box":
            j = m - np.flatnonzero((conset.t == t) & (conset.source == k))[0]
            q, side, bound = spec.rows()[j]
            sign = 1.0 if side == "upper" else -1.0
            l[m, q] = sign
            c[m] = (-sign * bound + z * math.sqrt(max(float(Sigma[q, q]), 0.0))
                    + sign * nominal[q])
        else:
            sl_i, sl_j = (problem.agent_slices[a] for a in spec.pair)
            ref = reference[t]
            dbar = row_reference_direction(ref[sl_i] - ref[sl_j], spec.C, spec.radius)
            a = 2.0 * (spec.C @ dbar)
            sigma_pair = pair_difference_cov(Sigma, sl_i, sl_j)
            l[m, sl_i] = -a
            l[m, sl_j] = a
            c[m] = (2.0 * spec.radius ** 2
                    + z * math.sqrt(max(float(a @ sigma_pair @ a), 0.0))
                    + float(l[m] @ nominal))
    return l, c


class TestOnePassAssembly:
    def test_one_quantile_and_one_expansion_per_box(self, monkeypatch, mini_prep,
                                                    mpc_subgame):
        calls = {"quantile": 0, "rows": 0}
        real_quantile, real_rows = uncertainty.inverse_normal_cdf, BoxSpec.rows

        def quantile(p):
            calls["quantile"] += 1
            return real_quantile(p)

        def rows(spec):
            calls["rows"] += 1
            return real_rows(spec)

        monkeypatch.setattr(uncertainty, "inverse_normal_cdf", quantile)
        monkeypatch.setattr(BoxSpec, "rows", rows)
        for prep in (mini_prep, mpc_subgame):
            assert prep.M >= 1
            cov = propagate_covariance(prep.problem.dyn)
            calls.update(quantile=0, rows=0)
            conset = assemble_constraints(prep.problem, cov, game_reference(prep))
            assert conset.M == prep.M
            assert calls["quantile"] == 1
            assert calls["rows"] == sum(spec.kind == "box"
                                        for spec in prep.problem.constraints)

    def test_one_helper_call_per_collision_constraint(self, monkeypatch,
                                                      intersection_prep):
        # 3 collision constraints over 50 steps: 3 calls of the helper, not 150
        calls = {"linearize_collision": 0}
        for name in calls:
            def counted(*args, _real=getattr(uncertainty, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(uncertainty, name, counted)
        prep = intersection_prep
        conset = assemble_constraints(prep.problem, propagate_covariance(prep.problem.dyn),
                                      game_reference(prep))
        assert calls == {"linearize_collision": 3}
        kinds = [prep.problem.constraints[k].kind for k in conset.source]
        assert kinds.count("collision") == 150
        _assert_same_bytes(conset, prep.conset)

    def test_rows_rebuild_from_their_metadata(self, mini_prep, mpc_subgame):
        coupled = prepare_game(validate_scenario(coupled_constrained_instance()))
        for prep in (mini_prep, coupled, mpc_subgame):
            keys = list(zip(prep.conset.t.tolist(), prep.conset.source.tolist()))
            assert keys == sorted(keys)
            l, c = _rebuilt(prep)
            assert l.tobytes() == prep.conset.l.tobytes()
            assert c.tobytes() == prep.conset.c.tobytes()


class TestSplitAssembly:
    """An assembly is a reference-independent layout filled at a reference;
    the single loop it splits (``oracles.loop_assemble_constraints``) is the
    reference, byte for byte."""

    def test_prepare_game_equals_the_single_loop(self, mini_prep, intersection_prep,
                                                 mpc_subgame):
        coupled = prepare_game(validate_scenario(coupled_constrained_instance()))
        for prep in (mini_prep, intersection_prep, coupled, mpc_subgame):
            assert prep.M >= 1
            _assert_same_bytes(prep.conset, loop_assemble_constraints(
                prep.problem, propagate_covariance(prep.problem.dyn), game_reference(prep)))

    def test_replan_from_the_shared_layout_equals_a_fresh_assembly(self, mini_prep):
        # the second replan at tau fills the layout the first one built; the
        # fresh path slices, propagates, solves the slice's lam = 0 policy
        # for the reference and assembles.  The planner's lam = 0 mean is a
        # contraction of x0 (the tau's transition products), the fresh one
        # an integration: they agree to 1e-13 of max(1, |reference|), and
        # the rows at the planner's own reference byte for byte
        planner = simulate.CentralPlanner(mini_prep.problem)
        x0 = mini_prep.problem.dyn.x0
        rng = np.random.default_rng(2)
        for tau in (0, 7, 19):
            planner_game(planner, tau, x0)
            x = x0 + 0.05 * rng.normal(size=x0.shape)
            prep = planner_game(planner, tau, x)
            sub = simulate.slice_problem(planner.agg, tau, x)
            policy0 = lqnash.backward_recursion(sub)
            reference = sub.nominal_states + lqnash.integrate_expected(sub.dyn, policy0)
            assert np.max(np.abs(game_reference(prep) - reference)) <= 1e-13 * max(
                1.0, np.max(np.abs(reference)))
            assert np.array_equal(prep.problem.dyn.x0, x)
            fresh = assemble_constraints(sub, propagate_covariance(sub.dyn),
                                         game_reference(prep))
            _assert_same_bytes(prep.conset, fresh)


class TestOnePassValidation:
    """Validation and linearization work on stacked arrays: one eigvalsh per
    matrix stack (three Q, three R, one W and three C on ``intersection``),
    and one Jacobian evaluation per agent for all steps."""

    @staticmethod
    def _counting(monkeypatch, owner, name):
        calls, real = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_one_eigvalsh_per_matrix_stack(self, monkeypatch):
        scenario = load_scenario(scenarios.bundled_path("intersection"))
        calls = self._counting(monkeypatch, np.linalg, "eigvalsh")
        validate_scenario(scenario)
        assert len(calls) == 10

    def test_one_jacobian_call_per_agent(self, monkeypatch):
        vs = validate_scenario(load_scenario(scenarios.bundled_path("intersection")))
        calls = self._counting(monkeypatch, linearize, "unicycle_jacobians")
        problem = assemble_problem(vs)
        assert problem.T * problem.N == 150
        assert len(calls) == 3


class TestConservativeness:
    def test_probe_two_configs(self):
        rng = np.random.default_rng(11)
        for _ in range(2):
            dim = 2
            m = rng.normal(size=(dim, dim))
            sigma = 0.05 * (m @ m.T + 0.2 * np.eye(dim))
            rate, required = conservativeness_probe(
                direction=rng.normal(size=dim), sigma_pair=sigma,
                radius=float(rng.uniform(0.3, 2.0)), C=np.eye(dim),
                eps_row=float(rng.uniform(1e-3, 0.1)),
                samples=200_000, seed=int(rng.integers(1 << 30)))
            assert rate >= required


def _skipping_rows_instance():
    """Rows at non-contiguous steps: a collision at t = 2 and 5, a box at 3 and 6."""
    s = scalar_two_agent_instance(T=6)
    box = BoxSpec(x_min=np.array([-2.0, np.nan]), x_max=np.array([np.nan, 2.0]),
                  active_times=(3, 6))
    return replace(s, constraints=(replace(s.constraints[0], active_times=(2, 5)), box))


def _within_4ulp(got, want, largest_term):
    """|got - want| <= 4 ulp of the largest term of each element's row."""
    bound = 4.0 * np.spacing(largest_term)
    return bool(np.all(np.abs(got - want) <= bound))


class TestCompactOperations:
    """The set's operations against dense products on ``conset.lmat``, each
    within 4 ulp of the row's largest term, on games with rows at every
    step, at skipped steps, only at T, and none."""

    @pytest.fixture(scope="class")
    def preps(self, mini_prep, intersection_prep):
        scenarios_ = [random_small_scenario(np.random.default_rng(k)) for k in range(10)]
        scenarios_ += [coupled_constrained_instance(), _skipping_rows_instance(),
                       scalar_single_agent_instance(T=4),
                       replace(scalar_two_agent_instance(), constraints=())]
        return [mini_prep, intersection_prep] + [prepare_game(validate_scenario(s))
                                                 for s in scenarios_]

    def test_the_games_cover_every_row_layout(self, preps):
        Ms = [prep.M for prep in preps]
        assert 0 in Ms and min(Ms[:-1]) >= 1
        skipping = preps[-3].conset
        assert skipping.t.tolist() == [2, 3, 3, 5, 6, 6]
        assert [skipping.span(t) for t in (1, 4, 6)] == [slice(0, 0), slice(3, 3), slice(4, 6)]
        assert preps[-2].conset.t.tolist() == [4]

    def test_lmat_equals_the_single_loop_byte_for_byte(self, preps):
        for prep in preps:
            want = loop_assemble_constraints(prep.problem, propagate_covariance(prep.problem.dyn),
                                             game_reference(prep))
            assert prep.conset.lmat.tobytes() == want.lmat.tobytes()
            assert prep.conset.lmat.shape == (prep.problem.T * prep.problem.n_x, prep.M)

    def test_evaluate_is_the_dense_product(self, preps):
        rng = np.random.default_rng(12)
        for prep in preps:
            conset, T = prep.conset, prep.problem.T
            for traj in (lqnash.integrate_expected(prep.problem.dyn,
                                                   lqnash.backward_recursion(prep.problem)),
                         rng.normal(size=(T + 1, prep.problem.n_x))):
                want = conset.lmat.T @ traj[1:].reshape(-1) + conset.c
                terms = np.abs(conset.l * traj[conset.t])
                largest = np.maximum(terms.max(axis=1, initial=0.0), np.abs(conset.c))
                assert _within_4ulp(conset.evaluate(traj), want, largest)

    def test_map_is_the_dense_product(self, preps):
        for prep in preps:
            problem, conset = prep.problem, prep.conset
            n_x = problem.n_x
            gains = lqnash.stage_gains(problem)
            G, _ = column_pass(problem, conset, gains)
            G_d, ctilde_d, policy0_d, xstack = dense_affine_response(problem, conset, gains)
            policy0 = lqnash.backward_recursion(problem, gains=gains)
            ctilde = conset.evaluate(lqnash.integrate_expected(problem.dyn, policy0))
            assert np.array_equal(policy0.alpha, policy0_d.alpha)
            largest = np.zeros(prep.M)
            for m, t in enumerate(conset.t.tolist()):
                X = xstack[(t - 1) * n_x: t * n_x]
                largest[m] = np.max(np.abs(conset.l[m][:, None] * X))
            assert _within_4ulp(G, G_d, largest[:, None])
            assert _within_4ulp(ctilde, ctilde_d, np.maximum(largest, np.abs(conset.c)))
