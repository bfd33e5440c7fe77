import math

import numpy as np
import pytest

from ccgame.linearize import (linearize_unicycle, nominal_rollout,
                              unicycle_jacobians, unicycle_step)
from ccgame.model import assemble_problem, validate_scenario
from oracles import numeric_jacobians


def one_agent_rollout(initial, inputs, dt=0.2):
    """Nominal states (T+1, 4) of a single unicycle."""
    return nominal_rollout(np.asarray(initial, float)[None, :],
                           np.asarray(inputs, float)[None, :, :], dt)[:, 0]


def test_zero_inputs_zero_speed_is_fixed_point():
    states = one_agent_rollout([1.0, -2.0, 0.7, 0.0], np.zeros((5, 2)))
    assert np.allclose(states, states[0])


def test_hand_euler_recursion():
    states = one_agent_rollout([0.0, 0.0, 0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], dt=0.2)
    assert np.allclose(states[:, 3], [0.0, 0.2, 0.4])
    assert np.allclose(states[:, 0], [0.0, 0.0, 0.04])
    assert np.allclose(states[:, 1], 0.0)


def test_heading_sweeps_half_turn():
    T, dt = 25, 0.2
    omega = math.pi / (T * dt)
    inputs = np.tile([0.0, omega], (T, 1))
    thetas = one_agent_rollout([0.0, 0.0, 0.0, 1.0], inputs, dt=dt)[:, 2]
    expected = np.arange(T + 1) * dt * omega
    assert np.allclose(thetas, expected, atol=1e-12)
    assert thetas[-1] == pytest.approx(math.pi, abs=1e-12)


def test_jacobians_match_finite_differences():
    cases = [
        ([0.0, 0.0, 0.0, 0.0], [0.3, -0.2]),
        ([1.0, -2.0, math.pi / 2, 1.7], [0.0, 0.5]),
        ([0.4, 0.1, -2.2, 0.9], [-1.0, 0.2]),
    ]
    for state, u in cases:
        A, B = unicycle_jacobians(np.asarray(state), 0.2)
        A_fd, B_fd = numeric_jacobians(unicycle_step, np.asarray(state),
                                       np.asarray(u), 0.2)
        assert np.allclose(A, A_fd, atol=1e-8)
        assert np.allclose(B, B_fd, atol=1e-8)


def test_jacobian_structure_at_rest():
    A, _ = unicycle_jacobians(np.array([0.0, 0.0, 0.0, 0.0]), 0.2)
    expected = np.array([
        [1.0, 0.0, 0.0, 0.2],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.array_equal(A, expected)


def test_jacobian_structure_heading_north():
    A, _ = unicycle_jacobians(np.array([0.0, 0.0, math.pi / 2, 2.0]), 0.2)
    assert A[1, 3] == pytest.approx(0.2)       # p_y couples to v
    assert A[0, 3] == pytest.approx(0.0, abs=1e-16)
    assert A[0, 2] == pytest.approx(-0.4)      # -dt * v * sin(theta)


def test_two_agent_stacking_block_structure():
    init = np.array([[0.0, 0.0, 0.0, 1.0], [5.0, 5.0, 1.0, 2.0]])
    inputs = np.zeros((2, 4, 2))
    nominal = nominal_rollout(init, inputs, 0.2)
    dyn = linearize_unicycle(nominal, 0.2, W=np.eye(8) * 1e-4)
    for t in range(4):
        assert np.array_equal(dyn.A[t][:4, 4:], np.zeros((4, 4)))
        assert np.array_equal(dyn.A[t][4:, :4], np.zeros((4, 4)))
        assert np.array_equal(dyn.B[t, 0][4:], np.zeros((4, 2)))
        assert np.array_equal(dyn.B[t, 1][:4], np.zeros((4, 2)))


def test_one_step_prediction_error_is_second_order():
    state = np.array([0.3, -0.1, 0.6, 1.2])
    u = np.array([0.4, -0.3])
    dt = 0.2
    A, B = unicycle_jacobians(state, dt)
    base = unicycle_step(state, u, dt)
    rng = np.random.default_rng(0)
    direction = rng.normal(size=4)
    direction /= np.linalg.norm(direction)

    def pred_error(eps):
        dx = eps * direction
        true_next = unicycle_step(state + dx, u, dt)
        lin_next = base + A @ dx
        return np.linalg.norm(true_next - lin_next)

    e1, e2 = pred_error(1e-2), pred_error(5e-3)
    assert e1 / e2 >= 3.5


def test_default_nominal_is_deterministic(mini_scenario):
    vs = validate_scenario(mini_scenario)
    p1 = assemble_problem(vs)
    p2 = assemble_problem(vs)
    assert np.array_equal(p1.nominal_states, p2.nominal_states)
    assert np.array_equal(p1.dyn.A, p2.dyn.A)


def test_default_nominal_reaches_goal(mini_scenario):
    vs = validate_scenario(mini_scenario)
    problem = assemble_problem(vs)
    T = problem.T
    for i in range(problem.N):
        goal = mini_scenario.costs[i].ref[T - 1][4 * i:4 * i + 2]
        end = problem.nominal_states[T][4 * i:4 * i + 2]
        assert np.linalg.norm(end - goal) < 0.35
