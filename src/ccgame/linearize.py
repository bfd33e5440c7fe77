"""Unicycle kinematics: nominal rollout and linearization to LTV game dynamics.

The unicycle state is [p_x, p_y, theta, v] with inputs [a, omega]; forward
Euler at step dt discretizes both the nominal rollout and the Jacobians.  The
linearized game operates on deviations from the nominal trajectory, with the
initial deviation zero (the initial state is known).

Shapes: ``initial_states`` (N, 4), ``nominal_inputs`` (N, T, 2), nominal
states (T+1, N, 4), which reshape to the stacked (T+1, 4N) state.
"""

from __future__ import annotations

import numpy as np

from .model import LtvGameDynamics, agent_slices


def unicycle_step(state, u, dt):
    """One Euler step; ``state`` (4, ...) and ``u`` (2, ...) give (4, ...)."""
    px, py, th, v = state
    a, w = u
    return np.array([
        px + dt * v * np.cos(th),
        py + dt * v * np.sin(th),
        th + dt * w,
        v + dt * a,
    ])


def nominal_rollout(initial_states, nominal_inputs, dt):
    """Forward-Euler integration of every agent's nominal inputs.

    ``initial_states`` (N, 4) and ``nominal_inputs`` (N, T, 2) give the
    nominal states (T+1, N, 4).
    """
    T = nominal_inputs.shape[1]
    states = np.zeros((T + 1,) + initial_states.shape)
    states[0] = initial_states
    for t in range(T):
        states[t + 1] = unicycle_step(states[t].T, nominal_inputs[:, t].T, dt).T
    return states


def unicycle_jacobians(state, dt):
    """Discrete Jacobians (I + dt*df/dx, dt*df/du) at nominal states (..., 4),
    shaped (..., 4, 4) and (..., 4, 2)."""
    th, v = state[..., 2], state[..., 3]
    A = np.tile(np.eye(4), state.shape[:-1] + (1, 1))
    A[..., 0, 2] = -dt * v * np.sin(th)
    A[..., 0, 3] = dt * np.cos(th)
    A[..., 1, 2] = dt * v * np.cos(th)
    A[..., 1, 3] = dt * np.sin(th)
    B = np.zeros(state.shape[:-1] + (4, 2))
    B[..., 2, 1] = dt
    B[..., 3, 0] = dt
    return A, B


def linearize_unicycle(nominal_states, dt, W) -> LtvGameDynamics:
    """Stack per-agent Jacobians block-diagonally into shared-state dynamics.

    ``nominal_states`` (T+1, N, 4) from :func:`nominal_rollout`; W is the
    (n_x, n_x) per-step noise covariance, taken as given in the discrete-time
    deviation coordinates and replicated over the horizon.
    """
    T, N = nominal_states.shape[0] - 1, nominal_states.shape[1]
    n_x = 4 * N
    A = np.zeros((T, n_x, n_x))
    B = np.zeros((T, N, n_x, 2))
    for i, sl in enumerate(agent_slices((4,) * N)):
        A[:, sl, sl], B[:, i, sl, :] = unicycle_jacobians(nominal_states[:T, i], dt)
    W = np.repeat(np.asarray(W, dtype=float)[None, :, :], T, axis=0)
    return LtvGameDynamics(A=A, B=B, W=W, x0=np.zeros(n_x))
