"""Bundled example scenarios and their builders.

``intersection`` is the three-vehicle cross-intersection case (T=50, dt=0.2,
eps=0.05); ``intersection-mini`` is a two-vehicle variant (T=20) small enough
for fast CI.  The JSON files under ``data/`` are generated by
``python -m ccgame.scenarios`` from the builders here, so the repository's
numbers are pinned by content-hashed files while remaining reproducible.
"""

from __future__ import annotations

import math
import sys
from importlib import resources

import numpy as np

from .model import (BoxSpec, CollisionSpec, CostSpec, Scenario,
                    UnicycleDynamicsSpec, save_scenario)

BUNDLED = ("intersection", "intersection-mini")

_NOISE_DIAG = (2e-5, 2e-5, 1e-5, 5e-5)


def _agent_cost(T, n_x, state_dims, agent, goal, q_terminal, r_input):
    off = int(sum(state_dims[:agent]))
    Q = np.zeros((T, n_x, n_x))
    qt = np.zeros((n_x, n_x))
    qt[off:off + 4, off:off + 4] = np.diag(q_terminal)
    Q[T - 1] = qt
    R = np.repeat(np.diag(r_input)[None, :, :], T, axis=0)
    ref = np.zeros((T, n_x))
    ref[:, off:off + 4] = np.asarray(goal)
    return CostSpec(Q=Q, R=R, ref=ref)


def _speed_box(n_x, state_dims, agent, v_min, v_max):
    off = int(sum(state_dims[:agent]))
    x_min = np.full(n_x, np.nan)
    x_max = np.full(n_x, np.nan)
    x_min[off + 3] = v_min
    x_max[off + 3] = v_max
    return BoxSpec(x_min=x_min, x_max=x_max)


def _lane_box(n_x, state_dims, agent, coord, lo, hi):
    off = int(sum(state_dims[:agent]))
    x_min = np.full(n_x, np.nan)
    x_max = np.full(n_x, np.nan)
    x_min[off + coord] = lo
    x_max[off + coord] = hi
    return BoxSpec(x_min=x_min, x_max=x_max)


def make_intersection(seed=20240501) -> Scenario:
    """Three vehicles crossing a 20 m intersection over a 10 s horizon."""
    N, T, dt = 3, 50, 0.2
    state_dims = (4, 4, 4)
    n_x = 12
    inits = np.array([
        [0.0, 10.0, -math.pi / 2, 2.0],    # from the top, heading down
        [-10.0, -1.2, 0.0, 2.0],           # from the left, heading right
        [10.0, 1.2, math.pi, 2.0],         # from the right, heading left
    ])
    goals = np.array([
        [0.0, -10.0, -math.pi / 2, 2.0],
        [10.0, -1.2, 0.0, 2.0],
        [-10.0, 1.2, math.pi, 2.0],
    ])
    W = np.zeros((n_x, n_x))
    for i in range(N):
        W[4 * i:4 * i + 4, 4 * i:4 * i + 4] = np.diag(_NOISE_DIAG)
    dynamics = UnicycleDynamicsSpec(initial_states=inits, nominal_inputs=None, W=W)
    costs = tuple(
        _agent_cost(T, n_x, state_dims, i, goals[i],
                    q_terminal=(30.0, 30.0, 0.0, 2.0), r_input=(1.0, 4.0))
        for i in range(N))
    constraints = (
        CollisionSpec(pair=(0, 1), radius=1.0,
                      C=np.diag([1.0, 1.0, 0.0, 0.0])),
        CollisionSpec(pair=(0, 2), radius=1.0,
                      C=np.diag([1.0, 1.0, 0.0, 0.0])),
        CollisionSpec(pair=(1, 2), radius=1.0,
                      C=np.diag([1.0, 1.0, 0.0, 0.0])),
        _lane_box(n_x, state_dims, 0, 0, -1.2, 1.2),
        _lane_box(n_x, state_dims, 1, 1, -2.6, 0.2),
        _lane_box(n_x, state_dims, 2, 1, -0.2, 2.6),
        _speed_box(n_x, state_dims, 0, 0.0, 3.5),
        _speed_box(n_x, state_dims, 1, 0.0, 3.5),
        _speed_box(n_x, state_dims, 2, 0.0, 3.5),
    )
    return Scenario(num_agents=N, horizon=T, dt=dt, dynamics=dynamics,
                    costs=costs, constraints=constraints,
                    risk_epsilon=0.05, rng_seed=seed, state_dims=state_dims)


def make_intersection_mini(seed=20240502) -> Scenario:
    """Two vehicles crossing over a 4 s horizon; small enough for fast CI."""
    N, T, dt = 2, 20, 0.2
    state_dims = (4, 4)
    n_x = 8
    inits = np.array([
        [0.0, 3.0, -math.pi / 2, 1.5],
        [-3.0, -0.6, 0.0, 1.5],
    ])
    goals = np.array([
        [0.0, -3.0, -math.pi / 2, 1.5],
        [3.0, -0.6, 0.0, 1.5],
    ])
    W = np.zeros((n_x, n_x))
    for i in range(N):
        W[4 * i:4 * i + 4, 4 * i:4 * i + 4] = np.diag(_NOISE_DIAG)
    dynamics = UnicycleDynamicsSpec(initial_states=inits, nominal_inputs=None, W=W)
    costs = tuple(
        _agent_cost(T, n_x, state_dims, i, goals[i],
                    q_terminal=(30.0, 30.0, 0.0, 2.0), r_input=(1.0, 4.0))
        for i in range(N))
    constraints = (
        CollisionSpec(pair=(0, 1), radius=0.5,
                      C=np.diag([1.0, 1.0, 0.0, 0.0])),
        _speed_box(n_x, state_dims, 0, 0.0, 3.0),
        _speed_box(n_x, state_dims, 1, 0.0, 3.0),
    )
    return Scenario(num_agents=N, horizon=T, dt=dt, dynamics=dynamics,
                    costs=costs, constraints=constraints,
                    risk_epsilon=0.05, rng_seed=seed, state_dims=state_dims)


_BUILDERS = {
    "intersection": make_intersection,
    "intersection-mini": make_intersection_mini,
}


def bundled_path(name):
    """Filesystem path of a bundled scenario JSON."""
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled scenario {name!r}; have {BUNDLED}")
    return resources.files("ccgame").joinpath(f"data/{name}.json")


def regenerate(outdir):
    import os

    os.makedirs(outdir, exist_ok=True)
    for name, builder in _BUILDERS.items():
        path = os.path.join(outdir, f"{name}.json")
        save_scenario(builder(), path)
        print(f"wrote {path}")


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else str(
        resources.files("ccgame").joinpath("data"))
    regenerate(target)
