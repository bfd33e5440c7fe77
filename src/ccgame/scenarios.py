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
                    UnicycleDynamicsSpec, embed_agent, save_scenario)

BUNDLED = ("intersection", "intersection-mini")

_NOISE_DIAG = (2e-5, 2e-5, 1e-5, 5e-5)


def _agent_cost(T, state_dims, agent, goal, q_terminal, r_input):
    n_x = sum(state_dims)
    Q = np.zeros((T, n_x, n_x))
    Q[T - 1] = embed_agent(np.diag(q_terminal), state_dims, agent)
    R = np.repeat(np.diag(r_input)[None, :, :], T, axis=0)
    ref = np.repeat(embed_agent(goal, state_dims, agent)[None, :], T, axis=0)
    return CostSpec(Q=Q, R=R, ref=ref)


def _box(state_dims, agent, coord, lo, hi):
    """lo <= x[coord] <= hi on one agent's substate [p_x, p_y, theta, v]."""
    def side(bound):
        sub = np.full(4, np.nan)
        sub[coord] = bound
        return embed_agent(sub, state_dims, agent, fill=np.nan)
    return BoxSpec(x_min=side(lo), x_max=side(hi))


def make_intersection(seed=20240501) -> Scenario:
    """Three vehicles crossing a 20 m intersection over a 10 s horizon."""
    N, T, dt = 3, 50, 0.2
    state_dims = (4, 4, 4)
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
    W = np.diag(np.tile(_NOISE_DIAG, N))
    dynamics = UnicycleDynamicsSpec(initial_states=inits, nominal_inputs=None, W=W)
    costs = tuple(
        _agent_cost(T, state_dims, i, goals[i],
                    q_terminal=(30.0, 30.0, 0.0, 2.0), r_input=(1.0, 4.0))
        for i in range(N))
    constraints = (
        CollisionSpec(pair=(0, 1), radius=1.0,
                      C=np.diag([1.0, 1.0, 0.0, 0.0])),
        CollisionSpec(pair=(0, 2), radius=1.0,
                      C=np.diag([1.0, 1.0, 0.0, 0.0])),
        CollisionSpec(pair=(1, 2), radius=1.0,
                      C=np.diag([1.0, 1.0, 0.0, 0.0])),
        _box(state_dims, 0, 0, -1.2, 1.2),
        _box(state_dims, 1, 1, -2.6, 0.2),
        _box(state_dims, 2, 1, -0.2, 2.6),
        _box(state_dims, 0, 3, 0.0, 3.5),
        _box(state_dims, 1, 3, 0.0, 3.5),
        _box(state_dims, 2, 3, 0.0, 3.5),
    )
    return Scenario(num_agents=N, horizon=T, dt=dt, dynamics=dynamics,
                    costs=costs, constraints=constraints,
                    risk_epsilon=0.05, rng_seed=seed, state_dims=state_dims)


def make_intersection_mini(seed=20240502) -> Scenario:
    """Two vehicles crossing over a 4 s horizon; small enough for fast CI."""
    N, T, dt = 2, 20, 0.2
    state_dims = (4, 4)
    inits = np.array([
        [0.0, 3.0, -math.pi / 2, 1.5],
        [-3.0, -0.6, 0.0, 1.5],
    ])
    goals = np.array([
        [0.0, -3.0, -math.pi / 2, 1.5],
        [3.0, -0.6, 0.0, 1.5],
    ])
    W = np.diag(np.tile(_NOISE_DIAG, N))
    dynamics = UnicycleDynamicsSpec(initial_states=inits, nominal_inputs=None, W=W)
    costs = tuple(
        _agent_cost(T, state_dims, i, goals[i],
                    q_terminal=(30.0, 30.0, 0.0, 2.0), r_input=(1.0, 4.0))
        for i in range(N))
    constraints = (
        CollisionSpec(pair=(0, 1), radius=0.5,
                      C=np.diag([1.0, 1.0, 0.0, 0.0])),
        _box(state_dims, 0, 3, 0.0, 3.0),
        _box(state_dims, 1, 3, 0.0, 3.0),
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
