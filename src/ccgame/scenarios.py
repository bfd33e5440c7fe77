"""Bundled example scenarios and their builders.

``intersection`` is the three-vehicle cross-intersection case (T=50, dt=0.2,
eps=0.05); ``intersection-mini`` is a two-vehicle variant (T=20) small enough
for fast CI.  The JSON files under ``data/`` are generated by
``python -m ccgame.scenarios`` from the builders here, so the repository's
numbers are pinned by content-hashed files while remaining reproducible.
"""

from __future__ import annotations

import itertools
import math
import sys
from importlib import resources

import numpy as np

from .model import (BoxSpec, CollisionSpec, CostSpec, Scenario,
                    UnicycleDynamicsSpec, embed_agent, save_scenario)

BUNDLED = ("intersection", "intersection-mini")

_NOISE_DIAG = (2e-5, 2e-5, 1e-5, 5e-5)


def _box(state_dims, agent, coord, lo, hi):
    """lo <= x[coord] <= hi on one agent's substate [p_x, p_y, theta, v]."""
    def side(bound):
        sub = np.full(4, np.nan)
        sub[coord] = bound
        return embed_agent(sub, state_dims, agent, fill=np.nan)
    return BoxSpec(x_min=side(lo), x_max=side(hi))


def _crossing(inits, goals, T, radius, lanes, v_max, seed) -> Scenario:
    """Unicycles driving from ``inits`` to ``goals`` (rows [p_x, p_y, theta, v])
    over T steps of 0.2 s: every pair keeps ``radius`` apart, ``lanes``
    (agent, coord, lo, hi) bound single coordinates, and 0 <= v <= v_max."""
    N = len(inits)
    state_dims = (4,) * N
    W = np.diag(np.tile(_NOISE_DIAG, N))
    dynamics = UnicycleDynamicsSpec(initial_states=np.array(inits), nominal_inputs=None, W=W)
    costs = []
    for i in range(N):
        Q = np.zeros((T, 4 * N, 4 * N))
        Q[T - 1] = embed_agent(np.diag([30.0, 30.0, 0.0, 2.0]), state_dims, i)
        R = np.repeat(np.diag([1.0, 4.0])[None, :, :], T, axis=0)
        ref = np.repeat(embed_agent(np.array(goals[i]), state_dims, i)[None, :], T, axis=0)
        costs.append(CostSpec(Q=Q, R=R, ref=ref))
    constraints = (
        tuple(CollisionSpec(pair=pair, radius=radius, C=np.diag([1.0, 1.0, 0.0, 0.0]))
              for pair in itertools.combinations(range(N), 2))
        + tuple(_box(state_dims, *lane) for lane in lanes)
        + tuple(_box(state_dims, i, 3, 0.0, v_max) for i in range(N)))
    return Scenario(num_agents=N, horizon=T, dt=0.2, dynamics=dynamics,
                    costs=tuple(costs), constraints=constraints,
                    risk_epsilon=0.05, rng_seed=seed, state_dims=state_dims)


def make_intersection(seed=20240501) -> Scenario:
    """Three vehicles crossing a 20 m intersection over a 10 s horizon."""
    return _crossing(
        inits=[[0.0, 10.0, -math.pi / 2, 2.0],     # from the top, heading down
               [-10.0, -1.2, 0.0, 2.0],            # from the left, heading right
               [10.0, 1.2, math.pi, 2.0]],         # from the right, heading left
        goals=[[0.0, -10.0, -math.pi / 2, 2.0],
               [10.0, -1.2, 0.0, 2.0],
               [-10.0, 1.2, math.pi, 2.0]],
        T=50, radius=1.0,
        lanes=[(0, 0, -1.2, 1.2), (1, 1, -2.6, 0.2), (2, 1, -0.2, 2.6)],
        v_max=3.5, seed=seed)


def make_intersection_mini(seed=20240502) -> Scenario:
    """Two vehicles crossing over a 4 s horizon; small enough for fast CI."""
    return _crossing(
        inits=[[0.0, 3.0, -math.pi / 2, 1.5],
               [-3.0, -0.6, 0.0, 1.5]],
        goals=[[0.0, -3.0, -math.pi / 2, 1.5],
               [3.0, -0.6, 0.0, 1.5]],
        T=20, radius=0.5, lanes=[], v_max=3.0, seed=seed)


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
