"""Bundled example scenarios and their builders.

``intersection`` is the three-vehicle cross-intersection case (T=50, dt=0.2,
eps=0.05); ``intersection-mini`` is a two-vehicle variant (T=20) small enough
for fast CI.  Each is a shorthand document like the README's example, which
``model.scenario_from_dict`` expands as it does any file.  The JSON files under
``data/`` are those documents as ``python -m ccgame.scenarios`` writes them,
so the repository's numbers are pinned by content-hashed files while
remaining reproducible; ``save_scenario`` writes the lossless full form.
"""

import itertools
import math
import os
import sys
from importlib import resources

from .model import scenario_from_dict, write_json

BUNDLED = ("intersection", "intersection-mini")

def _box(agent, coord, lo, hi):
    """lo <= x[coord] <= hi on one agent's substate [p_x, p_y, theta, v]."""
    x_min, x_max = ([bound if q == coord else None for q in range(4)] for bound in (lo, hi))
    return {"type": "box", "agent": agent, "x_min": x_min, "x_max": x_max}


def _crossing(inits, goals, T, radius, lanes, v_max, seed) -> dict:
    """The document of unicycles driving from ``inits`` to ``goals`` (rows
    [p_x, p_y, theta, v]) over T steps of 0.2 s: every pair keeps ``radius``
    apart, ``lanes`` (agent, coord, lo, hi) bound single coordinates, and
    0 <= v <= v_max."""
    N = len(inits)
    return {
        "agents": N, "horizon": T, "dt": 0.2, "risk_epsilon": 0.05, "seed": seed,
        "dynamics": {"type": "unicycle", "initial_states": inits,
                     "noise": {"per_agent_diag": [2e-5, 2e-5, 1e-5, 5e-5]}},
        "costs": [{"Q_terminal": [30.0, 30.0, 0.0, 2.0], "R": [1.0, 4.0], "goal": goal}
                  for goal in goals],
        "constraints": (
            [{"type": "collision", "pair": list(pair), "radius": radius}
             for pair in itertools.combinations(range(N), 2)]
            + [_box(*lane) for lane in lanes]
            + [_box(i, 3, 0.0, v_max) for i in range(N)]),
    }


def _intersection() -> dict:
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
        v_max=3.5, seed=20240501)


def _intersection_mini() -> dict:
    """Two vehicles crossing over a 4 s horizon; small enough for fast CI."""
    return _crossing(
        inits=[[0.0, 3.0, -math.pi / 2, 1.5],
               [-3.0, -0.6, 0.0, 1.5]],
        goals=[[0.0, -3.0, -math.pi / 2, 1.5],
               [3.0, -0.6, 0.0, 1.5]],
        T=20, radius=0.5, lanes=[], v_max=3.0, seed=20240502)


def make_intersection():
    """The parsed ``intersection`` scenario."""
    return scenario_from_dict(_intersection())


def make_intersection_mini():
    """The parsed ``intersection-mini`` scenario."""
    return scenario_from_dict(_intersection_mini())


def bundled_path(name):
    """Filesystem path of a bundled scenario JSON."""
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled scenario {name!r}; have {BUNDLED}")
    return resources.files("ccgame").joinpath(f"data/{name}.json")


def regenerate(outdir):
    os.makedirs(outdir, exist_ok=True)
    for name, document in zip(BUNDLED, (_intersection, _intersection_mini)):
        path = write_json(os.path.join(outdir, f"{name}.json"), document(), indent=1)
        print(f"wrote {path}")


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else str(
        resources.files("ccgame").joinpath("data"))
    regenerate(target)
