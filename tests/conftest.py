import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ccgame import scenarios
from ccgame.dualascent import DualAscentOptions, prepare_game, run_dual_ascent
from ccgame.model import (BoxSpec, CollisionSpec, CostSpec, LtvGameDynamics,
                          Scenario, scenario_to_dict, validate_scenario)


def spd(rng, n, scale=1.0):
    m = rng.normal(size=(n, n))
    return scale * (m @ m.T / n + 0.1 * np.eye(n))


def make_ltv_scenario(state_dims, T, A_blocks, B_blocks, x0, W_diag, Q_list,
                      R_list, goal_list, constraints, eps=0.05, dt=0.1, seed=1):
    """Assemble a block-diagonal LTV scenario from per-agent pieces."""
    N = len(state_dims)
    n_x = sum(state_dims)
    n_u = B_blocks[0].shape[1]
    offs = np.cumsum([0] + list(state_dims))
    A = np.zeros((n_x, n_x))
    B = np.zeros((N, n_x, n_u))
    for i in range(N):
        sl = slice(offs[i], offs[i + 1])
        A[sl, sl] = A_blocks[i]
        B[i, sl, :] = B_blocks[i]
    A_seq = np.repeat(A[None], T, axis=0)
    B_seq = np.repeat(B[None], T, axis=0)
    W_seq = np.repeat(np.diag(W_diag)[None], T, axis=0)
    dyn = LtvGameDynamics(A=A_seq, B=B_seq, W=W_seq, x0=np.asarray(x0, float))
    costs = []
    for i in range(N):
        Q = np.repeat(Q_list[i][None], T, axis=0)
        R = np.repeat(R_list[i][None], T, axis=0)
        ref = np.repeat(np.asarray(goal_list[i], float)[None], T, axis=0)
        costs.append(CostSpec(Q=Q, R=R, ref=ref))
    return Scenario(num_agents=N, horizon=T, dt=dt, dynamics=dyn,
                    costs=tuple(costs), constraints=tuple(constraints),
                    risk_epsilon=eps, rng_seed=seed, state_dims=tuple(state_dims))


def random_small_scenario(rng, N=None, with_rows=True, coupled=False):
    """Random LTV game with a few single-time box rows (M <= 20); decoupled,
    or with ``coupled`` (N >= 2) each Q^i also weighs the next agent's
    states, through a PSD term on both agents' states with off-diagonal blocks."""
    N = N if N is not None else int(rng.integers(2 if coupled else 1, 4))
    state_dims = [int(rng.integers(1, 4)) for _ in range(N)]
    while sum(state_dims) > 12:
        state_dims[np.argmax(state_dims)] -= 1
    T = int(rng.integers(4, 12))
    n_u = int(rng.integers(1, 3))
    n_x = sum(state_dims)

    A_blocks, B_blocks, Q_list, R_list, goal_list = [], [], [], [], []
    offs = np.cumsum([0] + list(state_dims))
    for i, d in enumerate(state_dims):
        Ai = rng.normal(size=(d, d))
        rad = max(np.abs(np.linalg.eigvals(Ai)))
        A_blocks.append(Ai / max(rad / 1.02, 1.0))
        Bi = rng.normal(size=(d, n_u))
        B_blocks.append(Bi)
        Qi = np.zeros((n_x, n_x))
        Qi[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = spd(rng, d, scale=1.0)
        Q_list.append(Qi)
        R_list.append(np.diag(rng.uniform(0.5, 2.0, n_u)))
        goal = np.zeros(n_x)
        goal[offs[i]:offs[i + 1]] = rng.normal(size=d)
        goal_list.append(goal)
    for i in range(N if coupled else 0):
        j = (i + 1) % N
        both = np.r_[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
        Q_list[i][np.ix_(both, both)] += spd(rng, both.size, scale=0.5)
    x0 = rng.normal(size=n_x) * 0.5
    W_diag = rng.uniform(1e-5, 5e-4, n_x)

    cons = []
    if with_rows:
        for _ in range(int(rng.integers(3, 12))):
            q = int(rng.integers(0, n_x))
            t = int(rng.integers(1, T + 1))
            x_min = np.full(n_x, np.nan)
            x_max = np.full(n_x, np.nan)
            bound = float(rng.normal() * 1.5)
            if rng.random() < 0.5:
                x_max[q] = bound
            else:
                x_min[q] = bound
            cons.append(BoxSpec(x_min=x_min, x_max=x_max, active_times=(t,)))
    return make_ltv_scenario(state_dims, T, A_blocks, B_blocks, x0, W_diag,
                             Q_list, R_list, goal_list, cons,
                             seed=int(rng.integers(0, 2**31)))


def scalar_single_agent_instance(T=3, bound=0.4, goal=1.0):
    """N=1 scalar chain with one active upper bound at the final time."""
    x_min = np.array([np.nan])
    x_max = np.array([bound])
    con = BoxSpec(x_min=x_min, x_max=x_max, active_times=(T,))
    return make_ltv_scenario(
        [1], T, [np.array([[1.0]])], [np.array([[1.0]])], [0.0], [1e-8],
        [np.array([[1.0]])], [np.array([[1.0]])], [np.array([goal])], [con])


def scalar_two_agent_instance(T=3, radius=0.5):
    """Two decoupled scalar agents pulled together, one collision row at T."""
    con = CollisionSpec(pair=(0, 1), radius=radius, C=np.array([[1.0]]),
                        active_times=(T,))
    return make_ltv_scenario(
        [1, 1], T,
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([[1.0]]), np.array([[1.0]])],
        [0.4, -0.4], [1e-8, 1e-8],
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([0.1, 0.0]), np.array([0.0, -0.1])], [con])


def double_integrator_instance(T=3, dt=0.5, bound=0.5, goal=1.0):
    """N=1 two-state (position, velocity) chain with one position bound."""
    x_min = np.array([np.nan, np.nan])
    x_max = np.array([bound, np.nan])
    con = BoxSpec(x_min=x_min, x_max=x_max, active_times=(T,))
    return make_ltv_scenario(
        [2], T, [np.array([[1.0, dt], [0.0, 1.0]])],
        [np.array([[0.0], [dt]])], [0.0, 0.0], [1e-8, 1e-8],
        [np.diag([2.0, 0.1])], [np.array([[1.0]])],
        [np.array([goal, 0.0])], [con], dt=dt)


def coupled_two_agent_scenario(T=4):
    """Cross-coupled dynamics and a cross-weighted cost; no constraints."""
    A = np.array([[0.9, 0.3], [-0.2, 1.0]])
    B1 = np.array([[1.0], [0.0]])
    B2 = np.array([[0.0], [1.0]])
    dyn = LtvGameDynamics(
        A=np.repeat(A[None], T, axis=0),
        B=np.repeat(np.stack([B1, B2])[None], T, axis=0),
        W=np.repeat((1e-4 * np.eye(2))[None], T, axis=0),
        x0=np.array([1.0, -0.5]))
    Q1 = np.array([[2.0, 0.3], [0.3, 0.4]])
    Q2 = np.array([[0.1, 0.0], [0.0, 1.5]])
    costs = (
        CostSpec(Q=np.repeat(Q1[None], T, axis=0),
                 R=np.repeat(np.array([[1.0]])[None], T, axis=0),
                 ref=np.repeat(np.array([0.5, 0.0])[None], T, axis=0)),
        CostSpec(Q=np.repeat(Q2[None], T, axis=0),
                 R=np.repeat(np.array([[0.8]])[None], T, axis=0),
                 ref=np.repeat(np.array([0.0, -0.3])[None], T, axis=0)),
    )
    return Scenario(num_agents=2, horizon=T, dt=0.1, dynamics=dyn, costs=costs,
                    constraints=(), risk_epsilon=0.05, rng_seed=3,
                    state_dims=(1, 1))


def coupled_constrained_instance(T=6):
    """The cross-coupled game with a box row x_0 <= 0.3, x_1 >= -0.2 at
    t = 2..T; its dual map G is not symmetric (M = 10 at T = 6)."""
    s = coupled_two_agent_scenario(T)
    box = BoxSpec(x_min=np.array([np.nan, -0.2]), x_max=np.array([0.3, np.nan]),
                  active_times=tuple(range(2, T + 1)))
    return Scenario(**{**s.__dict__, "constraints": (box,)})


def dense_input_scenario(T=8):
    """Two agents with two inputs each and dense B^i: every state row is
    driven by all four inputs, so sum_i B^i u^i has four terms in each row."""
    rng = np.random.default_rng(11)
    dims = [2, 3]
    s = make_ltv_scenario(
        dims, T, [np.eye(d) + 0.1 * rng.normal(size=(d, d)) for d in dims],
        [np.zeros((d, 2)) for d in dims], rng.normal(size=5), [1e-3] * 5,
        [np.diag([1.0, 1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0, 1.0])],
        [np.eye(2), 0.5 * np.eye(2)], [np.zeros(5), np.ones(5)], [])
    dense = replace(s.dynamics, B=rng.normal(size=(T, 2, 5, 2)))
    return Scenario(**{**s.__dict__, "dynamics": dense})


# ---------------------------------------------------------------------------
# Scenario documents with one number replaced


def _first(doc, kind):
    return next(c for c in doc["constraints"] if c["type"] == kind)


# one number of each kind of field in the intersection-mini document
NUMBER_FIELDS = {
    "dt": lambda d, v: d.update(dt=v),
    "risk_epsilon": lambda d, v: d.update(risk_epsilon=v),
    "radius": lambda d, v: _first(d, "collision").update(radius=v),
    "initial_states": lambda d, v: d["dynamics"]["initial_states"][1].__setitem__(2, v),
    "R": lambda d, v: d["costs"][0]["R"][3][1].__setitem__(1, v),
    "noise": lambda d, v: d["dynamics"]["noise"]["matrix"][2].__setitem__(2, v),
    "x_min": lambda d, v: _first(d, "box")["x_min"].__setitem__(3, v),
}
NOT_NUMBERS = [pytest.param("inf", id="str-inf"), pytest.param("0.5", id="str-number"),
               pytest.param(True, id="bool")]


def mini_doc_with(field, value):
    """The intersection-mini full-form document with NUMBER_FIELDS[field] set
    to value."""
    doc = scenario_to_dict(scenarios.make_intersection_mini())
    NUMBER_FIELDS[field](doc, value)
    return doc


# ---------------------------------------------------------------------------
# Session-scoped heavy artifacts shared across test modules


@pytest.fixture(scope="session")
def mini_scenario():
    return scenarios.make_intersection_mini()


@pytest.fixture(scope="session")
def mini_prep(mini_scenario):
    return prepare_game(validate_scenario(mini_scenario))


@pytest.fixture(scope="session")
def mini_report(mini_prep):
    return run_dual_ascent(mini_prep, DualAscentOptions(k_max=20000))


@pytest.fixture(scope="session")
def intersection_prep():
    return prepare_game(validate_scenario(scenarios.make_intersection()))


@pytest.fixture(scope="session")
def intersection_report(intersection_prep):
    return run_dual_ascent(intersection_prep, DualAscentOptions(k_max=20000))


@pytest.fixture()
def lqnash_calls(monkeypatch):
    """A Counter of the calls to lqnash's gain recursion, its rcond checks,
    zeta passes, dual map, mean integration, closed-loop covariance and
    expected cost, by function name; the dual map's full-width passes (one
    entry, ``range(M)``: all of G's columns) are counted once more as "full_map"."""
    from ccgame import lqnash
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "affine_response" and args[3] == [range(args[1].M)]:
                calls["full_map"] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("stage_gains", "_check_rcond", "_zeta_sweep", "affine_response",
                 "integrate_expected", "closed_loop_covariance", "evaluate_cost"):
        monkeypatch.setattr(lqnash, name, counting(name, getattr(lqnash, name)))
    return calls


@pytest.fixture(scope="session")
def random_scenarios():
    rng = np.random.default_rng(20240625)
    return [random_small_scenario(rng) for _ in range(5)]
