"""Problem-instance data model: dynamics, costs, constraints, risk budget.

Time indexing used throughout the package:

* stage matrices ``A[t], B[t][i], W[t]`` map time ``t`` to ``t+1`` and are
  indexed ``t = 0..T-1``;
* state costs and references apply to ``x_t`` for ``t = 1..T`` (the initial
  state is known and never penalized or constrained);
* input costs apply for ``t = 0..T-1``.

A scenario declares its dynamics either directly (``LtvGameDynamics``) or as
a unicycle model plus nominal trajectory, which :mod:`ccgame.linearize` turns
into a linear time-varying game in deviation coordinates.  In the latter case
``GameProblem.nominal_states`` carries the absolute-coordinate offset that
cost references and constraint offsets are folded against.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import (
    BadProbability,
    DimensionMismatch,
    NotPositiveDefinite,
    ScenarioValidationError,
    SchemaError,
)

TOL_PSD = 1e-9
TOL_PD = 1e-12

SCENARIO_KEYS = {
    "agents", "horizon", "dt", "dynamics", "costs", "constraints",
    "risk_epsilon", "seed",
}


def _freeze(a, dtype=float):
    a = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    a.setflags(write=False)
    return a


def coerce_matrix(spec, dim, name):
    """Accept scalar (-> scalar*I), flat list (-> diag) or nested list."""
    if np.isscalar(spec):
        return float(spec) * np.eye(dim)
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise SchemaError(f"{name}: diagonal of length {arr.shape[0]}, expected {dim}")
        return np.diag(arr)
    if arr.shape != (dim, dim):
        raise SchemaError(f"{name}: shape {arr.shape}, expected ({dim}, {dim})")
    return arr


def agent_slices(state_dims):
    """Each agent's slice of the stacked state."""
    return [slice(end - d, end) for d, end in zip(state_dims, accumulate(state_dims))]


def embed_agent(block, state_dims, agent, fill=0.0):
    """Agent ``agent``'s (d,) vector or (d, d) block placed in the stacked
    (n_x,) vector or (n_x, n_x) matrix; every other entry is ``fill``."""
    block = np.asarray(block, dtype=float)
    out = np.full((sum(state_dims),) * block.ndim, fill)
    out[(agent_slices(state_dims)[agent],) * block.ndim] = block
    return out


@dataclass(frozen=True)
class LtvGameDynamics:
    """Stacked linear time-varying game dynamics with Gaussian noise.

    A: (T, n_x, n_x); B: (T, N, n_x, n_u); W: (T, n_x, n_x); x0: (n_x,).
    """

    A: np.ndarray
    B: np.ndarray
    W: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "W", "x0"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def T(self):
        return self.A.shape[0]

    @property
    def N(self):
        return self.B.shape[1]

    @property
    def n_x(self):
        return self.A.shape[1]

    @property
    def n_u(self):
        return self.B.shape[3]


@dataclass(frozen=True)
class CostSpec:
    """Per-agent quadratic tracking cost.

    Q: (T, n_x, n_x) weighting x_t for t = 1..T; R: (T, n_u, n_u) weighting
    u_t for t = 0..T-1; ref: (T, n_x) goal references for t = 1..T, entering
    the cost as ||x_t - ref_t||^2_Q.
    """

    Q: np.ndarray
    R: np.ndarray
    ref: np.ndarray

    def __post_init__(self):
        for name in ("Q", "R", "ref"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True)
class BoxSpec:
    """Per-coordinate bounds on the full state; NaN marks an unconstrained side."""

    x_min: np.ndarray
    x_max: np.ndarray
    active_times: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_min", _freeze(self.x_min))
        object.__setattr__(self, "x_max", _freeze(self.x_max))
        if self.active_times is not None:
            object.__setattr__(self, "active_times", tuple(sorted(set(self.active_times))))

    kind = "box"

    def rows(self):
        """Atomic one-sided rows as (coord, side, bound), lower before upper."""
        return [(q, side, float(bound[q])) for q in range(self.x_min.shape[0])
                for side, bound in (("lower", self.x_min), ("upper", self.x_max))
                if not math.isnan(bound[q])]


@dataclass(frozen=True)
class CollisionSpec:
    """Pairwise keep-out: ||x^i_t - x^j_t||^2_C >= radius^2."""

    pair: tuple
    radius: float
    C: np.ndarray
    active_times: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "pair", (int(self.pair[0]), int(self.pair[1])))
        object.__setattr__(self, "C", _freeze(self.C))
        if self.active_times is not None:
            object.__setattr__(self, "active_times", tuple(sorted(set(self.active_times))))

    kind = "collision"


@dataclass(frozen=True)
class UnicycleDynamicsSpec:
    """Scenario-level unicycle declaration (before nominal defaulting).

    initial_states: (N, 4) rows [p_x, p_y, theta, v]; nominal_inputs either
    None (defaulted toward each agent's goal) or (N, T, 2) rows [a, omega];
    W: (n_x, n_x) discrete-time noise covariance of the stacked state.
    """

    initial_states: np.ndarray
    nominal_inputs: np.ndarray | None
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "initial_states", _freeze(self.initial_states))
        if self.nominal_inputs is not None:
            object.__setattr__(self, "nominal_inputs", _freeze(self.nominal_inputs))
        object.__setattr__(self, "W", _freeze(self.W))


@dataclass(frozen=True)
class Scenario:
    num_agents: int
    horizon: int
    dt: float
    dynamics: object            # LtvGameDynamics | UnicycleDynamicsSpec
    costs: tuple                # per-agent CostSpec
    constraints: tuple          # BoxSpec | CollisionSpec
    risk_epsilon: float
    rng_seed: int
    state_dims: tuple           # per-agent substate dimension

    @property
    def n_x(self):
        return int(sum(self.state_dims))


@dataclass(frozen=True)
class ValidatedScenario:
    """Marker wrapper returned by :func:`validate_scenario`."""

    scenario: Scenario

    def __getattr__(self, name):
        return getattr(self.scenario, name)


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(value, name, least=None, error=SchemaError):
    """``value`` as an int: a bool, float or str, or a value below ``least``,
    raises ``error`` (a scenario field's SchemaError by default, DomainError
    for a library count or seed); numpy integers pass."""
    if not _is_integer(value) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name}: expected an integer{bound}, got {value!r}")
    return int(value)


def _check_definite(v, mats, tol, name, first=0):
    """Report the first matrix of ``mats`` (n, n) or (T, n, n) whose symmetric
    part has an eigenvalue below ``tol``; a stack names the offending step,
    counting from ``first``."""
    lam = np.linalg.eigvalsh((mats + np.swapaxes(mats, -1, -2)) / 2.0)[..., 0]
    bad = np.flatnonzero(lam < tol)
    if bad.size:
        k = int(bad[0])
        v.append(NotPositiveDefinite(name if mats.ndim == 2 else f"{name}[{k + first}]",
                                     lam.flat[k]))


def _check_dims(v, s: Scenario):
    T, N, n_x = s.horizon, s.num_agents, s.n_x
    if N <= 0 or int(N) != N:
        v.append(DimensionMismatch("agents", "positive integer", N))
    if T <= 0 or int(T) != T:
        v.append(DimensionMismatch("horizon", "positive integer", T))
    if not (s.dt > 0):
        v.append(DimensionMismatch("dt", "> 0", s.dt))
    if not (0.0 < s.risk_epsilon < 1.0):
        v.append(BadProbability("risk_epsilon", s.risk_epsilon))
    if len(s.state_dims) != N:
        v.append(DimensionMismatch("state_dims", f"length {N}", len(s.state_dims)))


def _check_ltv(v, dyn: LtvGameDynamics, s: Scenario):
    T, N, n_x = s.horizon, s.num_agents, s.n_x
    if dyn.A.shape != (T, n_x, n_x):
        v.append(DimensionMismatch("A", (T, n_x, n_x), dyn.A.shape))
        return
    n_u = dyn.B.shape[3] if dyn.B.ndim == 4 else -1
    if dyn.B.shape != (T, N, n_x, n_u):
        v.append(DimensionMismatch("B", (T, N, n_x, "n_u"), dyn.B.shape))
    if dyn.W.shape != (T, n_x, n_x):
        v.append(DimensionMismatch("W", (T, n_x, n_x), dyn.W.shape))
    else:
        _check_definite(v, dyn.W, TOL_PD, "W")
    if dyn.x0.shape != (n_x,):
        v.append(DimensionMismatch("x0", (n_x,), dyn.x0.shape))


def _check_unicycle(v, dyn: UnicycleDynamicsSpec, s: Scenario):
    T, N, n_x = s.horizon, s.num_agents, s.n_x
    if any(d != 4 for d in s.state_dims):
        v.append(DimensionMismatch("state_dims", "4 per unicycle agent", s.state_dims))
    if dyn.initial_states.shape != (N, 4):
        v.append(DimensionMismatch("initial_states", (N, 4), dyn.initial_states.shape))
    if dyn.nominal_inputs is not None and dyn.nominal_inputs.shape != (N, T, 2):
        v.append(DimensionMismatch("nominal_inputs", (N, T, 2), dyn.nominal_inputs.shape))
    if dyn.W.shape != (n_x, n_x):
        v.append(DimensionMismatch("noise", (n_x, n_x), dyn.W.shape))
    else:
        _check_definite(v, dyn.W, TOL_PD, "W")


def _check_costs(v, s: Scenario):
    T, n_x = s.horizon, s.n_x
    if len(s.costs) != s.num_agents:
        v.append(DimensionMismatch("costs", f"{s.num_agents} entries", len(s.costs)))
        return
    n_u = _scenario_n_u(s)
    for i, c in enumerate(s.costs):
        if c.Q.shape != (T, n_x, n_x):
            v.append(DimensionMismatch(f"costs[{i}].Q", (T, n_x, n_x), c.Q.shape))
            continue
        if c.R.shape != (T, n_u, n_u):
            v.append(DimensionMismatch(f"costs[{i}].R", (T, n_u, n_u), c.R.shape))
            continue
        if c.ref.shape != (T, n_x):
            v.append(DimensionMismatch(f"costs[{i}].ref", (T, n_x), c.ref.shape))
        _check_definite(v, c.Q, -TOL_PSD, f"costs[{i}].Q", first=1)
        _check_definite(v, c.R, TOL_PD, f"costs[{i}].R")


def _check_constraints(v, s: Scenario):
    T, n_x = s.horizon, s.n_x
    for k, con in enumerate(s.constraints):
        if con.active_times is not None:
            bad = [t for t in con.active_times if not (_is_integer(t) and 1 <= t <= T)]
            if bad:
                v.append(DimensionMismatch(f"constraints[{k}].active_times",
                                           f"integers in 1..{T}", bad))
        if con.kind == "box":
            if con.x_min.shape != (n_x,) or con.x_max.shape != (n_x,):
                v.append(DimensionMismatch(f"constraints[{k}] bounds", (n_x,),
                                           (con.x_min.shape, con.x_max.shape)))
                continue
            both = ~np.isnan(con.x_min) & ~np.isnan(con.x_max)
            if np.any(con.x_min[both] >= con.x_max[both]):
                q = int(np.where(both & (con.x_min >= con.x_max))[0][0])
                v.append(DimensionMismatch(f"constraints[{k}].x_min[{q}]",
                                           f"< x_max[{q}]={con.x_max[q]}", con.x_min[q]))
        elif con.kind == "collision":
            i, j = con.pair
            if not (0 <= i < s.num_agents and 0 <= j < s.num_agents and i != j):
                v.append(DimensionMismatch(f"constraints[{k}].pair",
                                           "distinct agents", con.pair))
                continue
            if s.state_dims[i] != s.state_dims[j]:
                v.append(DimensionMismatch(f"constraints[{k}].pair",
                                           "equal substate dims",
                                           (s.state_dims[i], s.state_dims[j])))
                continue
            d = s.state_dims[i]
            if con.C.shape != (d, d):
                v.append(DimensionMismatch(f"constraints[{k}].C", (d, d), con.C.shape))
                continue
            _check_definite(v, con.C, -TOL_PSD, f"constraints[{k}].C")
            if not (con.radius > 0):
                v.append(DimensionMismatch(f"constraints[{k}].radius", "> 0", con.radius))


def _scenario_n_u(s: Scenario):
    if isinstance(s.dynamics, LtvGameDynamics):
        B = s.dynamics.B
        return B.shape[3] if B.ndim == 4 else -1
    return 2


def validate_scenario(s) -> ValidatedScenario:
    """Dimension- and definiteness-check a scenario.

    Returns a ``ValidatedScenario`` or raises ``ScenarioValidationError``
    carrying the full list of violations.  Idempotent: an already validated
    scenario is returned unchanged.
    """
    if isinstance(s, ValidatedScenario):
        return s
    v = []
    _check_dims(v, s)
    if not v:
        if isinstance(s.dynamics, LtvGameDynamics):
            _check_ltv(v, s.dynamics, s)
        elif isinstance(s.dynamics, UnicycleDynamicsSpec):
            _check_unicycle(v, s.dynamics, s)
        else:
            v.append(DimensionMismatch("dynamics", "LtvGameDynamics or UnicycleDynamicsSpec",
                                       type(s.dynamics).__name__))
        _check_costs(v, s)
        _check_constraints(v, s)
    if v:
        raise ScenarioValidationError(v)
    return ValidatedScenario(s)


# ---------------------------------------------------------------------------
# Assembly into a solver-ready problem


@dataclass(frozen=True)
class GameProblem:
    """Solver-ready instance in solver coordinates.

    For unicycle scenarios the solver operates on deviations from the nominal
    trajectory; ``nominal_states`` (T+1, n_x) holds the absolute offset and is
    zero for direct LTV scenarios.  Cost arrays are indexed by absolute time:
    Q, ref have length T+1 with index 0 zeroed; R has length T.
    """

    dyn: LtvGameDynamics
    Q: np.ndarray               # (N, T+1, n_x, n_x)
    R: np.ndarray               # (N, T, n_u, n_u)
    ref: np.ndarray             # (N, T+1, n_x)
    constraints: tuple
    nominal_states: np.ndarray  # (T+1, n_x) absolute offset
    nominal_inputs: np.ndarray  # (T, N, n_u) absolute offset
    state_dims: tuple
    dt: float
    risk_epsilon: float

    def __post_init__(self):
        for name in ("Q", "R", "ref", "nominal_states", "nominal_inputs"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def T(self):
        return self.dyn.T

    @property
    def N(self):
        return self.dyn.N

    @property
    def n_x(self):
        return self.dyn.n_x

    @property
    def n_u(self):
        return self.dyn.n_u

    @property
    def agent_slices(self):
        return agent_slices(self.state_dims)

    def position_indices(self, i):
        """Indices of agent i's planar position within the full state."""
        sl = self.agent_slices[i]
        take = min(2, self.state_dims[i])
        return list(range(sl.start, sl.start + take))

    def to_absolute(self, states, times=slice(None), cols=slice(None)):
        """Map solver-coordinate state trajectories (.., T+1, n_x) to absolute,
        or only their entries at the given times and columns (no full copy)."""
        return np.asarray(states)[..., times, cols] + self.nominal_states[times, cols]


def default_nominal_inputs(s: Scenario) -> np.ndarray:
    """Deterministic nominal: turn-then-cruise straight line toward each goal.

    The first input aligns heading/speed with a constant-speed line that
    reaches the goal position at the final step; all later inputs are zero.
    """
    T, dt = s.horizon, s.dt
    out = np.zeros((s.num_agents, T, 2))
    for i in range(s.num_agents):
        px, py, th, vel = s.dynamics.initial_states[i]
        goal = s.costs[i].ref[-1][agent_slices(s.state_dims)[i]]
        gx, gy = goal[0], goal[1]
        dist = math.hypot(gx - px, gy - py)
        if dist < 1e-12:
            out[i, 0] = [-vel / dt, 0.0]
            continue
        psi = math.atan2(gy - py, gx - px)
        v_star = dist / (T * dt)
        dth = (psi - th + math.pi) % (2 * math.pi) - math.pi
        out[i, 0] = [(v_star - vel) / dt, dth / dt]
    return out


def assemble_problem(vs, nominal_inputs=None) -> GameProblem:
    """Build the solver-ready problem, linearizing unicycle dynamics if needed.

    ``nominal_inputs`` (N, T, 2) overrides the scenario/default nominal and is
    used by the outer relinearization loop.  Every constraint of the problem
    carries its active steps as an explicit sorted tuple: a scenario's
    ``active_times=None`` becomes steps 1..T here.
    """
    from . import linearize  # local import; linearize depends on this module

    vs = validate_scenario(vs)
    s = vs.scenario
    T, N, n_x = s.horizon, s.num_agents, s.n_x
    n_u = _scenario_n_u(s)

    Q = np.zeros((N, T + 1, n_x, n_x))
    R = np.zeros((N, T, n_u, n_u))
    ref = np.zeros((N, T + 1, n_x))
    for i, c in enumerate(s.costs):
        Q[i, 1:] = c.Q
        R[i] = c.R
        ref[i, 1:] = c.ref

    if isinstance(s.dynamics, LtvGameDynamics):
        dyn = s.dynamics
        nominal_states = np.zeros((T + 1, n_x))
        nominal_inputs_abs = np.zeros((T, N, n_u))
    else:
        if nominal_inputs is None:
            nominal_inputs = s.dynamics.nominal_inputs
        if nominal_inputs is None:
            nominal_inputs = default_nominal_inputs(s)
        nominal_inputs = np.asarray(nominal_inputs, dtype=float)
        if nominal_inputs.shape != (N, T, 2):
            raise DimensionMismatch("nominal_inputs", (N, T, 2), nominal_inputs.shape)
        nominal = linearize.nominal_rollout(s.dynamics.initial_states,
                                            nominal_inputs, s.dt)
        dyn = linearize.linearize_unicycle(nominal, s.dt, s.dynamics.W)
        nominal_states = nominal.reshape(T + 1, n_x)
        nominal_inputs_abs = np.transpose(nominal_inputs, (1, 0, 2))
        # deviation coordinates: references shift by the nominal trajectory
        ref = ref - nominal_states[None, :, :]
        ref[:, 0, :] = 0.0

    return GameProblem(
        dyn=dyn, Q=Q, R=R, ref=ref,
        constraints=tuple(con if con.active_times is not None
                          else replace(con, active_times=tuple(range(1, T + 1)))
                          for con in s.constraints),
        nominal_states=nominal_states,
        nominal_inputs=nominal_inputs_abs,
        state_dims=tuple(s.state_dims), dt=s.dt, risk_epsilon=s.risk_epsilon,
    )


# ---------------------------------------------------------------------------
# Scenario file schema (UTF-8 JSON)


def _matrix_seq(spec, T, dim, name):
    """Matrix or list of T matrices -> (T, dim, dim)."""
    arr = np.asarray(spec, dtype=float) if not np.isscalar(spec) else None
    if arr is not None and arr.ndim == 3:
        if arr.shape != (T, dim, dim):
            raise SchemaError(f"{name}: shape {arr.shape}, expected ({T}, {dim}, {dim})")
        return arr
    single = coerce_matrix(spec, dim, name)
    return np.repeat(single[None, :, :], T, axis=0)


NULLABLE = {"x_min", "x_max", "nominal_inputs", "active_times", "agent", "weight"}


def _check_numbers(doc, where="scenario", nullable=False):
    """SchemaError at the first value in ``doc`` that is not a JSON number: a
    string or a bool anywhere but a ``type`` field, or a null but a NULLABLE
    key's whole value or a box bound's entry (``nullable``).  A leaf is named
    by its list's key path, a dict in a list by its index."""
    if type(doc) is dict:
        for key, value in doc.items():
            if key != "type" and not (value is None and key in NULLABLE):
                _check_numbers(value, f"{where}.{key}", key in ("x_min", "x_max"))
    elif type(doc) is list:
        for k, value in enumerate(doc):
            _check_numbers(value, f"{where}[{k}]" if type(value) is dict else where, nullable)
    elif isinstance(doc, (bool, str)) or (doc is None and not nullable):
        raise SchemaError(f"{where}: expected a number, got {doc!r:.20}")


def _reject_unknown(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")


def _agent_matrix(spec, state_dims, agent, name):
    """The stacked (n_x, n_x) matrix from a full-size spec or from the agent's
    (d, d) block, each in a form that :func:`coerce_matrix` accepts."""
    n_x = sum(state_dims)
    if not np.isscalar(spec) and np.shape(spec) in ((n_x,), (n_x, n_x)):
        return coerce_matrix(spec, n_x, name)
    return embed_agent(coerce_matrix(spec, state_dims[agent], name), state_dims, agent)


def _parse_dynamics(d, T, state_dims):
    _reject_unknown(d, {"type", "A", "B", "W", "x0", "initial_states",
                        "nominal_inputs", "noise"}, "dynamics")
    kind = d.get("type")
    n_x = sum(state_dims)
    if kind == "ltv":
        A = _matrix_seq(d["A"], T, n_x, "dynamics.A")
        B = np.asarray(d["B"], dtype=float)    # (T, N, n_x, n_u), or
        if B.ndim == 3:                         # (N, n_x, n_u) constant over time
            B = np.repeat(B[None, :, :, :], T, axis=0)
        W = _matrix_seq(d["W"], T, n_x, "dynamics.W")
        x0 = np.asarray(d["x0"], dtype=float)
        return LtvGameDynamics(A=A, B=B, W=W, x0=x0)
    if kind == "unicycle":
        init = np.asarray(d["initial_states"], dtype=float)
        nom = d.get("nominal_inputs")
        nom = None if nom is None else np.asarray(nom, dtype=float)
        W = _parse_noise(d.get("noise", 1e-6), state_dims)
        return UnicycleDynamicsSpec(initial_states=init, nominal_inputs=nom, W=W)
    raise SchemaError(f"dynamics.type: expected 'ltv' or 'unicycle', got {kind!r}")


def _parse_noise(spec, state_dims):
    n_x = sum(state_dims)
    if isinstance(spec, dict):
        _reject_unknown(spec, {"per_agent_diag", "matrix"}, "dynamics.noise")
        if "per_agent_diag" in spec:
            vals = np.asarray(spec["per_agent_diag"], dtype=float)
            for d in state_dims:
                if vals.shape != (d,):
                    raise SchemaError(f"noise.per_agent_diag: length {vals.shape}, expected {d}")
            return np.diag(np.tile(vals, len(state_dims)))
        return coerce_matrix(spec["matrix"], n_x, "dynamics.noise.matrix")
    return coerce_matrix(spec, n_x, "dynamics.noise")


def _parse_cost(d, i, T, n_u, state_dims):
    n_x = sum(state_dims)
    if "Q" in d or "ref" in d:
        # full per-time form
        _reject_unknown(d, {"Q", "R", "ref"}, f"costs[{i}]")
        Q = _matrix_seq(d["Q"], T, n_x, f"costs[{i}].Q")
        R = _matrix_seq(d["R"], T, n_u, f"costs[{i}].R")
        ref = np.asarray(d.get("ref", np.zeros((T, n_x))), dtype=float)
        if ref.ndim == 1:
            ref = np.repeat(ref[None, :], T, axis=0)
        return CostSpec(Q=Q, R=R, ref=ref)
    _reject_unknown(d, {"Q_stage", "Q_terminal", "R", "goal"}, f"costs[{i}]")
    q_stage = _agent_matrix(d.get("Q_stage", 0.0), state_dims, i, f"costs[{i}].Q_stage")
    q_term = _agent_matrix(d.get("Q_terminal", 0.0), state_dims, i, f"costs[{i}].Q_terminal")
    Q = np.repeat(q_stage[None, :, :], T, axis=0)
    Q[T - 1] = q_term + q_stage
    R = np.repeat(coerce_matrix(d["R"], n_u, f"costs[{i}].R")[None, :, :], T, axis=0)
    goal = np.asarray(d.get("goal", np.zeros(n_x)), dtype=float)
    if goal.shape != (n_x,):
        if goal.shape != (state_dims[i],):
            raise SchemaError(f"costs[{i}].goal: length {goal.shape}, "
                              f"expected {state_dims[i]} or {n_x}")
        goal = embed_agent(goal, state_dims, i)
    return CostSpec(Q=Q, R=R, ref=np.repeat(goal[None, :], T, axis=0))


def _bounds_array(spec, state_dims, agent, name):
    """Bounds on the full state, or on the agent's substate when ``agent`` is
    given; ``null`` entries and a missing list are NaN (unconstrained)."""
    dim = sum(state_dims) if agent is None else state_dims[agent]
    arr = np.full(dim, np.nan) if spec is None else np.array(spec, dtype=float)
    if arr.shape != (dim,):
        raise SchemaError(f"{name}: length {arr.shape[0]}, expected {dim}")
    return arr if agent is None else embed_agent(arr, state_dims, agent, fill=np.nan)


def default_collision_weight(dim):
    """Selector of the planar position coordinates within a substate difference."""
    return np.diag((np.arange(dim) < 2).astype(float))


def _parse_constraint(d, k, state_dims):
    kind = d.get("type")
    if kind == "box":
        _reject_unknown(d, {"type", "agent", "x_min", "x_max", "active_times"},
                        f"constraints[{k}]")
        agent = d.get("agent")
        if agent is not None and not (_is_integer(agent) and 0 <= agent < len(state_dims)):
            raise SchemaError(f"constraints[{k}].agent: expected an integer in "
                              f"0..{len(state_dims) - 1}, got {agent!r}")
        x_min = _bounds_array(d.get("x_min"), state_dims, agent, f"constraints[{k}].x_min")
        x_max = _bounds_array(d.get("x_max"), state_dims, agent, f"constraints[{k}].x_max")
        at = d.get("active_times")
        return BoxSpec(x_min=x_min, x_max=x_max,
                       active_times=None if at is None else tuple(at))
    if kind == "collision":
        _reject_unknown(d, {"type", "pair", "radius", "weight", "active_times"},
                        f"constraints[{k}]")
        i, j = (_integer(a, f"constraints[{k}].pair") for a in d["pair"])
        dim = state_dims[i]
        w = d.get("weight")
        C = default_collision_weight(dim) if w is None else coerce_matrix(
            w, dim, f"constraints[{k}].weight")
        at = d.get("active_times")
        return CollisionSpec(pair=(i, j), radius=float(d["radius"]), C=C,
                             active_times=None if at is None else tuple(at))
    raise SchemaError(f"constraints[{k}].type: expected 'box' or 'collision', got {kind!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse a scenario document; a value that does not parse, or that is
    not a number where one belongs (``_check_numbers``), raises SchemaError."""
    try:
        return _parse_scenario(doc)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise SchemaError(f"scenario: malformed document "
                          f"({type(exc).__name__}: {exc})") from exc


def _parse_scenario(doc):
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    _reject_unknown(doc, SCENARIO_KEYS | {"state_dims"}, "scenario")
    _check_numbers(doc)
    for key in ("agents", "horizon", "dt", "dynamics", "costs", "risk_epsilon", "seed"):
        if key not in doc:
            raise SchemaError(f"scenario: missing required key {key!r}")
    N = _integer(doc["agents"], "agents")
    T = _integer(doc["horizon"], "horizon")
    dtype = doc["dynamics"].get("type")
    if dtype == "unicycle":
        state_dims = tuple([4] * N)
    elif "state_dims" in doc:
        state_dims = tuple(_integer(d, "state_dims") for d in doc["state_dims"])
    elif N == 1:
        state_dims = (len(doc["dynamics"]["x0"]),)
    else:
        raise SchemaError("scenario: 'state_dims' required for multi-agent ltv dynamics")
    dynamics = _parse_dynamics(doc["dynamics"], T, state_dims)
    n_u = dynamics.n_u if isinstance(dynamics, LtvGameDynamics) else 2
    costs = tuple(_parse_cost(c, i, T, n_u, state_dims)
                  for i, c in enumerate(doc["costs"]))
    constraints = tuple(_parse_constraint(c, k, state_dims)
                        for k, c in enumerate(doc.get("constraints", [])))
    return Scenario(
        num_agents=N, horizon=T, dt=float(doc["dt"]), dynamics=dynamics,
        costs=costs, constraints=constraints,
        risk_epsilon=float(doc["risk_epsilon"]), rng_seed=_integer(doc["seed"], "seed"),
        state_dims=state_dims,
    )


def scenario_to_dict(s: Scenario) -> dict:
    """Emit the lossless (full-form) scenario document."""
    if isinstance(s.dynamics, LtvGameDynamics):
        dyn = {"type": "ltv", "A": s.dynamics.A.tolist(), "B": s.dynamics.B.tolist(),
               "W": s.dynamics.W.tolist(), "x0": s.dynamics.x0.tolist()}
    else:
        nom = s.dynamics.nominal_inputs
        dyn = {"type": "unicycle",
               "initial_states": s.dynamics.initial_states.tolist(),
               "nominal_inputs": None if nom is None else nom.tolist(),
               "noise": {"matrix": s.dynamics.W.tolist()}}
    costs = [{"Q": c.Q.tolist(), "R": c.R.tolist(), "ref": c.ref.tolist()}
             for c in s.costs]
    cons = []
    for c in s.constraints:
        at = None if c.active_times is None else list(c.active_times)
        if c.kind == "box":
            cons.append({"type": "box",
                         "x_min": [None if math.isnan(v) else v for v in c.x_min],
                         "x_max": [None if math.isnan(v) else v for v in c.x_max],
                         "active_times": at})
        else:
            cons.append({"type": "collision", "pair": list(c.pair),
                         "radius": c.radius, "weight": c.C.tolist(),
                         "active_times": at})
    return {
        "agents": s.num_agents, "horizon": s.horizon, "dt": s.dt,
        "state_dims": list(s.state_dims), "dynamics": dyn, "costs": costs,
        "constraints": cons, "risk_epsilon": s.risk_epsilon, "seed": s.rng_seed,
    }


def save_scenario(s: Scenario, path):
    write_json(path, scenario_to_dict(s), indent=1)


def write_json(path, doc, indent=None):
    """Write ``doc`` as UTF-8 JSON with a final newline; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")
    return path


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text:.20} overflows a float")   # cut to 20 characters
    return value


def _float_sized_int(text):
    _finite_float(text)
    return int(text)


def _no_constant(text):
    raise ValueError(f"non-finite literal {text}")


def read_json(path):
    """The document in a UTF-8 JSON file; SchemaError when it is not one, or
    when it holds NaN, Infinity or a number that overflows a float."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"), parse_constant=_no_constant,
                              parse_float=_finite_float, parse_int=_float_sized_int)
    except ValueError as exc:    # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise SchemaError(f"{path}: not UTF-8 JSON with finite numbers ({exc})") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path))


def file_fingerprint(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
