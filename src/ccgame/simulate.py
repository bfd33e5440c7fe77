"""Seeded Monte Carlo rollouts, safety statistics and the central-MPC baseline.

Noise is drawn from counter-based Philox streams keyed by (seed, sample
index), so sample s is bit-identical no matter how many samples are run or
how they are batched.  Safety is judged on realized states against the
original quadratic/box predicates, never the affine surrogates.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import lqnash, uncertainty
from .dualascent import DualAscentOptions, PreparedGame, run_dual_ascent
from .errors import AllSeedsFailed, CCGameError, DomainError, FactorizationFailure
from .model import BoxSpec, CollisionSpec, GameProblem, LtvGameDynamics, _freeze

WILSON_Z = 1.959963984540054   # inverse_normal_cdf(0.975)
PSD_TOL = 1e-10
ROLLOUT_CHUNK = 256    # samples advanced together; bounds the batch temporaries


def noise_factors(W):
    """Per-step factors L_t with L_t L_t' = W_t (eigen route tolerates PSD)."""
    T = W.shape[0]
    out = np.zeros_like(W)
    for t in range(T):
        sym = (W[t] + W[t].T) / 2.0
        vals, vecs = np.linalg.eigh(sym)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if vals[0] < -PSD_TOL * scale:
            raise FactorizationFailure(t, vals[0])
        out[t] = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    return out


def noise_stream(seed, sample_index):
    """The sample's own counter-based generator, Philox keyed by (seed, s)."""
    key = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(sample_index) & 0xFFFFFFFFFFFFFFFF]
    return np.random.Generator(np.random.Philox(key=key))


def _positive(name, value):
    if int(value) < 1:
        raise DomainError(f"{name} must be at least 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class RolloutBatch:
    """Closed-loop sample trajectories in solver coordinates."""

    states: np.ndarray   # (S, T+1, n_x)
    inputs: np.ndarray   # (S, T, N, n_u)
    costs: np.ndarray    # (S, N) realized per-player cost
    seed: int
    method: str = "lqg_game"

    def __post_init__(self):
        for name in ("states", "inputs", "costs"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def samples(self):
        return self.states.shape[0]


def rollout(problem: GameProblem, policy: lqnash.FeedbackPolicy, seed,
            samples) -> RolloutBatch:
    """S independent seeded rollouts of the feedback policy under the noise model.

    Sample s draws from its own Philox stream keyed by (seed, s), and samples
    advance ROLLOUT_CHUNK at a time through lqnash.closed_loop_step, the step
    integrate_expected takes.  So sample s is bit-identical for any number of
    samples, and zero noise reproduces the expected trajectory exactly.
    """
    dyn = problem.dyn
    T, N, n_x, n_u = problem.T, problem.N, problem.n_x, problem.n_u
    S = _positive("samples", samples)
    factors = noise_factors(dyn.W)

    states = np.empty((S, T + 1, n_x))
    states[:, 0] = dyn.x0
    inputs = np.empty((S, T, N, n_u))
    z = np.empty((min(S, ROLLOUT_CHUNK), T, n_x))
    for lo in range(0, S, ROLLOUT_CHUNK):
        hi = min(S, lo + ROLLOUT_CHUNK)
        for k in range(hi - lo):
            noise_stream(seed, lo + k).standard_normal(out=z[k])
        x = states[lo:hi, 0]
        for t in range(T):
            inputs[lo:hi, t], x = lqnash.closed_loop_step(
                dyn.A[t], dyn.B[t], policy.K[t], policy.alpha[t], x,
                factors[t], z[:hi - lo, t])
            states[lo:hi, t + 1] = x
    costs = lqnash.realized_costs(problem, states, inputs)
    return RolloutBatch(states=states, inputs=inputs, costs=costs, seed=int(seed))


# ---------------------------------------------------------------------------
# Safety statistics


def wilson_interval(violations, n, z=WILSON_Z):
    if n == 0:
        return 0.0, 1.0
    p = violations / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _violations_mask(problem: GameProblem, abs_states):
    """(S,) bool: any original predicate violated at any active time."""
    slices = problem.agent_slices
    bad = np.zeros(abs_states.shape[0], dtype=bool)
    for spec in problem.constraints:
        times = list(spec.active_times)
        if isinstance(spec, BoxSpec):
            for q, side, bound in spec.rows():
                vals = abs_states[:, times, q]
                if side == "upper":
                    bad |= np.any(vals > bound, axis=1)
                else:
                    bad |= np.any(vals < bound, axis=1)
        elif isinstance(spec, CollisionSpec):
            i, j = spec.pair
            d = abs_states[:, times, slices[i]] - abs_states[:, times, slices[j]]
            sq = np.einsum("sta,ab,stb->st", d, spec.C, d)
            bad |= np.any(sq < spec.radius ** 2, axis=1)
    return bad


@dataclass(frozen=True)
class SafetyStats:
    method: str
    samples: int
    seed: int
    violations: int
    rate: float
    wilson_lo: float
    wilson_hi: float
    cost_mean: float
    cost_std: float
    travel_mean_s: float
    travel_flagged: int

    def csv_row(self):
        return {
            "method": self.method, "samples": self.samples, "seed": self.seed,
            "cost_mean": self.cost_mean, "cost_std": self.cost_std,
            "travel_mean_s": self.travel_mean_s, "collision_rate": self.rate,
            "wilson_lo": self.wilson_lo, "wilson_hi": self.wilson_hi,
        }


def travel_time(batch: RolloutBatch, problem: GameProblem, tolerance=0.1):
    """Per-sample first t*dt at which every agent is within goal tolerance.

    Samples that never arrive are recorded at T*dt and flagged.
    Returns (times (S,), flagged (S,) bool).
    """
    abs_states = problem.to_absolute(batch.states)
    T = problem.T
    S = batch.samples
    goals_abs = problem.ref[:, T, :] + problem.nominal_states[T][None, :]
    within = np.ones((S, T + 1), dtype=bool)
    for i in range(problem.N):
        idx = problem.position_indices(i)
        err = abs_states[:, :, idx] - goals_abs[i, idx][None, None, :]
        within &= np.linalg.norm(err, axis=2) <= tolerance
    times = np.full(S, T * problem.dt)
    flagged = np.ones(S, dtype=bool)
    any_within = np.any(within, axis=1)
    first = np.argmax(within, axis=1)
    times[any_within] = first[any_within] * problem.dt
    flagged[any_within] = False
    return times, flagged


def evaluate_safety(batch: RolloutBatch, problem: GameProblem,
                    goal_tolerance=0.1) -> SafetyStats:
    """Joint-violation counting over the original predicates plus cost stats."""
    abs_states = problem.to_absolute(batch.states)
    bad = _violations_mask(problem, abs_states)
    S = batch.samples
    violations = int(np.sum(bad))
    lo, hi = wilson_interval(violations, S)
    total = batch.costs.sum(axis=1)
    times, flagged = travel_time(batch, problem, goal_tolerance)
    return SafetyStats(
        method=batch.method, samples=S, seed=batch.seed,
        violations=violations, rate=violations / S,
        wilson_lo=lo, wilson_hi=hi,
        cost_mean=float(np.mean(total)),
        cost_std=float(np.std(total, ddof=1)) if S > 1 else 0.0,
        travel_mean_s=float(np.mean(times)),
        travel_flagged=int(np.sum(flagged)),
    )


# ---------------------------------------------------------------------------
# Central MPC baseline (single aggregated agent, receding horizon)


def slice_problem(problem: GameProblem, tau, x0) -> GameProblem:
    """Remaining-horizon subproblem starting at absolute time tau with state x0."""
    dyn = problem.dyn
    sub_dyn = LtvGameDynamics(A=dyn.A[tau:], B=dyn.B[tau:], W=dyn.W[tau:],
                              x0=np.asarray(x0, dtype=float))
    Q = np.array(problem.Q[:, tau:])
    Q[:, 0] = 0.0                      # the replan-time state is known
    ref = np.array(problem.ref[:, tau:])
    ref[:, 0] = 0.0
    cons = []
    for spec in problem.constraints:
        shifted = tuple(t - tau for t in spec.active_times if t >= tau + 1)
        if not shifted:
            continue
        cons.append(replace(spec, active_times=shifted))
    return replace(problem, dyn=sub_dyn, Q=Q, R=problem.R[:, tau:], ref=ref,
                   constraints=tuple(cons), nominal_states=problem.nominal_states[tau:],
                   nominal_inputs=problem.nominal_inputs[tau:])


def aggregate_problem(problem: GameProblem) -> GameProblem:
    """Treat all agents as one: stacked inputs, summed cost, shared constraints."""
    dyn = problem.dyn
    T, N, n_x, n_u = problem.T, problem.N, problem.n_x, problem.n_u
    B = np.transpose(dyn.B, (0, 2, 1, 3)).reshape(T, 1, n_x, N * n_u)
    R = np.zeros((1, T, N * n_u, N * n_u))
    for i in range(N):
        R[0, :, i * n_u:(i + 1) * n_u, i * n_u:(i + 1) * n_u] = problem.R[i]
    Q = problem.Q.sum(axis=0, keepdims=True)
    ref = np.zeros((1, T + 1, n_x))
    for t in range(1, T + 1):
        rhs = np.einsum("iab,ib->a", problem.Q[:, t], problem.ref[:, t])
        ref[0, t] = np.linalg.lstsq(Q[0, t], rhs, rcond=None)[0]
    return replace(problem, dyn=replace(dyn, B=B), Q=Q, R=R, ref=ref,
                   nominal_inputs=problem.nominal_inputs.reshape(T, 1, N * n_u))


def _prepare_subgame(problem_agg: GameProblem, gains=None) -> PreparedGame:
    cov = uncertainty.propagate_covariance(problem_agg.dyn)
    policy0 = lqnash.backward_recursion(problem_agg, gains=gains)
    dev = lqnash.integrate_expected(problem_agg.dyn, policy0)
    reference = problem_agg.nominal_states + dev
    conset = uncertainty.assemble_constraints(problem_agg, cov, reference)
    return PreparedGame(problem=problem_agg, cov=cov, conset=conset,
                        reference_means=_freeze(np.asarray(reference)),
                        gains=gains)


@dataclass
class MpcRun:
    states: np.ndarray         # (T+1, n_x) solver coordinates
    inputs: np.ndarray         # (T, N, n_u)
    failures: list             # (step, error message)
    replans: int
    solve_seconds: float       # the episode's stage gains and its whole replans


def central_mpc_run(problem: GameProblem, seed, sample_index=0, replan_every=1,
                    options: DualAscentOptions | None = None) -> MpcRun:
    """One noisy receding-horizon episode of the aggregated single agent.

    Replans every ``replan_every`` steps over the remaining (shrinking)
    horizon; on a replan failure the previous plan keeps driving and the
    failure is recorded with its step index.  The problem is aggregated
    and its stage gains computed once; each replan slices the aggregate at
    its time and state, and solves on the tail of those gains.
    """
    options = options or DualAscentOptions(k_max=500)
    replan_every = _positive("replan_every", replan_every)
    dyn = problem.dyn
    T, N, n_x = problem.T, problem.N, problem.n_x
    factors = noise_factors(dyn.W)
    agg = aggregate_problem(problem)
    t_start = time.perf_counter()
    gains = lqnash.stage_gains(agg)
    solve_seconds = time.perf_counter() - t_start
    z = noise_stream(seed, sample_index).standard_normal((T, n_x))

    states = np.zeros((T + 1, n_x))
    inputs = np.zeros((T, N, problem.n_u))
    states[0] = dyn.x0
    plan = None
    plan_offset = 0
    failures = []
    replans = 0
    for t in range(T):
        if t % replan_every == 0 or plan is None:
            t_start = time.perf_counter()
            try:
                prepared = _prepare_subgame(slice_problem(agg, t, states[t]),
                                            gains.tail(t))
                plan = run_dual_ascent(prepared, options).policy
                plan_offset = t
                replans += 1
                solve_seconds += time.perf_counter() - t_start
            except (CCGameError, np.linalg.LinAlgError) as exc:   # recorded and survived
                failures.append((t, f"{type(exc).__name__}: {exc}"))
                if plan is None:
                    raise
        u, x = lqnash.closed_loop_step(
            dyn.A[t], dyn.B[t], plan.K[t - plan_offset], plan.alpha[t - plan_offset],
            states[t:t + 1], factors[t], z[t:t + 1])
        inputs[t], states[t + 1] = u[0], x[0]
    return MpcRun(states=states, inputs=inputs, failures=failures,
                  replans=replans, solve_seconds=solve_seconds)


def central_mpc(problem: GameProblem, seed, samples, replan_every=1,
                options: DualAscentOptions | None = None):
    """Seeded batch of MPC episodes; returns (RolloutBatch, failures, seconds/step).

    Episode s uses the same noise stream as rollout sample s, so game-policy
    and MPC statistics are paired across sample indices.  A CCGameError or
    LinAlgError ends only its own episode; if every episode ends so, raises
    AllSeedsFailed.
    """
    S = _positive("samples", samples)
    replan_every = _positive("replan_every", replan_every)
    good = []
    failures = []
    for s in range(S):
        try:
            run = central_mpc_run(problem, seed, s, replan_every, options)
        except (CCGameError, np.linalg.LinAlgError) as exc:   # per-seed failure, recorded
            failures.append((s, 0, f"{type(exc).__name__}: {exc}"))
            continue
        good.append(run)
        failures.extend((s, step, msg) for step, msg in run.failures)
    if not good:
        raise AllSeedsFailed(f"all {S} MPC seeds failed; first: {failures[0][2]}")
    states = np.stack([r.states for r in good])
    inputs = np.stack([r.inputs for r in good])
    costs = lqnash.realized_costs(problem, states, inputs)
    batch = RolloutBatch(states=states, inputs=inputs, costs=costs,
                         seed=int(seed), method="central_mpc")
    # every completed episode planned at least once, at t = 0
    sec_per_step = sum(r.solve_seconds for r in good) / sum(r.replans for r in good)
    return batch, failures, sec_per_step


# ---------------------------------------------------------------------------
# CSV output

STATS_HEADER = ["method", "samples", "seed", "cost_mean", "cost_std",
                "travel_mean_s", "collision_rate", "wilson_lo", "wilson_hi"]


def format_stats_row(row: dict) -> str:
    return ",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k])
                    for k in STATS_HEADER)


def write_stats_csv(path, stats_rows):
    lines = [",".join(STATS_HEADER)]
    lines += [format_stats_row(r.csv_row() if isinstance(r, SafetyStats) else r)
              for r in stats_rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def dump_trajectories(dirpath, batch: RolloutBatch, problem: GameProblem):
    """One CSV per sample; unicycle scenarios use the t,agent,px,py,theta,v,a,omega schema."""
    os.makedirs(dirpath, exist_ok=True)
    abs_states = problem.to_absolute(batch.states)
    abs_inputs = batch.inputs + problem.nominal_inputs[None, :, :, :]
    unicycle = all(d == 4 for d in problem.state_dims) and batch.inputs.shape[3] == 2
    for s in range(batch.samples):
        lines = ["t,agent,px,py,theta,v,a,omega" if unicycle
                 else "t,agent," + ",".join(f"x{q}" for q in range(max(problem.state_dims)))
                 + "," + ",".join(f"u{q}" for q in range(batch.inputs.shape[3]))]
        for t in range(problem.T + 1):
            for i in range(problem.N):
                sl = problem.agent_slices[i]
                xs = abs_states[s, t, sl]
                us = abs_inputs[s, t - 1, i] if t >= 1 else np.zeros(batch.inputs.shape[3])
                vals = [repr(float(v)) for v in list(xs) + list(us)]
                lines.append(f"{t},{i}," + ",".join(vals))
        with open(os.path.join(dirpath, f"sample_{s:05d}.csv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
