"""Seeded Monte Carlo rollouts, safety statistics and the central-MPC baseline.

Noise is drawn from counter-based Philox streams keyed by (seed, sample
index).  A rollout is the expected trajectory plus each sample's deviation
from it, stepped by ``lqnash.fixed_order_sums`` with no BLAS call, so sample
s is bit-identical no matter how many samples are run, and zero noise keeps
the deviation at +0.  Safety is judged on realized states against the
original quadratic/box predicates, never the affine surrogates.  A predicate
counts as violated unless it holds, so a NaN it reads is a violation.  The
mask and the travel times are computed on blocks of SAFETY_BLOCK samples, so
that each gather reads a cache-sized slice of the sample-major batch, not the
whole of it; a sample's entries read only its own states, so no result depends
on the block size.  Within a block they add the nominal only at the entries
they gather (no absolute copy): per box spec, its constrained coordinates at
its active times and, per collision spec, the two agents' coordinates in C's
support, whose quadratic form ``lqnash.quadratic_sums`` sums in the order of
the einsum it replaced (see the ``lqnash`` docstring); costs go through the
same kernel.

A central-MPC call computes once the aggregate, its noise factors, its
stage gains, its lam = 0 policy, whose tail at tau is the reference policy
of a replan at tau, and, when a replan first violates a row, the zeta
response Psi.  Each replan time tau computes once, for all episodes, the
slice without its x0, its open-loop covariance, its constraint layout, the
tails of the gains and the reference policy, and that policy's mean map.
A replan contracts its lam = 0 mean from its state (the reference, at which
g is the map's ctilde) and fills the collision rows; if a row is violated,
it contracts the violated rows' alpha columns from Psi, whose forward pass
gives the LCP's columns and the policy at its solution (a further one runs
only for a column the pivot reads beyond them; never the full G), and
integrates that policy's mean.  No replan runs a zeta pass.  The first
episode to need shared work pays for it.  The plant steps its one state
with ``lqnash.closed_loop_step`` on the aggregate's stacked inputs.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import lqnash, uncertainty
from .dualascent import DualAscentOptions, PreparedGame, prepare_at_zero, run_dual_ascent
from .errors import AllSeedsFailed, CCGameError, DomainError, FactorizationFailure
from .model import BoxSpec, CollisionSpec, GameProblem, LtvGameDynamics, _freeze, _integer

WILSON_Z = 1.959963984540054   # 97.5 % quantile to 16 digits, not inverse_normal_cdf(0.975)
PSD_TOL = 1e-10
SAFETY_BLOCK = 256   # samples judged at once: a block of a batch's states stays in L2


def noise_factors(W):
    """Per-step factors L_t with L_t L_t' = W_t (eigen route tolerates PSD),
    from one stacked eigh; FactorizationFailure names the first indefinite step."""
    vals, vecs = np.linalg.eigh((W + np.swapaxes(W, 1, 2)) / 2.0)
    bad = vals[:, 0] < -PSD_TOL * np.maximum(1.0, np.max(np.abs(vals), axis=1))
    if bad.any():
        t = int(np.argmax(bad))
        raise FactorizationFailure(t, vals[t, 0])
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]


def noise_stream(seed, sample_index):
    """Sample s's own generator, Philox keyed by (seed, s) mod 2**64 as uint64 (numpy rounds
    a list's ints >= 2**63 to float64)."""
    key = np.array([int(seed) % 2**64, int(sample_index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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

    Sample s is x = xbar + e and u = ubar - K e: the expected trajectory and
    its inputs plus a deviation e_{t+1} = F_t e_t + L_t z_t from e_0 = 0, whose
    z, from the Philox stream keyed by (seed, s), is drawn into states[s, 1:]
    and overwritten by the step that reads it (see the module docstring); one
    generator draws them all, re-keyed in place: its unread state with key[1] = s.
    """
    dyn = problem.dyn
    T, N, n_x, n_u = problem.T, problem.N, problem.n_x, problem.n_u
    S = _integer(samples, "samples", 1, DomainError)
    seed = _integer(seed, "seed", error=DomainError)
    factors = noise_factors(dyn.W)
    xbar = lqnash.integrate_expected(dyn, policy)
    ubar = lqnash.mean_inputs(dyn, policy, xbar).reshape(T, -1, 1)

    try:    # numpy raises ValueError for an array too big to index
        states, inputs = np.empty((S, T + 1, n_x)), np.empty((S, T, N, n_u))
    except (ValueError, MemoryError) as exc:
        raise DomainError(f"samples: {S} rollouts cannot be allocated ({exc})") from None
    states[:, 0] = dyn.x0
    stream = noise_stream(seed, 0)
    state = stream.bit_generator.state     # unread: a zero counter and an empty buffer
    key = state["state"]["key"]
    for s in range(S):
        key[1] = s
        stream.bit_generator.state = state
        stream.standard_normal(out=states[s, 1:])
    e = np.zeros((n_x, S))
    for t in range(T):
        F = lqnash.closed_loop_matrix(dyn.A[t], dyn.B[t], policy.K[t])
        Ke = lqnash.fixed_order_sums((policy.K[t].reshape(-1, n_x), e))
        np.subtract(ubar[t], Ke, out=inputs.reshape(S, T, -1)[:, t].T)
        z = np.ascontiguousarray(states[:, t + 1].T)    # read once per nonzero of L_t
        e = lqnash.fixed_order_sums((F, e), (factors[t], z))
        np.add(xbar[t + 1, :, None], e, out=states[:, t + 1].T)
    del e, z, Ke    # they would live through the costs' temporaries
    costs = lqnash.realized_costs(problem, states, inputs)
    return RolloutBatch(states=states, inputs=inputs, costs=costs, seed=seed)


# ---------------------------------------------------------------------------
# Safety statistics


def wilson_interval(violations, n):
    """Wilson score interval of violations / n, exactly 0 and 1 at its ends."""
    z = WILSON_Z
    if n == 0:
        return 0.0, 1.0
    p = violations / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return (0.0 if violations == 0 else max(0.0, center - half),
            1.0 if violations == n else min(1.0, center + half))


def _violations_mask(problem: GameProblem, states):
    """(S,) bool for solver-coordinate states (S, T+1, n_x): any original
    predicate not satisfied at any active time (see the module docstring); a
    NaN bound is an unconstrained side of a box."""
    slices = problem.agent_slices
    bad = np.zeros(states.shape[0], dtype=bool)
    for spec in problem.constraints:
        times = np.array(spec.active_times, dtype=np.intp)[:, None]
        if isinstance(spec, BoxSpec):
            q = np.flatnonzero(~(np.isnan(spec.x_min) & np.isnan(spec.x_max)))
            vals = problem.to_absolute(states, times, q)
            lo, hi = spec.x_min[q], spec.x_max[q]
            ok = (np.isnan(lo) | (vals >= lo)) & (np.isnan(hi) | (vals <= hi))
            bad |= ~np.all(ok, axis=(1, 2))
        elif isinstance(spec, CollisionSpec):
            i, j = spec.pair
            nz = spec.C != 0
            sup = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
            with np.errstate(invalid="ignore"):     # inf - inf is a NaN distance
                d = (problem.to_absolute(states, times, slices[i].start + sup)
                     - problem.to_absolute(states, times, slices[j].start + sup))
            sq = lqnash.quadratic_sums(d.reshape(-1, 1, sup.size),
                                       spec.C[np.ix_(sup, sup)][None])
            bad |= ~np.all(sq.reshape(d.shape[:2]) >= spec.radius ** 2, axis=1)
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


def _travel_times(problem: GameProblem, states, tolerance=0.1):
    """``travel_time`` of solver-coordinate states (S, T+1, n_x)."""
    T = problem.T
    goals_abs = problem.to_absolute(problem.ref, T)
    within = np.ones(states.shape[:2], dtype=bool)
    for i in range(problem.N):
        idx = problem.position_indices(i)
        err = problem.to_absolute(states, cols=idx) - goals_abs[i, idx]
        within &= np.linalg.norm(err, axis=2) <= tolerance
    flagged = ~np.any(within, axis=1)
    return np.where(flagged, T * problem.dt, np.argmax(within, axis=1) * problem.dt), flagged


def travel_time(batch: RolloutBatch, problem: GameProblem, tolerance=0.1):
    """Per-sample first t*dt at which every agent is within goal tolerance.

    Samples that never arrive are recorded at T*dt and flagged.  Positions are
    the states plus the nominal at the position columns only (no absolute copy).
    Returns (times (S,), flagged (S,) bool).
    """
    return _travel_times(problem, batch.states, tolerance)


def _judge(problem: GameProblem, states):
    """(violations mask, travel times, flagged) of states (S, T+1, n_x), each
    SAFETY_BLOCK samples at a time; a sample's entries read only its own states."""
    blocks = (states[lo:lo + SAFETY_BLOCK] for lo in range(0, len(states), SAFETY_BLOCK))
    judged = [(_violations_mask(problem, b), *_travel_times(problem, b)) for b in blocks]
    return tuple(np.concatenate(parts) for parts in zip(*judged))


def evaluate_safety(batch: RolloutBatch, problem: GameProblem) -> SafetyStats:
    """Joint-violation counting over the original predicates plus cost stats."""
    bad, times, flagged = _judge(problem, batch.states)
    S = batch.samples
    violations = int(np.sum(bad))
    lo, hi = wilson_interval(violations, S)
    total = batch.costs.sum(axis=1)
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


class CentralPlanner:
    """What the replans of a central-MPC call share (see the module docstring).
    ``seconds`` times the gains and the lam = 0 pass until an episode pays
    it; ``shared_seconds`` times all the work the replans share."""

    def __init__(self, problem: GameProblem):
        self.factors = noise_factors(problem.dyn.W)
        self.agg = aggregate_problem(problem)
        t_start = time.perf_counter()
        self.gains = lqnash.stage_gains(self.agg)
        self.alpha0 = lqnash.backward_recursion(self.agg, gains=self.gains).alpha
        self.seconds = self.shared_seconds = time.perf_counter() - t_start
        self.at_tau = {}    # tau -> (x0-less slice, covariance, fill, gains, policy0, (Phi, d))

    @cached_property
    def psi(self):
        """The zeta response, built when a replan first reads a column."""
        t_start = time.perf_counter()
        psi = lqnash.zeta_response(self.agg, self.gains)
        self.shared_seconds += time.perf_counter() - t_start
        return psi

    def prepare(self, tau, x0) -> PreparedGame:
        """The game of a replan at tau from state x0."""
        if tau not in self.at_tau:
            t_start = time.perf_counter()
            sub = slice_problem(self.agg, tau, np.zeros(self.agg.n_x))
            cov = uncertainty.propagate_covariance(sub.dyn)
            policy0 = lqnash.FeedbackPolicy(K=self.gains.K[tau:], alpha=self.alpha0[tau:])
            self.at_tau[tau] = (sub, cov, uncertainty.constraint_layout(sub, cov),
                                self.gains.tail(tau), policy0,
                                lqnash.mean_map(sub.dyn, self.gains.F[tau:], policy0.alpha))
            self.shared_seconds += time.perf_counter() - t_start
        sub, cov, fill, gains, policy0, (Phi, d) = self.at_tau[tau]
        sub = replace(sub, dyn=replace(sub.dyn, x0=np.asarray(x0, dtype=float)))
        return prepare_at_zero(sub, cov, fill, gains, policy0, Phi @ sub.dyn.x0 + d,
                               lambda conset, cols: lqnash.response_alphas(
                                   self.psi[tau:, :, :, tau:], conset, cols))


@dataclass
class MpcRun:
    states: np.ndarray         # (T+1, n_x) solver coordinates
    inputs: np.ndarray         # (T, N, n_u)
    failures: list             # (step, error message)
    replans: int
    replans_with_active_rows: int   # replans whose multiplier is not 0
    solve_seconds: float       # its whole replans, and the planner if first to use it
    map_columns: int           # G columns its replans computed


def central_mpc_run(problem: GameProblem, seed, sample_index=0, replan_every=1,
                    options: DualAscentOptions | None = None,
                    planner: CentralPlanner | None = None) -> MpcRun:
    """One noisy receding-horizon episode of the aggregated single agent.

    Replans every ``replan_every`` steps over the remaining (shrinking)
    horizon; on a replan failure the previous plan keeps driving and the
    failure is recorded with its step index.  The planner (built here when
    not given) holds what a call and a replan time compute once; the module
    docstring says what a replan computes.
    """
    options = options or DualAscentOptions(k_max=500)
    replan_every = _integer(replan_every, "replan_every", 1, DomainError)
    seed = _integer(seed, "seed", error=DomainError)
    planner = CentralPlanner(problem) if planner is None else planner
    solve_seconds, planner.seconds = planner.seconds, 0.0    # the first episode pays
    dyn = problem.dyn
    T, N, n_x = problem.T, problem.N, problem.n_x
    z = noise_stream(seed, sample_index).standard_normal((T, n_x))

    states = np.zeros((T + 1, n_x))
    inputs = np.zeros((T, N, problem.n_u))
    states[0] = dyn.x0
    plan = None
    plan_offset = 0
    failures = []
    replans = active = columns = 0
    for t in range(T):
        if t % replan_every == 0:
            t_start = time.perf_counter()
            try:
                report = run_dual_ascent(planner.prepare(t, states[t]), options)
                plan, plan_offset = report.policy, t
                replans += 1
                active += bool(np.any(report.lambda_bar))
                columns += report.map_columns
                del report      # its rows and map would live through the next replan
                solve_seconds += time.perf_counter() - t_start
            except (CCGameError, np.linalg.LinAlgError) as exc:   # recorded and survived
                failures.append((t, f"{type(exc).__name__}: {exc}"))
                if plan is None:
                    raise
        u, states[t + 1] = lqnash.closed_loop_step(
            dyn.A[t], planner.agg.dyn.B[t, 0], plan.K[t - plan_offset],
            plan.alpha[t - plan_offset], states[t], planner.factors[t], z[t])
        inputs[t] = u.reshape(N, -1)
    return MpcRun(states=states, inputs=inputs, failures=failures, replans=replans,
                  replans_with_active_rows=active, solve_seconds=solve_seconds,
                  map_columns=columns)


def central_mpc(problem: GameProblem, seed, samples, replan_every=1,
                options: DualAscentOptions | None = None):
    """Seeded batch of MPC episodes; returns (RolloutBatch, failures, totals):
    the completed episodes' ``comp_seconds_per_step`` (seconds per replan),
    ``replans``, ``replans_with_active_rows`` (lam != 0), ``map_columns``
    (G columns computed) and the planner's ``planner_seconds`` (shared work).

    Episode s uses the same noise stream as rollout sample s, so game-policy
    and MPC statistics are paired across sample indices.  All episodes share
    one CentralPlanner (see the module docstring for what a call, a replan
    time and a replan compute).  A CCGameError or LinAlgError ends only its
    own episode; if every episode ends so, raises AllSeedsFailed.
    """
    S = _integer(samples, "samples", 1, DomainError)
    replan_every = _integer(replan_every, "replan_every", 1, DomainError)
    seed = _integer(seed, "seed", error=DomainError)
    good = []
    failures = []
    planner = None
    for s in range(S):
        try:
            planner = planner or CentralPlanner(problem)
            run = central_mpc_run(problem, seed, s, replan_every, options, planner)
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
                         seed=seed, method="central_mpc")
    # every completed episode planned at least once, at t = 0
    replans = sum(r.replans for r in good)
    return batch, failures, {
        "comp_seconds_per_step": sum(r.solve_seconds for r in good) / replans,
        "replans": replans,
        "replans_with_active_rows": sum(r.replans_with_active_rows for r in good),
        "map_columns": sum(r.map_columns for r in good),
        "planner_seconds": planner.shared_seconds}


# ---------------------------------------------------------------------------
# CSV output

STATS_HEADER = ["method", "samples", "seed", "cost_mean", "cost_std",
                "travel_mean_s", "collision_rate", "wilson_lo", "wilson_hi"]


def write_stats_csv(path, stats_rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=STATS_HEADER, lineterminator="\n")
        w.writeheader()
        w.writerows(r.csv_row() for r in stats_rows)


def dump_trajectories(dirpath, batch: RolloutBatch, problem: GameProblem, unicycle):
    """One CSV per sample; a unicycle scenario (``unicycle``, from its dynamics
    type) uses the t,agent,px,py,theta,v,a,omega schema, any other x0..,u0...
    An agent with fewer states than the widest leaves its missing x cells empty."""
    os.makedirs(dirpath, exist_ok=True)
    abs_states = problem.to_absolute(batch.states)
    abs_inputs = batch.inputs + problem.nominal_inputs[None, :, :, :]
    n_x_max, n_u = max(problem.state_dims), batch.inputs.shape[3]
    for s in range(batch.samples):
        lines = ["t,agent,px,py,theta,v,a,omega" if unicycle
                 else "t,agent," + ",".join(f"x{q}" for q in range(n_x_max))
                 + "," + ",".join(f"u{q}" for q in range(n_u))]
        for t in range(problem.T + 1):
            for i in range(problem.N):
                xs = [repr(float(v)) for v in abs_states[s, t, problem.agent_slices[i]]]
                us = abs_inputs[s, t - 1, i] if t >= 1 else np.zeros(n_u)
                vals = xs + [""] * (n_x_max - len(xs)) + [repr(float(v)) for v in us]
                lines.append(f"{t},{i}," + ",".join(vals))
        with open(os.path.join(dirpath, f"sample_{s:05d}.csv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
