"""Seeded Monte Carlo rollouts, safety statistics and the central-MPC baseline,
returned as values: the CLI writes their files.

Noise is drawn from counter-based Philox streams keyed by (seed, sample index),
into a buffer of DRAW_BLOCK samples copied into a rollout's sample-last memory,
(T+1, n_x, S) states and (T, N n_u, S) inputs seen as (S, ...) views, where the
step that reads a row overwrites it.  A rollout is the expected trajectory plus
each sample's deviation from it, stepped row by row by
``lqnash.fixed_order_sums`` with no BLAS call, so sample s is bit-identical no
matter how many samples are run, and zero noise keeps the deviation at +0.
Safety is judged on realized states against the original quadratic/box
predicates, never the affine surrogates.  A predicate counts as violated unless
it holds, so a NaN it reads is a violation.  The mask and the travel times are
computed on blocks of SAFETY_BLOCK samples, so that each gather reads a
cache-sized slice of each row of the batch, not the whole of it; a sample's
entries read only its own states, so no result depends on the block size or
layout.  Within a block they add the nominal only at the entries they gather
(no absolute copy): per box spec, its constrained coordinates at its active
times and, per collision spec, the two agents' coordinates in C's support,
whose quadratic form ``lqnash.quadratic_sums`` sums in the order of the einsum
it replaced (see the ``lqnash`` docstring); costs go through the same kernel.

A central-MPC call's ``CentralPlanner`` holds its problem and replan cadence,
and its constructor computes once the aggregate, its noise factors, in one
sweep (``lqnash.zeta_response``) its stage gains with the lam = 0 policy's
affine terms, whose tail at tau is the reference policy of a replan at tau,
and the zeta response Psi, in one pass over the horizon each replan time's
open-loop covariance and that policy's transition products [Phi | d],
and from that covariance, which it then drops, every replan time's row layout
(``uncertainty.constraint_layout``).  A slice keeps every constraint, one that
has ended with no active time; tau's first game builds it and its gains and
lam = 0 policy tails.  A bad risk allocation fails every episode's replan at its
replan time and no other.  The episodes of a call advance in lockstep, and at
a replan time one ``screen`` per SCREEN_BLOCK episodes contracts their lam = 0
means Phi x0 + d (the references, at which g is the map's ctilde), fills their
collision rows and evaluates their ctilde, each stacked and bit for bit as at
S = 1; every episode starts at x0, so t = 0 is screened and solved once.  An
episode that violates no row takes the lam = 0 alpha tail.  For those that do,
the block's first game contracts all their violated rows' alpha columns from
its block of Psi and runs one forward pass stacked by episode, which gives
each one's LCP columns, held by its game, and its policy at its solution (a
further pass runs only for a column the pivot reads beyond them; never the
full G).  No replan runs a zeta pass or integrates a mean, and a
DegenerateReference names the episode's step.  A replan's gains are the
planner's tail whatever its lam or x0, so a plan is its alpha, written from its
replan time on, and the plant steps every episode's state at once on the
planner's gains, each as alone (``lqnash.closed_loop_step``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import lqnash, uncertainty
from .dualascent import DualAscentOptions, PreparedGame, run_dual_ascent
from .errors import AllSeedsFailed, CCGameError, DomainError, FactorizationFailure
from .model import BoxSpec, CollisionSpec, GameProblem, LtvGameDynamics, _integer

WILSON_Z = 1.959963984540054   # 97.5 % quantile to 16 digits, not inverse_normal_cdf(0.975)
PSD_TOL = 1e-10
SAFETY_BLOCK = 256   # samples judged at once: a block of a batch's states stays in L2
DRAW_BLOCK = 16      # samples whose noise is drawn into one buffer, then copied sample-last
GOAL_TOLERANCE = 0.1   # distance to the goal position at which an agent has arrived
SCREEN_BLOCK = 128   # MPC episodes screened at once: a block's rows are (SCREEN_BLOCK, M, n_x)


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
    """Closed-loop sample trajectories in solver coordinates, held as read-only views
    of the arrays given, in their layout: a rollout's states and inputs view sample-last memory."""

    states: np.ndarray   # (S, T+1, n_x)
    inputs: np.ndarray   # (S, T, N, n_u)
    costs: np.ndarray    # (S, N) realized per-player cost
    seed: int
    method: str = "lqg_game"

    def __post_init__(self):    # read-only views in the given layout: no copy
        for name in ("states", "inputs", "costs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).view())
            getattr(self, name).setflags(write=False)

    @property
    def samples(self):
        return self.states.shape[0]


def _sample_arrays(problem: GameProblem, S, sample_last=False):
    """S samples' states (S, T+1, n_x), written at x0 only, and inputs (S, T, N, n_u);
    with ``sample_last``, views of (T+1, n_x, S) and (T, N, n_u, S) memory."""
    T, N, n_x, n_u = problem.T, problem.N, problem.n_x, problem.n_u
    try:    # numpy raises ValueError for an array too big to index
        states, inputs = (np.moveaxis(np.empty(shape[1:] + shape[:1]), -1, 0) if sample_last
                          else np.empty(shape) for shape in ((S, T + 1, n_x), (S, T, N, n_u)))
    except (ValueError, MemoryError) as exc:
        raise DomainError(f"samples: {S} rollouts cannot be allocated ({exc})") from None
    states[:, 0] = problem.dyn.x0
    return states, inputs


def rollout(problem: GameProblem, policy: lqnash.FeedbackPolicy, seed,
            samples) -> RolloutBatch:
    """S independent seeded rollouts of the feedback policy under the noise model.

    Sample s is x = xbar + e and u = ubar - K e: the expected trajectory and
    its inputs plus a deviation e_{t+1} = F_t e_t + L_t z_t from e_0 = 0, whose
    z, from the Philox stream keyed by (seed, s), goes via a block buffer into
    states[s, 1:] and is overwritten by the step that reads it (module docstring); one
    generator draws them all, re-keyed in place: its unread state with key[1] = s.
    """
    dyn = problem.dyn
    T, n_x = problem.T, problem.n_x
    S = _integer(samples, "samples", 1, DomainError)
    seed = _integer(seed, "seed", error=DomainError)
    factors = noise_factors(dyn.W)
    xbar = lqnash.integrate_expected(dyn, policy)
    ubar = lqnash.mean_inputs(dyn, policy, xbar).reshape(T, -1, 1)
    states, inputs = _sample_arrays(problem, S, sample_last=True)
    stream = noise_stream(seed, 0)
    state = stream.bit_generator.state     # unread: a zero counter and an empty buffer
    state["state"] = {k: v.tolist() for k, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()     # Python ints set a state faster than arrays
    key = state["state"]["key"]
    draws = np.empty((min(S, DRAW_BLOCK), T, n_x))     # out= must be C-contiguous
    for lo in range(0, S, len(draws)):
        for s in range(lo, min(lo + len(draws), S)):
            key[1] = s
            stream.bit_generator.state = state
            stream.standard_normal(out=draws[s - lo])
        states[lo:lo + len(draws), 1:] = draws[:S - lo]
    e = np.zeros((n_x, S))
    for t in range(T):
        F = lqnash.closed_loop_matrix(dyn.A[t], dyn.B[t], policy.K[t])
        Ke = lqnash.fixed_order_sums((policy.K[t].reshape(-1, n_x), e))
        np.subtract(ubar[t], Ke, out=inputs.reshape(S, T, -1)[:, t].T)
        e = lqnash.fixed_order_sums((F, e), (factors[t], states[:, t + 1].T))
        np.add(xbar[t + 1, :, None], e, out=states[:, t + 1].T)
    del draws, e, Ke    # they would live through the costs' temporaries
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


def travel_time(problem: GameProblem, states):
    """Per-sample first t*dt at which every agent of solver-coordinate states
    (S, T+1, n_x) is within GOAL_TOLERANCE of its goal position.

    Samples that never arrive are recorded at T*dt and flagged.  Positions are
    the states plus the nominal at the position columns only (no absolute copy).
    Returns (times (S,), flagged (S,) bool).
    """
    T = problem.T
    goals_abs = problem.to_absolute(problem.ref, T)
    within = np.ones(states.shape[:2], dtype=bool)
    for i in range(problem.N):
        idx = problem.position_indices(i)
        err = problem.to_absolute(states, cols=idx) - goals_abs[i, idx]
        within &= np.linalg.norm(err, axis=2) <= GOAL_TOLERANCE
    flagged = ~np.any(within, axis=1)
    return np.where(flagged, T * problem.dt, np.argmax(within, axis=1) * problem.dt), flagged


def _judge(problem: GameProblem, states):
    """(violations mask, travel times, flagged) of states (S, T+1, n_x), each
    SAFETY_BLOCK samples at a time; a sample's entries read only its own states."""
    blocks = (states[lo:lo + SAFETY_BLOCK] for lo in range(0, len(states), SAFETY_BLOCK))
    judged = [(_violations_mask(problem, b), *travel_time(problem, b)) for b in blocks]
    return tuple(np.concatenate(parts) for parts in zip(*judged))


def evaluate_safety(batch: RolloutBatch, problem: GameProblem) -> SafetyStats:
    """Joint-violation counting over the original predicates plus cost stats."""
    bad, times, flagged = _judge(problem, batch.states)
    S = batch.samples
    violations = int(np.sum(bad))
    lo, hi = wilson_interval(violations, S)
    total = batch.costs.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        cost = float(np.mean(total)), float(np.std(total, ddof=1)) if S > 1 else 0.0
    if not np.isfinite(cost).all():
        raise DomainError(f"cost statistics overflow (mean {cost[0]}, std {cost[1]})")
    return SafetyStats(
        method=batch.method, samples=S, seed=batch.seed,
        violations=violations, rate=violations / S,
        wilson_lo=lo, wilson_hi=hi, cost_mean=cost[0], cost_std=cost[1],
        travel_mean_s=float(np.mean(times)),
        travel_flagged=int(np.sum(flagged)),
    )


# ---------------------------------------------------------------------------
# Central MPC baseline (single aggregated agent, receding horizon)


def slice_problem(problem: GameProblem, tau, x0) -> GameProblem:
    """Remaining-horizon subproblem starting at absolute time tau with state x0.
    It keeps every constraint; one that ends by tau has no active time left."""
    dyn = problem.dyn
    sub_dyn = LtvGameDynamics(A=dyn.A[tau:], B=dyn.B[tau:], W=dyn.W[tau:],
                              x0=np.asarray(x0, dtype=float))
    Q = np.array(problem.Q[:, tau:])
    Q[:, 0] = 0.0                      # the replan-time state is known
    ref = np.array(problem.ref[:, tau:])
    ref[:, 0] = 0.0
    cons = [replace(spec, active_times=tuple(t - tau for t in spec.active_times if t > tau))
            for spec in problem.constraints]
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
    for t in 1 + np.flatnonzero(Q[0, 1:].any(axis=(1, 2))):   # steps Q weighs; others' stay +0
        rhs = np.einsum("iab,ib->a", problem.Q[:, t], problem.ref[:, t])
        ref[0, t] = np.linalg.lstsq(Q[0, t], rhs, rcond=None)[0]
    return replace(problem, dyn=replace(dyn, B=B), Q=Q, R=R, ref=ref,
                   nominal_inputs=problem.nominal_inputs.reshape(T, 1, N * n_u))


class CentralPlanner:
    """A call's problem, its replan times 0, replan_every, ... and what its episodes share,
    but no row table or covariance: ``fill`` gives a replan time's rows.  ``seconds``
    times the constructor's work; ``shared_seconds`` all the work the replans share."""

    def __init__(self, problem: GameProblem, replan_every=1):
        self.problem = problem
        self.replan_every = _integer(replan_every, "replan_every", 1, DomainError)
        self.factors = noise_factors(problem.dyn.W)
        self.agg = aggregate_problem(problem)
        t_start = time.perf_counter()
        self.gains, self.psi = lqnash.zeta_response(self.agg)
        dyn, T = self.agg.dyn, self.agg.T

        def transitions(t, Z):   # [Phi | d] from [I | 0]: F_t [Phi | d] - [0 | B_t alpha0_t]
            Z = self.gains.F[t] @ Z
            Z[..., -1] -= np.einsum("iab,ib->a", dyn.B[t], self.gains.alpha0[t])
            return Z
        starts = range(0, T, self.replan_every)
        (cov, _), (_, products) = uncertainty.horizon_pass(
            T, starts, uncertainty.covariance_step(dyn.A, dyn.W),
            (np.eye(self.agg.n_x, self.agg.n_x + 1), transitions))
        self.transitions = dict(zip(starts, products))
        self.fill = uncertainty.constraint_layout(self.agg, cov, starts)
        self.seconds = self.shared_seconds = time.perf_counter() - t_start
        self.at_tau = {}    # tau -> (x0-less slice, gains), on its first game

    def screen(self, tau, x0s):
        """Replans at tau from states x0s (S, n_x) before any solve: whether each one's
        lam = 0 mean violates a row (S,), the DegenerateReference of each one whose rows
        cannot be filled (the fill names its step tau + t), and ``game(k)``, episode k's
        game, whose rows are the fill's.  One that violates no row takes ``alpha0[tau:]``.
        Tau's first game builds its slice, and the first game with a row above 0 one
        ``affine_response`` pass of all the episodes' such columns, which their games hold."""
        Z = self.transitions[tau]
        means = (Z[None, ..., :-1] @ x0s[:, None, :, None])[..., 0] + Z[..., -1]
        steps, source, l, c, degenerate = self.fill(tau, self.agg.nominal_states[tau:] + means)
        ctilde = np.einsum("smi,smi->sm", l, means[:, steps]) + c
        hot, psi, passed = ctilde > 0.0, self.psi[tau:, :, :, tau:], {}   # hot: rows above 0

        def game(k):
            if tau not in self.at_tau:
                t_start = time.perf_counter()
                self.at_tau[tau] = (slice_problem(self.agg, tau, np.zeros(self.agg.n_x)),
                                    self.gains.tail(tau))
                self.shared_seconds += time.perf_counter() - t_start
            sub, gains = self.at_tau[tau]
            conset = uncertainty.AffineConstraintSet(steps, source, l[k], c[k], sub.T)
            if hot[k].any() and not passed:     # the block's one pass, at its first solve
                entries = [np.flatnonzero(h).tolist() for h in hot]     # side by side: hot's order
                a = lqnash.response_alphas(psi, steps[np.nonzero(hot)[1]], l[hot])
                out = lqnash.affine_response(sub, conset, gains, entries, a, l)
                passed.update(enumerate(dict(zip(cols, zip(G.T, alphas)))
                                        for cols, (G, alphas) in zip(entries, out)))
            return PreparedGame(
                problem=replace(sub, dyn=replace(sub.dyn, x0=x0s[k])), conset=conset,
                gains=gains, mean0=means[k], psi=psi, columns=passed.get(k))
        return ~np.all(ctilde <= 0.0, axis=1), degenerate, game   # a NaN violates


@dataclass
class MpcRun:
    states: np.ndarray         # (S, T+1, n_x) solver coordinates
    inputs: np.ndarray         # (S, T, N, n_u)
    failures: list             # (sample index, step, error message) of failed replans
    replans: int
    replans_with_active_rows: int   # replans whose multiplier is not 0
    solve_seconds: float       # the wall time of its replans
    map_columns: int           # G columns its replans computed


def central_mpc_run(planner: CentralPlanner, seed, sample_indices,
                    options: DualAscentOptions | None = None) -> MpcRun:
    """Noisy receding-horizon episodes of the planner's aggregated single agent in
    lockstep, one per noise stream index of ``sample_indices``.

    Episodes replan at the planner's replan times over the remaining (shrinking)
    horizon, as the module docstring says.  The replan at t = 0, every episode's, is
    solved once and counted once per episode, and its failure raises.  On a later
    replan failure the previous plan keeps driving and the failure is recorded with
    its step; one in a screen's shared work is each of its episodes'.
    """
    options = options or DualAscentOptions(k_max=500)
    seed = _integer(seed, "seed", error=DomainError)
    try:    # len() overflows past 2**63 - 1
        S = len(sample_indices)
    except OverflowError:
        S = 0
    if S == 0:
        raise DomainError(f"sample_indices: expected 1 to 2**63 - 1 indices, "
                          f"got {sample_indices!r}")
    problem, dyn = planner.problem, planner.problem.dyn
    T, N, n_x = problem.T, problem.N, problem.n_x
    states, inputs = _sample_arrays(problem, S)
    indices = list(sample_indices)
    z = np.stack([noise_stream(seed, s).standard_normal((T, n_x)) for s in indices])
    alphas = np.empty((S, *planner.gains.alpha0.shape))   # the plans: affine terms on gains.K
    failures = []

    def replan(k, t, screened, b):   # episode(s) k from t by entry b: (active, columns)
        violated, errors, game = screened
        if b in errors:
            raise errors[b]
        if not violated[b]:
            alphas[k, t:] = planner.gains.alpha0[t:]
            return 0, 0
        report = run_dual_ascent(game(b), options)
        alphas[k, t:] = report.policy.alpha
        return bool(np.any(report.lambda_bar)), report.map_columns

    t_start = time.perf_counter()
    active, columns = (S * n for n in replan(slice(None), 0, planner.screen(0, dyn.x0[None]), 0))
    replans, solve_seconds = S, time.perf_counter() - t_start
    for t in range(T):
        if t and t % planner.replan_every == 0:
            t_start = time.perf_counter()
            for k in range(S):
                b = k % SCREEN_BLOCK
                if b == 0:
                    try:
                        screened = planner.screen(t, states[k:k + SCREEN_BLOCK, t])
                    except (CCGameError, np.linalg.LinAlgError) as exc:   # each one's failure
                        screened = None, dict.fromkeys(range(SCREEN_BLOCK), exc), None
                try:
                    a, c = replan(k, t, screened, b)
                    replans, active, columns = replans + 1, active + a, columns + c
                except (CCGameError, np.linalg.LinAlgError) as exc:   # recorded and survived
                    failures.append((indices[k], t, f"{type(exc).__name__}: {exc}"))
            screened = None     # its block's rows would live through the next screen
            solve_seconds += time.perf_counter() - t_start
        u, states[:, t + 1] = lqnash.closed_loop_step(
            dyn.A[t], planner.agg.dyn.B[t, 0], planner.gains.K[t], alphas[:, t],
            states[:, t], planner.factors[t], z[:, t])
        inputs[:, t] = u.reshape(S, N, -1)
    failures.sort(key=lambda f: f[:2])
    return MpcRun(states=states, inputs=inputs, failures=failures, replans=replans,
                  replans_with_active_rows=active, solve_seconds=solve_seconds,
                  map_columns=columns)


def central_mpc(problem: GameProblem, seed, samples, replan_every=1,
                options: DualAscentOptions | None = None):
    """Seeded batch of MPC episodes; returns (RolloutBatch, failures, totals):
    the episodes' ``comp_seconds_per_step`` (seconds per replan, the planner's
    constructor counted once),
    ``replans``, ``replans_with_active_rows`` (lam != 0), ``map_columns``
    (G columns computed) and the planner's ``planner_seconds`` (shared work).

    Episode s uses the same noise stream as rollout sample s, so game-policy
    and MPC statistics are paired across sample indices.  All episodes share
    one CentralPlanner and advance in lockstep (``central_mpc_run``; the module
    docstring says what a call, a replan time and a replan compute).  A
    CCGameError or LinAlgError of a later replan is recorded in ``failures`` and
    its episode's previous plan drives on; one of the planner or of the shared
    start at t = 0 is every episode's and raises AllSeedsFailed.  A bad
    ``replan_every`` or ``samples`` raises before any episode.
    """
    S = _integer(samples, "samples", 1, DomainError)
    replan_every = _integer(replan_every, "replan_every", 1, DomainError)
    seed = _integer(seed, "seed", error=DomainError)
    _sample_arrays(problem, S)    # raised here, not as every episode's failure
    try:    # the planner's failure or the shared start's is every episode's
        planner = CentralPlanner(problem, replan_every)
        run = central_mpc_run(planner, seed, range(S), options)
    except (CCGameError, np.linalg.LinAlgError) as exc:
        raise AllSeedsFailed(f"all {S} MPC seeds failed; first: "
                             f"{type(exc).__name__}: {exc}") from None
    costs = lqnash.realized_costs(problem, run.states, run.inputs)
    batch = RolloutBatch(states=run.states, inputs=run.inputs, costs=costs,
                         seed=seed, method="central_mpc")
    return batch, run.failures, {
        "comp_seconds_per_step": (planner.seconds + run.solve_seconds) / run.replans,
        "replans": run.replans,
        "replans_with_active_rows": run.replans_with_active_rows,
        "map_columns": run.map_columns,
        "planner_seconds": planner.shared_seconds}
