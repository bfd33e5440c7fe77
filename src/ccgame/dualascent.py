"""Projected dual ascent over feedback-NE solves of the multiplier game.

The dual gradient at lam is the constraint value g at the equilibrium mean
trajectory, and it is affine in lam: probing the solver at lam = 0 and at
each unit vector recovers the exact map g(lam) = Ltilde' lam + ctilde, whose
spectral norm gives the Lipschitz constant used for the constant step size
eta = STEP_FRACTION / L.  Because the map is exact (stage gains do not
depend on lam), the ascent loop iterates on it directly instead of
re-solving the game at every iterate; the final report is always computed
from a real equilibrium solve at the averaged multiplier.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import lqnash, uncertainty
from .errors import DomainError, StepSizeUnavailable
from .model import GameProblem, assemble_problem, validate_scenario, _freeze


@dataclass(frozen=True)
class PreparedGame:
    """Problem, open-loop covariance schedule and reformulated constraints."""

    problem: GameProblem
    cov: uncertainty.CovarianceSchedule
    conset: uncertainty.AffineConstraintSet
    reference_means: np.ndarray   # (T+1, n_x) absolute, used for d-bar directions

    @property
    def M(self):
        return self.conset.M


def prepare_game(scenario, nominal_inputs=None) -> PreparedGame:
    """Validate, assemble, propagate covariance and reformulate constraints.

    Collision reference directions come from the nominal trajectory for
    unicycle scenarios; direct LTV scenarios have no nominal, so the
    unconstrained-equilibrium mean trajectory is used instead.
    """
    vs = validate_scenario(scenario)
    problem = assemble_problem(vs, nominal_inputs=nominal_inputs)
    cov = uncertainty.propagate_covariance(problem.dyn)
    if np.any(problem.nominal_states != 0.0):
        reference = problem.nominal_states
    else:
        policy0 = lqnash.backward_recursion(problem)
        reference = lqnash.integrate_expected(problem.dyn, policy0)
    conset = uncertainty.assemble_constraints(problem, cov, reference)
    return PreparedGame(problem=problem, cov=cov, conset=conset,
                        reference_means=_freeze(np.asarray(reference)))


# ---------------------------------------------------------------------------
# Affine dual-gradient map


@dataclass(frozen=True)
class AffineGradientMap:
    """g(lam) = Ltilde' lam + ctilde; L = ||Ltilde||_2; dual0[i] = D^i(0)."""

    Ltilde: np.ndarray
    ctilde: np.ndarray
    L: float
    dual0: np.ndarray

    def gradient(self, lam):
        return self.Ltilde.T @ lam + self.ctilde

    def dual_value(self, i, lam):
        """Quadratic model of D^i: dual0[i] + ctilde'lam + lam'G lam / 2.

        Its gradient is ctilde + (G + G')lam / 2, which equals g(lam) only when
        G is symmetric, as on the bundled scenarios.  With coupled costs G is
        not symmetric and this is only a model of D^i."""
        lam = np.asarray(lam)
        return float(self.dual0[i] + self.ctilde @ lam
                     + 0.5 * lam @ (self.Ltilde.T @ lam))


def _solve_at(prepared: PreparedGame, lam):
    policy = lqnash.backward_recursion(prepared.problem, prepared.conset, lam)
    traj = lqnash.integrate_expected(prepared.problem.dyn, policy)
    return policy, traj, prepared.conset.evaluate(traj)


def estimate_affine_map(prepared: PreparedGame) -> AffineGradientMap:
    """Recover (Ltilde, ctilde): c is g at lam = 0, column m of Ltilde' is
    g at the m-th unit multiplier minus c.  Exact by affinity; computed with
    one batched coefficient sweep instead of M+1 separate solves."""
    M = prepared.M
    N = prepared.problem.N
    policy0 = _solve_at(prepared, np.zeros(M))[0]
    dual0 = np.array([lqnash.evaluate_cost(prepared.problem, policy0, i)
                      for i in range(N)])
    if M == 0:
        return AffineGradientMap(Ltilde=np.zeros((0, 0)), ctilde=np.zeros(0),
                                 L=0.0, dual0=dual0)
    G, ctilde = lqnash.affine_response(prepared.problem, prepared.conset)
    L = float(np.linalg.svd(G, compute_uv=False)[0])
    return AffineGradientMap(Ltilde=G.T, ctilde=ctilde, L=L, dual0=dual0)


def dual_step(lam, eta, g):
    """One projected ascent step: max(0, lam + eta * g) componentwise."""
    return np.maximum(0.0, np.asarray(lam) + eta * np.asarray(g))


def dual_function(prepared: PreparedGame, lam, i, others_from=None):
    """Player i's dual value D^i(lam; gamma^{-i}).

    By default the rivals play their equilibrium policies for this same lam
    (the value the ascent algorithm sees).  Passing ``others_from`` freezes
    the rivals at the equilibrium for that base multiplier while player i
    best-responds under ``lam``; the gradient identity grad D^i = g holds
    for this frozen-rival function, whose difference quotients are the ones
    the envelope argument bounds.  Differentiating the fully coupled default
    would add rival-sensitivity terms through the shared constraint.
    """
    lam = np.asarray(lam, dtype=float)
    if others_from is None:
        policy, _, _ = _solve_at(prepared, lam)
        return lqnash.evaluate_lagrangian(prepared.problem, policy, i,
                                          lam, prepared.conset)
    base_policy = _solve_at(prepared, np.asarray(others_from, dtype=float))[0]
    K_i, a_i = lqnash.best_response(prepared.problem, base_policy, i,
                                    lam, prepared.conset)
    combined = base_policy.replace_player(i, K_i, a_i)
    return lqnash.evaluate_lagrangian(prepared.problem, combined, i,
                                      lam, prepared.conset)


# ---------------------------------------------------------------------------
# Algorithm driver


STEP_FRACTION = 0.5        # eta = STEP_FRACTION / L when eta is "auto"
CONSECUTIVE = 10           # iterations within tolerance before stopping
STORE_ITERATES_CAP = 4096  # runs up to this many iterations keep the iterates


@dataclass
class DualAscentOptions:
    k_max: int = 2000
    eta: object = "auto"            # "auto" -> STEP_FRACTION / L, or a float > 0
    tol_feas: float = 1e-6
    tol_slack: float = 1e-6
    average_checkpoints: tuple = ()

    def __post_init__(self):
        if not self.k_max >= 1:
            raise DomainError(f"k_max: need at least 1 iteration, got {self.k_max}")
        if self.eta != "auto" and not (isinstance(self.eta, numbers.Real)
                                       and math.isfinite(self.eta) and self.eta > 0):
            raise DomainError(
                f"eta: expected 'auto' or a finite float > 0, got {self.eta!r}")


@dataclass
class DualSolveReport:
    lambda_bar: np.ndarray
    policy: lqnash.FeedbackPolicy
    mean_traj: np.ndarray
    g_final: np.ndarray
    feasibility_residual: float
    complementarity: float
    eta: float
    lipschitz: float
    iterations: int
    termination: str
    dual_values: np.ndarray
    solve_seconds: float
    iterates: np.ndarray | None = None
    lambda_bar_at: dict = field(default_factory=dict)
    map: AffineGradientMap | None = None
    tol_feas: float = DualAscentOptions.tol_feas   # the tolerance the run used

    def to_dict(self):
        return {
            "lambda_bar": self.lambda_bar.tolist(),
            "feasibility_residual": self.feasibility_residual,
            "complementarity": self.complementarity,
            "eta": self.eta,
            "lipschitz": self.lipschitz,
            "iterations": self.iterations,
            "termination": self.termination,
            "dual_values": self.dual_values.tolist(),
            "solve_seconds": self.solve_seconds,
            "constraints": self.g_final.shape[0],
            # flagged, not interpreted: residual stalled above tolerance can
            # mean slow averaging or an instance without a strictly feasible
            # policy, which cannot be distinguished at runtime
            "residual_above_tolerance": bool(
                self.feasibility_residual > self.tol_feas),
        }


def _resolve_eta(options, gmap, M):
    if options.eta != "auto":
        return float(options.eta)
    if M == 0:
        return 1.0
    if gmap.L > 1e-14:
        return STEP_FRACTION / gmap.L
    if np.max(gmap.ctilde) > 0:
        raise StepSizeUnavailable(
            "Lipschitz constant is zero but a constraint row is violated; "
            "the duals cannot influence the trajectory")
    return 1.0


def run_dual_ascent(prepared: PreparedGame, options: DualAscentOptions | None = None,
                    trace_writer=None) -> DualSolveReport:
    """Projected dual ascent with averaged multiplier and a final real solve."""
    options = options or DualAscentOptions()
    t_start = time.perf_counter()
    M = prepared.M
    N = prepared.problem.N

    gmap = estimate_affine_map(prepared)
    eta = _resolve_eta(options, gmap, M)

    k_max = int(options.k_max)
    checkpoints = set(int(k) for k in options.average_checkpoints)
    store_iterates = M > 0 and k_max <= STORE_ITERATES_CAP

    lam = np.zeros(M)
    lam_sum = np.zeros(M)
    g_sum = np.zeros(M)
    iterates = [] if store_iterates else None
    lambda_bar_at = {}
    streak = 0
    k_done = 0
    termination = "max_iterations"

    for l in range(1, k_max + 1):
        if M == 0:
            k_done = l
            termination = "tolerance_reached"
            break
        g = gmap.gradient(lam)
        if iterates is not None:
            iterates.append(lam.copy())
        lam_sum += lam
        g_sum += g
        k_done = l
        if l in checkpoints:
            lambda_bar_at[l] = lam_sum / l

        # by affinity, the running mean of the g's equals g at the running
        # averaged multiplier, which is what the final policy is solved at
        g_bar = g_sum / l
        viol = float(max(np.max(g_bar), 0.0))
        comp = float(abs((lam_sum / l) @ g_bar))
        if trace_writer is not None:
            trace_writer({"iter": l, "max_violation": viol,
                          "complementarity": comp,
                          "dual_value_p1": gmap.dual_value(0, lam), "eta": eta})

        if options.tol_feas > 0:
            if viol <= options.tol_feas and comp <= options.tol_slack:
                streak += 1
                if streak >= CONSECUTIVE:
                    termination = "tolerance_reached"
                    break
            else:
                streak = 0
        lam = dual_step(lam, eta, g)

    lam_bar = lam_sum / k_done
    policy, traj, g_final = _solve_at(prepared, lam_bar)
    duals = np.array([lqnash.evaluate_lagrangian(prepared.problem, policy, i,
                                                 lam_bar, prepared.conset)
                      for i in range(N)])
    residual = float(max(np.max(g_final), 0.0)) if M else 0.0
    comp = float(abs(lam_bar @ g_final)) if M else 0.0
    return DualSolveReport(
        lambda_bar=lam_bar, policy=policy, mean_traj=traj, g_final=g_final,
        feasibility_residual=residual, complementarity=comp, eta=eta,
        lipschitz=gmap.L,
        iterations=k_done, termination=termination, dual_values=duals,
        solve_seconds=time.perf_counter() - t_start,
        iterates=(np.array(iterates) if iterates else None),
        lambda_bar_at=lambda_bar_at, map=gmap, tol_feas=options.tol_feas,
    )


def solve_scenario(scenario, options: DualAscentOptions | None = None,
                   relinearize=0, trace_writer=None):
    """Full pipeline: prepare, dual ascent, optional outer relinearization.

    Relinearization re-solves around the previous solution's mean inputs and
    applies only to unicycle scenarios.  Returns (PreparedGame, DualSolveReport)
    from the final round.
    """
    vs = validate_scenario(scenario)
    nominal_inputs = None
    rounds = max(0, int(relinearize)) + 1
    prepared = report = None
    for rnd in range(rounds):
        prepared = prepare_game(vs, nominal_inputs=nominal_inputs)
        report = run_dual_ascent(prepared, options,
                                 trace_writer=trace_writer if rnd == rounds - 1 else None)
        if rnd == rounds - 1 or not np.any(prepared.problem.nominal_states != 0.0):
            break
        dev_inputs = lqnash.mean_inputs(prepared.problem.dyn, report.policy,
                                        report.mean_traj)
        abs_inputs = prepared.problem.nominal_inputs + dev_inputs
        nominal_inputs = np.transpose(abs_inputs, (1, 0, 2))
    return prepared, report
