"""Shared-multiplier solve of the reformulated game: Lemke's pivot, with the
paper's dual ascent as its fallback.

The dual gradient at lam is the constraint value g at the equilibrium mean
trajectory, and it is affine in lam: probing the solver at lam = 0 and at
each unit vector recovers the exact map g(lam) = G lam + ctilde.  Because
the map is exact (stage gains do not depend on lam), the solve works on it
directly instead of re-solving the game at every step.  A solve computes
the stage gains once (or takes them from ``PreparedGame.gains``); one zeta
pass on them gives the map and, in its constant column, the lam = 0 policy
the dual values start from; a second, the final equilibrium solve at the
returned multiplier, gives the report, unless the prepared lam = 0
equilibrium (``PreparedGame.equilibrium0``) violates no row: it is then the
report, and no zeta pass runs.  The map and the diagnostics that only a
report or a trace reads (L, eta, dual0 and the dual values) are computed
when first read, so a central-MPC replan pays for none of them.

The fixed point the paper's ascent approaches is the linear complementarity
problem (LCP) lam >= 0, g(lam) <= 0, lam'g(lam) = 0.  A multiplier shared by
every player makes its solution Rosen's normalized equilibrium (J. B. Rosen,
"Existence and uniqueness of equilibrium points for concave n-person
games", Econometrica 33, 1965).  The LCP is solved exactly with Lemke's
complementary pivot (C. E. Lemke, "Bimatrix equilibrium points and
mathematical programming", Management Science 11, 1965; R. W. Cottle,
J.-S. Pang and R. E. Stone, "The Linear Complementarity Problem", 1992):
when -G has a positive semidefinite symmetric part (a monotone LCP, as on
every game measured so far) the pivot ends either at a solution or on a
secondary ray, which proves that no lam >= 0 gives g <= 0.  When the pivot
ends without a solution (a ray, its pivot cap, or a singular basis), the
paper's projected dual ascent runs instead, with the constant step
eta = STEP_FRACTION / L from the spectral norm L of G, and returns the
averaged multiplier.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lqnash, uncertainty
from .errors import DomainError, StepSizeUnavailable
from .model import GameProblem, assemble_problem, validate_scenario, _freeze


@dataclass(frozen=True)
class PreparedGame:
    """Problem, open-loop covariance schedule (an array) and reformulated
    constraints; ``gains`` (the stage gains) and ``equilibrium0`` (the lam = 0
    policy and its solver-coordinate mean), when given, are reused by the solve."""

    problem: GameProblem
    cov: np.ndarray               # (T+1, n_x, n_x) read-only open-loop Sigma
    conset: uncertainty.AffineConstraintSet
    reference_means: np.ndarray   # (T+1, n_x) absolute, used for d-bar directions
    gains: lqnash.StageGains | None = field(default=None, repr=False)
    equilibrium0: tuple | None = field(default=None, repr=False)   # (policy, mean)

    @property
    def M(self):
        return self.conset.M


def prepare_game(scenario, nominal_inputs=None) -> PreparedGame:
    """Validate, assemble, propagate covariance and reformulate constraints.

    Collision reference directions come from the nominal trajectory for
    unicycle scenarios; direct LTV scenarios have no nominal, so the
    unconstrained-equilibrium mean trajectory is used instead, and that
    equilibrium and the stage gains it is solved on are kept for the solve.
    """
    vs = validate_scenario(scenario)
    problem = assemble_problem(vs, nominal_inputs=nominal_inputs)
    cov = uncertainty.propagate_covariance(problem.dyn)
    if np.any(problem.nominal_states != 0.0):
        gains, reference, equilibrium0 = None, problem.nominal_states, None
    else:
        gains = lqnash.stage_gains(problem)
        policy0 = lqnash.backward_recursion(problem, gains=gains)
        reference = lqnash.integrate_expected(problem.dyn, policy0)
        equilibrium0 = (policy0, reference)
    conset = uncertainty.assemble_constraints(problem, cov, reference)
    return PreparedGame(problem=problem, cov=cov, conset=conset,
                        reference_means=_freeze(np.asarray(reference)), gains=gains,
                        equilibrium0=equilibrium0)


# ---------------------------------------------------------------------------
# Affine dual-gradient map


@dataclass(frozen=True)
class AffineGradientMap:
    """g(lam) = G lam + ctilde; L = ||G||_2; dual0[i] = D^i(0), the expected
    cost of the lam = 0 policy policy0; asymmetry = ||G - G'||_F / ||G||_F.
    All are computed when first read; G, ctilde and policy0 by affine_response."""

    problem: GameProblem = field(repr=False)
    conset: uncertainty.AffineConstraintSet = field(repr=False)
    gains: lqnash.StageGains | None = field(default=None, repr=False)

    @cached_property
    def _response(self):
        return lqnash.affine_response(self.problem, self.conset, self.gains)

    G = property(lambda self: self._response[0])
    ctilde = property(lambda self: self._response[1])
    policy0 = property(lambda self: self._response[2])

    @cached_property
    def _norms(self):
        return _spectral_norm(self.G)

    @property
    def L(self):
        return self._norms[0]

    @property
    def asymmetry(self):
        return self._norms[1]

    @cached_property
    def dual0(self):
        return lqnash.evaluate_cost(self.problem, self.policy0)

    def gradient(self, lam):
        return self.G @ lam + self.ctilde

    def dual_value(self, i, lam):
        """Quadratic model of D^i: dual0[i] + ctilde'lam + lam'G lam / 2.

        Its gradient is ctilde + (G + G')lam / 2, which equals g(lam) only when
        G is symmetric, as on the bundled scenarios.  With coupled costs G is
        not symmetric and this is only a model of D^i."""
        lam = np.asarray(lam)
        return float(self.dual0[i] + self.ctilde @ lam
                     + 0.5 * lam @ (self.G @ lam))


def _solve_at(prepared: PreparedGame, lam, gains=None):
    policy = lqnash.backward_recursion(prepared.problem, prepared.conset, lam,
                                       gains)
    traj = lqnash.integrate_expected(prepared.problem.dyn, policy)
    return policy, traj, prepared.conset.evaluate(traj)


SYMMETRY_TOL = 1e-12       # ||G - G'||_F / ||G||_F below which eigvalsh(G) gives L


def _spectral_norm(G):
    """(||G||_2, ||G - G'||_F / ||G||_F) from symmetric eigenvalues, no SVD;
    (0.0, 0.0) for an empty G."""
    if G.size == 0:
        return 0.0, 0.0
    norm = float(np.linalg.norm(G))
    skew = float(np.linalg.norm(G - G.T))
    if skew <= SYMMETRY_TOL * norm:
        L = float(np.max(np.abs(np.linalg.eigvalsh(G))))
    else:
        L = math.sqrt(max(float(np.linalg.eigvalsh(G.T @ G)[-1]), 0.0))
    return L, (skew / norm if norm > 0.0 else 0.0)


def estimate_affine_map(prepared: PreparedGame, gains=None) -> AffineGradientMap:
    """Recover (G, ctilde): ctilde is g at lam = 0, column m of G is
    g at the m-th unit multiplier minus ctilde.  Exact by affinity; computed with
    one batched zeta pass instead of M+1 separate solves, which also
    gives the lam = 0 policy that dual0 is evaluated at; computed here."""
    gmap = AffineGradientMap(prepared.problem, prepared.conset, gains)
    gmap.G          # the zeta pass runs here, not when the map is first read
    return gmap


PIVOT_TOL = 1e-11          # direction entries below this (relative) never block
TIE_TOL = 1e-12            # ratios within this (relative) of the minimum tie
PIVOTS_PER_ROW = 10        # the pivot cap is PIVOTS_PER_ROW * (M + 1)


def solve_lcp(G, ctilde):
    """Lemke's complementary pivot for lam >= 0, g = G lam + ctilde <= 0,
    lam'g = 0.  Returns (lam, pivots, termination): termination is
    "lcp_solved", or lam is None and termination names why the pivot
    stopped: "lcp_infeasible" (a secondary ray), "lcp_pivot_cap" (no end in
    PIVOTS_PER_ROW * (M + 1) pivots, as when degenerate ties cycle) or
    "lcp_singular_basis" (a basis numpy could not factor).

    In the standard form w = q + Mz, w'z = 0 this is z = lam, w = -g,
    q = -ctilde and M = -G, augmented with the covering vector 1 and the
    artificial z0 (w + G z - 1 z0 = q).  The basis is the identity except
    for the columns of the k basic z's and z0, so the pivot is done in
    revised form: B^-1 v needs only the k x k solve on the rows whose w has
    left the basis, and memory stays O(M k).  Ratio-test ties go to z0
    first, then to the lowest row index.
    """
    q = -np.asarray(ctilde, dtype=float)
    M = q.shape[0]
    lam = np.zeros(M)
    if M == 0 or q.min() >= 0.0:
        return lam, 0, "lcp_solved"
    cap = PIVOTS_PER_ROW * (M + 1)
    z0_column = -np.ones(M)
    # pivot 1: z0 enters at -min q and the w of the most violated row leaves
    leaving = int(np.argmin(q))
    basic = [M]             # basic z's by row index; M stands for z0
    left = [leaving]        # rows whose w is not basic
    enter_z = True          # the complement of the leaving variable enters
    pivot = 1
    try:
        for pivot in range(2, cap + 1):
            A = np.column_stack([G[:, j] if j < M else z0_column for j in basic])
            if enter_z:
                a = G[:, leaving]
            else:
                a = np.zeros(M)
                a[leaving] = 1.0
            xd = np.linalg.solve(A[left], np.column_stack([q[left], a[left]]))
            x_w, d_w = (np.column_stack([q, a]) - A @ xd).T
            x_z, d_z = xd.T
            w_basic = np.ones(M, dtype=bool)
            w_basic[left] = False
            tol = PIVOT_TOL * max(1.0, np.max(np.abs(d_z)), np.max(np.abs(d_w)))
            zs = np.flatnonzero(d_z > tol)
            ws = np.flatnonzero(w_basic & (d_w > tol))
            if zs.size + ws.size == 0:
                return None, pivot, "lcp_infeasible"
            ratio = np.concatenate([np.maximum(x_z[zs], 0.0) / d_z[zs],
                                    np.maximum(x_w[ws], 0.0) / d_w[ws]])
            rows = np.concatenate([np.asarray(basic)[zs], ws])
            tied = ratio <= ratio.min() + TIE_TOL * (1.0 + ratio.min())
            # z0 has row index M: flip it to -1 so that it wins every tie
            pick = np.flatnonzero(tied)[np.argmin(np.where(rows[tied] == M, -1,
                                                           rows[tied]))]
            if enter_z:
                basic.append(leaving)
            else:
                left.remove(leaving)
            leaving = int(rows[pick])
            enter_z = pick >= zs.size
            if enter_z:                     # a w left: its z enters next
                left.append(leaving)
                continue
            basic.remove(leaving)
            if leaving == M:                # z0 left: the basis is complementary
                if basic:
                    A = np.column_stack([G[:, j] for j in basic])
                    lam[basic] = np.maximum(np.linalg.solve(A[left], q[left]), 0.0)
                return lam, pivot, "lcp_solved"
    except np.linalg.LinAlgError:
        return None, pivot, "lcp_singular_basis"
    return None, pivot, "lcp_pivot_cap"


def dual_step(lam, eta, g):
    """One projected ascent step: max(0, lam + eta * g) componentwise."""
    return np.maximum(0.0, np.asarray(lam) + eta * np.asarray(g))


# ---------------------------------------------------------------------------
# Algorithm driver


STEP_FRACTION = 0.5        # eta = STEP_FRACTION / L when eta is "auto"
CONSECUTIVE = 10           # iterations within tolerance before stopping


@dataclass
class DualAscentOptions:
    k_max: int = 2000               # budget of the ascent the pivot falls back to
    eta: object = "auto"            # "auto" -> STEP_FRACTION / L, or a float > 0
    tol_feas: float = 1e-6
    tol_slack: float = 1e-6

    def __post_init__(self):
        if not self.k_max >= 1:
            raise DomainError(f"k_max: need at least 1 iteration, got {self.k_max}")
        if self.eta != "auto" and not (isinstance(self.eta, numbers.Real)
                                       and math.isfinite(self.eta) and self.eta > 0):
            raise DomainError(
                f"eta: expected 'auto' or a finite float > 0, got {self.eta!r}")


@dataclass
class DualSolveReport:
    """The multiplier, the policy solved at it and the measured residuals.

    eta (the fallback's step), lipschitz and the per-player dual values are
    computed when first read."""

    lambda_bar: np.ndarray
    policy: lqnash.FeedbackPolicy
    mean_traj: np.ndarray
    g_final: np.ndarray
    feasibility_residual: float
    complementarity: float
    iterations: int
    termination: str
    solve_seconds: float
    map: AffineGradientMap
    prepared: PreparedGame = field(repr=False)
    options: DualAscentOptions
    pivots: int = 0
    natural_residual: float = 0.0   # ||lam - max(0, lam + g)||_inf

    @cached_property
    def eta(self):
        return _resolve_eta(self.options, self.map)

    @property
    def lipschitz(self):
        return self.map.L

    @cached_property
    def dual_values(self):
        return lqnash.evaluate_lagrangian(self.prepared.problem, self.policy,
                                          self.lambda_bar, self.prepared.conset,
                                          self.mean_traj)

    def to_dict(self):
        return {
            "lambda_bar": self.lambda_bar.tolist(),
            "feasibility_residual": self.feasibility_residual,
            "complementarity": self.complementarity,
            "natural_residual": self.natural_residual,
            "pivots": self.pivots,
            "eta": self.eta,
            "lipschitz": self.lipschitz,
            "asymmetry": self.map.asymmetry,
            "iterations": self.iterations,
            "termination": self.termination,
            "dual_values": self.dual_values.tolist(),
            "solve_seconds": self.solve_seconds,
            "constraints": self.g_final.shape[0],
            # flagged, not interpreted: residual stalled above tolerance can
            # mean slow averaging or an instance without a strictly feasible
            # policy, which cannot be distinguished at runtime
            "residual_above_tolerance": bool(
                self.feasibility_residual > self.options.tol_feas),
        }


def _resolve_eta(options, gmap):
    if options.eta != "auto":
        return float(options.eta)
    if gmap.L > 1e-14:
        return STEP_FRACTION / gmap.L
    if np.max(gmap.ctilde, initial=0.0) > 0:
        raise StepSizeUnavailable(
            "Lipschitz constant is zero but a constraint row is violated; "
            "the duals cannot influence the trajectory")
    return 1.0


def _ascent(gmap, eta, options, trace_writer=None):
    """Averaged projected ascent on a map with M >= 1 rows; returns (lam_bar,
    iterations, termination)."""
    lam = np.zeros_like(gmap.ctilde)
    lam_sum = np.zeros_like(gmap.ctilde)
    g_sum = np.zeros_like(gmap.ctilde)
    streak = 0
    termination = "max_iterations"

    for l in range(1, int(options.k_max) + 1):
        g = gmap.gradient(lam)
        lam_sum += lam
        g_sum += g

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

    return lam_sum / l, l, termination


def run_dual_ascent(prepared: PreparedGame, options: DualAscentOptions | None = None,
                    trace_writer=None) -> DualSolveReport:
    """Solve for the shared multiplier, then solve the equilibrium at it.

    Lemke's pivot gives the exact LCP solution (termination "lcp_solved").
    When it stops without one, the averaged ascent runs with the options'
    k_max and eta, and the termination is the pivot's reason (see
    ``solve_lcp``).  A prepared lam = 0 equilibrium that passes the pivot's
    first test, -g >= 0, is the solution; the map is then built only if read.
    """
    options = options or DualAscentOptions()
    t_start = time.perf_counter()
    gains = (lqnash.stage_gains(prepared.problem) if prepared.gains is None
             else prepared.gains)
    gmap = AffineGradientMap(prepared.problem, prepared.conset, gains)
    lam_bar, pivots, termination, iterations = np.zeros(prepared.M), 0, "lcp_solved", 0
    if prepared.equilibrium0 is not None:
        policy, traj = prepared.equilibrium0
        g_final = prepared.conset.evaluate(traj)
    if prepared.equilibrium0 is None or not np.min(-g_final, initial=0.0) >= 0.0:
        gmap = estimate_affine_map(prepared, gains)
        lam_bar, pivots, termination = solve_lcp(gmap.G, gmap.ctilde)
        if lam_bar is None:
            lam_bar, iterations, _ = _ascent(gmap, _resolve_eta(options, gmap),
                                             options, trace_writer)
        policy, traj, g_final = _solve_at(prepared, lam_bar, gains)
    residual = float(max(np.max(g_final, initial=-np.inf), 0.0))
    comp = float(abs(lam_bar @ g_final))
    natural = float(np.max(np.abs(lam_bar - np.maximum(0.0, lam_bar + g_final)),
                           initial=0.0))
    report = DualSolveReport(
        lambda_bar=lam_bar, policy=policy, mean_traj=traj, g_final=g_final,
        feasibility_residual=residual, complementarity=comp,
        iterations=iterations, termination=termination,
        solve_seconds=time.perf_counter() - t_start,
        map=gmap, prepared=prepared, options=options, pivots=pivots,
        natural_residual=natural,
    )
    if trace_writer is not None and termination == "lcp_solved":
        trace_writer({"iter": pivots, "max_violation": residual,
                      "complementarity": comp,
                      "dual_value_p1": gmap.dual_value(0, lam_bar),
                      "eta": report.eta})
    return report


def solve_scenario(scenario, options: DualAscentOptions | None = None,
                   relinearize=0, trace_writer=None):
    """Full pipeline: prepare, multiplier solve, optional outer relinearization.

    Relinearization re-solves around the previous solution's mean inputs and
    applies only to unicycle scenarios.  Returns (PreparedGame, DualSolveReport)
    from the final round.
    """
    if not relinearize >= 0:
        raise DomainError(f"relinearize: need 0 or more rounds, got {relinearize}")
    vs = validate_scenario(scenario)
    nominal_inputs = None
    rounds = int(relinearize) + 1
    for rnd in range(rounds):
        prepared = prepare_game(vs, nominal_inputs=nominal_inputs)
        # only unicycle scenarios (with a nominal) relinearize; the trace
        # records the round that ends the loop
        last = rnd == rounds - 1 or not np.any(prepared.problem.nominal_states != 0.0)
        report = run_dual_ascent(prepared, options,
                                 trace_writer=trace_writer if last else None)
        if last:
            break
        dev_inputs = lqnash.mean_inputs(prepared.problem.dyn, report.policy,
                                        report.mean_traj)
        abs_inputs = prepared.problem.nominal_inputs + dev_inputs
        nominal_inputs = np.transpose(abs_inputs, (1, 0, 2))
    return prepared, report
