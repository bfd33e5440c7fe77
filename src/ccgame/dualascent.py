"""Shared-multiplier solve of the reformulated game: Lemke's pivot, with the
paper's dual ascent as its fallback.

The dual gradient at lam is the constraint value g at the equilibrium mean
trajectory.  Stage gains do not depend on lam, so g and the policy's affine
term are exactly affine in it, g(lam) = G lam + ctilde and alpha(lam) =
alpha0 + sum_j lam_j alpha_j, and the solve works on this map instead of
re-solving the game at every step.  ``estimate_affine_map`` owns a solve's
start: the stage gains and the lam = 0 equilibrium, the preparer's
(``PreparedGame.gains``, ``equilibrium0``) or solved there once.  ctilde is g
at that equilibrium's mean and alpha0 its affine term, so the map holds only
its linear part, read by column.  The pivot reads G only as ``G[:, j]``; one
pass there computes the columns (of G and alpha) of every row violated at
lam = 0, before the pivot's first read, and a column not yet computed comes
in a pass of its own.  A pass takes its alpha columns from a zeta pass, or
contracts them from a prepared zeta response ``psi`` (a central-MPC replan's
block of its call's Psi), and runs one forward pass; a replan's game arrives
with its violated rows' columns (``PreparedGame.columns``), from its replan
time's one stacked pass, and the map runs no pass for them.  The policy at
any lam, the pivot's or the fallback ascent's, is alpha0 plus the columns
lam is nonzero on (``AffineGradientMap.alpha``).  A lam = 0 equilibrium that
violates no row is the report, and the map runs no pass.  The full G is
built only when L, the asymmetry, the fallback ascent or a dual value reads
it: ``report.json`` and the CLI's ``solve:`` line read L, a central-MPC
replan none of them, nor the report's mean trajectory and residuals,
computed when first read.  The rows are read by ``evaluate`` and ``span``.

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
from typing import ClassVar

import numpy as np

from . import lqnash, uncertainty
from .errors import DomainError, StepSizeUnavailable
from .model import (GameProblem, UnicycleDynamicsSpec, assemble_problem,
                    validate_scenario, _integer)


@dataclass(frozen=True)
class PreparedGame:
    """Problem and the rows reformulated at the nominal (plus ``equilibrium0``'s mean, if
    given); the solve reuses ``gains`` (the stage gains), ``equilibrium0`` (the lam = 0
    policy and its solver-coordinate mean), ``psi`` (the zeta response) and ``columns``
    (G's and alpha's columns of the rows it violates at lam = 0, a replan's), if given."""

    problem: GameProblem
    conset: uncertainty.AffineConstraintSet
    gains: lqnash.StageGains | None = field(default=None, repr=False)
    equilibrium0: tuple | None = field(default=None, repr=False)   # (policy, mean)
    psi: np.ndarray | None = field(default=None, repr=False)   # (T, N, n_u, T, n_x)
    columns: dict | None = field(default=None, repr=False)     # j -> (G[:, j], alpha_j)

    @property
    def M(self):
        return self.conset.M


def prepare_game(scenario, nominal_inputs=None) -> PreparedGame:
    """Validate, assemble, propagate covariance and reformulate constraints.

    The scenario's dynamics type picks the collision reference directions:
    a unicycle scenario's come from its nominal trajectory; a direct LTV
    scenario has no nominal, so they come from the mean of the
    unconstrained (lam = 0) equilibrium, solved on the stage gains.
    """
    vs = validate_scenario(scenario)
    problem = assemble_problem(vs, nominal_inputs=nominal_inputs)
    cov = uncertainty.propagate_covariance(problem.dyn)
    if isinstance(vs.dynamics, UnicycleDynamicsSpec):
        return PreparedGame(problem=problem, conset=uncertainty.assemble_constraints(
            problem, cov, problem.nominal_states))
    gains = lqnash.stage_gains(problem)
    policy0 = lqnash.backward_recursion(problem, gains=gains)
    mean0 = lqnash.integrate_expected(problem.dyn, policy0)
    return PreparedGame(problem=problem, conset=uncertainty.assemble_constraints(
        problem, cov, problem.nominal_states + mean0), gains=gains, equilibrium0=(policy0, mean0))


# ---------------------------------------------------------------------------
# Affine dual-gradient map


@dataclass(frozen=True)
class AffineGradientMap:
    """g(lam) = G lam + ctilde, read by column: ``gmap[:, j]`` is G[:, j].
    ctilde, policy0 and mean0 are the lam = 0 equilibrium's g, policy and
    mean, which ``estimate_affine_map`` resolves.  A column missing from the
    cache ``columns`` (and ``alphas``, its affine-term response, contracted
    from ``psi`` when given) comes in a pass of its own (``_pass``).
    ``alpha(lam)`` is the policy's affine term at lam.  G itself, which L =
    ||G||_2, asymmetry = ||G - G'||_F / ||G||_F, the fallback ascent and the
    dual values read, is the full pass.  dual0[i] = D^i(0) is policy0's
    expected cost; its ``trace_terms`` hold at every lam, since K is the
    gains'.  All are computed when first read."""

    problem: GameProblem = field(repr=False)
    conset: uncertainty.AffineConstraintSet = field(repr=False)
    gains: lqnash.StageGains = field(repr=False)
    ctilde: np.ndarray
    policy0: lqnash.FeedbackPolicy = field(repr=False)
    mean0: np.ndarray = field(repr=False)
    psi: np.ndarray | None = field(default=None, repr=False)
    columns: dict = field(default_factory=dict, init=False, repr=False)   # j -> G[:, j]
    alphas: dict = field(default_factory=dict, init=False, repr=False)    # j -> alpha_j

    def _pass(self, columns):
        """One pass over ``columns`` (None: all M), cached, their affine terms from
        ``psi`` when given, else by a zeta pass: the one place that picks them."""
        cols = range(self.conset.M) if columns is None else columns
        steps, l = self.conset.t[cols], self.conset.l[cols]
        a = (lqnash.column_alphas(self.problem, self.gains, steps, l) if self.psi is None
             else lqnash.response_alphas(self.psi, steps, l))
        [(G, alphas)] = lqnash.affine_response(self.problem, self.conset, self.gains, [cols],
                                               a, self.conset.l[None])
        self.columns.update(zip(cols, G.T))
        if columns is not None:     # the full pass's alphas would live as long as G
            self.alphas.update(zip(columns, alphas))
        return G

    def __getitem__(self, index):
        j = index[1]
        if j not in self.columns:
            self._pass([j])
        return self.columns[j]

    def alpha(self, lam):
        """alpha0 + sum_j lam_j alpha_j in ascending j; uncached columns in one pass."""
        nonzero = np.flatnonzero(lam).tolist()
        missing = [j for j in nonzero if j not in self.alphas]
        if missing:
            self._pass(missing)
        return sum((lam[j] * self.alphas[j] for j in nonzero), self.policy0.alpha)

    @cached_property
    def G(self):
        return self._pass(None)

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
    def trace_terms(self):
        return lqnash.trace_terms(self.problem, self.policy0)

    @cached_property
    def dual0(self):
        return lqnash.evaluate_cost(self.problem, self.policy0, self.mean0, self.trace_terms)

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


def estimate_affine_map(prepared: PreparedGame) -> AffineGradientMap:
    """The map (G, ctilde) of ``prepared``, and the one place a solve's lam = 0
    start is resolved: the preparer's ``gains`` and ``equilibrium0`` when it
    has them (an LTV solve, a replan), else solved here (a unicycle solve).
    ctilde is g at that start's mean, column m of G is g at the m-th unit
    multiplier minus ctilde, exact by affinity.  One pass here computes the
    columns of the rows violated at lam = 0 that the game does not hold,
    ascending; a column's bits do not depend on its place in the pass."""
    problem = prepared.problem
    gains = lqnash.stage_gains(problem) if prepared.gains is None else prepared.gains
    equilibrium = prepared.equilibrium0
    if equilibrium is None:
        policy0 = lqnash.backward_recursion(problem, gains=gains)
        equilibrium = policy0, lqnash.integrate_expected(problem.dyn, policy0)
    policy0, mean0 = equilibrium
    gmap = AffineGradientMap(problem, prepared.conset, gains,
                             prepared.conset.evaluate(mean0), policy0, mean0,
                             prepared.psi)
    for j, (G_j, alpha_j) in (prepared.columns or {}).items():
        gmap.columns[j], gmap.alphas[j] = G_j, alpha_j
    violated = [j for j in np.flatnonzero(gmap.ctilde > 0).tolist() if j not in gmap.columns]
    if violated:
        gmap._pass(violated)
    return gmap


PIVOT_TOL = 1e-11          # direction entries below this (relative) never block
TIE_TOL = 1e-12            # ratios within this (relative) of the minimum tie
PIVOTS_PER_ROW = 10        # the pivot cap is PIVOTS_PER_ROW * (M + 1)


def solve_lcp(G, ctilde):
    """Lemke's complementary pivot for lam >= 0, g = G lam + ctilde <= 0,
    lam'g = 0; G is read only as ``G[:, j]``, so an AffineGradientMap serves.
    Returns (lam, pivots, termination): termination is "lcp_solved", or lam
    is None and termination names why the pivot stopped: "lcp_infeasible" (a
    secondary ray), "lcp_pivot_cap" (no end in PIVOTS_PER_ROW * (M + 1)
    pivots, as when degenerate ties cycle) or "lcp_singular_basis" (a basis
    numpy could not factor).

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
    # the ascent's stop and the report's residual_above_tolerance (the CLI's exit code 2)
    tol_feas: ClassVar[float] = 1e-6
    tol_slack: ClassVar[float] = 1e-6

    def __post_init__(self):
        _integer(self.k_max, "k_max", 1, DomainError)
        if self.eta != "auto" and (isinstance(self.eta, bool) or not (isinstance(
                self.eta, numbers.Real) and math.isfinite(self.eta) and self.eta > 0)):
            raise DomainError(
                f"eta: expected 'auto' or a finite float > 0, got {self.eta!r}")


@dataclass
class DualSolveReport:
    """The multiplier, the policy solved at it and the measured residuals.

    The policy's mean trajectory (at lam = 0 the map's mean0), g there and
    the residuals, eta (the fallback's step), lipschitz and the per-player
    dual values are computed when first read.  ``residual_above_tolerance``, report.json's
    flag and the CLI's exit code 2, is feasibility or complementarity above its tolerance."""

    lambda_bar: np.ndarray
    policy: lqnash.FeedbackPolicy
    iterations: int
    termination: str
    solve_seconds: float
    map: AffineGradientMap
    options: DualAscentOptions
    pivots: int = 0
    map_columns: int = 0            # G columns computed before the report

    @cached_property
    def mean_traj(self):
        return (lqnash.integrate_expected(self.map.problem.dyn, self.policy)
                if np.any(self.lambda_bar) else self.map.mean0)

    @cached_property
    def g_final(self):
        return self.map.conset.evaluate(self.mean_traj)

    @cached_property
    def feasibility_residual(self):
        return float(max(np.max(self.g_final, initial=-np.inf), 0.0))

    @cached_property
    def complementarity(self):
        return float(abs(self.lambda_bar @ self.g_final))

    @property
    def residual_above_tolerance(self):
        return not (self.feasibility_residual <= self.options.tol_feas
                    and self.complementarity <= self.options.tol_slack)

    @cached_property
    def natural_residual(self):     # ||lam - max(0, lam + g)||_inf
        lam = self.lambda_bar
        return float(np.max(np.abs(lam - np.maximum(0.0, lam + self.g_final)), initial=0.0))

    @cached_property
    def eta(self):
        return _resolve_eta(self.options, self.map)

    @property
    def lipschitz(self):
        return self.map.L

    @cached_property
    def dual_values(self):
        return lqnash.evaluate_lagrangian(self.map.problem, self.policy,
                                          self.lambda_bar, self.map.conset,
                                          self.mean_traj, self.map.trace_terms)

    def to_dict(self):
        return {
            "lambda_bar": self.lambda_bar.tolist(),
            "feasibility_residual": self.feasibility_residual,
            "complementarity": self.complementarity,
            "natural_residual": self.natural_residual,
            "pivots": self.pivots,
            "map_columns": self.map_columns,
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
            "residual_above_tolerance": self.residual_above_tolerance,
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
    iterations)."""
    lam = np.zeros_like(gmap.ctilde)
    lam_sum = np.zeros_like(gmap.ctilde)
    g_sum = np.zeros_like(gmap.ctilde)
    streak = 0

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
            trace_writer(l, viol, comp, gmap.dual_value(0, lam), eta)

        if viol <= options.tol_feas and comp <= options.tol_slack:
            streak += 1
            if streak >= CONSECUTIVE:
                break
        else:
            streak = 0
        lam = dual_step(lam, eta, g)

    return lam_sum / l, l


def run_dual_ascent(prepared: PreparedGame, options: DualAscentOptions | None = None,
                    trace_writer=None) -> DualSolveReport:
    """Solve for the shared multiplier, then the equilibrium at it.

    The lam = 0 equilibrium, which ``estimate_affine_map`` resolves, gives
    the map's ctilde and alpha0.  Lemke's pivot gives the exact LCP
    solution (termination "lcp_solved"): lam = 0 when that equilibrium
    violates no row, which is then the report.  When it stops without one,
    the averaged ascent runs with the options' k_max and eta and the
    termination is the pivot's reason (see ``solve_lcp``).  The policy at a
    nonzero multiplier is the map's ``alpha`` on the stage gains.
    ``trace_writer(iteration, max_violation, complementarity, dual_value_p1,
    eta)`` is called with positional values at every ascent iteration, or
    once at the pivot's solution with the pivot count as its iteration.
    """
    options = options or DualAscentOptions()
    t_start = time.perf_counter()
    gmap = estimate_affine_map(prepared)
    policy, iterations = gmap.policy0, 0
    lam_bar, pivots, termination = solve_lcp(gmap, gmap.ctilde)
    if lam_bar is None:
        lam_bar, iterations = _ascent(gmap, _resolve_eta(options, gmap),
                                      options, trace_writer)
    if np.any(lam_bar):
        policy = lqnash.FeedbackPolicy(K=gmap.gains.K, alpha=gmap.alpha(lam_bar))
    report = DualSolveReport(
        lambda_bar=lam_bar, policy=policy, iterations=iterations, termination=termination,
        solve_seconds=time.perf_counter() - t_start, map=gmap, options=options,
        pivots=pivots, map_columns=len(gmap.columns))
    if trace_writer is not None and termination == "lcp_solved":
        trace_writer(pivots, report.feasibility_residual, report.complementarity,
                     gmap.dual_value(0, lam_bar), report.eta)
    return report


def solve_scenario(scenario, options: DualAscentOptions | None = None,
                   relinearize=0, trace_writer=None):
    """Full pipeline: prepare, multiplier solve, optional outer relinearization.

    Relinearization re-solves around the previous solution's mean inputs and
    applies only to unicycle scenarios.  Returns (PreparedGame, DualSolveReport)
    from the final round.
    """
    rounds = _integer(relinearize, "relinearize", 0, DomainError) + 1
    vs = validate_scenario(scenario)
    nominal_inputs = None
    for rnd in range(rounds):
        prepared = prepare_game(vs, nominal_inputs=nominal_inputs)
        # only unicycle scenarios relinearize; the trace records the round
        # that ends the loop
        last = rnd == rounds - 1 or not isinstance(vs.dynamics, UnicycleDynamicsSpec)
        report = run_dual_ascent(prepared, options,
                                 trace_writer=trace_writer if last else None)
        if last:
            break
        dev_inputs = lqnash.mean_inputs(prepared.problem.dyn, report.policy,
                                        report.mean_traj)
        abs_inputs = prepared.problem.nominal_inputs + dev_inputs
        nominal_inputs = np.transpose(abs_inputs, (1, 0, 2))
    return prepared, report
