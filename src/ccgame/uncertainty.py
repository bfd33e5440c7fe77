"""Covariance propagation and conservative affine reformulation of chance constraints.

A joint chance constraint over the horizon is split by a uniform risk
allocation into per-row bounds, and each row is tightened into an affine
constraint on the expected trajectory:

* box rows back off the bound by ``z * sqrt(Sigma_qq)``;
* collision rows replace the quadratic keep-out set by its supporting
  halfspace at a reference separation ``dbar`` (with ``||dbar||_C = R``),
  backed off by ``z * ||2 C dbar||_Sigma``,

with ``z = inverse_normal_cdf(1 - eps_row)``, the standard library's normal
quantile (``statistics.NormalDist``, M. J. Wichura, "Algorithm AS 241: the
percentage points of the normal distribution", Applied Statistics 37, 1988).
The split is uniform, so every one of the M rows gets ``eps_row = epsilon / M``
and one z serves every row of an assembly.  A mean trajectory satisfying
every row satisfies the original joint chance constraint under the Gaussian
noise model.  A covariance schedule is a read-only array Sigma
(T+1, n_x, n_x), and each collision constraint's rows are built for all of
its steps in one batched pass.  A row reads one step and at most two agents,
so the rows are one compact table (``AffineConstraintSet``) that the solver
reads through two operations, ``evaluate`` and ``span``, never as a dense
(T n_x, M) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .errors import AllocationTooSmall, BadProbability, DegenerateReference, DomainError
from .model import GameProblem, _freeze

CDF_GUARD = 1e-12
DEGENERATE_SEPARATION = 1e-9


# ---------------------------------------------------------------------------
# Standard normal quantile


def inverse_normal_cdf(p):
    """Standard normal quantile on the guarded domain, by the standard
    library's Wichura AS 241 (``statistics.NormalDist().inv_cdf``)."""
    p = float(p)
    if not (CDF_GUARD < p < 1.0 - CDF_GUARD):
        raise DomainError(f"probability {p} outside ({CDF_GUARD}, {1 - CDF_GUARD})")
    return NormalDist().inv_cdf(p)


# ---------------------------------------------------------------------------
# Covariance propagation


def covariance_recursion(F, W):
    """Read-only Sigma (T+1, n_x, n_x) of x+ = F_t x + w_t, w_t ~ N(0, W_t),
    Sigma[0] = 0: S+ = F S F' + W, symmetrized at every step."""
    Sigma = np.zeros((F.shape[0] + 1,) + F.shape[1:])
    for t in range(F.shape[0]):
        S = F[t] @ Sigma[t] @ F[t].T + W[t]
        Sigma[t + 1] = (S + S.T) / 2.0
    return _freeze(Sigma)


def propagate_covariance(dyn):
    """The open-loop schedule: the recursion with F = A."""
    return covariance_recursion(dyn.A, dyn.W)


# ---------------------------------------------------------------------------
# Risk allocation


def allocate_risk(epsilon, rows):
    """Per-row risk epsilon / rows of the uniform split of the joint budget."""
    if not (0.0 < epsilon < 1.0):
        raise BadProbability("epsilon", epsilon)
    if rows < 1:
        raise ValueError("risk allocation requires at least one constraint row")
    per_row = epsilon / rows
    if per_row < CDF_GUARD:
        raise AllocationTooSmall(per_row)
    if per_row > 0.5:
        raise BadProbability("per-row risk", per_row)
    return per_row


# ---------------------------------------------------------------------------
# Row builders (absolute coordinates)


def _quadratic(x, C):
    """x' C x of a (..., d) stack as (..., 1), by the BLAS calls of one row's x @ C @ x."""
    return (x[..., None, :] @ C @ x[..., :, None])[..., 0]


def reference_direction(delta, C, radius):
    """Radial projection of nominal separations (..., d) onto ||dbar||_C = R; a
    degenerate one raises DegenerateReference with t its flat index in the stack."""
    delta = np.asarray(delta, dtype=float)
    norm_c = np.sqrt(np.maximum(_quadratic(delta, C), 0.0))
    bad = np.flatnonzero(norm_c < DEGENERATE_SEPARATION)
    if bad.size:
        raise DegenerateReference(-1, -1, int(bad[0]), norm_c.flat[bad[0]])
    return radius * delta / norm_c


def linearize_collision(dbar, sigma_pair, radius, C, z):
    """Affine inner approximation of P(||d||^2_C >= R^2) >= 1 - eps_row,
    with z = inverse_normal_cdf(1 - eps_row).

    Returns (a, c) on the pair difference d = x^i - x^j: the row is
    ``-a @ E[d] + c <= 0`` with a = 2 C dbar and c collecting the constant
    2 R^2 and the Gaussian backoff z ||a||_Sigma.  References (..., d) and
    pair covariances (..., d, d) give a (..., d) and c (...).
    """
    dbar = np.asarray(dbar, dtype=float)
    off = np.max(np.abs(np.sqrt(np.maximum(_quadratic(dbar, C), 0.0)) - radius))
    if off > 1e-9 * max(1.0, radius):
        raise ValueError(f"reference direction is {off} off ||dbar||_C = {radius}")
    a = 2.0 * (C @ dbar[..., :, None])[..., 0]
    backoff = z * np.sqrt(np.maximum(_quadratic(a, sigma_pair), 0.0))[..., 0]
    return a, 2.0 * radius ** 2 + backoff


# ---------------------------------------------------------------------------
# Assembly


@dataclass(frozen=True)
class AffineConstraintSet:
    """The M rows g_m = l_m . E[x_{t_m}] + c_m <= 0 on the solver-coordinate
    expected trajectory: row m's step t[m] in 1..T, its constraint source[m]
    (an index into ``problem.constraints``), its coefficients l[m] (n_x,) and
    its offset c[m].  Rows are ordered by step, then constraint, then
    (coordinate, lower before upper) within a box, so the rows of a step are
    one contiguous range, ``span(t)``.  The solver reads g at a mean
    trajectory (``evaluate``) and ``span``; ``lmat``, the dense (T*n_x, M)
    matrix of the rows, is built only when read, for dense oracles."""

    t: np.ndarray
    source: np.ndarray
    l: np.ndarray
    c: np.ndarray
    T: int

    def __post_init__(self):
        for name, dtype in (("t", np.intp), ("source", np.intp), ("l", float), ("c", float)):
            object.__setattr__(self, name, _freeze(getattr(self, name), dtype))

    @property
    def M(self):
        return self.c.shape[0]

    @cached_property
    def _starts(self):
        return np.searchsorted(self.t, np.arange(self.T + 2))

    def span(self, t):
        """The rows of step t as a slice, empty when no row is at t."""
        return slice(self._starts[t], self._starts[t + 1])

    def evaluate(self, mean_traj):
        """g at a solver-coordinate mean trajectory (T+1, n_x): one gather of
        each row's x_t."""
        return np.einsum("mi,mi->m", self.l, np.asarray(mean_traj)[self.t]) + self.c

    @property
    def lmat(self):
        """Dense (T*n_x, M): column m holds l[m] in the n_x block of step t[m]."""
        lmat = np.zeros((self.T, self.l.shape[1], self.M))
        lmat[self.t - 1, :, np.arange(self.M)] = self.l
        return _freeze(lmat.reshape(self.T * self.l.shape[1], self.M))


def constraint_layout(problem: GameProblem, cov):
    """The part of ``assemble_constraints`` no reference enters: each row's
    step and source, z, the box rows and, per collision constraint, its rows
    and pair covariances gathered from Sigma ``cov`` (T+1, n_x, n_x).
    Returns ``fill(reference_means)``, which writes the rows' coefficients
    and offsets, the collision rows with one batched pass per constraint."""
    T, n_x, specs = problem.T, problem.n_x, problem.constraints
    slices, nominal = problem.agent_slices, problem.nominal_states
    # one column per row a spec has at a step: a box's (coord, sign, bound)
    # rows in spec.rows() order, NaN for a collision's one row
    columns = [np.array([(q, 1.0 if side == "upper" else -1.0, bound)
                         for q, side, bound in spec.rows()]).reshape(-1, 3)
               if spec.kind == "box" else np.full((1, 3), np.nan) for spec in specs]
    col_source = np.repeat(np.arange(len(specs)), [len(c) for c in columns])
    active = np.zeros((T + 1, len(specs)), dtype=bool)
    for k, spec in enumerate(specs):
        active[np.array(spec.active_times, dtype=np.intp), k] = True
    t, col = np.nonzero(active[:, col_source])      # by step, then column
    source = col_source[col]
    q, sign, bound = np.concatenate([np.zeros((0, 3)), *columns])[col].T
    M = len(t)
    eps_row = allocate_risk(problem.risk_epsilon, M) if M else None
    z = inverse_normal_cdf(1.0 - eps_row) if M else 0.0    # no row reads it then
    box = np.flatnonzero(~np.isnan(sign))
    box_t, box_q, box_sign = t[box], q[box].astype(np.intp), sign[box]
    box_c = (-box_sign * bound[box] + z * np.sqrt(np.maximum(cov[box_t, box_q, box_q], 0.0))
             + box_sign * nominal[box_t, box_q])
    collisions = []     # per collision spec with rows: its rows m, their steps and covariances
    for k, spec in enumerate(specs):
        m = np.flatnonzero(source == k)
        if spec.kind == "collision" and m.size:
            sl_i, sl_j = (slices[a] for a in spec.pair)
            S = cov[t[m]]
            sigma = S[:, sl_i, sl_i] + S[:, sl_j, sl_j] - S[:, sl_i, sl_j] - S[:, sl_j, sl_i]
            collisions.append((spec, sl_i, sl_j, m, t[m], nominal[t[m]][:, :, None], sigma))

    def fill(reference_means) -> AffineConstraintSet:
        l, c = np.zeros((M, n_x)), np.zeros(M)
        l[box, box_q] = box_sign
        c[box] = box_c
        reference_means = np.asarray(reference_means, dtype=float)
        for spec, sl_i, sl_j, m, steps, nominal_t, sigma in collisions:
            delta = reference_means[steps, sl_i] - reference_means[steps, sl_j]
            try:
                dbar = reference_direction(delta, spec.C, spec.radius)
            except DegenerateReference as exc:
                raise DegenerateReference(*spec.pair, int(steps[exc.t]), exc.separation) from None
            a, offset = linearize_collision(dbar, sigma, spec.radius, spec.C, z)
            l[m, sl_i], l[m, sl_j] = -a, a
            c[m] = offset + (l[m][:, None, :] @ nominal_t)[:, 0, 0]    # one row's dot each
        return AffineConstraintSet(t=t, source=source, l=l, c=c, T=T)
    return fill


def assemble_constraints(problem: GameProblem, cov, reference_means) -> AffineConstraintSet:
    """The rows at the absolute-coordinate means ``reference_means`` (T+1, n_x),
    which give the collision reference directions.  Rows are built in absolute
    coordinates and their offsets folded against the problem's nominal, so they
    apply to solver-coordinate expected states: a box row l = sign e_q (sign +1
    for an upper bound, -1 for a lower) has the offset
    ``-sign bound + z sqrt(Sigma_qq) + sign nominal_q``."""
    return constraint_layout(problem, cov)(reference_means)
