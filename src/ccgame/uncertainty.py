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
its steps in one batched pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import AllocationTooSmall, BadProbability, DegenerateReference, DomainError
from .model import GameProblem, _freeze

CDF_GUARD = 1e-12
DEGENERATE_SEPARATION = 1e-9


# ---------------------------------------------------------------------------
# Standard normal CDF / quantile


def normal_cdf(x):
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


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
class ConstraintRow:
    kind: str
    t: int
    source: int
    detail: tuple        # box: (coord, side, bound); collision: (i, j)
    eps_row: float
    dbar: np.ndarray | None = None


@dataclass(frozen=True)
class AffineConstraintSet:
    """Stacked rows g(x) = lmat^T xstack + c <= 0 on the expected trajectory.

    ``lmat`` is (T*n_x, M) with column m supported on the n_x block of its
    time; ``xstack`` stacks E[x_t] for t = 1..T in solver coordinates.
    """

    lmat: np.ndarray
    c: np.ndarray
    rows: tuple
    n_x: int

    def __post_init__(self):
        object.__setattr__(self, "lmat", _freeze(self.lmat))
        object.__setattr__(self, "c", _freeze(self.c))

    @property
    def M(self):
        return self.c.shape[0]

    def l_block(self, t):
        """(n_x, M) slice of lmat for time t in 1..T (zero rows elsewhere)."""
        return self.lmat[(t - 1) * self.n_x: t * self.n_x, :]

    def evaluate(self, mean_traj):
        """g at a solver-coordinate mean trajectory (T+1, n_x)."""
        xstack = np.asarray(mean_traj)[1:].reshape(-1)
        return self.lmat.T @ xstack + self.c


def constraint_layout(problem: GameProblem, cov):
    """The part of ``assemble_constraints`` no reference enters, as compact data:
    row order, z, the box rows, and per collision constraint its rows, steps
    and pair covariances gathered from Sigma ``cov`` (T+1, n_x, n_x).  Returns
    ``fill(reference_means)``, which adds the collision rows with one batched
    pass per constraint and returns the set."""
    T, n_x = problem.T, problem.n_x
    slices, nominal = problem.agent_slices, problem.nominal_states
    # each spec once: its steps, and a box's (coord, side, bound) rows
    expanded = [(k, spec, frozenset(spec.active_times),
                 spec.rows() if spec.kind == "box" else None)
                for k, spec in enumerate(problem.constraints)]
    M = sum(len(times) * (1 if box is None else len(box))
            for _, _, times, box in expanded)
    eps_row = allocate_risk(problem.risk_epsilon, M) if M else None
    z = inverse_normal_cdf(1.0 - eps_row) if M else 0.0    # no row reads it then
    rows, boxes, slots = [], [], {}     # a collision row's slot in rows holds None
    for t in range(1, T + 1):
        for k, spec, times, box in expanded:
            if t not in times:
                continue
            if box is None:
                slots.setdefault(k, []).append((len(rows), t))
                rows.append(None)
                continue
            for q, side, bound in box:
                boxes.append((len(rows), t, q, 1.0 if side == "upper" else -1.0, bound))
                rows.append(ConstraintRow(kind="box", t=t, source=k,
                                          detail=(q, side, bound), eps_row=eps_row))
    m, t, q, sign, bound = np.array(boxes, dtype=float).reshape(-1, 5).T
    t, q = t.astype(np.intp), q.astype(np.intp)
    box_m, box_at, box_sign = m.astype(np.intp), (t - 1) * n_x + q, sign
    box_c = (-sign * bound + z * np.sqrt(np.maximum(cov[t, q, q], 0.0))
             + sign * nominal[t, q])
    collisions = []     # per collision spec: its rows m, steps t and pair covariances
    for k, pairs in slots.items():
        spec, (m, t) = problem.constraints[k], np.array(pairs, dtype=np.intp).T
        sl_i, sl_j = (slices[a] for a in spec.pair)
        S = cov[t]
        sigma = S[:, sl_i, sl_i] + S[:, sl_j, sl_j] - S[:, sl_i, sl_j] - S[:, sl_j, sl_i]
        collisions.append((k, spec, sl_i, sl_j, m, t, nominal[t][:, :, None], sigma))

    def fill(reference_means) -> AffineConstraintSet:
        lmat, c = np.zeros((T * n_x, M)), np.zeros(M)
        lmat[box_at, box_m] = box_sign
        c[box_m] = box_c
        filled = list(rows)
        reference_means = np.asarray(reference_means, dtype=float)
        for k, spec, sl_i, sl_j, m, t, nominal_t, sigma in collisions:
            delta = reference_means[t, sl_i] - reference_means[t, sl_j]
            try:
                dbar = reference_direction(delta, spec.C, spec.radius)
            except DegenerateReference as exc:
                raise DegenerateReference(*spec.pair, int(t[exc.t]), exc.separation) from None
            a, offset = linearize_collision(dbar, sigma, spec.radius, spec.C, z)
            l = np.zeros((len(m), n_x))
            l[:, sl_i], l[:, sl_j] = -a, a
            lmat.reshape(T, n_x, M)[t - 1, :, m] = l
            c[m] = offset + (l[:, None, :] @ nominal_t)[:, 0, 0]    # one row's dot each
            for m_r, t_r, dbar_r in zip(m.tolist(), t.tolist(), dbar):
                filled[m_r] = ConstraintRow(kind="collision", t=t_r, source=k,
                                            detail=spec.pair, eps_row=eps_row,
                                            dbar=_freeze(dbar_r))
        return AffineConstraintSet(lmat=lmat, c=c, rows=tuple(filled), n_x=n_x)
    return fill


def assemble_constraints(problem: GameProblem, cov, reference_means) -> AffineConstraintSet:
    """Emit all active rows, ordered by time, then constraint index, then
    (coordinate, lower before upper) within a box.

    ``reference_means`` (T+1, n_x) are absolute-coordinate means used for the
    collision reference directions.  Rows are built in absolute coordinates
    and their offsets folded against the problem's nominal trajectory so that
    they apply to solver-coordinate expected states.  A box row l = sign e_q
    (sign +1 for an upper bound, -1 for a lower) has the offset
    ``-sign bound + z sqrt(Sigma_qq) + sign nominal_q``.
    """
    return constraint_layout(problem, cov)(reference_means)
