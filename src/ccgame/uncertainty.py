"""Covariance propagation and conservative affine reformulation of chance constraints.

A joint chance constraint over the horizon is split by a uniform risk
allocation into per-row bounds, and each row is tightened into an affine
constraint on the expected trajectory:

* box rows back off the bound by ``z * sqrt(Sigma_qq)``;
* collision rows replace the quadratic keep-out set by its supporting
  halfspace at a reference separation ``dbar`` (with ``||dbar||_C = R``),
  backed off by ``z * ||2 C dbar||_Sigma``,

with ``z = inverse_normal_cdf(1 - eps_row)``.  The split is uniform, so
every one of the M rows gets ``eps_row = epsilon / M`` and one z serves every
row of an assembly.  A mean trajectory satisfying every row satisfies the
original joint chance constraint under the Gaussian noise model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllocationTooSmall, BadProbability, DegenerateReference, DomainError
from .model import GameProblem, _freeze

CDF_GUARD = 1e-12
DEGENERATE_SEPARATION = 1e-9


# ---------------------------------------------------------------------------
# Standard normal CDF / quantile

_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(x):
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def inverse_normal_cdf(p):
    """Standard normal quantile, |Psi(z) - p| <= 1e-10 on the guarded domain.

    Rational initial guess (Acklam) refined with one Halley step on the CDF.
    """
    p = float(p)
    if not (CDF_GUARD < p < 1.0 - CDF_GUARD):
        raise DomainError(f"probability {p} outside ({CDF_GUARD}, {1 - CDF_GUARD})")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # one Halley step on Psi(x) - p = 0
    err = normal_cdf(x) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# ---------------------------------------------------------------------------
# Covariance propagation


@dataclass(frozen=True)
class CovarianceSchedule:
    """State covariances Sigma[t] under the open-loop recursion, Sigma[0] = 0."""

    Sigma: np.ndarray   # (T+1, n_x, n_x)

    def __post_init__(self):
        object.__setattr__(self, "Sigma", _freeze(self.Sigma))

    def pair_difference_cov(self, t, slice_i, slice_j):
        """Covariance of x^i_t - x^j_t, including cross-covariance blocks."""
        S = self.Sigma[t]
        return (S[slice_i, slice_i] + S[slice_j, slice_j]
                - S[slice_i, slice_j] - S[slice_j, slice_i])


def covariance_recursion(F, W):
    """Sigma (T+1, n_x, n_x) of x+ = F_t x + w_t, w_t ~ N(0, W_t), Sigma[0] = 0:
    S+ = F S F' + W, symmetrized at every step."""
    Sigma = np.zeros((F.shape[0] + 1,) + F.shape[1:])
    for t in range(F.shape[0]):
        S = F[t] @ Sigma[t] @ F[t].T + W[t]
        Sigma[t + 1] = (S + S.T) / 2.0
    return Sigma


def propagate_covariance(dyn) -> CovarianceSchedule:
    """The open-loop schedule: the recursion with F = A."""
    return CovarianceSchedule(Sigma=covariance_recursion(dyn.A, dyn.W))


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


def reference_direction(delta, C, radius):
    """Radial projection of the nominal separation onto ||dbar||_C = R."""
    delta = np.asarray(delta, dtype=float)
    norm_c = math.sqrt(max(float(delta @ C @ delta), 0.0))
    if norm_c < DEGENERATE_SEPARATION:
        raise DegenerateReference(-1, -1, -1, norm_c)
    return radius * delta / norm_c


def linearize_collision(dbar, sigma_pair, radius, C, z):
    """Affine inner approximation of P(||d||^2_C >= R^2) >= 1 - eps_row,
    with z = inverse_normal_cdf(1 - eps_row).

    Returns (a, c) on the pair difference d = x^i - x^j: the row is
    ``-a @ E[d] + c <= 0`` with a = 2 C dbar and c collecting the constant
    2 R^2 and the Gaussian backoff.
    """
    dbar = np.asarray(dbar, dtype=float)
    norm_c = math.sqrt(float(dbar @ C @ dbar))
    if abs(norm_c - radius) > 1e-9 * max(1.0, radius):
        raise ValueError(f"reference direction has ||dbar||_C = {norm_c}, expected {radius}")
    a = 2.0 * (C @ dbar)
    backoff = z * math.sqrt(max(float(a @ sigma_pair @ a), 0.0))
    c = 2.0 * radius ** 2 + backoff
    return a, c


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
        if self.M == 0:
            return np.zeros(0)
        xstack = np.asarray(mean_traj)[1:].reshape(-1)
        return self.lmat.T @ xstack + self.c


def assemble_constraints(problem: GameProblem, cov: CovarianceSchedule,
                         reference_means) -> AffineConstraintSet:
    """Emit all active rows, ordered by time, then constraint index, then
    (coordinate, lower before upper) within a box.

    ``reference_means`` (T+1, n_x) are absolute-coordinate means used for the
    collision reference directions.  Rows are built in absolute coordinates
    and their offsets folded against the problem's nominal trajectory so that
    they apply to solver-coordinate expected states.  A box row l = sign e_q
    (sign +1 for an upper bound, -1 for a lower) has the offset
    ``-sign bound + z sqrt(Sigma_qq) + sign nominal_q``.
    """
    T, n_x = problem.T, problem.n_x
    slices = problem.agent_slices
    # each spec once: its steps, and a box's (coord, side, bound) rows
    expanded = [(k, spec, frozenset(spec.active_times),
                 spec.rows() if spec.kind == "box" else None)
                for k, spec in enumerate(problem.constraints)]
    M = sum(len(times) * (1 if box is None else len(box))
            for _, _, times, box in expanded)
    lmat = np.zeros((T * n_x, M))
    c = np.zeros(M)
    if M == 0:
        return AffineConstraintSet(lmat=lmat, c=c, rows=(), n_x=n_x)
    eps_row = allocate_risk(problem.risk_epsilon, M)
    z = inverse_normal_cdf(1.0 - eps_row)
    reference_means = np.asarray(reference_means, dtype=float)
    rows = []

    for t in range(1, T + 1):
        Sigma, nominal = cov.Sigma[t], problem.nominal_states[t]
        block = lmat[(t - 1) * n_x: t * n_x]
        for k, spec, times, box in expanded:
            if t not in times:
                continue
            if box is not None:
                for q, side, bound in box:
                    sign = 1.0 if side == "upper" else -1.0
                    m = len(rows)
                    block[q, m] = sign
                    c[m] = (-sign * bound + z * math.sqrt(max(float(Sigma[q, q]), 0.0))
                            + sign * nominal[q])
                    rows.append(ConstraintRow(kind="box", t=t, source=k,
                                              detail=(q, side, bound), eps_row=eps_row))
                continue
            i, j = spec.pair
            sl_i, sl_j = slices[i], slices[j]
            delta = reference_means[t][sl_i] - reference_means[t][sl_j]
            try:
                dbar = reference_direction(delta, spec.C, spec.radius)
            except DegenerateReference:
                norm_c = math.sqrt(max(float(delta @ spec.C @ delta), 0.0))
                raise DegenerateReference(i, j, t, norm_c) from None
            a, offset = linearize_collision(dbar, cov.pair_difference_cov(t, sl_i, sl_j),
                                            spec.radius, spec.C, z)
            l = np.zeros(n_x)
            l[sl_i] = -a
            l[sl_j] = a
            m = len(rows)
            block[:, m] = l
            c[m] = offset + float(l @ nominal)
            rows.append(ConstraintRow(kind="collision", t=t, source=k, detail=(i, j),
                                      eps_row=eps_row, dbar=_freeze(dbar)))
    return AffineConstraintSet(lmat=lmat, c=c, rows=tuple(rows), n_x=n_x)
