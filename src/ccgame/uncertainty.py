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
noise model.  A covariance schedule is a read-only array Sigma (T+1, n_x, n_x).
``constraint_layout``'s fill writes the rows at a stack of references, each collision
constraint's in one batched pass, and returns each reference's DegenerateReference (first
constraint, then first step), which ``assemble_constraints``, the one-game entry point,
raises.  A row reads one step and at most two agents, so the rows are one compact table
(``AffineConstraintSet``) that the solver reads through ``evaluate`` and ``span``, never
as a dense (T n_x, M) matrix.
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


def horizon_pass(T, starts, *recursions):
    """Recursions (X0, step) from each start tau in ``starts`` (ascending), X[0] = X0
    and X[k+1] = step(tau + k, X[k]), in one pass over steps t < T on the stack of the
    running starts: per recursion, views of one read-only buffer."""
    starts = np.asarray(starts, dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(T + 1 - starts)))
    at = offsets[:-1] - starts + np.arange(T + 1)[:, None]   # start i's row at step t
    # a lone start steps by int index (intersection's Sigma: 0.22 ms; 0.36 as a stack of one)
    lone = at[:, 0].tolist()
    moves = [(at[t, :live], at[t + 1, :live]) if live > 1 else (lone[t], lone[t + 1])
             for t, live in enumerate(np.searchsorted(starts, np.arange(T), side="right").tolist())]
    out = [np.repeat([X0], offsets[-1], axis=0) for X0, _ in recursions]
    for buf, (_, step) in zip(out, recursions):
        for t, (src, dst) in enumerate(moves):
            buf[dst] = step(t, buf[src])
    return [np.split(_freeze(buf), offsets[1:-1]) for buf in out]


def covariance_step(F, W):
    """Sigma of x+ = F_t x + w_t, w_t ~ N(0, W_t): S+ = F_t S F_t' + W_t from 0, symmetrized."""
    def step(t, S):
        S = F[t] @ S @ F[t].T + W[t]
        return (S + S.swapaxes(-1, -2)) / 2.0
    return np.zeros(F.shape[1:]), step


def propagate_covariance(dyn):
    """The read-only open-loop Sigma (T+1, n_x, n_x): the pass from tau = 0, F = A."""
    return horizon_pass(dyn.T, [0], covariance_step(dyn.A, dyn.W))[0][0]


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


def linearize_collision(dbar, sigma_pair, radius, C, z):
    """Affine inner approximation of P(||d||^2_C >= R^2) >= 1 - eps_row,
    with z = inverse_normal_cdf(1 - eps_row).

    Returns (a, c) on the pair difference d = x^i - x^j: the row is
    ``-a @ E[d] + c <= 0`` with a = 2 C dbar and c collecting the constant
    2 R^2 and the Gaussian backoff z ||a||_Sigma.  References (..., d) and
    pair covariances (..., d, d) give a (..., d) and c (...).
    """
    dbar = np.asarray(dbar, dtype=float)
    off = np.max(np.abs(np.sqrt(np.maximum(_quadratic(dbar, C), 0.0)) - radius), initial=0.0)
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


def row_table(problem: GameProblem):
    """Each row's (step, source, coordinate, sign, bound); a collision's last 3 are NaN."""
    specs = problem.constraints     # a spec's columns: its rows at one step
    columns = [np.array([(q, 1.0 if side == "upper" else -1.0, bound)
                         for q, side, bound in spec.rows()]).reshape(-1, 3)
               if spec.kind == "box" else np.full((1, 3), np.nan) for spec in specs]
    col_source = np.repeat(np.arange(len(specs)), [len(c) for c in columns])
    active = np.zeros((problem.T + 1, len(specs)), dtype=bool)
    for k, spec in enumerate(specs):
        active[np.array(spec.active_times, dtype=np.intp), k] = True
    t, col = np.nonzero(active[:, col_source])      # by step, then column
    return (t, col_source[col], *np.concatenate([np.zeros((0, 3)), *columns])[col].T)


def constraint_layout(problem: GameProblem, cov, rows):
    """The part of ``assemble_constraints`` no reference enters: z, the box rows and,
    per collision constraint, its rows and pair covariances gathered from Sigma ``cov``
    (T+1, n_x, n_x), for ``rows`` (a ``row_table``).  Returns ``fill(refs)``: the rows' l
    (S, M, n_x) and c (S, M) at a stack (S, T+1, n_x) of references, the collision rows in
    one batched pass per constraint, and, by stack index, the DegenerateReference (first
    constraint, then first step) of each entry that it cannot fill, whose rows of such a
    constraint it leaves unwritten."""
    n_x, specs = problem.n_x, problem.constraints
    slices, nominal = problem.agent_slices, problem.nominal_states
    t, source, q, sign, bound = rows
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

    def fill(refs):
        l, c = np.zeros((len(refs), M, n_x)), np.zeros((len(refs), M))
        l[:, box, box_q] = box_sign
        c[:, box] = box_c
        degenerate = {}
        for spec, sl_i, sl_j, m, steps, nominal_t, sigma in collisions:
            delta = refs[:, steps, sl_i] - refs[:, steps, sl_j]
            norm_c = np.sqrt(np.maximum(_quadratic(delta, spec.C), 0.0))
            bad = norm_c[..., 0] < DEGENERATE_SEPARATION
            for s, k in zip(*np.nonzero(bad)):      # each entry's first
                degenerate.setdefault(int(s), DegenerateReference(
                    *spec.pair, int(steps[k]), norm_c[s, k, 0]))
            ok = np.flatnonzero(~bad.any(axis=1))[:, None]     # the others' rows
            dbar = spec.radius * delta[ok[:, 0]] / norm_c[ok[:, 0]]    # on ||dbar||_C = R
            a, offset = linearize_collision(dbar, sigma, spec.radius, spec.C, z)
            l[ok, m, sl_i], l[ok, m, sl_j] = -a, a
            c[ok, m] = offset + (l[ok, m][..., None, :] @ nominal_t)[..., 0, 0]   # a row's dot each
        return l, c, degenerate
    return fill


def assemble_constraints(problem: GameProblem, cov, reference_means) -> AffineConstraintSet:
    """One game's rows at the absolute-coordinate means ``reference_means`` (T+1, n_x),
    which give the collision reference directions: ``constraint_layout``'s fill at a
    stack of one, whose DegenerateReference it raises.  Rows are built in absolute
    coordinates and their offsets folded against the problem's nominal, so they
    apply to solver-coordinate expected states: a box row l = sign e_q (sign +1
    for an upper bound, -1 for a lower) has the offset
    ``-sign bound + z sqrt(Sigma_qq) + sign nominal_q``."""
    rows = row_table(problem)
    l, c, degenerate = constraint_layout(problem, cov, rows)(
        np.asarray(reference_means, dtype=float)[None])
    if degenerate:
        raise degenerate[0]
    return AffineConstraintSet(t=rows[0], source=rows[1], l=l[0], c=c[0], T=problem.T)
