"""Linear feedback Nash equilibrium of multiplier-parameterized LQG games.

Each player minimizes a quadratic tracking cost plus a shared state-linear
term ``lam^T (lmat^T xstack + c)``; the equilibrium is linear state feedback
``u^i_t = -K^i_t x_t - alpha^i_t`` obtained by a backward sweep of coupled
Riccati recursions.  At every stage all players' gains (and affine terms)
are solved simultaneously from one block linear system whose diagonal blocks
are ``R^i + B^i' P^i B^i`` and off-diagonal blocks ``B^i' P^i B^j``.

Value-function convention: ``V^i_t(x) = x' P^i_t x + 2 zeta^i_t' x + const``,
so the per-stage linear coefficient entering the zeta recursion is half the
gradient of the stage cost's linear part (the multiplier contributes
``0.5 * l_t lam`` and a goal reference contributes ``-Q^i_t r^i_t``).

One private sweep, ``_riccati_sweep``, builds and solves every stage system.
Its linear term has m columns and zeta carries one column per column, so
the gains are solved once and the affine terms for all columns at once:
``backward_recursion`` runs it with the one column ``s_t`` at a given lam,
and ``affine_response`` with M + 1 columns (``0.5 l_t`` per multiplier and
``-Q r``), from which the exact map lam -> g follows by one forward pass;
its constant column is the lam = 0 policy, so no separate solve is needed.
The tests keep a single-player best-response sweep (``tests/oracles.py``)
as an independent reference for the coupled solve.

Expected cost = the cost of the mean trajectory plus the trace terms of the
closed-loop covariance; ``evaluate_cost`` gives it for all players at once,
from the trajectory a caller already holds (the final solve's, in a solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularStageSystem
from .model import GameProblem, _freeze
from .uncertainty import covariance_recursion

RCOND_MIN = 1e-12


@dataclass(frozen=True)
class FeedbackPolicy:
    """Per-time, per-player linear feedback: u^i_t = -K[t, i] x_t - alpha[t, i]."""

    K: np.ndarray        # (T, N, n_u, n_x)
    alpha: np.ndarray    # (T, N, n_u)

    def __post_init__(self):
        object.__setattr__(self, "K", _freeze(self.K))
        object.__setattr__(self, "alpha", _freeze(self.alpha))

    @property
    def T(self):
        return self.K.shape[0]

    @property
    def N(self):
        return self.K.shape[1]


def _check_rcond(S, t):
    """Raise SingularStageSystem when the stage system S is near-singular."""
    sv = np.linalg.svd(S, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if rcond < RCOND_MIN:
        raise SingularStageSystem(t, rcond)


def _stage_solve(P_next, zeta_next, A, B, R, t=0):
    """All players' gains and affine terms at one stage from the joint solve.

    P_next: (N, n_x, n_x); zeta_next: (N, n_x, m); A: (n_x, n_x);
    B: (N, n_x, n_u); R: (N, n_u, n_u).  Returns K (N, n_u, n_x) and
    a (N, n_u, m), one affine term per column of zeta_next.
    """
    N, n_x, n_u = B.shape
    S = np.zeros((N * n_u, N * n_u))
    for i in range(N):
        BtP = B[i].T @ P_next[i]
        for j in range(N):
            blk = BtP @ B[j]
            if i == j:
                blk = blk + R[i]
            S[i * n_u:(i + 1) * n_u, j * n_u:(j + 1) * n_u] = blk
    _check_rcond(S, t)
    YK = np.concatenate([B[i].T @ P_next[i] @ A for i in range(N)], axis=0)
    Ya = np.concatenate([B[i].T @ zeta_next[i] for i in range(N)], axis=0)
    sol = np.linalg.solve(S, np.concatenate([YK, Ya], axis=1))
    return (sol[:, :n_x].reshape(N, n_u, n_x),
            sol[:, n_x:].reshape(N, n_u, -1))


def _riccati_sweep(problem: GameProblem, linear_term):
    """Coupled Riccati sweep t = T-1..0 with an m-column linear term.

    ``linear_term(t)`` returns the (N, n_x, m) half linear coefficients of
    stage t; zeta carries one column per column of it, and only the current
    zeta is kept.  Returns K (T, N, n_u, n_x), a (T, N, n_u, m), the closed
    loop F (T, n_x, n_x) and P (T+1, N, n_x, n_x).
    """
    dyn = problem.dyn
    N, T, n_x, n_u = problem.N, problem.T, problem.n_x, problem.n_u
    zeta = linear_term(T)
    P = np.zeros((T + 1, N, n_x, n_x))
    P[T] = problem.Q[:, T]
    K = np.zeros((T, N, n_u, n_x))
    a = np.zeros((T, N, n_u, zeta.shape[2]))
    F = np.zeros((T, n_x, n_x))

    for t in range(T - 1, -1, -1):
        A, B, R = dyn.A[t], dyn.B[t], problem.R[:, t]
        K[t], a[t] = _stage_solve(P[t + 1], zeta, A, B, R, t)
        F[t] = A - np.einsum("iab,ibc->ac", B, K[t])
        Ba = np.einsum("iab,ibm->am", B, a[t])
        s = linear_term(t)
        zeta_new = np.zeros_like(zeta)
        for i in range(N):
            Pn = (F[t].T @ P[t + 1, i] @ F[t]
                  + K[t, i].T @ R[i] @ K[t, i] + problem.Q[i, t])
            P[t, i] = (Pn + Pn.T) / 2.0
            zeta_new[i] = (F[t].T @ (zeta[i] - P[t + 1, i] @ Ba)
                           + K[t, i].T @ R[i] @ a[t, i] + s[i])
        zeta = zeta_new
    return K, a, F, P


def stage_linear_terms(problem: GameProblem, conset=None, lam=None):
    """Half linear coefficients s[i, t] = 0.5 l_t lam - Q^i_t r^i_t, t = 1..T."""
    s = -np.einsum("itab,itb->ita", problem.Q, problem.ref)
    if conset is not None and lam is not None and conset.M > 0:
        lam = np.asarray(lam, dtype=float)
        lterm = (conset.lmat @ lam).reshape(problem.T, problem.n_x)
        s[:, 1:, :] += 0.5 * lterm[None, :, :]
    return s


def backward_recursion(problem: GameProblem, conset=None, lam=None):
    """Feedback NE policy at multiplier lam: the sweep with one linear column.

    With lam = 0 (or no constraint set) and zero references the affine terms
    vanish and the policy is the unconstrained LQ-game equilibrium.
    """
    s = stage_linear_terms(problem, conset, lam)
    K, a, _, _ = _riccati_sweep(problem, lambda t: s[:, t, :, None])
    return FeedbackPolicy(K=K, alpha=a[..., 0])


def closed_loop_step(A_t, B_t, K_t, alpha_t, x, L_t=None, z_t=None):
    """Step states x (S, n_x): u = -K_t x - alpha_t, x+ = (A_t x + B_t u) + L_t z_t.

    u (S, N, n_u) is grouped by agent as B_t is, also for a central plan's K_t
    that stacks all inputs.  Products are stacked matmuls, one BLAS call per
    row of x, so row s does not depend on S."""
    u = -(K_t @ x[:, None, :, None])[..., 0] - alpha_t
    u = u.reshape(len(x), B_t.shape[0], -1)
    x_next = (A_t @ x[:, :, None])[..., 0] + np.einsum("iab,sib->sa", B_t, u)
    if L_t is not None:
        x_next += (L_t @ z_t[:, :, None])[..., 0]
    return u, x_next


def integrate_expected(dyn, policy: FeedbackPolicy):
    """Mean closed-loop trajectory (T+1, n_x): the zero-noise integration."""
    xs = np.zeros((dyn.T + 1, dyn.n_x))
    xs[0] = dyn.x0
    for t in range(dyn.T):
        _, xs[t + 1:t + 2] = closed_loop_step(dyn.A[t], dyn.B[t], policy.K[t],
                                              policy.alpha[t], xs[t:t + 1])
    return xs


def mean_inputs(dyn, policy: FeedbackPolicy, mean_traj=None):
    """(T, N, n_u) inputs along the mean trajectory."""
    if mean_traj is None:
        mean_traj = integrate_expected(dyn, policy)
    return np.stack([-policy.K[t] @ mean_traj[t] - policy.alpha[t]
                     for t in range(dyn.T)])


def closed_loop_covariance(dyn, policy: FeedbackPolicy):
    """Sigma-hat recursion under the feedback loop: S+ = F S F' + W, F = A - B K."""
    F = np.stack([dyn.A[t] - np.einsum("iab,ibc->ac", dyn.B[t], policy.K[t])
                  for t in range(dyn.T)])
    return covariance_recursion(F, dyn.W)


def realized_costs(problem: GameProblem, states, inputs):
    """Per-sample per-player cost of realized trajectories (solver coords)."""
    costs = np.zeros((states.shape[0], problem.N))
    for i in range(problem.N):
        err = states[:, 1:, :] - problem.ref[i, 1:][None, :, :]
        costs[:, i] += np.einsum("sta,tab,stb->s", err, problem.Q[i, 1:], err)
        u = inputs[:, :, i, :]
        costs[:, i] += np.einsum("sta,tab,stb->s", u, problem.R[i], u)
    return costs


def evaluate_cost(problem: GameProblem, policy: FeedbackPolicy, mean_traj=None):
    """(N,) exact expected costs: ``realized_costs`` of the mean trajectory
    (integrated when not given) plus tr(Q Sigma) and tr(R K Sigma K')."""
    dyn = problem.dyn
    if mean_traj is None:
        mean_traj = integrate_expected(dyn, policy)
    us = mean_inputs(dyn, policy, mean_traj)
    Sig = closed_loop_covariance(dyn, policy)
    KSK = np.einsum("tiab,tbc,tidc->tiad", policy.K, Sig[:-1], policy.K)
    return (realized_costs(problem, mean_traj[None], us[None])[0]
            + np.einsum("itab,tba->i", problem.Q[:, 1:], Sig[1:])
            + np.einsum("itab,tiba->i", problem.R, KSK))


def evaluate_lagrangian(problem: GameProblem, policy: FeedbackPolicy, lam=None,
                        conset=None, mean_traj=None):
    """(N,) J^i plus lam^T g, with g at the policy's mean trajectory."""
    if mean_traj is None:
        mean_traj = integrate_expected(problem.dyn, policy)
    cost = evaluate_cost(problem, policy, mean_traj)
    if conset is None or lam is None:
        return cost
    return cost + float(np.asarray(lam) @ conset.evaluate(mean_traj))


def affine_response(problem: GameProblem, conset):
    """Exact affine map lam -> g at the equilibrium, from one sweep.

    The stage gains do not depend on lam, and zeta (hence alpha and the mean
    trajectory) is affine in it, so a sweep whose linear term has M+1 columns
    (0.5 l_t for the multipliers, -Q r for the constant) reproduces exactly
    what M+1 unit-probe solves would measure.  Returns (G, ctilde, policy0)
    with g(lam) = G @ lam + ctilde, G of shape (M, M), and policy0 the
    equilibrium at lam = 0, whose affine term is the constant column.  With
    M = 0 the linear term is the one column -Q r.
    """
    dyn = problem.dyn
    N, T, n_x = problem.N, problem.T, problem.n_x
    M = conset.M
    s = stage_linear_terms(problem)

    def linear_term(t):
        C = np.zeros((N, n_x, M + 1))
        if t >= 1:
            C[:, :, :M] = 0.5 * conset.l_block(t)
            C[:, :, M] = s[:, t]
        return C

    K, aC, F, _ = _riccati_sweep(problem, linear_term)

    # forward sweep of the affine mean trajectory
    X = np.zeros((n_x, M + 1))
    X[:, M] = dyn.x0
    xstack = np.zeros((T * n_x, M + 1))
    for t in range(T):
        BaC = np.einsum("iab,ibm->am", dyn.B[t], aC[t])
        X = F[t] @ X - BaC
        xstack[t * n_x:(t + 1) * n_x] = X
    gmap = conset.lmat.T @ xstack
    G = gmap[:, :M]
    ctilde = gmap[:, M] + conset.c
    return G, ctilde, FeedbackPolicy(K=K, alpha=aC[..., M])


# ---------------------------------------------------------------------------
# Policy persistence


def policy_to_dict(policy: FeedbackPolicy, fingerprint: str) -> dict:
    return {
        "fingerprint": fingerprint,
        "horizon": policy.T,
        "players": policy.N,
        "K": policy.K.tolist(),
        "alpha": policy.alpha.tolist(),
    }


def policy_from_dict(doc: dict):
    """Returns (FeedbackPolicy, fingerprint)."""
    policy = FeedbackPolicy(K=np.asarray(doc["K"], dtype=float),
                            alpha=np.asarray(doc["alpha"], dtype=float))
    return policy, str(doc.get("fingerprint", ""))
