"""Linear feedback Nash equilibrium of multiplier-parameterized LQG games,
returned as arrays: the CLI writes and reads ``policy.json``.

Each player minimizes a quadratic tracking cost plus a shared state-linear
term ``lam^T g``, row m of g being ``l_m . E[x_{t_m}] + c_m`` (see
``uncertainty.AffineConstraintSet``); the equilibrium is linear state feedback
``u^i_t = -K^i_t x_t - alpha^i_t`` obtained by a backward sweep of coupled
Riccati recursions.  At every stage all players' gains (and affine terms)
are solved simultaneously from one block linear system whose diagonal blocks
are ``R^i + B^i' P^i B^i`` and off-diagonal blocks ``B^i' P^i B^j``, each
stage's formulas written once for all players on stacked arrays.

Value-function convention: ``V^i_t(x) = x' P^i_t x + 2 zeta^i_t' x + const``,
so the per-stage linear coefficient entering the zeta recursion is half the
gradient of the stage cost's linear part (the rows of step t contribute
``0.5 sum lam_m l_m`` and a goal reference contributes ``-Q^i_t r^i_t``).

One backward sweep, ``_zeta_sweep``, is the only Riccati recursion; zeta
carries one column per column of an m-column linear term.  Given no gains it
builds each S_t, solves [B'P A | Ya] at once for K_t and the affine terms, and
then checks every S_t in one stacked SVD (``_check_rcond``).  ``stage_gains``
runs it with the goal column s_t, for K, F, P, S_t and the lam = 0 affine
terms alpha0 (``backward_recursion``'s policy), none of which depends on lam
or x0 (a replan at tau reads their ``tail(tau)``); ``zeta_response`` adds a
unit term at each (step, coordinate), whose response Psi gives a central-MPC
replan's columns (``response_alphas``).  On fixed gains it solves S_t against
Ya alone: ``column_alphas`` runs it with chosen columns of G (``0.5 l_m`` at
step t_m for multiplier m; see ``dualascent``).  From either,
``affine_response``'s one forward pass gives the rows of the linear part of
the map lam -> g, each step's rows (``span``) read as their mean X_t is formed,
for E entries at once: a solve's one, or every violating episode at a replan
time, whose rows l alone differ; a replan's lam = 0 mean is Phi x0 + d
(``simulate.CentralPlanner``).  A column's bits do not depend on the other
columns of its pass: a 1-column solve or 1-row product goes down another BLAS
route, so a zero column pads a single one (``_zeta_sweep`` does so itself),
``affine_response`` pads each entry to a common width of two or more with its
own last column, and ``_gemm`` doubles a 1-row matrix.  The sums over agents
(the sweep's F_t and B a_t, the forward pass's B a_t) are 2-D einsums on the
agent-stacked [B^1 .. B^N], whose bits are the per-agent sums' only on
contiguous operands (K_t and a_t reshaped, never a strided slice of a solve).
The tests keep the full sweep, the per-stage rcond check and a single-player
best-response sweep (``tests/oracles.py``) as references.

``closed_loop_step`` steps one state, or a stack of them each as alone, on
the agent-stacked [B^1 .. B^N], which ``integrate_expected`` stacks once per
call.  ``closed_loop_matrix`` gives the closed-loop covariance and the
rollouts, whose deviations from the mean ``fixed_order_sums`` steps, the
stacked F_t = A_t - sum_i B^i_t K^i_t of a policy, the sweep's F bit for bit.

Expected cost = the cost of the mean trajectory plus the trace terms of the
closed-loop covariance; ``evaluate_cost`` gives it for all players at once,
from the trajectory and the ``trace_terms`` (K's alone) a caller holds.

Realized costs (rollouts, the central MPC, ``evaluate_cost``) and the
violation mask's collision rows sum quadratic forms with ``quadratic_sums``.
It visits only nonzero weights (103 of a player's 7,400 (t, a, b) terms on
``intersection``) and fixes the order: each sample adds (x_a M_ab) x_b one
term at a time, in C order of (t, a, b), to a running sum from +0.0.  That
is the order of the ``einsum("sta,tab,stb->s")`` it replaced on the callers'
layouts, so the sums are bit-identical (the tests pin the kernel to a flat
loop and the loop to einsum).  A skipped zero weight changes nothing for
finite x: its term is +-0, which leaves unchanged a sum that starts at +0.0
and so is never -0.0 (only -0 + -0 is).  Einsum took another order only
where an axis of length 2 let it sum a row of b first (seen with n = 2 at
T = 1 and S <= 2, and in the collision form at <= 2 active steps); no
bundled scenario reaches that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, SingularStageSystem
from .model import GameProblem, _freeze
from .uncertainty import covariance_step, horizon_pass

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


def _check_rcond(S, start=0):
    """Raise SingularStageSystem at the latest stage t >= start whose S[t] is near-singular,
    or DomainError if it is not finite, as checks from t = T-1 down would: one stacked SVD,
    and one per stage only where LAPACK fails (on a NaN; inf alone gives NaN, rcond 0)."""
    try:
        sv = np.linalg.svd(S[start:], compute_uv=False)
    except np.linalg.LinAlgError:     # (on a NaN) stage by stage, latest first
        for t in range(len(S) - 1, start, -1):
            _check_rcond(S[:t + 1], t)
        if np.isfinite(S[start]).all():
            raise
        raise DomainError(f"stage {start}: the joint gain system overflows") from None
    rcond = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(sv)), where=sv[:, 0] > 0)
    bad = np.flatnonzero(rcond < RCOND_MIN)
    if bad.size:
        raise SingularStageSystem(start + int(bad[-1]), float(rcond[bad[-1]]))


@dataclass(frozen=True)
class StageGains:
    """The lam- and x0-independent part of the sweep: K (T, N, n_u, n_x), the closed
    loop F (T, n_x, n_x), P (T+1, N, n_x, n_x), the stage systems S (T, N n_u, N n_u),
    KtR[t, i] = K[t, i]' R^i_t (T, N, n_x, n_u), which a zeta pass on them reads, and
    the goal references' lam = 0 affine terms alpha0 (T, N, n_u)."""

    K: np.ndarray
    F: np.ndarray
    P: np.ndarray
    S: np.ndarray
    KtR: np.ndarray
    alpha0: np.ndarray

    def __post_init__(self):
        for name in ("K", "F", "P", "S", "KtR", "alpha0"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def tail(self, tau):
        """The gains of the problem sliced at time tau (``simulate.slice_problem``): stages
        t >= tau see the same P_{t+1} and zeta_{t+1}, so all but P[0] is the slice's own;
        P[0] keeps Q at tau, which the slice zeroes, and no zeta pass reads it."""
        return StageGains(K=self.K[tau:], F=self.F[tau:], P=self.P[tau:], S=self.S[tau:],
                          KtR=self.KtR[tau:], alpha0=self.alpha0[tau:])


def stage_gains(problem: GameProblem) -> StageGains:
    """The problem's stage gains and alpha0: the one sweep with the goal column."""
    s = stage_linear_terms(problem)
    return _zeta_sweep(problem, None, lambda t: s[:, t, :, None])[0]


def _zeta_sweep(problem: GameProblem, gains, linear_term, start=None):
    """The one backward Riccati sweep: affine terms a (T, N, n_u, m) of an m-column
    linear term on ``gains``; given None, (gains, a), the gains built on the way.

    ``linear_term(t)`` returns stage t's (N, n_x, m) half linear coefficients;
    only the current zeta is kept.  A stage solves S_t against Ya, all players
    at once, or, building, [B'P A | Ya] for K_t too; the built gains' alpha0 is
    the last column's.  A zero column pads a 1-column term (see the module
    docstring).  The sweep starts at ``start`` (default T); a is 0 after it.
    """
    dyn, N, T, n_x, n_u = problem.dyn, problem.N, problem.T, problem.n_x, problem.n_u
    start = T if start is None else start
    zeta = linear_term(start)
    m = zeta.shape[2]
    zeta = np.concatenate([zeta, np.zeros_like(zeta)], axis=2) if m == 1 else zeta
    a = np.zeros((T, N, n_u, zeta.shape[2]))
    B = _agent_stacked(dyn)
    if gains is None:
        K, F, KtR = np.zeros((T, N, n_u, n_x)), np.zeros((T, n_x, n_x)), np.zeros((T, N, n_x, n_u))
        P, S = np.zeros((T + 1, N, n_x, n_x)), np.zeros((T, N * n_u, N * n_u))
        P[T] = problem.Q[:, T]
    else:
        K, F, P, S, KtR = gains.K, gains.F, gains.P, gains.S, gains.KtR
    with np.errstate(over="ignore", invalid="ignore"):   # a stage's overflow fails the check
        for t in range(start - 1, -1, -1):
            Bt = dyn.B[t].transpose(0, 2, 1)     # (N, n_u, n_x)
            Ya = _gemm(Bt, zeta).reshape(N * n_u, -1)
            if gains is None:
                BtP, R = Bt @ P[t + 1], problem.R[:, t]
                blocks = BtP[:, None] @ dyn.B[t]                # (i, j): B^i' P^i B^j
                blocks[np.diag_indices(N)] += R
                S[t] = blocks.transpose(0, 2, 1, 3).reshape(N * n_u, N * n_u)
                try:
                    sol = np.linalg.solve(S[t], np.concatenate(
                        [(BtP @ dyn.A[t]).reshape(N * n_u, n_x), Ya], axis=1))
                except np.linalg.LinAlgError:   # exactly singular: the check names the stage
                    _check_rcond(S, t)
                    raise
                K[t], a[t] = sol[:, :n_x].reshape(N, n_u, n_x), sol[:, n_x:].reshape(N, n_u, -1)
                F[t] = dyn.A[t] - np.einsum("ak,kc->ac", B[t], K[t].reshape(N * n_u, n_x))
                KtR[t] = K[t].transpose(0, 2, 1) @ R
                Pn = F[t].T @ P[t + 1] @ F[t] + KtR[t] @ K[t] + problem.Q[:, t]
                P[t] = (Pn + Pn.transpose(0, 2, 1)) / 2.0
            else:
                a[t] = np.linalg.solve(S[t], Ya).reshape(N, n_u, -1)
            Ba = np.einsum("ak,km->am", B[t], a[t].reshape(N * n_u, -1))
            zeta = F[t].T @ (zeta - P[t + 1] @ Ba) + _gemm(KtR[t], a[t])
            zeta[..., :m] += linear_term(t)
        if gains is None:
            _check_rcond(S)
            return StageGains(K=K, F=F, P=P, S=S, KtR=KtR, alpha0=a[..., m - 1]), a[..., :m]
    return a[..., :m]


def _gemm(A, X):
    """A @ X (stacks too) with every column alike: a 1-row A times several
    columns would go down gemv, whose last bits depend on a column's place in X."""
    if A.shape[-2] == 1 < X.shape[-1]:
        return (np.concatenate([A, A], axis=-2) @ X)[..., :1, :]
    return A @ X


def _agent_stacked(dyn):
    """[B^1_t .. B^N_t] (T, n_x, N n_u), contiguous (see the module docstring)."""
    return np.ascontiguousarray(dyn.B.transpose(0, 2, 1, 3).reshape(dyn.T, dyn.n_x, -1))


def stage_linear_terms(problem: GameProblem):
    """Half linear coefficients s[i, t] = -Q^i_t r^i_t of the goal references."""
    return -np.einsum("itab,itb->ita", problem.Q, problem.ref)


def backward_recursion(problem: GameProblem, gains=None):
    """The lam = 0 feedback NE policy: K and alpha0 of the problem's gains (computed
    here when not given); with zero references, the unconstrained LQ-game equilibrium."""
    gains = stage_gains(problem) if gains is None else gains
    return FeedbackPolicy(K=gains.K, alpha=gains.alpha0)


def closed_loop_step(A_t, B_t, K_t, alpha_t, x, L_t=None, z_t=None):
    """Step one state x (n_x,) or a stack (S, n_x), alpha_t and z_t per state:
    u = -K_t x - alpha_t, x+ = (A_t x + B_t u) + L_t z_t, a matvec per state each.

    B_t (n_x, N n_u) is the agent-stacked [B^1_t .. B^N_t], so sum_i B^i_t u^i
    is one matvec; u is shaped as alpha_t.  The bits depend on x's strides, since
    matvec picks its route by stride: so the MPC batch that it steps is sample-major."""
    u = -np.matvec(K_t, x[..., None, :]) - alpha_t
    x_next = np.matvec(A_t, x) + np.matvec(B_t, u.reshape(*x.shape[:-1], -1))
    if L_t is not None:
        x_next += np.matvec(L_t, z_t)
    return u, x_next


def integrate_expected(dyn, policy: FeedbackPolicy):
    """Mean closed-loop trajectory (T+1, n_x): the zero-noise integration."""
    xs = np.zeros((dyn.T + 1, dyn.n_x))
    xs[0] = dyn.x0
    B = _agent_stacked(dyn)
    for t in range(dyn.T):
        _, xs[t + 1] = closed_loop_step(dyn.A[t], B[t], policy.K[t], policy.alpha[t], xs[t])
    return xs


def mean_inputs(dyn, policy: FeedbackPolicy, mean_traj):
    """(T, N, n_u) inputs along the mean trajectory."""
    return np.stack([-policy.K[t] @ mean_traj[t] - policy.alpha[t]
                     for t in range(dyn.T)])


def closed_loop_matrix(dyn, K):
    """F (T, n_x, n_x), F_t = A_t - sum_i B^i_t K^i_t, of gains K (T, N, n_u, n_x)."""
    return dyn.A - np.einsum("tiab,tibc->tac", dyn.B, K)


def closed_loop_covariance(dyn, policy: FeedbackPolicy):
    """Sigma-hat recursion under the feedback loop: S+ = F S F' + W."""
    return horizon_pass(dyn.T, [0], covariance_step(closed_loop_matrix(dyn, policy.K), dyn.W))[0][0]


def quadratic_sums(x, M):
    """(S,) sums over t, a, b of (x[s, t, a] M[t, a, b]) x[s, t, b]; x (S, T, n), M (T, n, n).

    M's nonzero terms, one at a time in the order the module docstring fixes;
    vectorised across samples only.  Quiet on non-finite values, as einsum is.
    """
    out = np.zeros(x.shape[0])
    term = np.empty_like(out)
    t_prev = -1
    with np.errstate(all="ignore"):
        for t, a, b in zip(*(idx.tolist() for idx in np.nonzero(M))):
            if t != t_prev:
                xt, t_prev = np.ascontiguousarray(x[:, t].T), t
            np.multiply(xt[a], M[t, a, b], out=term)
            term *= xt[b]
            out += term
    return out


def fixed_order_sums(*pairs):
    """(r, S) sum of M @ X over pairs of M (r, c) and X (c, S): each nonzero
    M[a, b], pair by pair in C order of M, adds M[a, b] * X[b] to row a's sum
    from +0.0, elementwise over samples, so column s does not depend on the
    others.  Quiet on non-finite values, as a matmul is."""
    out = np.zeros((len(pairs[0][0]), pairs[0][1].shape[1]))
    term, sums = np.empty(out.shape[1]), list(out)
    with np.errstate(all="ignore"):
        for M, X in pairs:
            rows, cols = np.nonzero(M)
            for a, b, v in zip(rows.tolist(), cols.tolist(), M[rows, cols].tolist()):
                np.multiply(X[b], v, out=term)
                np.add(sums[a], term, out=sums[a])
    return out


def realized_costs(problem: GameProblem, states, inputs):
    """Per-sample per-player cost of realized trajectories (solver coords)."""
    costs = np.zeros((states.shape[0], problem.N))
    for i in range(problem.N):
        t = 1 + np.flatnonzero(problem.Q[i, 1:].any(axis=(1, 2)))   # steps Q^i weighs
        costs[:, i] += quadratic_sums(states[:, t] - problem.ref[i, t], problem.Q[i, t])
        costs[:, i] += quadratic_sums(inputs[:, :, i, :], problem.R[i])
    return costs


def trace_terms(problem: GameProblem, policy: FeedbackPolicy):
    """(N,) tr(Q Sigma) and (N,) tr(R K Sigma K'), which depend on K alone."""
    Sig = closed_loop_covariance(problem.dyn, policy)
    KSK = np.einsum("tiab,tbc,tidc->tiad", policy.K, Sig[:-1], policy.K)
    return (np.einsum("itab,tba->i", problem.Q[:, 1:], Sig[1:]),
            np.einsum("itab,tiba->i", problem.R, KSK))


def evaluate_cost(problem: GameProblem, policy: FeedbackPolicy, mean_traj=None, terms=None):
    """(N,) exact expected costs: ``realized_costs`` of the mean trajectory
    (integrated when not given) plus the ``trace_terms`` (computed when not given)."""
    dyn = problem.dyn
    if mean_traj is None:
        mean_traj = integrate_expected(dyn, policy)
    us = mean_inputs(dyn, policy, mean_traj)
    trQ, trR = trace_terms(problem, policy) if terms is None else terms
    return realized_costs(problem, mean_traj[None], us[None])[0] + trQ + trR


def evaluate_lagrangian(problem: GameProblem, policy: FeedbackPolicy, lam, conset,
                        mean_traj=None, terms=None):
    """(N,) J^i plus lam^T g, with g at the policy's mean trajectory."""
    if mean_traj is None:
        mean_traj = integrate_expected(problem.dyn, policy)
    return (evaluate_cost(problem, policy, mean_traj, terms)
            + float(np.asarray(lam) @ conset.evaluate(mean_traj)))


def affine_response(problem: GameProblem, conset, gains, columns, a, l):
    """The linear part of the exact affine map lam -> g at the equilibrium, for E >= 1
    entries in one forward pass on ``gains``: entry e has rows ``l[e]`` (M, n_x) on
    ``conset``'s steps and G columns ``columns[e]`` (maybe none), whose affine terms
    lie side by side in ``a`` (T, N, n_u, k_1 + .. + k_E).

    On the fixed gains zeta (hence alpha and the mean trajectory) is affine in lam,
    so the mean's linear part X_t, driven by the columns' affine terms, gives exactly
    what unit-probe solves would measure less their lam = 0 part.  Returns one
    (G[:, columns[e]], alphas) per entry: g(lam) = G lam + ctilde and alpha(lam) =
    alpha0 + sum_c lam_c alphas[c], ctilde and alpha0 being the lam = 0 equilibrium's.
    Each step runs one F_t and one B product over every column and one stacked
    product of the rows of the entries with columns, each padded to a common width
    of two or more with its own last column (see the module docstring)."""
    T, n_x, M = problem.T, problem.n_x, conset.M
    k = [len(cols) for cols in columns]
    width, ends, live = max(2, *k), list(accumulate(k)), np.flatnonzero(k)
    at = [e - n + min(j, n - 1) for e, n in zip(ends, k) if n for j in range(width)]
    B = _agent_stacked(problem.dyn)     # and the live entries, padded, as (T, N n_u, .)
    padded = np.ascontiguousarray(a if len(at) == a.shape[-1] else a[..., at]).reshape(
        T, B.shape[2], -1)

    # forward sweep of the mean trajectory's linear part X_t, in place under its view by
    # entry; the rows of step t read X_t, a view of l's when the live entries are adjacent
    X = np.zeros((n_x, len(at)))
    by_entry = X.reshape(n_x, -1, width).transpose(1, 0, 2)
    gmap = np.empty((len(live), M, width))
    pick = slice(live[0], live[-1] + 1) if len(live) and live[-1] - live[0] < len(live) else live
    for t in range(T):
        np.subtract(gains.F[t] @ X, np.einsum("ak,km->am", B[t], padded[t]), out=X)
        rows = conset.span(t + 1)
        gmap[:, rows] = _gemm(l[pick, rows], by_entry)
    G = iter(gmap)
    return [(next(G)[:, :n] if n else np.empty((M, 0)), a[..., e - n:e].transpose(3, 0, 1, 2))
            for e, n in zip(ends, k)]


def column_alphas(problem: GameProblem, gains, steps, l):
    """(T, N, n_u, k) affine terms of k rows at ``steps`` with coefficients ``l``
    (k, n_x), by one zeta pass on ``gains`` with a linear term 0.5 l_j at step t_j
    for column j.  It starts at their latest step, above which their zeta is
    exactly 0; a step without a row adds the same zero term."""
    hits = {t: np.flatnonzero(steps == t) for t in set(steps.tolist())}
    zero = np.zeros((problem.N, problem.n_x, len(steps)))

    def linear_term(t):
        if t not in hits:
            return zero
        C = np.zeros_like(zero)
        C[:, :, hits[t]] = 0.5 * l[hits[t]].T
        return C

    return _zeta_sweep(problem, gains, linear_term, max(steps, default=0))


def zeta_response(problem: GameProblem):
    """(gains, Psi) by the one sweep with T n_x + 1 columns: Psi (T, N, n_u, T, n_x), the
    response to a unit half linear term at each (step 1..T, coordinate), and the gains,
    alpha0 from the goal column, ``stage_gains``' bit for bit; tau's slice has
    Psi[tau:, :, :, tau:]."""
    N, T, n_x = problem.N, problem.T, problem.n_x
    s = stage_linear_terms(problem)

    def linear_term(t):     # step 0 has no row
        C = np.zeros((N, n_x, T, n_x))
        C[:, :, t - 1] = np.eye(n_x) * (t > 0)
        return np.concatenate([C.reshape(N, n_x, T * n_x), s[:, t, :, None]], axis=2)

    gains, a = _zeta_sweep(problem, None, linear_term)
    return gains, a[..., :-1].reshape(T, N, -1, T, n_x)


def response_alphas(psi, steps, l):
    """``column_alphas``' (T, N, n_u, k) affine terms of k rows at ``steps`` with
    coefficients ``l`` (k, n_x), from their problem's Psi: column j is 0.5 sum_q
    l_j[q] Psi[..., t_j - 1, q], summed in q order elementwise, so that its bits
    do not depend on the other columns (they are the zeta pass's to rounding)."""
    half = 0.5 * l
    return sum(psi[:, :, :, steps - 1, q] * half[:, q] for q in range(half.shape[1]))
