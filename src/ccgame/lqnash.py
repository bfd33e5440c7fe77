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

The sweep runs in two steps.  ``stage_gains`` depends on neither lam, x0 nor
the references: it builds every stage system S_t once, checks its rcond, and
returns K, F, P and S_t.  A shrinking-horizon replan at tau uses its
``tail(tau)``.  ``_zeta_sweep`` then computes the affine terms on those gains
for a linear term with m columns, one zeta column per column:
``backward_recursion`` runs it with the goal references' one column ``s_t``
(alpha0), and ``affine_response`` with chosen columns of G (``0.5 l_m`` at
step t_m for multiplier m), whose rows of the linear part of the map lam ->
g follow by one forward pass, the rows of each step (``span``) read as their
mean X_t is formed; column j's affine terms are alpha's response to
multiplier j (see ``dualascent``).  As zeta is linear in the linear term, a
central-MPC call computes in one pass the response Psi to a unit term at
each (step, coordinate) and alpha0 (``zeta_response``); at a replan time the
violated columns of every episode are contracted from Psi at once
(``response_alphas``), and one forward pass, stacked by episode (its rows l,
which alone differ, and its columns), gives them all; a replan's lam = 0 mean
is Phi x0 + d (``simulate.CentralPlanner``).  A column's bits do not depend
on the other columns of its pass: a 1-column solve or 1-row product goes
down another BLAS route, so a zero column pads a single one (``_zeta_sweep``
does so itself, as does the gains' solve), ``affine_response`` zero-pads its
entries to a common width of two or more, and ``_gemm`` doubles a 1-row
matrix.  The tests keep the single full sweep these replace and a
single-player best-response sweep (``tests/oracles.py``) as references.

``closed_loop_step`` steps one state, or a stack of them each as alone, on
the agent-stacked [B^1 .. B^N], which ``integrate_expected`` stacks once per
call.  ``closed_loop_matrix``
gives the gain sweep, the closed-loop covariance and the rollouts, whose
deviations from the mean ``fixed_order_sums`` steps, F_t = A_t - sum_i
B^i_t K^i_t.

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


def _check_rcond(S, t):
    """Raise SingularStageSystem when the stage system S is near-singular, and
    DomainError when it is not finite (LAPACK's SVD then fails)."""
    try:
        sv = np.linalg.svd(S, compute_uv=False)
    except np.linalg.LinAlgError:
        if np.isfinite(S).all():
            raise
        raise DomainError(f"stage {t}: the joint gain system overflows") from None
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if rcond < RCOND_MIN:
        raise SingularStageSystem(t, rcond)


@dataclass(frozen=True)
class StageGains:
    """The lam-, x0- and reference-independent part of the coupled sweep.

    K (T, N, n_u, n_x), the closed loop F (T, n_x, n_x), P (T+1, N, n_x, n_x),
    the stage systems S (T, N n_u, N n_u) and KtR[t, i] = K[t, i]' R^i_t
    (T, N, n_x, n_u); a zeta pass solves S_t against Ya.
    """

    K: np.ndarray
    F: np.ndarray
    P: np.ndarray
    S: np.ndarray
    KtR: np.ndarray

    def __post_init__(self):
        for name in ("K", "F", "P", "S", "KtR"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def tail(self, tau):
        """The gains of the problem sliced at time tau (``simulate.slice_problem``).

        Stages t >= tau see the same P_{t+1}, so everything but P[0] is the
        slice's own; P[0] keeps Q at tau, which the slice zeroes.  No zeta pass
        reads P[0]."""
        return StageGains(K=self.K[tau:], F=self.F[tau:], P=self.P[tau:],
                          S=self.S[tau:], KtR=self.KtR[tau:])


def stage_gains(problem: GameProblem) -> StageGains:
    """Coupled Riccati recursion t = T-1..0 for the gains, one rcond check per stage."""
    dyn = problem.dyn
    N, T, n_x, n_u = problem.N, problem.T, problem.n_x, problem.n_u
    P = np.zeros((T + 1, N, n_x, n_x))
    P[T] = problem.Q[:, T]
    K = np.zeros((T, N, n_u, n_x))
    F = np.zeros((T, n_x, n_x))
    S = np.zeros((T, N * n_u, N * n_u))
    KtR = np.zeros((T, N, n_x, n_u))
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow fails its stage's check
        for t in range(T - 1, -1, -1):
            A, B, R = dyn.A[t], dyn.B[t], problem.R[:, t]
            BtP = B.transpose(0, 2, 1) @ P[t + 1]
            blocks = BtP[:, None] @ B                       # (i, j): B^i' P^i B^j
            blocks[np.diag_indices(N)] += R
            S[t] = blocks.transpose(0, 2, 1, 3).reshape(N * n_u, N * n_u)
            _check_rcond(S[t], t)
            # a zero column keeps the right-hand side at two columns or more, as
            # in the zeta pass: LAPACK solves a single column (n_x = 1) by another
            # route, and K's last bits would differ
            rhs = np.concatenate([(BtP @ A).reshape(N * n_u, n_x), np.zeros((N * n_u, 1))], axis=1)
            K[t] = np.linalg.solve(S[t], rhs)[:, :n_x].reshape(N, n_u, n_x)
            F[t] = closed_loop_matrix(A, B, K[t])
            KtR[t] = K[t].transpose(0, 2, 1) @ R
            Pn = F[t].T @ P[t + 1] @ F[t] + KtR[t] @ K[t] + problem.Q[:, t]
            P[t] = (Pn + Pn.transpose(0, 2, 1)) / 2.0
    return StageGains(K=K, F=F, P=P, S=S, KtR=KtR)


def _zeta_sweep(problem: GameProblem, gains: StageGains, linear_term, start=None):
    """Affine terms a (T, N, n_u, m) for an m-column linear term on fixed gains.

    ``linear_term(t)`` returns the (N, n_x, m) half linear coefficients of
    stage t; zeta carries one column per column of it, and only the current
    zeta is kept.  Each stage solves S_t against Ya, all players at once; a
    zero column pads a 1-column term, so that a column's bits never depend on
    the others (see the module docstring), and only the m columns return.
    The sweep starts at ``start`` (default T); a is 0 after it.
    """
    N, T, n_u = problem.N, problem.T, problem.n_u
    start = T if start is None else start
    zeta = linear_term(start)
    m = zeta.shape[2]
    if m == 1:
        zeta = np.concatenate([zeta, np.zeros_like(zeta)], axis=2)
    a = np.zeros((T, N, n_u, zeta.shape[2]))
    for t in range(start - 1, -1, -1):
        B, F = problem.dyn.B[t], gains.F[t]
        Ya = _gemm(B.transpose(0, 2, 1), zeta).reshape(N * n_u, -1)
        a[t] = np.linalg.solve(gains.S[t], Ya).reshape(N, n_u, -1)
        Ba = np.einsum("iab,ibm->am", B, a[t])
        zeta = F.T @ (zeta - gains.P[t + 1] @ Ba) + _gemm(gains.KtR[t], a[t])
        zeta[..., :m] += linear_term(t)
    return a[..., :m]


def _gemm(A, X):
    """A @ X (stacks too) with every column alike: a 1-row A times several
    columns would go down gemv, whose last bits depend on a column's place in X."""
    if A.shape[-2] == 1 < X.shape[-1]:
        return (np.concatenate([A, A], axis=-2) @ X)[..., :1, :]
    return A @ X


def stage_linear_terms(problem: GameProblem):
    """Half linear coefficients s[i, t] = -Q^i_t r^i_t of the goal references."""
    return -np.einsum("itab,itb->ita", problem.Q, problem.ref)


def backward_recursion(problem: GameProblem, gains=None):
    """The lam = 0 feedback NE policy: a zeta pass with the goal-reference
    column on the problem's gains (computed here when not given).

    With zero references the affine terms vanish and the policy is the
    unconstrained LQ-game equilibrium.
    """
    gains = stage_gains(problem) if gains is None else gains
    s = stage_linear_terms(problem)
    a = _zeta_sweep(problem, gains, lambda t: s[:, t, :, None])
    return FeedbackPolicy(K=gains.K, alpha=a[..., 0])


def closed_loop_step(A_t, B_t, K_t, alpha_t, x, L_t=None, z_t=None):
    """Step one state x (n_x,) or a stack (S, n_x), alpha_t and z_t per state:
    u = -K_t x - alpha_t, x+ = (A_t x + B_t u) + L_t z_t, a matvec per state each.

    B_t (n_x, N n_u) is the agent-stacked [B^1_t .. B^N_t], so sum_i B^i_t u^i
    is one matvec; u is shaped as alpha_t."""
    u = -(K_t @ x[..., None, :, None])[..., 0] - alpha_t
    x_next = (A_t @ x[..., None] + B_t @ u.reshape(*x.shape[:-1], -1, 1))[..., 0]
    if L_t is not None:
        x_next += (L_t @ z_t[..., None])[..., 0]
    return u, x_next


def integrate_expected(dyn, policy: FeedbackPolicy):
    """Mean closed-loop trajectory (T+1, n_x): the zero-noise integration."""
    xs = np.zeros((dyn.T + 1, dyn.n_x))
    xs[0] = dyn.x0
    B = dyn.B.transpose(0, 2, 1, 3).reshape(dyn.T, dyn.n_x, -1)   # [B^1 .. B^N]
    for t in range(dyn.T):
        _, xs[t + 1] = closed_loop_step(dyn.A[t], B[t], policy.K[t], policy.alpha[t], xs[t])
    return xs


def mean_inputs(dyn, policy: FeedbackPolicy, mean_traj):
    """(T, N, n_u) inputs along the mean trajectory."""
    return np.stack([-policy.K[t] @ mean_traj[t] - policy.alpha[t]
                     for t in range(dyn.T)])


def closed_loop_matrix(A_t, B_t, K_t):
    """F_t = A_t - sum_i B^i_t K^i_t for B_t (N, n_x, n_u) and K_t (N, n_u, n_x)."""
    return A_t - np.einsum("iab,ibc->ac", B_t, K_t)


def closed_loop_covariance(dyn, policy: FeedbackPolicy):
    """Sigma-hat recursion under the feedback loop: S+ = F S F' + W."""
    F = np.stack([closed_loop_matrix(dyn.A[t], dyn.B[t], policy.K[t]) for t in range(dyn.T)])
    return horizon_pass(dyn.T, [0], covariance_step(F, dyn.W))[0][0]


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


def affine_response(problem: GameProblem, conset, gains, columns=None, a=None, l=None):
    """The linear part of the exact affine map lam -> g at the equilibrium:
    the G columns ``columns`` (default all M) from one zeta pass on ``gains``.

    The stage gains do not depend on lam, and zeta (hence alpha and the mean
    trajectory) is affine in it, so a pass whose linear term carries 0.5 l_m
    at step t_m for multiplier m gives exactly what unit-probe solves would
    measure less their lam = 0 part.  Returns (G[:, columns], alphas):
    g(lam) = G lam + ctilde and alpha(lam) = alpha0 + sum_c lam_c alphas[c],
    ctilde and alpha0 being the lam = 0 equilibrium's g and alpha.  The sweep
    starts at the columns' latest step, above which their zeta is exactly 0.
    Given their affine terms ``a`` (T, N, n_u, k), only the forward pass runs;
    given ``l`` (E, M, n_x), E entries' rows on ``conset``'s steps, with each
    one's ``columns`` (maybe none) and their ``a`` side by side, one pass (one
    F_t and one B product per step over every column, one stacked product of
    the rows, padded as the module docstring says) gives each (G, alphas).
    """
    dyn = problem.dyn
    N, T, n_x = problem.N, problem.T, problem.n_x
    M, stacked = conset.M, l is not None
    entries = columns if stacked else [range(M) if columns is None else columns]
    l = l if stacked else conset.l[None]
    k = [len(cols) for cols in entries]
    if a is None:
        # each column of the one entry, grouped by step once; a step without
        # one adds the same zero term
        cols = np.asarray(entries[0], dtype=np.intp)
        steps = conset.t[cols]
        hits = {t: np.flatnonzero(steps == t) for t in set(steps.tolist())}
        zero = np.zeros((N, n_x, k[0]))

        def linear_term(t):
            if t not in hits:
                return zero
            C = np.zeros_like(zero)
            C[:, :, hits[t]] = 0.5 * conset.l[cols[hits[t]]].T
            return C

        a = _zeta_sweep(problem, gains, linear_term, max(steps, default=0))
    # live entries (with columns; the one entry, always) side by side, zero-padded to a
    # width >= 2: a's column c sits at at[c]
    live, width, ends = np.flatnonzero(k) if stacked else [0], max(2, *k), list(accumulate(k))
    rank, padded = [r - 1 for r in accumulate(n > 0 for n in k)], a
    if width * len(live) != ends[-1]:
        at = np.arange(ends[-1]) + np.repeat(np.multiply(rank, width) - ends + k, k)
        padded = np.zeros((*a.shape[:-1], width * len(live)))
        padded[..., at] = a

    # forward sweep of the mean trajectory's linear part X_t; the rows of step t
    # read X_t as it is formed, each live entry's into its G, stacked if two or more
    X = np.zeros((n_x, padded.shape[-1]))
    gmap = np.empty((len(live), M, width))
    pick = slice(None) if len(live) == len(l) else live
    for t in range(T):
        X = gains.F[t] @ X - np.einsum("iab,ibm->am", dyn.B[t], padded[t])
        rows = conset.span(t + 1)
        if len(live) > 1:
            gmap[:, rows] = _gemm(l[pick, rows], X.reshape(n_x, -1, width).transpose(1, 0, 2))
        else:
            gmap[0, rows] = _gemm(l[live[0], rows], X)
    out = [(gmap[r, :, :n], np.moveaxis(a[..., e - n:e], -1, 0)) for r, e, n in zip(rank, ends, k)]
    return out if stacked else out[0]


def zeta_response(problem: GameProblem, gains):
    """(Psi, alpha0) by one zeta pass of T n_x + 1 columns: Psi (T, N, n_u, T, n_x), the
    response to a unit half linear term at each (step 1..T, coordinate), and alpha0 from the
    goal column, ``backward_recursion``'s bit for bit; tau's slice has Psi[tau:, :, :, tau:]."""
    N, T, n_x = problem.N, problem.T, problem.n_x
    s = stage_linear_terms(problem)

    def linear_term(t):     # step 0 has no row
        C = np.zeros((N, n_x, T, n_x))
        C[:, :, t - 1] = np.eye(n_x) * (t > 0)
        return np.concatenate([C.reshape(N, n_x, T * n_x), s[:, t, :, None]], axis=2)

    a = _zeta_sweep(problem, gains, linear_term)
    return a[..., :-1].reshape(T, N, -1, T, n_x), a[..., -1]


def response_alphas(psi, steps, l):
    """(T, N, n_u, k) affine terms of k rows at ``steps`` with coefficients ``l``
    (k, n_x) from their problem's Psi: column j is 0.5 sum_q l_j[q] Psi[...,
    t_j - 1, q], summed in q order elementwise, so that its bits do not depend
    on the other columns."""
    half = 0.5 * l
    return sum(psi[:, :, :, steps - 1, q] * half[:, q] for q in range(half.shape[1]))
