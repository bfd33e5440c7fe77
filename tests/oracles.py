"""Independent oracles used by the tests.

Most of this is deliberately implemented without touching the package's
solver path: dense prediction-matrix algebra, direct KKT linear solves, a
textbook Riccati recursion, a series-based normal CDF (a continued
fraction in its tails) with bisection inversion, finite-difference
Jacobians and a bare averaged projected ascent.
The full coupled sweep, which rebuilds and solves every stage system in
each pass, is the bit-for-bit reference for the gains-once path, its
one-stage rcond check the reference for the stacked check, and the
single-loop row assembly, on per-row copies of the collision-row helpers,
is the bit-for-bit reference for the split and batched one (layout, then
collision rows at a reference, one stacked pass per constraint).  A slice's
own loop over its transition products is the bit-for-bit reference for the
central-MPC planner's one pass over every replan time.  The map on
the dense (T n_x, M) matrix of the rows is the reference for the map on the
compact rows, to 4 ulp of each row's largest term.

A flat loop adds the terms of a quadratic form one at a time, and a per-row
loop evaluates every safety predicate on its own: the references for the
Monte Carlo cost kernel and the batched violation mask.  A rollout that
sums each sample's deviation from the mean in Python floats is the
bit-for-bit reference for the batched rollout, and a rollout on the
closed-loop recursion x+ = A x + B u + L z its reference to rounding.  The
closed-loop step on a batch of states, one BLAS call per row, is the
bit-for-bit reference for the library's step of one state or a stack.

The last sections hold references that the acceptance criteria call and the
library itself never does: a single-player best-response sweep, the policy
splice that swaps one player's response in, the solve at a given lam (one
full sweep, whose linear term adds one row's 0.5 lam_m l_m at a time) and the
dual map on a prepared game's gains and lam = 0 equilibrium (computed, as a
solve computes them, where the preparer has none), the dual function they
drive, one replan's game built from the planner's parts, a pass
of chosen columns as the map computes it (without its cache), the
reference a prepared game's collision rows were built at, a central-MPC
episode that prepares and solves every replan on its own, a Monte Carlo
probe of one collision row, and a loader for the bundled scenarios.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from ccgame import lqnash, scenarios
from ccgame.dualascent import DualAscentOptions, PreparedGame, run_dual_ascent
from ccgame.errors import DegenerateReference, DomainError, SingularStageSystem
from ccgame.lqnash import RCOND_MIN, FeedbackPolicy
from ccgame.model import GameProblem, Scenario, load_scenario
from ccgame.simulate import noise_stream, slice_problem
from ccgame.uncertainty import (DEGENERATE_SEPARATION, AffineConstraintSet, allocate_risk,
                                inverse_normal_cdf)


# ---------------------------------------------------------------------------
# Normal CDF via the classic series, quantile via bisection


def series_normal_cdf(x):
    """Phi(x) = 1/2 + phi(x) * sum x^(2n+1) / (1*3*...*(2n+1)) for |x| <= 3;
    beyond, the tail Q(|x|) = phi(x) / (|x| + 1/(|x| + 2/(|x| + 3/(...))))
    (Laplace's continued fraction, 100 terms, evaluated from the last), which
    keeps the relative accuracy of the lower tail that the series' cancellation
    against 1/2 loses."""
    x = float(x)
    if x < -40.0:
        return 0.0
    if x > 40.0:
        return 1.0
    phi = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    if abs(x) > 3.0:
        f = abs(x)
        for k in range(100, 0, -1):
            f = abs(x) + k / f
        return phi / f if x < 0 else 1.0 - phi / f
    term = x
    total = x
    n = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)) and n < 500:
        n += 1
        term *= x * x / (2 * n + 1)
        total += term
    return 0.5 + phi * total


def bisect_normal_quantile(p, lo=-12.0, hi=12.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if series_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Dense prediction algebra for LTV systems


def prediction_matrices(A_seq, B_seq):
    """xstack(t=1..T) = TT @ x0 + sum_i SS[i] @ u^i, u^i time-stacked.

    A_seq: (T, n_x, n_x); B_seq: (T, N, n_x, n_u).
    Returns TT (T*n_x, n_x) and SS list of (T*n_x, T*n_u).
    """
    T, n_x, _ = A_seq.shape
    N, n_u = B_seq.shape[1], B_seq.shape[3]
    TT = np.zeros((T * n_x, n_x))
    SS = [np.zeros((T * n_x, T * n_u)) for _ in range(N)]
    Phi = np.eye(n_x)
    for t in range(1, T + 1):
        Phi = A_seq[t - 1] @ Phi
        TT[(t - 1) * n_x:t * n_x] = Phi
    for i in range(N):
        for k in range(T):
            Phi = B_seq[k, i]
            for t in range(k + 1, T + 1):
                SS[i][(t - 1) * n_x:t * n_x, k * n_u:(k + 1) * n_u] = Phi
                if t < T:
                    Phi = A_seq[t] @ Phi
    return TT, SS


def stacked_cost_blocks(problem, i):
    """(Qbig, rbig, Rbig) for player i over t=1..T / inputs 0..T-1."""
    T, n_x = problem.T, problem.n_x
    Qbig = np.zeros((T * n_x, T * n_x))
    rbig = np.zeros(T * n_x)
    for t in range(1, T + 1):
        Qbig[(t - 1) * n_x:t * n_x, (t - 1) * n_x:t * n_x] = problem.Q[i, t]
        rbig[(t - 1) * n_x:t * n_x] = problem.ref[i, t]
    n_u = problem.n_u
    Rbig = np.zeros((T * n_u, T * n_u))
    for t in range(T):
        Rbig[t * n_u:(t + 1) * n_u, t * n_u:(t + 1) * n_u] = problem.R[i, t]
    return Qbig, rbig, Rbig


def dense_game_inputs(problem, lmat, cvec, lam):
    """Joint per-player stationarity solve at a fixed multiplier.

    Valid as the feedback-NE mean trajectory when the game decouples given
    the multiplier (block-diagonal dynamics, own-substate costs).
    Returns (u list per player, xstack, mean trajectory (T+1, n_x)).
    """
    dyn = problem.dyn
    N, T, n_x, n_u = problem.N, problem.T, problem.n_x, problem.n_u
    TT, SS = prediction_matrices(dyn.A, dyn.B)
    lam = np.asarray(lam, dtype=float)
    H = np.zeros((N * T * n_u, N * T * n_u))
    b = np.zeros(N * T * n_u)
    for i in range(N):
        Qbig, rbig, Rbig = stacked_cost_blocks(problem, i)
        sl = slice(i * T * n_u, (i + 1) * T * n_u)
        row = np.zeros((T * n_u, N * T * n_u))
        for j in range(N):
            row[:, j * T * n_u:(j + 1) * T * n_u] = 2 * SS[i].T @ Qbig @ SS[j]
        row[:, sl] += 2 * Rbig
        H[sl] = row
        b[sl] = -2 * SS[i].T @ Qbig @ (TT @ dyn.x0 - rbig) - SS[i].T @ lmat @ lam
    u = np.linalg.solve(H, b)
    xstack = TT @ dyn.x0 + sum(SS[i] @ u[i * T * n_u:(i + 1) * T * n_u]
                               for i in range(N))
    traj = np.vstack([dyn.x0, xstack.reshape(T, n_x)])
    return [u[i * T * n_u:(i + 1) * T * n_u] for i in range(N)], xstack, traj


def dense_kkt_single_row(problem, lmat, cvec):
    """(u, lambda, trajectory) for a single shared constraint row via KKT.

    Tries the inactive case first; otherwise appends the active-constraint
    row and solves the square KKT system.  Decoupled instances only.
    """
    dyn = problem.dyn
    N, T, n_x, n_u = problem.N, problem.T, problem.n_x, problem.n_u
    assert lmat.shape[1] == 1
    _, xstack, traj = dense_game_inputs(problem, lmat, cvec, np.zeros(1))
    g = lmat.T @ xstack + cvec
    if g[0] <= 0:
        return np.zeros(1), traj
    TT, SS = prediction_matrices(dyn.A, dyn.B)
    dim = N * T * n_u
    H = np.zeros((dim + 1, dim + 1))
    b = np.zeros(dim + 1)
    for i in range(N):
        Qbig, rbig, Rbig = stacked_cost_blocks(problem, i)
        sl = slice(i * T * n_u, (i + 1) * T * n_u)
        for j in range(N):
            H[sl, j * T * n_u:(j + 1) * T * n_u] = 2 * SS[i].T @ Qbig @ SS[j]
        H[sl, sl] += 2 * Rbig
        H[sl, dim:dim + 1] = SS[i].T @ lmat
        b[sl] = -2 * SS[i].T @ Qbig @ (TT @ dyn.x0 - rbig)
    for j in range(N):
        H[dim, j * T * n_u:(j + 1) * T * n_u] = (lmat.T @ SS[j])[0]
    b[dim] = -(cvec[0] + float(lmat[:, 0] @ TT @ dyn.x0))
    sol = np.linalg.solve(H, b)
    u, lam = sol[:dim], sol[dim]
    assert lam >= -1e-9, "oracle: active-set guess wrong (negative multiplier)"
    xstack = TT @ dyn.x0 + sum(SS[i] @ u[i * T * n_u:(i + 1) * T * n_u]
                               for i in range(N))
    traj = np.vstack([dyn.x0, xstack.reshape(T, n_x)])
    return np.array([lam]), traj


def dense_best_response(problem, policy, i, lam, lmat, cvec):
    """Player i's optimum against fixed affine policies, by one dense solve.

    Absorbs the others' feedback into time-varying dynamics plus drift and
    minimizes the Lagrangian over player i's open-loop inputs; the optimal
    mean trajectory coincides with the feedback best response's.
    Returns (mean trajectory, lagrangian value of the deterministic part).
    """
    dyn = problem.dyn
    N, T, n_x, n_u = problem.N, problem.T, problem.n_x, problem.n_u
    others = [j for j in range(N) if j != i]
    Atil = np.zeros((T, n_x, n_x))
    drift = np.zeros((T, n_x))
    for t in range(T):
        Atil[t] = dyn.A[t] - sum(dyn.B[t, j] @ policy.K[t, j] for j in others)
        drift[t] = -sum((dyn.B[t, j] @ policy.alpha[t, j] for j in others),
                        np.zeros(n_x))
    Bsingle = dyn.B[:, i:i + 1]
    TT, SS = prediction_matrices(Atil, Bsingle)
    # drift contribution: D[t] = sum_{k<t} Phi(t,k+1) drift[k]
    D = np.zeros(T * n_x)
    for k in range(T):
        Phi = drift[k]
        for t in range(k + 1, T + 1):
            D[(t - 1) * n_x:t * n_x] += Phi
            if t < T:
                Phi = Atil[t] @ Phi
    Qbig, rbig, Rbig = stacked_cost_blocks(problem, i)
    S = SS[0]
    base = TT @ dyn.x0 + D
    H = 2 * (S.T @ Qbig @ S + Rbig)
    b = -2 * S.T @ Qbig @ (base - rbig) - S.T @ lmat @ np.asarray(lam)
    u = np.linalg.solve(H, b)
    xstack = base + S @ u
    traj = np.vstack([dyn.x0, xstack.reshape(T, n_x)])
    value = float((xstack - rbig) @ Qbig @ (xstack - rbig) + u @ Rbig @ u
                  + np.asarray(lam) @ (lmat.T @ xstack + cvec))
    return traj, value


# ---------------------------------------------------------------------------
# Plain single-player Riccati (textbook form)


def lqr_oracle(A_seq, B_seq, Q_seq, R_seq, W_seq, x0):
    """Finite-horizon LQR: gains and exact stochastic cost.

    Q_seq indexed 1..T supplied as (T, n, n) (cost on x_1..x_T);
    returns (K (T, m, n), cost).
    """
    T, n, _ = A_seq.shape
    m = B_seq.shape[2]
    P = Q_seq[T - 1].copy()
    Ks = np.zeros((T, m, n))
    trace_cost = 0.0
    for t in range(T - 1, -1, -1):
        A, B, R = A_seq[t], B_seq[t], R_seq[t]
        G = R + B.T @ P @ B
        Ks[t] = np.linalg.inv(G) @ (B.T @ P @ A)
        trace_cost += float(np.trace(P @ W_seq[t]))
        Pn = A.T @ P @ A - A.T @ P @ B @ Ks[t] + (Q_seq[t - 1] if t >= 1 else 0.0)
        P = (Pn + Pn.T) / 2.0
    cost = float(x0 @ P @ x0) + trace_cost
    return Ks, cost


# ---------------------------------------------------------------------------
# Full coupled Riccati sweep: gains and affine terms in every pass


def check_stage_rcond(S, t):
    """One stage system's own rcond check, the reference for the stacked check
    (``lqnash._check_rcond``): SingularStageSystem when S is near-singular,
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


def stage_linear_terms(problem: GameProblem, conset=None, lam=None):
    """Half linear coefficients s[i, t] = 0.5 sum_{t_m = t} lam_m l_m - Q^i_t r^i_t,
    adding each row m with lam_m != 0 on its own."""
    s = -np.einsum("itab,itb->ita", problem.Q, problem.ref)
    lam = np.zeros(0) if lam is None else np.asarray(lam, dtype=float)
    for m in np.flatnonzero(lam):
        s[:, conset.t[m]] += 0.5 * lam[m] * conset.l[m]
    return s


def _gemm_route(A, X):
    """A @ X, with a 1-row A times several columns doubled first: numpy sends
    that product down gemv, whose last bits depend on a column's place in X."""
    if len(A) == 1 < X.shape[1]:
        return (np.concatenate([A, A]) @ X)[:1]
    return A @ X


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
    check_stage_rcond(S, t)
    YK = np.concatenate([B[i].T @ P_next[i] @ A for i in range(N)], axis=0)
    Ya = np.concatenate([_gemm_route(B[i].T, zeta_next[i]) for i in range(N)], axis=0)
    sol = np.linalg.solve(S, np.concatenate([YK, Ya], axis=1))
    return (sol[:, :n_x].reshape(N, n_u, n_x),
            sol[:, n_x:].reshape(N, n_u, -1))


def _riccati_sweep(problem: GameProblem, linear_term):
    """Coupled Riccati sweep t = T-1..0 with an m-column linear term.

    ``linear_term(t)`` returns the (N, n_x, m) half linear coefficients of
    stage t; zeta carries one column per column of it, and only the current
    zeta is kept.  Returns K (T, N, n_u, n_x), a (T, N, n_u, m), the closed
    loop F (T, n_x, n_x) and P (T+1, N, n_x, n_x).  A 1-row matrix times
    several columns takes gemm's route (``_gemm_route``), whose last bits do
    not depend on a column's place.
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
                           + _gemm_route(K[t, i].T @ R[i], a[t, i]) + s[i])
        zeta = zeta_new
    return K, a, F, P


def sweep_backward_recursion(problem: GameProblem, conset=None, lam=None):
    """The policy at lam from one full sweep with the one linear column s_t,
    padded by a zero column: a 1-column product takes another BLAS route."""
    s = stage_linear_terms(problem, conset, lam)
    padded = np.stack([s, np.zeros_like(s)], axis=-1)
    K, a, _, _ = _riccati_sweep(problem, lambda t: padded[:, t])
    return FeedbackPolicy(K=K, alpha=a[..., 0])


def sweep_affine_response(problem: GameProblem, conset):
    """(G, alphas, ctilde, policy0) from one full sweep with M + 1 linear
    columns, the last the constant -Q r, and the forward pass of the affine
    mean trajectory from x0, whose step t forms the rows of G and ctilde at t
    (found by comparing each row's t) as the library forms G's."""
    dyn = problem.dyn
    N, T, n_x = problem.N, problem.T, problem.n_x
    M = conset.M
    s = stage_linear_terms(problem)

    def linear_term(t):
        C = np.zeros((N, n_x, M + 1))
        if t >= 1:
            rows = np.flatnonzero(conset.t == t)
            C[:, :, rows] = 0.5 * conset.l[rows].T
            C[:, :, M] = s[:, t]
        return C

    K, aC, F, _ = _riccati_sweep(problem, linear_term)
    X = np.zeros((n_x, M + 1))
    X[:, M] = dyn.x0
    gmap = np.zeros((M, M + 1))
    for t in range(T):
        BaC = np.einsum("iab,ibm->am", dyn.B[t], aC[t])
        X = F[t] @ X - BaC
        rows = conset.t == t + 1
        gmap[rows] = _gemm_route(conset.l[rows], X)
    return (gmap[:, :M], np.moveaxis(aC[..., :M], -1, 0), gmap[:, M] + conset.c,
            FeedbackPolicy(K=K, alpha=aC[..., M]))


def dense_affine_response(problem: GameProblem, conset, gains):
    """(G, ctilde, policy0, xstack) on the dense (T*n_x, M) layout ``lmat``:
    the multipliers' zeta columns are lmat's block of each step, and G and
    ctilde are lmat^T xstack + (0, c), with xstack stacking the forward
    pass's X_t for t = 1..T."""
    dyn, lmat = problem.dyn, conset.lmat
    N, T, n_x, M = problem.N, problem.T, problem.n_x, conset.M
    s = stage_linear_terms(problem)

    def linear_term(t):
        C = np.zeros((N, n_x, M + 1))
        if t >= 1:
            C[:, :, :M] = 0.5 * lmat[(t - 1) * n_x: t * n_x]
            C[:, :, M] = s[:, t]
        return C

    aC = lqnash._zeta_sweep(problem, gains, linear_term)
    X = np.zeros((n_x, M + 1))
    X[:, M] = dyn.x0
    xstack = np.zeros((T * n_x, M + 1))
    for t in range(T):
        X = gains.F[t] @ X - np.einsum("iab,ibm->am", dyn.B[t], aC[t])
        xstack[t * n_x:(t + 1) * n_x] = X
    gmap = lmat.T @ xstack
    return (gmap[:, :M], gmap[:, M] + conset.c, FeedbackPolicy(K=gains.K, alpha=aC[..., M]),
            xstack)


# ---------------------------------------------------------------------------
# Single-loop constraint assembly


def row_reference_direction(delta, C, radius):
    """One row of the reference directions ``uncertainty.constraint_layout``'s fill
    projects: the nominal separation radially onto ||dbar||_C = R."""
    delta = np.asarray(delta, dtype=float)
    norm_c = math.sqrt(max(float(delta @ C @ delta), 0.0))
    if norm_c < DEGENERATE_SEPARATION:
        raise DegenerateReference(-1, -1, -1, norm_c)
    return radius * delta / norm_c


def row_linearize_collision(dbar, sigma_pair, radius, C, z):
    """One row of ``uncertainty.linearize_collision``: (a, c) with the row
    ``-a @ E[d] + c <= 0``, a = 2 C dbar and c = 2 R^2 + z ||a||_Sigma."""
    dbar = np.asarray(dbar, dtype=float)
    norm_c = math.sqrt(float(dbar @ C @ dbar))
    if abs(norm_c - radius) > 1e-9 * max(1.0, radius):
        raise ValueError(f"reference direction has ||dbar||_C = {norm_c}, expected {radius}")
    a = 2.0 * (C @ dbar)
    backoff = z * math.sqrt(max(float(a @ sigma_pair @ a), 0.0))
    c = 2.0 * radius ** 2 + backoff
    return a, c


def pair_difference_cov(Sigma_t, slice_i, slice_j):
    """Covariance of x^i_t - x^j_t from Sigma_t, including cross-covariance blocks."""
    return (Sigma_t[slice_i, slice_i] + Sigma_t[slice_j, slice_j]
            - Sigma_t[slice_i, slice_j] - Sigma_t[slice_j, slice_i])


def loop_assemble_constraints(problem: GameProblem, cov, reference_means):
    """Every row in one loop over times and specs, box and collision rows
    alike, each collision row on its own through the per-row helpers above:
    the assembly ``uncertainty.assemble_constraints`` splits in two and
    batches per constraint.  ``cov`` is Sigma (T+1, n_x, n_x).  Returns the
    rows' t, source, l and c, and the dense (T*n_x, M) ``lmat`` written row
    by row into the block of the row's step."""
    T, n_x = problem.T, problem.n_x
    slices = problem.agent_slices
    expanded = [(k, spec, frozenset(spec.active_times),
                 spec.rows() if spec.kind == "box" else None)
                for k, spec in enumerate(problem.constraints)]
    M = sum(len(times) * (1 if box is None else len(box))
            for _, _, times, box in expanded)
    lmat = np.zeros((T * n_x, M))
    c = np.zeros(M)
    rows = []       # (t, source) per row
    z = inverse_normal_cdf(1.0 - allocate_risk(problem.risk_epsilon, M)) if M else 0.0
    reference_means = np.asarray(reference_means, dtype=float)
    for t in range(1, T + 1):
        Sigma, nominal = cov[t], problem.nominal_states[t]
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
                    rows.append((t, k))
                continue
            i, j = spec.pair
            sl_i, sl_j = slices[i], slices[j]
            delta = reference_means[t][sl_i] - reference_means[t][sl_j]
            try:
                dbar = row_reference_direction(delta, spec.C, spec.radius)
            except DegenerateReference:
                norm_c = math.sqrt(max(float(delta @ spec.C @ delta), 0.0))
                raise DegenerateReference(i, j, t, norm_c) from None
            a, offset = row_linearize_collision(dbar, pair_difference_cov(Sigma, sl_i, sl_j),
                                                spec.radius, spec.C, z)
            l = np.zeros(n_x)
            l[sl_i] = -a
            l[sl_j] = a
            m = len(rows)
            block[:, m] = l
            c[m] = offset + float(l @ nominal)
            rows.append((t, k))
    t, source = np.array(rows, dtype=np.intp).reshape(-1, 2).T
    l = np.stack([lmat[(t_m - 1) * n_x: t_m * n_x, m] for m, t_m in enumerate(t)]
                 or [np.zeros((0, n_x))]).reshape(M, n_x)
    return SimpleNamespace(t=t, source=source, l=l, c=c, lmat=lmat)


def mean_map(dyn, F, alpha):
    """(Phi, d) such that the mean of the closed loop F with affine terms alpha
    is Phi @ x0 + d, on one slice's own loop: [Phi | d] steps from [I | 0] as
    F_t [Phi | d] - [0 | B_t alpha_t]."""
    Z = np.zeros((dyn.T + 1, dyn.n_x, dyn.n_x + 1))
    Z[0] = np.eye(dyn.n_x, dyn.n_x + 1)
    for t in range(dyn.T):
        Z[t + 1] = F[t] @ Z[t]
        Z[t + 1, :, -1] -= np.einsum("iab,ib->a", dyn.B[t], alpha[t])
    return Z[..., :-1], Z[..., -1]


# ---------------------------------------------------------------------------
# Sample-by-sample Monte Carlo rollouts


def eigen_factors(W):
    """Per-step factors L_t with L_t L_t' = W_t, one eigendecomposition per step."""
    factors = np.zeros_like(W)
    for t in range(W.shape[0]):
        vals, vecs = np.linalg.eigh((W[t] + W[t].T) / 2.0)
        factors[t] = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    return factors


def _standard_normals(seed, s, shape):
    """Sample s's standard normals, from Philox keyed by (seed, s)."""
    return np.random.Generator(np.random.Philox(key=[seed, s])).standard_normal(shape)


def _realized_costs(problem, states, inputs):
    costs = np.zeros((states.shape[0], problem.N))
    for i in range(problem.N):
        err = states[:, 1:, :] - problem.ref[i, 1:][None, :, :]
        costs[:, i] += np.einsum("sta,tab,stb->s", err, problem.Q[i, 1:], err)
        u = inputs[:, :, i, :]
        costs[:, i] += np.einsum("sta,tab,stb->s", u, problem.R[i], u)
    return costs


def loop_rollout(problem, K, alpha, seed, samples):
    """Reference rollout, one sample at a time, as the mean plus a deviation.

    Sample s draws (T, n_x) standard normals from Philox keyed by (seed, s)
    and shapes them with an eigen factor L_t of each W_t.  Its states are
    x_t = xbar_t + e_t and its inputs u_t = ubar_t - K_t e_t,
    with xbar and ubar the library's expected trajectory and inputs along it,
    and e_{t+1} = F_t e_t + L_t z_t (F_t = A_t - sum_i B^i_t K^i_t) from e_0 = 0.
    Each entry of K_t e and of F_t e + L_t z is a Python float from +0.0 that
    adds one product per nonzero coefficient in increasing column order, F's
    before L's.  Returns (states (S, T+1, n_x), inputs (S, T, N, n_u), costs (S, N)).
    """
    dyn = problem.dyn
    T, N, n_x, n_u = problem.T, problem.N, problem.n_x, problem.n_u
    factors = eigen_factors(dyn.W)
    policy = FeedbackPolicy(K=K, alpha=alpha)
    xbar = lqnash.integrate_expected(dyn, policy)
    ubar = lqnash.mean_inputs(dyn, policy, xbar).reshape(T, -1)

    def row_sums(pairs):
        sums = []
        for a in range(len(pairs[0][0])):
            acc = 0.0
            for M, x in pairs:
                for v, xb in zip(M[a], x):
                    if v != 0.0:
                        acc += v * xb
            sums.append(acc)
        return sums

    states = np.zeros((samples, T + 1, n_x))
    inputs = np.zeros((samples, T, N, n_u))
    for s in range(samples):
        z = _standard_normals(seed, s, (T, n_x))
        states[s, 0] = dyn.x0
        e = [0.0] * n_x
        for t in range(T):
            F = dyn.A[t] - np.einsum("iab,ibc->ac", dyn.B[t], K[t])
            Ke = row_sums([(K[t].reshape(-1, n_x).tolist(), e)])
            inputs[s, t] = np.reshape([ub - k for ub, k in zip(ubar[t].tolist(), Ke)],
                                      (N, n_u))
            e = row_sums([(F.tolist(), e), (factors[t].tolist(), z[t].tolist())])
            states[s, t + 1] = [xb + d for xb, d in zip(xbar[t + 1].tolist(), e)]
    return states, inputs, _realized_costs(problem, states, inputs)


def recursion_rollout(problem, K, alpha, seed, samples):
    """Reference rollout on the closed-loop recursion, one sample at a time.

    Sample s draws its noise as ``loop_rollout`` does and runs
    x+ = (A x + sum_i B^i u^i) + L z under u = -K x - alpha, with the input sum
    one product of the agent-stacked [B^1 .. B^N] and the stacked u.  The same
    trajectories in another order of arithmetic: equal to ``loop_rollout``'s to
    rounding, not bit for bit.
    """
    dyn = problem.dyn
    T, N, n_x, n_u = problem.T, problem.N, problem.n_x, problem.n_u
    factors = eigen_factors(dyn.W)
    states = np.zeros((samples, T + 1, n_x))
    inputs = np.zeros((samples, T, N, n_u))
    for s in range(samples):
        z = _standard_normals(seed, s, (T, n_x))
        x = dyn.x0
        states[s, 0] = x
        for t in range(T):
            u = -K[t] @ x - alpha[t]
            inputs[s, t] = u
            B_stack = dyn.B[t].transpose(1, 0, 2).reshape(n_x, -1)
            x = dyn.A[t] @ x + B_stack @ u.reshape(-1) + factors[t] @ z[t]
            states[s, t + 1] = x
    return states, inputs, _realized_costs(problem, states, inputs)


def batched_closed_loop_step(A_t, B_t, K_t, alpha_t, x, L_t=None, z_t=None):
    """The closed-loop step on states x (S, n_x), each of the four products
    (A_t x, K_t x, the agent-stacked [B^1 .. B^N] times u, L_t z) a stacked
    matmul with one BLAS call per row; returns u (S, N, n_u) and x+ (S, n_x)."""
    u = -(K_t @ x[:, None, :, None])[..., 0] - alpha_t
    Bu = B_t.transpose(1, 0, 2).reshape(B_t.shape[1], -1) @ u.reshape(len(x), -1, 1)
    x_next = (A_t @ x[:, :, None])[..., 0] + Bu[..., 0]
    if L_t is not None:
        x_next += (L_t @ z_t[:, :, None])[..., 0]
    return u.reshape(len(x), B_t.shape[0], -1), x_next


# ---------------------------------------------------------------------------
# Quadratic sums and violation masks, one term and one row at a time


def loop_quadratic_sums(x, M):
    """(S,) sums of (x[s, t, a] M[t, a, b]) x[s, t, b]: per sample, every term
    of M (zeros included) in C order of (t, a, b), added to a Python float
    that starts at +0.0."""
    x, M = np.asarray(x), np.asarray(M)
    out = np.zeros(x.shape[0])
    for s in range(x.shape[0]):
        xs = x[s].tolist()
        acc = 0.0
        for t, a, b in np.ndindex(*M.shape):
            acc += (xs[t][a] * float(M[t, a, b])) * xs[t][b]
        out[s] = acc
    return out


def row_violations(problem, abs_states):
    """(S,) bool: per sample, active time and predicate row, violated unless it
    holds, so a NaN the row reads is a violation.  A collision row reads the
    coordinates of C's nonzero entries."""
    abs_states = np.asarray(abs_states)
    slices = problem.agent_slices
    bad = np.zeros(abs_states.shape[0], dtype=bool)
    for spec in problem.constraints:
        for s in range(abs_states.shape[0]):
            for t in spec.active_times:
                x = abs_states[s, t].tolist()     # Python floats: NaN and inf stay quiet
                if spec.kind == "box":
                    holds = [x[q] <= bound if side == "upper" else x[q] >= bound
                             for q, side, bound in spec.rows()]
                else:
                    xi, xj = x[slices[spec.pair[0]]], x[slices[spec.pair[1]]]
                    d = [a - b for a, b in zip(xi, xj)]
                    sq = sum((d[a] * float(spec.C[a, b])) * d[b]
                             for a, b in zip(*np.nonzero(spec.C)))
                    holds = [sq >= spec.radius ** 2]
                bad[s] |= not all(holds)
    return bad


# ---------------------------------------------------------------------------
# Finite differences


def numeric_jacobians(step_fn, state, u, dt, h=1e-6):
    """Central-difference Jacobians of a one-step integrator."""
    n, m = len(state), len(u)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    for q in range(n):
        e = np.zeros(n)
        e[q] = h
        A[:, q] = (step_fn(state + e, u, dt) - step_fn(state - e, u, dt)) / (2 * h)
    for q in range(m):
        e = np.zeros(m)
        e[q] = h
        B[:, q] = (step_fn(state, u + e, dt) - step_fn(state, u - e, dt)) / (2 * h)
    return A, B


# ---------------------------------------------------------------------------
# Averaged projected ascent on an affine dual map


def averaged_ascent(G, c, eta, iterations):
    """Mean of the iterates lam <- max(0, lam + eta (G lam + c)) from lam = 0.

    ``eta`` may be a vector: on a block-diagonal G each block then runs its
    own ascent, so one loop serves several games at once.
    """
    lam = np.zeros(c.shape[0])
    total = np.zeros(c.shape[0])
    for _ in range(int(iterations)):
        total += lam
        lam = np.maximum(0.0, lam + eta * (G @ lam + c))
    return total / int(iterations)


# ---------------------------------------------------------------------------
# Single-player best response and the dual function it drives


def replace_player(policy: FeedbackPolicy, i, K_i, alpha_i):
    """The policy with player i's gains and affine terms swapped in."""
    K = np.array(policy.K)
    alpha = np.array(policy.alpha)
    K[:, i] = K_i
    alpha[:, i] = alpha_i
    return FeedbackPolicy(K=K, alpha=alpha)


def best_response(problem: GameProblem, policy: FeedbackPolicy, i,
                  lam=None, conset=None):
    """Player i's optimal linear policy against the other players' policies.

    Absorbs the others' feedback into drift dynamics and runs the
    single-player affine-LQR backward sweep on the same Lagrangian.
    Returns (K_i, alpha_i) with shapes (T, n_u, n_x), (T, n_u).
    """
    dyn = problem.dyn
    N, T, n_x, n_u = problem.N, problem.T, problem.n_x, problem.n_u
    s = stage_linear_terms(problem, conset, lam)[i]

    P = problem.Q[i, T].copy()
    zeta = s[T].copy()
    K_i = np.zeros((T, n_u, n_x))
    a_i = np.zeros((T, n_u))
    for t in range(T - 1, -1, -1):
        A, B = dyn.A[t], dyn.B[t]
        others = [j for j in range(N) if j != i]
        Atil = A - sum(B[j] @ policy.K[t, j] for j in others) if others else A
        drift = -sum((B[j] @ policy.alpha[t, j] for j in others), np.zeros(n_x))
        Bi, R = B[i], problem.R[i, t]
        S = R + Bi.T @ P @ Bi
        check_stage_rcond(S, t)
        K_i[t] = np.linalg.solve(S, Bi.T @ P @ Atil)
        a_i[t] = np.linalg.solve(S, Bi.T @ (P @ drift + zeta))
        F = Atil - Bi @ K_i[t]
        delta = drift - Bi @ a_i[t]
        Pn = F.T @ P @ F + K_i[t].T @ R @ K_i[t] + problem.Q[i, t]
        zeta = F.T @ (zeta + P @ delta) + K_i[t].T @ R @ a_i[t] + s[t]
        P = (Pn + Pn.T) / 2.0
    return K_i, a_i


def solve_at(prepared: PreparedGame, lam):
    """(policy, mean, g) at lam: the full sweep's policy, its mean and g there."""
    policy = sweep_backward_recursion(prepared.problem, prepared.conset, lam)
    traj = lqnash.integrate_expected(prepared.problem.dyn, policy)
    return policy, traj, prepared.conset.evaluate(traj)


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
        policy, _, _ = solve_at(prepared, lam)
        return lqnash.evaluate_lagrangian(prepared.problem, policy,
                                          lam, prepared.conset)[i]
    base_policy = solve_at(prepared, np.asarray(others_from, dtype=float))[0]
    K_i, a_i = best_response(prepared.problem, base_policy, i,
                             lam, prepared.conset)
    combined = replace_player(base_policy, i, K_i, a_i)
    return lqnash.evaluate_lagrangian(prepared.problem, combined,
                                      lam, prepared.conset)[i]


def planner_game(planner, tau, x0) -> PreparedGame:
    """The game of a central-MPC replan at tau from state x0, built from the
    planner's parts: the lam = 0 mean Phi x0 + d from tau's transition
    products, the rows its fill lays at the nominal plus that mean (whose
    DegenerateReference it raises), the slice at tau with the tail of the
    gains, and the block of Psi from tau.  It holds no columns."""
    x0 = np.asarray(x0, dtype=float)
    Z = planner.transitions[tau]
    mean0 = (Z[None, ..., :-1] @ x0[None, None, :, None])[0, ..., 0] + Z[..., -1]
    steps, source, l, c, degenerate = planner.fill(
        tau, (planner.agg.nominal_states[tau:] + mean0)[None])
    if degenerate:
        raise degenerate[0]
    sub = slice_problem(planner.agg, tau, x0)
    return PreparedGame(problem=sub, conset=AffineConstraintSet(steps, source, l[0], c[0], sub.T),
                        gains=planner.gains.tail(tau), mean0=mean0,
                        psi=planner.psi[tau:, :, :, tau:])


def column_pass(problem: GameProblem, conset, gains, columns=None, psi=None):
    """(G[:, columns], alphas) of ``columns`` (default all M) as the map's pass
    computes them: affine terms contracted from ``psi`` when given, else by
    ``lqnash.column_alphas``, then one one-entry ``lqnash.affine_response``."""
    cols = range(conset.M) if columns is None else columns
    steps, l = conset.t[cols], conset.l[cols]
    a = (lqnash.column_alphas(problem, gains, steps, l) if psi is None
         else lqnash.response_alphas(psi, steps, l))
    return lqnash.affine_response(problem, conset, gains, [cols], a, conset.l[None])[0]


def game_reference(prepared: PreparedGame):
    """The absolute means a prepared game's collision rows were built at: the
    nominal plus its lam = 0 mean, or the nominal itself (not the nominal plus
    0, so that no zero changes its sign) when it holds no lam = 0 mean."""
    nominal = prepared.problem.nominal_states
    return nominal if prepared.mean0 is None else nominal + prepared.mean0


def episode_mpc(planner, seed, s, withhold=False, maps=None):
    """Central-MPC episode s replanned alone, every replan (lam = 0 ones too)
    prepared by ``planner_game`` and solved by ``run_dual_ascent`` at the
    ``ccgame mpc`` budget: the reference for the lockstep call, which solves
    only the replans whose lam = 0 mean violates a row.  A replan's game holds
    no columns, so that its map runs its own pass.  With
    ``withhold`` a replan's prepared lam = 0 mean is dropped, so that its
    solve integrates it on the tail of the planner's gains.  ``maps``, if
    given, maps each replan's (tau, state bytes) to its solve's map.  Returns
    (states, inputs, replans, replans with lam != 0, columns)."""
    problem, dyn = planner.problem, planner.problem.dyn
    T, N, n_x = problem.T, problem.N, problem.n_x
    options = DualAscentOptions(k_max=500)
    z = noise_stream(seed, s).standard_normal((T, n_x))
    states, inputs = np.zeros((T + 1, n_x)), np.zeros((T, N, problem.n_u))
    states[0] = dyn.x0
    replans = active = columns = 0
    for t in range(T):
        if t % planner.replan_every == 0:
            prepared = planner_game(planner, t, states[t])
            if withhold:
                assert np.array_equal(prepared.gains.alpha0, lqnash.backward_recursion(
                    prepared.problem).alpha)
                prepared = replace(prepared, mean0=None)
            report = run_dual_ascent(prepared, options)
            plan, tau = report.policy, t
            if maps is not None:
                maps[t, states[t].tobytes()] = report.map
            replans += 1
            active += bool(np.any(report.lambda_bar))
            columns += report.map_columns
        u, states[t + 1] = lqnash.closed_loop_step(
            dyn.A[t], planner.agg.dyn.B[t, 0], plan.K[t - tau], plan.alpha[t - tau],
            states[t], planner.factors[t], z[t])
        inputs[t] = u.reshape(N, -1)
    return states, inputs, replans, active, columns


# ---------------------------------------------------------------------------
# Monte Carlo conservativeness probe of one collision row


def conservativeness_probe(direction, sigma_pair, radius, C, eps_row,
                           samples=1_000_000, seed=0):
    """Empirical check that a boundary mean keeps P(||d||^2_C >= R^2) >= 1 - eps.

    Places the mean exactly on the affine row's boundary, samples the pair
    difference, and returns (empirical_rate, required_rate) where the
    requirement subtracts three binomial standard deviations.
    """
    z = inverse_normal_cdf(1.0 - eps_row)
    dbar = row_reference_direction(direction, C, radius)
    a, c = row_linearize_collision(dbar, sigma_pair, radius, C, z)
    # boundary mean: -a @ mu + c = 0 along the backoff direction
    denom = math.sqrt(max(float(a @ sigma_pair @ a), 0.0))
    if denom > 0:
        mu = dbar + z * (sigma_pair @ a) / denom
    else:
        mu = dbar
    assert abs(-float(a @ mu) + c) < 1e-9 * max(1.0, abs(c))
    rng = np.random.Generator(np.random.Philox(key=seed))
    d = rng.multivariate_normal(mu, sigma_pair, size=samples, method="eigh")
    sq = np.einsum("si,ij,sj->s", d, C, d)
    rate = float(np.mean(sq >= radius ** 2))
    required = 1.0 - eps_row - 3.0 * math.sqrt(eps_row * (1.0 - eps_row) / samples)
    return rate, required


# ---------------------------------------------------------------------------
# Bundled scenarios


def load_bundled(name) -> Scenario:
    return load_scenario(str(scenarios.bundled_path(name)))
