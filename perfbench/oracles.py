"""Checks computed apart from the solver.

Nothing here calls into ``ccgame.lqnash``, ``ccgame.dualascent`` or
``ccgame.simulate``: the equilibrium of a decoupled game is rebuilt from
dense prediction matrices, expected costs from the closed-loop trace
formula, and Monte Carlo noise is recovered from realized states and
inputs.  Only plain problem data (matrices, constraint rows, specs) is read
from the library's objects.
"""

from __future__ import annotations

import math

import numpy as np

WILSON_Z = 1.959963984540054   # two-sided 95 %
CLT_Z = 5.5                    # per-test false alarm ~4e-8


class NotApplicable(Exception):
    """The game does not decouple, so the dense per-agent oracle is not exact."""


def _agent_index(problem):
    return [np.arange(sl.start, sl.stop) for sl in problem.agent_slices]


def _check_decoupled(problem):
    dyn = problem.dyn
    n_x = problem.n_x
    for i, idx in enumerate(_agent_index(problem)):
        rest = np.setdiff1d(np.arange(n_x), idx)
        if (np.any(dyn.A[:, idx][:, :, rest]) or np.any(dyn.A[:, rest][:, :, idx])
                or np.any(dyn.B[:, i][:, rest]) or np.any(problem.Q[i][:, rest])
                or np.any(problem.Q[i][:, :, rest])):
            raise NotApplicable(f"agent {i} is coupled to the others")


class DenseGame:
    """Equilibrium mean trajectory of a decoupled game as an affine map of lam.

    With block-diagonal dynamics and own-substate costs, player i's mean
    trajectory given lam solves the deterministic LQ problem
    ``min (X-r)'Q(X-r) + U'RU + lam' L_i' X`` over X = Phi x0 + Gamma U,
    whose stationarity gives U = H^-1 (-Gamma'Q(Phi x0 - r) - Gamma'L_i lam / 2).
    """

    def __init__(self, problem, conset):
        _check_decoupled(problem)
        dyn = problem.dyn
        T, n_x, n_u = problem.T, problem.n_x, problem.n_u
        self.T, self.n_x = T, n_x
        self.lmat, self.c = np.asarray(conset.lmat), np.asarray(conset.c)
        M = self.c.shape[0]
        self.x0 = np.asarray(dyn.x0)
        self.blocks = []   # (rows of xstack, X0 part, affine coefficient on lam)
        G = np.zeros((M, M))
        for i, idx in enumerate(_agent_index(problem)):
            d = idx.size
            A = dyn.A[:, idx][:, :, idx]
            B = dyn.B[:, i][:, idx]
            Phi = np.zeros((T * d, d))
            Gam = np.zeros((T * d, T * n_u))
            P, S = np.eye(d), np.zeros((d, T * n_u))
            for t in range(T):
                P = A[t] @ P
                S = A[t] @ S
                S[:, t * n_u:(t + 1) * n_u] = B[t]
                Phi[t * d:(t + 1) * d] = P
                Gam[t * d:(t + 1) * d] = S
            Qb = _blockdiag([problem.Q[i, t][np.ix_(idx, idx)] for t in range(1, T + 1)])
            Rb = _blockdiag([problem.R[i, t] for t in range(T)])
            r = np.concatenate([problem.ref[i, t][idx] for t in range(1, T + 1)])
            rows = np.concatenate([(t - 1) * n_x + idx for t in range(1, T + 1)])
            L_i = self.lmat[rows]
            H = Gam.T @ Qb @ Gam + Rb
            free = Phi @ self.x0[idx]
            U0 = np.linalg.solve(H, -Gam.T @ Qb @ (free - r))
            ULam = np.linalg.solve(H, -0.5 * Gam.T @ L_i)
            X0 = free + Gam @ U0
            XLam = Gam @ ULam
            self.blocks.append((rows, X0, XLam))
            G += L_i.T @ XLam
        self.G = G
        self.ctilde = self.gradient_offset()

    def gradient_offset(self):
        xs = np.zeros(self.T * self.n_x)
        for rows, X0, _ in self.blocks:
            xs[rows] = X0
        return self.lmat.T @ xs + self.c

    def mean_trajectory(self, lam):
        xs = np.zeros(self.T * self.n_x)
        for rows, X0, XLam in self.blocks:
            xs[rows] = X0 + XLam @ lam
        return np.vstack([self.x0, xs.reshape(self.T, self.n_x)])

    def gradient(self, lam):
        return self.G @ lam + self.ctilde

    def spectral_norm(self):
        # G = -1/2 sum L_i' Gam H^-1 Gam' L_i is symmetric by construction
        return float(np.max(np.abs(np.linalg.eigvalsh(self.G))))


def _blockdiag(blocks):
    n = sum(b.shape[0] for b in blocks)
    m = sum(b.shape[1] for b in blocks)
    out = np.zeros((n, m))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def natural_residual(lam, g):
    """||lam - max(0, lam + g)||_2: zero exactly at a solution of the LCP."""
    return float(np.linalg.norm(lam - np.maximum(0.0, lam + g)))


def reference_ascent(game: DenseGame, iterations, h=0.5):
    """The paper's averaged projected ascent, run on the dense map.

    Step h / ||G||_2 from lam = 0; returns the average of the first
    ``iterations`` iterates, as the library's ascent does.
    """
    G, c = game.G, game.ctilde
    eta = h / game.spectral_norm()
    lam = np.zeros(c.shape[0])
    total = np.zeros_like(lam)
    for _ in range(int(iterations)):
        total += lam
        lam = np.maximum(0.0, lam + eta * (G @ lam + c))
    return total / int(iterations)


# ---------------------------------------------------------------------------
# Closed-loop expectations and Monte Carlo properties


def expected_cost(problem, K, alpha):
    """Total expected cost over players under u = -K x - alpha (trace formula).

    sum_i sum_t (xbar-r)'Q(xbar-r) + tr(Q Sigma) + ubar'R ubar + tr(R K Sigma K'),
    with Sigma the closed-loop covariance from Sigma_0 = 0.
    """
    dyn = problem.dyn
    T = problem.T
    x = np.asarray(dyn.x0, dtype=float)
    Sig = np.zeros((problem.n_x, problem.n_x))
    total = 0.0
    for t in range(T):
        u = -np.einsum("iab,b->ia", K[t], x) - alpha[t]
        total += float(np.einsum("ia,iab,ib->", u, problem.R[:, t], u))
        total += float(np.sum(problem.R[:, t] * (K[t] @ Sig @ K[t].transpose(0, 2, 1))))
        F = dyn.A[t] - np.einsum("iab,ibc->ac", dyn.B[t], K[t])
        x = dyn.A[t] @ x + np.einsum("iab,ib->a", dyn.B[t], u)
        Sig = F @ Sig @ F.T + dyn.W[t]
        e = x[None, :] - problem.ref[:, t + 1]
        total += float(np.einsum("ia,iab,ib->", e, problem.Q[:, t + 1], e))
        total += float(np.einsum("iab,ba->", problem.Q[:, t + 1], Sig))
    return total


def input_mismatch(K, alpha, states, inputs):
    """Largest |u - (-K x - alpha)| over samples, times and players, scaled."""
    expect = -np.einsum("tiab,stb->stia", K, states[:, :-1]) - alpha[None]
    return float(np.max(np.abs(inputs - expect)) / (1.0 + np.max(np.abs(inputs))))


def recovered_noise(dyn, states, inputs):
    """w[s, t] = x[s, t+1] - A_t x[s, t] - sum_i B_t^i u[s, t, i]."""
    return (states[:, 1:] - np.einsum("tab,stb->sta", dyn.A, states[:, :-1])
            - np.einsum("tiab,stib->sta", dyn.B, inputs))


class NoiseMoments:
    """Pooled first and second moments of recovered noise against W."""

    def __init__(self, W):
        W = np.asarray(W)
        self.W = W.mean(axis=0)
        diag = np.einsum("tqq->tq", W)
        # Var(w_q w_r) = W_qq W_rr + W_qr^2 for Gaussian w, averaged over t
        self.V = (diag[:, :, None] * diag[:, None, :] + W ** 2).mean(axis=0)
        self.n = 0
        self.s1 = np.zeros(self.W.shape[0])
        self.s2 = np.zeros_like(self.W)

    def add(self, w):
        flat = w.reshape(-1, w.shape[-1])
        self.n += flat.shape[0]
        self.s1 += flat.sum(axis=0)
        self.s2 += flat.T @ flat

    def failures(self, z=CLT_Z):
        out = []
        n = self.n
        mean = self.s1 / n
        tol_mean = z * np.sqrt(np.diag(self.W) / n) + 1e-15
        if np.any(np.abs(mean) > tol_mean):
            q = int(np.argmax(np.abs(mean) / tol_mean))
            out.append(f"noise mean coordinate {q} is {mean[q]:.3e}, "
                       f"beyond {tol_mean[q]:.3e} (n={n})")
        dev = np.abs(self.s2 / n - self.W)
        tol_cov = z * np.sqrt(self.V / n) + 1e-15
        if np.any(dev > tol_cov):
            q, r = np.unravel_index(np.argmax(dev / tol_cov), dev.shape)
            out.append(f"noise covariance entry ({q},{r}) off W by {dev[q, r]:.3e}, "
                       f"beyond {tol_cov[q, r]:.3e} (n={n})")
        return out


def violations(problem, states):
    """Per-sample joint violation of the original predicates, counted directly."""
    x = np.asarray(states) + problem.nominal_states
    T = problem.T
    slices = problem.agent_slices
    bad = np.zeros(x.shape[0], dtype=bool)
    for spec in problem.constraints:
        times = list(range(1, T + 1) if spec.active_times is None else spec.active_times)
        xt = x[:, times]
        if spec.kind == "box":
            lo, hi = np.asarray(spec.x_min), np.asarray(spec.x_max)
            with np.errstate(invalid="ignore"):
                bad |= np.any((xt < lo) | (xt > hi), axis=(1, 2))
        else:
            i, j = spec.pair
            d = xt[:, :, slices[i]] - xt[:, :, slices[j]]
            bad |= np.any(np.einsum("sta,ab,stb->st", d, spec.C, d) < spec.radius ** 2,
                          axis=1)
    return bad


def wilson_upper(k, n, z=WILSON_Z):
    p = k / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2 * n)
    return (center + z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))) / denom
