"""Calibration loops that measure how fast the machine is running right now.

The benchmark host is a shared VM whose speed swings by up to 1.8x within
seconds to minutes, and raw wall times swing with it.  Each round of a run
times a calibration loop next to the library calls; the ratio of the two is
steady to a few per cent where the raw times are not.  The loops use numpy
only, never ``ccgame``, so a change to the library cannot move them.

``small`` steps a 3-player closed loop with 12x12 matrices in Python, like a
rollout or a replan; ``dense`` runs projected ascent steps on a fixed
750x750 matrix, like the multiplier solve.  ``REFERENCE_S`` is each loop's
median wall time on the machine the benchmark was tuned on (see README.md);
multiplying a ratio by it expresses a time in seconds at that speed.
"""

from __future__ import annotations

import functools
import time

import numpy as np

_rng = np.random.default_rng(20240501)
_A = np.eye(12) + 0.05 * _rng.standard_normal((50, 12, 12))
_B = 0.1 * _rng.standard_normal((50, 3, 12, 2))
_K = 0.1 * _rng.standard_normal((50, 3, 2, 12))


@functools.cache
def _dense_problem():
    # built on first use, so workloads that never run ``dense`` do not
    # carry its 4.5 MB matrix in their peak RSS; the scale keeps the
    # iterates bounded over 400 steps
    rng = np.random.default_rng(20240502)
    G = rng.standard_normal((750, 750))
    G *= -1e-3
    return G, rng.standard_normal(750)


def small():
    for s in range(40):
        x = np.full(12, 0.01 * s)
        for t in range(50):
            u = -_K[t] @ x
            x = _A[t] @ x + np.einsum("iab,ib->a", _B[t], u)
    return x


def dense():
    G, c = _dense_problem()
    lam = np.zeros(750)
    for _ in range(400):
        lam = np.maximum(0.0, lam + 1e-2 * (G @ lam + c))
    return lam


LOOPS = {"small": small, "dense": dense}
REFERENCE_S = {"small": 0.0110, "dense": 0.0250}


def timings(names):
    """Wall time of each named loop."""
    out = {}
    for name in names:
        t0 = time.perf_counter()
        LOOPS[name]()
        out[name] = time.perf_counter() - t0
    return out


def speed(before, after, names):
    """Reference time of the named loops over their mean measured time.

    A wall time multiplied by this is the time at the reference speed.
    """
    measured = sum(before[n] + after[n] for n in names) / 2.0
    return sum(REFERENCE_S[n] for n in names) / measured
