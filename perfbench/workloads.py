"""The three benchmark workloads.

Each workload has a set-up (what ``setup_s`` times), an untimed ``prepare``,
an operation (what ``op_s`` times) and output checks that compare against
``oracles``.  Library calls go through module attributes (``simulate.rollout``,
not a from-import) so that the tracing shims see them.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from ccgame import dualascent, lqnash, model, scenarios, simulate

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
SOLVE_ITERS = 20000          # README's budget for `ccgame solve`
ROLLOUT_SAMPLES = 2000       # samples per rollout operation
MPC_EPISODES = 2             # episodes per central_mpc operation
MPC_OPTIONS = dict(k_max=500, eta="auto")   # `ccgame mpc` defaults
MPC_REPLAN_EVERY = 1
MC_COST_Z = 5.0              # allowed |z| of the Monte Carlo mean cost
PREFIX = 7                   # samples re-run for the prefix determinism check
CHECK_CHUNK = 250            # samples per chunk of the rollout checks


def op_seed(seed, k):
    """Seed of operation k, derived from the run's --seed."""
    return int(np.random.SeedSequence([int(seed), int(k)]).generate_state(1, np.uint64)[0])


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    scenario = ""
    calibration = ("small",)    # calibrate.LOOPS that resemble the operation

    def __init__(self, seed):
        self.seed = seed
        self.problems = []     # failure messages from the output checks

    def setup(self):
        """Load the bundled scenario file, validate, prepare_game."""
        sc = model.load_scenario(str(scenarios.bundled_path(self.scenario)))
        return dualascent.prepare_game(model.validate_scenario(sc))

    def fail(self, msg):
        self.problems.append(msg)


class SolveIntersection(Workload):
    """One run_dual_ascent call on the 3-vehicle intersection (M = 750)."""

    scenario = "intersection"
    calibration = ("small", "dense")

    def prepare(self, prepared):
        self.prepared = prepared
        self.options = dualascent.DualAscentOptions(k_max=SOLVE_ITERS, eta="auto")
        self.reports = []

    def op(self, k):
        t0 = time.perf_counter()
        report = dualascent.run_dual_ascent(self.prepared, self.options)
        wall = time.perf_counter() - t0
        # exactly when `ccgame solve` exits 2
        failed = not (report.feasibility_residual <= self.options.tol_feas
                      and report.complementarity <= self.options.tol_slack)
        return wall, failed, report

    def check(self, report):
        # kept small and checked in finish(), after peak RSS is read, so
        # that the dense oracle's matrices do not count in it
        self.reports.append((np.asarray(report.lambda_bar), np.asarray(report.mean_traj),
                             np.asarray(report.g_final), report.lipschitz))
        self.quality = {"feasibility_residual": report.feasibility_residual,
                        "complementarity": report.complementarity,
                        "iterations": report.iterations}

    def finish(self):
        d = oracles.DenseGame(self.prepared.problem, self.prepared.conset)
        L = d.spectral_norm()
        reference = load_reference()["solve-intersection"]
        ref = reference["natural_residual"]
        for lam, mean_traj, g_final, lipschitz in self.reports:
            if np.any(lam < 0):
                self.fail(f"multiplier has negative entries (min {lam.min():.3e})")
            traj = d.mean_trajectory(lam)
            g = d.gradient(lam)
            err_x = np.max(np.abs(mean_traj - traj)) / (1 + np.max(np.abs(traj)))
            err_g = np.max(np.abs(g_final - g)) / (1 + np.max(np.abs(g)))
            if err_x > 1e-9 or err_g > 1e-9:
                self.fail(f"equilibrium differs from dense stationarity: "
                          f"trajectory {err_x:.2e}, g {err_g:.2e}")
            if not abs(lipschitz - L) <= 1e-6 * L:
                self.fail(f"Lipschitz constant {lipschitz!r} is not ||G||_2 = {L!r}")
            nat = oracles.natural_residual(lam, g)
            if not nat <= ref * (1 + reference["slack"]):
                self.fail(f"natural residual {nat:.4e} worse than the reference "
                          f"ascent's {ref:.4e} at {SOLVE_ITERS} iterations")
        self.quality.update(natural_residual=nat, active_rows=int(np.sum(lam > 0)),
                            dense_agreement=max(err_x, err_g))


class RolloutIntersection(Workload):
    """rollout + evaluate_safety of one 2000-sample batch per operation."""

    scenario = "intersection"

    def prepare(self, prepared):
        self.problem = prepared.problem
        report = dualascent.run_dual_ascent(
            prepared, dualascent.DualAscentOptions(k_max=SOLVE_ITERS, eta="auto"))
        self.policy = report.policy
        self.K, self.alpha = np.asarray(self.policy.K), np.asarray(self.policy.alpha)
        self.noise = oracles.NoiseMoments(self.problem.dyn.W)
        self.cost_sum = self.cost_sq = 0.0
        self.samples = self.violations = 0
        self.expected = oracles.expected_cost(self.problem, self.K, self.alpha)
        self.last = None

    def op(self, k):
        seed = op_seed(self.seed, k)
        t0 = time.perf_counter()
        batch = simulate.rollout(self.problem, self.policy, seed, ROLLOUT_SAMPLES)
        stats = simulate.evaluate_safety(batch, self.problem)
        return time.perf_counter() - t0, False, (batch, stats)

    def check(self, result):
        batch, stats = result
        mis = bad = 0
        # in chunks, so that the checks' temporaries stay below the library's
        # own and do not set the peak RSS
        for lo in range(0, batch.samples, CHECK_CHUNK):
            states = np.asarray(batch.states[lo:lo + CHECK_CHUNK])
            inputs = np.asarray(batch.inputs[lo:lo + CHECK_CHUNK])
            mis = max(mis, oracles.input_mismatch(self.K, self.alpha, states, inputs))
            self.noise.add(oracles.recovered_noise(self.problem.dyn, states, inputs))
            bad += int(np.sum(oracles.violations(self.problem, states)))
        if mis > 1e-12:
            self.fail(f"realized inputs differ from -K x - alpha by {mis:.2e}")
        if bad != stats.violations:
            self.fail(f"evaluate_safety counts {stats.violations} violations, "
                      f"direct count {bad}")
        total = np.asarray(batch.costs).sum(axis=1)
        self.cost_sum += float(total.sum())
        self.cost_sq += float(total @ total)
        self.samples += total.shape[0]
        self.violations += bad
        self.last = (batch.seed, np.array(batch.states[:PREFIX]), np.array(batch.inputs[:PREFIX]))

    def finish(self):
        self.problems += self.noise.failures()
        n = self.samples
        mean = self.cost_sum / n
        sd = np.sqrt(max(self.cost_sq / n - mean * mean, 0.0) * n / (n - 1))
        z = (mean - self.expected) / (sd / np.sqrt(n))
        if not abs(z) <= MC_COST_Z:
            self.fail(f"Monte Carlo mean cost {mean:.6g} vs exact {self.expected:.6g}: "
                      f"z = {z:.2f}")
        hi = oracles.wilson_upper(self.violations, n)
        if not hi <= self.problem.risk_epsilon:
            self.fail(f"Wilson upper bound {hi:.4g} above risk budget "
                      f"{self.problem.risk_epsilon}")
        seed, states, inputs = self.last
        head = simulate.rollout(self.problem, self.policy, seed, PREFIX)
        if not (np.array_equal(head.states, states) and np.array_equal(head.inputs, inputs)):
            self.fail(f"first {PREFIX} samples differ when rolled out alone")
        self.quality = {"samples": n, "violations": self.violations,
                        "wilson_hi": hi, "cost_mean": mean, "cost_expected": self.expected,
                        "cost_z": float(z)}


class MpcMini(Workload):
    """central_mpc + evaluate_safety over two intersection-mini episodes."""

    scenario = "intersection-mini"

    def setup(self):
        """Load the bundled scenario file, validate, assemble_problem (as `ccgame mpc`)."""
        sc = model.load_scenario(str(scenarios.bundled_path(self.scenario)))
        return model.assemble_problem(model.validate_scenario(sc))

    def prepare(self, problem):
        self.problem = problem
        self.options = dualascent.DualAscentOptions(**MPC_OPTIONS)
        T, N, n_u, n_x = problem.T, problem.N, problem.n_u, problem.n_x
        # noise recovery does not depend on the policy, so a zero-feedback
        # game policy is enough to pair rollout samples with MPC episodes
        self.zero_policy = lqnash.FeedbackPolicy(K=np.zeros((T, N, n_u, n_x)),
                                                 alpha=np.zeros((T, N, n_u)))
        self.replans_per_op = MPC_EPISODES * -(-T // MPC_REPLAN_EVERY)
        self.noise = oracles.NoiseMoments(problem.dyn.W)
        self.episodes = self.violations = 0
        self.cost_sum = 0.0

    def op(self, k):
        seed = op_seed(self.seed, k)
        t0 = time.perf_counter()
        try:
            batch, failures, _ = simulate.central_mpc(
                self.problem, seed, MPC_EPISODES, replan_every=MPC_REPLAN_EVERY,
                options=self.options)
        except RuntimeError as exc:     # raised when every episode failed
            return time.perf_counter() - t0, True, (seed, None, str(exc))
        simulate.evaluate_safety(batch, self.problem)
        # a recorded replan failure fails the operation; the checks below
        # cover the operations that did not fail
        return time.perf_counter() - t0, bool(failures), (seed, batch, failures)

    def check(self, result):
        seed, batch, failures = result
        if failures:
            print(f"  MPC seed {seed} failed: {failures}")
            return
        if batch.samples != MPC_EPISODES:
            self.fail(f"MPC seed {seed}: {batch.samples} episodes, not {MPC_EPISODES}")
        dyn = self.problem.dyn
        w_mpc = oracles.recovered_noise(dyn, np.asarray(batch.states), np.asarray(batch.inputs))
        game = simulate.rollout(self.problem, self.zero_policy, seed, MPC_EPISODES)
        w_game = oracles.recovered_noise(dyn, np.asarray(game.states), np.asarray(game.inputs))
        gap = float(np.max(np.abs(w_mpc - w_game)))
        if gap > 1e-10:
            self.fail(f"MPC seed {seed}: episode noise differs from the paired "
                      f"rollout sample's by {gap:.2e}")
        self.noise.add(w_mpc)
        self.episodes += batch.samples
        self.violations += int(np.sum(oracles.violations(self.problem, batch.states)))
        self.cost_sum += float(np.asarray(batch.costs).sum())

    def finish(self):
        self.problems += self.noise.failures()
        self.quality = {"episodes": self.episodes, "violations": self.violations,
                        "cost_mean": self.cost_sum / max(self.episodes, 1)}


WORKLOADS = {
    "solve-intersection": SolveIntersection,
    "rollout-intersection": RolloutIntersection,
    "mpc-mini": MpcMini,
}
