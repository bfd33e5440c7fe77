"""Command-line surface: solve, rollout, mpc, report.

Every command writes its artifacts plus a run manifest into --out.  Exit
codes: 0 success, 1 invalid input (malformed arguments too) or solver
failure, 2 completed with warnings (solve ended with residuals above
tolerance, or an MPC replan failed).

This module owns every artifact format it writes or reads back (policy.json,
trace.csv, stats.csv, report.csv and the trajectory dumps); the solver and
simulation modules return values.  trace.csv and report.csv end their lines
with CRLF, stats.csv and the dumps with LF.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import os
import sys
import time

import numpy as np

from . import __version__, lqnash, simulate
from .dualascent import DualAscentOptions, solve_scenario
from .errors import (CCGameError, DomainError, FingerprintMismatch,
                     ScenarioValidationError, SchemaError)
from .model import (UnicycleDynamicsSpec, assemble_problem, file_fingerprint,
                    load_scenario, read_json, validate_scenario, write_json)

TRACE_HEADER = ["iter", "max_violation", "complementarity", "dual_value_p1", "eta"]
STATS_HEADER = ["method", "samples", "seed", "cost_mean", "cost_std",
                "travel_mean_s", "collision_rate", "wilson_lo", "wilson_hi"]


def write_manifest(outdir, command, options, scenario_path, scenario_hash, outputs,
                   extra=None):
    """Write the run's provenance record, exactly one per artifact directory."""
    return write_json(os.path.join(outdir, "manifest.json"), {
        "command": command, "options": options, "scenario_path": str(scenario_path),
        "scenario_sha256": scenario_hash, "outputs": outputs,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool": "ccgame", "version": __version__, **(extra or {})}, indent=1)


def _print_errors(exc):
    for v in exc.violations if isinstance(exc, ScenarioValidationError) else [exc]:
        print(f"error: {type(v).__name__}: {v}", file=sys.stderr)


def _eta(value):
    if value == "auto":
        return value
    try:
        return float(value)
    except ValueError:
        raise DomainError(f"eta: expected 'auto' or a float, got {value!r}") from None


def _scenario_run(args):
    """(output directory, made; validated scenario; the scenario file's hash)."""
    outdir = args.out or f"runs/{args.command}"
    os.makedirs(outdir, exist_ok=True)
    return outdir, validate_scenario(load_scenario(args.scenario)), file_fingerprint(args.scenario)


def cmd_solve(args):
    options = DualAscentOptions(k_max=args.iters, eta=_eta(args.eta))
    outdir, vs, scenario_hash = _scenario_run(args)

    trace_rows = [TRACE_HEADER]
    writer = (lambda *row: trace_rows.append(row)) if args.trace else None
    t0 = time.perf_counter()
    prepared, report = solve_scenario(vs, options, relinearize=args.relinearize,
                                      trace_writer=writer)
    wall = time.perf_counter() - t0

    policy = report.policy
    write_json(os.path.join(outdir, "policy.json"), {
        "fingerprint": scenario_hash, "horizon": policy.T, "players": policy.N,
        "K": policy.K.tolist(), "alpha": policy.alpha.tolist(),
        "nominal_inputs": np.transpose(prepared.problem.nominal_inputs, (1, 0, 2)).tolist()})
    write_json(os.path.join(outdir, "report.json"),
               {**report.to_dict(), "wall_seconds": wall}, indent=1)

    outputs = ["policy.json", "report.json"]
    if args.trace:
        with open(os.path.join(outdir, "trace.csv"), "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(trace_rows)
        outputs.append("trace.csv")

    write_manifest(outdir, "solve",
                   {"iters": args.iters, "eta": args.eta,
                    "relinearize": args.relinearize, "trace": args.trace},
                   args.scenario, scenario_hash, outputs,
                   extra={"solve_seconds": wall})
    print(f"solved: {report.iterations} iteration(s), {report.pivots} pivot(s), "
          f"termination {report.termination}, "
          f"feasibility residual {report.feasibility_residual:.3e}, "
          f"complementarity {report.complementarity:.3e}, "
          f"eta {report.eta:.3e}, L {report.lipschitz:.3e}")
    return 2 if report.residual_above_tolerance else 0


def _load_policy(path):
    """(FeedbackPolicy, fingerprint, nominal inputs or None) of a policy.json."""
    doc = read_json(path)
    try:
        policy = lqnash.FeedbackPolicy(K=np.asarray(doc["K"], dtype=float),
                                       alpha=np.asarray(doc["alpha"], dtype=float))
        fingerprint = str(doc.get("fingerprint", ""))
        nominal = doc.get("nominal_inputs")
        nominal = None if nominal is None else np.asarray(nominal, dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed policy ({type(exc).__name__}: {exc})") from exc
    return policy, fingerprint, nominal


def cmd_rollout(args):
    outdir = args.out or "runs/rollout"
    os.makedirs(outdir, exist_ok=True)
    policy, fingerprint, nominal = _load_policy(args.policy)
    solve = _manifest_beside(args.policy)[1]
    scenario_hash = file_fingerprint(args.scenario)
    if fingerprint != scenario_hash:
        raise FingerprintMismatch(fingerprint, scenario_hash)
    vs = validate_scenario(load_scenario(args.scenario))
    problem = assemble_problem(vs, nominal_inputs=nominal)
    T, N, n_u, n_x = problem.T, problem.N, problem.n_u, problem.n_x
    if policy.K.shape != (T, N, n_u, n_x) or policy.alpha.shape != (T, N, n_u):
        raise SchemaError(f"{args.policy}: K {policy.K.shape} and alpha {policy.alpha.shape} "
                          f"do not fit T={T}, N={N}, n_u={n_u}, n_x={n_x}")

    t0 = time.perf_counter()
    batch = simulate.rollout(problem, policy, args.seed, args.samples)
    rollout_seconds = time.perf_counter() - t0
    stats = simulate.evaluate_safety(batch, problem)
    safety_seconds = time.perf_counter() - t0 - rollout_seconds
    _write_stats(os.path.join(outdir, "stats.csv"), stats)
    outputs = ["stats.csv"]
    if args.dump_trajectories:
        dump_trajectories(os.path.join(outdir, "trajectories"), batch, problem,
                          isinstance(vs.dynamics, UnicycleDynamicsSpec))
        outputs.append("trajectories/")
    write_manifest(outdir, "rollout",
                   {"samples": args.samples, "seed": args.seed,
                    "policy": args.policy},
                   args.scenario, scenario_hash, outputs,
                   extra={"rollout_seconds": rollout_seconds,
                          "safety_seconds": safety_seconds,
                          "samples_per_s": batch.samples / rollout_seconds,
                          "travel_flagged": stats.travel_flagged,
                          **{k: solve[k] for k in ("solve_seconds",) if k in solve}})
    print(f"rollout: {stats.samples} samples, violation rate {stats.rate:.4f} "
          f"(wilson [{stats.wilson_lo:.4f}, {stats.wilson_hi:.4f}]), "
          f"mean cost {stats.cost_mean:.3f}")
    return 0


def cmd_mpc(args):
    options = DualAscentOptions(k_max=args.iters, eta=_eta(args.eta))
    outdir, vs, scenario_hash = _scenario_run(args)
    problem = assemble_problem(vs)
    batch, failures, totals = simulate.central_mpc(
        problem, args.seed, args.samples, replan_every=args.replan_every,
        options=options)
    stats = simulate.evaluate_safety(batch, problem)
    _write_stats(os.path.join(outdir, "stats.csv"), stats)
    write_manifest(outdir, "mpc",
                   {"samples": args.samples, "seed": args.seed,
                    "replan_every": args.replan_every, "iters": args.iters,
                    "eta": args.eta},
                   args.scenario, scenario_hash, ["stats.csv"],
                   extra={**totals,
                          "failures": [{"sample": s, "step": t, "error": m}
                                       for s, t, m in failures]})
    print(f"central mpc: {stats.samples} seeds, violation rate {stats.rate:.4f}, "
          f"mean cost {stats.cost_mean:.3f}, {totals['comp_seconds_per_step']:.3f} s/replan, "
          f"{len(failures)} failure(s)")
    return 2 if failures else 0


def _write_stats(path, stats):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([STATS_HEADER, [
            stats.method, stats.samples, stats.seed, stats.cost_mean, stats.cost_std,
            stats.travel_mean_s, stats.rate, stats.wilson_lo, stats.wilson_hi]])


def dump_trajectories(dirpath, batch, problem, unicycle):
    """One CSV per sample; a unicycle scenario (``unicycle``, from its dynamics
    type) uses the t,agent,px,py,theta,v,a,omega schema, any other x0..,u0...
    An agent with fewer states than the widest leaves its missing x cells empty."""
    os.makedirs(dirpath, exist_ok=True)
    abs_states = problem.to_absolute(batch.states)
    abs_inputs = batch.inputs + problem.nominal_inputs[None, :, :, :]
    n_x_max, n_u = max(problem.state_dims), batch.inputs.shape[3]
    for s in range(batch.samples):
        lines = ["t,agent,px,py,theta,v,a,omega" if unicycle
                 else "t,agent," + ",".join(f"x{q}" for q in range(n_x_max))
                 + "," + ",".join(f"u{q}" for q in range(n_u))]
        for t in range(problem.T + 1):
            for i in range(problem.N):
                xs = [repr(float(v)) for v in abs_states[s, t, problem.agent_slices[i]]]
                us = abs_inputs[s, t - 1, i] if t >= 1 else np.zeros(n_u)
                vals = xs + [""] * (n_x_max - len(xs)) + [repr(float(v)) for v in us]
                lines.append(f"{t},{i}," + ",".join(vals))
        with open(os.path.join(dirpath, f"sample_{s:05d}.csv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _read_stats(path):
    """Rows of a UTF-8 stats file, each with the header's cells and numbers
    in the columns the report formats."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != STATS_HEADER:
                raise ValueError(f"schema mismatch, header {reader.fieldnames}")
            rows = list(reader)
        for row in rows:
            if None in row or None in row.values():
                raise ValueError("a row does not have one cell per header column")
            for key in ("cost_mean", "travel_mean_s", "collision_rate"):
                float(row[key])
    except ValueError as exc:       # UnicodeDecodeError is one too
        raise SchemaError(f"{path}: {exc}") from exc
    return rows


def _manifest_beside(path):
    """(path, document) of the manifest.json in the directory of ``path``;
    the document is {} when there is no such file."""
    manifest = os.path.join(os.path.dirname(os.path.abspath(path)), "manifest.json")
    doc = read_json(manifest) if os.path.exists(manifest) else {}
    if not isinstance(doc, dict):
        raise SchemaError(f"{manifest}: malformed manifest (not a JSON object)")
    return manifest, doc


def _comp_time_for(path):
    manifest, doc = _manifest_beside(path)
    try:
        if "comp_seconds_per_step" in doc:
            return f"{doc['comp_seconds_per_step']:.3f} s / step"
        if "solve_seconds" in doc:
            return f"{doc['solve_seconds']:.3f} s"
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{manifest}: malformed manifest ({exc})") from exc
    return ""


def cmd_report(args):
    rows = []
    for path in args.stats:
        for row in _read_stats(path):
            row["comp_t"] = _comp_time_for(path)
            rows.append(row)
    if not rows:
        raise CCGameError("no stats rows to report")
    headers = ["Method", "Cost", "Travel T", "Comp. T", "Col. rate"]
    table = [[r["method"],
              f"{float(r['cost_mean']):.1f}",
              f"{float(r['travel_mean_s']):.1f} s",
              r["comp_t"],
              f"{100 * float(r['collision_rate']):.1f}%"] for r in rows]
    widths = [max(len(h), *(len(t[c]) for t in table)) for c, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for t in table:
        print("  ".join(v.ljust(w) for v, w in zip(t, widths)))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        merged = os.path.join(args.out, "report.csv")
        with open(merged, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=STATS_HEADER + ["comp_t"])
            w.writeheader()
            w.writerows(rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """Malformed arguments are invalid input: exit 1 with an ``error:`` line."""

    def error(self, message):
        raise DomainError(message)


def build_parser():
    p = _Parser(prog="ccgame", description="Chance-constrained LQG game solver")
    sub = p.add_subparsers(dest="command", required=True)
    # options that several commands take; a parent's options come first
    scenario = _Parser(add_help=False)
    scenario.add_argument("--scenario", required=True)
    policy = _Parser(add_help=False, parents=[scenario])
    policy.add_argument("--policy", required=True)
    sampling = _Parser(add_help=False)
    sampling.add_argument("--samples", type=int, default=100)
    sampling.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("solve", parents=[scenario], help="compute the feedback GNE policy")
    s.add_argument("--iters", type=int, default=2000,
                   help="iterations of the ascent the pivot falls back to")
    s.add_argument("--eta", default="auto")
    s.add_argument("--relinearize", type=int, default=0,
                   help="outer relinearization rounds (unicycle scenarios)")
    s.add_argument("--trace", action="store_true")
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser("rollout", parents=[policy, sampling],
                       help="seeded Monte Carlo rollouts of a policy")
    r.add_argument("--dump-trajectories", action="store_true")
    r.set_defaults(func=cmd_rollout)

    m = sub.add_parser("mpc", parents=[scenario, sampling],
                       help="central-MPC baseline over seeded episodes")
    m.add_argument("--replan-every", type=int, default=1)
    m.add_argument("--iters", type=int, default=500)
    m.add_argument("--eta", default="auto")
    m.set_defaults(func=cmd_mpc)

    c = sub.add_parser("report", help="merge stats files into a comparison table")
    c.add_argument("stats", nargs="+")
    c.set_defaults(func=cmd_report)
    for command in (s, r, m, c):    # last in every command's options
        command.add_argument("--out", default=None)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CCGameError, OSError) as exc:
        _print_errors(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
