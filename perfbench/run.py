"""ccgame benchmark: solve, Monte Carlo and central-MPC workloads.

    python3 perfbench/run.py --workload solve-intersection --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``ccgame`` from its
``src/``.  For ``--seconds`` seconds it repeats rounds of ``SETUPS_PER_OP``
set-ups and one operation of the workload, each round bracketed by the
``calibrate`` loops, and stops after a whole round.  It checks every output
against ``oracles`` and prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every other round runs
under the tracing shims, the metrics are the per-layer ones plus the
tracing overhead, and the spans are written to ``.bench_build/``.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS_PER_OP = 2


def _import_library():
    """Import ccgame from this checkout's src/, never from elsewhere."""
    os.environ.pop("CCGAME_THREADS", None)
    sys.path.insert(0, SRC)
    try:
        import ccgame
    except ImportError as exc:
        sys.exit(f"error: cannot import ccgame from {SRC}: {exc}")
    if not os.path.abspath(ccgame.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: ccgame was imported from {ccgame.__file__}, not {SRC}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["solve-intersection", "rollout-intersection", "mpc-mini"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    _import_library()
    import calibrate
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None

    def run(k, phase, fn):
        """Time fn(); under --trace 1 every odd repetition runs traced."""
        traced = tracer is not None and k % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tracer.active(phase):
                out = fn()
        else:
            out = fn()
        return traced, time.perf_counter() - t0, out

    setup_times = {False: [], True: []}    # at the reference speed
    op_times = {False: [], True: []}
    raw_setup, raw_op = [], []
    wl.prepare(wl.setup())
    loops = sorted({"small", *wl.calibration})
    calibrate.timings(loops)    # the first BLAS call in a process is slow
    attempted = failed = 0
    t_start = time.perf_counter()
    k = 0
    # set-ups are interleaved with the operations, and every round is
    # bracketed by calibration loops, so that set-ups, operations and the
    # machine's speed are all sampled over the same stretch of time
    while k < (2 if tracer else 1) or time.perf_counter() - t_start < args.seconds:
        before = calibrate.timings(loops)
        setups = [run(k, "setup", wl.setup) for _ in range(SETUPS_PER_OP)]
        traced, _, (wall, op_failed, result) = run(k, "op", lambda: wl.op(k))
        after = calibrate.timings(loops)
        to_ref = calibrate.speed(before, after, ("small",))
        for s_traced, s_wall, _ in setups:
            setup_times[s_traced].append(s_wall * to_ref)
            raw_setup.append(s_wall)
        op_times[traced].append(wall * calibrate.speed(before, after, wl.calibration))
        raw_op.append(wall)
        attempted += 1
        failed += int(op_failed)
        wl.check(result)
        del result    # a user's process holds one result at a time
        k += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.finish()

    print(f"workload {args.workload}  seed {args.seed}  operations {attempted}  "
          f"failed {failed}  set-ups {len(raw_setup)}")
    print(f"  raw wall medians: set-up {statistics.median(raw_setup):.6g} s, "
          f"operation {statistics.median(raw_op):.6g} s")
    for key, value in wl.quality.items():
        print(f"  quality {key} = {value}")
    for msg in wl.problems:
        print(f"  CHECK FAILED: {msg}")

    if tracer is None:
        op_s = statistics.median(op_times[False])
        metrics = {
            "setup_s": (statistics.median(setup_times[False]), "s"),
            "op_s": (op_s, "s"),
            "peak_rss_mb": (peak_rss_mib, "MiB"),
        }
        if args.workload == "rollout-intersection":
            print(f"  rollout_samples_per_s = {workloads.ROLLOUT_SAMPLES / op_s:.1f}")
        elif args.workload == "mpc-mini":
            print(f"  mpc_replan_s = {op_s / wl.replans_per_op:.5f}")
    else:
        metrics = {name: (value, _unit(name)) for name, value in tracing.layer_metrics(
            tracer, {"setup": len(setup_times[True]), "op": len(op_times[True])}).items()}
        overhead = (statistics.median(op_times[True])
                    / statistics.median(op_times[False]) - 1.0) * 100.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        out_dir = os.path.join(ROOT, ".bench_build")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not wl.problems, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
