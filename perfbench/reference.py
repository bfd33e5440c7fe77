"""Recompute the reference natural residual of the solve-intersection check.

    python3 perfbench/reference.py            # print the value
    python3 perfbench/reference.py --write    # also store it in reference.json

Runs the paper's averaged projected ascent (step h / ||G||_2, 20 000
iterations, average of the iterates) on the dense dual map that
``oracles.DenseGame`` builds apart from the solver, and reports the natural
residual ||lam - max(0, lam + g(lam))|| of its averaged multiplier.  The
benchmark requires every solve to reach a natural residual no worse than
this, within ``slack``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run

SLACK = 1e-3   # relative; covers rounding differences between the two maps


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    run._import_library()
    import oracles
    import workloads

    prepared = workloads.SolveIntersection(0).setup()
    game = oracles.DenseGame(prepared.problem, prepared.conset)
    lam = oracles.reference_ascent(game, workloads.SOLVE_ITERS)
    doc = {"solve-intersection": {
        "iterations": workloads.SOLVE_ITERS,
        "natural_residual": oracles.natural_residual(lam, game.gradient(lam)),
        "slack": SLACK,
    }}
    print(json.dumps(doc, indent=1))
    if args.write:
        with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
