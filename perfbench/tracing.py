"""Timing shims around the library's public functions.

A shim replaces a function's name in every loaded ``ccgame`` module that
holds it (its own module included, so calls between functions of one module
are traced too) and records a span (name, start, end, parent, phase) per
call.  Spans stay in memory; ``layer_metrics`` folds them into per-layer
totals and ``dump`` writes them out.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, function, attribute to record from the result)
SHIMS = (
    ("model", "load_scenario", None),
    ("model", "validate_scenario", None),
    ("model", "assemble_problem", None),
    ("linearize", "nominal_rollout", None),
    ("linearize", "linearize_unicycle", None),
    ("uncertainty", "propagate_covariance", None),
    ("uncertainty", "assemble_constraints", lambda r: {"rows": r.M}),
    ("lqnash", "backward_recursion", None),
    ("lqnash", "affine_response", None),
    ("lqnash", "integrate_expected", None),
    ("lqnash", "closed_loop_covariance", None),
    ("lqnash", "evaluate_cost", None),
    ("lqnash", "evaluate_lagrangian", None),
    ("dualascent", "prepare_game", None),
    ("dualascent", "estimate_affine_map", None),
    ("dualascent", "run_dual_ascent", lambda r: {"iterations": r.iterations}),
    ("simulate", "rollout", lambda r: {"samples": r.samples}),
    ("simulate", "evaluate_safety", None),
    ("simulate", "central_mpc", None),
    ("simulate", "central_mpc_run",
     lambda r: {"replans": r.replans, "failures": len(r.failures)}),
    ("simulate", "slice_problem", None),
    ("simulate", "aggregate_problem", None),
)


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, phase, attrs]
        self._stack = []
        self._saved = []
        self.phase = None

    def _shim(self, name, fn, attrs):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.phase, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(out)
            return out
        return shim

    @contextmanager
    def active(self, phase):
        """Install every shim for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ccgame" or n.startswith("ccgame."))]
        self.phase = phase
        for mod_name, fn_name, attrs in SHIMS:
            original = getattr(sys.modules[f"ccgame.{mod_name}"], fn_name)
            shim = self._shim(f"{mod_name}.{fn_name}", original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, shim)
                        self._saved.append((mod, key, original))
        try:
            yield
        finally:
            for mod, key, original in reversed(self._saved):
                setattr(mod, key, original)
            self._saved.clear()
            self.phase = None

    def self_times(self):
        """Span duration minus the part of it that child spans cover."""
        children = [[] for _ in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for span, kids in zip(self.spans, children):
            covered, reach = 0.0, span[1]
            for start, end in sorted(kids):
                start, end = max(start, reach), min(end, span[2])
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span[2] - span[1] - covered)
        return out

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                        "parent": s[3], "phase": s[4], **(s[5] or {})}
                       for s in self.spans], fh)
            fh.write("\n")


def layer_metrics(tracer: Tracer, per_phase):
    """Per-layer metrics for one set-up plus one operation.

    ``per_phase`` maps a phase name to the number of traced repetitions of
    it; each phase's totals are divided by that count and the phases added.
    """
    tot, calls, attrs, self_tot = {}, {}, {}, {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        w = 1.0 / per_phase[span[4]]
        tot[span[0]] = tot.get(span[0], 0.0) + w * (span[2] - span[1])
        self_tot[span[0]] = self_tot.get(span[0], 0.0) + w * self_s
        calls[span[0]] = calls.get(span[0], 0.0) + w
        for key, value in (span[5] or {}).items():
            attrs[key] = attrs.get(key, 0.0) + w * value

    def s(name):
        return tot.get(name, 0.0)

    iters = attrs.get("iterations", 0.0)
    ascent_self = self_tot.get("dualascent.run_dual_ascent", 0.0)
    m = {
        "model.validate_s": s("model.validate_scenario"),
        "model.assemble_problem_s": s("model.assemble_problem"),
        "linearize.linearize_unicycle_s": s("linearize.linearize_unicycle"),
        "uncertainty.propagate_covariance_s": s("uncertainty.propagate_covariance"),
        "uncertainty.assemble_constraints_s": s("uncertainty.assemble_constraints"),
        "uncertainty.rows": attrs.get("rows", 0.0),
    }
    for fn in ("backward_recursion", "affine_response", "evaluate_cost",
               "integrate_expected"):
        m[f"lqnash.{fn}_calls"] = calls.get(f"lqnash.{fn}", 0.0)
        m[f"lqnash.{fn}_s"] = s(f"lqnash.{fn}")
    m.update({
        "dualascent.map_s": s("dualascent.estimate_affine_map"),
        "dualascent.map_self_s": self_tot.get("dualascent.estimate_affine_map", 0.0),
        "dualascent.solves": calls.get("dualascent.run_dual_ascent", 0.0),
        "dualascent.ascent_iterations": iters,
        "dualascent.ascent_self_s": ascent_self,
        "dualascent.iterations_per_s": iters / ascent_self if ascent_self > 0 else 0.0,
        "simulate.rollout_s": s("simulate.rollout"),
        "simulate.rollout_samples": attrs.get("samples", 0.0),
        "simulate.evaluate_safety_s": s("simulate.evaluate_safety"),
        "simulate.mpc_episode_s": s("simulate.central_mpc_run"),
        "simulate.mpc_episode_self_s": self_tot.get("simulate.central_mpc_run", 0.0),
        "simulate.subproblem_s": s("simulate.slice_problem") + s("simulate.aggregate_problem"),
        "simulate.replans": attrs.get("replans", 0.0),
        "simulate.replan_failures": attrs.get("failures", 0.0),
    })
    return m
