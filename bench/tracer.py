"""Out-of-program tracing of one CLI call.

The tracer rebinds the public names one banachscale module looks up in
another (and the methods of the objects ``picard_solve`` receives) to
wrappers that record a span ``(name, start, end, parent)`` and a call count.
Spans stay in memory and are written out after the call.  Self time of a span
is its duration minus the time its child spans cover; children of one span
never overlap, so that is the sum of their durations.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict

from banachscale import cli, kimura, oracles, solver, stability

# (owner, attribute) -> span name.  Owners are modules (a name one module looks
# up in another) or classes (the methods of the U, B and norm objects that
# picard_solve receives, and of the model they share).
TRACE_POINTS = [
    (cli, "picard_solve", "solver.picard"),
    (stability, "picard_solve", "solver.picard"),
    (solver, "integral_map", "solver.integral_map"),
    (solver, "monitor_m", "solver.monitor"),
    (solver, "weighted_gamma_norm", "scalecore.weighted_norm"),
    (kimura, "model_constants", "kimura.certify"),
    (kimura.KimuraEvolution, "apply", "kimura.propagator"),
    (oracles, "evolution_u", "kimura.propagator"),
    (kimura.KimuraPerturbation, "apply", "kimura.perturbation"),
    (kimura.KimuraModel, "hierarchy_norm", "kimura.norm"),
    (kimura.CorrelationHierarchy, "norm", "kimura.norm"),
    (kimura.KimuraModel, "a0_matrix", "kimura.a0_matrix"),
    (oracles, "apply_A0", "oracles.structural"),
    (oracles, "apply_A1", "oracles.structural"),
    (oracles, "bdelta", "oracles.structural"),
    (cli, "bound_verifier", "oracles.bound_verifier"),
    (cli, "evolution_law_check", "oracles.evolution_law"),
    (cli, "kimura_h_family", "stability.family_build"),
    (cli, "stability_experiment", "stability.experiment"),
    (cli, "write_csv", "cli.write"),
    (cli, "write_summary", "cli.write"),
]


class Tracer:
    """Span recorder; install() rebinds the trace points, uninstall() restores."""

    def __init__(self):
        # one entry per span; flat arrays keep the garbage collector out of it
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.iterations = 0
        self.stability_solves = 0
        self.a0_times: set[float] = set()
        self._stack: list[int] = []
        self._child: list[float] = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack, child = self._stack, self._child
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = time.perf_counter()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                covered = child.pop()
                dur = end - start
                ends[idx] = end
                calls[name] += 1
                inclusive[name] += dur
                self_time[name] += dur - covered
                if child:
                    child[-1] += dur

        return traced

    def install(self) -> None:
        for owner, attr, name in TRACE_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, self._observe(owner, attr, original)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _observe(self, owner, attr, fn):
        """Add the counters a span alone cannot give (iterations, distinct t)."""
        if attr == "picard_solve":
            from_stability = owner is stability

            def picard(*args, **kwargs):
                u, report = fn(*args, **kwargs)
                self.iterations += report.iterations
                self.stability_solves += from_stability
                return u, report

            return picard
        if attr == "a0_matrix":
            def a0_matrix(model, t):
                self.a0_times.add(t)
                return fn(model, t)

            return a0_matrix
        return fn

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures; every ``*_s`` is self time except solver.picard_s."""
        c, s = self.calls, self.self_time
        return {
            "cli.self_s": s["cli.main"],
            "cli.write_s": s["cli.write"],
            "kimura.propagator_calls": c["kimura.propagator"],
            "kimura.propagator_s": s["kimura.propagator"],
            "kimura.a0_matrix_calls": c["kimura.a0_matrix"],
            "kimura.a0_matrix_distinct_t": len(self.a0_times),
            "kimura.a0_matrix_s": s["kimura.a0_matrix"],
            "kimura.perturbation_calls": c["kimura.perturbation"],
            "kimura.perturbation_s": s["kimura.perturbation"],
            "kimura.norm_calls": c["kimura.norm"],
            "kimura.norm_s": s["kimura.norm"],
            "kimura.certify_calls": c["kimura.certify"],
            "kimura.certify_s": s["kimura.certify"],
            "scalecore.weighted_norm_calls": c["scalecore.weighted_norm"],
            "scalecore.weighted_norm_s": s["scalecore.weighted_norm"],
            "solver.picard_s": self.inclusive["solver.picard"],
            "solver.self_s": s["solver.picard"],
            "solver.integral_map_s": s["solver.integral_map"],
            "solver.monitor_s": s["solver.monitor"],
            "solver.iterations": self.iterations,
            "oracles.bound_verifier_s": s["oracles.bound_verifier"],
            "oracles.evolution_law_s": s["oracles.evolution_law"],
            "oracles.structural_s": s["oracles.structural"],
            "stability.family_build_s": s["stability.family_build"],
            "stability.experiment_s": s["stability.experiment"],
            "stability.solves": self.stability_solves,
        }

    def write_spans(self, path) -> None:
        """One JSON object: span names, then [name index, start, end, parent]
        rows in start order, times in seconds from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": [[n, round(a - t0, 9), round(b - t0, 9), p] for n, a, b, p in rows],
            }, fh, separators=(",", ":"))
