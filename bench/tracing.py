"""Spans around the public entry points of each module, installed from outside.

:class:`Tracer` replaces functions on their modules (and sampler and
exponent methods on their classes) with wrappers that record a span
``(name, start, end, parent)`` in memory, or only bump a counter where a
span per call would cost more than the call.  ``restore`` puts the originals
back.  :func:`layer_metrics` turns the spans and counters into the per-layer
metrics; self time is a span's duration minus that of its direct children.

Spans inside the Euler step and the solver's right-hand side need tracing in
the program itself and are not recorded here (see README.md).
"""

from __future__ import annotations

import inspect
import math
import time
from collections import Counter

import bibranch as bb
import bibranch.cumulant
import bibranch.functionals
import bibranch.moments
import bibranch.simulate
import bibranch.verify
from bibranch import measures

from workloads import MC_WORKLOADS

# span name -> function name; wrapped wherever verify, the package root or
# the defining module binds it
SPANS = {
    "verify.run_scenario": "run_scenario",
    "environment.validate": "validate",
    "cumulant.solve_backward": "solve_backward",
    "cumulant.laplace_transform": "laplace_transform",
    "cumulant.semigroup_check": "semigroup_check",
    "cumulant.v_infinity": "v_infinity",
    "cumulant.extinction_prob": "extinction_prob",
    "moments.first_moment": "first_moment",
    "simulate.simulate_ensemble": "simulate_ensemble",
    "simulate.coupled_order_violations": "coupled_order_violations",
    "simulate.extinction_frequency": "extinction_frequency",
    "simulate.truncate_large_jumps": "truncate_large_jumps",
    "functionals.mc_functional": "mc_functional",
    "functionals.solve_w": "solve_w",
    "functionals.solve_functional": "solve_functional",
}
MODULES = (bb, bibranch.verify, bibranch.cumulant, bibranch.simulate,
           bibranch.functionals, bibranch.moments)
MEASURES = (measures.Dirac, measures.ExpProduct, measures.CappedExpProduct,
            measures.StableAxis, measures.CappedStableAxis)
SAMPLERS = ("sample", "tail_sample")
EXPONENTS = ("compensated_exponent", "full_exponent")
SCENARIOS = tuple(name for names, _ in MC_WORKLOADS.values() for name in names)


def mesh_steps(env, t0: float, t: float, step: float, checkpoints=(), zeta=None) -> int:
    """Euler steps the path engine takes on [t0, t], from the public mesh rules."""
    extra_atoms, extra = (), []
    if zeta is not None:
        extra_atoms = tuple(s for sm in zeta.per_type for s in sm.atom_times)
        for sm in zeta.per_type:
            extra.extend(sm.density.breakpoints(t0, t))
    required = sorted({t0, t} | {c for c in checkpoints if t0 < c <= t}
                      | set(env.atom_times(t0, t, extra=extra_atoms))
                      | set(env.density_breakpoints(t0, t)) | set(extra))
    return sum(max(1, math.ceil((b - a) / step - 1e-12))
               for a, b in zip(required[:-1], required[1:]))


def _args(fn, a, k):
    bound = inspect.signature(fn).bind(*a, **k)
    bound.apply_defaults()
    return bound.arguments


def _count_paths(counts, fn, a, k, out):
    g = _args(fn, a, k)
    checkpoints = sorted(set(float(c) for c in g["checkpoints"]) | {float(g["t"])})
    counts["simulate.path_steps"] += g["n_paths"] * mesh_steps(
        g["env"], g["t0"], g["t"], g["opts"].step, checkpoints)


def _count_pairs(counts, fn, a, k, out):
    g = _args(fn, a, k)
    counts["simulate.pair_steps"] += g["n_pairs"] * mesh_steps(
        g["env"], 0.0, g["t"], g["opts"].step)


def _count_functional(counts, fn, a, k, out):
    g = _args(fn, a, k)
    counts["functionals.path_steps"] += g["n_paths"] * mesh_steps(
        g["env"], g["r"], g["t"], g["opts"].step, zeta=g["zeta"])


def _count_solve(counts, fn, a, k, out):
    counts["cumulant.solve_calls"] += 1
    counts["cumulant.solver_points"] += len(out.grid()[0])


def _count_ladder(counts, fn, a, k, out):
    status = out[1]["status"]
    counts["cumulant.ladder_rungs"] += len(out[1]["ladder"])
    counts["cumulant.ladder_inconclusive"] += "slow" in status


def _count_samples(counts, fn, a, k, out):
    # sample(self, rng, n) and tail_sample(self, rng, n, eps); binding the
    # signature on every draw would dominate the traced run
    counts["measures.samples_drawn"] += a[2] if len(a) > 2 else k["n"]


def _scenario_name(a, k):
    return (a[0] if a else k["sc"]).name


ON_RESULT = {
    "simulate.simulate_ensemble": _count_paths,
    "simulate.coupled_order_violations": _count_pairs,
    "functionals.mc_functional": _count_functional,
    "cumulant.solve_backward": _count_solve,
    "cumulant.v_infinity": _count_ladder,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, label)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, on_result=None, label=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*a, **k):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, label and label(a, k))
            if on_result is not None:
                on_result(counts, fn, a, k, out)
            return out
        return wrapper

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*a, **k):
            counts[name] += 1
            return fn(*a, **k)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for span, attr in SPANS.items():
            originals = {getattr(m, attr) for m in MODULES if attr in vars(m)}
            for fn in originals:
                wrapper = self._wrap(span, fn, ON_RESULT.get(span),
                                     _scenario_name if span == "verify.run_scenario" else None)
                for m in MODULES:
                    if vars(m).get(attr) is fn:
                        self._set(m, attr, wrapper)
        for cls in MEASURES:
            for attr in SAMPLERS:
                if attr in vars(cls):
                    self._set(cls, attr, self._wrap("measures.sample", vars(cls)[attr],
                                                    _count_samples))
            for attr in EXPONENTS:
                self._set(cls, attr, self._counting("measures.exponent_calls", vars(cls)[attr]))
        return self

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_metrics(tracer: Tracer, gates: dict) -> dict:
    """Per-layer values from the spans and counters of one traced pass."""
    busy, child, scenario_s = Counter(), Counter(), Counter()
    for name, t0, t1, parent, _ in tracer.spans:
        busy[name] += t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
    verify_self = 0.0
    for idx, (name, t0, t1, parent, label) in enumerate(tracer.spans):
        if name == "verify.run_scenario":
            scenario_s[label] += t1 - t0
            verify_self += (t1 - t0) - child[idx]
    c = tracer.counts

    def per(total_s, n):
        return total_s * 1e9 / n if n else 0.0

    out = {
        "simulate.ensemble_s": busy["simulate.simulate_ensemble"],
        "simulate.path_steps": c["simulate.path_steps"],
        "simulate.ns_per_path_step": per(busy["simulate.simulate_ensemble"],
                                         c["simulate.path_steps"]),
        "simulate.coupled_s": busy["simulate.coupled_order_violations"],
        "simulate.ns_per_pair_step": per(busy["simulate.coupled_order_violations"],
                                         c["simulate.pair_steps"]),
        "simulate.extinction_freq_s": busy["simulate.extinction_frequency"],
        "simulate.truncate_s": busy["simulate.truncate_large_jumps"],
        "measures.sample_s": busy["measures.sample"],
        "measures.samples_drawn": c["measures.samples_drawn"],
        "measures.exponent_calls": c["measures.exponent_calls"],
        "functionals.mc_s": busy["functionals.mc_functional"],
        "functionals.ns_per_path_step": per(busy["functionals.mc_functional"],
                                            c["functionals.path_steps"]),
        "functionals.solve_s": busy["functionals.solve_w"] + busy["functionals.solve_functional"],
        "cumulant.solve_s": busy["cumulant.solve_backward"],
        "cumulant.solve_calls": c["cumulant.solve_calls"],
        "cumulant.solver_points": c["cumulant.solver_points"],
        "cumulant.laplace_s": busy["cumulant.laplace_transform"],
        "cumulant.semigroup_s": busy["cumulant.semigroup_check"],
        "cumulant.ladder_s": busy["cumulant.v_infinity"],
        "cumulant.ladder_rungs": c["cumulant.ladder_rungs"],
        "cumulant.ladder_inconclusive": c["cumulant.ladder_inconclusive"],
        "moments.first_moment_s": busy["moments.first_moment"],
        "environment.validate_s": busy["environment.validate"],
        "verify.self_s": verify_self,
        "verify.gates_run": sum(len(g["gates"]) for g in gates.values()),
        "verify.gates_skipped": sum(len(g["skipped"]) for g in gates.values()),
    }
    for name in SCENARIOS:
        out[f"verify.scenario_s.{name}"] = scenario_s[name]
    return out
