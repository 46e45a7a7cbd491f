"""The benchmark's workloads: their inputs, one pass of each, and its checks.

Every call goes through the public API and is looked up on its module at
call time (``bb.solve_backward``, ``run_suite`` -> ``run_scenario``), so the
wrappers :mod:`tracing` installs see it.  One caller issues one call at a
time (closed loop, ``run_suite(..., threads=1)``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import numpy as np

import bibranch as bb
from bibranch.simulate import state_variance_finite
from bibranch.verify import run_suite, suite

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
T = 1.0  # horizon of every suite environment

# workload -> (suite scenarios, path count or None for the shipped count)
MC_WORKLOADS = {
    "diffusive-narrow": (("feller-embed", "decoupled-two-type", "functional-density"), 10_000),
    "jumps-wide": (("dirac-cross", "stable-jump", "atom-rich", "functional-atoms"), None),
}
WORKLOADS = tuple(MC_WORKLOADS) + ("analytic",)

SOLVES_PER_ENV = 64
CUMULANT_TOL = 1e-6  # closed-form tolerance of acceptance criterion 1
# environments whose lambda ladder ends "slow" at the commit that added this
# benchmark; an inconclusive ladder anywhere else is a failure
LADDER_SLOW_AT_BASELINE = frozenset({"stable-jump", "stable-jump-capped"})
# gate names each scenario reported at that commit (see README.md)
with open(os.path.join(HERE, "gates_baseline.json")) as fh:
    GATES_AT_BASELINE = {k: frozenset(v) for k, v in json.load(fh).items()}

ORACLE_TIMES = (0.25, 0.5, 1.0)
ORACLE_LAMBDAS = ((0.5, 0.0), (2.0, 1.0), (8.0, 4.0))
CUMULANT_ORACLES = {"feller-embed": oracles.feller_cumulant,
                    "linear-deterministic": oracles.linear_cumulant}
V_INF_ORACLES = {"feller-embed": oracles.feller_v_infinity,
                 "stable-jump": oracles.stable_v_infinity}


class Tally:
    """Operations attempted, failures with their reasons, and notes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.inconclusive: list[str] = []

    def op(self, label: str, fn, check=None):
        """Run one operation; a raise or a non-empty ``check`` message fails it."""
        self.attempted += 1
        try:
            out = fn()
        except Exception as exc:  # every error is a counted failure, not a crash
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        why = check(out) if check is not None else None
        if why:
            self.failures.append(f"{label}: {why}")
        return out


@dataclasses.dataclass
class Inputs:
    workload: str
    scenarios: list  # MC scenarios, seeds offset by the benchmark seed
    envs: list  # (name, env, x0) for each distinct suite environment
    draws: list  # (env name, env, t, lam) of the timed solves, round-robin over envs
    semigroup: dict  # env name -> (s, t, lam)
    zetas: list  # (scenario name, env, zeta)
    trunc_levels: tuple
    lam_ref: tuple


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of n equal slices of [lo, hi), in random order.

    Stratifying keeps the spread of input sizes, and so of solve costs, the
    same from seed to seed.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def build(workload: str, seed: int) -> Inputs:
    """Deterministic inputs of ``workload`` for benchmark seed ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    shipped = suite()
    by_name = {sc.name: sc for sc in shipped}
    scenarios = []
    if workload in MC_WORKLOADS:
        names, n_paths = MC_WORKLOADS[workload]
        for name in names:
            sc = by_name[name]
            scenarios.append(dataclasses.replace(
                sc, seed=sc.seed + seed, n_paths=n_paths or sc.n_paths))

    envs, seen = [], set()
    for sc in shipped:
        key = repr(sc.env)
        if key not in seen:
            seen.add(key)
            envs.append((sc.name, sc.env, sc.x0))

    rng = np.random.default_rng(seed)
    per_env, semigroup = [], {}
    for name, env, _ in envs:
        ts, l1, l2 = (_strata(rng, SOLVES_PER_ENV, lo, hi)
                      for lo, hi in ((0.2, T), (0.0, 4.0), (0.0, 4.0)))
        per_env.append([(name, env, float(t), (float(a), float(b)))
                        for t, a, b in zip(ts, l1, l2)])
        t = float(rng.uniform(0.2, T))
        semigroup[name] = (float(t * rng.uniform(0.2, 0.8)), t,
                           tuple(map(float, rng.uniform(0.0, 4.0, 2))))
    stable = by_name["stable-jump"]
    return Inputs(
        workload=workload, scenarios=scenarios, envs=envs,
        draws=[call for calls in zip(*per_env) for call in calls], semigroup=semigroup,
        zetas=[(sc.name, sc.env, sc.zeta) for sc in shipped if sc.zeta is not None],
        trunc_levels=stable.gates.trunc_levels,
        lam_ref=tuple(np.max(np.asarray(stable.lam_grid), axis=0)),
    )


def validate_all(inp: Inputs, tally: Tally):
    for name, env in [(n, e) for n, e, _ in inp.envs] + [(s.name, s.env) for s in inp.scenarios]:
        tally.op(f"validate {name}", lambda: bb.validate(env),
                 lambda rep: None if rep.passed else str(rep))


# -- Monte Carlo workloads ----------------------------------------------------


def _configured(sc, check: str) -> bool:
    """Whether the scenario's configuration lets ``check`` run at all."""
    if check == "truncation":
        return sc.truncation
    if check == "functional":
        return sc.zeta is not None
    if check == "laplace":
        return len(sc.lam_grid) > 0
    if check == "comparison":
        diffusion_free = all(sc.env.c[i].is_zero for i in range(2))
        return bool(sc.coupled_pairs and diffusion_free) or sc.x0_high is not None
    return True


def _skip_reason(sc, check: str) -> str:
    if check == "moment" and not state_variance_finite(sc.env):
        return "state variance infinite (uncapped power tail)"
    if check == "extinction":
        return "extinction_prob raised LadderNotConverged"
    return "unexplained"


def coverage(sc, report) -> dict:
    """Requested checks against the gate names the report holds."""
    names = [c.name for c in report.checks]
    ran = {c for c in sc.checks if any(n == c or n.startswith(c + "-") for n in names)}
    applicable = {c for c in sc.checks if _configured(sc, c)}
    return {
        "gates": sorted(names),
        "skipped": {c: _skip_reason(sc, c) for c in sorted(applicable - ran)},
        "not_configured": sorted(set(sc.checks) - applicable),
    }


def _slices(calls: list, k: int) -> list:
    """``calls`` cut into k consecutive slices of nearly equal length."""
    edges = np.linspace(0, len(calls), k + 1).round().astype(int)
    return [calls[a:b] for a, b in zip(edges[:-1], edges[1:])]


def mc_pass(inp: Inputs, tally: Tally, gates: dict, latencies: list | None) -> float:
    """Run the scenarios; return their total time.

    With ``latencies``, slices of the solve probe run before, between and
    after the scenarios, outside the timed part: the host's speed drifts by
    tens of percent within seconds, so a latency sample taken in one burst
    would measure the host more than the solver.
    """
    elapsed = 0.0
    slices = _slices(inp.draws, len(inp.scenarios) + 1)
    if latencies is not None:
        solve_probe(slices[-1], tally, latencies)
    for sc, calls in zip(inp.scenarios, slices):
        def check(reports, sc=sc):
            report = reports[0]
            gates[sc.name] = cov = coverage(sc, report)
            lost = GATES_AT_BASELINE[sc.name] - set(cov["gates"])
            if lost:
                return f"gates no longer run: {sorted(lost)}"
            if not report.passed:
                red = [c.name for c in report.checks if not c.passed]
                return f"red verdict: {red}"
            return None
        t0 = time.perf_counter()
        tally.op(sc.name, lambda sc=sc: run_suite([sc], threads=1), check)
        elapsed += time.perf_counter() - t0
        if latencies is not None:
            solve_probe(calls, tally, latencies)
    return elapsed


# -- analytic workload --------------------------------------------------------


def solve_probe(calls, tally: Tally, latencies: list):
    """Seed-drawn ``solve_backward`` calls, each timed by the caller."""
    for name, env, t, lam in calls:
        oracle = CUMULANT_ORACLES.get(name)

        def call(env=env, t=t, lam=lam):
            t0 = time.perf_counter()
            v = bb.solve_backward(env, t, lam).at(0.0)
            latencies.append(time.perf_counter() - t0)
            return v

        def check(v, env=env, t=t, lam=lam):
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                return f"bad cumulant {v}"
            if oracle is not None:
                err = oracles.rel_err(v, oracle(env, t, lam))
                if err >= CUMULANT_TOL:
                    return f"closed-form error {err:.3e} at t={t}, lam={lam}"
            return None
        tally.op(f"solve_backward {name}", call, check)


def _ladder(name, tally):
    def check(out):
        limit, diag = out
        if "slow" in diag["status"]:
            tally.inconclusive.append(f"v_infinity {name}: {diag['status']}")
            if name not in LADDER_SLOW_AT_BASELINE:
                return f"ladder inconclusive: {diag['status']}"
        if np.any(limit < 0):
            return f"negative limit {limit}"
        return None
    return check


def analytic_pass(inp: Inputs, tally: Tally, latencies: list):
    for (name, env, x0), calls in zip(inp.envs, _slices(inp.draws, len(inp.envs))):
        solve_probe(calls, tally, latencies)
        s, t, lam = inp.semigroup[name]
        tally.op(f"semigroup_check {name}",
                 lambda: bb.semigroup_check(env, 0.0, s, t, lam),
                 lambda res: None if float(np.max(res)) < 1e-6
                 else f"flow residual {float(np.max(res)):.3e}")
        tally.op(f"first_moment {name}",
                 lambda: (bb.first_moment(env, x0, T).at(T), bb.moment_bound(env, x0, T)),
                 lambda mb: None if np.all(mb[0] <= mb[1] * (1 + 1e-9) + 1e-12)
                 else f"mean {mb[0]} above envelope {mb[1]}")
        tally.op(f"v_infinity {name}", lambda: bb.v_infinity(env, T), _ladder(name, tally))

        def extinction(env=env, x0=x0, name=name):
            try:
                return bb.extinction_prob(env, x0, T)
            except bb.LadderNotConverged as exc:
                tally.inconclusive.append(f"extinction_prob {name}: {exc}")
                if name in LADDER_SLOW_AT_BASELINE:
                    return None
                raise
        tally.op(f"extinction_prob {name}", extinction,
                 lambda p: None if p is None or 0.0 <= p <= 1.0 else f"probability {p}")

    stable = next(env for name, env, _ in inp.envs if name == "stable-jump")

    def truncation():
        return [bb.solve_backward(bb.truncate_large_jumps(stable, k), T, inp.lam_ref).at(0.0)
                for k in inp.trunc_levels]
    tally.op("truncate_large_jumps stable-jump", truncation,
             lambda vs: None if all(np.all(b - a >= -1e-9) for a, b in zip(vs, vs[1:]))
             else f"not monotone in the cap: {vs}")

    for name, env, zeta in inp.zetas:
        tally.op(f"solve_w {name}", lambda: bb.solve_w(env, zeta, 0.0, T),
                 lambda w: None if np.all(np.isfinite(w)) and np.all(w >= 0) else f"w={w}")
        # a nonnegative weight can only raise the exponent: u >= v componentwise
        tally.op(f"solve_functional {name}",
                 lambda: (bb.solve_functional(env, zeta, T, inp.lam_ref).at(0.0),
                          bb.solve_backward(env, T, inp.lam_ref).at(0.0)),
                 lambda uv: None if np.all(uv[0] >= uv[1] - 1e-9) else f"u {uv[0]} < v {uv[1]}")


def run_pass(inp: Inputs, tally: Tally, gates: dict, latencies: list | None = None) -> float:
    """One pass of the workload; returns its timed part in seconds.

    ``latencies`` collects the per-call solve latencies; without it the MC
    workloads skip the probe.
    """
    if inp.workload in MC_WORKLOADS:
        return mc_pass(inp, tally, gates, latencies)
    t0 = time.perf_counter()
    analytic_pass(inp, tally, [] if latencies is None else latencies)
    return time.perf_counter() - t0


# -- closed-form oracles --------------------------------------------------------


def oracle_check(inp: Inputs, tally: Tally) -> dict:
    """Solver against the closed forms on a fixed grid (seed-independent)."""
    envs = {name: env for name, env, _ in inp.envs}
    cum = {}
    for name, exact in CUMULANT_ORACLES.items():
        env = envs[name]
        for t in ORACLE_TIMES:
            for lam in ORACLE_LAMBDAS:
                def check(v, env=env, t=t, lam=lam, name=name, exact=exact):
                    cum[f"{name} t={t} lam={lam}"] = err = oracles.rel_err(v, exact(env, t, lam))
                    return None if err < CUMULANT_TOL else f"closed-form error {err:.3e}"
                tally.op(f"oracle solve_backward {name}",
                         lambda env=env, t=t, lam=lam: bb.solve_backward(env, t, lam).at(0.0),
                         check)
    vinf = {}
    for name, exact in V_INF_ORACLES.items():
        env = envs[name]
        out = tally.op(f"oracle v_infinity {name}", lambda env=env: bb.v_infinity(env, T))
        if out is not None:
            got, want = float(out[0][0]), exact(env, T)
            vinf[name] = {"got": got, "closed_form": want, "rel_err": abs(got - want) / want,
                          "status": out[1]["status"]}
    return {
        "cumulant_rel_err": max(cum.values(), default=math.inf),
        "v_inf_rel_err": max((v["rel_err"] for v in vinf.values()), default=math.inf),
        "v_infinity": vinf,
    }
