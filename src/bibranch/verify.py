"""Named cross-check scenarios with statistical gates and a JSON verdict.

Each scenario owns an environment, a seed, Monte Carlo sizes and a gate
configuration.  Once its lambda grid passes the one pair rule (a negative,
NaN or infinite entry raises ``ValueError``) and its environment validates,
it runs the gates its ``checks`` name, in ``GATES`` order: the flow-property
residual, ensemble mean versus the exact first moment, simulation-versus-solver
Laplace agreement, pathwise or distributional comparison, truncation
monotonicity, extinction (exact wherever the law makes it certain), and
weighted-functional identities.  A gate returns its ``CheckResult``s, plus a
``Skip`` with a reason for each check its scenario configures but that cannot
run.  The gates share one lazily built ensemble, whose time is in the
scenario's runtime and in no ``CheckResult.runtime``.  Every Monte Carlo
estimate of a scenario (that ensemble, the coupled batch, the ``x0_high``
ensemble, the coarse extinction run and the functional estimate) reads its own
substream of the scenario's seed, so no two estimates share a random number.
Statistical failure is a red verdict, never an exception; gates compare
|estimate - exact| against sigma * SE, or against an O(step) bias floor where
the sample SE is degenerate; a gate folds its cells with a NumPy reduction,
so a NaN cell fails it.
The JSON report excludes runtimes and skips, so identical seeds yield
byte-identical reports at any thread count.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .cumulant import extinction_prob, laplace_transform, solve_backward
from .densities import Density, SignedMeasure1D
from .environment import EnvSpec, JumpKernel, nonnegative_pairs, validate
from .functionals import WeightMeasure, mc_functional, solve_functional, solve_w
from .measures import Dirac, ExpProduct, StableAxis
from .moments import first_moment
from .noise import NoiseStream
from .simulate import SimOptions, coupled_order_violations, extinction_frequency, \
    simulate_ensemble, state_variance_finite, truncate_large_jumps

__all__ = ["GateConfig", "Scenario", "CheckResult", "Skip", "VerdictReport", "GATES",
           "run_scenario", "run_suite", "suite", "reports_to_json"]


@dataclass(frozen=True)
class GateConfig:
    """Tolerances for every statistical gate; thresholds live here, not in code."""

    mc_sigma: float = 3.5
    hard_sigma: float = 6.0
    cell_pass_frac: float = 0.95
    moment_sigma: float = 4.0
    extinction_sigma: float = 4.0
    semigroup_tol: float = 1e-6
    det_floor_coeff: float = 50.0   # laplace-cell bias floor: coeff * step
    moment_floor_coeff: float = 5.0  # moment bias floor: coeff * step * max(1, |M|)
    reduction_tol: float = 1e-9
    terminal_identity_tol: float = 1e-8
    trunc_levels: tuple = (1.0, 2.0, 4.0, 8.0)
    se_degenerate: float = 1e-12


@dataclass(frozen=True)
class Scenario:
    name: str
    env: EnvSpec
    x0: tuple
    t: float
    checkpoints: tuple
    lam_grid: tuple
    n_paths: int
    seed: int
    opts: SimOptions
    zeta: WeightMeasure | None = None
    x0_high: tuple | None = None  # enables the distributional comparison gate
    coupled_pairs: int = 0  # pathwise ordering pairs (diffusion-free only)
    extinction_coarse_step: float | None = None  # bias-refinement documentation
    truncation: bool = False
    checks: tuple = field(default_factory=lambda: ("validation", *GATES))
    gates: GateConfig = field(default_factory=GateConfig)


@dataclass
class CheckResult:
    name: str
    statistic: float
    threshold: float
    passed: bool
    runtime: float = 0.0


@dataclass(frozen=True)
class Skip:  # a check the scenario configures but that cannot run
    check: str
    reason: str


@dataclass
class VerdictReport:
    scenario: str
    checks: list
    passed: bool
    runtime: float = 0.0
    skipped: list = field(default_factory=list)  # Skip records, not in the JSON

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "checks": [
                {"name": c.name, "statistic": float(c.statistic),
                 "threshold": float(c.threshold), "pass": bool(c.passed)}
                for c in self.checks
            ],
            "pass": bool(self.passed),
        }


def reports_to_json(reports) -> str:
    payload = {
        "reports": [r.to_json_dict() for r in sorted(reports, key=lambda r: r.scenario)],
        "pass": all(r.passed for r in reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _ratio(diff, tol):
    """|diff| / tol, with 0 / 0 = 0 and x / 0 = inf."""
    return abs(diff) / tol if tol > 0 else math.inf if diff != 0 else 0.0


def _gate_ratio(diff, se, sigma, floor, degenerate_se):
    """|diff| over its tolerance; tolerance is sigma*SE or the bias floor."""
    return _ratio(diff, sigma * se if se > degenerate_se else floor)


@dataclass
class _Context:
    """What the gates of one scenario share; the ensemble is built on first read."""

    sc: Scenario
    noise: NoiseStream
    lam_ref: tuple
    ensemble_s: float = 0.0
    _stats: object = None

    @property
    def stats(self):  # not cached_property, which before Python 3.12 serialises threads
        if self._stats is None:
            sc, t0 = self.sc, time.perf_counter()
            self._stats = simulate_ensemble(sc.env, sc.x0, sc.t, sc.checkpoints, sc.lam_grid,
                                            sc.n_paths, sc.opts, self.noise)
            self.ensemble_s = time.perf_counter() - t0
        return self._stats


def _semigroup(sc, ctx):
    # 5x5 (r, s) grid with one outer solve and one inner solve per s
    tol, res = sc.gates.semigroup_tol, []
    outer = solve_backward(sc.env, sc.t, ctx.lam_ref)
    for s in np.linspace(0.0, sc.t, 7)[1:-1]:
        inner = solve_backward(sc.env, float(s), outer.at(float(s)))
        res += [np.abs(outer.at(float(r)) - inner.at(float(r))) for r in np.linspace(0.0, s, 5)]
    worst = float(np.max(res))
    return [CheckResult("semigroup", worst, tol, worst < tol)]


def _moment(sc, ctx):
    # a sample-SE gate on the plain mean needs finite state variance; the mean
    # identity of uncapped power tails is covered through the Laplace gates
    if not state_variance_finite(sc.env):
        return [Skip("moment", "state variance infinite (uncapped power tail)")]
    g, stats = sc.gates, ctx.stats
    curve = first_moment(sc.env, sc.x0, sc.t)
    ratios = []
    for a, cp in enumerate(stats.checkpoints):
        exact = curve.at(float(cp))
        for i in range(2):
            floor = g.moment_floor_coeff * sc.opts.step * max(1.0, abs(exact[i]))
            ratios.append(_gate_ratio(stats.mean[a, i] - exact[i], stats.se_mean[a, i],
                                      g.moment_sigma, floor, g.se_degenerate))
    worst = float(np.max(ratios))
    return [CheckResult("moment", worst, 1.0, worst <= 1.0)]


def _laplace(sc, ctx):
    if not len(sc.lam_grid):
        return []
    g, stats = sc.gates, ctx.stats
    ratios, hard = [], []
    floor = g.det_floor_coeff * sc.opts.step
    for a, cp in enumerate(stats.checkpoints):
        for l, lam in enumerate(stats.lambdas):
            exact = laplace_transform(sc.env, sc.x0, 0.0, float(cp), lam)
            diff = stats.laplace[a, l] - exact
            se = stats.laplace_se[a, l]
            ratios.append(_gate_ratio(diff, se, g.mc_sigma, floor, g.se_degenerate))
            hard.append(_gate_ratio(diff, se, g.hard_sigma, floor, g.se_degenerate))
    frac = float(np.mean([r <= 1.0 for r in ratios]))
    worst_hard = float(np.max(hard))
    return [CheckResult("laplace-cells", frac, g.cell_pass_frac, frac >= g.cell_pass_frac),
            CheckResult("laplace-hard-cap", worst_hard, 1.0, worst_hard <= 1.0)]


def _comparison(sc, ctx):
    g, out = sc.gates, []
    if sc.coupled_pairs and not all(sc.env.c[i].is_zero for i in range(2)):
        out.append(Skip("comparison-pathwise", "environment has diffusion"))
    elif sc.coupled_pairs:
        x_hi = sc.x0_high or tuple(np.asarray(sc.x0) + 1.0)
        # dropped small jumps keep the thinning coupling ordered, so any violation is a fault
        viol, _ = coupled_order_violations(sc.env, sc.x0, x_hi, sc.t, sc.coupled_pairs,
                                           replace(sc.opts, small_jump_mode="drop"), ctx.noise)
        out.append(CheckResult("comparison-pathwise", float(viol), 0.0, viol == 0))
    if sc.x0_high is not None and len(sc.lam_grid):
        stats, n_high = ctx.stats, max(sc.n_paths // 4, 2)
        high = simulate_ensemble(sc.env, sc.x0_high, sc.t, (sc.t,), sc.lam_grid, n_high,
                                 sc.opts, ctx.noise.child("x0-high"))
        z = []
        for l in range(len(stats.lambdas)):
            pooled = math.hypot(stats.laplace_se[-1, l], high.laplace_se[-1, l])
            z.append((high.laplace[-1, l] - stats.laplace[-1, l]) / max(pooled, g.se_degenerate))
        worst = float(np.max(z))
        out.append(CheckResult("comparison-distributional", worst, g.mc_sigma,
                               worst <= g.mc_sigma))
    return out


def _truncation(sc, ctx):
    if not sc.truncation:
        return []
    v_full = solve_backward(sc.env, sc.t, ctx.lam_ref).at(0.0)
    vs = [solve_backward(truncate_large_jumps(sc.env, k), sc.t, ctx.lam_ref).at(0.0)
          for k in sc.gates.trunc_levels]
    min_incr = float(np.min([b - a for a, b in zip(vs, vs[1:])]))
    d_first = float(np.linalg.norm(vs[0] - v_full))
    d_last = float(np.linalg.norm(vs[-1] - v_full))
    return [CheckResult("truncation-monotone", min_incr, 0.0, min_incr >= -1e-9),
            CheckResult("truncation-converges", d_last / d_first if d_first > 0 else 0.0,
                        1.0, d_last < d_first or d_first == 0.0)]


def _extinction(sc, ctx):
    g, freq = sc.gates, float(ctx.stats.extinction[-1])
    p_pred = extinction_prob(sc.env, sc.x0, sc.t)
    if p_pred == 1.0:  # the law makes extinction certain, so every path must die
        return [CheckResult("extinction-exact", freq, 1.0, freq == 1.0)]
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / sc.n_paths)
    floor = g.moment_floor_coeff * sc.opts.step
    ratio = _gate_ratio(freq - p_pred, se, g.extinction_sigma, floor, g.se_degenerate)
    out = [CheckResult("extinction", ratio, 1.0, ratio <= 1.0)]
    if sc.extinction_coarse_step is not None:
        pc, _ = extinction_frequency(sc.env, sc.x0, sc.t, sc.n_paths,
                                     replace(sc.opts, step=sc.extinction_coarse_step),
                                     ctx.noise.child("extinction-coarse"))
        bias_fine, bias_coarse = abs(freq - p_pred), abs(pc - p_pred)
        out.append(CheckResult("extinction-bias-monotone", _ratio(bias_fine, bias_coarse),
                               1.0, bias_fine <= bias_coarse))
    return out


def _functional(sc, ctx):
    if sc.zeta is None:
        return []
    g, theta = sc.gates, 1.3
    u0 = solve_functional(sc.env, WeightMeasure.zero(), sc.t, ctx.lam_ref).at(0.0)
    v0 = solve_backward(sc.env, sc.t, ctx.lam_ref).at(0.0)
    red = float(np.max(np.abs(u0 - v0)))
    zt = WeightMeasure((_atoms((sc.t, theta)), _zero()))
    w_term = solve_w(sc.env, zt, 0.0, sc.t)
    v_term = solve_backward(sc.env, sc.t, (theta, 0.0)).at(0.0)
    term = float(np.max(np.abs(w_term - v_term)))
    w = solve_w(sc.env, sc.zeta, 0.0, sc.t)
    pred = float(np.exp(-np.asarray(sc.x0) @ w))
    est, se = mc_functional(sc.env, sc.x0, sc.zeta, 0.0, sc.t, sc.n_paths,
                            sc.opts, ctx.noise)
    ratio = _gate_ratio(est - pred, se, g.mc_sigma, g.det_floor_coeff * sc.opts.step,
                        g.se_degenerate)
    return [CheckResult("functional-reduction", red, g.reduction_tol, red <= g.reduction_tol),
            CheckResult("functional-terminal-identity", term, g.terminal_identity_tol,
                        term <= g.terminal_identity_tol),
            CheckResult("functional-mc", ratio, 1.0, ratio <= 1.0)]


# gate name -> gate of (scenario, context), in the order the gates run
GATES = {"semigroup": _semigroup, "moment": _moment, "laplace": _laplace,
         "comparison": _comparison, "truncation": _truncation,
         "extinction": _extinction, "functional": _functional}


def run_scenario(sc: Scenario) -> VerdictReport:
    lam_grid = nonnegative_pairs(sc.lam_grid, "lam_grid")  # an inadmissible grid runs no gate
    t_start = time.perf_counter()
    report = validate(sc.env)
    checks = [CheckResult("validation", float(len(report.violations)), 0.0,
                          report.passed, time.perf_counter() - t_start)]
    if not report.passed:
        return VerdictReport(sc.name, checks, False, time.perf_counter() - t_start)
    lam_ref = tuple(lam_grid.max(axis=0)) if len(lam_grid) else (1.0, 1.0)
    ctx, skipped = _Context(sc, NoiseStream(sc.seed), lam_ref), []
    for name, gate in GATES.items():
        if name not in sc.checks:
            continue
        t0, built = time.perf_counter(), ctx.ensemble_s
        out = gate(sc, ctx)
        results = [r for r in out if isinstance(r, CheckResult)]
        skipped += [r for r in out if isinstance(r, Skip)]
        if results:  # the gate's time, less an ensemble it built, goes on its first check
            results[0].runtime = time.perf_counter() - t0 - (ctx.ensemble_s - built)
        checks += results
    return VerdictReport(sc.name, checks, all(c.passed for c in checks),
                         time.perf_counter() - t_start, skipped)


def run_suite(scenarios, threads: int | None = None):
    """Run scenarios (in parallel when threads > 1), ordered by name."""
    if threads is None or threads <= 1:
        reports = [run_scenario(s) for s in scenarios]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(run_scenario, scenarios))
    return sorted(reports, key=lambda r: r.scenario)


# -- the built-in suite -------------------------------------------------------


_const, _zero = SignedMeasure1D.const, SignedMeasure1D.zero


def _atoms(*pairs) -> SignedMeasure1D:
    return SignedMeasure1D(Density.zero(), tuple(pairs))


def _env(b11=None, b12=None, b21=None, b22=None, c1=None, c2=None,
         m1=None, m2=None, horizon=1.0) -> EnvSpec:
    return EnvSpec(
        b=((b11 or _zero(), b12 or _zero()), (b21 or _zero(), b22 or _zero())),
        c=(c1 or _zero(), c2 or _zero()),
        m=(m1 or JumpKernel.zero(), m2 or JumpKernel.zero()),
        horizon=horizon,
    )


def feller_embed_env() -> EnvSpec:
    """One-type subcritical square-root branching embedded as type 1."""
    return _env(b11=_const(1.0), c1=_const(0.5))


def stable_jump_env() -> EnvSpec:
    return _env(
        b11=_const(0.5),
        m1=JumpKernel(((Density.constant(0.5), StableAxis(0, 1.5, 0.15)),)),
    )


def dirac_cross_env() -> EnvSpec:
    return _env(
        b11=_const(0.4), b12=_const(0.1), b22=_const(0.1),
        m1=JumpKernel(((Density.constant(1.0), Dirac((0.5, 0.2), 1.0)),)),
        m2=JumpKernel(((Density.constant(0.7), ExpProduct(3.0, 2.0, 0.5)),)),
    )


def atom_rich_env() -> EnvSpec:
    return _env(
        b11=_atoms((0.3, 0.5), (0.6, 1.0)),
        b12=_atoms((0.5, 0.2)),
        b21=_const(0.1), b22=_const(0.2),
        m2=JumpKernel((), ((0.45, Dirac((0.2, 0.5), 0.3)),)),
    )


LAM_GRID_TWO = ((0.5, 0.25), (1.0, 0.5), (2.0, 1.0), (4.0, 2.0))
LAM_GRID_ONE = ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (4.0, 0.0))
CHECKPOINTS = (0.35, 0.7, 1.0)


def suite():
    """Built-in scenarios; fixed seeds make the whole run reproducible."""
    scenarios = [
        Scenario("zero-env", EnvSpec.zero(1.0), (1.0, 0.5), 1.0, CHECKPOINTS,
                 LAM_GRID_TWO, 100_000, 101, SimOptions(1e-3), coupled_pairs=1000),
        Scenario("linear-deterministic",
                 _env(b11=_const(0.8), b12=_const(0.4), b21=_const(0.2),
                      b22=_const(-0.3)),
                 (1.0, 2.0), 1.0, CHECKPOINTS, LAM_GRID_TWO, 100_000, 102, SimOptions(1e-4),
                 coupled_pairs=1000),
        Scenario("feller-embed", feller_embed_env(), (1.0, 0.0), 1.0, CHECKPOINTS,
                 LAM_GRID_ONE, 100_000, 103, SimOptions(1e-4), x0_high=(2.0, 0.0),
                 extinction_coarse_step=4e-2),
        Scenario("decoupled-two-type",
                 _env(b11=_const(0.6), c1=_const(0.3), b22=_const(-0.2),
                      c2=_const(0.2),
                      m1=JumpKernel(((Density.constant(0.5), Dirac((0.4, 0.0), 1.0)),)),
                      m2=JumpKernel(((Density.constant(0.4), Dirac((0.0, 0.3), 1.0)),))),
                 (1.0, 2.0), 1.0, CHECKPOINTS, LAM_GRID_TWO, 100_000, 104, SimOptions(1e-4),
                 x0_high=(2.0, 3.0)),
        Scenario("dirac-cross", dirac_cross_env(), (1.0, 1.0), 1.0, CHECKPOINTS,
                 LAM_GRID_TWO, 100_000, 105, SimOptions(1e-3), x0_high=(2.0, 1.5),
                 coupled_pairs=1000),
        Scenario("stable-jump", stable_jump_env(), (1.0, 0.0), 1.0, CHECKPOINTS,
                 LAM_GRID_ONE, 100_000, 106, SimOptions(1e-3, small_jump_mode="gaussian"),
                 coupled_pairs=1000, truncation=True, x0_high=(2.0, 0.0)),
        Scenario("stable-jump-capped", truncate_large_jumps(stable_jump_env(), 2.0),
                 (1.0, 0.0), 1.0, CHECKPOINTS, LAM_GRID_ONE, 100_000, 107,
                 SimOptions(1e-3, small_jump_mode="gaussian"), coupled_pairs=1000),
        Scenario("atom-rich", atom_rich_env(), (1.0, 1.0), 1.0, (0.4, 0.7, 1.0),
                 LAM_GRID_TWO, 100_000, 108, SimOptions(1e-3), coupled_pairs=1000,
                 x0_high=(2.0, 2.0)),
        Scenario("bottleneck", _env(b11=_atoms((0.5, 1.0))), (1.0, 0.0), 1.0,
                 (0.4, 1.0), LAM_GRID_ONE, 100_000, 109, SimOptions(1e-3),
                 coupled_pairs=1000),
        Scenario("functional-density", feller_embed_env(), (1.0, 0.0), 1.0,
                 (1.0,), LAM_GRID_ONE, 100_000, 110, SimOptions(1e-3),
                 zeta=WeightMeasure((_const(1.0), _zero())),
                 checks=("validation", "functional")),
        Scenario("functional-atoms", dirac_cross_env(), (1.0, 1.0), 1.0,
                 (1.0,), LAM_GRID_TWO, 100_000, 111, SimOptions(1e-3),
                 zeta=WeightMeasure((_atoms((0.4, 0.6)), _atoms((0.7, 0.5)))),
                 checks=("validation", "functional")),
        Scenario("functional-terminal-atom", feller_embed_env(), (1.0, 0.0), 1.0,
                 (1.0,), LAM_GRID_ONE, 100_000, 112, SimOptions(1e-3),
                 zeta=WeightMeasure((_atoms((1.0, 2.0)), _zero())),
                 checks=("validation", "functional")),
    ]
    return scenarios
