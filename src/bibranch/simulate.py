"""Vectorized Monte Carlo engine for the two-type stochastic equation system.

One Euler step over (s, s+h] with no atoms, for each type i with j the other
type, using the uncompensated-cross form of the driving equations:

    X_i +=  [X_j b'_ji(s) - X_i b'_ii(s)] h                  drift (raw cross)
          + N(0, 2 c'_i(s) X_i h)                            white-noise part
          + sum of jump draws adding the full vector z       both kernels
          - X_i h * (own-kernel first-moment rate)           own compensator
          (cross-kernel jumps stay uncompensated; their compensator is the
           difference between bar_b and b, so this equals the compensated
           form with the augmented drift)

Finite-activity components give path i Poisson(X_p,i * rate * mass * h)
events with marks from the normalized spatial measure, drawn by superposition:
one Poisson total per channel and step, each event assigned to a path in
proportion to its rate, so the per-path counts are exactly independent.
Power-tail components are split at a threshold eps: exact thinning above, and
below either the compensated remainder is dropped or replaced by a
variance-matched Gaussian.  At atom times the branching update is exact,
read from the atom's ``AtomInfo`` (its strengths delta_i, the raw cross
masses db_ji and the jump atoms), the same data as the cumulant's and the
mean's jump maps:

    X_i(s) = X_i(s-) (1 - delta_i(s)) + X_j(s-) db_ji(s) + Poisson sums,

where path i draws Poisson(X_p,i(s-) * mass) marks of each jump atom of m_p.

States are clamped at zero after every step; extinction is exact membership
of the origin.

Coupled pairs take the same step on one (2h, 2) state, low copies in rows
[0, h) and high copies in rows [h, 2h); only the noise-and-mark source
differs.  Both copies read one Brownian sheet over (time, level) and one
Poisson random measure of marks (s, z, u), and each keeps what lies below
its own level (Dawson & Li 2012): events fall at rate r * max(x_low, x_high)
and a copy keeps a mark iff u < its X_p(s-), which is exact thinning; the
sheet over [0, x] is a normal at the lower level, shared, plus an
independent normal over the gap for the higher copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .densities import Density, SignedMeasure1D
from .environment import AtomInfo, EnvSpec, JumpKernel, atom_info, validate
from .noise import NoiseStream

__all__ = [
    "SimOptions",
    "SimulationError",
    "Trajectory",
    "EnsembleStats",
    "simulate_path",
    "simulate_atom",
    "simulate_ensemble",
    "coupled_pair",
    "coupled_order_violations",
    "truncate_large_jumps",
    "extinction_frequency",
    "state_variance_finite",
]


class SimulationError(RuntimeError):
    pass


def state_variance_finite(env: EnvSpec) -> bool:
    """Whether every jump component has a finite second moment.

    Uncapped power tails give the state infinite variance, which breaks
    sample-SE yardsticks for plain means (the Laplace side is unaffected).
    """
    for kern in env.m:
        for _, meas in kern.density_components:
            if meas.infinite_activity and getattr(meas, "cap", None) is None:
                return False
    return True


@dataclass(frozen=True)
class SimOptions:
    """Discretization controls for the path engine."""

    step: float = 1e-3
    small_jump_eps: float = 1e-2
    small_jump_mode: str = "drop"  # or "gaussian"
    jump_count_guard: float = 1e6  # expected events per path per step

    def __post_init__(self):
        if self.step <= 0 or self.small_jump_eps <= 0:
            raise ValueError("step and small_jump_eps must be positive")
        if self.small_jump_mode not in ("drop", "gaussian"):
            raise ValueError("small_jump_mode must be 'drop' or 'gaussian'")


@dataclass
class Trajectory:
    """One simulated path on its time mesh (post-jump values at atoms)."""

    times: np.ndarray
    states: np.ndarray  # (k, 2)
    is_atom: np.ndarray  # (k,) bool
    left_states: np.ndarray  # (k, 2); equals states except at atoms
    absorbed_at: float | None

    def state_at(self, t: float) -> np.ndarray:
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.states[max(k, 0)]


@dataclass
class EnsembleStats:
    """Monte Carlo aggregates at the requested checkpoints."""

    checkpoints: np.ndarray
    n_paths: int
    mean: np.ndarray  # (k, 2)
    var: np.ndarray  # (k, 2)
    se_mean: np.ndarray  # (k, 2)
    lambdas: np.ndarray  # (L, 2)
    laplace: np.ndarray  # (k, L)
    laplace_se: np.ndarray  # (k, L)
    extinction: np.ndarray  # (k,)


# -- step plan -------------------------------------------------------------


@dataclass
class _Channel:
    p: int  # driving kernel / thinning coordinate
    rates_dt: np.ndarray  # per-interval events per unit mass of X_p
    sample: object  # callable (rng, n) -> (n, 2) normalized draws


class _StepPlan:
    def __init__(self, env: EnvSpec, t0: float, t: float, opts: SimOptions,
                 checkpoints=(), zeta=None):
        self.opts = opts
        required = env.hard_points(t0, t, zeta, extra=checkpoints)
        mesh = [np.array([t0])]
        for a, b in zip(required[:-1], required[1:]):
            k = max(1, int(math.ceil((b - a) / opts.step - 1e-12)))
            mesh.append(np.linspace(a, b, k + 1)[1:])
        self.mesh = np.concatenate(mesh)
        left = self.mesh[:-1]
        self.dts = np.diff(self.mesh)

        b_diag = (env.b[0][0].density(left), env.b[1][1].density(left))
        b_feed = (env.b[1][0].density(left), env.b[0][1].density(left))
        c = (env.c[0].density(left), env.c[1].density(left))
        self.has_diffusion = (bool(np.any(c[0] > 0)), bool(np.any(c[1] > 0)))

        comp = [np.zeros_like(left), np.zeros_like(left)]
        gvar = [np.zeros_like(left), np.zeros_like(left)]
        self.channels: list[_Channel] = []
        for p in range(2):
            for rate, meas in env.m[p].density_components:
                rate_vals = np.asarray(rate(left), dtype=float) + np.zeros_like(left)
                if meas.infinite_activity:
                    eps = opts.small_jump_eps
                    cap = getattr(meas, "cap", None)
                    if cap is not None:
                        eps = min(eps, 0.5 * cap)
                    self.channels.append(_Channel(
                        p, rate_vals * meas.tail_mass(eps) * self.dts,
                        (lambda m, e: (lambda rng, n: m.tail_sample(rng, n, e)))(meas, eps),
                    ))
                    comp[p] += rate_vals * meas.tail_mean(eps)
                    if opts.small_jump_mode == "gaussian":
                        gvar[p] += rate_vals * meas.small_var(eps)
                else:
                    self.channels.append(_Channel(
                        p, rate_vals * meas.mass() * self.dts,
                        (lambda m: (lambda rng, n: m.sample(rng, n)))(meas),
                    ))
                    comp[p] += rate_vals * meas.mean(p)

        # fused per-interval coefficients for the euler step
        self.lin_keep = tuple(1.0 - (b_diag[i] + comp[i]) * self.dts for i in range(2))
        self.lin_feed = tuple(b_feed[i] * self.dts for i in range(2))
        self.diff_coef = tuple(2.0 * c[i] * self.dts for i in range(2))
        self.gvar_dt = tuple(gvar[i] * self.dts for i in range(2))

        atom_times = set(env.atom_times(t0, t))
        self.atom_at = {k: atom_info(env, s) for k, s in enumerate(self.mesh) if s in atom_times}

        self.index_of = {float(s): k for k, s in enumerate(self.mesh)}
        self.zeta = zeta
        if zeta is not None:
            self.zeta_density = np.column_stack([
                np.asarray(zeta.per_type[0].density(self.mesh), dtype=float) + np.zeros(len(self.mesh)),
                np.asarray(zeta.per_type[1].density(self.mesh), dtype=float) + np.zeros(len(self.mesh)),
            ])
            self.zeta_atom = {
                k: zeta.atom_vector(s)
                for k, s in enumerate(self.mesh)
                if np.any(zeta.atom_vector(s) != 0)
            }


def _event_paths(rng, r: float, x: np.ndarray, guard: float = math.inf) -> np.ndarray:
    """Path index of every event when path i has Poisson(r * x[i]) events.

    Superposition: one Poisson(r * sum(x)) total, each event assigned to path
    i with probability x[i] / sum(x), so the per-path counts are exactly
    independent Poisson.  Raises SimulationError when some r * x[i] exceeds
    guard.
    """
    cum = np.cumsum(x)
    mass = cum[-1] if cum.size else 0.0
    # x >= 0 makes cum[-1] >= max(x) after rounding, so the sum screens the max
    if mass * r > guard and x.max() * r > guard:
        raise SimulationError(
            "step-overflow: expected jump count per step exceeds guard; reduce step"
        )
    if mass == 0.0:
        return np.empty(0, dtype=np.intp)
    # sorted keys make the lookups walk cum in order; marks are iid, so the
    # order in which events are listed does not change the law
    u = np.sort(rng.random(rng.poisson(r * mass))) * mass
    idx = np.searchsorted(cum, u, side="right")
    # U * mass rounds up to a subnormal mass: keep it on the last positive path
    return np.minimum(idx, np.searchsorted(cum, mass, side="left"), out=idx)


def _add_marks(idx, Z, out0, out1):
    out0 += np.bincount(idx, weights=Z[:, 0], minlength=out0.size)
    out1 += np.bincount(idx, weights=Z[:, 1], minlength=out1.size)


def _noise_term(coef: float, x, rng):
    g = x * coef
    np.sqrt(g, out=g)
    g *= rng.standard_normal(g.size)
    return g


# -- noise and mark sources ---------------------------------------------------


class _Independent:
    """Every row is its own path, with private normals and Poisson events."""

    @staticmethod
    def noise(coef: float, x, rng):
        return _noise_term(coef, x, rng)

    @staticmethod
    def jumps(rng, r: float, x, sample, guard: float, out0, out1):
        idx = _event_paths(rng, r, x, guard)
        if idx.size:
            _add_marks(idx, sample(rng, idx.size), out0, out1)


class _Coupled:
    """Rows [0, h) and [h, 2h) are the low and high copies of h pairs that
    share one Brownian sheet and one random measure of marks (module docstring)."""

    def __init__(self, h: int):
        self.h = h

    def noise(self, coef: float, x, rng):
        a, b = x[:self.h], x[self.h:]
        gap = a - b
        g = _noise_term(coef, np.minimum(a, b), rng)
        e = _noise_term(coef, np.abs(gap), rng)
        return np.concatenate([g + e * (gap > 0), g + e * (gap < 0)])

    def jumps(self, rng, r: float, x, sample, guard: float, out0, out1):
        h = self.h
        top = np.maximum(x[:h], x[h:])
        idx = _event_paths(rng, r, top, guard)
        if idx.size:
            # U * top < top for U < 1, and a zero copy never keeps a mark
            u = rng.random(idx.size) * top[idx]
            Z = sample(rng, idx.size)
            for rows in (slice(0, h), slice(h, 2 * h)):
                keep = u < x[rows][idx]
                _add_marks(idx[keep], Z[keep], out0[rows], out1[rows])


_INDEPENDENT = _Independent()


def _euler_step(plan: _StepPlan, k: int, X: np.ndarray, rng, src) -> np.ndarray:
    x0, x1 = X[:, 0], X[:, 1]
    new0 = x0 * plan.lin_keep[0][k]
    new0 += x1 * plan.lin_feed[0][k]
    new1 = x1 * plan.lin_keep[1][k]
    new1 += x0 * plan.lin_feed[1][k]
    if plan.has_diffusion[0]:
        new0 += src.noise(plan.diff_coef[0][k], x0, rng)
    if plan.has_diffusion[1]:
        new1 += src.noise(plan.diff_coef[1][k], x1, rng)
    if plan.gvar_dt[0][k] > 0:
        new0 += src.noise(plan.gvar_dt[0][k], x0, rng)
    if plan.gvar_dt[1][k] > 0:
        new1 += src.noise(plan.gvar_dt[1][k], x1, rng)
    for ch in plan.channels:
        r = ch.rates_dt[k]
        if r != 0.0:
            src.jumps(rng, r, X[:, ch.p], ch.sample, plan.opts.jump_count_guard, new0, new1)
    np.maximum(new0, 0.0, out=new0)
    np.maximum(new1, 0.0, out=new1)
    return np.column_stack([new0, new1])


def _atom_apply(atom: AtomInfo, X: np.ndarray, rng, src=_INDEPENDENT) -> np.ndarray:
    new0 = X[:, 0] * (1.0 - atom.delta[0]) + X[:, 1] * atom.db[1][0]
    new1 = X[:, 1] * (1.0 - atom.delta[1]) + X[:, 0] * atom.db[0][1]
    for p in range(2):
        for meas in atom.jumps[p]:
            src.jumps(rng, meas.mass(), X[:, p], meas.sample, math.inf, new0, new1)
    np.maximum(new0, 0.0, out=new0)
    np.maximum(new1, 0.0, out=new1)
    return np.column_stack([new0, new1])


def _tile(x0, n: int) -> np.ndarray:
    return np.tile(np.asarray(x0, dtype=float), (n, 1))


def _run(plan: _StepPlan, X: np.ndarray, rng, collectors=(), src=_INDEPENDENT):
    if np.any(X < 0):
        raise ValueError("x0 must be componentwise nonnegative")
    for c in collectors:
        c.begin(plan, X)
    for k in range(len(plan.mesh) - 1):
        X_prev = X
        X_pre = _euler_step(plan, k, X_prev, rng, src)
        atom = plan.atom_at.get(k + 1)
        X = _atom_apply(atom, X_pre, rng, src) if atom is not None else X_pre
        for c in collectors:
            c.after_step(k + 1, X_prev, X_pre, X, plan.dts[k])
    return X


# -- collectors -------------------------------------------------------------


class _TrajectoryCollector:
    """Records every row of the state, one trajectory per row."""

    def begin(self, plan, X):
        self.plan = plan
        self.states = np.empty((X.shape[0], len(plan.mesh), 2))
        self.left = np.empty_like(self.states)
        self.states[:, 0] = X
        self.left[:, 0] = X

    def after_step(self, k, X_prev, X_pre, X_post, dt):
        self.states[:, k] = X_post
        self.left[:, k] = X_pre

    def trajectories(self) -> list[Trajectory]:
        mesh = self.plan.mesh
        is_atom = np.zeros(len(mesh), dtype=bool)
        for k in self.plan.atom_at:
            is_atom[k] = True
        out = []
        for states, left in zip(self.states, self.left):
            dead = np.flatnonzero((states == 0.0).all(axis=1))
            absorbed = float(mesh[dead[0]]) if dead.size else None
            out.append(Trajectory(mesh.copy(), states, is_atom, left, absorbed))
        return out


class _SnapshotCollector:
    def __init__(self, times):
        self.times = [float(t) for t in times]

    def begin(self, plan, X):
        self.idx = {plan.index_of[t]: t for t in self.times}
        self.snaps = {}
        if 0 in self.idx:
            self.snaps[self.idx[0]] = X.copy()

    def after_step(self, k, X_prev, X_pre, X_post, dt):
        if k in self.idx:
            self.snaps[self.idx[k]] = X_post.copy()


class _FunctionalCollector:
    """Pathwise accumulator of the closed-interval integral of X against zeta."""

    def begin(self, plan, X):
        self.plan = plan
        self.A = np.zeros(X.shape[0])
        start_atom = plan.zeta_atom.get(0) if plan.zeta is not None else None
        if start_atom is not None:
            self.A += X @ start_atom

    def after_step(self, k, X_prev, X_pre, X_post, dt):
        plan = self.plan
        zd = plan.zeta_density
        left = X_prev @ zd[k - 1]
        right = X_pre @ zd[k]
        self.A += 0.5 * dt * (left + right)
        atom = plan.zeta_atom.get(k)
        if atom is not None:
            self.A += X_post @ atom


class _OrderCollector:
    """Counts mesh points where a low copy exceeds its high copy anywhere."""

    def __init__(self, h: int):
        self.h = h
        self.violations = 0
        self.checks = 0

    def begin(self, plan, X):
        pass

    def after_step(self, k, X_prev, X_pre, X_post, dt):
        low, high = X_post[:self.h], X_post[self.h:]
        self.violations += int(np.count_nonzero((low > high).any(axis=1)))
        self.checks += self.h


# -- public operations -------------------------------------------------------


def simulate_path(env: EnvSpec, x0, t: float, opts: SimOptions, noise: NoiseStream,
                  path_id: int = 0, t0: float = 0.0) -> Trajectory:
    """Simulate one path on [t0, t], bit-reproducible in (seed, path_id)."""
    rng = noise.substream("path", path_id)
    coll = _TrajectoryCollector()
    _run(_StepPlan(env, t0, t, opts), _tile(x0, 1), rng, (coll,))
    return coll.trajectories()[0]


def simulate_atom(env: EnvSpec, s: float, x_left, noise) -> np.ndarray:
    """Draw the exact branching update across the atom at time s."""
    rng = noise.substream("atom") if isinstance(noise, NoiseStream) else noise
    x = np.atleast_2d(np.asarray(x_left, dtype=float))
    if np.any(x < 0):
        raise ValueError("x_left must be componentwise nonnegative")
    info = atom_info(env, s)
    out = x.copy() if info is None else _atom_apply(info, x, rng)
    return out[0] if np.ndim(x_left) == 1 else out


def simulate_ensemble(env: EnvSpec, x0, t: float, checkpoints, lam_grid, n_paths: int,
                      opts: SimOptions, noise: NoiseStream, t0: float = 0.0) -> EnsembleStats:
    """Independent paths, deterministic aggregates with standard errors."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths for standard errors")
    checkpoints = sorted(set(float(c) for c in checkpoints) | {float(t)})
    outside = [c for c in checkpoints if not t0 <= c <= t]
    if outside:
        raise ValueError(f"checkpoint {outside[0]} outside [{t0}, {t}]")
    lambdas = np.asarray(lam_grid, dtype=float).reshape(-1, 2) if len(lam_grid) else np.empty((0, 2))
    rng = noise.substream("ensemble")
    plan = _StepPlan(env, t0, t, opts, checkpoints=checkpoints)
    snap = _SnapshotCollector(checkpoints)
    _run(plan, _tile(x0, n_paths), rng, (snap,))

    k = len(checkpoints)
    mean = np.empty((k, 2))
    var = np.empty((k, 2))
    lap = np.empty((k, len(lambdas)))
    lap_se = np.empty((k, len(lambdas)))
    extinct = np.empty(k)
    rt = math.sqrt(n_paths)
    for a, cp in enumerate(checkpoints):
        X = snap.snaps[cp]
        mean[a] = X.mean(axis=0)
        var[a] = X.var(axis=0, ddof=1)
        extinct[a] = float(np.count_nonzero((X == 0.0).all(axis=1))) / n_paths
        if len(lambdas):
            W = np.exp(-X @ lambdas.T)
            lap[a] = W.mean(axis=0)
            lap_se[a] = W.std(axis=0, ddof=1) / rt
    return EnsembleStats(
        checkpoints=np.asarray(checkpoints),
        n_paths=n_paths,
        mean=mean,
        var=var,
        se_mean=np.sqrt(var) / rt,
        lambdas=lambdas,
        laplace=lap,
        laplace_se=lap_se,
        extinction=extinct,
    )


def extinction_frequency(env: EnvSpec, x0, t: float, n_paths: int, opts: SimOptions,
                         noise: NoiseStream):
    """Fraction of paths exactly at the origin at time t, with its SE."""
    stats = simulate_ensemble(env, x0, t, (t,), (), n_paths, opts, noise)
    p = float(stats.extinction[-1])
    se = math.sqrt(p * (1.0 - p) / n_paths)
    return p, se


# -- coupled simulation -------------------------------------------------------


def _pair_start(x0_low, x0_high, h: int) -> np.ndarray:
    x_low = np.asarray(x0_low, dtype=float)
    x_high = np.asarray(x0_high, dtype=float)
    if np.any(x_low > x_high):
        raise ValueError("need x0_low <= x0_high componentwise")
    return np.vstack([_tile(x_low, h), _tile(x_high, h)])


def coupled_pair(env: EnvSpec, x0_low, x0_high, t: float, opts: SimOptions,
                 noise: NoiseStream, pair_id: int = 0):
    """Two coupled paths from ordered starts, bit-reproducible in (seed, pair_id).

    Each copy is a path of the process.  Both read one Brownian sheet and one
    Poisson random measure of marks (s, z, u), and each keeps what lies below
    its own level: jump marks with u < X_p(s-), and the sheet over [0, X_i]
    for the diffusion and, in ``gaussian`` mode, the small-jump term.
    Without diffusion or Gaussian small jumps the initial order is kept
    exactly; otherwise the Euler step can cross the copies on a small
    fraction of steps, shrinking with the step.  Equal starts give identical
    paths.
    """
    rng = noise.substream("coupled", pair_id)
    coll = _TrajectoryCollector()
    _run(_StepPlan(env, 0.0, t, opts), _pair_start(x0_low, x0_high, 1), rng, (coll,),
         _Coupled(1))
    return tuple(coll.trajectories())


def coupled_order_violations(env: EnvSpec, x0_low, x0_high, t: float, n_pairs: int,
                             opts: SimOptions, noise: NoiseStream):
    """Coupled pairs, as in :func:`coupled_pair`, for diffusion-free environments.

    Returns (violations, checks): the number of (pair, mesh point) events
    where the low path exceeds the high path in any coordinate, and the
    number of comparisons made.  Power-tail small jumps are always dropped
    (``small_jump_mode="drop"``), whatever ``opts`` says, so the thinning
    coupling keeps the order exactly and the count is zero.
    """
    if any(not env.c[i].is_zero for i in range(2)):
        raise ValueError("pathwise coupling check requires a diffusion-free environment")
    rng = noise.substream("coupled-batch")
    plan = _StepPlan(env, 0.0, t, replace(opts, small_jump_mode="drop"))
    order = _OrderCollector(n_pairs)
    _run(plan, _pair_start(x0_low, x0_high, n_pairs), rng, (order,), _Coupled(n_pairs))
    return order.violations, order.checks


# -- truncation ---------------------------------------------------------------


def truncate_large_jumps(env: EnvSpec, k: float) -> EnvSpec:
    """Environment with jump sizes capped at k and the matching killing drift.

    Every spatial component is pushed forward under componentwise min with k
    and, per kernel m_i, the large-jump excess integral of the own coordinate
    is added to the diagonal drift b_ii (density and atoms).  The cross-side
    excess is absorbed automatically because the augmented cross drift is
    recomputed from the truncated kernel.
    """
    if k <= 0:
        raise ValueError("truncation level must be positive")
    new_b = [list(row) for row in env.b]
    new_m = []
    for i in range(2):
        kern = env.m[i]
        comps = tuple((rate, meas.truncated(k)) for rate, meas in kern.density_components)
        atoms = tuple((t, meas.truncated(k)) for t, meas in kern.atoms)
        new_m.append(JumpKernel(comps, atoms))
        kill_density = Density.zero()
        for rate, meas in kern.density_components:
            ex = meas.excess(i, k)
            if ex != 0.0:
                kill_density = kill_density + rate.scaled(ex)
        kill_atoms = tuple(
            (t, meas.excess(i, k)) for t, meas in kern.atoms if meas.excess(i, k) != 0.0
        )
        if not kill_density.is_zero or kill_atoms:
            new_b[i][i] = env.b[i][i] + SignedMeasure1D(kill_density, kill_atoms)
    out = EnvSpec(
        b=(tuple(new_b[0]), tuple(new_b[1])),
        c=env.c,
        m=tuple(new_m),
        horizon=env.horizon,
    )
    report = validate(out)
    if not report.passed:
        raise SimulationError(f"truncated environment failed validation:\n{report}")
    return out
