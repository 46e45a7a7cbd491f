"""Vectorized Monte Carlo engine for the two-type stochastic equation system.

One Euler step over (s, s+h] with no atoms, for each type i with j the other
type, using the uncompensated-cross form of the driving equations:

    X_i +=  [X_j b'_ji(s) - X_i b'_ii(s)] h                  drift (raw cross)
          + N(0, (2 c'_i(s) + s2_i(s)) X_i h)                Gaussian part
          + sum of jump draws adding the full vector z       both kernels
          - X_i h * (own-kernel first-moment rate)           own compensator
          (cross-kernel jumps stay uncompensated; their compensator is the
           difference between bar_b and b, so this equals the compensated
           form with the augmented drift)

Finite-activity components give path i Poisson(X_p,i * rate * mass * h)
events with marks from the normalized spatial measure, drawn by superposition:
one Poisson total per channel and step, each event assigned to a path in
proportion to its rate, so the per-path counts are exactly independent.  The
total's mass is one sum of the state, and a search is built only once an
event falls.  With few events among many paths, the paths are cut into
contiguous blocks, and an event is placed by finding its block among the
blocks' cumulative sums and then its path among the prefix sums of that block
only, at O(n / block + events * block); otherwise it is placed by one cumsum
of all paths.  A step without events draws nothing after its total and builds
no search.
Power-tail components are split at a threshold eps: exact thinning above, and
below either the compensated remainder is dropped or replaced by a
variance-matched Gaussian, s2_i(s) X_i h per step; it and the white noise are
independent conditional Gaussians, drawn as one normal.  At atom times the
branching update is exact, read from the atom's ``AtomInfo`` (its strengths
delta_i, the raw cross masses db_ji and the jump atoms), the same data as the
cumulant's and the mean's jump maps:

    X_i(s) = X_i(s-) (1 - delta_i(s)) + X_j(s-) db_ji(s) + Poisson sums,

where path i draws Poisson(X_p,i(s-) * mass) marks of each jump atom of m_p.

States are clamped at zero after every step, in the columns that noise or a
negative coefficient can take below zero (a start of -0.0 enters as +0.0);
extinction is exact membership of the origin.

The state of n paths is one column-major (n, 2) array, so each type's column
is contiguous.  A run owns three such buffers and two length-n scratch
vectors (products and normals) and rotates through them: a step writes its
result into a buffer other than the one holding its input, an atom update
into the third, and the caller's start array is only read.  Drift, noise and
clamp of independent paths thus allocate nothing of length n; a jump channel
does only on a step whose events it places by a cumsum of all paths, and so
does the coupled source when it joins its two sheet normals (drawn into the
scratch) per copy.  Terms that are zero on the whole mesh (a cross feed) or
on a whole interval (a weight density) are dropped when the plan is compiled.
Adding an exact zero can only turn -0.0 into +0.0, and no state holds -0.0
(a clamped column is clamped, and the others add nonnegative terms to a
start of +0.0 or more), so every output byte stays as it was.

Without a Gaussian term or a negative coefficient, a path between its marks
and atoms follows only the linear drift: one step maps every row by the same
2x2 matrix M_k, X_{k+1} = X_k M_k + marks.  The flow form of a run keeps
Y = X F^{-1} with F = M_0 ... M_{k-1}, advances F as four floats per step,
and adds a mark Z to its row of Y as Z F^{-1}; the block sums of Y, refreshed
where marks land, give each column's mass and the event search, so a step
costs O(1) without events and O(blocks + events * block) with them, instead
of O(n).  The state max(Y F, 0) is formed only at atoms (which restart the
flow from their update), at the points the collectors read, and where F has
grown too skewed for Y F to round well.  Independent ensembles and
functionals without a weight density take it when every M_k has a positive
determinant; it draws the same random numbers as the eager step, and its
states differ from the eager step's by rounding.  Trajectories, coupled
pairs and weight densities, which read every row at every step, keep the
eager step.

Coupled pairs take the same step on one column-major (2h, 2) state, low
copies in rows [0, h) and high copies in rows [h, 2h); only the
noise-and-mark source differs.  Both copies read one Brownian sheet over
(time, level) and one Poisson random measure of marks (s, z, u), and each
keeps what lies below its own level (Dawson & Li 2012): events fall at rate
r * max(x_low, x_high) and a copy keeps a mark iff u < its X_p(s-), which is
exact thinning; the sheet over [0, x] is a normal at the lower level, shared,
plus an independent normal over the gap for the higher copy.  The gap
X_high - X_low is then itself a branching process, absorbed at 0; the Euler
step can overshoot it below 0, so in every column that the state clamp
covers, the step ends by raising the high copy to the low one (the gap
clamp), and the copies stay ordered and coalesce where the gap dies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .densities import Density, SignedMeasure1D
from .environment import (AtomInfo, EnvSpec, JumpKernel, atom_info, nonnegative_pair,
                          nonnegative_pairs, validate)
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

    def __post_init__(self):
        for key in ("step", "small_jump_eps"):
            val = getattr(self, key)
            if not 0.0 < val < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {val!r}")
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


# the largest mesh a plan builds: its per-interval arrays (about a dozen float
# vectors) and its mesh-point index take about 250 MB at this size
_MAX_MESH_STEPS = 10 ** 6
# a step or an atom whose expected jump count on some path exceeds this is a
# step-overflow
_JUMP_COUNT_GUARD = 1e6


class _StepPlan:
    def __init__(self, env: EnvSpec, t0: float, t: float, opts: SimOptions,
                 checkpoints=(), zeta=None):
        env.check_window(t0, t)
        # a weight measure zeta only adds mesh points: its atoms and breakpoints
        required = env.hard_points(t0, t, zeta, extra=checkpoints)
        spans = list(zip(required[:-1], required[1:]))
        # clipped in floating point first, so that no step size can overflow the count
        counts = [max(1, math.ceil(min((b - a) / opts.step - 1e-12, _MAX_MESH_STEPS + 1.0)))
                  for a, b in spans]
        if sum(counts) > _MAX_MESH_STEPS:
            raise ValueError(f"step {opts.step:g} on [{t0:g}, {t:g}] needs more than "
                             f"{_MAX_MESH_STEPS} mesh steps")
        mesh = [np.array([t0])]
        for (a, b), k in zip(spans, counts):
            mesh.append(np.linspace(a, b, k + 1)[1:])
        self.mesh = np.concatenate(mesh)
        left = self.mesh[:-1]
        self.dts = np.diff(self.mesh)

        b_diag = (env.b[0][0].density(left), env.b[1][1].density(left))
        b_feed = (env.b[1][0].density(left), env.b[0][1].density(left))
        c = (env.c[0].density(left), env.c[1].density(left))

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
                        functools.partial(meas.tail_sample, eps=eps),
                    ))
                    comp[p] += rate_vals * meas.tail_mean(eps)
                    if opts.small_jump_mode == "gaussian":
                        gvar[p] += rate_vals * meas.small_var(eps)
                else:
                    self.channels.append(_Channel(p, rate_vals * meas.mass() * self.dts,
                                                  meas.sample))
                    comp[p] += rate_vals * meas.mean(p)

        # fused per-interval coefficients for the euler step
        self.lin_keep = tuple(1.0 - (b_diag[i] + comp[i]) * self.dts for i in range(2))
        self.lin_feed = tuple(b_feed[i] * self.dts for i in range(2))
        self.has_feed = tuple(bool(np.any(f != 0.0)) for f in self.lin_feed)
        # each type's one Gaussian term, white noise plus Gaussian small jumps
        self.var_dt = tuple((2.0 * c[i] + gvar[i]) * self.dts for i in range(2))
        self.noisy = tuple(bool(np.any(v > 0)) for v in self.var_dt)
        # without noise or a negative coefficient a column is a sum of nonnegative
        # terms (marks are nonnegative), so only the other columns need the clamp
        self.clamp = tuple(self.noisy[i] or bool(np.any(self.lin_keep[i] < 0))
                           or bool(np.any(self.lin_feed[i] < 0)) for i in range(2))

        # without noise and marks a step is X_{k+1} = X_k M_k, M_k = [[keep_0, feed_1],
        # [feed_0, keep_1]]; the flow form needs every M_k invertible, orientation kept
        self.invertible = bool(np.all(self.lin_keep[0] * self.lin_keep[1]
                                      > self.lin_feed[0] * self.lin_feed[1]))

        atom_times = set(env.atom_times(t0, t))
        self.atom_at = {k: atom_info(env, s) for k, s in enumerate(self.mesh) if s in atom_times}
        self.index_of = {float(s): k for k, s in enumerate(self.mesh)}


_BLOCK = 64  # paths per block of the event search
# search one cumsum of all paths instead when a step has more than one event per
# _DENSE blocks, or fewer than _FEW_PATHS paths (the blocks' fixed cost)
_DENSE = 8
_FEW_PATHS = 4096


def _event_paths(rng, r: float, x: np.ndarray) -> np.ndarray:
    """Path index of every event when path i has Poisson(r * x[i]) events.

    Superposition: one Poisson(r * sum(x)) total, each event assigned to path
    i with probability x[i] / sum(x), so the per-path counts are exactly
    independent Poisson.  Raises SimulationError when some r * x[i] exceeds
    _JUMP_COUNT_GUARD, read at call time, on an Euler step and at an atom alike.

    The mass is one reduction of x, and the search is built only once an
    event falls: from _FEW_PATHS paths on, a step with few events searches
    only the blocks they fall in, at O(n / _BLOCK + events * _BLOCK) instead
    of the O(n) of one cumsum of all paths, which every other step searches.
    """
    u = _event_keys(rng, r, float(x.sum()), x.max)
    if u is None:
        return _NO_EVENTS
    if _block_form(x.size, u.size):
        return _block_search(x, _block_edges(x), u)
    return _cumsum_search(x, u)


_NO_EVENTS = np.empty(0, dtype=np.intp)
_NO_EVENTS.flags.writeable = False


def _event_keys(rng, r: float, mass: float, peak):
    """The sorted keys in [0, mass) of a Poisson(r * mass) number of events, or
    None without events; peak() is the largest entry of the state, read only
    when r * mass passes the jump-count guard."""
    # x >= 0 makes any sum of it >= max(x) after rounding, so the sum screens the max
    if mass * r > _JUMP_COUNT_GUARD and peak() * r > _JUMP_COUNT_GUARD:
        raise SimulationError(f"step-overflow: expected jump count of a path in one step "
                              f"or atom exceeds {_JUMP_COUNT_GUARD:g}")
    k = rng.poisson(r * mass) if mass > 0.0 else 0
    if k == 0:
        return None
    # sorted keys make the lookups walk the boundaries in order; marks are
    # iid, so the order in which events are listed does not change the law
    return np.sort(rng.random(k)) * mass


def _block_form(n: int, k: int) -> bool:
    """Whether k events among n paths search only their blocks."""
    return n >= _FEW_PATHS and k * _DENSE <= -(-n // _BLOCK)


def _cumsum_search(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Path of each sorted key u in [0, mass], by one cumsum of all paths."""
    cum = np.cumsum(x)
    idx = np.searchsorted(cum, u, side="right")
    # a key at or past the last boundary (rounding) goes to the last positive path
    return np.minimum(idx, np.searchsorted(cum, cum[-1], side="left"), out=idx)


def _block_edges(x: np.ndarray) -> np.ndarray:
    """0 and the cumulative sums of the blocks of _BLOCK contiguous paths of x,
    a shorter tail block last."""
    n = x.size
    full = n - n % _BLOCK
    edges = np.zeros(1 + -(-n // _BLOCK))
    np.einsum("ij->i", x[:full].reshape(-1, _BLOCK), out=edges[1:1 + full // _BLOCK])
    if full < n:
        edges[-1] = x[full:].sum()
    return np.cumsum(edges, out=edges)


def _block_search(x: np.ndarray, edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Path of each sorted key u in [0, mass], searching only the key's block."""
    return _search_blocks(functools.partial(_block_rows, x), edges, u)


def _block_rows(x: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """A new (len(blk), _BLOCK) array of the paths of the sorted blocks blk of
    x, a tail block padded with zeros."""
    n, full = x.size, x.size // _BLOCK
    if blk[-1] < full:
        return x[:full * _BLOCK].reshape(-1, _BLOCK)[blk]
    rows = np.zeros((blk.size, _BLOCK))
    tail = np.searchsorted(blk, full)
    rows[:tail] = x[:full * _BLOCK].reshape(-1, _BLOCK)[blk[:tail]]
    rows[tail:, :n - full * _BLOCK] = x[full * _BLOCK:]
    return rows


def _search_blocks(block_rows, edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Path of each sorted key u in [0, mass], given the block edges and
    block_rows(blk), a new array of the paths of the blocks blk."""
    blk = np.searchsorted(edges[1:], u, side="right")
    if blk[-1] == edges.size - 1:
        # a key at or past the last edge (rounding): the last block of positive sum
        np.minimum(blk, np.searchsorted(edges[1:], edges[-1], side="left"), out=blk)
    # one row per key: the paths of its block
    rows = block_rows(blk)
    # the path boundaries from the block's lower edge, summed in path order;
    # the key's path is the number of boundaries at or below it
    rows[:, 0] += edges[blk]
    np.cumsum(rows, axis=1, out=rows)
    j = (rows <= u[:, None]).sum(axis=1)
    # a key at or past its row's last boundary (rounding) goes to the block's
    # last positive path
    over = j == _BLOCK
    if over.any():
        for e in over.nonzero()[0]:
            j[e] = np.flatnonzero(block_rows(blk[e:e + 1])[0])[-1]
    j += blk * _BLOCK
    return j


def _add_marks(idx, Z, out0, out1):
    """Add mark Z[e] to row idx[e] of (out0, out1); idx is sorted.

    The marks of each distinct row are summed by ``bincount`` over the rows'
    ranks, in event order from 0.0, and added to that row only: bit for bit
    the full-length ``out += bincount(idx, ...)`` on every row with events.
    The two differ only on a -0.0 entry without events, and no state holds
    -0.0 (module docstring).
    """
    first = np.empty(idx.size, dtype=bool)
    first[:1] = True
    np.not_equal(idx[1:], idx[:-1], out=first[1:])
    if first.all():
        # distinct rows: each bincount entry would be 0.0 + Z[e], that is Z[e]
        out0[idx] += Z[:, 0]
        out1[idx] += Z[:, 1]
        return
    rank = np.cumsum(first)
    rank -= 1
    rows = idx[first]
    out0[rows] += np.bincount(rank, weights=Z[:, 0], minlength=rows.size)
    out1[rows] += np.bincount(rank, weights=Z[:, 1], minlength=rows.size)


def _noise_term(coef: float, x, rng, g=None, z=None):
    """sqrt(coef * x) times standard normals, written into g and z if given."""
    g = np.multiply(x, coef, out=g)
    np.sqrt(g, out=g)
    g *= rng.standard_normal(g.size) if z is None else rng.standard_normal(out=z)
    return g


# -- noise and mark sources ---------------------------------------------------


class _Independent:
    """Every row is its own path, with private normals and Poisson events."""

    @staticmethod
    def noise(coef: float, x, rng, work):
        return _noise_term(coef, x, rng, work.tmp, work.normals)

    @staticmethod
    def jumps(rng, r: float, x, sample, out0, out1):
        idx = _event_paths(rng, r, x)
        if idx.size:
            _add_marks(idx, sample(rng, idx.size), out0, out1)

    @staticmethod
    def clamp(col):
        np.maximum(col, 0.0, out=col)


class _Coupled:
    """Rows [0, h) and [h, 2h) are the low and high copies of h pairs that
    share one Brownian sheet and one random measure of marks (module docstring).
    The copies stay ordered, low <= high in every column, from step to step."""

    def __init__(self, h: int):
        self.h = h

    def noise(self, coef: float, x, rng, work):
        h = self.h
        low, high = x[:h], x[h:]
        # the shared normal fills the first half of the scratch, the gap's the second
        g = _noise_term(coef, low, rng, work.tmp[:h], work.normals[:h])
        e = _noise_term(coef, high - low, rng, work.tmp[h:], work.normals[h:])
        return np.concatenate([g, g + e])

    def jumps(self, rng, r: float, x, sample, out0, out1):
        h = self.h
        top = np.maximum(x[:h], x[h:])
        idx = _event_paths(rng, r, top)
        if idx.size:
            # U * top < top for U < 1, and a zero copy never keeps a mark
            u = rng.random(idx.size) * top[idx]
            Z = sample(rng, idx.size)
            low, high = u < x[:h][idx], u < x[h:][idx]
            # low rows come first, so the joined rows stay sorted
            rows = np.concatenate([idx[low], idx[high] + h])
            if rows.size:
                _add_marks(rows, np.concatenate([Z[low], Z[high]]), out0, out1)

    def clamp(self, col):
        """The state clamp, then the gap clamp: the gap high - low is itself a
        branching process, absorbed at 0, so a step that crosses the copies
        (only the Euler error can) coalesces them instead."""
        np.maximum(col, 0.0, out=col)
        high = col[self.h:]
        np.maximum(high, col[:self.h], out=high)


_INDEPENDENT = _Independent()


class _Work:
    """The storage one run reuses: three column-major (n, 2) states and the
    product and normals scratch vectors of length n."""

    def __init__(self, n: int):
        self.states = [np.empty((n, 2), order="F") for _ in range(3)]
        self.tmp = np.empty(n)
        self.normals = np.empty(n)

    def free(self, a, b=None) -> np.ndarray:
        """A state buffer that is neither a nor b."""
        for s in self.states:
            if s is not a and s is not b:
                return s


def _euler_step(plan: _StepPlan, k: int, X: np.ndarray, rng, src, out, work) -> np.ndarray:
    x0, x1 = X[:, 0], X[:, 1]
    new0, new1 = out[:, 0], out[:, 1]
    np.multiply(x0, plan.lin_keep[0][k], out=new0)
    if plan.has_feed[0]:
        new0 += np.multiply(x1, plan.lin_feed[0][k], out=work.tmp)
    np.multiply(x1, plan.lin_keep[1][k], out=new1)
    if plan.has_feed[1]:
        new1 += np.multiply(x0, plan.lin_feed[1][k], out=work.tmp)
    if plan.noisy[0]:
        new0 += src.noise(plan.var_dt[0][k], x0, rng, work)
    if plan.noisy[1]:
        new1 += src.noise(plan.var_dt[1][k], x1, rng, work)
    for ch in plan.channels:
        r = ch.rates_dt[k]
        if r != 0.0:
            src.jumps(rng, r, X[:, ch.p], ch.sample, new0, new1)
    if plan.clamp[0]:
        src.clamp(new0)
    if plan.clamp[1]:
        src.clamp(new1)
    return out


def _atom_apply(atom: AtomInfo, X: np.ndarray, rng, src, out, tmp) -> np.ndarray:
    x0, x1 = X[:, 0], X[:, 1]
    new0, new1 = out[:, 0], out[:, 1]
    np.multiply(x0, 1.0 - atom.delta[0], out=new0)
    new0 += np.multiply(x1, atom.db[1][0], out=tmp)
    np.multiply(x1, 1.0 - atom.delta[1], out=new1)
    new1 += np.multiply(x0, atom.db[0][1], out=tmp)
    for p in range(2):
        for meas in atom.jumps[p]:
            src.jumps(rng, meas.mass(), X[:, p], meas.sample, new0, new1)
    return np.maximum(out, 0.0, out=out)


def _tile(x0, n: int) -> np.ndarray:
    """n copies of the start x0, the one entry point of every start state."""
    x0 = nonnegative_pair(x0, "x0")
    # + 0.0 turns -0.0 into +0.0, so an unclamped column never holds -0.0
    return np.asfortranarray(np.tile(x0 + 0.0, (n, 1)))


def _run(plan: _StepPlan, X: np.ndarray, rng, collectors=(), src=_INDEPENDENT):
    """Step X across the plan's mesh and return the final state, in the flow
    form where it applies (see _takes_flow) and by the eager step otherwise.

    X is only read.  Collectors see X_prev, X_pre and X_post in three
    distinct buffers that later steps overwrite, so they copy what they keep;
    in the flow form they are called only at formed points, where X_prev is
    None and X_pre is X_post except at an atom.
    """
    if _takes_flow(plan, src, collectors):
        return _run_flow(plan, X, rng, collectors)
    return _run_eager(plan, X, rng, collectors, src)


def _takes_flow(plan: _StepPlan, src, collectors) -> bool:
    """Independent paths, no clamped column (no Gaussian term, no negative
    coefficient), every step map invertible with positive determinant, and
    collectors that each name the mesh points they read."""
    return (src is _INDEPENDENT and not any(plan.clamp) and plan.invertible
            and all(c.points(plan) is not None for c in collectors))


def _run_eager(plan: _StepPlan, X: np.ndarray, rng, collectors=(), src=_INDEPENDENT):
    """Every step rewrites every row (_euler_step)."""
    for c in collectors:
        c.begin(plan, X)
    work = _Work(X.shape[0])
    for k in range(len(plan.mesh) - 1):
        X_prev = X
        X_pre = _euler_step(plan, k, X_prev, rng, src, work.free(X_prev), work)
        atom = plan.atom_at.get(k + 1)
        X = X_pre if atom is None else _atom_apply(
            atom, X_pre, rng, src, work.free(X_prev, X_pre), work.tmp)
        for c in collectors:
            c.after_step(k + 1, X_prev, X_pre, X, plan.dts[k])
    return X


def _run_flow(plan: _StepPlan, X: np.ndarray, rng, collectors=()):
    """The flow form of a plan that _takes_flow: a step advances the 2x2 map F
    and touches only the rows its events hit (_Flow).  The state is formed at
    atoms, at the collectors' points, where F has grown skewed, and at the end;
    a formed state restarts the flow, after the atom update at an atom.  The
    events and marks are those of _run_eager, drawn in the same order; the
    states differ from the eager step's by rounding."""
    for c in collectors:
        c.begin(plan, X)
    flow = _Flow(X)
    formed = set(plan.atom_at).union(*(c.points(plan) for c in collectors))
    steps = np.column_stack([plan.lin_keep[0], plan.lin_feed[1],
                             plan.lin_feed[0], plan.lin_keep[1]])
    pre, post = (np.empty(X.shape, order="F") for _ in range(2))
    for k in range(len(steps)):
        marks = []
        for ch in plan.channels:
            r = ch.rates_dt[k]
            if r != 0.0:
                idx = flow.events(rng, r, ch.p)
                if idx.size:
                    marks.append((idx, ch.sample(rng, idx.size)))
        flow.advance(*steps[k].tolist())
        if marks:
            flow.add_marks(marks)
        if k + 1 in formed or flow.skewed():
            X = X_pre = flow.state(pre)
            atom = plan.atom_at.get(k + 1)
            if atom is not None:
                X = _atom_apply(atom, X_pre, rng, _INDEPENDENT, post, flow.tmp)
            flow.restart(X)
            for c in collectors:
                c.after_step(k + 1, None, X_pre, X, plan.dts[k])
    return flow.state(np.empty(X.shape, order="F"))


# a formed state restarts the flow once |F|^2 / det F (Frobenius norm, at least
# 2) passes this: the rounding of Y F grows with the skew of F
_SKEW = 8.0


class _Flow:
    """The state of n independent diffusion-free paths as X = max(Y F, 0).

    Between marks every path takes the same step X -> X M_k, so the run keeps
    F = M_0 ... M_{k-1} as four floats and Y = X F^{-1} fixed; a mark Z joins
    its row of Y as Z F^{-1}.  Y has its rows zero-padded to whole blocks of
    _BLOCK, with the block sums BY of each column refreshed on the blocks that
    marks touch and their total SY kept with them: the block sums of column p
    of X are BY . F[:, p] and its mass SY . F[:, p], so a step without events
    costs O(1) and one with events O(blocks + events * _BLOCK).  A state entry
    is clamped at 0 where rounding takes its combination below (the true X is
    nonnegative), and a combination leaves out the term of a zero entry of F,
    so a triangular F keeps zeros exact.
    """

    def __init__(self, X: np.ndarray):
        self.n = X.shape[0]
        nb = self.nb = -(-self.n // _BLOCK)
        self.Y = np.zeros((nb * _BLOCK, 2), order="F")
        # the columns of Y, and their blocks as one (2, blocks, _BLOCK) view
        self.cols = (self.Y[:, 0], self.Y[:, 1])
        self.Yb = self.Y.T.reshape(2, nb, _BLOCK)
        self.BY = np.empty((2, nb))
        self.tmp, self.col = np.empty(self.n), np.empty(self.n)
        self.restart(X)

    def restart(self, X: np.ndarray):
        """Y = X and F = I."""
        self.Y[:self.n] = X
        self.F = (1.0, 0.0, 0.0, 1.0)
        self.Yb.sum(axis=2, out=self.BY)
        self.SY = self.BY.sum(axis=1).tolist()

    def advance(self, m00, m01, m10, m11):
        """F <- F M for one step map M."""
        a, b, c, d = self.F
        self.F = (a * m00 + b * m10, a * m01 + b * m11, c * m00 + d * m10, c * m01 + d * m11)

    def skewed(self) -> bool:
        a, b, c, d = self.F
        return a * a + b * b + c * c + d * d > _SKEW * (a * d - b * c)

    def column(self, p: int, out=None) -> np.ndarray:
        """Column p of the state."""
        n = self.n
        return _combine(self.cols[0][:n], self.cols[1][:n], self.F[p], self.F[2 + p],
                        out, self.tmp)

    def state(self, out: np.ndarray) -> np.ndarray:
        """The state, written into the column-major (n, 2) array out."""
        for p in range(2):
            self.column(p, out[:, p])
        return out

    def events(self, rng, r: float, p: int) -> np.ndarray:
        """_event_paths of column p of the state, read from Y and F."""
        fa, fb = self.F[p], self.F[2 + p]
        u = _event_keys(rng, r, max(self.SY[0] * fa + self.SY[1] * fb, 0.0),
                        lambda: self.column(p).max())
        if u is None:
            return _NO_EVENTS
        if not _block_form(self.n, u.size):
            return _cumsum_search(self.column(p, self.col), u)
        edges = np.zeros(self.nb + 1)
        _combine(self.BY[0], self.BY[1], fa, fb, edges[1:])
        np.cumsum(edges, out=edges)
        y0, y1 = self.Yb

        def rows(blk):
            r0, r1 = y0[blk], y1[blk]
            return _combine(r0, r1, fa, fb, r0, r1)

        return _search_blocks(rows, edges, u)

    def add_marks(self, marks):
        """Add each (rows, Z) of marks, Z F^{-1} into rows of Y, with F already
        advanced past the step that drew them."""
        a, b, c, d = self.F
        det = a * d - b * c
        inv = np.array(((d / det, -b / det), (-c / det, a / det)))
        for idx, Z in marks:
            _add_marks(idx, Z @ inv, *self.cols)
        # a block listed twice is summed twice, to the same value
        touched = (marks[0][0] if len(marks) == 1
                   else np.concatenate([idx for idx, _ in marks])) // _BLOCK
        self.BY[:, touched] = self.Yb[:, touched].sum(axis=2)
        self.SY = self.BY.sum(axis=1).tolist()


def _combine(a, b, fa: float, fb: float, out=None, tmp=None) -> np.ndarray:
    """max(a fa + b fb, 0), without the term of a zero coefficient: x + y 0.0
    is x itself, up to the sign of a zero, which the clamp clears."""
    if fa == 0.0:
        a, fa, b, fb = b, fb, a, 0.0
    out = np.multiply(a, fa, out=out)
    if fb != 0.0:
        out += np.multiply(b, fb, out=tmp)
    return np.maximum(out, 0.0, out=out)


# -- collectors -------------------------------------------------------------


class _TrajectoryCollector:
    """Records every row of the state, one trajectory per row."""

    @staticmethod
    def points(plan):
        return None

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

    def points(self, plan):
        return {plan.index_of[t] for t in self.times}

    def begin(self, plan, X):
        self.idx = {plan.index_of[t]: t for t in self.times}
        self.snaps = {}
        if 0 in self.idx:
            self.snaps[self.idx[0]] = _row_major_copy(X)

    def after_step(self, k, X_prev, X_pre, X_post, dt):
        if k in self.idx:
            self.snaps[self.idx[k]] = _row_major_copy(X_post)


def _row_major_copy(X):
    # row-major like the aggregates were written for: mean and var along the
    # rows of a column-major array round differently
    return np.array(X, order="C")


class _FunctionalCollector:
    """Pathwise accumulator of the closed-interval integral of X against zeta,
    on a plan built with the same zeta (whose atoms are then mesh points)."""

    def __init__(self, zeta):
        self.zeta = zeta

    def points(self, plan):
        """The weight's atoms, without a density part; else every point."""
        if any(not sm.density.is_zero for sm in self.zeta.per_type):
            return None
        return {plan.index_of[s] for s in self.zeta.atom_times if s in plan.index_of}

    def begin(self, plan, X):
        mesh, zeta = plan.mesh, self.zeta
        # the weight densities on the mesh, one column per type
        self.density = np.column_stack([
            np.asarray(sm.density(mesh), dtype=float) + np.zeros(len(mesh))
            for sm in zeta.per_type])
        self.dense = np.any(self.density != 0.0, axis=1)
        self.atoms = {plan.index_of[s]: v for s in zeta.atom_times
                      if mesh[0] <= s <= mesh[-1] and np.any((v := zeta.atom_vector(s)) != 0)}
        self.A = np.zeros(X.shape[0])
        self.left = np.empty(X.shape[0])
        self.right = np.empty(X.shape[0])
        if 0 in self.atoms:
            self.A += X @ self.atoms[0]

    def after_step(self, k, X_prev, X_pre, X_post, dt):
        if self.dense[k - 1] or self.dense[k]:
            zd = self.density
            # the mat-vec, not x0 * z0 + x1 * z1, which rounds differently
            left = np.matmul(X_prev, zd[k - 1], out=self.left)
            left += np.matmul(X_pre, zd[k], out=self.right)
            left *= 0.5 * dt
            self.A += left
        atom = self.atoms.get(k)
        if atom is not None:
            self.A += X_post @ atom


class _OrderCollector:
    """Counts mesh points where a low copy exceeds its high copy anywhere."""

    def __init__(self, h: int):
        self.h = h
        self.violations = 0
        self.checks = 0

    @staticmethod
    def points(plan):
        return None

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


def simulate_atom(env: EnvSpec, s: float, x_left, rng: np.random.Generator) -> np.ndarray:
    """Draw the exact branching update across the atom at time s."""
    x = nonnegative_pairs(np.atleast_2d(x_left), "x_left")
    info = atom_info(env, s)
    # the batch is row-major: callers aggregate it along its rows, which rounds by layout
    out = x.copy() if info is None else _atom_apply(
        info, x, rng, _INDEPENDENT, np.empty(x.shape), np.empty(len(x)))
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
    lambdas = nonnegative_pairs(lam_grid, "lam_grid")
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
    low, high = _tile(x0_low, h), _tile(x0_high, h)
    if np.any(low > high):
        raise ValueError("need x0_low <= x0_high componentwise")
    return np.asfortranarray(np.vstack([low, high]))


def coupled_pair(env: EnvSpec, x0_low, x0_high, t: float, opts: SimOptions,
                 noise: NoiseStream, pair_id: int = 0):
    """Two coupled paths from ordered starts, bit-reproducible in (seed, pair_id).

    Each copy is a path of the process.  Both read one Brownian sheet and one
    Poisson random measure of marks (s, z, u), and each keeps what lies below
    its own level: jump marks with u < X_p(s-), and the sheet over [0, X_i]
    for the Gaussian term (diffusion and, in ``gaussian`` mode, small jumps).
    The copies stay ordered at every mesh point: thinning keeps the order
    exactly, and where the Gaussian term (or a negative Euler coefficient)
    could cross them, the gap clamp raises the high copy to the low one, so
    the copies coalesce where their gap, a branching process absorbed at 0,
    dies.  Equal starts give identical paths.
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
    number of comparisons made.  The thinning coupling keeps the order
    exactly, so in the columns that the gap clamp leaves alone (no Gaussian
    small-jump term and no negative Euler coefficient) a violation is a fault
    of the coupling; in the others the clamp keeps the count at zero.
    """
    if any(not env.c[i].is_zero for i in range(2)):
        raise ValueError("pathwise coupling check requires a diffusion-free environment")
    rng = noise.substream("coupled-batch")
    plan = _StepPlan(env, 0.0, t, opts)
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
    if not k > 0:
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
