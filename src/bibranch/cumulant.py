"""Backward solver for the cumulant system, atom maps, and extinction limits.

Between atom times the cumulant v(r) = v_{r,t}(lambda) obeys a non-autonomous
ODE driven by the density parts of the environment,

    dv_i/dr = v_i b'_ii(r) - v_j b'_ij(r) + v_i^2 c'_i(r)
              + sum over density components of m_i of rate(r) * K_i-integral(v),

integrated from the terminal condition v(t) = lambda downward; the hard mesh
points (``EnvSpec.hard_points``: every atom time and density breakpoint) are
never stepped across.  At an atom time s the left limit follows the
closed-form jump map, ``AtomInfo.cumulant_map``, in its cancellation-free
form (delta_i = db_ii plus the own-coordinate mass of the m_i atoms):

    v_left_i = v_i (1 - delta_i) + v_j db_ij + integral (1 - e^{-<v, z>}) m_i({s}, dz).

Every term is nonnegative, so small arguments keep full relative precision,
and the same form maps infinite arguments (0 * inf = 0).  One negativity
rule (``_clip_negative``) guards atom maps and pieces alike.

The result is a :class:`PiecewiseSolution`: dense pieces joined by atom
jumps.  The forward mean system of :mod:`bibranch.moments` has the same
shape, so it uses the same solution type and the same piece solver,
``_solve_piece``, which is the only call of ``solve_ivp``.

The same machinery solves the weight-shifted system for integral functionals
(see :mod:`bibranch.functionals`), which adds an accumulation density and
shifts the atom-map argument.

Terminal values may be infinite: ``v_infinity`` is one such sweep started at
lambda = (inf, inf).  On a smooth piece entered at infinity a component comes
down to a finite value exactly when its equation has a super-linear term
there (Grey's condition): diffusion c_i v_i^2 (beta = 2) or a power-tail jump
component k v_i^alpha (beta = alpha).  It is then integrated in
y = v^(1 - beta), where the blow-up is a regular ODE.  Without such a term,
or when fed through a positive cross drift by a component that stays
infinite, it stays infinite on the piece.  Across an atom a full bottleneck
(delta_i = 1) returns a finite value exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .densities import Density
from .environment import EnvSpec, atom_info
from .measures import _stable_const

__all__ = [
    "SolverOptions",
    "SolverError",
    "LadderNotConverged",
    "PiecewiseSolution",
    "solve_backward",
    "atom_step",
    "laplace_transform",
    "semigroup_check",
    "v_infinity",
    "extinction_prob",
]


class SolverError(RuntimeError):
    pass


class LadderNotConverged(RuntimeError):
    """Raised by the former large-lambda ladder of ``v_infinity``.

    Nothing raises it any more: ``v_infinity`` now solves for the limit
    directly.  The name stays importable for code that still catches it.
    """


@dataclass(frozen=True)
class SolverOptions:
    """Adaptive step control for the backward integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.1

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_step <= 0:
            raise ValueError("tolerances and max_step must be positive")


DEFAULT_OPTIONS = SolverOptions()


class PiecewiseSolution:
    """Solution of a segmented ODE on [lo, hi]: dense pieces joined at atoms.

    The cumulant (and its weight-shifted form) is integrated backward from
    hi, the mean forward from lo; both are smooth between hard points and
    jump by closed-form maps at atoms.  ``segments`` are
    ``(lo, hi, dense, v_lo, v_hi)`` pieces, ``dense`` None on a piece held
    constant; ``atom_values`` maps each atom time to its (left, right) pair;
    ``fixed`` maps an end of the range to its exact value (the terminal
    lambda of a backward solve; x0 and any terminal-atom mean of the forward
    one).  ``at(r)`` returns the right-continuous value (for the backward
    solve, the atom at r, if any, is not applied); ``left_at(s)`` returns
    the left limit at an atom.
    """

    def __init__(self, lo, hi, segments, atom_values, fixed):
        self.lo, self.hi = float(lo), float(hi)
        self._segments = sorted(segments, key=lambda s: s[0])
        self._los = [s[0] for s in self._segments]
        self.atom_values = dict(atom_values)  # time -> (left, right)
        self.fixed = {float(s): np.asarray(v, dtype=float) for s, v in fixed.items()}

    def at(self, r: float) -> np.ndarray:
        if not (self.lo - 1e-12 <= r <= self.hi + 1e-12):
            raise ValueError(f"r={r} outside solved range [{self.lo}, {self.hi}]")
        end = self.lo if r <= self.lo else self.hi if r >= self.hi else None
        if end in self.fixed:
            return self.fixed[end].copy()
        k = max(bisect.bisect_right(self._los, r) - 1, 0)
        lo, hi, dense, v_lo, v_hi = self._segments[k]
        if dense is None:
            v = v_lo if r - lo <= hi - r else v_hi
        else:
            v = dense(min(max(r, lo), hi))
        return np.maximum(np.asarray(v, dtype=float), 0.0)

    def left_at(self, s: float) -> np.ndarray:
        if s in self.atom_values:
            return self.atom_values[s][0].copy()
        return self.at(s)

    def grid(self):
        """(times, values, is_atom, left) with times increasing.

        At an atom ``values`` holds the right value and ``left`` the left
        limit; elsewhere the two agree.
        """
        times, values = [], []
        if self.lo in self.fixed:
            times, values = [np.array([self.lo])], [self.fixed[self.lo][None, :]]
        for lo, hi, dense, v_lo, v_hi in self._segments:
            if dense is None:
                seg_t, seg_v = np.array([lo, hi]), np.vstack([v_lo, v_hi])
            else:
                seg_t = np.unique(np.clip(dense.ts, lo, hi))
                seg_v = np.maximum(dense(seg_t).T, 0.0)
            if times and times[-1][-1] == seg_t[0]:
                seg_t, seg_v = seg_t[1:], seg_v[1:]
            if seg_t.size:
                times.append(seg_t)
                values.append(seg_v)
        ts, vs = np.concatenate(times), np.vstack(values)
        if ts[-1] < self.hi and self.hi in self.fixed:
            ts = np.append(ts, self.hi)
            vs = np.vstack([vs, self.fixed[self.hi]])
        is_atom = np.array([t in self.atom_values for t in ts])
        left = vs.copy()
        for k in np.flatnonzero(is_atom):
            left[k], vs[k] = self.atom_values[ts[k]]
        return ts, vs, is_atom, left


def _clip_negative(v, tol: float, where: str) -> np.ndarray:
    """The one negativity rule: zero round-off below 0, reject a deficit beyond tol."""
    if np.any(v < -tol):
        raise SolverError(f"negative-value at {where}: {v} (delta constraint violated "
                          "or tolerances too loose)")
    return np.maximum(v, 0.0)


def _neg_tol(v, opts: SolverOptions) -> float:
    """Round-off allowance below zero, scaled by the largest finite entry of v."""
    return max(100.0 * opts.abs_tol, 1e-10) * (
        1.0 + float(np.max(v, where=np.isfinite(v), initial=0.0)))


def atom_step(env: EnvSpec, s: float, v_right) -> np.ndarray:
    """Map the right value v_{s,t} to the left limit v_{s-,t} across atom s."""
    v = np.maximum(np.asarray(v_right, dtype=float), 0.0)
    info = atom_info(env, s)
    if info is None:
        return v
    return _clip_negative(info.cumulant_map(v), _neg_tol(v, DEFAULT_OPTIONS), f"t={s:g}")


class _DenseSegment:
    """Dense output of one smooth piece, remembering the solver's own mesh.

    ``to_v`` maps the solver's coordinates back to v where they differ.
    """

    __slots__ = ("sol", "ts", "to_v")

    def __init__(self, sol, to_v=None):
        self.sol = sol.sol
        self.ts = np.sort(sol.t)
        self.to_v = to_v

    def __call__(self, r):
        y = self.sol(r)
        return y if self.to_v is None else self.to_v(y)


def _coefficients(densities):
    """Map r to the list of density values; constant densities are read once."""
    base = [float(d.values[0]) if d.knots.size == 1 else 0.0 for d in densities]
    varying = [(k, d) for k, d in enumerate(densities) if d.knots.size > 1]
    if not varying:
        return lambda r: base

    def at(r):
        vals = base.copy()
        for k, d in varying:
            vals[k] = d(r)
        return vals

    return at


def _make_rhs(env: EnvSpec, zeta=None):
    jumps = [(i, meas) for i in range(2) for _, meas in env.m[i].density_components]
    densities = [env.b[0][0].density, env.b[1][1].density, env.b[0][1].density,
                 env.b[1][0].density, env.c[0].density, env.c[1].density]
    densities += [rate for i in range(2) for rate, _ in env.m[i].density_components]
    if zeta is not None:
        densities += [zeta.per_type[0].density, zeta.per_type[1].density]
    coef = _coefficients(densities)

    def rhs(r, v):
        b11, b22, b12, b21, c1, c2, *rest = coef(r)
        v1 = v[0] if v[0] > 0.0 else 0.0
        v2 = v[1] if v[1] > 0.0 else 0.0
        vv = (v1, v2)
        d = [v1 * b11 - v2 * b12 + v1 * v1 * c1, v2 * b22 - v1 * b21 + v2 * v2 * c2]
        for (i, meas), rate in zip(jumps, rest):
            d[i] += rate * meas.compensated_exponent(i, vv)
        if zeta is not None:
            d[0] -= rest[-2]
            d[1] -= rest[-1]
        return d

    return rhs


def _solve_piece(fun, start, end, y0, opts):
    """Integrate one smooth piece from start to end, in either direction."""
    sol = solve_ivp(fun, (start, end), y0, method="RK45", rtol=opts.rel_tol,
                    atol=opts.abs_tol, max_step=opts.max_step, dense_output=True)
    if not sol.success:
        lo, hi = sorted((start, end))
        raise SolverError(f"nonconvergent-step on [{lo:g}, {hi:g}]: {sol.message}")
    return sol


# finite stand-in for an infinite coordinate inside the right-hand side: its
# square and its power-tail term (exponent below 2) stay finite
_BIG = 1e150
# blow-up components start this fraction of the piece below its right end
_START_FRAC = 1e-8


def _blow_up_order(env: EnvSpec, i: int, lo: float, hi: float):
    """(beta, kappa) of the fastest super-linear term of type i on [lo, hi], or None.

    Diffusion gives c_i v_i^2 (beta = 2, kappa = c_i); a power-tail jump
    component of index alpha gives k v_i^alpha with
    k = rate * weight * Gamma(2 - alpha) / (alpha (alpha - 1)) (beta = alpha).
    Densities are linear on a piece, so positivity at an end is positivity
    on its interior.
    """
    c = env.c[i].density
    if max(c(lo), c(hi)) > 0.0:
        return 2.0, c
    tails = [(meas.alpha, rate.scaled(meas.weight * _stable_const(meas.alpha)))
             for rate, meas in env.m[i].density_components
             if meas.infinite_activity and max(rate(lo), rate(hi)) > 0.0]
    if not tails:
        return None
    beta = max(a for a, _ in tails)
    kappa = Density.zero()
    for a, k in tails:
        if a == beta:
            kappa = kappa + k
    return beta, kappa


def _piece_from_infinity(env, rhs, lo, hi, v, opts, neg_tol):
    """Integrate one smooth piece entered with infinite components.

    A component is hot when it is infinite at hi, or fed there through a
    positive cross drift by one that is (a blow-up feeds a non-integrable
    rate).  A hot component with a super-linear term comes down on the piece
    and is integrated in y = v^(1 - beta) from y(hi - h) = (beta - 1) times
    the integral of kappa over [hi - h, hi], the leading-order asymptote; the
    flow contracts the start error.  One without, or one fed through a
    positive cross drift by a component that stays infinite, stays infinite.
    Returns the segment and the value at lo.
    """
    def fed(i, group, ends=(lo, hi)):
        return 1 - i in group and max(env.b[i][1 - i].density(r) for r in ends) > 0.0

    hot = {i for i in range(2) if math.isinf(v[i])}
    hot |= {i for i in range(2) if fed(i, hot, (hi,))}
    order = [_blow_up_order(env, i, lo, hi) for i in range(2)]
    stuck = {i for i in hot if order[i] is None}
    stuck |= {i for i in range(2) if fed(i, stuck)}
    blow = hot - stuck
    for i in set(range(2)) - hot - stuck:
        if fed(i, blow):
            raise SolverError(
                f"unresolved-blow-up on [{lo:g}, {hi:g}]: type {i + 1} is fed by a "
                "blow-up through a cross drift that vanishes where it starts")
    if len(stuck) == 2:
        return (lo, hi, None, v.copy(), v.copy()), v.copy()

    beta = [order[i][0] if i in blow else 1.0 for i in range(2)]
    power = [1.0 / (beta[i] - 1.0) if i in blow else 0.0 for i in range(2)]
    floor = [_BIG ** (1.0 - beta[i]) for i in range(2)]  # y below it means v above _BIG
    r0 = hi - _START_FRAC * (hi - lo) if blow else hi
    y0 = np.array([0.0 if i in stuck
                   else (beta[i] - 1.0) * order[i][1].integral(r0, hi) if i in blow
                   else v[i] for i in range(2)])

    def fun(r, y):
        w = [_BIG if i in stuck else (y[i] ** -power[i] if y[i] > floor[i] else _BIG)
             if i in blow else y[i] for i in range(2)]
        d = rhs(r, w)
        return [0.0 if i in stuck else (1.0 - beta[i]) * w[i] ** -beta[i] * d[i]
                if i in blow else d[i] for i in range(2)]

    def to_v(y):
        out = np.array(y, dtype=float)
        for i in stuck:
            out[i] = math.inf
        for i in blow:
            yi = np.maximum(out[i], floor[i])
            out[i] = np.where(yi > floor[i], yi ** -power[i], math.inf)
        return out

    sol = _solve_piece(fun, r0, lo, y0, opts)
    v_new = to_v(sol.y[:, -1])
    if any(math.isinf(v_new[i]) for i in blow):
        raise SolverError(f"unresolved-blow-up on [{lo:g}, {hi:g}]: {v_new}")
    v_new = _clip_negative(v_new, neg_tol, f"r={lo:g}")
    return (lo, hi, _DenseSegment(sol, to_v), v_new, v.copy()), v_new


def _integrate_backward(env, t, lam, opts, zeta=None, r_end=0.0):
    """Shared core for the cumulant and weighted-functional systems."""
    if opts is None:
        opts = DEFAULT_OPTIONS
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (2,) or np.any(lam < 0):
        raise ValueError("lambda must be a nonnegative 2-vector")
    if not (0.0 <= r_end <= t <= env.horizon + 1e-12):
        raise ValueError("need 0 <= r_end <= t <= horizon")

    hard = env.hard_points(r_end, t, zeta)
    atom_set = set(env.atom_times(r_end, t, extra=zeta.atom_times if zeta is not None else ()))

    rhs = _make_rhs(env, zeta=zeta)
    v = lam.copy()
    segments = []
    atom_values = {}
    neg_tol = _neg_tol(lam, opts)

    def apply_atom(s, v_right):
        vr = np.maximum(v_right, 0.0)
        shifted = vr + zeta.atom_vector(s) if zeta is not None else vr
        info = atom_info(env, s)
        v_left = shifted if info is None else _clip_negative(
            info.cumulant_map(shifted), neg_tol, f"t={s:g}")
        atom_values[s] = (v_left.copy(), vr.copy())
        return v_left

    if t in atom_set:
        v = apply_atom(t, v)

    for hi, lo in zip(reversed(hard[1:]), reversed(hard[:-1])):
        if hi == lo:
            continue
        if np.all(v == 0.0) and zeta is None:
            # absorbing terminal state of the backward flow
            segments.append((lo, hi, None, np.zeros(2), np.zeros(2)))
            v = np.zeros(2)
        elif not np.all(np.isfinite(v)):
            segment, v = _piece_from_infinity(env, rhs, lo, hi, v, opts, neg_tol)
            segments.append(segment)
        else:
            sol = _solve_piece(rhs, hi, lo, v, opts)
            v_new = _clip_negative(sol.y[:, -1], neg_tol, f"r={lo:g}")
            segments.append((lo, hi, _DenseSegment(sol), v_new, v.copy()))
            v = v_new
        if lo in atom_set:
            v = apply_atom(lo, v)

    return PiecewiseSolution(r_end, t, segments, atom_values, {t: lam})


def solve_backward(env: EnvSpec, t: float, lam, opts: SolverOptions | None = None) -> PiecewiseSolution:
    """Solve the backward cumulant system on [0, t] with terminal value lam.

    Entries of lam may be ``inf``; see :func:`v_infinity`.
    """
    return _integrate_backward(env, t, lam, opts, zeta=None, r_end=0.0)


def laplace_transform(env: EnvSpec, x, r: float, t: float, lam,
                      opts: SolverOptions | None = None) -> float:
    """Transition-kernel Laplace transform exp(-<x, v_{r,t}(lam)>), with 0 * inf = 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be componentwise nonnegative")
    sol = _integrate_backward(env, t, lam, opts, r_end=r)
    return float(np.exp(-x @ np.where(x > 0, sol.at(r), 0.0)))


def semigroup_check(env: EnvSpec, r: float, s: float, t: float, lam,
                    opts: SolverOptions | None = None) -> np.ndarray:
    """Componentwise flow-property residual |v_{r,t} - v_{r,s}(v_{s,t})|."""
    if not (r <= s <= t):
        raise ValueError("need r <= s <= t")
    outer = _integrate_backward(env, t, lam, opts, r_end=r)
    mid = outer.at(s)
    inner = _integrate_backward(env, s, mid, opts, r_end=r)
    return np.abs(outer.at(r) - inner.at(r))


def v_infinity(env: EnvSpec, t: float, opts: SolverOptions | None = None):
    """v_{0,t}(infinity): one backward sweep started at lambda = (inf, inf).

    Returns ``(limit, diagnostic)``.  ``limit`` holds ``inf`` for components
    that stay infinite; ``diagnostic["status"]`` marks each component
    ``converged`` (finite limit) or ``diverged``.  ``diagnostic["ladder"]``
    and ``diagnostic["values"]`` are empty: they held the trace of the
    large-lambda ladder this sweep replaced.  Raises :class:`SolverError` on
    structure the sweep cannot resolve, never an undecided value.
    """
    limit = _integrate_backward(env, t, (math.inf, math.inf), opts, r_end=0.0).at(0.0)
    status = tuple("diverged" if math.isinf(x) else "converged" for x in limit)
    return limit, {"status": status, "ladder": [], "values": np.empty((0, 2))}


def extinction_prob(env: EnvSpec, x, t: float, opts: SolverOptions | None = None) -> float:
    """P(extinct by t) = exp(-<x, v_{0,t}(infinity)>), 0 when a needed limit is infinite."""
    x = np.asarray(x, dtype=float)
    limit, _ = v_infinity(env, t, opts)
    needed = [i for i in range(2) if x[i] > 0]
    if any(math.isinf(limit[i]) for i in needed):
        return 0.0
    return float(np.exp(-sum(x[i] * limit[i] for i in needed)))
