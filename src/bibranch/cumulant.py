"""Backward solver for the cumulant system, atom maps, and extinction limits.

Between atom times the cumulant v(r) = v_{r,t}(lambda) obeys a non-autonomous
ODE driven by the density parts of the environment,

    dv_i/dr = v_i b'_ii(r) - v_j b'_ij(r) + v_i^2 c'_i(r)
              + sum over density components of m_i of rate(r) * K_i-integral(v),

integrated from the terminal condition v(t) = lambda downward; every atom
time and density breakpoint is a hard mesh point.  At an atom time s the
left limit follows the closed-form jump map (fully compensated exponent K):

    v_left_i = v_i (1 - db_ii) + v_j dbar_ij - integral K(v, z) m_i({s}, dz).

The same machinery solves the weight-shifted system for integral functionals
(see :mod:`bibranch.functionals`), which adds an accumulation density and
shifts the atom-map argument.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .environment import EnvSpec, atom_info

__all__ = [
    "SolverOptions",
    "SolverError",
    "LadderNotConverged",
    "CumulantSolution",
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
    """The large-lambda ladder is neither clearly finite nor clearly divergent."""


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


class CumulantSolution:
    """Backward solution on [r_end, t]: dense segments plus atom jumps.

    ``at(r)`` returns the right-continuous value v_{r,t} (the atom at r, if
    any, is not applied); ``left_at(s)`` returns the left limit at an atom.
    """

    def __init__(self, t, lam, r_end, segments, atom_values, zeta=None):
        self.terminal_time = float(t)
        self.terminal_lambda = np.asarray(lam, dtype=float)
        self.r_end = float(r_end)
        # segments: list of (lo, hi, dense_sol, v_lo, v_hi) ascending in lo
        self._segments = sorted(segments, key=lambda s: s[0])
        self._los = [s[0] for s in self._segments]
        self.atom_values = dict(atom_values)  # time -> (v_left, v_right)
        self.zeta = zeta

    @property
    def atom_times(self):
        return tuple(sorted(self.atom_values))

    def at(self, r: float) -> np.ndarray:
        if not (self.r_end - 1e-12 <= r <= self.terminal_time + 1e-12):
            raise ValueError(f"r={r} outside solved range [{self.r_end}, {self.terminal_time}]")
        if r >= self.terminal_time:
            return self.terminal_lambda.copy()
        if not self._segments:
            return self.terminal_lambda.copy()
        k = bisect.bisect_right(self._los, r) - 1
        k = max(k, 0)
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
        """(times, values, is_atom, left_values) with times increasing."""
        times, values = [], []
        for lo, hi, dense, v_lo, v_hi in self._segments:
            if dense is None:
                seg_t = np.array([lo, hi])
                seg_v = np.column_stack([v_lo, v_hi]).T
            else:
                seg_t = np.sort(np.unique(np.clip(dense.ts, lo, hi)))
                seg_v = np.maximum(dense(seg_t).T, 0.0)
            if times and times[-1][-1] == seg_t[0]:
                seg_t, seg_v = seg_t[1:], seg_v[1:]
            if seg_t.size:
                times.append(seg_t)
                values.append(seg_v)
        if times:
            ts = np.concatenate(times)
            vs = np.vstack(values)
        else:
            ts = np.array([self.terminal_time])
            vs = self.terminal_lambda[None, :]
        if ts[-1] < self.terminal_time:
            ts = np.append(ts, self.terminal_time)
            vs = np.vstack([vs, self.terminal_lambda])
        is_atom = np.array([t in self.atom_values for t in ts])
        left = vs.copy()
        for k, t in enumerate(ts):
            if t in self.atom_values:
                left[k] = self.atom_values[t][0]
                vs[k] = self.atom_values[t][1]
        return ts, vs, is_atom, left


def _atom_step_core(info, v_right):
    """Closed-form left limit across one atom, argument already zeta-shifted."""
    v = np.maximum(np.asarray(v_right, dtype=float), 0.0)
    out = np.empty(2)
    for i in range(2):
        j = 1 - i
        k_term = sum(meas.full_exponent(v) for meas in info.jumps[i])
        out[i] = v[i] * (1.0 - info.db[i][i]) + v[j] * info.dbar(i, j) - k_term
    return out


def atom_step(env: EnvSpec, s: float, v_right) -> np.ndarray:
    """Map the right value v_{s,t} to the left limit v_{s-,t} across atom s."""
    info = atom_info(env, s)
    v = np.asarray(v_right, dtype=float)
    if info is None:
        return v.copy()
    out = _atom_step_core(info, v)
    neg_tol = 1e-9 * (1.0 + float(np.max(v)))
    if np.any(out < -neg_tol):
        raise SolverError(
            f"negative-left-value at t={s:g}: {out} (delta constraint violated?)"
        )
    return np.maximum(out, 0.0)


class _DenseSegment:
    """Dense output of one smooth piece, remembering the solver's own mesh."""

    __slots__ = ("sol", "ts")

    def __init__(self, sol):
        self.sol = sol.sol
        self.ts = np.sort(sol.t)

    def __call__(self, r):
        return self.sol(r)


def _make_rhs(env: EnvSpec, zeta=None):
    b11 = env.b[0][0].density
    b22 = env.b[1][1].density
    b12 = env.b[0][1].density
    b21 = env.b[1][0].density
    c1 = env.c[0].density
    c2 = env.c[1].density
    comps = (tuple(env.m[0].density_components), tuple(env.m[1].density_components))
    zd = None
    if zeta is not None:
        zd = (zeta.per_type[0].density, zeta.per_type[1].density)

    def rhs(r, v):
        v1 = v[0] if v[0] > 0.0 else 0.0
        v2 = v[1] if v[1] > 0.0 else 0.0
        vv = (v1, v2)
        d1 = v1 * b11(r) - v2 * b12(r) + v1 * v1 * c1(r)
        d2 = v2 * b22(r) - v1 * b21(r) + v2 * v2 * c2(r)
        for rate, meas in comps[0]:
            d1 += rate(r) * meas.compensated_exponent(0, vv)
        for rate, meas in comps[1]:
            d2 += rate(r) * meas.compensated_exponent(1, vv)
        if zd is not None:
            d1 -= zd[0](r)
            d2 -= zd[1](r)
        return (d1, d2)

    return rhs


def _integrate_backward(env, t, lam, opts, zeta=None, r_end=0.0):
    """Shared core for the cumulant and weighted-functional systems."""
    if opts is None:
        opts = DEFAULT_OPTIONS
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (2,) or np.any(lam < 0):
        raise ValueError("lambda must be a nonnegative 2-vector")
    if not (0.0 <= r_end <= t <= env.horizon + 1e-12):
        raise ValueError("need 0 <= r_end <= t <= horizon")

    extra_atoms = ()
    extra_breaks = []
    if zeta is not None:
        extra_atoms = tuple(
            s for sm in zeta.per_type for s in sm.atom_times
        )
        for sm in zeta.per_type:
            extra_breaks.extend(sm.density.breakpoints(r_end, t))

    atom_ts = env.atom_times(r_end, t, extra=extra_atoms)
    hard = sorted(
        set([r_end, t]) | set(atom_ts) | set(env.density_breakpoints(r_end, t))
        | set(extra_breaks)
    )
    atom_set = set(atom_ts)

    rhs = _make_rhs(env, zeta=zeta)
    v = lam.copy()
    segments = []
    atom_values = {}
    neg_tol = max(100.0 * opts.abs_tol, 1e-10) * (1.0 + float(np.max(lam)))

    def apply_atom(s, v_right):
        vr = np.maximum(v_right, 0.0)
        shifted = vr + zeta.atom_vector(s) if zeta is not None else vr
        info = atom_info(env, s)
        v_left = _atom_step_core(info, shifted) if info is not None else shifted
        if np.any(v_left < -neg_tol):
            raise SolverError(f"negative-left-value at t={s:g}: {v_left}")
        v_left = np.maximum(v_left, 0.0)
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
        else:
            sol = solve_ivp(
                rhs,
                (hi, lo),
                v,
                method="RK45",
                rtol=opts.rel_tol,
                atol=opts.abs_tol,
                max_step=opts.max_step,
                dense_output=True,
            )
            if not sol.success:
                raise SolverError(f"nonconvergent-step on [{lo:g}, {hi:g}]: {sol.message}")
            v_new = sol.y[:, -1]
            if np.any(v_new < -neg_tol):
                raise SolverError(
                    f"negative-value at r={lo:g}: {v_new} (check tolerances or environment)"
                )
            segments.append((lo, hi, _DenseSegment(sol), np.maximum(v_new, 0.0), v.copy()))
            v = np.maximum(v_new, 0.0)
        if lo in atom_set and lo > r_end:
            v = apply_atom(lo, v)

    return CumulantSolution(t, lam, r_end, segments, atom_values, zeta=zeta)


def solve_backward(env: EnvSpec, t: float, lam, opts: SolverOptions | None = None) -> CumulantSolution:
    """Solve the backward cumulant system on [0, t] with terminal value lam."""
    return _integrate_backward(env, t, lam, opts, zeta=None, r_end=0.0)


def laplace_transform(env: EnvSpec, x, r: float, t: float, lam,
                      opts: SolverOptions | None = None) -> float:
    """Transition-kernel Laplace transform exp(-<x, v_{r,t}(lam)>)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be componentwise nonnegative")
    sol = _integrate_backward(env, t, lam, opts, r_end=r)
    return float(np.exp(-x @ sol.at(r)))


def semigroup_check(env: EnvSpec, r: float, s: float, t: float, lam,
                    opts: SolverOptions | None = None) -> np.ndarray:
    """Componentwise flow-property residual |v_{r,t} - v_{r,s}(v_{s,t})|."""
    if not (r <= s <= t):
        raise ValueError("need r <= s <= t")
    outer = _integrate_backward(env, t, lam, opts, r_end=r)
    mid = outer.at(s)
    inner = _integrate_backward(env, s, mid, opts, r_end=r)
    return np.abs(outer.at(r) - inner.at(r))


def v_infinity(env: EnvSpec, t: float, ladder=None, opts: SolverOptions | None = None,
               conv_tol: float = 1e-6, div_threshold: float = 1e7):
    """Estimate v_{0,t}(infinity) along a geometric lambda ladder.

    Returns ``(limit, diagnostic)`` where limit holds ``inf`` for divergent
    components and diagnostic maps each component to ``converged``,
    ``diverged`` or ``slow`` plus the ladder trace.
    """
    if ladder is None:
        ladder = [2.0 ** k for k in range(28)]
    ladder = [float(x) for x in ladder]
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or not ladder:
        raise ValueError("ladder must be strictly increasing and nonempty")

    values = []
    status = ["slow", "slow"]
    prev = None
    for mult in ladder:
        sol = _integrate_backward(env, t, (mult, mult), opts, r_end=0.0)
        v0 = sol.at(0.0)
        if prev is not None:
            slack = 1e-7 * (1.0 + float(np.max(np.abs(v0))))
            if np.any(v0 < prev - slack):
                raise AssertionError(
                    f"ladder monotonicity violated: {v0} < {prev} at lambda={mult:g}"
                )
        values.append(v0)
        for i in range(2):
            if status[i] != "slow":
                continue
            if v0[i] > div_threshold:
                status[i] = "diverged"
            elif prev is not None and abs(v0[i] - prev[i]) < conv_tol * (1.0 + abs(v0[i])):
                status[i] = "converged"
        prev = v0
        if "slow" not in status:
            break

    limit = np.array([
        math.inf if status[i] == "diverged" else float(values[-1][i]) for i in range(2)
    ])
    diagnostic = {
        "status": tuple(status),
        "ladder": ladder[: len(values)],
        "values": np.array(values),
    }
    return limit, diagnostic


def extinction_prob(env: EnvSpec, x, t: float, opts: SolverOptions | None = None,
                    ladder=None) -> float:
    """P(extinct by t) = exp(-<x, v_{0,t}(infinity)>) from the ladder limit."""
    x = np.asarray(x, dtype=float)
    limit, diag = v_infinity(env, t, ladder=ladder, opts=opts)
    needed = [i for i in range(2) if x[i] > 0]
    if any(diag["status"][i] == "slow" for i in needed):
        raise LadderNotConverged(f"ladder-not-converged: {diag['status']}")
    if any(math.isinf(limit[i]) for i in needed):
        return 0.0
    return float(np.exp(-sum(x[i] * limit[i] for i in needed)))
