"""Exact first moments of the process and the a-priori Gronwall envelope.

The mean M(t) = E X(t) solves the linear measure-driven system

    dM_i = -M_i b'_ii(t) dt + M_j bar_b'_ji(t) dt          between atoms,
    M_i(s) = M_i(s-) (1 - db_ii(s)) + M_j(s-) dbar_ji(s)    at atoms,

where bar_b augments the cross drift with the cross first moment of the jump
kernel (compensated own-kernel jumps drop out of the mean).  The bound uses
the symmetric Gronwall envelope: with beta(t) the larger diagonal total
variation and a(t) = bar_b_12(t) bar_b_21(t) e^beta + beta,

    E X_i(t) <= x_i e^a + x_j bar_b_ji(t) e^(beta + a).
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy.integrate import solve_ivp

from .cumulant import SolverError, SolverOptions, DEFAULT_OPTIONS, _DenseSegment, _coefficients
from .environment import EnvSpec, atom_info, bar_b

__all__ = ["MomentCurve", "first_moment", "moment_bound"]


class MomentCurve:
    """Mean curve on [0, t]: dense segments plus explicit atom updates."""

    def __init__(self, x0, t_end, segments, atom_values):
        self.x0 = np.asarray(x0, dtype=float)
        self.t_end = float(t_end)
        self._segments = sorted(segments, key=lambda s: s[0])
        self._los = [s[0] for s in self._segments]
        self.atom_values = dict(atom_values)  # time -> (m_left, m_right)

    def at(self, t: float) -> np.ndarray:
        if not (-1e-12 <= t <= self.t_end + 1e-12):
            raise ValueError(f"t={t} outside [0, {self.t_end}]")
        if not self._segments:
            if t in self.atom_values:
                return self.atom_values[t][1].copy()
            return self.x0.copy()
        if t <= self._los[0]:
            return self.x0.copy()
        k = bisect.bisect_right(self._los, t) - 1
        lo, hi, dense, v_lo, v_hi = self._segments[k]
        if t >= hi and t in self.atom_values:
            return self.atom_values[t][1].copy()
        if dense is None:
            v = v_lo
        else:
            v = dense(min(max(t, lo), hi))
        return np.asarray(v, dtype=float)

    def left_at(self, t: float) -> np.ndarray:
        if t in self.atom_values:
            return self.atom_values[t][0].copy()
        return self.at(t)

    def grid(self):
        ts_list, vs_list = [np.array([0.0])], [self.x0[None, :]]
        for lo, hi, dense, v_lo, v_hi in self._segments:
            seg_t = np.sort(np.unique(dense.ts)) if dense is not None else np.array([lo, hi])
            seg_v = dense(seg_t).T if dense is not None else np.vstack([v_lo, v_hi])
            if ts_list and ts_list[-1][-1] == seg_t[0]:
                seg_t, seg_v = seg_t[1:], seg_v[1:]
            if seg_t.size:
                ts_list.append(seg_t)
                vs_list.append(seg_v)
        ts = np.concatenate(ts_list)
        vs = np.vstack(vs_list)
        # replace values at atom times with the post-atom state
        for k, t in enumerate(ts):
            if t in self.atom_values:
                vs[k] = self.atom_values[t][1]
        return ts, vs


def first_moment(env: EnvSpec, x0, t: float, opts: SolverOptions | None = None) -> MomentCurve:
    """Solve the linear mean system forward from x0 on [0, t]."""
    if opts is None:
        opts = DEFAULT_OPTIONS
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,) or np.any(x0 < 0):
        raise ValueError("x0 must be a nonnegative 2-vector")
    if not (0.0 < t <= env.horizon + 1e-12):
        raise ValueError("need 0 < t <= horizon")

    # bar21 feeds type 1 from type 2, bar12 type 2 from type 1
    coef = _coefficients([env.b[0][0].density, env.b[1][1].density,
                          bar_b(env, 1, 0).density, bar_b(env, 0, 1).density])

    def rhs(s, m):
        b11, b22, bar21, bar12 = coef(s)
        return (
            -m[0] * b11 + m[1] * bar21,
            -m[1] * b22 + m[0] * bar12,
        )

    atom_ts = env.atom_times(0.0, t)
    hard = sorted(set([0.0, t]) | set(atom_ts) | set(env.density_breakpoints(0.0, t)))
    atom_set = set(atom_ts)

    m = x0.copy()
    segments = []
    atom_values = {}
    for lo, hi in zip(hard[:-1], hard[1:]):
        sol = solve_ivp(rhs, (lo, hi), m, method="RK45", rtol=opts.rel_tol,
                        atol=opts.abs_tol, max_step=opts.max_step, dense_output=True)
        if not sol.success:
            raise SolverError(f"nonconvergent-step on [{lo:g}, {hi:g}]: {sol.message}")
        m = sol.y[:, -1]
        segments.append((lo, hi, _DenseSegment(sol), None, None))
        if hi in atom_set:
            info = atom_info(env, hi)
            m_left = m.copy()
            m = np.array([
                m_left[0] * (1.0 - info.db[0][0]) + m_left[1] * info.dbar(1, 0),
                m_left[1] * (1.0 - info.db[1][1]) + m_left[0] * info.dbar(0, 1),
            ])
            if np.any(m < -1e-9 * (1 + np.max(np.abs(m_left)))):
                raise SolverError(f"negative mean after atom at t={hi:g}: {m}")
            m = np.maximum(m, 0.0)
            atom_values[hi] = (m_left, m.copy())
    return MomentCurve(x0, t, segments, atom_values)


def moment_bound(env: EnvSpec, x0, t: float) -> np.ndarray:
    """Symmetric Gronwall upper envelope for the mean at time t."""
    x0 = np.asarray(x0, dtype=float)
    beta = max(env.b[0][0].total_variation(t), env.b[1][1].total_variation(t))
    bar21 = bar_b(env, 1, 0).cumulative(t)
    bar12 = bar_b(env, 0, 1).cumulative(t)
    alpha = bar12 * bar21 * math.exp(beta) + beta
    cross = (bar21, bar12)  # feeding measure for types 1, 2
    out = np.empty(2)
    for i in range(2):
        j = 1 - i
        out[i] = x0[i] * math.exp(alpha) + x0[j] * cross[i] * math.exp(beta + alpha)
    return out
