"""Exact first moments of the process and the a-priori Gronwall envelope.

The mean M(t) = E X(t) solves the linear measure-driven system

    dM_i = -M_i b'_ii(t) dt + M_j bar_b'_ji(t) dt          between atoms,
    M_i(s) = M_i(s-) (1 - db_ii(s)) + M_j(s-) dbar_ji(s)    at atoms,

where bar_b augments the cross drift with the cross first moment of the jump
kernel (compensated own-kernel jumps drop out of the mean).  The atom update
is ``AtomInfo.mean_map``, built from the same atom data as the cumulant's
jump map and the path engine's branching update.  It is integrated
forward between the hard points of ``EnvSpec.hard_points`` with the
cumulant's piece solver, and returned as the same
:class:`~bibranch.cumulant.PiecewiseSolution` as the backward cumulant: the
exact ``x0`` at 0, ``at(t)`` the right-continuous (post-atom) mean and
``left_at(s)`` the pre-atom mean at an atom.

The bound uses the symmetric Gronwall envelope: with beta(t) the larger
diagonal total variation and a(t) = bar_b_12(t) bar_b_21(t) e^beta + beta,

    E X_i(t) <= x_i e^a + x_j bar_b_ji(t) e^(beta + a).
"""

from __future__ import annotations

import math

import numpy as np

from .cumulant import (DEFAULT_OPTIONS, PiecewiseSolution, SolverError, SolverOptions,
                       _DenseSegment, _coefficients, _solve_piece)
from .environment import EnvSpec, atom_info, bar_b

__all__ = ["first_moment", "moment_bound"]


def first_moment(env: EnvSpec, x0, t: float, opts: SolverOptions | None = None) -> PiecewiseSolution:
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

    hard = env.hard_points(0.0, t)
    atom_set = set(env.atom_times(0.0, t))

    m = x0.copy()
    segments = []
    atom_values = {}
    for lo, hi in zip(hard[:-1], hard[1:]):
        sol = _solve_piece(rhs, lo, hi, m, opts)
        m = sol.y[:, -1]
        segments.append((lo, hi, _DenseSegment(sol), None, None))
        info = atom_info(env, hi) if hi in atom_set else None
        if info is not None:
            m_left = m.copy()
            m = info.mean_map(m_left)
            if np.any(m < -1e-9 * (1 + np.max(np.abs(m_left)))):
                raise SolverError(f"negative mean after atom at t={hi:g}: {m}")
            m = np.maximum(m, 0.0)
            atom_values[hi] = (m_left, m.copy())
    fixed = {0.0: x0}
    if t in atom_values:
        fixed[t] = atom_values[t][1]
    return PiecewiseSolution(0.0, t, segments, atom_values, fixed)


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
