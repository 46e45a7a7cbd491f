"""Closed forms the analytic side is checked against.

Each oracle reads its parameters from the environment it is applied to and
refuses environments of another shape, so a changed suite cannot silently
compare against the wrong formula.

* Feller (one-type square-root branching, b11 = b, c1 = c, nothing else on
  type 1):  v_{0,t}(lam) = lam e^{-bt} / (1 + (c lam / b)(1 - e^{-bt})),
  v_{0,t}(inf) = b / (c (e^{bt} - 1)).
* Linear deterministic (drift only):  v_{0,t}(lam) = expm(-A t) lam with
  A = [[b11, -b12], [-b21, b22]].
* One-sided stable jumps on type 1 (b11 = b, rate r, weight w, index alpha):
  with k = r w Gamma(2 - alpha) / (alpha (alpha - 1)),
  v_{0,t}(inf) = (k (e^{(alpha-1) b t} - 1) / b)^{-1/(alpha-1)}.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# where constant densities are read; any interior time gives the same value
_PROBE_TIME = 0.5


def _const(measure) -> float:
    if measure.atoms:
        raise ValueError("oracle needs an atom-free coefficient")
    return float(measure.density(_PROBE_TIME))


def _type1_only(env, *, diffusion: bool):
    """(b, c) of a type-1 model with no cross feed and no type-2 dynamics."""
    if any(not env.b[i][j].is_zero for i, j in ((0, 1), (1, 0), (1, 1))) \
            or not env.c[1].is_zero or not env.m[1].is_zero:
        raise ValueError("oracle needs type 2 to be inert")
    c = _const(env.c[0]) if diffusion else 0.0
    if not diffusion and not env.c[0].is_zero:
        raise ValueError("oracle needs no diffusion")
    return _const(env.b[0][0]), c


def feller_cumulant(env, t: float, lam) -> np.ndarray:
    if not env.m[0].is_zero:
        raise ValueError("Feller oracle needs no jumps")
    b, c = _type1_only(env, diffusion=True)
    a = math.exp(-b * t)
    l1, l2 = float(lam[0]), float(lam[1])
    return np.array([l1 * a / (1.0 + (c * l1 / b) * (1.0 - a)), l2])


def feller_v_infinity(env, t: float) -> float:
    if not env.m[0].is_zero:
        raise ValueError("Feller oracle needs no jumps")
    b, c = _type1_only(env, diffusion=True)
    return b / (c * math.expm1(b * t))


def linear_cumulant(env, t: float, lam) -> np.ndarray:
    if any(not env.c[i].is_zero or not env.m[i].is_zero for i in range(2)):
        raise ValueError("linear oracle needs a drift-only environment")
    b = [[_const(env.b[i][j]) for j in range(2)] for i in range(2)]
    A = np.array([[b[0][0], -b[0][1]], [-b[1][0], b[1][1]]])
    return expm(-A * t) @ np.asarray(lam, dtype=float)


def stable_v_infinity(env, t: float) -> float:
    b, _ = _type1_only(env, diffusion=False)
    comps = env.m[0].density_components
    if len(comps) != 1 or env.m[0].atoms:
        raise ValueError("stable oracle needs exactly one jump component")
    rate, meas = comps[0]
    alpha = meas.alpha
    k = float(rate(_PROBE_TIME)) * meas.weight * math.gamma(2.0 - alpha) \
        / (alpha * (alpha - 1.0))
    return (k * math.expm1((alpha - 1.0) * b * t) / b) ** (-1.0 / (alpha - 1.0))


def rel_err(got, want) -> float:
    """Max-norm error relative to the max-norm of the reference."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))
