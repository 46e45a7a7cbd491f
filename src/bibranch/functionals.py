"""Weighted backward equations and Monte Carlo checks for integral functionals.

For nonnegative weight measures zeta_i(ds) the Laplace transform of the
closed-interval functional sum_i integral over [r,t] of X_i(s) zeta_i(ds)
is exp(-<x, w_{r,t}>).  The vector u_{r,t} (terminal value lambda) solves the
cumulant system with two changes: the weight density accumulates backward,
and the atom-map argument is shifted by the weight's atom vector zeta({s})
before the usual jump map is applied.  Then w_{r,t} = u_{r,t}(0) + zeta({r}).
With zeta identically zero the solver is algorithmically identical to the
plain cumulant solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulant import PiecewiseSolution, _integrate_backward
from .densities import SignedMeasure1D
from .environment import EnvSpec
from .noise import NoiseStream
from .simulate import SimOptions, _FunctionalCollector, _StepPlan, _run, _tile

__all__ = [
    "WeightMeasure",
    "solve_functional",
    "solve_w",
    "mc_functional",
]

@dataclass(frozen=True)
class WeightMeasure:
    """Per-type nonnegative weights: density plus atoms for each coordinate."""

    per_type: tuple  # (SignedMeasure1D, SignedMeasure1D)

    def __post_init__(self):
        if len(self.per_type) != 2:
            raise ValueError("weight measure needs exactly two components")
        object.__setattr__(self, "per_type", tuple(self.per_type))

    @classmethod
    def zero(cls) -> "WeightMeasure":
        return cls((SignedMeasure1D.zero(), SignedMeasure1D.zero()))

    @property
    def is_zero(self) -> bool:
        return all(sm.is_zero for sm in self.per_type)

    @property
    def atom_times(self):
        """Times where either weight has an atom, ascending."""
        return tuple(sorted({s for sm in self.per_type for s in sm.atom_times}))

    def atom_vector(self, s: float) -> np.ndarray:
        return np.array([self.per_type[0].atom_mass(s), self.per_type[1].atom_mass(s)])


def solve_functional(env: EnvSpec, zeta: WeightMeasure, t: float, lam) -> PiecewiseSolution:
    """Solve the weight-shifted backward system for u_{.,t} on [0, t]."""
    return _integrate_backward(env, t, lam, zeta=zeta)


def solve_w(env: EnvSpec, zeta: WeightMeasure, r: float, t: float) -> np.ndarray:
    """Closed-interval exponent w_{r,t} = u_{r,t}(0) + zeta({r})."""
    sol = _integrate_backward(env, t, (0.0, 0.0), zeta=zeta, r_end=r)
    return sol.at(r) + zeta.atom_vector(r)


def mc_functional(env: EnvSpec, x0, zeta: WeightMeasure, r: float, t: float,
                  n_paths: int, opts: SimOptions, noise: NoiseStream):
    """Monte Carlo estimate of E exp(-sum_i integral over [r,t] X_i dzeta_i).

    The pathwise accumulator uses the trapezoid rule on the weight densities
    and exact atom terms X_i(s) zeta_i({s}) with the post-jump state, per the
    closed-interval convention; returns (estimate, standard error).
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")
    rng = noise.substream("functional")
    plan = _StepPlan(env, r, t, opts, zeta=zeta)
    coll = _FunctionalCollector(zeta)
    _run(plan, _tile(x0, n_paths), rng, (coll,))
    w = np.exp(-coll.A)
    est = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n_paths))
    return est, se
