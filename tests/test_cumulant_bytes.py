"""Byte-level checks of the analytic side.

The digests below pin the output bytes of the backward cumulant solve, the
v(inf) sweep, the forward mean and the weight-shifted functional system on
every distinct environment of the built-in suite.  Any change to the
right-hand sides, the piece solver, its step control, the atom maps or the
piece bookkeeping that moves a single rounding changes a digest.

This is a pure-float path: the piece solver steps two Python floats, and the
right-hand sides and exponents evaluate with CPython's arithmetic and its
``math`` module (libm); NumPy only copies, clips at zero and stacks the
results.  So the pins depend on CPython's ``math`` and the libm beneath it,
not on NumPy's SIMD level.
"""

import hashlib

import numpy as np
import pytest

from bibranch.cumulant import solve_backward, v_infinity
from bibranch.densities import Density, SignedMeasure1D
from bibranch.environment import EnvSpec, JumpKernel
from bibranch.functionals import WeightMeasure, solve_functional, solve_w
from bibranch.moments import first_moment
from bibranch.verify import suite

TIMES = (0.35, 1.0)
LAMS = ((0.5, 0.25), (4.0, 2.0), (0.0, 3.0))
ZETA_LAMS = ((0.0, 0.0), (1.0, 0.5))
ZETA_RS = (0.0, 0.4, 0.7)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _distinct_envs():
    out, seen = {}, set()
    for sc in suite():
        if repr(sc.env) not in seen:
            seen.add(repr(sc.env))
            out[sc.name] = (sc.env, sc.x0)
    return out


ENVS = _distinct_envs()
ZETAS = {sc.name: (sc.env, sc.zeta) for sc in suite() if sc.zeta is not None}


def _env_digest(env, x0) -> str:
    arrays = []
    for t in TIMES:
        for lam in LAMS:
            sol = solve_backward(env, t, lam)
            arrays += [sol.at(0.0), *sol.grid()]
    arrays.append(v_infinity(env, 1.0)[0])
    arrays += first_moment(env, x0, 1.0).grid()
    return _digest(*arrays)


def _zeta_digest(env, zeta) -> str:
    arrays = []
    for lam in ZETA_LAMS:
        arrays += solve_functional(env, zeta, 1.0, lam).grid()
    arrays += [solve_w(env, zeta, r, 1.0) for r in ZETA_RS]
    return _digest(*arrays)


ENV_DIGESTS = {
    "atom-rich": "0aa400b041dda7f1",
    "bottleneck": "07338a5e5d56d7df",
    "decoupled-two-type": "0761c48ed3eb75b7",
    "dirac-cross": "26974a3a92ee6bb3",
    "feller-embed": "c5d38c518f58f20d",
    "linear-deterministic": "c5607106479aba4c",
    "stable-jump": "d35aa728d0206513",
    "stable-jump-capped": "d27a2b887e8b0320",
    "zero-env": "4d888d2507e392ef",
}

ZETA_DIGESTS = {
    "functional-atoms": "48b65884ca401f38",
    "functional-density": "02d69508d3fab53a",
    "functional-terminal-atom": "4f7c358d4f8035f7",
}


def test_the_pins_cover_every_distinct_environment_and_zeta():
    assert set(ENV_DIGESTS) == set(ENVS)
    assert set(ZETA_DIGESTS) == set(ZETAS)


@pytest.mark.parametrize("name", sorted(ENVS))
def test_analytic_output_bytes_are_pinned(name):
    assert _env_digest(*ENVS[name]) == ENV_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ZETAS))
def test_functional_output_bytes_are_pinned(name):
    assert _zeta_digest(*ZETAS[name]) == ZETA_DIGESTS[name]


def _flat(d: Density) -> Density:
    """The constant density d as a piecewise-linear one, equal at its knots 0 and 1."""
    v = float(d.values[0])
    return Density.piecewise_linear([(0.0, v), (1.0, v)])


def _flat_sm(sm: SignedMeasure1D) -> SignedMeasure1D:
    return SignedMeasure1D(_flat(sm.density), sm.atoms)


def _twin(env: EnvSpec) -> EnvSpec:
    """env with every density read through the time-varying path."""
    twin = EnvSpec(
        b=tuple(tuple(_flat_sm(sm) for sm in row) for row in env.b),
        c=tuple(_flat_sm(sm) for sm in env.c),
        m=tuple(JumpKernel(tuple((_flat(rate), meas) for rate, meas in k.density_components),
                           k.atoms) for k in env.m),
        horizon=env.horizon)
    assert twin._knots == [0.0, 1.0]  # no knot inside a solve window, so no extra piece
    return twin


@pytest.mark.parametrize("name", ["feller-embed", "decoupled-two-type", "stable-jump-capped"])
def test_time_varying_path_matches_its_constant_twin(name):
    # the constant-coefficient right-hand sides bind the values the
    # time-varying ones read at each r, with the same arithmetic
    env, x0 = ENVS[name]
    assert _env_digest(_twin(env), x0) == _env_digest(env, x0)


def test_time_varying_weight_density_matches_its_constant_twin():
    env, zeta = ZETAS["functional-density"]
    assert not zeta.per_type[0].density.is_zero
    twin_zeta = WeightMeasure(tuple(_flat_sm(sm) for sm in zeta.per_type))
    assert _zeta_digest(_twin(env), twin_zeta) == _zeta_digest(env, zeta)
