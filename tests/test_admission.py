"""Input admission: one pair rule, one time-window rule, and model data free of NaN.

Every check is stated positively (``x >= 0``, ``0 <= t <= horizon``), so NaN
fails it like any other value out of range.  Starts and points must also be
finite; only a terminal lambda may be infinite.  Each case below builds or
calls with one inadmissible input and must raise ``ValueError``; model data
that constructs must fail ``validate``.
"""

import json
import math

import pytest

from bibranch import config as cfgmod
from bibranch.cumulant import extinction_prob, laplace_transform, solve_backward
from bibranch.densities import Density
from bibranch.environment import JumpKernel, validate
from bibranch.functionals import WeightMeasure, mc_functional
from bibranch.measures import CappedExpProduct, CappedStableAxis, Dirac, ExpProduct, StableAxis
from bibranch.moments import first_moment, moment_bound
from bibranch.noise import NoiseStream
from bibranch.simulate import (SimOptions, coupled_order_violations, coupled_pair,
                               extinction_frequency, simulate_ensemble, simulate_path)

from conftest import atoms_only, const, feller_env, make_env

NAN, INF = math.nan, math.inf
OPTS = SimOptions(step=0.05)
ZETA = WeightMeasure((const(1.0), const(0.0)))


def _validated(env):
    report = validate(env)
    if not report.passed:
        raise ValueError(str(report))


def _from_config(text):
    # Python's json reads the NaN token
    cfg = json.loads('{"horizon": 1.0, "types": [%s, {}]}' % text)
    _validated(cfgmod.env_from_config(cfg))


def _mc(x0=(1.0, 0.0), t=1.0):
    """The six Monte Carlo entry points at start x0 and end time t."""
    env = feller_env()
    high = (x0[0] + 1.0, x0[1])
    return {
        "simulate_path": lambda: simulate_path(env, x0, t, OPTS, NoiseStream(1)),
        "simulate_ensemble": lambda: simulate_ensemble(env, x0, t, (t,), (), 8, OPTS,
                                                       NoiseStream(1)),
        "coupled_pair": lambda: coupled_pair(env, x0, high, t, OPTS, NoiseStream(1)),
        "coupled_order_violations": lambda: coupled_order_violations(
            make_env(b11=const(1.0)), x0, high, t, 8, OPTS, NoiseStream(1)),
        "extinction_frequency": lambda: extinction_frequency(env, x0, t, 8, OPTS,
                                                             NoiseStream(1)),
        "mc_functional": lambda: mc_functional(env, x0, ZETA, 0.0, t, 8, OPTS, NoiseStream(1)),
    }


CASES = {
    # the pair rule: x0, x and lambda
    **{f"nan-x0-{k}": f for k, f in _mc(x0=(NAN, 1.0), t=0.5).items()},
    "nan-x0-first_moment": lambda: first_moment(feller_env(), (NAN, 1.0), 0.5),
    "nan-x0-moment_bound": lambda: moment_bound(feller_env(), (1.0, NAN), 0.5),
    "negative-x0-moment_bound": lambda: moment_bound(feller_env(), (-1.0, 0.0), 0.5),
    "nan-x-extinction_prob": lambda: extinction_prob(feller_env(), (NAN, 0.0), 0.5),
    "nan-x-laplace_transform": lambda: laplace_transform(feller_env(), (0.0, NAN), 0.0, 0.5,
                                                         (1.0, 1.0)),
    "nan-lambda": lambda: solve_backward(feller_env(), 0.5, (NAN, 1.0)),
    # starts and points are finite
    **{f"inf-x0-{k}": f for k, f in _mc(x0=(INF, 0.0), t=0.5).items()},
    "inf-x0-first_moment": lambda: first_moment(feller_env(), (INF, 0.0), 0.5),
    "inf-x0-moment_bound": lambda: moment_bound(feller_env(), (0.0, INF), 0.5),
    "inf-x-extinction_prob": lambda: extinction_prob(feller_env(), (INF, 0.0), 0.5),
    "inf-x-laplace_transform": lambda: laplace_transform(feller_env(), (0.0, INF), 0.0, 0.5,
                                                         (1.0, 1.0)),
    "nan-step": lambda: SimOptions(step=NAN),
    "nan-small_jump_eps": lambda: SimOptions(small_jump_eps=NAN),
    "inf-step": lambda: SimOptions(step=INF),
    "inf-small_jump_eps": lambda: SimOptions(small_jump_eps=INF),
    # the time-window rule, Monte Carlo and analytic alike
    **{f"t-past-horizon-{k}": f for k, f in _mc(t=1.5).items()},
    "nan-t-simulate_path": _mc(t=NAN)["simulate_path"],
    "t-past-horizon-moment_bound": lambda: moment_bound(feller_env(), (1.0, 0.0), 1.5),
    "nan-t-first_moment": lambda: first_moment(feller_env(), (1.0, 0.0), NAN),
    # model data: densities, atom masses and measure parameters
    "nan-density-value": lambda: Density.constant(NAN),
    "nan-density-knot": lambda: Density.piecewise_linear([(0.0, 1.0), (NAN, 2.0)]),
    "nan-config-density": lambda: _from_config(
        '{"b_cross": {"density": {"kind": "constant", "v": NaN}}}'),
    "nan-config-jump-weight": lambda: _from_config(
        '{"m": {"density_components": [{"rate": {"kind": "constant", "v": 1.0}, '
        '"measure": {"kind": "dirac", "z": [0.5, 0.2], "weight": NaN}}]}}'),
    "nan-cross-atom-mass": lambda: _validated(make_env(b12=atoms_only((0.5, NAN)))),
    "nan-diagonal-atom-mass": lambda: _validated(make_env(b11=atoms_only((0.5, NAN)))),
    "nan-atom-time": lambda: atoms_only((NAN, 1.0)),
    "nan-dirac-location": lambda: Dirac((NAN, 1.0)),
    "nan-dirac-weight": lambda: Dirac((1.0, 0.0), NAN),
    "nan-exp-rate": lambda: ExpProduct(NAN, 1.0),
    "nan-exp-weight": lambda: ExpProduct(1.0, 1.0, NAN),
    "nan-capped-exp-cap": lambda: CappedExpProduct(1.0, 1.0, NAN),
    "nan-stable-alpha": lambda: StableAxis(0, NAN),
    "nan-stable-weight": lambda: StableAxis(0, 1.5, NAN),
    "nan-capped-stable-cap": lambda: CappedStableAxis(0, 1.5, NAN),
    "nan-jump-atom-time": lambda: JumpKernel((), ((NAN, Dirac((0.5, 0.0))),)),
    "zero-jump-atom-time": lambda: JumpKernel((), ((0.0, Dirac((0.5, 0.0))),)),
    "negative-jump-atom-time": lambda: JumpKernel((), ((-0.5, Dirac((0.5, 0.0))),)),
}


@pytest.mark.parametrize("case", CASES)
def test_inadmissible_input_is_rejected(case):
    with pytest.raises(ValueError):
        CASES[case]()
