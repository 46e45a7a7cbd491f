import math

import numpy as np
import pytest

from bibranch.densities import Density
from bibranch.environment import JumpKernel
from bibranch.measures import Dirac, ExpProduct
from bibranch.moments import first_moment, moment_bound

from conftest import atoms_only, const, make_env, random_env


def test_zero_environment_constant_mean():
    curve = first_moment(make_env(), (1.3, 0.4), 1.0)
    for t in (0.0, 0.5, 1.0):
        assert curve.at(t) == pytest.approx([1.3, 0.4])


def test_diagonal_decay():
    b = 0.8
    curve = first_moment(make_env(b11=const(b)), (1.0, 0.0), 1.0)
    for t in (0.25, 0.6, 1.0):
        assert curve.at(t)[0] == pytest.approx(math.exp(-b * t), rel=1e-9)
        assert curve.at(t)[1] == 0.0


def test_pure_cross_drift():
    curve = first_moment(make_env(b21=const(1.0)), (0.0, 1.0), 1.0)
    for t in (0.3, 1.0):
        assert curve.at(t) == pytest.approx([t, 1.0], rel=1e-10)


def test_jump_first_moment_enters_cross_term():
    # m_2 sends z_1 mass 0.5 per unit time per unit X_2
    env = make_env(m2=JumpKernel(((Density.constant(1.0), ExpProduct(2.0, 1.0, 1.0)),)))
    curve = first_moment(env, (0.0, 1.0), 1.0)
    # M_2 grows from its own-kernel... own-kernel jumps are compensated; only
    # the cross moment feeds M_1: dM_1 = 0.5 M_2 dt with M_2 constant 1
    assert curve.at(1.0)[0] == pytest.approx(0.5, rel=1e-9)
    assert curve.at(1.0)[1] == pytest.approx(1.0, rel=1e-9)


def test_atom_update_with_cross_and_jump_atoms():
    env = make_env(
        b11=atoms_only((0.5, 0.3)),
        b21=atoms_only((0.5, 0.2)),
        m2=JumpKernel((), ((0.5, Dirac((0.4, 0.0), 0.5)),)),
    )
    curve = first_moment(env, (1.0, 2.0), 1.0)
    left = curve.left_at(0.5)
    post = curve.at(0.5)
    # M_1 jumps to M_1 (1 - db11) + M_2 (db21 + z1-mass of m_2 atom)
    assert left == pytest.approx([1.0, 2.0])
    assert post[0] == pytest.approx(1.0 * 0.7 + 2.0 * (0.2 + 0.2))
    assert post[1] == pytest.approx(2.0)
    # the grid carries both sides of the atom
    ts, vs, is_atom, grid_left = curve.grid()
    k = int(np.flatnonzero(ts == 0.5)[0])
    assert is_atom[k] and np.count_nonzero(is_atom) == 1
    assert np.array_equal(grid_left[k], left)
    assert np.array_equal(vs[k], post)


def test_zero_mass_atom_time_leaves_the_mean_alone():
    env = make_env(b11=const(0.3) + atoms_only((0.5, 0.0)))
    curve = first_moment(env, (1.0, 2.0), 1.0)
    assert curve.at(1.0) == pytest.approx([math.exp(-0.3), 2.0], rel=1e-9)


def test_bound_zero_env_is_initial_state():
    assert moment_bound(make_env(), (1.0, 2.0), 1.0) == pytest.approx([1.0, 2.0])


def test_bound_diagonal_case_is_loose_exponential():
    b = 0.8
    got = moment_bound(make_env(b11=const(b)), (1.0, 0.0), 1.0)
    assert got[0] == pytest.approx(math.exp(b), rel=1e-9)
    assert got[0] >= math.exp(-b)


def test_bound_dominates_mean_on_random_envs(rng):
    for _ in range(100):
        env = random_env(rng)
        x0 = tuple(rng.uniform(0.0, 2.0, size=2))
        curve = first_moment(env, x0, 1.0)
        for t in (0.25, 0.5, 0.75, 1.0):
            bound = moment_bound(env, x0, t)
            m = curve.at(t)
            assert np.all(bound >= m - 1e-9), (bound, m)
