import numpy as np
import pytest

from bibranch.densities import Density, SignedMeasure1D
from bibranch.environment import (
    EnvSpec,
    JumpKernel,
    atom_info,
    bar_b,
    delta,
    validate,
)
from bibranch.functionals import WeightMeasure
from bibranch.measures import (CappedStableAxis, Dirac, ExpProduct, StableAxis,
                               UncompensatedStableError)

from conftest import atoms_only, const, make_env, random_env


def test_empty_environment_passes():
    assert validate(EnvSpec.zero(1.0)).passed


def test_delta_bound_violation_reported():
    env = make_env(b11=atoms_only((1.0, 1.2)), horizon=2.0)
    report = validate(env)
    assert not report.passed
    v = report.violations[0]
    assert v.constraint == "delta-bound"
    assert "1" in v.location
    assert v.value == pytest.approx(1.2)


def test_delta_bound_reads_the_atoms_up_to_the_horizon():
    # one window query over (0, horizon]: an atom past the horizon is not
    # checked, one at it is, and the order is by type, then by time
    env = make_env(b11=atoms_only((0.5, 1.5), (1.0, 1.5), (1.5, 1.5)),
                   b22=atoms_only((0.7, 2.0)), b12=atoms_only((0.2, 3.0)), horizon=1.0)
    report = validate(env)
    assert [(v.constraint, v.location, v.value) for v in report.violations] == [
        ("delta-bound", "type 1, t=0.5", 1.5), ("delta-bound", "type 1, t=1", 1.5),
        ("delta-bound", "type 2, t=0.7", 2.0)]


def test_delta_boundary_value_allowed():
    env = make_env(b11=atoms_only((1.0, 1.0)), horizon=2.0)
    assert validate(env).passed
    assert delta(env, 0, 1.0) == 1.0


def test_stable_alpha_out_of_range_is_type_error():
    # alpha outside (1,2) is rejected by the component contract itself
    with pytest.raises(ValueError):
        StableAxis(0, 0.8, 1.0)


def test_uncompensated_stable_rejected_by_validate():
    env = make_env(m1=JumpKernel(((Density.constant(1.0), StableAxis(1, 1.5, 1.0)),)))
    report = validate(env)
    assert not report.passed
    assert any(v.constraint == "uncompensated-stable" for v in report.violations)


@pytest.mark.parametrize("meas", [StableAxis(1, 1.5, 1.0), CappedStableAxis(1, 1.5, 2.0, 1.0)],
                         ids=["stable", "capped-stable"])
def test_power_tail_on_the_wrong_axis_is_one_violation(meas):
    report = validate(make_env(m1=JumpKernel(((Density.constant(1.0), meas),))))
    assert [v.constraint for v in report.violations] == ["uncompensated-stable"]


def test_stable_atom_infinite_mass_rejected():
    env = make_env(m1=JumpKernel((), ((0.5, StableAxis(0, 1.5, 1.0)),)))
    report = validate(env)
    assert any(v.constraint == "atom-finite-mass" for v in report.violations)


def test_negative_cross_density_rejected():
    env = make_env(b12=const(-0.1))
    report = validate(env)
    assert any(v.constraint == "nonnegative-density" for v in report.violations)


def test_diffusion_clock_must_be_atomless():
    env = make_env(c1=SignedMeasure1D(Density.constant(0.1), ((0.5, 0.1),)))
    report = validate(env)
    assert any(v.constraint == "diffusion-atoms" for v in report.violations)


def test_delta_hand_sum():
    env = make_env(
        b11=atoms_only((0.4, 0.3)),
        m1=JumpKernel((), ((0.4, Dirac((1.0, 0.0), 0.5)),)),
    )
    assert delta(env, 0, 0.4) == pytest.approx(0.8)
    assert delta(env, 0, 0.1) == 0.0
    assert delta(env, 1, 0.4) == 0.0


def test_bar_b_zero_kernel_is_identity():
    env = make_env(b21=const(0.3))
    bb21 = bar_b(env, 1, 0)
    assert bb21.density(0.5) == pytest.approx(0.3)
    assert bb21.atoms == ()


def test_bar_b_exponential_moment():
    env = make_env(m2=JumpKernel(((Density.constant(1.0), ExpProduct(2.0, 1.0, 1.0)),)))
    bb21 = bar_b(env, 1, 0)  # z_1 moment of m_2
    assert bb21.density(0.7) == pytest.approx(0.5)


def test_bar_b_merges_atom_moments():
    env = make_env(
        b12=atoms_only((0.6, 0.1)),
        m1=JumpKernel((), ((0.6, Dirac((0.0, 3.0), 0.2)),)),
    )
    bb12 = bar_b(env, 0, 1)
    assert bb12.atom_mass(0.6) == pytest.approx(0.1 + 0.6)


def test_bar_b_dominates_raw_cross(rng):
    for _ in range(20):
        env = random_env(rng)
        for (j, i) in ((0, 1), (1, 0)):
            bb = bar_b(env, j, i)
            ts = np.linspace(0.0, 1.0, 9)
            assert np.all(np.asarray(bb.density(ts))
                          >= np.asarray(env.b[j][i].density(ts)) - 1e-12)
            for t, m in env.b[j][i].atoms:
                assert bb.atom_mass(t) >= m - 1e-12


# the K-integral of one spatial component, integral of K_i(lam, z) nu(dz)
def test_K_integral_zero_lambda():
    for meas in (Dirac((1.0, 2.0), 0.5), ExpProduct(2.0, 1.0, 1.0), StableAxis(0, 1.5, 1.0)):
        assert meas.compensated_exponent(0, (0.0, 0.0)) == 0.0


def test_K_integral_uncompensated_error():
    with pytest.raises(UncompensatedStableError):
        StableAxis(1, 1.5, 1.0).compensated_exponent(0, (1.0, 1.0))


def test_K_integral_convex_on_own_axis():
    # one-dimensional compensated exponent: nonnegative, convex, increasing
    meas = Dirac((0.8, 0.0), 1.0)
    lams = np.linspace(0.0, 10.0, 21)
    vals = [meas.compensated_exponent(0, (l, 0.0)) for l in lams]
    assert all(v >= 0.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-12)


def test_atom_times_merge_and_window():
    env = make_env(
        b11=atoms_only((0.5, 0.2)),
        m2=JumpKernel((), ((0.5, Dirac((0.1, 0.3), 0.2)), (0.9, Dirac((0.2, 0.0), 0.1)))),
    )
    assert env.atom_times(0.0, 1.0) == [0.5, 0.9]
    assert env.hard_points(0.0, 1.0) == [0.0, 0.5, 0.9, 1.0]
    first = atom_info(env, 0.5)
    assert first.time == 0.5
    assert first.db[0][0] == pytest.approx(0.2)
    assert len(first.jumps[1]) == 1  # the m_2 atom rides the same event
    # half-open window (r, t]
    assert env.atom_times(0.6, 1.0) == [0.9]
    assert env.atom_times(0.5, 0.9) == [0.9]
    assert env.hard_points(0.5, 0.9) == [0.5, 0.9]
    # caller-supplied extra times appear even without environment mass
    assert env.atom_times(0.0, 1.0, extra=(0.7,)) == [0.5, 0.7, 0.9]
    assert env.hard_points(0.0, 1.0, extra=(0.7,)) == [0.0, 0.5, 0.7, 0.9, 1.0]
    assert atom_info(env, 0.7) is None


def test_smooth_environment_hard_points_are_ends():
    env = make_env(b11=const(1.0), c1=const(0.5))
    assert env.atom_times(0.0, 1.0) == []
    assert env.hard_points(0.0, 1.0) == [0.0, 1.0]


def test_hard_points_with_weight_measure():
    env = make_env(b11=atoms_only((0.5, 0.2)))
    ramp = Density.piecewise_linear([(0.0, 1.0), (0.3, 0.0), (2.0, 0.0)])
    zeta = WeightMeasure((SignedMeasure1D(ramp, ((0.8, 0.4),)),
                          SignedMeasure1D(Density.zero(), ((0.2, 0.1), (1.5, 0.3)))))
    assert zeta.atom_times == (0.2, 0.8, 1.5)
    # zeta atoms and breakpoints inside the window join the environment's
    assert env.hard_points(0.0, 1.0, zeta) == [0.0, 0.2, 0.3, 0.5, 0.8, 1.0]
    assert env.hard_points(0.25, 1.0, zeta) == [0.25, 0.3, 0.5, 0.8, 1.0]
    # extras outside (lo, hi] are dropped
    assert env.hard_points(0.0, 1.0, zeta, extra=(-0.5, 0.0, 0.6, 1.0, 1.2)) == \
        [0.0, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0]


def test_random_envs_validate_and_deltas_bounded(rng):
    for _ in range(50):
        env = random_env(rng)
        for i in range(2):
            for t in set(env.b[i][i].atom_times) | set(env.m[i].atom_times):
                assert 0.0 <= delta(env, i, t) <= 1.0


def _reference_windows(env, lo, hi, zeta=None, extra=()):
    """atom_times, density_breakpoints and hard_points, built from sets of every
    coefficient on each call."""
    times = set()
    for i in range(2):
        for j in range(2):
            times.update(t for t, _ in env.b[i][j].atoms_in(lo, hi))
        times.update(t for t in env.m[i].atom_times if lo < t <= hi)
    atoms = sorted(times | {t for t in extra if lo < t <= hi})
    pts = set()
    for i in range(2):
        for j in range(2):
            pts.update(env.b[i][j].density.breakpoints(lo, hi))
        pts.update(env.c[i].density.breakpoints(lo, hi))
        for rate, _ in env.m[i].density_components:
            pts.update(rate.breakpoints(lo, hi))
    knots = sorted(pts)
    hard_extra = (*extra, *zeta.atom_times) if zeta is not None else extra
    hard = {lo, hi, *(t for t in times), *(t for t in hard_extra if lo < t <= hi), *knots}
    for sm in zeta.per_type if zeta is not None else ():
        hard.update(sm.density.breakpoints(lo, hi))
    return atoms, knots, sorted(hard)


def _window_envs():
    from bibranch.simulate import truncate_large_jumps
    from bibranch.verify import atom_rich_env, suite

    ramp = Density.piecewise_linear([(0.1, 0.2), (0.4, 0.6), (0.5, 0.1), (0.9, 0.3)])
    pulse = Density.piecewise_linear([(0.5, 1.0), (0.6, 0.0)])
    knotted = make_env(b11=SignedMeasure1D(ramp, ((0.4, 0.2), (0.7, 0.1))),
                       b12=SignedMeasure1D(Density.piecewise_linear([(0.25, 0.1), (0.7, 0.3)])),
                       c2=SignedMeasure1D(ramp),
                       m1=JumpKernel(((pulse, Dirac((0.1, 0.2), 0.5)),),
                                     ((0.7, Dirac((0.2, 0.1), 0.3)),
                                      (0.9, Dirac((0.1, 0.0), 1.0)))))
    assert validate(knotted).passed
    envs = [sc.env for sc in suite()] + [knotted]
    envs.append(truncate_large_jumps(atom_rich_env(), 0.3))
    assert envs[-1].b[1][1].atom_times == (0.45,)  # the cap puts a killing atom on b22
    return envs


def test_window_queries_equal_the_set_built_reference():
    zeta = WeightMeasure((SignedMeasure1D(Density.piecewise_linear([(0.0, 1.0), (0.3, 0.0)]),
                                          ((0.8, 0.4),)),
                          SignedMeasure1D(Density.zero(), ((0.45, 0.1), (0.5, 0.3)))))
    for env in _window_envs():
        pts = sorted({0.0, 1.0, *env.atom_times(-1.0, 2.0), *env.density_breakpoints(-1.0, 2.0)})
        # ends on every atom and knot, between them and outside [0, 1]
        ends = sorted({*pts, *((a + b) / 2 for a, b in zip(pts, pts[1:])), -0.5, 1.5})
        for lo in ends:
            for hi in ends:
                if hi < lo:
                    continue
                for extra in ((), (lo, hi, 0.45, 0.55, 0.7)):
                    for z in (None, zeta):
                        atoms, knots, hard = _reference_windows(env, lo, hi, z, extra)
                        assert env.atom_times(lo, hi, extra) == atoms
                        assert env.density_breakpoints(lo, hi) == knots
                        assert env.hard_points(lo, hi, z, extra) == hard
