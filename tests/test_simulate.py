import math
import tracemalloc

import numpy as np
import pytest

from bibranch.cumulant import solve_backward
from bibranch.densities import Density
from bibranch.environment import JumpKernel, validate
from bibranch.measures import Dirac, ExpProduct, StableAxis
from bibranch.moments import first_moment
from bibranch.noise import NoiseStream
from bibranch.verify import dirac_cross_env
from bibranch.simulate import (
    SimOptions,
    SimulationError,
    _Coupled,
    _SnapshotCollector,
    _StepPlan,
    _event_paths,
    _pair_start,
    _run,
    coupled_order_violations,
    coupled_pair,
    extinction_frequency,
    simulate_atom,
    simulate_ensemble,
    simulate_path,
    truncate_large_jumps,
)

from conftest import atoms_only, const, feller_env, make_env


def test_zero_env_constant_path():
    traj = simulate_path(make_env(), (1.0, 2.0), 1.0, SimOptions(step=1e-2), NoiseStream(1))
    assert np.all(traj.states == [1.0, 2.0])
    assert traj.absorbed_at is None


def test_origin_is_absorbing():
    env = make_env(b11=const(1.0), c1=const(0.5),
                   m1=JumpKernel(((Density.constant(0.5), Dirac((0.3, 0.1), 1.0)),)))
    traj = simulate_path(env, (0.0, 0.0), 1.0, SimOptions(step=1e-2), NoiseStream(1))
    assert np.all(traj.states == 0.0)
    assert traj.absorbed_at == 0.0


def test_deterministic_env_tracks_linear_flow():
    env = make_env(b11=const(0.8), b12=const(0.4), b21=const(0.2), b22=const(-0.3))
    h = 1e-4
    traj = simulate_path(env, (1.0, 2.0), 1.0, SimOptions(step=h), NoiseStream(3))
    exact = first_moment(env, (1.0, 2.0), 1.0).at(1.0)
    assert np.max(np.abs(traj.states[-1] - exact)) < 5 * h


def test_all_states_nonnegative_and_absorption_sticky():
    env = make_env(b11=const(1.5), c1=const(0.8))
    for pid in range(5):
        traj = simulate_path(env, (0.3, 0.0), 1.0, SimOptions(step=1e-3), NoiseStream(11),
                             path_id=pid)
        assert np.all(traj.states >= 0.0)
        if traj.absorbed_at is not None:
            after = traj.states[traj.times >= traj.absorbed_at]
            assert np.all(after == 0.0)


def test_path_reproducibility_bitwise():
    env = make_env(b11=const(0.5), c1=const(0.3),
                   m1=JumpKernel(((Density.constant(0.6), Dirac((0.4, 0.2), 1.0)),)))
    opts = SimOptions(step=1e-3)
    t1 = simulate_path(env, (1.0, 1.0), 1.0, opts, NoiseStream(9), path_id=4)
    t2 = simulate_path(env, (1.0, 1.0), 1.0, opts, NoiseStream(9), path_id=4)
    assert np.array_equal(t1.states, t2.states)
    t3 = simulate_path(env, (1.0, 1.0), 1.0, opts, NoiseStream(9), path_id=5)
    assert not np.array_equal(t1.states, t3.states)


def test_ensemble_reproducible_and_zero_env_exact():
    stats = simulate_ensemble(make_env(), (1.0, 0.5), 1.0, (0.5, 1.0),
                              [(1.0, 1.0)], 500, SimOptions(step=1e-2), NoiseStream(5))
    assert stats.laplace[-1, 0] == pytest.approx(math.exp(-1.5), rel=1e-12)
    # identical samples: SE vanishes up to the rounding of the sample mean
    assert stats.laplace_se[-1, 0] < 1e-15
    assert np.all(stats.se_mean < 1e-15)
    again = simulate_ensemble(make_env(), (1.0, 0.5), 1.0, (0.5, 1.0),
                              [(1.0, 1.0)], 500, SimOptions(step=1e-2), NoiseStream(5))
    assert np.array_equal(stats.mean, again.mean)


def test_simulate_atom_identity_and_bottleneck():
    env = make_env(b11=atoms_only((0.5, 1.0)))
    rng = NoiseStream(2).substream("atom")
    out = simulate_atom(env, 0.3, (1.7, 0.4), rng)
    assert out == pytest.approx([1.7, 0.4])
    out = simulate_atom(env, 0.5, (1.7, 0.4), rng)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.4)


def test_simulate_atom_martingale_identity():
    # atom only in m_1: 0.4 Dirac((1,0)); conditional mean is preserved
    env = make_env(m1=JumpKernel((), ((0.5, Dirac((1.0, 0.0), 0.4)),)))
    rng = NoiseStream(7).substream("atom")
    n = 1_000_000
    x_left = np.tile([2.0, 0.0], (n, 1))
    out = simulate_atom(env, 0.5, x_left, rng)
    # X_1(s) = 2 * 0.6 + Poisson(0.8); mean 2.0, sd sqrt(0.8)
    se = math.sqrt(0.8 / n)
    assert abs(out[:, 0].mean() - 2.0) < 4 * se
    assert np.all(out[:, 1] == 0.0)


def test_atom_cross_mass_reaches_other_coordinate():
    env = make_env(m2=JumpKernel((), ((0.5, Dirac((0.7, 0.2), 1.0)),)))
    rng = NoiseStream(8).substream("atom")
    n = 200_000
    out = simulate_atom(env, 0.5, np.tile([0.0, 1.0], (n, 1)), rng)
    # every m_2 event adds (0.7, 0.2); N ~ Poisson(1.0)
    assert out[:, 0].mean() == pytest.approx(0.7, abs=4 * 0.7 / math.sqrt(n))
    # X_2 keeps (1 - delta_2) + own jumps, delta_2 = 0.2
    assert out[:, 1].mean() == pytest.approx(1.0, abs=4 * 0.2 / math.sqrt(n))


def test_truncate_identity_below_cap():
    env = make_env(m1=JumpKernel(((Density.constant(1.0), Dirac((3.0, 0.0), 1.0)),)))
    out = truncate_large_jumps(env, 5.0)
    assert out.m[0].density_components[0][1].z == (3.0, 0.0)
    assert out.b[0][0].is_zero


def test_truncate_dirac_adds_killing_drift():
    env = make_env(m1=JumpKernel(((Density.constant(1.0), Dirac((3.0, 0.0), 1.0)),)))
    out = truncate_large_jumps(env, 2.0)
    assert out.m[0].density_components[0][1].z == (2.0, 0.0)
    assert out.b[0][0].density(0.4) == pytest.approx(1.0)  # (3-2) * rate * weight
    assert validate(out).passed


def test_truncate_atom_keeps_delta():
    from bibranch.environment import delta
    env = make_env(m1=JumpKernel((), ((0.5, Dirac((3.0, 0.0), 0.3)),)))
    assert delta(env, 0, 0.5) == pytest.approx(0.9)
    out = truncate_large_jumps(env, 1.0)
    # capped own mass 0.3*1 plus killing atom 0.3*(3-1) keeps delta at 0.9
    assert delta(out, 0, 0.5) == pytest.approx(0.9)
    assert validate(out).passed


def test_truncated_cumulants_monotone_in_cap():
    env = make_env(b11=const(0.5),
                   m1=JumpKernel(((Density.constant(0.5), StableAxis(0, 1.5, 0.15)),)))
    lam = (2.0, 1.0)
    v_full = solve_backward(env, 1.0, lam).at(0.0)
    prev = None
    dists = []
    for k in (1.0, 2.0, 4.0, 8.0):
        vk = solve_backward(truncate_large_jumps(env, k), 1.0, lam).at(0.0)
        if prev is not None:
            assert np.all(vk >= prev - 1e-10)
        assert np.all(vk <= v_full + 1e-10)
        dists.append(np.linalg.norm(vk - v_full))
        prev = vk
    assert dists[-1] < dists[0]


def test_coupled_equal_starts_identical_jump_only():
    env = make_env(b11=const(0.4),
                   m1=JumpKernel(((Density.constant(1.0), Dirac((0.5, 0.2), 1.0)),)))
    lo, hi = coupled_pair(env, (1.0, 0.5), (1.0, 0.5), 1.0, SimOptions(step=1e-2),
                          NoiseStream(13))
    assert np.array_equal(lo.states, hi.states)


def test_coupled_equal_starts_identical_with_diffusion():
    # diffusion and Gaussian small jumps both read the shared sheet
    env = make_env(b11=const(0.4), c1=const(0.5), c2=const(0.3),
                   m1=JumpKernel(((Density.constant(0.5), StableAxis(0, 1.5, 0.15)),)))
    opts = SimOptions(step=1e-2, small_jump_mode="gaussian")
    lo, hi = coupled_pair(env, (1.0, 0.5), (1.0, 0.5), 1.0, opts, NoiseStream(13))
    assert np.array_equal(lo.states, hi.states)
    assert np.array_equal(lo.left_states, hi.left_states)
    assert np.any(lo.states[1:] != lo.states[0])


def _coupled_at(env, x_low, x_high, t, h, opts, seed):
    """States of the low and high copies of h coupled pairs at time t."""
    snap = _SnapshotCollector((t,))
    _run(_StepPlan(env, 0.0, t, opts), _pair_start(x_low, x_high, h),
         NoiseStream(seed).substream("coupled-batch"), (snap,), _Coupled(h))
    return snap.snaps[t][:h], snap.snaps[t][h:]


def test_coupled_copies_have_the_process_law():
    # each copy of a coupled batch is a path of the process: its mean at
    # t=1 matches the exact first moment
    env = dirac_cross_env()
    h = 20_000
    starts = ((1.0, 0.5), (2.0, 1.0))
    copies = _coupled_at(env, *starts, 1.0, h, SimOptions(step=1e-3), 53)
    for X, x0 in zip(copies, starts):
        exact = first_moment(env, x0, 1.0).at(1.0)
        se = X.std(axis=0, ddof=1) / math.sqrt(h)
        assert np.all(np.abs(X.mean(axis=0) - exact) < 4 * se)


def test_coupled_sheet_noise_has_the_process_variance():
    # driftless Feller: the Euler variance is 2 c t x0 exactly while the
    # clamp never acts, so each copy must carry its full sheet noise
    c, t, h = 0.5, 0.25, 20_000
    copies = _coupled_at(feller_env(0.0, c), (1.0, 0.0), (2.0, 0.0), t, h,
                         SimOptions(step=1e-2), 67)
    for X, x0 in zip(copies, (1.0, 2.0)):
        var = 2.0 * c * t * x0
        assert abs(X[:, 0].var(ddof=1) - var) < 4 * var * math.sqrt(2.0 / h)


def test_coupled_pairs_above_any_fixed_level():
    # states far above 1e12 and growing: thinning uses each pair's own level
    env = make_env(b11=const(-1.0), b12=const(0.1),
                   m1=JumpKernel(((Density.constant(1e-12), Dirac((0.5, 0.2), 1.0)),)))
    viol, checks = coupled_order_violations(env, (1e13, 0.0), (2e13, 0.0), 1.0, 50,
                                            SimOptions(step=1e-2), NoiseStream(59))
    assert (viol, checks) == (0, 50 * 100)


def test_coupled_feller_pair_bounded_memory():
    tracemalloc.start()
    try:
        lo, hi = coupled_pair(feller_env(), (1e6, 0.0), (2e6, 0.0), 0.1,
                              SimOptions(step=1e-2), NoiseStream(61))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.all(lo.states >= 0.0) and np.all(hi.states[:, 0] > 1e6)


def test_coupled_pair_jump_only_ordered_exactly():
    env = make_env(b11=const(0.4), b12=const(0.1),
                   m1=JumpKernel(((Density.constant(1.0), Dirac((0.5, 0.2), 1.0)),)),
                   m2=JumpKernel(((Density.constant(0.7), ExpProduct(3.0, 2.0, 0.5)),)))
    for pid in range(5):
        lo, hi = coupled_pair(env, (1.0, 0.0), (2.0, 0.5), 1.0, SimOptions(step=1e-2),
                              NoiseStream(17), pair_id=pid)
        assert np.all(lo.states <= hi.states)


def test_coupled_batch_matches_zero_violations():
    env = make_env(b11=const(0.4), b12=const(0.1),
                   m1=JumpKernel(((Density.constant(1.0), Dirac((0.5, 0.2), 1.0)),)))
    viol, checks = coupled_order_violations(env, (1.0, 0.0), (2.0, 0.5), 1.0, 200,
                                            SimOptions(step=5e-3), NoiseStream(19))
    assert viol == 0
    assert checks == 200 * 200


def test_coupled_batch_requires_diffusion_free():
    with pytest.raises(ValueError):
        coupled_order_violations(feller_env(), (1.0, 0.0), (2.0, 0.0), 1.0, 10,
                                 SimOptions(), NoiseStream(1))


def test_coupled_diffusive_violations_shrink_with_step():
    # Empirical convergence study for the Brownian-sheet diffusion coupling:
    # the order-violation rate is controlled by the time step; at step 5e-4
    # it is below 2% of mesh points for this pair.
    env = feller_env(1.0, 0.5)
    rates = []
    for h, n_pairs in ((1e-2, 120), (5e-4, 30)):
        viol = 0
        steps = 0
        for pid in range(n_pairs):
            lo, hi = coupled_pair(env, (1.0, 0.0), (2.0, 0.0), 1.0,
                                  SimOptions(step=h), NoiseStream(23),
                                  pair_id=pid)
            viol += int(np.sum((lo.states > hi.states).any(axis=1)))
            steps += len(lo.times)
        rates.append(viol / steps)
    assert rates[1] <= rates[0]
    assert rates[1] < 0.02


def test_extinction_frequency_trivials():
    p, se = extinction_frequency(make_env(), (1.0, 0.0), 1.0, 200,
                                 SimOptions(step=1e-2), NoiseStream(3))
    assert p == 0.0
    env = make_env(b11=atoms_only((0.5, 1.0)))
    p, se = extinction_frequency(env, (1.0, 0.0), 1.0, 200,
                                 SimOptions(step=1e-2), NoiseStream(3))
    assert p == 1.0 and se == 0.0


def test_gaussian_small_jump_mode_runs():
    env = make_env(b11=const(0.5),
                   m1=JumpKernel(((Density.constant(0.5), StableAxis(0, 1.5, 0.15)),)))
    stats = simulate_ensemble(env, (1.0, 0.0), 0.5, (0.5,), [(1.0, 0.0)], 2000,
                              SimOptions(step=2e-3, small_jump_mode="gaussian"),
                              NoiseStream(29))
    assert np.all(stats.mean >= 0.0)
    assert 0.0 < stats.laplace[-1, 0] < 1.0


def test_event_paths_zero_state_gets_no_events():
    # interior and trailing zeros; a large rate makes every positive path fire
    x = np.array([0.0, 1.0, 0.0, 2.5, 0.0, 0.0])
    rng = np.random.default_rng(31)
    idx = np.concatenate([_event_paths(rng, 50.0, x) for _ in range(200)])
    assert idx.size > 0
    assert set(np.unique(idx).tolist()) == {1, 3}
    assert _event_paths(rng, 50.0, np.zeros(4)).size == 0
    assert _event_paths(rng, 50.0, np.zeros(0)).size == 0


def test_zero_mass_atom_time_is_a_plain_mesh_point():
    env = make_env(b11=const(0.3) + atoms_only((0.5, 0.0)))
    traj = simulate_path(env, (1.0, 2.0), 1.0, SimOptions(step=1e-3), NoiseStream(0))
    assert traj.states[-1] == pytest.approx([math.exp(-0.3), 2.0], rel=1e-3)


def test_atom_zero_rows_stay_exactly_zero():
    env = make_env(m1=JumpKernel((), ((0.5, Dirac((0.0, 0.2), 5.0)),)))
    rng = NoiseStream(33).substream("atom")
    x_left = np.tile([[2.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], (2000, 1))
    out = simulate_atom(env, 0.5, x_left, rng)
    dead = x_left[:, 0] == 0.0
    assert np.all(out[dead] == 0.0)
    # live rows get Poisson(5 x_1) events of size 0.2 on the second coordinate
    assert out[~dead, 1].mean() == pytest.approx(0.2 * 5.0 * 1.5, rel=0.05)


def test_event_paths_counts_are_independent_poisson():
    x = np.array([0.3, 1.0, 0.0, 2.0, 4.5])
    r, reps = 1.5, 20_000
    rng = np.random.default_rng(37)
    counts = np.stack([np.bincount(_event_paths(rng, r, x), minlength=x.size)
                       for _ in range(reps)])
    lam = r * x
    assert np.all(counts[:, 2] == 0)
    live = lam > 0
    se_mean = np.sqrt(lam[live] / reps)
    assert np.all(np.abs(counts[:, live].mean(axis=0) - lam[live]) < 4 * se_mean)
    # Poisson: var = lam, and the sample variance has SE sqrt((lam + 2 lam^2) / reps)
    se_var = np.sqrt((lam[live] + 2 * lam[live] ** 2) / reps)
    assert np.all(np.abs(counts[:, live].var(axis=0, ddof=1) - lam[live]) < 4 * se_var)


class _ConstUniformRng:
    """Seven events, every uniform equal to u."""

    def __init__(self, u):
        self.u = u

    def poisson(self, lam):
        return 7

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("u, x, path", [
    (1.0 - 2.0 ** -53, np.array([0.0, 1.5, 0.0, 3.0, 0.0, 0.0]), 3),
    # a subnormal mass makes U * mass round up to the mass itself
    (1.0 - 2.0 ** -53, np.array([0.0, 5e-324, 0.0, 0.0]), 1),
    (0.0, np.array([0.0, 1.5, 0.0, 3.0, 0.0, 0.0]), 1),
])
def test_event_paths_extreme_uniforms_land_on_positive_paths(u, x, path):
    idx = _event_paths(_ConstUniformRng(u), 1.0, x)
    assert idx.size == 7
    assert np.all(idx == path)


def test_step_overflow_guard_threshold():
    # one step of width 0.25 at unit rate and mass: expected events 0.25 * x
    env = make_env(m1=JumpKernel(((Density.constant(1.0), Dirac((1.0, 0.0), 1.0)),)))
    opts = SimOptions(step=0.25, jump_count_guard=2.0)
    # exactly at the guard on every path: the summed rate is far above it
    simulate_ensemble(env, (8.0, 0.0), 0.25, (0.25,), (), 10, opts, NoiseStream(41))
    with pytest.raises(SimulationError, match="step-overflow"):
        simulate_path(env, (8.5, 0.0), 0.25, opts, NoiseStream(41))
    # coupled pairs: the guard acts on each pair's level max(x_low, x_high)
    coupled_order_violations(env, (0.0, 0.0), (8.0, 0.0), 0.25, 10, opts, NoiseStream(41))
    with pytest.raises(SimulationError, match="step-overflow"):
        coupled_order_violations(env, (0.0, 0.0), (8.5, 0.0), 0.25, 10, opts,
                                 NoiseStream(41))


def test_negative_start_rejected():
    env = make_env(m1=JumpKernel(((Density.constant(1.0), Dirac((1.0, 0.0), 1.0)),)),
                   m2=JumpKernel((), ((0.5, Dirac((0.0, 0.2), 1.0)),)))
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_path(env, (-0.5, 1.0), 0.1, SimOptions(step=1e-2), NoiseStream(43))
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_atom(env, 0.5, (1.0, -0.5), NoiseStream(43).substream("atom"))
    with pytest.raises(ValueError, match="nonnegative"):
        coupled_pair(env, (-0.5, 0.0), (1.0, 0.0), 0.1, SimOptions(step=1e-2), NoiseStream(43))
    with pytest.raises(ValueError, match="nonnegative"):
        coupled_order_violations(env, (-0.5, 0.0), (1.0, 0.0), 0.1, 10,
                                 SimOptions(step=1e-2), NoiseStream(43))


def test_checkpoint_outside_the_horizon_is_a_value_error():
    env, opts = make_env(), SimOptions(step=1e-2)
    with pytest.raises(ValueError, match=r"checkpoint 1.0 outside \[0.0, 0.5\]"):
        simulate_ensemble(env, (1.0, 0.5), 0.5, (0.5, 1.0), [], 16, opts, NoiseStream(5))
    with pytest.raises(ValueError, match=r"checkpoint 0.1 outside \[0.2, 0.5\]"):
        simulate_ensemble(env, (1.0, 0.5), 0.5, (0.1,), [], 16, opts, NoiseStream(5), t0=0.2)
