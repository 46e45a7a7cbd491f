import math
import tracemalloc

import numpy as np
import pytest

from bibranch.cumulant import extinction_prob, solve_backward
from bibranch.densities import Density, SignedMeasure1D
from bibranch.environment import JumpKernel, validate
from bibranch.functionals import WeightMeasure
from bibranch.measures import Dirac, ExpProduct, StableAxis
from bibranch.moments import first_moment
from bibranch.noise import NoiseStream
from bibranch.verify import atom_rich_env, dirac_cross_env, stable_jump_env
from bibranch import simulate
from bibranch.simulate import (
    SimOptions,
    SimulationError,
    _INDEPENDENT,
    _Coupled,
    _FunctionalCollector,
    _OrderCollector,
    _SnapshotCollector,
    _StepPlan,
    _TrajectoryCollector,
    _Work,
    _block_search,
    _event_paths,
    _euler_step,
    _pair_start,
    _run,
    _run_eager,
    _run_flow,
    _takes_flow,
    _tile,
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


def test_atom_in_b21_feeds_type_one_from_type_two():
    env = make_env(b21=atoms_only((0.5, 0.3)))
    out = simulate_atom(env, 0.5, (0.0, 2.0), NoiseStream(9).substream("atom"))
    assert out[0] == 0.6 and out[1] == 2.0
    # with noise on type 2, the ensemble mean just after the atom is the exact mean
    env = make_env(b21=atoms_only((0.5, 0.3)), c2=const(0.3))
    n = 4000
    stats = simulate_ensemble(env, (0.0, 2.0), 1.0, (0.5, 1.0), (), n, SimOptions(step=1e-2),
                              NoiseStream(10))
    mean = first_moment(env, (0.0, 2.0), 1.0)
    for a, t in enumerate((0.5, 1.0)):
        assert mean.at(t) == pytest.approx([0.6, 2.0], rel=1e-12)
        assert np.all(np.abs(stats.mean[a] - mean.at(t)) < 4 * stats.se_mean[a])
    assert stats.mean[0][0] > 0.5


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


def test_coupled_diffusive_pair_stays_ordered_and_coalesces():
    # The gap X_high - X_low of the Brownian-sheet coupling is itself a
    # branching process with the same mechanism (Dawson & Li 2012): absorbed
    # at 0, so dead at time 1 with the extinction probability from a start of
    # 1, exp(-1 / (0.5 (e - 1))) = 0.312 here.  An Euler gap reflected at 0
    # instead crosses the copies on about 4 % of mesh points at any step size.
    env = feller_env(1.0, 0.5)
    for pid in range(3):
        lo, hi = coupled_pair(env, (1.0, 0.0), (2.0, 0.0), 1.0, SimOptions(step=5e-4),
                              NoiseStream(23), pair_id=pid)
        assert np.all(lo.states <= hi.states)
    exact, h = extinction_prob(env, (1.0, 0.0), 1.0), 4000
    for step in (1e-2, 2e-3):
        order, snap = _OrderCollector(h), _SnapshotCollector((1.0,))
        _run(_StepPlan(env, 0.0, 1.0, SimOptions(step=step)),
             _pair_start((1.0, 0.0), (2.0, 0.0), h),
             NoiseStream(23).substream("coupled-batch"), (order, snap), _Coupled(h))
        assert order.violations == 0
        X = snap.snaps[1.0]
        coalesced = float(np.mean(X[h:, 0] == X[:h, 0]))
        assert abs(coalesced - exact) < 4 * math.sqrt(exact * (1.0 - exact) / h)


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


class _CountingNormals:
    """A generator that records the size of every standard_normal draw."""

    def __init__(self, rng):
        self.rng, self.normal_sizes = rng, []

    def standard_normal(self, *args, out=None):
        z = self.rng.standard_normal(*args, out=out)
        self.normal_sizes.append(z.size)
        return z

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_diffusion_and_gaussian_small_jumps_are_one_normal_per_step():
    c, tail = 0.5, StableAxis(0, 1.5, 0.15)
    env = make_env(c1=const(c), m1=JumpKernel(((Density.constant(0.5), tail),)))
    h, n, x = 1e-2, 200_000, 1.0
    opts = SimOptions(step=h, small_jump_mode="gaussian")
    plan = _StepPlan(env, 0.0, 1.0, opts)
    assert plan.noisy == (True, False)
    X, work = _tile((x, 0.0), n), _Work(n)
    rng = _CountingNormals(NoiseStream(81).substream("s"))
    out = _euler_step(plan, 0, X, rng, _INDEPENDENT, work.free(X), work)
    assert rng.normal_sizes == [n]
    # without the tail's large jumps the step is the drift plus the one normal
    plan.channels = []
    out = _euler_step(plan, 0, X, rng, _INDEPENDENT, work.free(X), work)
    var = (2.0 * c + 0.5 * tail.small_var(opts.small_jump_eps)) * x * h
    increment = out[:, 0] - x * plan.lin_keep[0][0]
    assert abs(increment.var(ddof=1) - var) < 5 * var * math.sqrt(2.0 / n)


def test_coupled_batch_runs_the_small_jump_mode_it_is_given(monkeypatch):
    # the Gaussian small-jump term reads the shared sheet once per step, and
    # dropped small jumps draw no normal; either way the copies stay ordered
    env = make_env(b11=const(0.5),
                   m1=JumpKernel(((Density.constant(0.5), StableAxis(0, 1.5, 0.15)),)))
    sheet_draws, noise = [], _Coupled.noise
    monkeypatch.setattr(_Coupled, "noise",
                        lambda self, *a: sheet_draws.append(1) or noise(self, *a))
    seen = {}
    for mode in ("drop", "gaussian"):
        sheet_draws.clear()
        viol, _ = coupled_order_violations(env, (1.0, 0.0), (1.01, 0.0), 1.0, 200,
                                           SimOptions(step=1e-2, small_jump_mode=mode),
                                           NoiseStream(83))
        seen[mode] = (viol, len(sheet_draws))
    assert seen == {"drop": (0, 0), "gaussian": (0, 100)}


def test_event_paths_zero_state_gets_no_events():
    # interior and trailing zeros; a large rate makes every positive path fire
    x = np.array([0.0, 1.0, 0.0, 2.5, 0.0, 0.0])
    rng = np.random.default_rng(31)
    idx = np.concatenate([_event_paths(rng, 50.0, x) for _ in range(200)])
    assert idx.size > 0
    assert set(np.unique(idx).tolist()) == {1, 3}
    assert _event_paths(rng, 50.0, np.zeros(4)).size == 0
    assert _event_paths(rng, 50.0, np.zeros(0)).size == 0


class _NoEventRng:
    def poisson(self, lam):
        return 0


@pytest.mark.parametrize("n", [100, 8192])
def test_event_paths_without_events_builds_no_search(n, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a search was built for a step without events")

    monkeypatch.setattr(simulate, "_block_edges", built)
    monkeypatch.setattr(simulate, "_prefix_search", built)
    monkeypatch.setattr(np, "cumsum", built)
    assert _event_paths(_NoEventRng(), 1e-3, np.full(n, 0.5)).size == 0


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


# -- event placement on many blocks ---------------------------------------------

B = simulate._BLOCK
R = simulate._ROWS
# force the search of each event's block, or the prefix search of all paths in
# R rows or in one row
FORMS = {"block": {"_DENSE": 0, "_FEW_PATHS": 0},
         "rows": {"_DENSE": 10**9, "_FEW_PATHS": 0},
         "one-row": {"_DENSE": 10**9, "_FEW_PATHS": 10**9}}


def _force(form, monkeypatch):
    for name, value in FORMS[form].items():
        monkeypatch.setattr(simulate, name, value)


def _column_order(n, rows):
    """The paths column by column of rows rows of ceil(n / rows) contiguous
    paths; a short or empty last row leaves its columns shorter."""
    nb = -(-n // rows)
    grid = np.full(rows * nb, -1)
    grid[:n] = np.arange(n)
    order = grid.reshape(rows, nb).T.ravel()
    return order[order >= 0]


def _sequential_event_paths(rng, r, x):
    """The placement by one sequential cumsum of all paths, taken in the order
    the engine visits them: column by column of R rows on a dense step from
    _FEW_PATHS paths on, in index order (one row) otherwise."""
    mass = float(np.cumsum(x)[-1]) if x.size else 0.0
    if mass == 0.0:
        return np.empty(0, dtype=np.intp)
    u = np.sort(rng.random(rng.poisson(r * mass))) * mass
    rows = (R if x.size >= simulate._FEW_PATHS and not simulate._block_form(x.size, u.size)
            else 1)
    order = _column_order(x.size, rows)
    cum = np.cumsum(x[order])
    idx = np.searchsorted(cum, u, side="right")
    return order[np.minimum(idx, np.searchsorted(cum, cum[-1], side="left"))]


def _patchy_state(n, seed):
    """Positive values with zero runs, an all-zero block and a zero tail."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7)
    x[n // 3:n // 3 + n // 10] = 0.0
    if n >= 3 * B:
        x[B:2 * B] = 0.0
    x[-(n // 20 + 1):] = 0.0
    if not x.any():
        x[0] = 0.5
    return x


# in R rows, R (R - 1) paths fill R rows of R - 1, R - 1 paths leave one row
# empty, R + 1 paths several, and 4097, 4111, 25 000 and 100 003 end in a
# short row
@pytest.mark.parametrize("form", [None, *FORMS])
@pytest.mark.parametrize("n", [1, R - 1, R, R + 1, B - 1, B, B + 1, 3 * B + 5, R * (R - 1),
                               4096, 4097, 4111, 10_000, 25_000, 100_003])
def test_event_paths_match_the_sequential_cumsum(n, form, monkeypatch):
    if form is not None:
        _force(form, monkeypatch)
    x = _patchy_state(n, seed=n)
    mass = float(np.sum(x))
    rng, ref = np.random.default_rng(43), np.random.default_rng(43)
    # expected totals from 1e-3 (mostly no event) to 2000 (dense at any n)
    for total in (1e-3, 0.5, 3.0, 15.0, 60.0, 2000.0):
        for _ in range(5):
            idx = _event_paths(rng, total / mass, x)
            assert idx.tolist() == _sequential_event_paths(ref, total / mass, x).tolist()
            assert np.all(x[idx] > 0.0)
    # both generators are still in step
    assert rng.random() == ref.random()


def _cumsum_search(x, u):
    """Path of each sorted key u in [0, mass], by one cumsum of all paths."""
    cum = np.cumsum(x)
    idx = np.searchsorted(cum, u, side="right")
    # a key at or past the last boundary (rounding) goes to the last positive path
    return np.minimum(idx, np.searchsorted(cum, cum[-1], side="left"), out=idx)


@pytest.mark.parametrize("n", [1, 2, R + 1, B + 1, 1000, 2500, simulate._FEW_PATHS - 1])
def test_prefix_search_in_one_row_is_the_cumsum_search(n):
    # below _FEW_PATHS paths the one row is bit for bit the one cumsum it
    # replaced, keys at and past the mass included
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = _patchy_state(n, seed=int(rng.integers(1 << 30)))
        mass = float(np.sum(x))
        u = np.sort(rng.random(int(rng.integers(1, 3 * n + 2)))) * mass
        u[-1] = max(u[-1], mass, float(np.cumsum(x)[-1]))
        assert simulate._prefix_search(x, u).tolist() == _cumsum_search(x, u).tolist()


@pytest.mark.parametrize("form", FORMS)
def test_event_paths_counts_are_independent_poisson_across_blocks(form, monkeypatch):
    _force(form, monkeypatch)
    n = 3 * B + 5
    x = np.zeros(n)
    live = np.array([0, B - 1, 2 * B, 2 * B + 1, 3 * B, 3 * B + 4])
    x[live] = [0.3, 1.0, 2.0, 0.5, 4.5, 1.2]
    r, reps = 0.25, 20_000
    rng = np.random.default_rng(47)
    counts = np.stack([np.bincount(_event_paths(rng, r, x), minlength=n)
                       for _ in range(reps)])
    assert not np.any(np.delete(counts, live, axis=1))
    lam, c = r * x[live], counts[:, live]
    assert np.all(np.abs(c.mean(axis=0) - lam) < 4 * np.sqrt(lam / reps))
    se_var = np.sqrt((lam + 2 * lam ** 2) / reps)
    assert np.all(np.abs(c.var(axis=0, ddof=1) - lam) < 4 * se_var)


def _count_searches(monkeypatch, names):
    """Count the calls of each named event search."""
    searched = dict.fromkeys(names, 0)
    for name in searched:
        def counted(*a, fn=getattr(simulate, name), name=name):
            searched[name] += 1
            return fn(*a)
        monkeypatch.setattr(simulate, name, counted)
    return searched


@pytest.mark.parametrize("total, form", [(2.0, "block"), (400.0, "one-row"),
                                         (400.0, "rows")])
def test_event_paths_counts_are_poisson_on_many_paths(total, form, monkeypatch):
    # n = 8192 paths in 128 blocks: about 2 events per step take the block
    # search, about 400 the prefix search in R rows, or in one row where the
    # rows are held off
    n, reps = 8192, {"block": 10_000, "one-row": 100, "rows": 100}[form]
    if form == "one-row":
        _force(form, monkeypatch)
    x = _patchy_state(n, seed=53)
    r = total / x.sum()
    searched = _count_searches(monkeypatch, ("_block_search", "_prefix_search"))
    rng, counts, fired = np.random.default_rng(59), np.zeros(n), 0
    for _ in range(reps):
        idx = _event_paths(rng, r, x)
        fired += idx.size > 0
        counts += np.bincount(idx, minlength=n)
    ran = "_block_search" if form == "block" else "_prefix_search"
    assert fired > 0
    assert searched == {name: fired if name == ran else 0 for name in searched}
    live = x > 0
    assert not counts[~live].any()
    # path i's count over the reps is Poisson(reps * r * x_i): its chi-square
    # term has mean 1 and variance 2 + 1 / lam
    lam = reps * r * x[live]
    chi2 = float(np.sum((counts[live] - lam) ** 2 / lam))
    assert abs(chi2 - lam.size) < 5 * math.sqrt(np.sum(2.0 + 1.0 / lam))
    assert abs(counts.sum() - reps * total) < 5 * math.sqrt(reps * total)


def _multi_block(n, values):
    x = np.zeros(n)
    for i, v in values.items():
        x[i] = v
    return x


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("u, x, path", [
    # the last positive path sits inside block 2, a zero tail follows
    (1.0 - 2.0 ** -53, _multi_block(4 * B + 5, {B + 3: 1.5, 2 * B + 7: 3.0}), 2 * B + 7),
    (0.0, _multi_block(4 * B + 5, {B + 3: 1.5, 2 * B + 7: 3.0}), B + 3),
    # a subnormal mass in the tail block: U * mass rounds up to the mass itself
    (1.0 - 2.0 ** -53, _multi_block(3 * B + 5, {3 * B + 2: 5e-324}), 3 * B + 2),
    (1.0 - 2.0 ** -53, _multi_block(3 * B, {B + 1: 5e-324}), B + 1),
])
def test_event_paths_extreme_uniforms_land_on_positive_paths_across_blocks(
        u, x, path, form, monkeypatch):
    _force(form, monkeypatch)
    idx = _event_paths(_ConstUniformRng(u), 1.0 / 7.0, x)
    assert idx.size == 7
    assert np.all(idx == path)


@pytest.mark.parametrize("u, x, path", [
    # 8 R + 3 paths are 14 rows of 9, a 15th of 5 and an empty 16th; zero
    # columns 2 to 8 and a zero short row: column 0 (path 45, in row 5) is
    # visited before column 1 (path 1, in row 0)
    (0.0, _multi_block(8 * R + 3, {1: 1.5, 5 * 9: 3.0}), 5 * 9),
    (1.0 - 2.0 ** -53, _multi_block(8 * R + 3, {1: 1.5, 5 * 9: 3.0}), 1),
    # subnormal masses, inside a column and in the short row
    (1.0 - 2.0 ** -53, _multi_block(8 * R + 3, {3 * 9 + 6: 5e-324}), 3 * 9 + 6),
    (1.0 - 2.0 ** -53, _multi_block(8 * R + 3, {8 * R + 2: 5e-324}), 8 * R + 2),
    # zero columns only ahead of the short row's last path
    (0.0, _multi_block(8 * R + 3, {8 * R + 1: 2.0}), 8 * R + 1),
    # the last column, which the short row does not reach
    (1.0 - 2.0 ** -53, _multi_block(8 * R + 3, {8: 1.0}), 8),
    # no short row: the last positive path is the last one visited, in column 7
    (1.0 - 2.0 ** -53, _multi_block(8 * R, {8: 1.0, 7: 2.0}), 7),
    # fewer paths than rows: one path per row, the rest empty
    (0.0, _multi_block(5, {2: 1.0, 4: 2.0}), 2),
    (1.0 - 2.0 ** -53, _multi_block(5, {2: 1.0, 4: 2.0}), 4),
    (1.0 - 2.0 ** -53, _multi_block(5, {3: 5e-324}), 3),
])
def test_prefix_search_in_rows_extreme_uniforms_land_on_positive_paths(u, x, path,
                                                                        monkeypatch):
    _force("rows", monkeypatch)
    idx = _event_paths(_ConstUniformRng(u), 1.0 / 7.0, x)
    assert idx.size == 7
    assert np.all(idx == path)
    assert np.all(x[idx] > 0.0)


@pytest.mark.parametrize("n", [8192, 25_000, 100_000])
def test_dense_steps_on_many_paths_take_the_prefix_search(n, monkeypatch):
    # the suite's densest steps, about 0.06 events per path, in both run forms;
    # 25 000 is not a multiple of R, so its short last row is searched too
    searched = _count_searches(monkeypatch, ("_block_search", "_search_blocks",
                                             "_prefix_search"))
    x = _patchy_state(n, seed=67)
    r = 0.06 * n / x.sum()
    rng = np.random.default_rng(67)
    assert _event_paths(rng, r, x).size > 0
    flow = simulate._Flow(np.column_stack([x, np.zeros(n)]))
    assert flow.events(rng, r, 0).size > 0
    assert searched == {"_block_search": 0, "_search_blocks": 0, "_prefix_search": 2}


def test_block_search_key_past_its_row_goes_to_the_last_positive_path():
    # the block edges can round above a row's own prefix sums; a key in that
    # gap stays in its block, on the last positive path, never on a zero one
    x = np.ones(2 * B)
    x[B - 3:B] = 0.0
    edges = np.array([0.0, (B - 3) + 1e-12, 2 * B - 3 + 1e-12])
    u = np.array([1.5, (B - 3) + 5e-13, B + 0.5])
    assert _block_search(x, edges, u).tolist() == [1, B - 4, B + 3]


def test_block_search_keeps_a_key_in_the_block_its_edges_give():
    # an edge can round below its row's own prefix sums; a key above that
    # edge still goes to the next block, to its first path
    x = np.ones(2 * B)
    edges = np.array([0.0, B - 1e-12, 2 * B])
    u = np.array([B - 0.5, B - 0.5e-12])
    assert _block_search(x, edges, u).tolist() == [B - 1, B]


def test_step_overflow_guard_threshold(monkeypatch):
    # one step of width 0.25 at unit rate and mass: expected events 0.25 * x
    monkeypatch.setattr(simulate, "_JUMP_COUNT_GUARD", 2.0)
    env = make_env(m1=JumpKernel(((Density.constant(1.0), Dirac((1.0, 0.0), 1.0)),)))
    opts = SimOptions(step=0.25)
    # exactly at the guard on every path: the summed rate is far above it
    simulate_ensemble(env, (8.0, 0.0), 0.25, (0.25,), (), 10, opts, NoiseStream(41))
    with pytest.raises(SimulationError, match="step-overflow"):
        simulate_path(env, (8.5, 0.0), 0.25, opts, NoiseStream(41))
    # coupled pairs: the guard acts on each pair's level max(x_low, x_high)
    coupled_order_violations(env, (0.0, 0.0), (8.0, 0.0), 0.25, 10, opts, NoiseStream(41))
    with pytest.raises(SimulationError, match="step-overflow"):
        coupled_order_violations(env, (0.0, 0.0), (8.5, 0.0), 0.25, 10, opts,
                                 NoiseStream(41))


def test_step_overflow_guard_covers_atom_jumps(monkeypatch):
    # a jump atom of unit mass at 0.5 on a still state: expected events x_1
    monkeypatch.setattr(simulate, "_JUMP_COUNT_GUARD", 2.0)
    env = make_env(m1=JumpKernel((), ((0.5, Dirac((0.0, 1.0), 1.0)),)))
    opts, rng = SimOptions(step=0.25), NoiseStream(44).substream("atom")
    assert validate(env).passed
    simulate_atom(env, 0.5, np.tile([2.0, 0.0], (10, 1)), rng)
    simulate_path(env, (2.0, 0.0), 1.0, opts, NoiseStream(44))
    coupled_order_violations(env, (0.0, 0.0), (2.0, 0.0), 1.0, 10, opts, NoiseStream(44))
    with pytest.raises(SimulationError, match="step-overflow"):
        simulate_atom(env, 0.5, (2.5, 0.0), rng)
    with pytest.raises(SimulationError, match="step-overflow"):
        simulate_path(env, (2.5, 0.0), 1.0, opts, NoiseStream(44))
    # coupled pairs: the guard acts on each pair's level max(x_low, x_high)
    with pytest.raises(SimulationError, match="step-overflow"):
        coupled_order_violations(env, (0.0, 0.0), (2.5, 0.0), 1.0, 10, opts, NoiseStream(44))


def test_simulate_atom_rejects_an_infinite_row():
    # the atom_rich config's bottleneck at 0.3 and jump atom at 0.45
    env = make_env(b11=atoms_only((0.3, 0.5)),
                   m2=JumpKernel((), ((0.45, Dirac((0.2, 0.5), 0.3)),)))
    rng = NoiseStream(45).substream("atom")
    for s, x in ((0.3, (math.inf, 1.0)), (0.45, (1.0, math.inf)),
                 (0.45, [(1.0, 1.0), (1.0, math.inf)])):
        with pytest.raises(ValueError, match="x_left must be finite"):
            simulate_atom(env, s, x, rng)
    with pytest.raises(ValueError, match="x_left must be a nonnegative"):
        simulate_atom(env, 0.3, (1.0, math.nan), rng)


@pytest.mark.parametrize("step", [1e-9, 5e-324])
def test_mesh_beyond_the_cap_is_rejected_at_once(step):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 1000000 mesh steps"):
            simulate_ensemble(feller_env(), (1.0, 0.0), 1.0, (1.0,), [], 16,
                              SimOptions(step=step), NoiseStream(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_mesh_cap_counts_every_piece(monkeypatch):
    # two pieces of 50 steps each fill the cap; at 51 each they go beyond it
    monkeypatch.setattr(simulate, "_MAX_MESH_STEPS", 100)
    env = make_env(b11=atoms_only((0.5, 0.1)))
    assert len(_StepPlan(env, 0.0, 1.0, SimOptions(step=0.01)).mesh) == 101
    with pytest.raises(ValueError, match="more than 100 mesh steps"):
        _StepPlan(env, 0.0, 1.0, SimOptions(step=0.0099))


def test_plan_indexes_exactly_its_hard_points():
    # atoms of the environment (one at the horizon), a density breakpoint at
    # 0.35, weight atoms, checkpoints, and a start inside the horizon
    env = make_env(b11=const(0.3) + atoms_only((0.2, 0.1), (0.9, 0.2)),
                   b22=SignedMeasure1D(Density.piecewise_linear([(0.0, 0.5), (0.35, 1.0),
                                                                 (1.0, 0.0)]), ()),
                   b12=atoms_only((1.0, 0.3)))
    zeta = WeightMeasure((atoms_only((0.4, 0.6)), atoms_only((0.7, 0.5))))
    t0, checkpoints = 0.1, (0.25, 0.5, 1.0)
    plan = _StepPlan(env, t0, 1.0, SimOptions(step=7e-3), checkpoints=checkpoints, zeta=zeta)
    hard = env.hard_points(t0, 1.0, zeta, extra=checkpoints)
    assert list(plan.index_of) == hard
    assert all(plan.mesh[k] == s for s, k in plan.index_of.items())
    assert plan.index_of[t0] == 0 and plan.index_of[1.0] == plan.mesh.size - 1
    assert {k: a.time for k, a in plan.atom_at.items()} == {
        plan.index_of[s]: s for s in (0.2, 0.9, 1.0)}


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


@pytest.mark.parametrize("x0", [(1.0,), (1.0, 0.0, 5.0), ((1.0, 0.0), (2.0, 0.0))])
def test_start_must_be_a_pair(x0):
    env, opts = make_env(), SimOptions(step=1e-2)
    with pytest.raises(ValueError, match="nonnegative 2-vector"):
        simulate_ensemble(env, x0, 0.5, (0.5,), [], 16, opts, NoiseStream(5))
    with pytest.raises(ValueError, match="nonnegative 2-vector"):
        simulate_path(env, x0, 0.5, opts, NoiseStream(5))


def test_checkpoint_outside_the_horizon_is_a_value_error():
    env, opts = make_env(), SimOptions(step=1e-2)
    with pytest.raises(ValueError, match=r"checkpoint 1.0 outside \[0.0, 0.5\]"):
        simulate_ensemble(env, (1.0, 0.5), 0.5, (0.5, 1.0), [], 16, opts, NoiseStream(5))
    with pytest.raises(ValueError, match=r"checkpoint 0.1 outside \[0.2, 0.5\]"):
        simulate_ensemble(env, (1.0, 0.5), 0.5, (0.1,), [], 16, opts, NoiseStream(5), t0=0.2)


@pytest.mark.parametrize("grid", [[(1.0,), (2.0,)], [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)],
                                  [1.0, 2.0], [(1.0, -1.0)], [(1.0, float("nan"))]])
def test_lambda_grid_must_be_nonnegative_pairs(grid):
    env, opts = make_env(), SimOptions(step=1e-2)
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_ensemble(env, (1.0, 0.5), 0.5, (0.5,), grid, 16, opts, NoiseStream(5))


@pytest.mark.parametrize("grid", [[(math.inf, 0.0)], [(1.0, 0.5), (2.0, math.inf)]])
def test_lambda_grid_must_be_finite(grid):
    env, opts = make_env(), SimOptions(step=1e-2)
    with pytest.raises(ValueError, match="lam_grid must be finite"):
        simulate_ensemble(env, (1.0, 0.5), 0.5, (0.5,), grid, 16, opts, NoiseStream(5))


def test_lambda_grid_empty_or_pairs_runs():
    env, opts = make_env(), SimOptions(step=1e-2)
    for grid, shape in (([], (0, 2)), ([(1.0, 0.0), (2.0, 3.0)], (2, 2))):
        stats = simulate_ensemble(env, (1.0, 0.5), 0.5, (0.5,), grid, 16, opts, NoiseStream(5))
        assert stats.lambdas.shape == shape and stats.laplace.shape == (1, shape[0])
        assert stats.lambdas.dtype == np.float64 and stats.lambdas.flags.c_contiguous


# -- the flow form of diffusion-free plans ----------------------------------------

_FUNCTIONAL_ATOMS = WeightMeasure((atoms_only((0.4, 0.6)), atoms_only((0.7, 0.5))))
# the functional-atoms scenario's weights, and a density that makes every point a read
_RAMP = WeightMeasure((SignedMeasure1D(Density.piecewise_linear([(0.0, 0.0), (1.0, 1.0)]), ()),
                       atoms_only((0.7, 0.5))))


def _both_forms(env, x0, n, times, monkeypatch, zeta=None, seed=61):
    """The eager step and the flow form on one stream: per form, the rows of
    every mark scatter, the snapshots, the functional and the final state."""
    add_marks, out = simulate._add_marks, []
    for run in (_run_eager, _run_flow):
        rows = []
        monkeypatch.setattr(simulate, "_add_marks",
                            lambda idx, *a: rows.append(idx.copy()) or add_marks(idx, *a))
        plan = _StepPlan(env, 0.0, 1.0, SimOptions(step=1e-3), checkpoints=times, zeta=zeta)
        snap = _SnapshotCollector(times)
        colls = (snap,) if zeta is None else (snap, _FunctionalCollector(zeta))
        assert _takes_flow(plan, _INDEPENDENT, colls)
        X = run(plan, _tile(x0, n), NoiseStream(seed).substream("s"), colls)
        A = colls[-1].A if zeta is not None else np.zeros(0)
        out.append((rows, [snap.snaps[t] for t in times] + [X, A]))
    return out


def _assert_close(eager, flow):
    # within 1e-12 relative, entry by entry, so with the same zeros
    assert np.array_equal(eager == 0.0, flow == 0.0)
    assert np.all(np.abs(flow - eager) <= 1e-12 * np.abs(eager))
    assert not np.any(np.signbit(flow))


@pytest.mark.parametrize("case", ["dirac-cross", "atom-rich", "functional-atoms"])
def test_flow_form_agrees_with_the_eager_step(case, monkeypatch):
    # dirac-cross from (0, 1): type 1 stays exactly 0 until a mark reaches it;
    # atom-rich read at its full bottleneck of type 1 at 0.6
    env, x0, times, zeta = {
        "dirac-cross": (dirac_cross_env(), (0.0, 1.0), (0.05, 0.5, 1.0), None),
        "atom-rich": (atom_rich_env(), (1.0, 1.0), (0.4, 0.6, 1.0), None),
        "functional-atoms": (dirac_cross_env(), (0.0, 1.0), (1.0,), _FUNCTIONAL_ATOMS),
    }[case]
    (rows_e, states_e), (rows_f, states_f) = _both_forms(env, x0, 2000, times, monkeypatch,
                                                         zeta)
    assert len(rows_e) == len(rows_f) > 0
    assert all(np.array_equal(a, b) for a, b in zip(rows_e, rows_f))
    for a, b in zip(states_e, states_f):
        _assert_close(a, b)
    assert any(np.any(a == 0.0) for a in states_e[:-1])


@pytest.mark.parametrize("x0, search", [((1.0, 1.0), "_search_blocks"),
                                       ((30.0, 30.0), "_prefix_search")])
def test_flow_form_agrees_across_its_event_searches(x0, search, monkeypatch):
    # 8192 paths in 128 blocks: mostly about 15 events per step, which search
    # their blocks, or about 450, which form their column and take the prefix
    # search (a dense step); the counts are the eager step's and the flow's together
    searched = _count_searches(monkeypatch, ("_search_blocks", "_prefix_search"))
    (rows_e, states_e), (rows_f, states_f) = _both_forms(dirac_cross_env(), x0, 8192,
                                                         (0.5, 1.0), monkeypatch)
    other, = set(searched) - {search}
    assert searched[search] > 10 * searched[other]
    assert all(np.array_equal(a, b) for a, b in zip(rows_e, rows_f))
    for a, b in zip(states_e, states_f):
        _assert_close(a, b)


def test_flow_form_restarts_where_its_map_grows_skewed(monkeypatch):
    # type 1 decays at rate 60 and feeds type 2, whose marks land on type 1: Y
    # then carries terms of size exp(60 t) that cancel in Y F, and without the
    # restarts the state at time 1 was off by a factor 167
    env = make_env(b11=const(60.0), b12=const(1.0),
                   m2=JumpKernel(((Density.constant(5.0), Dirac((1.0, 0.0), 1.0)),)))
    restarts, restart = [], simulate._Flow.restart
    monkeypatch.setattr(simulate._Flow, "restart",
                        lambda self, X: restarts.append(1) or restart(self, X))
    (rows_e, states_e), (rows_f, states_f) = _both_forms(env, (1.0, 1.0), 2000, (0.5, 1.0),
                                                         monkeypatch)
    assert len(restarts) > 20
    assert all(np.array_equal(a, b) for a, b in zip(rows_e, rows_f))
    for a, b in zip(states_e, states_f):
        _assert_close(a, b)


def test_flow_form_full_bottleneck_gives_exact_zeros():
    # type 1 takes marks, then a full bottleneck at 0.5 kills every path for good
    env = make_env(b11=const(0.3) + atoms_only((0.5, 1.0)),
                   m1=JumpKernel(((Density.constant(1.0), Dirac((0.5, 0.0), 1.0)),)))
    times = (0.4, 0.5, 1.0)
    plan = _StepPlan(env, 0.0, 1.0, SimOptions(step=1e-3), checkpoints=times)
    snap = _SnapshotCollector(times)
    assert _takes_flow(plan, _INDEPENDENT, (snap,))
    X = _run_flow(plan, _tile((1.0, 0.0), 3000), NoiseStream(63).substream("s"), (snap,))
    assert len(np.unique(snap.snaps[0.4][:, 0])) > 10
    for a in (snap.snaps[0.5], snap.snaps[1.0], X):
        assert a.tobytes() == np.zeros_like(a).tobytes()
    stats = simulate_ensemble(env, (1.0, 0.0), 1.0, times, [(1.0, 0.0)], 3000,
                              SimOptions(step=1e-3), NoiseStream(63))
    assert stats.extinction.tolist()[1:] == [1.0, 1.0]
    assert stats.laplace[1:].tolist() == [[1.0], [1.0]]


def test_flow_form_keeps_the_jump_count_guard(monkeypatch):
    # as test_step_overflow_guard_threshold and test_step_overflow_guard_covers_atom_jumps
    monkeypatch.setattr(simulate, "_JUMP_COUNT_GUARD", 2.0)
    rng = NoiseStream(65).substream("s")
    step = make_env(m1=JumpKernel(((Density.constant(1.0), Dirac((1.0, 0.0), 1.0)),)))
    atom = make_env(m1=JumpKernel((), ((0.5, Dirac((0.0, 1.0), 1.0)),)))
    for env, t, ok, over in ((step, 0.25, 8.0, 8.5), (atom, 1.0, 2.0, 2.5)):
        plan = _StepPlan(env, 0.0, t, SimOptions(step=0.25))
        assert _takes_flow(plan, _INDEPENDENT, ())
        _run_flow(plan, _tile((ok, 0.0), 10), rng)
        with pytest.raises(SimulationError, match="step-overflow"):
            _run_flow(plan, _tile((over, 0.0), 10), rng)


def test_which_plans_take_the_flow_form():
    opts, times = SimOptions(step=5e-3), (0.5, 1.0)

    def takes(env, opts=opts, colls=None, src=_INDEPENDENT, zeta=None):
        plan = _StepPlan(env, 0.0, 1.0, opts, checkpoints=times, zeta=zeta)
        return _takes_flow(plan, src, (_SnapshotCollector(times),) if colls is None else colls)

    linear = make_env(b11=const(0.8), b12=const(0.4), b21=const(0.2), b22=const(-0.3))
    # diffusion-free: draw-free, marks, atoms; dropped small jumps add no Gaussian term
    for env in (make_env(), linear, dirac_cross_env(), atom_rich_env(), stable_jump_env()):
        assert takes(env)
    assert takes(dirac_cross_env(), colls=())
    # a Gaussian term, or a negative coefficient, makes a column clamped
    assert not takes(feller_env())
    assert not takes(stable_jump_env(), SimOptions(step=5e-3, small_jump_mode="gaussian"))
    assert not takes(make_env(b11=const(1.5 / 5e-3)))
    # a step map of determinant 0: keep 1 and feed 1 both ways
    assert not takes(make_env(b12=const(1 / 5e-3), b21=const(1 / 5e-3)))
    # coupled pairs, and collectors that read every mesh point
    assert not takes(dirac_cross_env(), src=_Coupled(10))
    assert not takes(dirac_cross_env(), colls=(_TrajectoryCollector(),))
    assert not takes(dirac_cross_env(), colls=(_FunctionalCollector(_RAMP),), zeta=_RAMP)
    assert takes(dirac_cross_env(), colls=(_FunctionalCollector(_FUNCTIONAL_ATOMS),),
                 zeta=_FUNCTIONAL_ATOMS)
