"""Byte-level checks of the path engine.

The digests below pin the output bytes of small ensembles (2000 rows, 200
steps) on seven cases that together reach every branch of the Euler step, the
atom update and the collectors.  ``dirac-cross``, ``atom-rich`` and
``draw-free`` run diffusion-free plans in the flow form (a 2x2 map per step,
marks added to the rows they hit); ``feller``, ``stable-gaussian``,
``coupled-batch`` and ``functional`` (a weight density) run the eager step.
Any change to the inner loop that reorders a floating-point sum, switches a
reduction to another memory layout or draws the random stream in another
order changes a digest.  They hold for NumPy 2.x's
SFC64 streams and float64 kernels on x86-64 at one SIMD level and one glibc
variant.  With NumPy's AVX-512 kernels turned off, as on an AVX2-only host,
``np.exp`` and ``**`` round differently: the Laplace weights
``exp(-X @ lambdas.T)`` move the ``feller`` digest, and the power-tail marks
``rng.random(n) ** (-1/alpha)`` move the ``stable-gaussian`` paths (whose
pinned statistics happen to round the same).  The reductions (``mean``/``var``
along the rows, the mat-vec of the functional collector) do not move.
"""

import hashlib

import numpy as np
import pytest

from bibranch.densities import Density, SignedMeasure1D
from bibranch.environment import JumpKernel, validate
from bibranch.functionals import WeightMeasure, mc_functional
from bibranch.measures import Dirac, ExpProduct
from bibranch.noise import NoiseStream
from bibranch.simulate import (
    _INDEPENDENT,
    SimOptions,
    _add_marks,
    _Coupled,
    _SnapshotCollector,
    _StepPlan,
    _TrajectoryCollector,
    _pair_start,
    _run,
    _run_eager,
    _tile,
    coupled_order_violations,
    coupled_pair,
    simulate_atom,
    simulate_ensemble,
    simulate_path,
)
from bibranch.verify import atom_rich_env, dirac_cross_env, feller_embed_env, stable_jump_env

from conftest import atoms_only, const, feller_env, make_env

N, STEP = 2000, 5e-3  # 200 steps on [0, 1]
LAM = ((0.5, 0.25), (1.0, 0.5), (4.0, 2.0))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _stats_digest(stats) -> str:
    return _digest(stats.mean, stats.var, stats.se_mean, stats.laplace,
                   stats.laplace_se, stats.extinction)


def _ensemble(env, x0, checkpoints=(0.5, 1.0), mode="drop", seed=1):
    opts = SimOptions(step=STEP, small_jump_mode=mode)
    return _stats_digest(simulate_ensemble(env, x0, 1.0, checkpoints, LAM, N, opts,
                                           NoiseStream(seed)))


# cross feed, a decaying type and atoms without jumps: no random number is drawn
_DRAW_FREE_ENV = make_env(b11=const(0.8) + atoms_only((0.5, 0.3)),
                          b12=const(0.4) + atoms_only((0.6, 0.2)),
                          b21=const(0.2), b22=const(-0.3))


def _draw_free():
    return _ensemble(_DRAW_FREE_ENV, (1.0, 2.0), (0.0, 0.5, 1.0))


def _coupled_batch():
    # the violation count, and the states of the same batch at two checkpoints
    env, h = dirac_cross_env(), N // 2
    opts = SimOptions(step=STEP)
    counts = coupled_order_violations(env, (1.0, 0.5), (2.0, 1.5), 1.0, h, opts,
                                      NoiseStream(5))
    snap = _SnapshotCollector((0.5, 1.0))
    _run(_StepPlan(env, 0.0, 1.0, opts, checkpoints=(0.5, 1.0)),
         _pair_start((1.0, 0.5), (2.0, 1.5), h), NoiseStream(5).substream("coupled-batch"),
         (snap,), _Coupled(h))
    return _digest(np.array(counts), snap.snaps[0.5], snap.snaps[1.0])


def _functionals():
    # density zero on [0, 0.5] then rising, atoms inside and at the start time
    ramp = Density.piecewise_linear([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)])
    zeta = WeightMeasure((SignedMeasure1D(ramp, ((0.4, 0.6),)), atoms_only((0.7, 0.5))))
    opts = SimOptions(step=STEP)
    out = [mc_functional(dirac_cross_env(), (1.0, 1.0), zeta, r, 1.0, N, opts, NoiseStream(6))
           for r in (0.0, 0.4)]
    return _digest(np.array(out))


CASES = {
    "feller": (lambda: _ensemble(feller_env(), (1.0, 0.0)), "40ee5cf7b94ac5de"),
    "dirac-cross": (lambda: _ensemble(dirac_cross_env(), (1.0, 1.0), seed=2),
                    "9d0b7b3255676baa"),
    "stable-gaussian": (lambda: _ensemble(stable_jump_env(), (1.0, 0.0), mode="gaussian",
                                          seed=3), "2ac1dd96b4cb804d"),
    "atom-rich": (lambda: _ensemble(atom_rich_env(), (1.0, 1.0), (0.4, 0.7, 1.0), seed=4),
                  "9b20ce203118acca"),
    "draw-free": (_draw_free, "dd2ee5b9b5a8d9be"),
    "coupled-batch": (_coupled_batch, "db9f1897a41f1eda"),
    "functional": (_functionals, "223440f2dc5fa462"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_output_bytes_are_pinned(case):
    run, expected = CASES[case]
    assert run() == expected


# -- clamp at zero --------------------------------------------------------------


def test_only_columns_that_can_go_negative_are_clamped():
    opts = SimOptions(step=STEP)
    # diffusion on type 1 only
    assert _StepPlan(feller_embed_env(), 0.0, 1.0, opts).clamp == (True, False)
    # drift, cross feed and jumps, all with nonnegative coefficients at this step
    assert _StepPlan(dirac_cross_env(), 0.0, 1.0, opts).clamp == (False, False)
    # b11 * step > 1 makes lin_keep negative: the clamp must stay
    steep = make_env(b11=const(1.5 / STEP), b12=const(0.2))
    plan = _StepPlan(steep, 0.0, 1.0, opts)
    assert np.all(plan.lin_keep[0] < 0)
    assert plan.clamp == (True, False)
    # a Gaussian small-jump term on type 1
    gaussian = SimOptions(step=STEP, small_jump_mode="gaussian")
    assert _StepPlan(stable_jump_env(), 0.0, 1.0, gaussian).clamp == (True, False)
    assert _StepPlan(stable_jump_env(), 0.0, 1.0, opts).clamp == (False, False)


@pytest.mark.parametrize("env", [dirac_cross_env(), atom_rich_env()],
                         ids=["dirac-cross", "atom-rich"])
def test_skipped_clamp_leaves_the_bytes_of_a_full_clamp(env):
    opts, times = SimOptions(step=STEP), (0.5, 1.0)
    snaps = []
    for clamp in (None, (True, True)):
        plan = _StepPlan(env, 0.0, 1.0, opts, checkpoints=times)
        assert plan.clamp == (False, False)
        plan.clamp = clamp or plan.clamp
        snap = _SnapshotCollector(times)
        _run_eager(plan, _tile((1.0, 1.0), N), NoiseStream(12).substream("s"), (snap,))
        snaps.append(_digest(*snap.snaps.values()))
    assert snaps[0] == snaps[1]


def test_negative_zero_start_gives_the_bytes_of_a_zero_start():
    assert _tile((-0.0, 1.0), 3).tobytes() == _tile((0.0, 1.0), 3).tobytes()
    digests = {_ensemble(dirac_cross_env(), x0, (0.0, 0.5, 1.0), seed=13)
               for x0 in ((-0.0, 1.0), (0.0, 1.0))}
    assert len(digests) == 1


# -- mark scatter ---------------------------------------------------------------


def _scatter_matches_bincount(idx, Z, out0, out1):
    ref0, ref1 = out0.copy(), out1.copy()
    ref0 += np.bincount(idx, weights=Z[:, 0], minlength=ref0.size)
    ref1 += np.bincount(idx, weights=Z[:, 1], minlength=ref1.size)
    _add_marks(idx, Z, out0, out1)
    return ref0, ref1


@pytest.mark.parametrize("kind", ["unique", "repeated", "zero-coordinate"])
def test_add_marks_equals_bincount_bitwise(kind):
    rng = np.random.default_rng(71)
    n = 1000
    out = np.asfortranarray(rng.uniform(0.0, 3.0, size=(n, 2)))
    if kind == "repeated":
        idx = np.sort(rng.integers(0, 40, size=300))
        assert np.any(idx[1:] == idx[:-1])
    else:
        idx = np.sort(rng.choice(n, size=100, replace=False))
    meas = Dirac((0.4, 0.0), 1.0) if kind == "zero-coordinate" else ExpProduct(3.0, 2.0, 0.5)
    Z = meas.sample(rng, idx.size)
    ref0, ref1 = _scatter_matches_bincount(idx, Z, out[:, 0], out[:, 1])
    assert ref0.tobytes() == out[:, 0].tobytes()
    assert ref1.tobytes() == out[:, 1].tobytes()


def test_add_marks_writes_through_a_coupled_row_slice():
    rng = np.random.default_rng(73)
    h = 500
    X = np.asfortranarray(rng.uniform(0.0, 2.0, size=(2 * h, 2)))
    before = X.copy()
    rows = slice(h, 2 * h)
    for idx in (np.sort(rng.choice(h, size=60, replace=False)),
                np.sort(rng.integers(0, h, size=60))):
        Z = ExpProduct(3.0, 2.0, 0.5).sample(rng, idx.size)
        ref0, ref1 = _scatter_matches_bincount(idx, Z, X[rows, 0], X[rows, 1])
        assert ref0.tobytes() == X[rows, 0].tobytes()
        assert ref1.tobytes() == X[rows, 1].tobytes()
    assert np.array_equal(X[:h], before[:h])
    assert not np.array_equal(X[h:], before[h:])


@pytest.mark.parametrize("coupled", [False, True])
def test_add_marks_many_repeats_equal_bincount_bitwise(coupled):
    # 5000 events on 10 000 rows: runs of up to ~20 marks on a few rows, single ones elsewhere
    rng = np.random.default_rng(75)
    n = 10_000
    X = np.asfortranarray(rng.uniform(0.0, 3.0, size=(2 * n if coupled else n, 2)))
    before = X.copy()
    rows = slice(n, 2 * n) if coupled else slice(0, n)
    idx = np.sort(np.concatenate([rng.integers(0, 200, size=4000),
                                  rng.choice(np.arange(200, n), size=1000, replace=False)]))
    Z = ExpProduct(3.0, 2.0, 0.5).sample(rng, idx.size)
    ref0, ref1 = _scatter_matches_bincount(idx, Z, X[rows, 0], X[rows, 1])
    assert ref0.tobytes() == X[rows, 0].tobytes()
    assert ref1.tobytes() == X[rows, 1].tobytes()
    if coupled:
        assert np.array_equal(X[:n], before[:n])


def test_add_marks_negative_zero_away_from_events_is_cleared_by_the_clamp():
    # bincount adds +0.0 to every entry, turning -0.0 into +0.0; the sparse
    # add leaves entries without events alone.  A clamped column maps both to
    # +0.0, and an unclamped one never holds -0.0, so the state bytes agree.
    out = np.array([-0.0, 1.0, -0.0, 2.0])
    idx, Z = np.array([1, 2]), np.array([[0.5, 0.5], [0.25, 0.0]])
    ref0, _ = _scatter_matches_bincount(idx, Z, out, np.zeros(4))
    assert np.array_equal(ref0, out)
    assert np.maximum(ref0, 0.0).tobytes() == np.maximum(out, 0.0).tobytes()


# -- buffer safety --------------------------------------------------------------


def _mixed_env():
    """Diffusion, finite-activity jumps, cross drift and atoms of both kinds."""
    env = make_env(
        b11=const(0.4) + atoms_only((0.5, 0.3)), b12=const(0.1), b21=const(0.05),
        c1=const(0.5), c2=const(0.2),
        m1=JumpKernel(((Density.constant(1.0), Dirac((0.5, 0.2), 1.0)),),
                      ((0.7, Dirac((0.2, 0.3), 0.5)),)),
        m2=JumpKernel(((Density.constant(0.7), ExpProduct(3.0, 2.0, 0.5)),)),
    )
    assert validate(env).passed
    return env


@pytest.mark.parametrize("coupled", [False, True])
def test_run_leaves_the_start_array_unchanged(coupled):
    env, opts = _mixed_env(), SimOptions(step=1e-2)
    if coupled:
        start, src = _pair_start((1.0, 0.5), (2.0, 1.0), 50), _Coupled(50)
    else:
        start, src = _tile((1.0, 0.5), 100), _INDEPENDENT
    kept = start.copy()
    X = _run(_StepPlan(env, 0.0, 1.0, opts), start, NoiseStream(7).substream("s"), (), src)
    assert np.array_equal(start, kept)
    assert not np.shares_memory(X, start)


@pytest.mark.parametrize("n", [1, 300])
def test_snapshots_at_adjacent_mesh_points_are_distinct_copies(n):
    # 0.49, 0.5 (an atom) and 0.51 are consecutive mesh points at step 0.01
    env, opts = _mixed_env(), SimOptions(step=1e-2)
    times = (0.0, 0.49, 0.5, 0.51, 1.0)
    plan = _StepPlan(env, 0.0, 1.0, opts, checkpoints=times)
    snap, traj = _SnapshotCollector(times), _TrajectoryCollector()
    _run(plan, _tile((1.0, 0.5), n), NoiseStream(8).substream("s"), (snap, traj))
    arrays = [snap.snaps[t] for t in times]
    for i, a in enumerate(arrays):
        assert a.flags.c_contiguous
        assert np.array_equal(a, traj.states[:, plan.index_of[times[i]]])
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


@pytest.mark.parametrize("s", [0.5, 0.7])
def test_simulate_atom_returns_a_row_major_batch(s):
    # callers aggregate the batch along its rows, which rounds by layout
    x = np.random.default_rng(74).uniform(0.0, 2.0, size=(300, 2))
    out = simulate_atom(_mixed_env(), s, x, NoiseStream(10).substream("a"))
    assert out.shape == x.shape and out.flags.c_contiguous
    assert not np.array_equal(out, x)


def test_path_and_coupled_pair_trajectories_are_pinned():
    env, opts = _mixed_env(), SimOptions(step=1e-2, small_jump_mode="gaussian")
    path = simulate_path(env, (1.0, 0.5), 1.0, opts, NoiseStream(9), path_id=3)
    lo, hi = coupled_pair(env, (1.0, 0.5), (2.0, 1.0), 1.0, opts, NoiseStream(9), pair_id=3)
    arrays = [a for tr in (path, lo, hi) for a in (tr.times, tr.states, tr.left_states)]
    assert _digest(*arrays) == "042fe4735e8d2f79"
