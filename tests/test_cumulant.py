import math
from fractions import Fraction

import numpy as np
import pytest

from bibranch.cumulant import (
    SolverError,
    SolverOptions,
    atom_step,
    extinction_prob,
    laplace_transform,
    semigroup_check,
    solve_backward,
    v_infinity,
)
from bibranch.densities import Density
from bibranch.densities import SignedMeasure1D
from bibranch.environment import JumpKernel
from bibranch.measures import Dirac, StableAxis
from bibranch.verify import atom_rich_env, feller_embed_env, stable_jump_env, suite

from conftest import atoms_only, const, feller_env, make_env, random_env


def feller_closed_form(b, c, lam, tau):
    return lam * math.exp(-b * tau) / (1.0 + (c * lam / b) * (1.0 - math.exp(-b * tau)))


def rk4_riccati(b, c, lam, tau, n_steps=10_000):
    """Independent fixed-step RK4 oracle for g' = -(b g + c g^2), g(0) = lam."""
    h = tau / n_steps
    g = lam

    def f(x):
        return -(b * x + c * x * x)

    for _ in range(n_steps):
        k1 = f(g)
        k2 = f(g + 0.5 * h * k1)
        k3 = f(g + 0.5 * h * k2)
        k4 = f(g + h * k3)
        g += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return g


def test_zero_lambda_gives_zero_solution():
    env = feller_env()
    sol = solve_backward(env, 1.0, (0.0, 0.0))
    for r in (0.0, 0.33, 0.9, 1.0):
        assert np.all(sol.at(r) == 0.0)


def test_zero_environment_keeps_lambda():
    sol = solve_backward(make_env(), 1.0, (2.0, 0.5))
    for r in (0.0, 0.4, 1.0):
        assert sol.at(r) == pytest.approx([2.0, 0.5], abs=1e-12)


def test_feller_closed_form_and_rk4_oracle():
    b, c, lam, t = 1.0, 0.5, 2.0, 1.0
    exact = feller_closed_form(b, c, lam, t)
    oracle = rk4_riccati(b, c, lam, t)
    assert oracle == pytest.approx(exact, rel=1e-10)
    v = solve_backward(feller_env(b, c), t, (lam, 0.0)).at(0.0)
    assert v[0] == pytest.approx(exact, rel=1e-6)
    assert v[1] == 0.0


def test_feller_interior_times_match_closed_form():
    b, c, lam = 1.0, 0.5, 3.0
    sol = solve_backward(feller_env(b, c), 1.0, (lam, 0.0))
    for r in (0.1, 0.25, 0.5, 0.75, 0.99):
        assert sol.at(r)[0] == pytest.approx(
            feller_closed_form(b, c, lam, 1.0 - r), rel=1e-8)


def test_bottleneck_atom_annihilates_component():
    env = make_env(b11=atoms_only((0.5, 1.0)))
    sol = solve_backward(env, 1.0, (3.0, 1.0))
    assert sol.at(0.9) == pytest.approx([3.0, 1.0])
    assert sol.at(0.5) == pytest.approx([3.0, 1.0])  # right value excludes the atom
    assert sol.left_at(0.5) == pytest.approx([0.0, 1.0])
    assert sol.at(0.2) == pytest.approx([0.0, 1.0])


def test_atom_step_identity_without_atoms():
    env = feller_env()
    assert atom_step(env, 0.4, (1.5, 0.3)) == pytest.approx([1.5, 0.3])


def test_atom_step_jump_only_hand_value():
    env = make_env(m1=JumpKernel((), ((0.5, Dirac((1.0, 0.0), 0.4)),)))
    out = atom_step(env, 0.5, (1.0, 0.0))
    assert out[0] == pytest.approx(1.0 - 0.4 * math.exp(-1.0), rel=1e-12)
    assert out[1] == 0.0


def _one_minus_exp_neg(x: Fraction, terms: int = 12) -> Fraction:
    """1 - e^{-x} as an exact rational Taylor sum, for small x."""
    acc, term = Fraction(0), Fraction(1)
    for n in range(1, terms):
        term *= x / n
        acc += term if n % 2 else -term
    return acc


@pytest.mark.parametrize("lam", [1e-6, 1e-9, 1e-12])
def test_atom_step_keeps_relative_precision_at_small_lambda(lam):
    # v (1 - delta) + w (1 - e^{-<v, z>}) against an exact rational reference;
    # the compensated form v - w (e^{-<v, z>} - 1 + <v, z>) cancels here
    w, z = 0.4, (1.0, 0.5)
    env = make_env(m1=JumpKernel((), ((0.5, Dirac(z, w)),)))
    out = atom_step(env, 0.5, (lam, lam))
    v = Fraction(lam)
    dot = v * Fraction(z[0]) + v * Fraction(z[1])
    exact = v * (1 - Fraction(w) * Fraction(z[0])) + Fraction(w) * _one_minus_exp_neg(dot)
    assert abs(Fraction(out[0]) - exact) <= Fraction(1e-14) * exact
    assert out[1] == lam


@pytest.mark.parametrize("lam", [(0.5, 0.25), (4.0, 2.0), (math.inf, math.inf)])
def test_atom_step_is_the_solver_atom_map(lam):
    # one map: the solver's left limits are atom_step of its own right values,
    # bit for bit, for finite and infinite arguments alike
    env = atom_rich_env()
    sol = solve_backward(env, 1.0, lam)
    for s in env.atom_times(0.0, 1.0):
        right = sol.atom_values[s][1]
        assert np.array_equal(atom_step(env, s, right), sol.left_at(s))
        if np.all(np.isfinite(right)):
            assert sol.at(s) == pytest.approx(right, rel=1e-12)
        else:
            assert np.array_equal(sol.at(s), right)


def test_atom_step_positivity_guard():
    # delta > 1 would drive the left value negative; the solver flags it
    env = make_env(b11=atoms_only((0.5, 1.4)), horizon=1.0)
    with pytest.raises(SolverError):
        atom_step(env, 0.5, (2.0, 0.0))


def test_laplace_transform_trivials():
    env = feller_env()
    assert laplace_transform(env, (0.0, 0.0), 0.0, 1.0, (2.0, 1.0)) == 1.0
    assert laplace_transform(env, (1.0, 1.0), 0.0, 1.0, (0.0, 0.0)) == 1.0


def test_laplace_transform_feller_value():
    exact = feller_closed_form(1.0, 0.5, 2.0, 1.0)
    got = laplace_transform(feller_env(), (1.0, 0.0), 0.0, 1.0, (2.0, 0.0))
    assert got == pytest.approx(math.exp(-exact), rel=1e-8)


def test_semigroup_trivial_cases():
    env = feller_env()
    assert np.all(semigroup_check(env, 0.5, 0.5, 1.0, (2.0, 0.0)) < 1e-9)
    assert np.all(semigroup_check(make_env(), 0.0, 0.5, 1.0, (2.0, 1.0)) == 0.0)


def test_semigroup_feller():
    res = semigroup_check(feller_env(), 0.0, 0.5, 1.0, (2.0, 0.0))
    assert np.all(res < 1e-7)


def test_semigroup_with_atoms(rng):
    for _ in range(5):
        env = random_env(rng)
        res = semigroup_check(env, 0.1, 0.55, 1.0, (2.0, 1.5))
        assert np.all(res < 1e-7), res


def test_monotone_in_lambda(rng):
    for _ in range(8):
        env = random_env(rng)
        lo = solve_backward(env, 1.0, (1.0, 0.5))
        hi = solve_backward(env, 1.0, (1.5, 1.1))
        for r in np.linspace(0.0, 1.0, 7):
            assert np.all(hi.at(r) >= lo.at(r) - 1e-9)


def test_grid_refinement_stability():
    opts = SolverOptions(rel_tol=1e-8, abs_tol=1e-10, max_step=0.1)
    fine = SolverOptions(rel_tol=1e-8, abs_tol=1e-10, max_step=0.05)
    env = make_env(b11=const(0.7), b12=const(0.2), b21=const(0.1), b22=const(-0.2),
                   c1=const(0.4), c2=const(0.1),
                   m1=JumpKernel(((Density.constant(0.5), Dirac((0.6, 0.1), 0.5)),)))
    v1 = solve_backward(env, 1.0, (2.0, 1.0), opts).at(0.0)
    v2 = solve_backward(env, 1.0, (2.0, 1.0), fine).at(0.0)
    assert np.max(np.abs(v1 - v2)) < 1e-8 * (1.0 + np.linalg.norm(v1))


def test_decoupled_types_solve_independently():
    k1 = JumpKernel(((Density.constant(0.5), Dirac((0.4, 0.0), 1.0)),))
    k2 = JumpKernel(((Density.constant(0.3), Dirac((0.0, 0.6), 0.8)),))
    both = make_env(b11=const(0.6), c1=const(0.3), b22=const(-0.2), c2=const(0.2),
                    m1=k1, m2=k2)
    only1 = make_env(b11=const(0.6), c1=const(0.3), m1=k1)
    only2 = make_env(b22=const(-0.2), c2=const(0.2), m2=k2)
    lam = (2.0, 1.3)
    vb = solve_backward(both, 1.0, lam)
    v1 = solve_backward(only1, 1.0, (lam[0], 0.0))
    v2 = solve_backward(only2, 1.0, (0.0, lam[1]))
    for r in np.linspace(0.0, 1.0, 5):
        assert vb.at(r)[0] == pytest.approx(v1.at(r)[0], rel=1e-8, abs=1e-10)
        assert vb.at(r)[1] == pytest.approx(v2.at(r)[1], rel=1e-8, abs=1e-10)


def feller_v_infinity(b, c, t):
    return b / (c * math.expm1(b * t))


def stable_v_infinity(b, rate, weight, alpha, t):
    k = rate * weight * math.gamma(2.0 - alpha) / (alpha * (alpha - 1.0))
    return (k * math.expm1((alpha - 1.0) * b * t) / b) ** (-1.0 / (alpha - 1.0))


def ladder(env, t, rungs=30):
    """Reference for v_infinity: solve_backward at lambda = 2^k (1, 1), k < rungs."""
    return np.array([solve_backward(env, t, (2.0 ** k, 2.0 ** k)).at(0.0)
                     for k in range(rungs)])


def cross_fed_env():
    return make_env(b11=const(0.5), b22=const(-0.3), b12=const(0.6),
                    c1=const(0.4), c2=const(0.3))


def test_v_infinity_zero_env_diverges():
    limit, diag = v_infinity(make_env(), 1.0)
    assert diag["status"] == ("diverged", "diverged")
    assert np.all(np.isinf(limit))
    assert diag["ladder"] == [] and diag["values"].size == 0


def test_v_infinity_feller_limit():
    b, c = 1.0, 0.5
    for t in (0.3, 1.0):
        limit, diag = v_infinity(feller_env(b, c), t)
        assert diag["status"] == ("converged", "diverged")  # inert type keeps v = lambda
        assert limit[0] == pytest.approx(feller_v_infinity(b, c, t), rel=1e-9)
        assert math.isinf(limit[1])


def test_v_infinity_bottleneck_component_annihilated():
    env = make_env(b11=atoms_only((0.5, 1.0)))
    limit, diag = v_infinity(env, 1.0)
    assert diag["status"][0] == "converged"
    assert limit[0] == pytest.approx(0.0, abs=1e-12)


def test_v_infinity_feller_full_bottleneck_is_exactly_zero():
    b, c = 1.0, 0.5
    for s in (0.5, 1.0):  # at s = t the atom maps infinity itself
        env = make_env(b11=const(b) + atoms_only((s, 1.0)), c1=const(c))
        limit, diag = v_infinity(env, 1.0)
        assert limit[0] == 0.0 and diag["status"][0] == "converged"
        assert extinction_prob(env, (2.0, 0.0), 1.0) == 1.0


def test_v_infinity_full_jump_atom_closed_form():
    # a jump atom Dirac(z = (1, 0), weight 1) has delta = 1 and maps v to 1 - e^{-v}
    b, c = 1.0, 0.5
    for s in (0.5, 1.0):
        env = make_env(b11=const(b), c1=const(c),
                       m1=JumpKernel((), ((s, Dirac((1.0, 0.0), 1.0)),)))
        v_left = 1.0 if s == 1.0 else -math.expm1(-feller_v_infinity(b, c, 1.0 - s))
        limit, _ = v_infinity(env, 1.0)
        assert limit[0] == pytest.approx(feller_closed_form(b, c, v_left, s), rel=1e-9)


def test_v_infinity_drift_free_diffusion_vanishing_at_t():
    # dv/dr = c(r) v^2 gives v_{0,t}(inf) = 1 / integral_0^t c
    c = Density.piecewise_linear([(0.0, 0.8), (0.4, 1.2), (1.0, 0.0)])
    env = make_env(c1=SignedMeasure1D(c, ()))
    for t in (1.0, 0.7):
        limit, diag = v_infinity(env, t)
        assert diag["status"][0] == "converged"
        assert limit[0] == pytest.approx(1.0 / c.integral(0.0, t), rel=1e-9)


def test_extinction_prob_values():
    assert extinction_prob(make_env(), (1.0, 0.0), 1.0) == 0.0
    b, c, t = 1.0, 0.5, 1.0
    expected = math.exp(-2.0 * feller_v_infinity(b, c, t))
    assert extinction_prob(feller_env(b, c), (2.0, 0.0), t) == pytest.approx(expected, rel=1e-9)
    # already-extinct start
    assert extinction_prob(feller_env(), (0.0, 0.0), 1.0) == 1.0


def test_extinction_prob_stable_closed_form():
    b, rate, weight, alpha = 0.5, 0.5, 0.15, 1.5
    env = make_env(b11=const(b),
                   m1=JumpKernel(((Density.constant(rate), StableAxis(0, alpha, weight)),)))
    limit, diag = v_infinity(env, 1.0)
    exact = stable_v_infinity(b, rate, weight, alpha, 1.0)
    assert diag["status"] == ("converged", "diverged")
    assert limit[0] == pytest.approx(exact, rel=1e-9)
    assert extinction_prob(env, (0.01, 0.0), 1.0) == pytest.approx(
        math.exp(-0.01 * exact), rel=1e-9)
    # the suite's stable-jump environment is this one
    assert v_infinity(stable_jump_env(), 1.0)[0][0] == pytest.approx(exact, rel=1e-9)


def test_v_infinity_decoupled_types_match_one_type_models():
    k1 = JumpKernel(((Density.constant(0.5), Dirac((0.4, 0.0), 1.0)),))
    k2 = JumpKernel(((Density.constant(0.4), Dirac((0.0, 0.3), 1.0)),))
    both = make_env(b11=const(0.6), c1=const(0.3), b22=const(-0.2), c2=const(0.2),
                    m1=k1, m2=k2)
    only1 = make_env(b11=const(0.6), c1=const(0.3), m1=k1)
    only2 = make_env(b22=const(-0.2), c2=const(0.2), m2=k2)
    vb, diag = v_infinity(both, 1.0)
    assert diag["status"] == ("converged", "converged")
    assert vb[0] == pytest.approx(v_infinity(only1, 1.0)[0][0], rel=1e-9)
    assert vb[1] == pytest.approx(v_infinity(only2, 1.0)[0][1], rel=1e-9)
    assert extinction_prob(both, (1.0, 2.0), 1.0) == pytest.approx(
        extinction_prob(only1, (1.0, 0.0), 1.0) * extinction_prob(only2, (0.0, 2.0), 1.0),
        rel=1e-9)


def test_v_infinity_bounds_the_ladder():
    envs = {repr(sc.env): (sc.name, sc.env) for sc in suite()}  # distinct environments
    for name, env in [*envs.values(), ("cross-fed", cross_fed_env())]:
        limit, diag = v_infinity(env, 1.0)
        rungs = ladder(env, 1.0)
        assert np.all(np.diff(rungs, axis=0) >= -1e-9 * (1.0 + rungs[1:])), name
        assert np.all(rungs <= limit * (1.0 + 1e-9)), name
        for i in range(2):
            assert diag["status"][i] == ("diverged" if math.isinf(limit[i]) else "converged")
            if diag["status"][i] == "diverged":
                assert rungs[-1, i] > 1e7, name


def test_v_infinity_cross_fed_pair_matches_extrapolated_ladder():
    # both types blow up at t and type 1 is fed by type 2; the ladder error
    # of a diffusive limit is O(1/lambda), so one Richardson step removes it
    env = cross_fed_env()
    limit, diag = v_infinity(env, 1.0)
    assert diag["status"] == ("converged", "converged")
    lo = solve_backward(env, 1.0, (2.0 ** 24, 2.0 ** 24)).at(0.0)
    hi = solve_backward(env, 1.0, (2.0 ** 25, 2.0 ** 25)).at(0.0)
    assert np.max(np.abs(2.0 * hi - lo - limit) / limit) < 1e-9


def test_v_infinity_refed_bottleneck_matches_log_ladder():
    # a terminal bottleneck zeroes type 2, but type 1 refeeds it at the
    # non-integrable rate b21 v_1 ~ b21 / (c1 (t - r)), so type 2 is infinite
    # just below t and the bottleneck leaves the limit unchanged; the ladder
    # gets there only like 1 / log(lambda)
    kw = dict(b11=const(0.5), c1=const(0.4), c2=const(0.3), b21=const(0.5))
    env = make_env(b22=atoms_only((1.0, 1.0)), **kw)
    limit, diag = v_infinity(env, 1.0)
    assert diag["status"] == ("converged", "converged")
    assert limit == pytest.approx(v_infinity(make_env(**kw), 1.0)[0], rel=1e-12)
    gap = [(limit[1] - solve_backward(env, 1.0, (2.0 ** k, 2.0 ** k)).at(0.0)[1]) * k
           for k in (20, 29)]
    assert gap[1] == pytest.approx(gap[0], rel=1e-3)


def test_v_infinity_fed_by_infinite_partner_diverges():
    # type 1 has diffusion, but type 2 has no super-linear term and feeds it
    env = make_env(b11=const(0.5), c1=const(0.4), b12=const(0.6), b22=const(0.2))
    limit, diag = v_infinity(env, 1.0)
    assert diag["status"] == ("diverged", "diverged")
    assert extinction_prob(env, (1.0, 0.0), 1.0) == 0.0
    rungs = ladder(env, 1.0)
    assert rungs[-1, 0] > 3.0 * rungs[-5, 0]  # grows like sqrt(lambda), unbounded


def test_v_infinity_unresolved_feed_raises():
    # type 1 is finite at t but fed by a blow-up through a cross drift that
    # vanishes at t: the sweep does not guess
    env = make_env(c2=const(0.5), b12=SignedMeasure1D(
        Density.piecewise_linear([(0.0, 1.0), (1.0, 0.0)]), ()))
    with pytest.raises(SolverError):
        solve_backward(env, 1.0, (1.0, math.inf))


def test_laplace_transform_at_infinity_uses_zero_times_inf():
    # type 2 is inert, so it stays infinite; with no mass on it the
    # transform at lambda = inf is the extinction probability
    env = feller_embed_env()
    inf = (math.inf, math.inf)
    p = laplace_transform(env, (1.0, 0.0), 0.0, 1.0, inf)
    assert p == extinction_prob(env, (1.0, 0.0), 1.0)
    assert 0.0 < p < 1.0
    # mass on a diverging component gives 0
    assert laplace_transform(env, (1.0, 0.5), 0.0, 1.0, inf) == 0.0
    assert laplace_transform(make_env(), (0.0, 2.0), 0.0, 1.0, inf) == 0.0


def test_solution_grid_contains_atoms_both_sided():
    env = make_env(b11=atoms_only((0.5, 0.4)))
    sol = solve_backward(env, 1.0, (2.0, 0.0))
    ts, vs, is_atom, left = sol.grid()
    k = int(np.flatnonzero(ts == 0.5)[0])
    assert is_atom[k]
    assert vs[k][0] == pytest.approx(2.0)       # right value
    assert left[k][0] == pytest.approx(1.2)     # 2.0 * (1 - 0.4)
    assert vs[0][0] == pytest.approx(1.2)


def test_terminal_time_atom_is_applied():
    env = make_env(b11=atoms_only((1.0, 0.5)), horizon=1.0)
    sol = solve_backward(env, 1.0, (2.0, 0.0))
    assert sol.at(1.0) == pytest.approx([2.0, 0.0])
    assert sol.left_at(1.0) == pytest.approx([1.0, 0.0])
    assert sol.at(0.3) == pytest.approx([1.0, 0.0])
