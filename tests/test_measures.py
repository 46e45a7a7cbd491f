"""Analytic exponent integrals cross-checked against adaptive quadrature.

Every spatial component must reproduce the one-coordinate-compensated
integral of exp(-<lam, z>) - 1 + lam_i z_i to relative error below 1e-8 on a
lambda grid in [0, 10]^2; quadrature here is the independent oracle and is
run at much tighter tolerance than the assertion.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

# the oracles push quad hard on purpose; accuracy is what the asserts check
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

from bibranch.measures import (
    CappedExpProduct,
    CappedStableAxis,
    Dirac,
    ExpProduct,
    StableAxis,
    UncompensatedStableError,
)

LAM_GRID = [(0.0, 0.0), (0.3, 0.0), (1.0, 0.7), (2.5, 4.0), (10.0, 10.0), (0.0, 3.0)]


def k_comp(lam, z, i):
    return math.exp(-(lam[0] * z[0] + lam[1] * z[1])) - 1.0 + lam[i] * z[i]


def mixed_close(a, b, rel=1e-8):
    assert abs(a - b) <= rel * (1.0 + abs(a)), (a, b)


def test_dirac_matches_direct_evaluation():
    d = Dirac((0.7, 1.3), 0.8)
    for lam in LAM_GRID:
        for i in (0, 1):
            mixed_close(d.compensated_exponent(i, lam), 0.8 * k_comp(lam, (0.7, 1.3), i))
    mixed_close(d.full_exponent((1.0, 2.0)),
                0.8 * (math.exp(-(0.7 + 2.6)) - 1.0 + 0.7 + 2.6))


def test_dirac_spec_value():
    d = Dirac((1.0, 1.0), 1.0)
    assert d.compensated_exponent(0, (1.0, 1.0)) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_exp_product_vs_quadrature():
    m = ExpProduct(2.0, 1.3, 0.9)
    for lam in LAM_GRID:
        for i in (0, 1):
            got = m.compensated_exponent(i, lam)
            want, _ = integrate.dblquad(
                lambda z2, z1: 0.9 * 2.0 * 1.3 * math.exp(-2.0 * z1 - 1.3 * z2)
                * k_comp(lam, (z1, z2), i),
                0, 40, 0, 40, epsabs=1e-12, epsrel=1e-11)
            mixed_close(got, want)
    assert m.mean(0) == pytest.approx(0.9 / 2.0)
    assert m.mean(1) == pytest.approx(0.9 / 1.3)


def test_stable_axis_formula_vs_quadrature():
    s = StableAxis(0, 1.5, 1.0)
    got = s.compensated_exponent(0, (4.0, 0.0))
    expected = math.gamma(0.5) / (1.5 * 0.5) * 4.0 ** 1.5
    assert got == pytest.approx(expected, rel=1e-12)
    want, _ = integrate.quad(
        lambda z: (math.exp(-4.0 * z) - 1.0 + 4.0 * z) * z ** -2.5,
        0, np.inf, epsabs=1e-11, epsrel=1e-11)
    mixed_close(got, want)


def _kexp(x):
    """exp(-x) - 1 + x without cancellation for tiny x."""
    if x > 1e-3:
        return math.expm1(-x) + x
    return x * x / 2.0 * (1.0 - x / 3.0 + x * x / 12.0 - x ** 3 / 60.0)


def _stable_oracle(alpha, w, lam):
    """Quadrature with the endpoint singularity removed by z = u^k.

    With k = 2/(2 - alpha) the transformed head integrand vanishes linearly
    at 0 (evaluated through the cancellation-free _kexp), so adaptive
    quadrature reaches machine accuracy; the tail splits into a decaying
    exponential integral plus closed-form pieces.
    """
    k = 2.0 / (2.0 - alpha)
    head, _ = integrate.quad(
        lambda u: k * _kexp(lam * u ** k) * u ** (-k * alpha - 1.0) if u > 0 else 0.0,
        0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)
    exp_tail, _ = integrate.quad(
        lambda z: math.exp(-lam * z) * z ** (-1.0 - alpha),
        1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    tail = exp_tail - 1.0 / alpha + lam / (alpha - 1.0)
    return w * (head + tail)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_stable_axis_alpha_sweep(alpha):
    s = StableAxis(1, alpha, 0.6)
    for lam1 in (0.4, 2.0, 10.0):
        got = s.compensated_exponent(1, (0.0, lam1))
        mixed_close(got, _stable_oracle(alpha, 0.6, lam1))


def test_stable_rejects_uncompensated_coordinate():
    s = StableAxis(0, 1.5, 1.0)
    with pytest.raises(UncompensatedStableError):
        s.compensated_exponent(1, (1.0, 1.0))


def test_stable_parameter_range():
    with pytest.raises(ValueError):
        StableAxis(0, 0.8, 1.0)
    with pytest.raises(ValueError):
        StableAxis(0, 2.0, 1.0)


def _capped_exp_quad(m, lam, i):
    th1, th2, c, w = m.theta1, m.theta2, m.cap, m.weight

    def f(z1, z2):
        return k_comp(lam, (min(z1, c), min(z2, c)), i)

    body, _ = integrate.dblquad(
        lambda z2, z1: w * th1 * th2 * math.exp(-th1 * z1 - th2 * z2) * f(z1, z2),
        0, c, 0, c, epsabs=1e-13, epsrel=1e-12)
    edge1, _ = integrate.quad(
        lambda z1: w * th1 * math.exp(-th1 * z1) * math.exp(-th2 * c) * f(z1, c),
        0, c, epsabs=1e-13, epsrel=1e-12)
    edge2, _ = integrate.quad(
        lambda z2: w * th2 * math.exp(-th2 * z2) * math.exp(-th1 * c) * f(c, z2),
        0, c, epsabs=1e-13, epsrel=1e-12)
    corner = w * math.exp(-th1 * c - th2 * c) * f(c, c)
    return body + edge1 + edge2 + corner


def test_capped_exp_product_vs_quadrature():
    m = CappedExpProduct(2.0, 1.0, 1.5, 0.8)
    for lam in LAM_GRID:
        for i in (0, 1):
            mixed_close(m.compensated_exponent(i, lam), _capped_exp_quad(m, lam, i))
    # first moment of the pushforward
    want, _ = integrate.quad(lambda z: min(z, 1.5) * 2.0 * math.exp(-2.0 * z),
                             0, np.inf, epsabs=1e-13)
    assert m.mean(0) == pytest.approx(0.8 * want, rel=1e-10)


@pytest.mark.parametrize("lam1", [0.05, 0.5, 3.0, 10.0, 40.0])
def test_capped_stable_vs_quadrature(lam1):
    m = CappedStableAxis(0, 1.5, 2.0, 0.7)
    got = m.compensated_exponent(0, (lam1, 0.0))

    def f(z):
        return 0.7 * (math.exp(-lam1 * min(z, 2.0)) - 1.0 + lam1 * min(z, 2.0)) * z ** -2.5

    want = integrate.quad(f, 0, 2.0, epsabs=1e-12, epsrel=1e-12)[0] \
        + integrate.quad(f, 2.0, np.inf, epsabs=1e-12, epsrel=1e-12)[0]
    mixed_close(got, want)


def test_capped_stable_series_gamma_branch_agree():
    # the series (x < 25) and incomplete-gamma (x >= 25) branches must join smoothly
    m = CappedStableAxis(0, 1.4, 1.0, 1.0)
    lo = m.compensated_exponent(0, (24.999, 0.0))
    hi = m.compensated_exponent(0, (25.001, 0.0))
    assert abs(hi - lo) < 1e-3 * abs(lo)


def test_tail_split_moments():
    s = StableAxis(0, 1.5, 0.4)
    eps = 1e-2
    assert s.tail_mass(eps) == pytest.approx(0.4 * eps ** -1.5 / 1.5, rel=1e-12)
    want, _ = integrate.quad(lambda z: 0.4 * z * z ** -2.5, eps, np.inf)
    assert s.tail_mean(eps) == pytest.approx(want, rel=1e-10)
    want2, _ = integrate.quad(lambda z: 0.4 * z * z * z ** -2.5, 0, eps)
    assert s.small_var(eps) == pytest.approx(want2, rel=1e-10)


def test_tail_sampling_matches_pareto_law():
    s = StableAxis(1, 1.5, 1.0)
    rng = np.random.default_rng(5)
    eps = 0.1
    z = s.tail_sample(rng, 200_000, eps)
    assert np.all(z[:, 0] == 0.0)
    assert np.all(z[:, 1] >= eps)
    # P(Z > 2 eps) = 2^-alpha
    frac = np.mean(z[:, 1] > 2 * eps)
    assert frac == pytest.approx(2.0 ** -1.5, abs=4 * 0.35 / math.sqrt(200_000))


def test_excess_moments():
    d = Dirac((3.0, 0.5), 1.0)
    assert d.excess(0, 2.0) == 1.0
    assert d.excess(1, 2.0) == 0.0
    m = ExpProduct(2.0, 1.0, 0.9)
    want, _ = integrate.quad(lambda z: 0.9 * (z - 1.2) * 2.0 * math.exp(-2.0 * z),
                             1.2, np.inf, epsabs=1e-13)
    assert m.excess(0, 1.2) == pytest.approx(want, rel=1e-10)
    s = StableAxis(0, 1.5, 0.5)
    want, _ = integrate.quad(lambda z: 0.5 * (z - 2.0) * z ** -2.5, 2.0, np.inf)
    assert s.excess(0, 2.0) == pytest.approx(want, rel=1e-10)
    cs = s.truncated(4.0)
    want = integrate.quad(lambda z: 0.5 * (min(z, 4.0) - 2.0) * z ** -2.5, 2.0, np.inf)[0]
    assert cs.excess(0, 2.0) == pytest.approx(want, rel=1e-10)


def test_truncation_composes():
    m = ExpProduct(2.0, 1.0, 0.9).truncated(3.0).truncated(1.0)
    assert m.cap == 1.0
    s = StableAxis(0, 1.5, 0.5).truncated(2.0)
    assert s.truncated(5.0).cap == 2.0


def test_laplace_gap_is_mass_minus_laplace_transform():
    # gap = <lam, mean> - full exponent on finite lam; the full mass at
    # infinite lam, with a zero coordinate of z ignoring an infinite lam
    for meas in (Dirac((0.7, 0.0), 0.8), ExpProduct(1.5, 2.5, 0.6),
                 CappedExpProduct(1.5, 2.5, 0.4, 0.6)):
        for lam in LAM_GRID:
            expected = lam[0] * meas.mean(0) + lam[1] * meas.mean(1) - meas.full_exponent(lam)
            mixed_close(meas.laplace_gap(lam), expected)
        assert meas.laplace_gap((math.inf, math.inf)) == meas.mass()
        assert meas.laplace_gap((math.inf, 0.0)) == meas.mass()
    d = Dirac((0.7, 0.0), 0.8)
    assert d.laplace_gap((0.5, math.inf)) == pytest.approx(0.8 * -math.expm1(-0.35), rel=1e-15)


def _exp_neg(y: Fraction, terms: int = 80) -> Fraction:
    """e^{-y} as an exact rational Taylor sum (y of order 1)."""
    acc, term = Fraction(0), Fraction(1)
    for n in range(terms):
        acc += term
        term *= -y / (n + 1)
    return acc


def test_laplace_gap_keeps_relative_precision_at_small_lambda():
    # w (1 - L1 L2) cancels at small lambda; the gap must not
    lam = (1e-9, 1e-9)
    l1, l2 = Fraction(lam[0]), Fraction(lam[1])
    for meas in (ExpProduct(3.0, 2.0, 0.5), CappedExpProduct(3.0, 2.0, 0.7, 0.5)):
        factors = []
        for lk, th in ((l1, Fraction(meas.theta1)), (l2, Fraction(meas.theta2))):
            f = th / (th + lk)
            if isinstance(meas, CappedExpProduct):
                e = _exp_neg((th + lk) * Fraction(meas.cap))
                f = f * (1 - e) + e
            factors.append(f)
        exact = Fraction(meas.weight) * (1 - factors[0] * factors[1])
        assert abs(Fraction(meas.laplace_gap(lam)) - exact) <= Fraction(1e-14) * exact
