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
    _capped_stable_small,
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


def test_capped_stable_series_and_closed_form_join():
    # the series (x < 0.5) and the closed form (x >= 0.5) must join smoothly
    m = CappedStableAxis(0, 1.4, 1.0, 1.0)
    lo = m.compensated_exponent(0, (0.4999, 0.0))
    hi = m.compensated_exponent(0, (0.5001, 0.0))
    assert abs(hi - lo) < 1e-3 * abs(lo)


# sum_{n>=2} (-x)^n / (n! (n - alpha)), the small-jump integral at cap = 1, to
# 50 digits: summed offline at 1000 digits, and equal to the closed form of
# _capped_stable_small evaluated at 80 digits to 55 digits
CAPPED_STABLE_SMALL_REF = {
    (1.2, 1e-8): "0.000000000000000062499999907407407556216930997632971606533695007394",
    (1.2, 1e-4): "0.0000000062499074088954807159674325301164618143500114612365",
    (1.2, 0.1): "0.0061588738587880072302033867430117273223231852454892",
    (1.2, 0.499): "0.14497986675535680712822915501260604409512289624193",
    (1.2, 0.5): "0.14554172219875926847978580803313222166082519756143",
    (1.2, 1): "0.54535384303075952459415517918976051076147350227796",
    (1.2, 10): "27.715819052047258775641659858959093582667170319039",
    (1.2, 24): "100.66027993463145810751617551394587919648412091075",
    (1.2, 30): "138.15802094794407279116706993877550078393149466101",
    (1.2, 1e3): "14312.841550228692886741734638241480286407395842904",
    (1.5, 1e-8): "0.000000000000000099999999888888889055555555317460317768959435265352",
    (1.5, 1e-4): "0.000000009999888890555531746340384399589222138461491580546",
    (1.5, 0.1): "0.0098905320511040098059820555248416186359420478089007",
    (1.5, 0.499): "0.23615947353232450470259871592888980810244652030735",
    (1.5, 0.5): "0.23708292792809920211553641352003004081760952339433",
    (1.5, 1): "0.90345064828076694879559567645924859257587325218813",
    (1.5, 10): "55.399879200881722310876956132451807079868380634437",
    (1.5, 24): "230.52954841704001851265599766550248891631296173977",
    (1.5, 30): "328.99184917780651458893274047955605663850347610751",
    (1.5, 1e3): "72733.88288530571599081709911825067858472431700281",
    (1.9, 1e-8): "0.00000000000000049999999984848484868326118299236605722093930158881",
    (1.9, 1e-4): "0.000000049999848486832584951230152001435196486990774811866",
    (1.9, 0.1): "0.049850442428651761411803912299005536164483197784642",
    (1.9, 0.499): "1.2273309801067991081367388458720479360915007419637",
    (1.9, 0.5): "1.232221684286024374157933458791713265961084404126",
    (1.9, 1): "4.8659415043842280878204458125826733679071263740219",
    (1.9, 10): "431.33612369500879559605906625823778504287110833843",
    (1.9, 24): "2305.9529575984339321204239604550261601919492986322",
    (1.9, 30): "3530.67808504677942944400921298409571199761683545",
    (1.9, 1e3): "2787221.9330921281901603820309708557488528426243753",
}


@pytest.mark.parametrize("alpha, x", sorted(CAPPED_STABLE_SMALL_REF))
def test_capped_stable_small_matches_50_digit_reference(alpha, x):
    want = Fraction(CAPPED_STABLE_SMALL_REF[alpha, x])
    got = Fraction(_capped_stable_small(alpha, x, 1.0))
    assert abs(got - want) <= Fraction(1, 10 ** 13) * want, float(got / want - 1)


EXPONENT_MEASURES = [Dirac((0.7, 1.3), 0.8), ExpProduct(2.0, 1.3, 0.9), StableAxis(0, 1.5, 0.4),
                     CappedExpProduct(2.0, 1.3, 1.5, 0.8), CappedStableAxis(1, 1.4, 2.0, 0.7)]


@pytest.mark.parametrize("meas", EXPONENT_MEASURES, ids=lambda m: type(m).__name__)
def test_compensated_exponent_is_the_private_exponent_bit_for_bit(meas):
    axes = (meas.axis,) if hasattr(meas, "axis") else (0, 1)
    for lam in LAM_GRID + [(1e-9, 2e-9), (0.2, 0.24), (12.0, 15.0), (600.0, 800.0)]:
        for i in axes:
            want = meas._exponent(i, float(lam[0]), float(lam[1]))
            assert meas.compensated_exponent(i, lam).hex() == want.hex()
            assert meas.compensated_exponent(i, np.array(lam)).hex() == want.hex()
    for lam in ((-0.5, 1.0), (1.0, -1e-300)):
        with pytest.raises(ValueError, match="nonnegative"):
            meas.compensated_exponent(axes[0], lam)


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
