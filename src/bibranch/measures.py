"""Spatial jump measures on R_+^2 \\ {0} as analytic components.

Each component carries a positive weight and knows its own closed forms:
first moments, the one-coordinate-compensated exponent integral

    integral of (exp(-<lam, z>) - 1 + lam_i * z_i) nu(dz),

the fully compensated variant (both coordinates), large-jump excess moments
used by truncation, and how to sample itself.  Finite-mass components also
give the Laplace gap, integral of (1 - exp(-<lam, z>)) nu(dz) (total mass
minus the Laplace transform), which stays finite at infinite lam and serves
the atom map there.  Components with a power tail
(``StableAxis``) additionally expose the split at a small-jump threshold used
by the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

__all__ = [
    "Dirac",
    "ExpProduct",
    "StableAxis",
    "CappedExpProduct",
    "CappedStableAxis",
    "UncompensatedStableError",
    "measure_from_config",
]


class UncompensatedStableError(ValueError):
    """A power-tail component sits on a coordinate the kernel does not compensate."""


def _as_pair(lam):
    l1, l2 = float(lam[0]), float(lam[1])
    if l1 < 0 or l2 < 0:
        raise ValueError("lambda must be componentwise nonnegative")
    return l1, l2


@dataclass(frozen=True)
class Dirac:
    """Point mass ``weight`` at z in R_+^2 \\ {0}."""

    z: tuple
    weight: float = 1.0

    def __post_init__(self):
        z = (float(self.z[0]), float(self.z[1]))
        object.__setattr__(self, "z", z)
        if min(z) < 0 or max(z) == 0:
            raise ValueError("Dirac location must be in R_+^2 minus the origin")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    infinite_activity = False

    def mass(self) -> float:
        return self.weight

    def mean(self, i: int) -> float:
        return self.weight * self.z[i]

    def compensated_exponent(self, i: int, lam) -> float:
        l1, l2 = _as_pair(lam)
        dot = l1 * self.z[0] + l2 * self.z[1]
        return self.weight * (math.exp(-dot) - 1.0 + (l1, l2)[i] * self.z[i])

    def full_exponent(self, lam) -> float:
        l1, l2 = _as_pair(lam)
        dot = l1 * self.z[0] + l2 * self.z[1]
        return self.weight * (math.exp(-dot) - 1.0 + dot)

    def laplace_gap(self, lam) -> float:
        """integral of (1 - exp(-<lam, z>)) nu(dz); lam may hold inf, with 0 * inf = 0."""
        dot = sum(float(l) * z for l, z in zip(lam, self.z) if z > 0.0)
        return -self.weight * math.expm1(-dot)

    def sample(self, rng, n: int) -> np.ndarray:
        return np.tile(self.z, (n, 1))

    def excess(self, i: int, cap: float) -> float:
        return self.weight * max(self.z[i] - cap, 0.0)

    def truncated(self, cap: float) -> "Dirac":
        return Dirac((min(self.z[0], cap), min(self.z[1], cap)), self.weight)

    def to_config(self) -> dict:
        return {"kind": "dirac", "z": list(self.z), "weight": self.weight}


def _gap_factor(lam: float, theta: float) -> float:
    """lam / (theta + lam), one minus an exponential Laplace factor; 1 at lam = inf."""
    return 1.0 if lam == math.inf else lam / (theta + lam)


@dataclass(frozen=True)
class ExpProduct:
    """Product-exponential density w * t1 * t2 * exp(-t1 z1 - t2 z2) on R_+^2."""

    theta1: float
    theta2: float
    weight: float = 1.0

    def __post_init__(self):
        if self.theta1 <= 0 or self.theta2 <= 0 or self.weight <= 0:
            raise ValueError("ExpProduct needs positive rates and weight")

    infinite_activity = False

    def mass(self) -> float:
        return self.weight

    def mean(self, i: int) -> float:
        return self.weight / (self.theta1, self.theta2)[i]

    def _laplace(self, l1: float, l2: float) -> float:
        return (self.theta1 / (self.theta1 + l1)) * (self.theta2 / (self.theta2 + l2))

    def compensated_exponent(self, i: int, lam) -> float:
        l1, l2 = _as_pair(lam)
        li = (l1, l2)[i]
        return self.weight * (self._laplace(l1, l2) - 1.0 + li / (self.theta1, self.theta2)[i])

    def full_exponent(self, lam) -> float:
        l1, l2 = _as_pair(lam)
        return self.weight * (self._laplace(l1, l2) - 1.0 + l1 / self.theta1 + l2 / self.theta2)

    def laplace_gap(self, lam) -> float:
        """integral of (1 - exp(-<lam, z>)) nu(dz); lam may hold inf.

        Cancellation-free: w (a1 + L1 a2) with a_k = 1 - L_k = lam_k / (theta_k + lam_k).
        """
        l1, l2 = _as_pair(lam)
        return self.weight * (_gap_factor(l1, self.theta1)
                              + self.theta1 / (self.theta1 + l1) * _gap_factor(l2, self.theta2))

    def sample(self, rng, n: int) -> np.ndarray:
        return np.column_stack(
            [rng.exponential(1.0 / self.theta1, n), rng.exponential(1.0 / self.theta2, n)]
        )

    def excess(self, i: int, cap: float) -> float:
        th = (self.theta1, self.theta2)[i]
        return self.weight * math.exp(-th * cap) / th

    def truncated(self, cap: float) -> "CappedExpProduct":
        return CappedExpProduct(self.theta1, self.theta2, cap, self.weight)

    def to_config(self) -> dict:
        return {
            "kind": "exp_product",
            "theta1": self.theta1,
            "theta2": self.theta2,
            "weight": self.weight,
        }


def _stable_const(alpha: float) -> float:
    # integral over (0, inf) of (exp(-z) - 1 + z) z^(-1-alpha) dz
    return sc.gamma(2.0 - alpha) / (alpha * (alpha - 1.0))


def _capped_stable_small(alpha: float, x: float, cap: float) -> float:
    """integral over (0, cap] of (exp(-lam z) - 1 + lam z) z^(-1-alpha) dz with x = lam*cap.

    For moderate x uses the cancellation-free series
    cap^(-alpha) * sum_{n>=2} (-x)^n / (n! (n - alpha)); for large x the
    upper-incomplete-gamma route is stable.
    """
    if x == 0.0:
        return 0.0
    if x < 25.0:
        acc = 0.0
        term = 1.0  # (-x)^n / n! running factor, starting at n=0
        for n in range(1, 200):
            term *= -x / n
            if n >= 2:
                contrib = term / (n - alpha)
                acc += contrib
                if abs(contrib) < 1e-18 * (abs(acc) + 1e-300) and n > x + 8:
                    break
        return cap ** (-alpha) * acc
    # Gamma(-alpha, x) by downward recursion from the regularized upper gamma
    g2 = sc.gammaincc(2.0 - alpha, x) * sc.gamma(2.0 - alpha)
    g1 = (g2 - x ** (1.0 - alpha) * math.exp(-x)) / (1.0 - alpha)
    g0 = (g1 - x ** (-alpha) * math.exp(-x)) / (-alpha)
    lam = x / cap
    tail = lam ** alpha * g0 - cap ** (-alpha) / alpha + lam * cap ** (1.0 - alpha) / (alpha - 1.0)
    return _stable_const(alpha) * lam ** alpha - tail


@dataclass(frozen=True)
class StableAxis:
    """Measure w * z^(-1-alpha) dz on one coordinate axis, alpha in (1, 2).

    The first moment diverges at the origin, so the component is only
    admissible on the coordinate its kernel compensates.
    """

    axis: int
    alpha: float
    weight: float = 1.0

    def __post_init__(self):
        if self.axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie strictly in (1, 2)")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    infinite_activity = True

    def mass(self) -> float:
        return math.inf

    def mean(self, i: int) -> float:
        return math.inf if i == self.axis else 0.0

    def compensated_exponent(self, i: int, lam) -> float:
        l1, l2 = _as_pair(lam)
        if i != self.axis:
            raise UncompensatedStableError(
                "stable component on axis %d inside a kernel compensating axis %d" % (self.axis, i)
            )
        la = (l1, l2)[self.axis]
        return self.weight * _stable_const(self.alpha) * la ** self.alpha

    def full_exponent(self, lam) -> float:
        # supported on one axis, so full and one-coordinate compensation agree
        return self.compensated_exponent(self.axis, lam)

    def sample(self, rng, n: int) -> np.ndarray:
        raise ValueError("StableAxis has infinite total mass; sample its tail instead")

    # -- small-jump split -------------------------------------------------

    def tail_mass(self, eps: float) -> float:
        return self.weight * eps ** (-self.alpha) / self.alpha

    def tail_mean(self, eps: float) -> float:
        return self.weight * eps ** (1.0 - self.alpha) / (self.alpha - 1.0)

    def small_var(self, eps: float) -> float:
        return self.weight * eps ** (2.0 - self.alpha) / (2.0 - self.alpha)

    def tail_sample(self, rng, n: int, eps: float) -> np.ndarray:
        out = np.zeros((n, 2))
        out[:, self.axis] = eps * rng.random(n) ** (-1.0 / self.alpha)
        return out

    def excess(self, i: int, cap: float) -> float:
        if i != self.axis:
            return 0.0
        return self.weight * cap ** (1.0 - self.alpha) / (self.alpha * (self.alpha - 1.0))

    def truncated(self, cap: float) -> "CappedStableAxis":
        return CappedStableAxis(self.axis, self.alpha, cap, self.weight)

    def to_config(self) -> dict:
        return {
            "kind": "stable_axis",
            "axis": self.axis + 1,
            "alpha": self.alpha,
            "weight": self.weight,
        }


@dataclass(frozen=True)
class CappedExpProduct:
    """Pushforward of :class:`ExpProduct` under componentwise min with ``cap``."""

    theta1: float
    theta2: float
    cap: float
    weight: float = 1.0

    def __post_init__(self):
        if self.theta1 <= 0 or self.theta2 <= 0 or self.weight <= 0 or self.cap <= 0:
            raise ValueError("CappedExpProduct needs positive rates, weight and cap")

    infinite_activity = False

    def _m1(self, th: float) -> float:
        return (1.0 - math.exp(-th * self.cap)) / th

    def _l1(self, lam: float, th: float) -> float:
        c = self.cap
        return th / (th + lam) * (1.0 - math.exp(-(th + lam) * c)) + math.exp(-(th + lam) * c)

    def mass(self) -> float:
        return self.weight

    def mean(self, i: int) -> float:
        return self.weight * self._m1((self.theta1, self.theta2)[i])

    def compensated_exponent(self, i: int, lam) -> float:
        l1, l2 = _as_pair(lam)
        li = (l1, l2)[i]
        prod = self._l1(l1, self.theta1) * self._l1(l2, self.theta2)
        return self.weight * (prod - 1.0 + li * self._m1((self.theta1, self.theta2)[i]))

    def full_exponent(self, lam) -> float:
        l1, l2 = _as_pair(lam)
        prod = self._l1(l1, self.theta1) * self._l1(l2, self.theta2)
        return self.weight * (prod - 1.0 + l1 * self._m1(self.theta1) + l2 * self._m1(self.theta2))

    def laplace_gap(self, lam) -> float:
        """integral of (1 - exp(-<lam, z>)) nu(dz); lam may hold inf.

        w (a1 + L1 a2) as for :class:`ExpProduct`, with the capped
        a_k = lam_k / (theta_k + lam_k) (1 - exp(-(theta_k + lam_k) cap)).
        """
        (l1, l2), c = _as_pair(lam), self.cap
        a1 = _gap_factor(l1, self.theta1) * -math.expm1(-(self.theta1 + l1) * c)
        a2 = _gap_factor(l2, self.theta2) * -math.expm1(-(self.theta2 + l2) * c)
        return self.weight * (a1 + self._l1(l1, self.theta1) * a2)

    def sample(self, rng, n: int) -> np.ndarray:
        z = np.column_stack(
            [rng.exponential(1.0 / self.theta1, n), rng.exponential(1.0 / self.theta2, n)]
        )
        return np.minimum(z, self.cap)

    def excess(self, i: int, cap: float) -> float:
        if cap >= self.cap:
            return 0.0
        th = (self.theta1, self.theta2)[i]
        return self.weight * (math.exp(-th * cap) - math.exp(-th * self.cap)) / th

    def truncated(self, cap: float) -> "CappedExpProduct":
        return CappedExpProduct(self.theta1, self.theta2, min(cap, self.cap), self.weight)

    def to_config(self) -> dict:
        return {
            "kind": "exp_product_capped",
            "theta1": self.theta1,
            "theta2": self.theta2,
            "cap": self.cap,
            "weight": self.weight,
        }


@dataclass(frozen=True)
class CappedStableAxis:
    """Pushforward of :class:`StableAxis` under min with ``cap`` on its axis."""

    axis: int
    alpha: float
    cap: float
    weight: float = 1.0

    def __post_init__(self):
        if self.axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie strictly in (1, 2)")
        if self.weight <= 0 or self.cap <= 0:
            raise ValueError("weight and cap must be positive")

    infinite_activity = True

    def mass(self) -> float:
        return math.inf

    def mean(self, i: int) -> float:
        return math.inf if i == self.axis else 0.0

    def compensated_exponent(self, i: int, lam) -> float:
        l1, l2 = _as_pair(lam)
        if i != self.axis:
            raise UncompensatedStableError(
                "stable component on axis %d inside a kernel compensating axis %d" % (self.axis, i)
            )
        la = (l1, l2)[self.axis]
        a, c = self.alpha, self.cap
        small = _capped_stable_small(a, la * c, c)
        boundary = (math.exp(-la * c) - 1.0 + la * c) * c ** (-a) / a
        return self.weight * (small + boundary)

    def full_exponent(self, lam) -> float:
        return self.compensated_exponent(self.axis, lam)

    def sample(self, rng, n: int) -> np.ndarray:
        raise ValueError("CappedStableAxis has infinite total mass; sample its tail instead")

    def tail_mass(self, eps: float) -> float:
        return self.weight * eps ** (-self.alpha) / self.alpha

    def tail_mean(self, eps: float) -> float:
        a, c = self.alpha, self.cap
        if eps >= c:
            return c * self.tail_mass(eps)
        return self.weight * ((eps ** (1.0 - a) - c ** (1.0 - a)) / (a - 1.0) + c ** (1.0 - a) / a)

    def small_var(self, eps: float) -> float:
        return self.weight * min(eps, self.cap) ** (2.0 - self.alpha) / (2.0 - self.alpha)

    def tail_sample(self, rng, n: int, eps: float) -> np.ndarray:
        out = np.zeros((n, 2))
        raw = eps * rng.random(n) ** (-1.0 / self.alpha)
        out[:, self.axis] = np.minimum(raw, self.cap)
        return out

    def excess(self, i: int, cap: float) -> float:
        if i != self.axis or cap >= self.cap:
            return 0.0
        a, c = self.alpha, self.cap
        body = (cap ** (1.0 - a) - c ** (1.0 - a)) / (a - 1.0) - cap * (cap ** (-a) - c ** (-a)) / a
        return self.weight * (body + (c - cap) * c ** (-a) / a)

    def truncated(self, cap: float) -> "CappedStableAxis":
        return CappedStableAxis(self.axis, self.alpha, min(cap, self.cap), self.weight)

    def to_config(self) -> dict:
        return {
            "kind": "stable_axis_capped",
            "axis": self.axis + 1,
            "alpha": self.alpha,
            "cap": self.cap,
            "weight": self.weight,
        }


_KINDS = {
    "dirac": lambda d: Dirac(tuple(d["z"]), d.get("weight", 1.0)),
    "exp_product": lambda d: ExpProduct(d["theta1"], d["theta2"], d.get("weight", 1.0)),
    "stable_axis": lambda d: StableAxis(int(d["axis"]) - 1, d["alpha"], d.get("weight", 1.0)),
    "exp_product_capped": lambda d: CappedExpProduct(
        d["theta1"], d["theta2"], d["cap"], d.get("weight", 1.0)
    ),
    "stable_axis_capped": lambda d: CappedStableAxis(
        int(d["axis"]) - 1, d["alpha"], d["cap"], d.get("weight", 1.0)
    ),
}


def measure_from_config(d: dict):
    kind = d.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unsupported spatial measure kind: {kind!r}")
    return _KINDS[kind](d)
