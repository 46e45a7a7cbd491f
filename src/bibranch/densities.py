"""Time densities and signed measures on the half-line.

Every time-varying coefficient of the model (diagonal drift, cross drift,
diffusion clock, jump-kernel rates, integral weights) is a measure on
(0, infinity) made of a piecewise-linear density plus finitely many atoms.
Piecewise-linear densities are closed under addition and scaling, which keeps
all derived measures (augmented cross drifts, truncation killing terms) in
the same family, and their integrals have exact closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Density", "SignedMeasure1D"]


class Density:
    """Piecewise-linear density on [0, inf) with declared breakpoints.

    Values are held constant beyond the first/last knot.  ``kind`` records
    how the density was declared (``constant``, ``piecewise_linear`` or
    ``table``) so configs round-trip.
    """

    __slots__ = ("kind", "knots", "values")

    def __init__(self, kind: str, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be 1-d arrays of equal length")
        if knots.size == 0:
            raise ValueError("density needs at least one knot")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("density knots and values must be finite")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knot times must be strictly increasing")
        self.kind = kind
        self.knots = knots
        self.values = values

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, v: float) -> "Density":
        return cls("constant", [0.0], [float(v)])

    @classmethod
    def zero(cls) -> "Density":
        return cls.constant(0.0)

    @classmethod
    def piecewise_linear(cls, points) -> "Density":
        pts = sorted((float(t), float(v)) for t, v in points)
        return cls("piecewise_linear", [p[0] for p in pts], [p[1] for p in pts])

    @classmethod
    def table(cls, mesh, values) -> "Density":
        return cls("table", mesh, values)

    # -- evaluation ------------------------------------------------------

    def __call__(self, t):
        if self.knots.size == 1:
            v = self.values[0]
            if np.isscalar(t) or np.ndim(t) == 0:
                return v
            return np.full(np.shape(t), v)
        return np.interp(t, self.knots, self.values)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def breakpoints(self, lo: float, hi: float):
        """Knot times strictly inside (lo, hi)."""
        return [float(t) for t in self.knots if lo < t < hi]

    # -- exact integrals ---------------------------------------------------

    def _grid(self, a: float, b: float) -> np.ndarray:
        inner = self.knots[(self.knots > a) & (self.knots < b)]
        return np.concatenate(([a], inner, [b]))

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the density over [a, b]."""
        if b <= a:
            return 0.0
        ts = self._grid(a, b)
        return float(np.trapezoid(self(ts), ts))

    def abs_integral(self, a: float, b: float) -> float:
        """Exact integral of |density| over [a, b] (splits sign changes)."""
        if b <= a:
            return 0.0
        ts = list(self._grid(a, b))
        vs = [float(self(t)) for t in ts]
        # insert zero crossings so the trapezoid rule stays exact
        full_t, full_v = [ts[0]], [vs[0]]
        for k in range(1, len(ts)):
            v0, v1 = vs[k - 1], vs[k]
            if v0 * v1 < 0:
                tz = ts[k - 1] + (ts[k] - ts[k - 1]) * v0 / (v0 - v1)
                full_t.append(tz)
                full_v.append(0.0)
            full_t.append(ts[k])
            full_v.append(v1)
        return float(np.trapezoid(np.abs(full_v), full_t))

    # -- algebra -----------------------------------------------------------

    def scaled(self, w: float) -> "Density":
        if w == 1.0:
            return self
        return Density("piecewise_linear" if self.knots.size > 1 else "constant",
                       self.knots, self.values * w)

    def __add__(self, other: "Density") -> "Density":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        knots = np.union1d(self.knots, other.knots)
        values = self(knots) + other(knots)
        kind = "constant" if knots.size == 1 else "piecewise_linear"
        return Density(kind, knots, values)

    def __repr__(self):
        return f"Density({self.kind}, knots={self.knots.tolist()}, values={self.values.tolist()})"


def _merge_atoms(a, b):
    masses: dict[float, float] = {}
    for t, m in list(a) + list(b):
        masses[t] = masses.get(t, 0.0) + m
    return tuple(sorted(masses.items()))


@dataclass(frozen=True)
class SignedMeasure1D:
    """Measure on (0, inf): piecewise-linear density plus atoms.

    Atom times are strictly increasing and positive; the density may take
    either sign (diagonal drift) or is constrained nonnegative by validation
    for the roles that require it.
    """

    density: Density = field(default_factory=Density.zero)
    atoms: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(t), float(m)) for t, m in self.atoms)
        times = [t for t, _ in atoms]
        if not all(t > 0 for t in times):
            raise ValueError("atom times must be positive")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("atom times must be strictly increasing")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_atom_map", dict(atoms))

    @classmethod
    def zero(cls) -> "SignedMeasure1D":
        return cls(Density.zero(), ())

    @classmethod
    def const(cls, v: float) -> "SignedMeasure1D":
        return cls(Density.constant(v), ())

    @property
    def is_zero(self) -> bool:
        return self.density.is_zero and not self.atoms

    def atom_mass(self, t: float) -> float:
        return self._atom_map.get(t, 0.0)

    @property
    def atom_times(self):
        return tuple(t for t, _ in self.atoms)

    def atoms_in(self, lo: float, hi: float):
        """Atoms with time in the half-open window (lo, hi]."""
        return [(t, m) for t, m in self.atoms if lo < t <= hi]

    def cumulative(self, t: float) -> float:
        """Measure of (0, t]: density integral plus atom masses up to t."""
        return self.density.integral(0.0, t) + sum(m for s, m in self.atoms if s <= t)

    def total_variation(self, t: float) -> float:
        return self.density.abs_integral(0.0, t) + sum(abs(m) for s, m in self.atoms if s <= t)

    def scaled(self, w: float) -> "SignedMeasure1D":
        return SignedMeasure1D(self.density.scaled(w), tuple((t, w * m) for t, m in self.atoms))

    def __add__(self, other: "SignedMeasure1D") -> "SignedMeasure1D":
        return SignedMeasure1D(self.density + other.density, _merge_atoms(self.atoms, other.atoms))
