"""Two-type varying environment: drift, diffusion and jump data plus validation.

An environment bundles, per type i, the diagonal drift measure b_ii (signed),
the cross drift b_ij (nonnegative, i != j), the diffusion clock c_i
(nonnegative density, no atoms) and the jump kernel m_i (time-density
components plus finite-mass atoms of spatial measures).  ``validate`` checks
the structural constraints and the two model constraints that everything
downstream relies on: per-component jump integrability and the atom-strength
bound delta_i(t) <= 1.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .densities import Density, SignedMeasure1D, _merge_atoms

__all__ = [
    "JumpKernel",
    "EnvSpec",
    "AtomInfo",
    "Violation",
    "ValidationReport",
    "validate",
    "delta",
    "bar_b",
    "atom_info",
    "nonnegative_pair",
    "nonnegative_pairs",
]


def nonnegative_pairs(v, name: str, inf_ok: bool = False) -> np.ndarray:
    """v as a float (k, 2) array, (0, 2) when empty, of nonnegative pairs."""
    v = np.asarray(v, dtype=float) if len(v) else np.empty((0, 2))
    return _pair_rule(v, v.ndim == 2 and v.shape[1] == 2, "(k, 2) array", name, inf_ok)


def nonnegative_pair(v, name: str, inf_ok: bool = False) -> np.ndarray:
    """v as a float 2-vector, the one-row case of :func:`nonnegative_pairs`."""
    v = np.asarray(v, dtype=float)
    return _pair_rule(v, v.shape == (2,), "2-vector", name, inf_ok)


def _pair_rule(v: np.ndarray, shaped: bool, form: str, name: str, inf_ok: bool) -> np.ndarray:
    """The one pair rule: every entry >= 0 (NaN fails) and finite; ``inf_ok``
    admits inf, as a terminal lambda may be."""
    if not (shaped and (v >= 0.0).all()):
        raise ValueError(f"{name} must be a nonnegative {form}")
    if not (inf_ok or (v < math.inf).all()):
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class JumpKernel:
    """Jump measure m(ds, dz): density components (rate, spatial) plus atoms."""

    density_components: tuple = ()
    atoms: tuple = ()  # (time, spatial measure); times nondecreasing

    def __post_init__(self):
        comps = tuple((rate, meas) for rate, meas in self.density_components)
        atoms = tuple((float(t), meas) for t, meas in self.atoms)
        if not all(t > 0 for t, _ in atoms):
            raise ValueError("atom times must be positive")
        object.__setattr__(self, "density_components", comps)
        object.__setattr__(self, "atoms", tuple(sorted(atoms, key=lambda a: a[0])))

    @classmethod
    def zero(cls) -> "JumpKernel":
        return cls((), ())

    @property
    def is_zero(self) -> bool:
        return not self.density_components and not self.atoms

    @property
    def atom_times(self):
        return tuple(t for t, _ in self.atoms)

    def atoms_at(self, t: float):
        return [meas for s, meas in self.atoms if s == t]

    def mean_density(self, i: int) -> Density:
        """Time density of the coordinate-i first moment of the density part."""
        out = Density.zero()
        for rate, meas in self.density_components:
            mi = meas.mean(i)
            if mi == math.inf:
                raise ValueError("first moment diverges; kernel not validated for this use")
            if mi != 0.0:
                out = out + rate.scaled(mi)
        return out


@dataclass(frozen=True)
class EnvSpec:
    """Immutable environment data for a two-type branching model.

    The sorted atom times and density knots of all coefficients are computed
    once, at construction, so the window queries below are bisections.
    """

    b: tuple  # 2x2 of SignedMeasure1D; b[i][j]
    c: tuple  # 2 of SignedMeasure1D (empty atoms)
    m: tuple  # 2 of JumpKernel
    horizon: float
    _atoms: list = field(init=False, repr=False, compare=False)
    _knots: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms, knots = set(), set()
        for i in range(2):
            for j in range(2):
                atoms.update(self.b[i][j].atom_times)
                knots.update(self.b[i][j].density.knots.tolist())
            atoms.update(self.m[i].atom_times)
            knots.update(self.c[i].density.knots.tolist())
            for rate, _ in self.m[i].density_components:
                knots.update(rate.knots.tolist())
        object.__setattr__(self, "_atoms", sorted(atoms))
        object.__setattr__(self, "_knots", sorted(knots))

    @classmethod
    def zero(cls, horizon: float = 1.0) -> "EnvSpec":
        z = SignedMeasure1D.zero
        return cls(
            b=((z(), z()), (z(), z())),
            c=(z(), z()),
            m=(JumpKernel.zero(), JumpKernel.zero()),
            horizon=horizon,
        )

    def check_window(self, lo: float, hi: float):
        """Raise unless 0 <= lo <= hi <= horizon (+1e-12); NaN fails."""
        if not (0.0 <= lo <= hi <= self.horizon + 1e-12):
            raise ValueError(f"need 0 <= {lo:g} <= {hi:g} <= horizon {self.horizon:g}")

    def atom_times(self, lo: float, hi: float, extra=()):
        """All environment atom times in the half-open window (lo, hi]."""
        atoms = self._atoms
        times = atoms[bisect.bisect_right(atoms, lo):bisect.bisect_right(atoms, hi)]
        if extra:
            times = sorted({*times, *(t for t in extra if lo < t <= hi)})
        return times

    def density_breakpoints(self, lo: float, hi: float):
        """All density knot times in the open window (lo, hi)."""
        knots = self._knots
        return knots[bisect.bisect_right(knots, lo):bisect.bisect_left(knots, hi)]

    def hard_points(self, lo: float, hi: float, zeta=None, extra=()):
        """Sorted points on [lo, hi] that no integrator may step across.

        Both ends, every atom time in (lo, hi] and density breakpoint in
        (lo, hi), of the environment and of the optional weight measure
        ``zeta``, and the caller's ``extra`` times that lie in (lo, hi].
        """
        if zeta is not None:
            extra = (*extra, *zeta.atom_times)
        pts = {lo, hi, *self.atom_times(lo, hi, extra), *self.density_breakpoints(lo, hi)}
        for sm in zeta.per_type if zeta is not None else ():
            pts.update(sm.density.breakpoints(lo, hi))
        return sorted(pts)


@dataclass(frozen=True)
class AtomInfo:
    """Everything carried by one environment atom time, and its jump maps.

    ``delta[i]``, the atom strength Delta b_ii plus the own-coordinate mass of
    the m_i atoms, is computed once here for the cumulant, mean and path maps.
    """

    time: float
    db: tuple  # 2x2 floats, db[i][j] = Delta b_ij(time)
    jumps: tuple  # per kernel: tuple of spatial measures with an atom here
    delta: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(
            self.db[i][i] + sum(meas.mean(i) for meas in self.jumps[i]) for i in range(2)))

    def dbar(self, i: int, j: int) -> float:
        """Delta of the augmented cross drift: Delta b_ij + z_j-moment of m_i atoms."""
        return self.db[i][j] + sum(meas.mean(j) for meas in self.jumps[i])

    def mean_map(self, m) -> np.ndarray:
        """Mean after the atom from the mean m before it: M_i (1 - db_ii) + M_j dbar_ji."""
        return np.array([m[i] * (1.0 - self.db[i][i]) + m[1 - i] * self.dbar(1 - i, i)
                         for i in range(2)])

    def cumulant_map(self, v) -> np.ndarray:
        """Cumulant left limit from its right value v, in the cancellation-free form

            v_left_i = v_i (1 - delta_i) + v_j db_ij + integral (1 - e^{-<v, z>}) m_i({s}, dz)

        for finite and infinite v alike: 0 * inf = 0, and |1 - delta_i| <= 1e-12
        (the validation tolerance) counts as 0.  A delta_i above it gives a
        negative entry for the caller to reject.
        """
        out = np.empty(2)
        for i in range(2):
            j = 1 - i
            keep = 1.0 - self.delta[i]
            keep = keep if abs(keep) > 1e-12 else 0.0
            cross = self.db[i][j]
            out[i] = ((v[i] * keep if keep else 0.0) + (v[j] * cross if cross else 0.0)
                      + sum(meas.laplace_gap(v) for meas in self.jumps[i]))
        return out


def atom_info(env: EnvSpec, s: float):
    """Atom data at time s, or None when nothing carries mass there."""
    db = tuple(tuple(env.b[i][j].atom_mass(s) for j in range(2)) for i in range(2))
    jumps = tuple(tuple(env.m[i].atoms_at(s)) for i in range(2))
    if all(all(x == 0.0 for x in row) for row in db) and not any(jumps):
        return None
    return AtomInfo(time=s, db=db, jumps=jumps)


def delta(env: EnvSpec, i: int, t: float) -> float:
    """Atom strength Delta b_ii(t) plus own-coordinate mass of m_i at t."""
    info = atom_info(env, t)
    return 0.0 if info is None else info.delta[i]


def bar_b(env: EnvSpec, j: int, i: int) -> SignedMeasure1D:
    """Cross drift b_ji augmented by the coordinate-i first moment of m_j."""
    if i == j:
        raise ValueError("bar_b is defined for off-diagonal indices only")
    density = env.b[j][i].density + env.m[j].mean_density(i)
    extra = [(t, meas.mean(i)) for t, meas in env.m[j].atoms if meas.mean(i) != 0.0]
    return SignedMeasure1D(density, _merge_atoms(env.b[j][i].atoms, extra))


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    constraint: str
    location: str
    value: float
    detail: str


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, constraint: str, location: str, value: float, detail: str):
        self.violations.append(Violation(constraint, location, float(value), detail))

    def __str__(self):
        if self.passed:
            return "PASS"
        lines = ["FAIL"]
        for v in self.violations:
            lines.append(f"  [{v.constraint}] at {v.location}: value {v.value:g} ({v.detail})")
        return "\n".join(lines)


def _density_nonneg(report, sm: SignedMeasure1D, label: str, horizon: float):
    d = sm.density
    ts = np.unique(np.clip(np.concatenate([d.knots, [0.0, horizon]]), 0.0, horizon))
    vals = np.asarray(d(ts))
    bad = np.flatnonzero(~(vals >= 0))
    if bad.size:
        k = bad[0]
        report.add("nonnegative-density", f"{label}, t={float(ts[k]):g}", float(vals[k]),
                   "density must be >= 0 for this role")
    for t, mass in sm.atoms:
        if not mass >= 0:
            report.add("nonnegative-atom", f"{label}, t={t:g}", mass, "atom mass must be >= 0")


def validate(env: EnvSpec) -> ValidationReport:
    """Check structural and model constraints; violations are report entries."""
    report = ValidationReport()

    if not env.horizon > 0:
        report.add("horizon", "horizon", env.horizon, "horizon must be positive")
        return report
    T = env.horizon

    for i in range(2):
        if env.c[i].atoms:
            report.add("diffusion-atoms", f"c_{i + 1}", len(env.c[i].atoms),
                       "diffusion clock must be continuous (no atoms)")
        _density_nonneg(report, env.c[i], f"c_{i + 1}", T)
        for j in range(2):
            if i != j:
                _density_nonneg(report, env.b[i][j], f"b_{i + 1}{j + 1}", T)

    # jump kernels: per-component integrability and parameter ranges
    for i in range(2):
        kern = env.m[i]
        for k, (rate, meas) in enumerate(kern.density_components):
            loc = f"m_{i + 1} density component {k}"
            _density_nonneg(report, SignedMeasure1D(rate, ()), loc + " rate", T)
            _check_component(report, meas, i, loc)
        for t, meas in kern.atoms:
            loc = f"m_{i + 1} atom t={t:g}"
            _check_component(report, meas, i, loc)
            if not meas.mass() < math.inf:
                report.add("atom-finite-mass", loc, math.inf,
                           "atom spatial measures must have finite total mass")

    # delta_i(t) <= 1 at every atom time
    for i in range(2):
        for t in env.atom_times(0.0, T):
            d = delta(env, i, t)
            if not d <= 1.0 + 1e-12:
                report.add("delta-bound", f"type {i + 1}, t={t:g}", d,
                           "atom strength delta exceeds 1")
    return report


def _check_component(report, meas, kernel_axis: int, loc: str):
    # a power tail's exponent is checked by its constructor, and its one axis
    # decides its cross moment, so a wrong axis is reported once, here
    if meas.infinite_activity:
        if meas.axis != kernel_axis:
            report.add("uncompensated-stable", loc, meas.axis + 1,
                       "power-tail component allowed only on the compensated coordinate")
    elif meas.mean(1 - kernel_axis) == math.inf:
        report.add("cross-moment", loc, math.inf,
                   "cross-coordinate first moment must be finite")
