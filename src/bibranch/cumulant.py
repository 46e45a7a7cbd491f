"""Backward solver for the cumulant system, atom maps, and extinction limits.

Between atom times the cumulant v(r) = v_{r,t}(lambda) obeys a non-autonomous
ODE driven by the density parts of the environment,

    dv_i/dr = v_i b'_ii(r) - v_j b'_ij(r) + v_i^2 c'_i(r)
              + sum over density components of m_i of rate(r) * K_i-integral(v),

integrated from the terminal condition v(t) = lambda downward; the hard mesh
points (``EnvSpec.hard_points``: every atom time and density breakpoint) are
never stepped across.  At an atom time s the left limit follows the
closed-form jump map, ``AtomInfo.cumulant_map``, in its cancellation-free
form (delta_i = db_ii plus the own-coordinate mass of the m_i atoms):

    v_left_i = v_i (1 - delta_i) + v_j db_ij + integral (1 - e^{-<v, z>}) m_i({s}, dz).

Every term is nonnegative, so small arguments keep full relative precision,
and the same form maps infinite arguments (0 * inf = 0).  One negativity
rule (``_clip_negative``) guards atom maps and pieces alike.

The result is a :class:`PiecewiseSolution`: dense pieces joined by atom
jumps.  The forward mean system of :mod:`bibranch.moments` has the same
shape, so it uses the same solution type and the same piece solver,
``_solve_piece``: a Dormand-Prince 5(4) stepper on two plain floats with
the step control of scipy's RK45, at one fixed tolerance set (the analytic
entry points take no solver options).  Its dense output evaluates the
quartic interpolant of the one step a query falls in; a piece end returns
the stored endpoint.

The right-hand side (``_make_rhs``) reads every constant density once per
solve.  When all are constant, as in every suite environment, it binds the drift,
diffusion and jump-rate values as floats and returns two floats; without
jump terms or weight it is two expressions.  Time-varying densities are
read at each r, and both forms evaluate the same expressions in the same
order, so they agree bit for bit.  Piece ends are tested and clipped as two
floats, without NumPy reductions.  Nothing here imports scipy:
:mod:`bibranch.measures` imports ``scipy.special`` on the first Gamma or
incomplete-Gamma evaluation, so ``import bibranch`` leaves scipy out.

The same machinery solves the weight-shifted system for integral functionals
(see :mod:`bibranch.functionals`), which adds an accumulation density and
shifts the atom-map argument.

Terminal values may be infinite: ``v_infinity`` is one such sweep started at
lambda = (inf, inf).  On a smooth piece entered at infinity a component comes
down to a finite value exactly when its equation has a super-linear term
there (Grey's condition): diffusion c_i v_i^2 (beta = 2) or a power-tail jump
component k v_i^alpha (beta = alpha).  It is then integrated in
y = v^(1 - beta), where the blow-up is a regular ODE.  Without such a term,
or when fed through a positive cross drift by a component that stays
infinite, it stays infinite on the piece.  Across an atom a full bottleneck
(delta_i = 1) returns a finite value exactly.
"""

from __future__ import annotations

import bisect
import math
import operator

import numpy as np

from .densities import Density
from .environment import EnvSpec, atom_info, nonnegative_pair
from .measures import _stable_const

__all__ = [
    "SolverError",
    "LadderNotConverged",
    "PiecewiseSolution",
    "solve_backward",
    "atom_step",
    "laplace_transform",
    "semigroup_check",
    "v_infinity",
    "extinction_prob",
]


class SolverError(RuntimeError):
    pass


class LadderNotConverged(RuntimeError):
    """Raised by the former large-lambda ladder of ``v_infinity``.

    Nothing raises it any more: ``v_infinity`` now solves for the limit
    directly.  The name stays importable for code that still catches it.
    """


# the one tolerance set of every piece solve, backward and forward alike
_REL_TOL, _ABS_TOL, _MAX_STEP = 1e-10, 1e-12, 0.1


class PiecewiseSolution:
    """Solution of a segmented ODE on [lo, hi]: dense pieces joined at atoms.

    The cumulant (and its weight-shifted form) is integrated backward from
    hi, the mean forward from lo; both are smooth between hard points and
    jump by closed-form maps at atoms.  ``segments`` are
    ``(lo, hi, dense, v_lo, v_hi)`` pieces, ``dense`` None on a piece held
    constant; ``atom_values`` maps each atom time to its (left, right) pair;
    ``fixed`` maps an end of the range to its exact value (the terminal
    lambda of a backward solve; x0 and any terminal-atom mean of the forward
    one).  ``at(r)`` returns the right-continuous value (for the backward
    solve, the atom at r, if any, is not applied), at a piece end the
    integrator's own endpoint and inside a piece its dense output;
    ``left_at(s)`` returns the left limit at an atom.
    """

    def __init__(self, lo, hi, segments, atom_values, fixed):
        self.lo, self.hi = float(lo), float(hi)
        self._segments = sorted(segments, key=lambda s: s[0])
        self._los = [s[0] for s in self._segments]
        self.atom_values = dict(atom_values)  # time -> (left, right)
        self.fixed = {float(s): np.asarray(v, dtype=float) for s, v in fixed.items()}

    def at(self, r: float) -> np.ndarray:
        if not (self.lo - 1e-12 <= r <= self.hi + 1e-12):
            raise ValueError(f"r={r} outside solved range [{self.lo}, {self.hi}]")
        end = self.lo if r <= self.lo else self.hi if r >= self.hi else None
        if end in self.fixed:
            return self.fixed[end].copy()
        k = max(bisect.bisect_right(self._los, r) - 1, 0)
        lo, hi, dense, v_lo, v_hi = self._segments[k]
        if dense is None:
            v = v_lo if r - lo <= hi - r else v_hi
        elif lo < r < hi:
            v = dense(r)
        else:
            v = v_lo if r <= lo else v_hi
        return np.maximum(v, 0.0)

    def left_at(self, s: float) -> np.ndarray:
        if s in self.atom_values:
            return self.atom_values[s][0].copy()
        return self.at(s)

    def grid(self):
        """(times, values, is_atom, left) with times increasing.

        At an atom ``values`` holds the right value and ``left`` the left
        limit; elsewhere the two agree.
        """
        times, values = [], []
        if self.lo in self.fixed:
            times, values = [np.array([self.lo])], [self.fixed[self.lo][None, :]]
        for lo, hi, dense, v_lo, v_hi in self._segments:
            if dense is None:
                seg_t, seg_v = np.array([lo, hi]), np.vstack([v_lo, v_hi])
            else:
                seg_t, seg_v = dense.points()
                seg_v = np.maximum(seg_v, 0.0)
            if times and times[-1][-1] == seg_t[0]:
                seg_t, seg_v = seg_t[1:], seg_v[1:]
            if seg_t.size:
                times.append(seg_t)
                values.append(seg_v)
        ts, vs = np.concatenate(times), np.vstack(values)
        if ts[-1] < self.hi and self.hi in self.fixed:
            ts = np.append(ts, self.hi)
            vs = np.vstack([vs, self.fixed[self.hi]])
        is_atom = np.array([t in self.atom_values for t in ts])
        left = vs.copy()
        for k in np.flatnonzero(is_atom):
            left[k], vs[k] = self.atom_values[ts[k]]
        return ts, vs, is_atom, left


def _clip_negative(v, tol: float, where: str) -> np.ndarray:
    """The one negativity rule: zero round-off below 0, reject a deficit beyond tol.

    Tested on the two components as floats; the clip keeps a NaN, as
    ``np.maximum(v, 0.0)`` does.
    """
    v1, v2 = v
    if v1 < -tol or v2 < -tol:
        raise SolverError(f"negative-value at {where}: {np.asarray(v, dtype=float)} "
                          "(delta constraint violated or tolerances too loose)")
    return np.array([0.0 if v1 <= 0.0 else v1, 0.0 if v2 <= 0.0 else v2])


def _neg_tol(v) -> float:
    """Round-off allowance below zero, scaled by the largest finite entry of v."""
    top = 0.0
    for x in v:
        if top < x < math.inf:  # NaN fails both tests, inf the second
            top = float(x)
    return 1e-10 * (1.0 + top)


def atom_step(env: EnvSpec, s: float, v_right) -> np.ndarray:
    """Map the right value v_{s,t} to the left limit v_{s-,t} across atom s."""
    v = np.maximum(np.asarray(v_right, dtype=float), 0.0)
    info = atom_info(env, s)
    if info is None:
        return v
    return _clip_negative(info.cumulant_map(v), _neg_tol(v), f"t={s:g}")


def _constant_values(densities):
    """The values of the densities as floats when every one is constant, else None."""
    if any(d.knots.size > 1 for d in densities):
        return None
    return [float(d.values[0]) for d in densities]


def _coefficients(densities):
    """Map r to the list of density values; constant densities are read once."""
    base = [float(d.values[0]) if d.knots.size == 1 else 0.0 for d in densities]
    varying = [(k, d) for k, d in enumerate(densities) if d.knots.size > 1]

    def at(r):
        vals = base.copy()
        for k, d in varying:
            vals[k] = float(d(r))
        return vals

    return at


def _make_rhs(env: EnvSpec, zeta=None):
    """The right-hand side ``rhs(r, v)`` of the backward system, as two floats.

    Every constant density is read once here.  When all are constant the
    closure binds them as floats, and without jump terms and weight it is two
    expressions.  Otherwise it reads them through ``_coefficients`` at each
    r.  Both forms evaluate the same expressions in the same order: the
    drift and diffusion terms, each jump term of type i added to d_i in
    component order, then the weight density subtracted.
    """
    jumps = []
    for i in range(2):
        for _, meas in env.m[i].density_components:
            meas.compensated_exponent(i, (0.0, 0.0))  # its validation, once per solve
            jumps.append((i, meas._exponent))
    densities = [env.b[0][0].density, env.b[1][1].density, env.b[0][1].density,
                 env.b[1][0].density, env.c[0].density, env.c[1].density]
    densities += [rate for i in range(2) for rate, _ in env.m[i].density_components]
    if zeta is not None:
        densities += [zeta.per_type[0].density, zeta.per_type[1].density]
    values = _constant_values(densities)

    if values is None:
        coef = _coefficients(densities)

        def rhs(r, v):
            b11, b22, b12, b21, c1, c2, *rest = coef(r)
            v1 = v[0] if v[0] > 0.0 else 0.0
            v2 = v[1] if v[1] > 0.0 else 0.0
            d = [v1 * b11 - v2 * b12 + v1 * v1 * c1, v2 * b22 - v1 * b21 + v2 * v2 * c2]
            for (i, exponent), rate in zip(jumps, rest):
                d[i] += rate * exponent(i, v1, v2)
            if zeta is not None:
                d[0] -= rest[-2]
                d[1] -= rest[-1]
            return d

        return rhs

    b11, b22, b12, b21, c1, c2, *rest = values
    if not jumps and zeta is None:
        def rhs(r, v):
            v1 = v[0] if v[0] > 0.0 else 0.0
            v2 = v[1] if v[1] > 0.0 else 0.0
            return v1 * b11 - v2 * b12 + v1 * v1 * c1, v2 * b22 - v1 * b21 + v2 * v2 * c2

        return rhs

    # subtracting 0.0 leaves every float as it is, -0.0 included
    z1, z2 = rest[-2:] if zeta is not None else (0.0, 0.0)
    jumps1 = tuple((rate, exponent) for (i, exponent), rate in zip(jumps, rest) if i == 0)
    jumps2 = tuple((rate, exponent) for (i, exponent), rate in zip(jumps, rest) if i == 1)

    def rhs(r, v):
        v1 = v[0] if v[0] > 0.0 else 0.0
        v2 = v[1] if v[1] > 0.0 else 0.0
        d1 = v1 * b11 - v2 * b12 + v1 * v1 * c1
        d2 = v2 * b22 - v1 * b21 + v2 * v2 * c2
        for rate, exponent in jumps1:
            d1 += rate * exponent(0, v1, v2)
        for rate, exponent in jumps2:
            d2 += rate * exponent(1, v1, v2)
        return d1 - z1, d2 - z2

    return rhs


# Dormand-Prince 5(4), scipy's RK45 pair (Hairer, Norsett & Wanner, *Solving
# ODEs I*, II.4-II.5): stage nodes, stage matrix, fifth-order weights and
# error weights over the six stages and the FSAL stage (the zero weights of
# stage 2 are left out), and the quartic dense-output matrix, one row per stage
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                                -22 / 525, 1 / 40)
_P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0.0, 0.0, 0.0, 0.0),
      (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
      (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
# scipy's step control: safety factor, limits on one change of the step, and
# the exponent -1/(q + 1) of the fourth-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, -1 / 5


class _Dense:
    """Dense output of one smooth piece: the steps ``_solve_piece`` accepted.

    ``ts`` and ``ys`` hold the step times, in the order taken, and the
    solver's values there; ``ks`` holds each step's seven stages.  A query
    evaluates the quartic interpolant of the one step it falls in, the
    earlier one at a step time, as scipy's ``OdeSolution`` does.  ``to_v``
    maps the solver's coordinates back to v where they differ.
    """

    __slots__ = ("ts", "ys", "ks", "to_v")

    def __init__(self, t: float, y: tuple):
        self.ts, self.ys, self.ks, self.to_v = [t], [y], [], None

    def __call__(self, r: float) -> np.ndarray:
        """The value at r, shape (2,)."""
        y = np.array(self._interpolate(float(r)))
        return y if self.to_v is None else self.to_v(y)

    def _interpolate(self, r: float):
        ts, n = self.ts, len(self.ks)
        if n == 0:
            return self.ys[0]
        # the number of step times before r in the direction of integration
        if ts[-1] > ts[0]:
            before = bisect.bisect_left(ts, r)
        else:
            before = bisect.bisect_left(ts, -r, key=operator.neg)
        k = min(max(before - 1, 0), n - 1)
        h = ts[k + 1] - ts[k]
        x = (r - ts[k]) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        out = []
        for i, y_old in enumerate(self.ys[k]):
            acc = 0.0
            for kv, row in zip(self.ks[k], _P):
                acc += kv[i] * (row[0] * x + row[1] * x2 + row[2] * x3 + row[3] * x4)
            out.append(y_old + h * acc)
        return out

    def points(self):
        """(times, values): the step times, ascending, and the values there, shape (n, 2)."""
        ts, ys = np.array(self.ts), np.array(self.ys)
        if self.to_v is not None:
            ys = self.to_v(ys.T).T
        return (ts, ys) if ts[-1] >= ts[0] else (ts[::-1], ys[::-1])


_SQRT2 = 2 ** 0.5


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _first_step(fun, t, y, f, direction, length):
    """scipy's ``select_initial_step`` for the fourth-order error estimate."""
    s0 = _ABS_TOL + abs(y[0]) * _REL_TOL
    s1 = _ABS_TOL + abs(y[1]) * _REL_TOL
    d0 = _rms(y[0] / s0, y[1] / s1)
    d1 = _rms(f[0] / s0, f[1] / s1)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    g0, g1 = fun(t + h0 * direction, (y[0] + h0 * direction * f[0],
                                      y[1] + h0 * direction * f[1]))
    d2 = _rms((g0 - f[0]) / s0, (g1 - f[1]) / s1) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, length, _MAX_STEP)


def _dp_step(fun, t, y, f, h):
    """One Dormand-Prince step of size h from (t, y) with f = fun(t, y).

    Returns the fifth-order value at t + h, the seven stages (the last one
    is fun there) and the two components of the error estimate over h.
    """
    y0, y1 = y
    k10, k11 = f
    k20, k21 = fun(t + _C2 * h, (y0 + _A21 * k10 * h, y1 + _A21 * k11 * h))
    k30, k31 = fun(t + _C3 * h, (y0 + (_A31 * k10 + _A32 * k20) * h,
                                 y1 + (_A31 * k11 + _A32 * k21) * h))
    k40, k41 = fun(t + _C4 * h, (y0 + (_A41 * k10 + _A42 * k20 + _A43 * k30) * h,
                                 y1 + (_A41 * k11 + _A42 * k21 + _A43 * k31) * h))
    k50, k51 = fun(t + _C5 * h,
                   (y0 + (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40) * h,
                    y1 + (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41) * h))
    k60, k61 = fun(t + h,
                   (y0 + (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50) * h,
                    y1 + (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51) * h))
    y_new = (y0 + h * (_B1 * k10 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60),
             y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61))
    k70, k71 = fun(t + h, y_new)
    e0 = _E1 * k10 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * k70
    e1 = _E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71
    stages = ((k10, k11), (k20, k21), (k30, k31), (k40, k41), (k50, k51), (k60, k61),
              (k70, k71))
    return y_new, stages, e0, e1


def _solve_piece(fun, start, end, y0) -> _Dense:
    """Integrate one smooth piece from start to end, in either direction.

    Dormand-Prince 5(4) on two plain floats with the step control of scipy's
    RK45 (RMS error norm, first step, minimum step of 10 ulp) at the one
    tolerance set, so it accepts the steps RK45 would, up to the rounding of
    the error estimate.  ``fun(r, y)`` returns the two derivatives.  A step
    that must shrink below the minimum, as on a NaN derivative, raises
    :class:`SolverError`.
    """
    t = float(start)
    y = (float(y0[0]), float(y0[1]))
    dense = _Dense(t, y)
    if end == start:
        return dense
    direction = 1.0 if end > start else -1.0
    f0, f1 = fun(t, y)
    f = (f0, f1)
    h_abs = _first_step(fun, t, y, f, direction, abs(end - t))
    while direction * (t - end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > _MAX_STEP:
            h_abs = _MAX_STEP
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a NaN step
                lo, hi = sorted((start, end))
                raise SolverError(f"nonconvergent-step on [{lo:g}, {hi:g}]: required "
                                  f"step size is less than spacing between numbers at {t:g}")
            t_new = t + h_abs * direction
            if direction * (t_new - end) > 0:
                t_new = end
            h = t_new - t
            h_abs = abs(h)
            y_new, ks, e0, e1 = _dp_step(fun, t, y, f, h)
            a = e0 * h / (_ABS_TOL + max(abs(y[0]), abs(y_new[0])) * _REL_TOL)
            b = e1 * h / (_ABS_TOL + max(abs(y[1]), abs(y_new[1])) * _REL_TOL)
            err = math.sqrt(a * a + b * b) / _SQRT2  # the RMS norm, _rms inlined
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            rejected = True
        dense.ts.append(t_new)
        dense.ys.append(y_new)
        dense.ks.append(ks)
        t, y, f = t_new, y_new, ks[-1]
    return dense


# finite stand-in for an infinite coordinate inside the right-hand side: its
# square and its power-tail term (exponent below 2) stay finite
_BIG = 1e150
# blow-up components start this fraction of the piece below its right end
_START_FRAC = 1e-8


def _blow_up_order(env: EnvSpec, i: int, lo: float, hi: float):
    """(beta, kappa) of the fastest super-linear term of type i on [lo, hi], or None.

    Diffusion gives c_i v_i^2 (beta = 2, kappa = c_i); a power-tail jump
    component of index alpha gives k v_i^alpha with
    k = rate * weight * Gamma(2 - alpha) / (alpha (alpha - 1)) (beta = alpha).
    Densities are linear on a piece, so positivity at an end is positivity
    on its interior.
    """
    c = env.c[i].density
    if max(c(lo), c(hi)) > 0.0:
        return 2.0, c
    tails = [(meas.alpha, rate.scaled(meas.weight * _stable_const(meas.alpha)))
             for rate, meas in env.m[i].density_components
             if meas.infinite_activity and max(rate(lo), rate(hi)) > 0.0]
    if not tails:
        return None
    beta = max(a for a, _ in tails)
    kappa = Density.zero()
    for a, k in tails:
        if a == beta:
            kappa = kappa + k
    return beta, kappa


def _piece_from_infinity(env, rhs, lo, hi, v, neg_tol):
    """Integrate one smooth piece entered with infinite components.

    A component is hot when it is infinite at hi, or fed there through a
    positive cross drift by one that is (a blow-up feeds a non-integrable
    rate).  A hot component with a super-linear term comes down on the piece
    and is integrated in y = v^(1 - beta) from y(hi - h) = (beta - 1) times
    the integral of kappa over [hi - h, hi], the leading-order asymptote, or
    from the larger v of its balance with the feed of a faster blow-up; the
    flow contracts the start error.  One without, or one fed through a
    positive cross drift by a component that stays infinite, stays infinite.
    Returns the segment and the value at lo.
    """
    def fed(i, group, ends=(lo, hi)):
        return 1 - i in group and max(env.b[i][1 - i].density(r) for r in ends) > 0.0

    hot = {i for i in range(2) if math.isinf(v[i])}
    hot |= {i for i in range(2) if fed(i, hot, (hi,))}
    order = [_blow_up_order(env, i, lo, hi) for i in range(2)]
    stuck = {i for i in hot if order[i] is None}
    stuck |= {i for i in range(2) if fed(i, stuck)}
    blow = hot - stuck
    for i in set(range(2)) - hot - stuck:
        if fed(i, blow):
            raise SolverError(
                f"unresolved-blow-up on [{lo:g}, {hi:g}]: type {i + 1} is fed by a "
                "blow-up through a cross drift that vanishes where it starts")
    if len(stuck) == 2:
        inf = np.full(2, math.inf)
        return (lo, hi, None, inf, v.copy()), inf.copy()

    beta = [order[i][0] if i in blow else 1.0 for i in range(2)]
    power = [1.0 / (beta[i] - 1.0) if i in blow else 0.0 for i in range(2)]
    floor = [_BIG ** (1.0 - beta[i]) for i in range(2)]  # y below it means v above _BIG
    # y above it means v below 1/_BIG, where v^-beta would overflow the float range
    ceiling = [_BIG ** (beta[i] - 1.0) for i in range(2)]
    r0 = hi - _START_FRAC * (hi - lo) if blow else hi
    y0 = np.array([0.0 if i in stuck
                   else (beta[i] - 1.0) * order[i][1].integral(r0, hi) if i in blow
                   else v[i] for i in range(2)])
    for i in blow:
        # a faster blow-up of j can feed i above its own asymptote: start i no
        # lower than the balance kappa_i v_i^beta_i = b_ij v_j at hi (in logs)
        j, kappa = 1 - i, order[i][1](hi)
        if fed(i, blow, (hi,)) and kappa > 0.0 and y0[j] > 0.0:
            log_v = (math.log(env.b[i][j].density(hi)) - power[j] * math.log(y0[j])
                     - math.log(kappa)) / beta[i]
            y0[i] = min(y0[i], math.exp((1.0 - beta[i]) * log_v))

    def fun(r, y):
        w = [_BIG if i in stuck else (min(y[i], ceiling[i]) ** -power[i]
                                      if y[i] > floor[i] else _BIG)
             if i in blow else y[i] for i in range(2)]
        d = rhs(r, w)
        return [0.0 if i in stuck else (1.0 - beta[i]) * w[i] ** -beta[i] * d[i]
                if i in blow else d[i] for i in range(2)]

    def to_v(y):
        out = np.array(y, dtype=float)
        for i in stuck:
            out[i] = math.inf
        for i in blow:
            yi = np.maximum(out[i], floor[i])
            out[i] = np.where(yi > floor[i], yi ** -power[i], math.inf)
        return out

    dense = _solve_piece(fun, r0, lo, y0)
    dense.to_v = to_v
    v_new = to_v(np.array(dense.ys[-1]))
    if any(math.isinf(v_new[i]) for i in blow):
        raise SolverError(f"unresolved-blow-up on [{lo:g}, {hi:g}]: {v_new}")
    v_new = _clip_negative(v_new, neg_tol, f"r={lo:g}")
    return (lo, hi, dense, v_new, v.copy()), v_new


def _integrate_backward(env, t, lam, zeta=None, r_end=0.0):
    """Shared core for the cumulant and weighted-functional systems."""
    lam = nonnegative_pair(lam, "lambda", inf_ok=True)
    env.check_window(r_end, t)

    hard = env.hard_points(r_end, t, zeta)
    atom_set = set(env.atom_times(r_end, t, extra=zeta.atom_times if zeta is not None else ()))

    rhs = _make_rhs(env, zeta=zeta)
    v = lam.copy()
    segments = []
    atom_values = {}
    neg_tol = _neg_tol(lam)

    def apply_atom(s, v_right):
        vr = np.maximum(v_right, 0.0)
        shifted = vr + zeta.atom_vector(s) if zeta is not None else vr
        info = atom_info(env, s)
        v_left = shifted if info is None else _clip_negative(
            info.cumulant_map(shifted), neg_tol, f"t={s:g}")
        atom_values[s] = (v_left.copy(), vr.copy())
        return v_left

    if t in atom_set:
        v = apply_atom(t, v)

    for hi, lo in zip(reversed(hard[1:]), reversed(hard[:-1])):
        v1, v2 = v
        if v1 == 0.0 and v2 == 0.0 and zeta is None:
            # absorbing terminal state of the backward flow
            segments.append((lo, hi, None, np.zeros(2), np.zeros(2)))
            v = np.zeros(2)
        elif not (math.isfinite(v1) and math.isfinite(v2)):
            segment, v = _piece_from_infinity(env, rhs, lo, hi, v, neg_tol)
            segments.append(segment)
        else:
            dense = _solve_piece(rhs, hi, lo, v)
            v_new = _clip_negative(dense.ys[-1], neg_tol, f"r={lo:g}")
            segments.append((lo, hi, dense, v_new, v.copy()))
            v = v_new
        if lo in atom_set:
            v = apply_atom(lo, v)

    return PiecewiseSolution(r_end, t, segments, atom_values, {t: lam})


def solve_backward(env: EnvSpec, t: float, lam) -> PiecewiseSolution:
    """Solve the backward cumulant system on [0, t] with terminal value lam.

    Entries of lam may be ``inf``; see :func:`v_infinity`.
    """
    return _integrate_backward(env, t, lam)


def laplace_transform(env: EnvSpec, x, r: float, t: float, lam) -> float:
    """Transition-kernel Laplace transform exp(-<x, v_{r,t}(lam)>), with 0 * inf = 0."""
    x = nonnegative_pair(x, "x")
    sol = _integrate_backward(env, t, lam, r_end=r)
    return float(np.exp(-x @ np.where(x > 0, sol.at(r), 0.0)))


def semigroup_check(env: EnvSpec, r: float, s: float, t: float, lam) -> np.ndarray:
    """Componentwise flow-property residual |v_{r,t} - v_{r,s}(v_{s,t})|."""
    if not (r <= s <= t):
        raise ValueError("need r <= s <= t")
    outer = _integrate_backward(env, t, lam, r_end=r)
    mid = outer.at(s)
    inner = _integrate_backward(env, s, mid, r_end=r)
    return np.abs(outer.at(r) - inner.at(r))


def v_infinity(env: EnvSpec, t: float):
    """v_{0,t}(infinity): one backward sweep started at lambda = (inf, inf).

    Returns ``(limit, diagnostic)``.  ``limit`` holds ``inf`` for components
    that stay infinite; ``diagnostic["status"]`` marks each component
    ``converged`` (finite limit) or ``diverged``.  ``diagnostic["ladder"]``
    is empty: it held the trace of the large-lambda ladder this sweep
    replaced.  Raises :class:`SolverError` on structure the sweep cannot
    resolve, never an undecided value.
    """
    limit = _integrate_backward(env, t, (math.inf, math.inf)).at(0.0)
    status = tuple("diverged" if math.isinf(x) else "converged" for x in limit)
    return limit, {"status": status, "ladder": []}


def extinction_prob(env: EnvSpec, x, t: float) -> float:
    """P(extinct by t) = exp(-<x, v_{0,t}(infinity)>), 0 when a needed limit is infinite."""
    x = nonnegative_pair(x, "x")
    limit, _ = v_infinity(env, t)
    needed = [i for i in range(2) if x[i] > 0]
    if any(math.isinf(limit[i]) for i in needed):
        return 0.0
    return float(np.exp(-sum(x[i] * limit[i] for i in needed)))
