"""JSON configuration schema shared by every CLI subcommand.

Layout::

    {
      "horizon": 1.0,
      "types": [
        {
          "b_diag":  {"density": {...}, "atoms": [{"t": 0.5, "mass": 1.0}]},
          "b_cross": {"density": {...}, "atoms": [...]},      # toward the other type
          "c":       {"density": {...}},
          "m": {
            "density_components": [{"rate": {...}, "measure": {...}}],
            "atoms": [{"t": 0.4, "measure": {...}}]
          }
        },
        { ... second type ... }
      ],
      "zeta": [{"density": {...}, "atoms": [...]}, {...}],     # optional weights
      "run": {"seed": 1, "paths": 10000, "step": 1e-3, "t": 1.0,
              "x0": [1.0, 0.0], "lambda": [1.0, 0.0], "checkpoints": [0.5, 1.0],
              "lambda_grid": [[1.0, 0.0], [2.0, 0.0]],
              "small_jump_mode": "drop", "small_jump_eps": 1e-2,
              "x0_high": [2.0, 0.0], "coupled_pairs": 0,           # verify only
              "truncation": false}                                 # optional defaults
    }

Every ``run`` key is optional, and a CLI flag of the same name overrides it
(``--t``, ``--x0``, ``--lambda``, ``--step``, ``--seed``, and ``simulate``'s
``--paths`` and ``--checkpoints``).  Defaults: ``t`` the horizon, ``x0``
(1, 1), ``seed`` 0, ``checkpoints`` the one time ``t``, and ``step``,
``small_jump_eps`` and ``small_jump_mode`` those of ``SimOptions``.  Some
differ by subcommand on purpose: ``lambda`` is (1, 1) for ``cumulant`` and
(0, 0) for ``functional``; ``paths`` is 1000 for ``simulate`` and 10000 for
``verify --scenario``; ``lambda_grid`` is empty for ``simulate`` and
[[1, 1]] for ``verify --scenario``.  ``extinction --paths`` and
``functional --mc`` are opt-in flags and do not read ``paths``.

Admission is the same for every subcommand, ``simulate`` included: ``t``
lies in [0, horizon], ``x0`` and ``lambda`` are nonnegative pairs, no value
is NaN (Python's ``json`` reads ``NaN``), and a malformed ``run`` value is a
usage error that names ``run.<key>``.  Every subcommand reads ``zeta``, so a
malformed block is a usage error even where no weight is used.  ``types``
and ``zeta`` are each a list of two objects, one per type; any other shape
is a usage error that names the key.

Density specs: ``{"kind": "constant", "v": 1.0}``,
``{"kind": "piecewise_linear", "points": [[t, v], ...]}`` or
``{"kind": "table", "mesh": [...], "values": [...]}``.  A spatial measure
spec names a class of :mod:`bibranch.measures` by ``kind`` and gives its
parameters and an optional ``weight`` (default 1): ``dirac`` (``Dirac``:
``z``), ``exp_product`` (``ExpProduct``: ``theta1``, ``theta2``),
``stable_axis`` (``StableAxis``: ``axis`` counted from 1, ``alpha``),
``exp_product_capped`` and ``stable_axis_capped`` (``CappedExpProduct`` and
``CappedStableAxis``: the same and ``cap``).  ``types[i].b_cross`` is the
drift row entry b_{i,j} toward the other type j.
"""

from __future__ import annotations

import json
from pathlib import Path

from .densities import Density, SignedMeasure1D
from .environment import EnvSpec, JumpKernel
from .functionals import WeightMeasure
from .measures import CappedExpProduct, CappedStableAxis, Dirac, ExpProduct, StableAxis

__all__ = [
    "load_config",
    "env_from_config",
    "zeta_from_config",
    "env_to_config",
    "dump_config",
]


def _density_from(d) -> Density:
    if d is None:
        return Density.zero()
    kind = d.get("kind")
    if kind == "constant":
        return Density.constant(d["v"])
    if kind == "piecewise_linear":
        return Density.piecewise_linear(d["points"])
    if kind == "table":
        return Density.table(d["mesh"], d["values"])
    raise ValueError(f"unsupported density kind: {kind!r}")


def _density_to(d: Density) -> dict:
    if d.kind == "constant" or d.knots.size == 1:
        return {"kind": "constant", "v": float(d.values[0])}
    if d.kind == "table":
        return {"kind": "table", "mesh": d.knots.tolist(), "values": d.values.tolist()}
    return {"kind": "piecewise_linear",
            "points": [[float(t), float(v)] for t, v in zip(d.knots, d.values)]}


def _measure1d_from(d) -> SignedMeasure1D:
    if d is None:
        return SignedMeasure1D.zero()
    atoms = tuple((a["t"], a["mass"]) for a in d.get("atoms", ()))
    return SignedMeasure1D(_density_from(d.get("density")), atoms)


def _measure1d_to(sm: SignedMeasure1D) -> dict:
    out = {"density": _density_to(sm.density)}
    if sm.atoms:
        out["atoms"] = [{"t": t, "mass": m} for t, m in sm.atoms]
    return out


# measure kind -> (class, the fields its constructor takes before the weight)
_MEASURES = {
    "dirac": (Dirac, ("z",)),
    "exp_product": (ExpProduct, ("theta1", "theta2")),
    "stable_axis": (StableAxis, ("axis", "alpha")),
    "exp_product_capped": (CappedExpProduct, ("theta1", "theta2", "cap")),
    "stable_axis_capped": (CappedStableAxis, ("axis", "alpha", "cap")),
}
# field -> (file value to attribute, attribute to file value), where they differ
_FIELD_FORMS = {"z": (tuple, list), "axis": (lambda a: int(a) - 1, lambda a: a + 1)}


def _measure_from(d):
    kind = d.get("kind")
    if kind not in _MEASURES:
        raise ValueError(f"unsupported spatial measure kind: {kind!r}")
    cls, fields = _MEASURES[kind]
    args = [_FIELD_FORMS[f][0](d[f]) if f in _FIELD_FORMS else d[f] for f in fields]
    return cls(*args, d.get("weight", 1.0))


def _measure_to(meas) -> dict:
    kind, fields = next((k, f) for k, (cls, f) in _MEASURES.items() if type(meas) is cls)
    out = {"kind": kind, "weight": meas.weight}
    for f in fields:
        val = getattr(meas, f)
        out[f] = _FIELD_FORMS[f][1](val) if f in _FIELD_FORMS else val
    return out


def _kernel_from(d) -> JumpKernel:
    if d is None:
        return JumpKernel.zero()
    comps = tuple(
        (_density_from(c.get("rate")), _measure_from(c["measure"]))
        for c in d.get("density_components", ())
    )
    atoms = tuple((a["t"], _measure_from(a["measure"])) for a in d.get("atoms", ()))
    return JumpKernel(comps, atoms)


def _kernel_to(k: JumpKernel) -> dict:
    out = {}
    if k.density_components:
        out["density_components"] = [
            {"rate": _density_to(rate), "measure": _measure_to(meas)}
            for rate, meas in k.density_components
        ]
    if k.atoms:
        out["atoms"] = [{"t": t, "measure": _measure_to(meas)} for t, meas in k.atoms]
    return out


def _per_type(cfg: dict, key: str) -> list:
    """cfg[key], which must be a list of two objects, one per type."""
    blocks = cfg.get(key)
    if not (isinstance(blocks, list) and len(blocks) == 2
            and all(isinstance(blk, dict) for blk in blocks)):
        raise ValueError(f"{key} must carry one block per type")
    return blocks


def env_from_config(cfg: dict) -> EnvSpec:
    types = _per_type(cfg, "types")
    b = [[None, None], [None, None]]
    c = [None, None]
    m = [None, None]
    for i, td in enumerate(types):
        j = 1 - i
        b[i][i] = _measure1d_from(td.get("b_diag"))
        b[i][j] = _measure1d_from(td.get("b_cross"))
        c[i] = _measure1d_from(td.get("c"))
        m[i] = _kernel_from(td.get("m"))
    return EnvSpec(
        b=(tuple(b[0]), tuple(b[1])),
        c=tuple(c),
        m=tuple(m),
        horizon=float(cfg.get("horizon", 1.0)),
    )


def zeta_from_config(cfg: dict):
    if cfg.get("zeta") is None:
        return None
    z = _per_type(cfg, "zeta")
    return WeightMeasure((_measure1d_from(z[0]), _measure1d_from(z[1])))


def env_to_config(env: EnvSpec, zeta: WeightMeasure | None = None, run: dict | None = None) -> dict:
    types = []
    for i in range(2):
        j = 1 - i
        types.append({
            "b_diag": _measure1d_to(env.b[i][i]),
            "b_cross": _measure1d_to(env.b[i][j]),
            "c": _measure1d_to(env.c[i]),
            "m": _kernel_to(env.m[i]),
        })
    out = {"horizon": env.horizon, "types": types}
    if zeta is not None and not zeta.is_zero:
        out["zeta"] = [_measure1d_to(sm) for sm in zeta.per_type]
    if run:
        out["run"] = dict(run)
    return out


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_config(cfg: dict, path=None) -> str:
    text = json.dumps(cfg, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text
