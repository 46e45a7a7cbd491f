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
              "x0": [1.0, 0.0], "checkpoints": [0.5, 1.0],
              "lambda_grid": [[1.0, 0.0], [2.0, 0.0]],
              "small_jump_mode": "drop", "small_jump_eps": 1e-2,
              "x0_high": [2.0, 0.0], "coupled_pairs": 0,           # verify only
              "truncation": false}                                 # optional defaults
    }

Density specs: ``{"kind": "constant", "v": 1.0}``,
``{"kind": "piecewise_linear", "points": [[t, v], ...]}`` or
``{"kind": "table", "mesh": [...], "values": [...]}``.  Measure kinds are
documented in :mod:`bibranch.measures`.  ``types[i].b_cross`` is the drift
row entry b_{i,j} toward the other type j.
"""

from __future__ import annotations

import json
from pathlib import Path

from .densities import Density, SignedMeasure1D
from .environment import EnvSpec, JumpKernel
from .functionals import WeightMeasure
from .measures import measure_from_config

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


def _kernel_from(d) -> JumpKernel:
    if d is None:
        return JumpKernel.zero()
    comps = tuple(
        (_density_from(c.get("rate")), measure_from_config(c["measure"]))
        for c in d.get("density_components", ())
    )
    atoms = tuple((a["t"], measure_from_config(a["measure"])) for a in d.get("atoms", ()))
    return JumpKernel(comps, atoms)


def _kernel_to(k: JumpKernel) -> dict:
    out = {}
    if k.density_components:
        out["density_components"] = [
            {"rate": _density_to(rate), "measure": meas.to_config()}
            for rate, meas in k.density_components
        ]
    if k.atoms:
        out["atoms"] = [{"t": t, "measure": meas.to_config()} for t, meas in k.atoms]
    return out


def env_from_config(cfg: dict) -> EnvSpec:
    types = cfg["types"]
    if len(types) != 2:
        raise ValueError("config must declare exactly two types")
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
    z = cfg.get("zeta")
    if z is None:
        return None
    if len(z) != 2:
        raise ValueError("zeta must carry one block per type")
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
