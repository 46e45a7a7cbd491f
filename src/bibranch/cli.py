"""Command-line entry point.

One config schema (see :mod:`bibranch.config`) is shared by every
subcommand; flags override file values.  Human diagnostics go to stderr,
machine output to stdout or the requested files.  Exit codes: 0 success,
1 usage error, 2 environment validation failure, 3 failed verify gates.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import config as cfgmod
from .cumulant import SolverError, extinction_prob, solve_backward
from .environment import validate
from .functionals import mc_functional, solve_functional, solve_w
from .moments import first_moment, moment_bound
from .noise import NoiseStream
from .simulate import (SimOptions, SimulationError, extinction_frequency, simulate_ensemble,
                       simulate_path)
from .verify import Scenario, reports_to_json, run_suite, suite

USAGE_ERROR, VALIDATION_ERROR, GATE_FAILURE = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class _InvalidEnvironment(Exception):
    """The config's environment fails validation; carries the report."""


def _parse_pair(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return tuple(parts)


# flags shared by several subcommands; each overrides the run key of its name
_SHARED_FLAGS = {
    "t": {"type": float},
    "x0": {"type": _parse_pair, "metavar": "A,B"},
    "lambda": {"type": _parse_pair, "metavar": "A,B"},
    "step": {"type": float},
    "seed": {"type": int},
}


def _run_block(cfg) -> dict:
    run = cfg.get("run", {})
    if not isinstance(run, dict):
        raise ValueError(f"run must be an object, got {run!r}")
    return run


def _setup(args):
    """Parse the config once, ``zeta`` included, write ``--dump-config`` from
    what was parsed and validate the environment; returns ``(env, run, zeta)``."""
    cfg = cfgmod.load_config(args.env)
    env, run, zeta = cfgmod.env_from_config(cfg), _run_block(cfg), cfgmod.zeta_from_config(cfg)
    if args.dump_config:
        cfgmod.dump_config(cfgmod.env_to_config(env, zeta, run), args.dump_config)
    report = validate(env)
    if not report.passed:
        raise _InvalidEnvironment(report)
    return env, run, zeta


def _opt(args, run, key, default, cast):
    """The flag ``--key``, else ``run[key]``, else the default, through cast;
    flags arrive cast, so a value cast rejects is a malformed ``run.<key>``."""
    val = getattr(args, key, None)
    if val is None:
        val = run.get(key, default)
    try:
        return cast(val)
    except (TypeError, ValueError):
        raise ValueError(f"run.{key} has the wrong form: {val!r}") from None


def _write_text(path, text):
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_csv(path, header, rows):
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="", encoding="utf-8")
    try:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_validate(args):
    _setup(args)
    print("PASS", file=sys.stderr)
    return 0


def _write_backward_grid(path, sol, name):
    """CSV of a backward solution, latest time first, with both one-sided values."""
    ts, vs, is_atom, left = sol.grid()
    rows = [
        [f"{r:.12g}", f"{v[0]:.12g}", f"{v[1]:.12g}", int(a), f"{lv[0]:.12g}", f"{lv[1]:.12g}"]
        for r, v, a, lv in zip(ts[::-1], vs[::-1], is_atom[::-1], left[::-1])
    ]
    _write_csv(path, ["r", f"{name}1", f"{name}2", "is_atom", f"{name}1_left", f"{name}2_left"],
               rows)


def cmd_cumulant(args):
    env, run, _ = _setup(args)
    t = _opt(args, run, "t", env.horizon, float)
    lam = _opt(args, run, "lambda", (1.0, 1.0), tuple)
    _write_backward_grid(args.out, solve_backward(env, t, lam), "v")
    return 0


def cmd_moments(args):
    env, run, _ = _setup(args)
    t = _opt(args, run, "t", env.horizon, float)
    x0 = _opt(args, run, "x0", (1.0, 1.0), tuple)
    ts, ms, _, _ = first_moment(env, x0, t).grid()
    rows = []
    for tk, mk in zip(ts, ms):
        bound = moment_bound(env, x0, float(tk))
        rows.append([f"{tk:.12g}", f"{mk[0]:.12g}", f"{mk[1]:.12g}",
                     f"{bound[0]:.12g}", f"{bound[1]:.12g}"])
    _write_csv(args.out, ["t", "m1", "m2", "bound1", "bound2"], rows)
    return 0


def _sim_options(args, run):
    """``SimOptions`` from flags and ``run``, each default and cast its field's own."""
    return SimOptions(**{f.name: _opt(args, run, f.name, f.default, type(f.default))
                         for f in fields(SimOptions)})


def _lambda_grid(args, run):
    if not args.lambda_grid:
        return _opt(None, run, "lambda_grid", [], lambda g: list(map(tuple, g)))
    grid = []
    with open(args.lambda_grid, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                grid.append(_parse_pair(line))
            except (ValueError, argparse.ArgumentTypeError):
                raise ValueError(f"{args.lambda_grid} line {n}: expected two comma-separated "
                                 f"numbers, got {line.strip()!r}") from None
    return grid


def cmd_simulate(args):
    env, run, _ = _setup(args)
    t = _opt(args, run, "t", env.horizon, float)
    x0 = _opt(args, run, "x0", (1.0, 1.0), tuple)
    seed = _opt(args, run, "seed", 0, int)
    opts = _sim_options(args, run)
    noise = NoiseStream(seed)
    if args.dump_path is not None:
        traj = simulate_path(env, x0, t, opts, noise, path_id=0)
        rows = [
            [f"{tk:.12g}", f"{x[0]:.12g}", f"{x[1]:.12g}", int(a),
             int(traj.absorbed_at is not None and tk >= traj.absorbed_at)]
            for tk, x, a in zip(traj.times, traj.states, traj.is_atom)
        ]
        _write_csv(args.dump_path, ["t", "x1", "x2", "is_atom", "absorbed"], rows)
    n_paths = _opt(args, run, "paths", 1000, int)
    checkpoints = _opt(args, run, "checkpoints", (t,), tuple)
    stats = simulate_ensemble(env, x0, t, checkpoints, _lambda_grid(args, run), n_paths, opts,
                              noise)
    if args.format == "json":
        _write_text(args.out, json.dumps(vars(stats), indent=2, sort_keys=True,
                                         default=np.ndarray.tolist))
        return 0
    rows = []
    for a, cp in enumerate(stats.checkpoints):
        for i in range(2):
            rows.append(["mean", f"{cp:.12g}", f"x{i + 1}", "",
                         f"{stats.mean[a, i]:.12g}", f"{stats.se_mean[a, i]:.12g}"])
        rows.append(["extinction", f"{cp:.12g}", "", "",
                     f"{stats.extinction[a]:.12g}", ""])
        for l, lam in enumerate(stats.lambdas):
            rows.append(["laplace", f"{cp:.12g}", f"{lam[0]:.12g}", f"{lam[1]:.12g}",
                         f"{stats.laplace[a, l]:.12g}", f"{stats.laplace_se[a, l]:.12g}"])
    _write_csv(args.out, ["kind", "t", "a", "b", "value", "se"], rows)
    return 0


def cmd_functional(args):
    env, run, zeta = _setup(args)
    if zeta is None:
        print("config has no zeta block", file=sys.stderr)
        return USAGE_ERROR
    t = _opt(args, run, "t", env.horizon, float)
    r = float(args.r)
    lam = _opt(args, run, "lambda", (0.0, 0.0), tuple)
    _write_backward_grid(args.out, solve_functional(env, zeta, t, lam), "u")
    w = solve_w(env, zeta, r, t)
    print(f"w({r:g},{t:g}) = {w[0]:.12g},{w[1]:.12g}", file=sys.stderr)
    if args.mc:
        x0 = _opt(args, run, "x0", (1.0, 1.0), tuple)
        est, se = mc_functional(env, x0, zeta, r, t, args.mc, _sim_options(args, run),
                                NoiseStream(_opt(args, run, "seed", 0, int)))
        pred = float(np.exp(-np.asarray(x0) @ w))
        print(f"mc = {est:.6g} +- {se:.2g} (analytic {pred:.6g})", file=sys.stderr)
    return 0


def cmd_extinction(args):
    env, run, _ = _setup(args)
    t = _opt(args, run, "t", env.horizon, float)
    x0 = _opt(args, run, "x0", (1.0, 1.0), tuple)
    print(f"{extinction_prob(env, x0, t):.12g}")
    if args.paths:
        freq, se = extinction_frequency(env, x0, t, args.paths, _sim_options(args, run),
                                        NoiseStream(_opt(args, run, "seed", 0, int)))
        print(f"simulated {freq:.6g} +- {se:.2g}", file=sys.stderr)
    return 0


def _scenario_from_config(cfg) -> Scenario:
    """One verify scenario; run options go through the same path as simulate
    (verify has no per-option flags)."""
    env, run = cfgmod.env_from_config(cfg), _run_block(cfg)
    t = _opt(None, run, "t", env.horizon, float)
    return Scenario(
        name=cfg.get("name", "scenario"),
        env=env,
        x0=_opt(None, run, "x0", (1.0, 1.0), tuple),
        t=t,
        checkpoints=_opt(None, run, "checkpoints", (t,), tuple),
        lam_grid=_opt(None, run, "lambda_grid", [(1.0, 1.0)], lambda g: tuple(map(tuple, g))),
        n_paths=_opt(None, run, "paths", 10000, int),
        seed=_opt(None, run, "seed", 0, int),
        opts=_sim_options(None, run),
        zeta=cfgmod.zeta_from_config(cfg),
        x0_high=_opt(None, run, "x0_high", None, lambda v: v if v is None else tuple(v)),
        coupled_pairs=_opt(None, run, "coupled_pairs", 0, int),
        truncation=_opt(None, run, "truncation", False, bool),
    )


def cmd_verify(args):
    if args.scenario is not None:
        scenarios = [_scenario_from_config(cfgmod.load_config(args.scenario))]
    else:
        scenarios = suite()
    reports = run_suite(scenarios, threads=args.threads)
    _write_text(args.out, reports_to_json(reports))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        skips = "".join(f"; skipped {s.check}: {s.reason}" for s in r.skipped)
        print(f"{r.scenario}: {status} ({r.runtime:.1f}s{skips})", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else GATE_FAILURE


def build_parser() -> _Parser:
    p = _Parser(prog="bibranch",
                description="two-type branching in varying environments: "
                            "solve, simulate, cross-validate")
    sub = p.add_subparsers(dest="command", required=True)
    q = {}
    for name, func, text, shared in (
        ("validate", cmd_validate, "check environment constraints", ()),
        ("cumulant", cmd_cumulant, "solve the backward system", ("t", "lambda")),
        ("moments", cmd_moments, "exact means and the a-priori bound", ("t", "x0")),
        ("simulate", cmd_simulate, "Monte Carlo ensemble", ("t", "x0", "step", "seed")),
        ("functional", cmd_functional, "weighted integral functionals",
         ("t", "lambda", "x0", "step", "seed")),
        ("extinction", cmd_extinction, "extinction-time law", ("t", "x0", "step", "seed")),
    ):
        q[name] = sub.add_parser(name, help=text)
        q[name].add_argument("env", help="environment config (JSON)")
        q[name].add_argument("--dump-config", help="write the normalized config here")
        q[name].add_argument("--out", help="output path (default stdout)")
        for flag in shared:
            q[name].add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        q[name].set_defaults(func=func)

    q["simulate"].add_argument("--paths", type=int)
    q["simulate"].add_argument("--checkpoints",
                               type=lambda s: tuple(float(x) for x in s.split(",")))
    q["simulate"].add_argument("--lambda-grid", help="file with one 'a,b' pair per line")
    q["simulate"].add_argument("--dump-path", help="write the path-0 trajectory CSV here")
    q["simulate"].add_argument("--format", choices=("csv", "json"), default="csv",
                               help="ensemble output format (--out csv|json)")
    q["functional"].add_argument("--r", type=float, default=0.0)
    q["functional"].add_argument("--mc", type=int, help="cross-check with this many paths")
    q["extinction"].add_argument("--paths", type=int, help="also estimate by simulation")

    v = sub.add_parser("verify", help="run cross-check scenarios")
    which = v.add_mutually_exclusive_group(required=True)
    which.add_argument("--suite", action="store_true", help="run the built-in suite")
    which.add_argument("--scenario", help="run one scenario config (JSON)")
    v.add_argument("--out", help="JSON report path (default stdout)")
    v.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="scenario worker threads (default: the CPU count)")
    v.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InvalidEnvironment as exc:
        print(exc, file=sys.stderr)
        return VALIDATION_ERROR
    except (OSError, ValueError, KeyError, MemoryError, SolverError, SimulationError) as exc:
        # MemoryError: NumPy cannot allocate the ensemble for --paths or run.paths
        print(f"bibranch: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
