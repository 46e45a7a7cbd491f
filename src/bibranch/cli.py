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


def _parse_pair(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return tuple(parts)


def _load_env(args, need_zeta=False):
    """Parse the config once and write ``--dump-config`` from what was parsed."""
    cfg = cfgmod.load_config(args.env)
    env = cfgmod.env_from_config(cfg)
    zeta = cfgmod.zeta_from_config(cfg) if need_zeta or args.dump_config else None
    if args.dump_config:
        cfgmod.dump_config(cfgmod.env_to_config(env, zeta, cfg.get("run")), args.dump_config)
    return env, cfg.get("run", {}), zeta


def _run_value(args, run, key, default):
    val = getattr(args, key, None)
    if val is not None:
        return val
    return run.get(key, default)


def _check_env(env):
    report = validate(env)
    if not report.passed:
        print(report, file=sys.stderr)
    return report.passed


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
    env, _, _ = _load_env(args)
    report = validate(env)
    print(report, file=sys.stderr)
    return 0 if report.passed else VALIDATION_ERROR


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
    env, run, _ = _load_env(args)
    if not _check_env(env):
        return VALIDATION_ERROR
    t = float(_run_value(args, run, "t", env.horizon))
    lam = args.lam if args.lam is not None else tuple(run.get("lambda", (1.0, 1.0)))
    _write_backward_grid(args.out, solve_backward(env, t, lam), "v")
    return 0


def cmd_moments(args):
    env, run, _ = _load_env(args)
    if not _check_env(env):
        return VALIDATION_ERROR
    t = float(_run_value(args, run, "t", env.horizon))
    x0 = args.x0 if args.x0 is not None else tuple(run.get("x0", (1.0, 1.0)))
    curve = first_moment(env, x0, t)
    ts, ms, _, _ = curve.grid()
    rows = []
    for tk, mk in zip(ts, ms):
        bound = moment_bound(env, x0, float(tk))
        rows.append([f"{tk:.12g}", f"{mk[0]:.12g}", f"{mk[1]:.12g}",
                     f"{bound[0]:.12g}", f"{bound[1]:.12g}"])
    _write_csv(args.out, ["t", "m1", "m2", "bound1", "bound2"], rows)
    return 0


def _sim_options(args, run):
    return SimOptions(
        step=float(_run_value(args, run, "step", 1e-3)),
        small_jump_eps=float(_run_value(args, run, "small_jump_eps", 1e-2)),
        small_jump_mode=str(_run_value(args, run, "small_jump_mode", "drop")),
    )


def _lambda_grid(args, run):
    if not args.lambda_grid:
        return [tuple(l) for l in run.get("lambda_grid", [])]
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
    env, run, _ = _load_env(args)
    if not _check_env(env):
        return VALIDATION_ERROR
    t = float(_run_value(args, run, "t", env.horizon))
    x0 = args.x0 if args.x0 is not None else tuple(run.get("x0", (1.0, 1.0)))
    seed = int(_run_value(args, run, "seed", 0))
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
    n_paths = int(_run_value(args, run, "paths", 1000))
    checkpoints = args.checkpoints if args.checkpoints is not None \
        else tuple(run.get("checkpoints", (t,)))
    lams = _lambda_grid(args, run)
    stats = simulate_ensemble(env, x0, t, checkpoints, lams, n_paths, opts, noise)
    if args.format == "json":
        payload = {
            "n_paths": stats.n_paths,
            "checkpoints": stats.checkpoints.tolist(),
            "mean": stats.mean.tolist(),
            "var": stats.var.tolist(),
            "se_mean": stats.se_mean.tolist(),
            "lambdas": stats.lambdas.tolist(),
            "laplace": stats.laplace.tolist(),
            "laplace_se": stats.laplace_se.tolist(),
            "extinction": stats.extinction.tolist(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out in (None, "-"):
            print(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
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
    env, run, zeta = _load_env(args, need_zeta=True)
    if not _check_env(env):
        return VALIDATION_ERROR
    if zeta is None:
        print("config has no zeta block", file=sys.stderr)
        return USAGE_ERROR
    t = float(_run_value(args, run, "t", env.horizon))
    r = float(args.r)
    lam = args.lam if args.lam is not None else (0.0, 0.0)
    _write_backward_grid(args.out, solve_functional(env, zeta, t, lam), "u")
    w = solve_w(env, zeta, r, t)
    print(f"w({r:g},{t:g}) = {w[0]:.12g},{w[1]:.12g}", file=sys.stderr)
    if args.mc:
        x0 = args.x0 if args.x0 is not None else tuple(run.get("x0", (1.0, 1.0)))
        seed = int(_run_value(args, run, "seed", 0))
        est, se = mc_functional(env, x0, zeta, r, t, int(args.mc),
                                _sim_options(args, run), NoiseStream(seed))
        pred = float(np.exp(-np.asarray(x0) @ w))
        print(f"mc = {est:.6g} +- {se:.2g} (analytic {pred:.6g})", file=sys.stderr)
    return 0


def cmd_extinction(args):
    env, run, _ = _load_env(args)
    if not _check_env(env):
        return VALIDATION_ERROR
    t = float(_run_value(args, run, "t", env.horizon))
    x0 = args.x0 if args.x0 is not None else tuple(run.get("x0", (1.0, 1.0)))
    print(f"{extinction_prob(env, x0, t):.12g}")
    if args.paths:
        seed = int(_run_value(args, run, "seed", 0))
        freq, se = extinction_frequency(env, x0, t, int(args.paths),
                                        _sim_options(args, run), NoiseStream(seed))
        print(f"simulated {freq:.6g} +- {se:.2g}", file=sys.stderr)
    return 0


def _scenario_from_config(cfg) -> Scenario:
    """One verify scenario; run options go through the same path as simulate."""
    env = cfgmod.env_from_config(cfg)
    run = cfg.get("run", {})
    opts = _sim_options(None, run)  # verify has no per-option flags
    x0_high = run.get("x0_high")
    t = float(run.get("t", env.horizon))
    return Scenario(
        name=cfg.get("name", "scenario"),
        env=env,
        x0=tuple(run.get("x0", (1.0, 1.0))),
        t=t,
        checkpoints=tuple(run.get("checkpoints", (t,))),
        lam_grid=tuple(tuple(l) for l in run.get("lambda_grid", [(1.0, 1.0)])),
        n_paths=int(run.get("paths", 10000)),
        seed=int(run.get("seed", 0)),
        step=opts.step,
        small_jump_mode=opts.small_jump_mode,
        small_jump_eps=opts.small_jump_eps,
        zeta=cfgmod.zeta_from_config(cfg),
        x0_high=tuple(x0_high) if x0_high is not None else None,
        coupled_pairs=int(run.get("coupled_pairs", 0)),
        truncation=bool(run.get("truncation", False)),
    )


def _verify_threads(args) -> int:
    """--threads, else a nonzero BIBRANCH_THREADS, else the CPU count."""
    if args.threads is not None:
        return args.threads
    text = os.environ.get("BIBRANCH_THREADS") or "0"
    try:
        return int(text) or os.cpu_count() or 1
    except ValueError:
        raise ValueError(f"BIBRANCH_THREADS must be an integer, got {text!r}") from None


def cmd_verify(args):
    threads = _verify_threads(args)
    if args.scenario is not None:
        scenarios = [_scenario_from_config(cfgmod.load_config(args.scenario))]
    else:
        scenarios = suite()
    reports = run_suite(scenarios, threads=threads)
    text = reports_to_json(reports)
    if args.out in (None, "-"):
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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

    def common(q, env=True):
        if env:
            q.add_argument("env", help="environment config (JSON)")
        q.add_argument("--dump-config", help="write the normalized config here")
        q.add_argument("--out", help="output path (default stdout)")

    q = sub.add_parser("validate", help="check environment constraints")
    common(q)
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("cumulant", help="solve the backward system")
    common(q)
    q.add_argument("--t", type=float)
    q.add_argument("--lambda", dest="lam", type=_parse_pair, metavar="A,B")
    q.set_defaults(func=cmd_cumulant)

    q = sub.add_parser("moments", help="exact means and the a-priori bound")
    common(q)
    q.add_argument("--t", type=float)
    q.add_argument("--x0", type=_parse_pair, metavar="A,B")
    q.set_defaults(func=cmd_moments)

    q = sub.add_parser("simulate", help="Monte Carlo ensemble")
    common(q)
    q.add_argument("--t", type=float)
    q.add_argument("--x0", type=_parse_pair, metavar="A,B")
    q.add_argument("--paths", type=int)
    q.add_argument("--step", type=float)
    q.add_argument("--seed", type=int)
    q.add_argument("--checkpoints", type=lambda s: tuple(float(x) for x in s.split(",")))
    q.add_argument("--lambda-grid", help="file with one 'a,b' pair per line")
    q.add_argument("--dump-path", help="write the path-0 trajectory CSV here")
    q.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="ensemble output format (--out csv|json)")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("functional", help="weighted integral functionals")
    common(q)
    q.add_argument("--t", type=float)
    q.add_argument("--r", type=float, default=0.0)
    q.add_argument("--lambda", dest="lam", type=_parse_pair, metavar="A,B")
    q.add_argument("--x0", type=_parse_pair, metavar="A,B")
    q.add_argument("--mc", type=int, help="cross-check with this many paths")
    q.add_argument("--step", type=float)
    q.add_argument("--seed", type=int)
    q.set_defaults(func=cmd_functional)

    q = sub.add_parser("extinction", help="extinction-time law")
    common(q)
    q.add_argument("--t", type=float)
    q.add_argument("--x0", type=_parse_pair, metavar="A,B")
    q.add_argument("--paths", type=int, help="also estimate by simulation")
    q.add_argument("--step", type=float)
    q.add_argument("--seed", type=int)
    q.set_defaults(func=cmd_extinction)

    q = sub.add_parser("verify", help="run cross-check scenarios")
    which = q.add_mutually_exclusive_group(required=True)
    which.add_argument("--suite", action="store_true", help="run the built-in suite")
    which.add_argument("--scenario", help="run one scenario config (JSON)")
    q.add_argument("--out", help="JSON report path (default stdout)")
    q.add_argument("--threads", type=int,
                   help="scenario worker threads (overrides env BIBRANCH_THREADS, "
                        "which sets the default; otherwise the CPU count)")
    q.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            SolverError, SimulationError) as exc:
        print(f"bibranch: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
