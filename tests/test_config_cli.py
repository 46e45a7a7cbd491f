import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from bibranch import cli, config as cfgmod
from bibranch.cli import _scenario_from_config, main
from bibranch.cumulant import v_infinity
from bibranch.densities import Density
from bibranch.environment import JumpKernel, atom_info
from bibranch.measures import CappedStableAxis, ExpProduct, StableAxis
from bibranch.simulate import SimOptions, truncate_large_jumps

from conftest import make_env


FULL_CFG = {
    "horizon": 1.0,
    "types": [
        {
            "b_diag": {"density": {"kind": "constant", "v": 0.4},
                       "atoms": [{"t": 0.3, "mass": 0.5}]},
            "b_cross": {"density": {"kind": "piecewise_linear",
                                    "points": [[0.0, 0.1], [1.0, 0.2]]}},
            "c": {"density": {"kind": "constant", "v": 0.2}},
            "m": {
                "density_components": [
                    {"rate": {"kind": "constant", "v": 1.0},
                     "measure": {"kind": "dirac", "z": [0.5, 0.2], "weight": 1.0}},
                    {"rate": {"kind": "constant", "v": 0.5},
                     "measure": {"kind": "stable_axis", "axis": 1, "alpha": 1.5,
                                 "weight": 0.2}},
                ],
                "atoms": [{"t": 0.6,
                           "measure": {"kind": "dirac", "z": [0.3, 0.0],
                                       "weight": 0.4}}],
            },
        },
        {
            "b_diag": {"density": {"kind": "table", "mesh": [0.0, 0.5, 1.0],
                                   "values": [0.1, 0.2, 0.0]}},
            "b_cross": {"density": {"kind": "constant", "v": 0.0}},
            "c": {"density": {"kind": "constant", "v": 0.0}},
            "m": {"density_components": [
                {"rate": {"kind": "constant", "v": 0.7},
                 "measure": {"kind": "exp_product", "theta1": 3.0, "theta2": 2.0,
                             "weight": 0.5}}]},
        },
    ],
    "zeta": [
        {"density": {"kind": "constant", "v": 1.0},
         "atoms": [{"t": 0.5, "mass": 0.3}]},
        {"density": {"kind": "constant", "v": 0.0}},
    ],
    "run": {"seed": 7, "paths": 64, "step": 1e-2, "t": 1.0, "x0": [1.0, 1.0],
            "checkpoints": [0.5, 1.0], "lambda_grid": [[1.0, 0.5]]},
}


def test_config_round_trip():
    env = cfgmod.env_from_config(FULL_CFG)
    zeta = cfgmod.zeta_from_config(FULL_CFG)
    dumped = cfgmod.env_to_config(env, zeta, FULL_CFG["run"])
    env2 = cfgmod.env_from_config(dumped)
    zeta2 = cfgmod.zeta_from_config(dumped)
    assert env2.horizon == env.horizon
    ts = np.linspace(0.0, 1.0, 7)
    for i in range(2):
        for j in range(2):
            assert np.allclose(env2.b[i][j].density(ts), env.b[i][j].density(ts))
            assert env2.b[i][j].atoms == env.b[i][j].atoms
        assert np.allclose(env2.c[i].density(ts), env.c[i].density(ts))
        assert len(env2.m[i].density_components) == len(env.m[i].density_components)
        for (r1, m1), (r2, m2) in zip(env.m[i].density_components,
                                      env2.m[i].density_components):
            assert np.allclose(r1(ts), r2(ts))
            assert m1 == m2
        assert env2.m[i].atoms == env.m[i].atoms
        assert zeta2.per_type[i].atoms == zeta.per_type[i].atoms
    # second round trip is textually identical
    assert cfgmod.dump_config(dumped) == cfgmod.dump_config(
        cfgmod.env_to_config(env2, zeta2, FULL_CFG["run"]))


def test_truncated_environment_round_trips():
    env = make_env(m1=JumpKernel((
        (Density.constant(0.5), StableAxis(0, 1.5, 0.15)),
        (Density.constant(1.0), ExpProduct(2.0, 1.0, 0.4)),
    )))
    capped = truncate_large_jumps(env, 2.0)
    dumped = cfgmod.env_to_config(capped)
    redo = cfgmod.env_from_config(dumped)
    assert isinstance(redo.m[0].density_components[0][1], CappedStableAxis)
    assert redo.m[0].density_components[0][1] == capped.m[0].density_components[0][1]


MEASURE_SPECS = [
    {"kind": "dirac", "z": [0.5, 0.0], "weight": 2.0},
    {"kind": "exp_product", "theta1": 3.0, "theta2": 2.0, "weight": 0.5},
    {"kind": "stable_axis", "axis": 2, "alpha": 1.5, "weight": 0.15},
    {"kind": "exp_product_capped", "theta1": 3.0, "theta2": 2.0, "cap": 1.0, "weight": 0.5},
    {"kind": "stable_axis_capped", "axis": 1, "alpha": 1.2, "cap": 2.0, "weight": 0.3},
]


def _one_measure_config(spec):
    axis = spec.get("axis", 1) - 1
    types = [{}, {}]
    types[axis] = {"m": {"density_components": [{"rate": {"kind": "constant", "v": 1.0},
                                                 "measure": spec}]}}
    return {"horizon": 1.0, "types": types}


@pytest.mark.parametrize("spec", MEASURE_SPECS, ids=[s["kind"] for s in MEASURE_SPECS])
def test_every_measure_kind_reads_and_writes_its_spec(spec, tmp_path, capsys):
    env = cfgmod.env_from_config(_one_measure_config(spec))
    kernel = cfgmod.env_to_config(env)["types"][spec.get("axis", 1) - 1]["m"]
    assert kernel["density_components"][0]["measure"] == spec
    # a missing parameter is a usage error
    for key in spec.keys() - {"kind", "weight"}:
        broken = _one_measure_config({k: v for k, v in spec.items() if k != key})
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(broken))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"bibranch: '{key}'\n"


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "env.json"
    p.write_text(json.dumps(FULL_CFG))
    return p


@pytest.fixture
def bad_cfg_file(tmp_path):
    cfg = json.loads(json.dumps(FULL_CFG))
    cfg["types"][0]["b_diag"]["atoms"][0]["mass"] = 1.2  # delta > 1
    cfg["types"][0]["m"]["atoms"] = []
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    return p


def test_cli_validate_ok(cfg_file, capsys):
    assert main(["validate", str(cfg_file)]) == 0


def test_cli_validate_bad_exit_2(bad_cfg_file, capsys):
    assert main(["validate", str(bad_cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "delta-bound" in err and "0.3" in err


def test_cli_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cumulant"])  # missing env argument
    assert exc.value.code == 1


def test_cli_missing_file_exit_1(capsys):
    assert main(["validate", "/nonexistent/env.json"]) == 1


def test_cli_cumulant_csv(cfg_file, tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = main(["cumulant", str(cfg_file), "--t", "1.0", "--lambda", "2,0",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,v1,v2,is_atom,v1_left,v2_left"
    first = lines[1].split(",")
    assert float(first[0]) == 1.0  # terminal row first
    assert float(first[1]) == 2.0 and float(first[2]) == 0.0


def test_cli_moments_csv(cfg_file, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moments", str(cfg_file), "--x0", "1,1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,m1,m2,bound1,bound2"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[3] >= last[1] and last[4] >= last[2]


def test_cli_simulate_csv_and_trajectory(cfg_file, tmp_path):
    out = tmp_path / "sim.csv"
    traj = tmp_path / "traj.csv"
    code = main(["simulate", str(cfg_file), "--paths", "64", "--step", "0.01",
                 "--seed", "5", "--out", str(out), "--dump-path", str(traj)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "kind,t,a,b,value,se"
    tlines = traj.read_text().splitlines()
    assert tlines[0] == "t,x1,x2,is_atom,absorbed"
    # atom rows flagged
    flagged = [l for l in tlines[1:] if l.split(",")[3] == "1"]
    assert flagged, "trajectory should mark atom times"


def test_cli_simulate_json(cfg_file, tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", str(cfg_file), "--paths", "16", "--step", "0.01",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["checkpoints", "extinction", "lambdas", "laplace", "laplace_se",
                               "mean", "n_paths", "se_mean", "var"]
    assert payload["n_paths"] == 16
    assert len(payload["checkpoints"]) == 2


def test_cli_simulate_mesh_beyond_the_cap_is_a_usage_error(cfg_file, capsys):
    assert main(["simulate", str(cfg_file), "--t", "1", "--step", "1e-9"]) == 1
    assert "more than 1000000 mesh steps" in capsys.readouterr().err


def test_cli_simulate_unallocatable_ensemble_is_a_usage_error(capsys):
    # 1e13 paths ask for 146 TiB, beyond the user address space: the
    # allocation fails at once without touching memory
    argv = ["simulate", str(FELLER), "--paths", "10000000000000", "--t", "0.01",
            "--checkpoints", "0.01", "--step", "0.01"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("bibranch: Unable to allocate")
    assert err.count("\n") == 1


def test_cli_functional(cfg_file, tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert main(["functional", str(cfg_file), "--r", "0.0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "r,u1,u2,is_atom,u1_left,u2_left"
    err = capsys.readouterr().err
    assert "w(0,1)" in err


def test_cli_extinction(cfg_file, capsys):
    assert main(["extinction", str(cfg_file), "--x0", "1,0"]) == 0
    capsys.readouterr()
    stable = Path(__file__).resolve().parents[1] / "configs" / "stable_jump.json"
    assert main(["extinction", str(stable), "--x0", "1,0"]) == 0
    p = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= p <= 1.0


def test_cli_solver_error_is_one_line(tmp_path, capsys):
    # type 1 is fed by type 2's blow-up through a cross drift that vanishes
    # at t, where a full bottleneck zeroes it: the solver refuses to guess
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "feller.json").read_text())
    cfg["types"][1]["c"] = {"density": {"kind": "constant", "v": 0.5}}
    cfg["types"][0]["b_cross"] = {"density": {"kind": "piecewise_linear",
                                              "points": [[0.0, 1.0], [1.0, 0.0]]}}
    cfg["types"][0]["b_diag"]["atoms"] = [{"t": 1.0, "mass": 1.0}]
    path = tmp_path / "blow_up.json"
    path.write_text(json.dumps(cfg))
    assert main(["extinction", str(path), "--x0", "1,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bibranch: unresolved-blow-up")
    assert err.count("\n") == 1


def test_cli_dump_config_round_trip(cfg_file, tmp_path):
    dumped = tmp_path / "normalized.json"
    assert main(["validate", str(cfg_file), "--dump-config", str(dumped)]) == 0
    env1 = cfgmod.env_from_config(cfgmod.load_config(cfg_file))
    env2 = cfgmod.env_from_config(cfgmod.load_config(dumped))
    ts = np.linspace(0, 1, 5)
    for i in range(2):
        for j in range(2):
            assert np.allclose(env1.b[i][j].density(ts), env2.b[i][j].density(ts))
    # dumping the reloaded config reproduces the file byte for byte
    text1 = dumped.read_text()
    env_cfg = cfgmod.env_to_config(env2, cfgmod.zeta_from_config(cfgmod.load_config(dumped)),
                                   cfgmod.load_config(dumped).get("run"))
    assert cfgmod.dump_config(env_cfg) + "\n" == text1


def test_cli_verify_scenario_file(tmp_path):
    cfg = {
        "name": "tiny",
        "horizon": 0.5,
        "types": [
            {"b_diag": {"density": {"kind": "constant", "v": 0.5}},
             "c": {"density": {"kind": "constant", "v": 0.3}}},
            {},
        ],
        "run": {"seed": 3, "paths": 2000, "step": 5e-3, "t": 0.5, "x0": [1.0, 0.0],
                "checkpoints": [0.5], "lambda_grid": [[1.0, 0.0], [2.0, 0.0]]},
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    code = main(["verify", "--scenario", str(p), "--out", str(out), "--threads", "1"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    names = [c["name"] for c in payload["reports"][0]["checks"]]
    assert "laplace-cells" in names and "semigroup" in names


def test_verify_scenario_honours_run_options():
    cfg = cfgmod.load_config(Path(__file__).resolve().parents[1] / "configs" / "stable_jump.json")
    sc = _scenario_from_config(cfg)
    assert sc.opts.small_jump_mode == "gaussian"
    assert sc.opts == SimOptions(step=1e-3, small_jump_mode="gaussian")
    assert (sc.x0_high, sc.coupled_pairs, sc.truncation) == (None, 0, False)
    cfg["run"].update(small_jump_eps=0.05, x0_high=[2.0, 0.0], coupled_pairs=50,
                      truncation=True)
    sc = _scenario_from_config(cfg)
    assert sc.opts.small_jump_eps == 0.05
    assert sc.x0_high == (2.0, 0.0)
    assert sc.coupled_pairs == 50 and sc.truncation is True


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FELLER = CONFIGS / "feller.json"


def test_verify_scenario_checkpoints_default_to_run_t(tmp_path, capsys):
    cfg = json.loads(FELLER.read_text())
    cfg["run"].update(t=0.5, paths=500, step=1e-2)
    del cfg["run"]["checkpoints"]
    assert _scenario_from_config(cfg).checkpoints == (0.5,)
    p = tmp_path / "short.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", str(p), "--out", str(tmp_path / "sim.csv")]) == 0
    code = main(["verify", "--scenario", str(p), "--threads", "1",
                 "--out", str(tmp_path / "report.json")])
    assert code == 0, capsys.readouterr().err


def test_cli_simulate_checkpoint_past_t_is_a_usage_error(capsys):
    assert main(["simulate", str(FELLER), "--t", "0.5", "--paths", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bibranch: checkpoint 1.0 outside [0.0, 0.5]")


def test_cli_verify_reports_skips_on_stderr(tmp_path, capsys):
    cfg = json.loads((FELLER.parent / "stable_jump.json").read_text())
    cfg["run"].update(paths=500, t=0.5, checkpoints=[0.5])
    p = tmp_path / "stable.json"
    p.write_text(json.dumps(cfg))
    main(["verify", "--scenario", str(p), "--threads", "1", "--out", str(tmp_path / "r.json")])
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert line.endswith("s; skipped moment: state variance infinite (uncapped power tail))")


RUN_VALUES = {"t": 0.5, "x0": [2.0, 0.5], "seed": 3, "step": 0.01, "lambda": [0.5, 0.25]}


@pytest.mark.parametrize("command, keys, extra", [
    ("cumulant", ("t", "lambda"), []),
    ("moments", ("t", "x0"), []),
    ("simulate", ("t", "x0", "seed", "step"), ["--paths", "200"]),
    ("functional", ("t", "lambda", "x0", "seed", "step"), ["--mc", "200"]),
    ("extinction", ("t", "x0", "seed", "step"), ["--paths", "200"]),
])
def test_run_block_gives_the_same_output_as_flags(command, keys, extra, tmp_path, capsys):
    cfg = json.loads((FELLER.parent / "dirac_cross.json").read_text())
    run = {k: RUN_VALUES[k] for k in ("t", "x0", "seed", "step")}
    if "lambda" in keys:
        run["lambda"] = RUN_VALUES["lambda"]
    flags = []
    for k in keys:
        v = RUN_VALUES[k]
        flags += [f"--{k}", ",".join(map(str, v)) if isinstance(v, list) else str(v)]
    outputs = []
    for name, block, argv in (("run", run, []), ("flags", {}, flags)):
        cfg["run"] = block
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"{name}.out"
        assert main([command, str(path), "--out", str(out), *argv, *extra]) == 0
        text = out.read_text() if out.exists() else ""
        outputs.append((text, *capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_cli_extinction_rejects_negative_x0(capsys):
    assert main(["extinction", str(FELLER), "--x0=-1,0"]) == 1
    assert capsys.readouterr().err == "bibranch: x must be a nonnegative 2-vector\n"


def test_cli_extinction_rejects_an_infinite_start(capsys):
    assert main(["extinction", str(FELLER), "--x0", "inf,0"]) == 1
    assert capsys.readouterr().err == "bibranch: x must be finite\n"


@pytest.mark.parametrize("argv", [["moments"], ["verify", "--threads", "1", "--scenario"]],
                         ids=["moments", "verify"])
def test_run_block_that_is_not_an_object_is_a_usage_error(argv, tmp_path, capsys):
    cfg = json.loads(FELLER.read_text())
    cfg["run"] = [1, 2]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main([*argv, str(p)]) == 1
    assert capsys.readouterr().err == "bibranch: run must be an object, got [1, 2]\n"


@pytest.mark.parametrize("argv, key, value", [
    (["moments"], "x0", 1.0),
    (["verify", "--threads", "1", "--scenario"], "x0_high", 2.0),
    (["cumulant"], "t", [1.0]),
], ids=["moments", "verify", "cumulant"])
def test_malformed_run_value_is_a_usage_error(argv, key, value, tmp_path, capsys):
    cfg = json.loads(FELLER.read_text())
    cfg["run"][key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main([*argv, str(p)]) == 1
    assert capsys.readouterr().err == f"bibranch: run.{key} has the wrong form: {value!r}\n"


def test_cli_lambda_grid_must_be_finite(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1.0,0.5\ninf,0\n")
    out = tmp_path / "sim.csv"
    code = main(["simulate", str(FELLER), "--paths", "16", "--t", "0.1", "--checkpoints", "0.1",
                 "--lambda-grid", str(grid), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "bibranch: lam_grid must be finite\n"
    assert not out.exists()


def test_cli_cumulant_from_infinity_writes_the_limit_and_the_left_limits(tmp_path):
    # atom_rich: bottlenecks of type 1 at 0.3 (mass 0.5) and 0.6 (mass 1), a
    # cross atom 0.2 at 0.5 and a jump atom of m_2 at 0.45
    out = tmp_path / "v.csv"
    assert main(["cumulant", str(CONFIGS / "atom_rich.json"), "--lambda", "inf,inf",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    env = cfgmod.env_from_config(cfgmod.load_config(CONFIGS / "atom_rich.json"))
    value = {float(r["r"]): [float(r["v1"]), float(r["v2"])] for r in rows}
    left = {float(r["r"]): [float(r["v1_left"]), float(r["v2_left"])] for r in rows}
    atoms = [float(r["r"]) for r in rows if r["is_atom"] == "1"]
    assert atoms == [0.6, 0.5, 0.45, 0.3]
    assert value[0.0] == v_infinity(env, 1.0)[0].tolist()
    for s in atoms:
        assert left[s] == atom_info(env, s).cumulant_map(value[s]).tolist()
    # the bottleneck at 0.6 empties type 1, which stays 0 up to the cross atom
    assert left[0.6] == [0.0, math.inf] and value[0.5] == [0.0, math.inf]
    inside = [r for r in value if 0.5 < r < 0.6]
    assert inside and all(value[r] == [0.0, math.inf] for r in inside)


def test_cli_lambda_grid_needs_two_numbers_per_line(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1.0,0.5\n\n2.0\n3.0\n")
    code = main(["simulate", str(FELLER), "--paths", "16", "--t", "0.1", "--checkpoints", "0.1",
                 "--lambda-grid", str(grid), "--out", str(tmp_path / "sim.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bibranch: {grid} line 3: expected two comma-separated numbers")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, threads", [([], os.cpu_count() or 1), (["--threads", "3"], 3)],
                         ids=["default", "flag"])
def test_verify_threads_come_from_the_flag_alone(argv, threads, monkeypatch, tmp_path):
    # the environment does not set the worker count: --threads, else the CPU count
    monkeypatch.setenv("BIBRANCH_THREADS", "abc")
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda scenarios, threads: seen.append(threads) or [])
    assert main(["verify", "--suite", "--out", str(tmp_path / "r.json"), *argv]) == 0
    assert seen == [threads]


@pytest.mark.parametrize("argv, message", [
    (["verify"], "one of the arguments --suite --scenario is required"),
    (["verify", "--suite", "--scenario", "x.json"], "not allowed with argument --suite"),
])
def test_verify_needs_exactly_one_of_suite_and_scenario(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate"], ["cumulant"], ["moments"], ["extinction"],
    ["simulate", "--paths", "8", "--step", "0.1"], ["functional"],
    ["verify", "--threads", "1", "--scenario"],
], ids=["validate", "cumulant", "moments", "extinction", "simulate", "functional", "verify"])
def test_malformed_zeta_is_a_usage_error_for_every_subcommand(argv, tmp_path, capsys):
    cfg = json.loads(FELLER.read_text())
    cfg["zeta"] = [{"density": {"kind": "constant", "v": 1.0}}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main([*argv, str(p)]) == 1
    assert capsys.readouterr().err == "bibranch: zeta must carry one block per type\n"


@pytest.mark.parametrize("key, value", [
    ("zeta", {"a": 1, "b": 2}), ("zeta", "ab"), ("zeta", [1, 2]),
    ("types", {"a": {}, "b": {}}), ("types", "ab"), ("types", [{}, {}, {}]), ("types", None),
], ids=["zeta-object", "zeta-string", "zeta-numbers", "types-object", "types-string",
        "types-three", "types-missing"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["cumulant"], ["moments"], ["extinction"],
    ["simulate", "--paths", "8", "--step", "0.1"], ["functional"],
    ["verify", "--threads", "1", "--scenario"],
], ids=["validate", "cumulant", "moments", "extinction", "simulate", "functional", "verify"])
def test_per_type_block_of_another_shape_is_a_usage_error(argv, key, value, tmp_path, capsys):
    cfg = json.loads(FELLER.read_text())
    if value is None:
        del cfg[key]
    else:
        cfg[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main([*argv, str(p)]) == 1
    assert capsys.readouterr().err == f"bibranch: {key} must carry one block per type\n"


@pytest.mark.parametrize("key, flag", [("step", True), ("step", False),
                                       ("small_jump_eps", False)])
def test_infinite_step_or_small_jump_eps_is_a_usage_error(key, flag, tmp_path, capsys):
    # an infinite step ran one Euler step per span, and an infinite threshold
    # dropped every tail jump
    cfg = json.loads(FELLER.read_text())
    if not flag:
        cfg["run"][key] = 1e400  # json writes Infinity, which Python's json reads
    p = tmp_path / "inf.json"
    p.write_text(json.dumps(cfg))
    argv = ["simulate", str(p), "--paths", "100"] + (["--step", "inf"] if flag else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"bibranch: {key} must be positive and finite, got inf\n"


def test_simulation_defaults_are_the_fields_of_sim_options():
    args = cli.build_parser().parse_args(["simulate", str(FELLER)])
    assert cli._sim_options(args, {}) == SimOptions()
    assert cli._sim_options(None, {"small_jump_mode": "gaussian"}) == SimOptions(
        small_jump_mode="gaussian")


def test_cli_cumulant_from_infinity_writes_the_terminal_row_first(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["cumulant", str(FELLER), "--lambda", "inf,inf", "--out", str(out)]) == 0
    first = next(csv.DictReader(out.read_text().splitlines()))
    assert [first["r"], first["v1"], first["v2"], first["is_atom"]] == ["1", "inf", "inf", "0"]
