import json
from pathlib import Path

import numpy as np
import pytest

from bibranch import config as cfgmod
from bibranch.cli import _scenario_from_config, main
from bibranch.densities import Density
from bibranch.environment import JumpKernel
from bibranch.measures import CappedStableAxis, ExpProduct, StableAxis
from bibranch.simulate import truncate_large_jumps

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
    assert payload["n_paths"] == 16
    assert len(payload["checkpoints"]) == 2


def test_cli_functional(cfg_file, tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert main(["functional", str(cfg_file), "--r", "0.0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "r,u1,u2,is_atom,u1_left,u2_left"
    err = capsys.readouterr().err
    assert "w(0,1)" in err


def test_cli_extinction(cfg_file, capsys):
    assert main(["extinction", str(cfg_file), "--x0", "1,0"]) == 0


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
    assert sc.small_jump_mode == "gaussian"
    assert sc.sim_options().small_jump_mode == "gaussian"
    assert (sc.x0_high, sc.coupled_pairs, sc.truncation) == (None, 0, False)
    cfg["run"].update(small_jump_eps=0.05, x0_high=[2.0, 0.0], coupled_pairs=50,
                      truncation=True)
    sc = _scenario_from_config(cfg)
    assert sc.small_jump_eps == 0.05
    assert sc.x0_high == (2.0, 0.0)
    assert sc.coupled_pairs == 50 and sc.truncation is True
