import dataclasses
import json
import math
import time

import numpy as np
import pytest

from bibranch import verify
from bibranch.cumulant import extinction_prob
from bibranch.verify import (
    GateConfig,
    Scenario,
    Skip,
    reports_to_json,
    run_scenario,
    run_suite,
    suite,
)
from bibranch.environment import validate
from bibranch.noise import NoiseStream
from bibranch.simulate import SimOptions, _StepPlan

from conftest import atoms_only, const, make_env


def test_suite_is_large_enough_and_valid():
    scenarios = suite()
    assert len(scenarios) >= 10
    names = [s.name for s in scenarios]
    assert len(set(names)) == len(names)
    for sc in scenarios:
        assert validate(sc.env).passed, sc.name
        assert sc.n_paths >= 2 and sc.opts.step > 0


def test_adversarial_delta_fails_validation_and_skips_rest():
    sc = Scenario(
        name="adversarial", env=make_env(b11=atoms_only((0.5, 1.05))),
        x0=(1.0, 0.0), t=1.0, checkpoints=(1.0,), lam_grid=((1.0, 0.0),),
        n_paths=100, seed=1, opts=SimOptions(step=1e-2))
    rep = run_scenario(sc)
    assert not rep.passed
    assert [c.name for c in rep.checks] == ["validation"]
    assert not rep.checks[0].passed


def _tiny_scenario(seed=5):
    return Scenario(
        name="tiny-feller",
        env=make_env(b11=const(1.0), c1=const(0.5)),
        x0=(1.0, 0.0), t=0.5, checkpoints=(0.25, 0.5),
        lam_grid=((1.0, 0.0), (2.0, 0.0)), n_paths=4000, seed=seed, opts=SimOptions(step=2e-3),
        x0_high=(2.0, 0.0), extinction_coarse_step=4e-2)


def test_report_deterministic_given_seed():
    a = run_scenario(_tiny_scenario())
    b = run_scenario(_tiny_scenario())
    assert reports_to_json([a]) == reports_to_json([b])


def test_reports_identical_across_thread_counts():
    scenarios = [_tiny_scenario(), dataclasses.replace(_tiny_scenario(7), name="tiny2")]
    one = reports_to_json(run_suite(scenarios, threads=1))
    two = reports_to_json(run_suite(scenarios, threads=4))
    assert one == two


def test_report_json_schema():
    rep = run_scenario(_tiny_scenario())
    payload = json.loads(reports_to_json([rep]))
    assert set(payload) == {"reports", "pass"}
    entry = payload["reports"][0]
    assert set(entry) == {"scenario", "checks", "pass"}
    for c in entry["checks"]:
        assert set(c) == {"name", "statistic", "threshold", "pass"}
        assert isinstance(c["pass"], bool)


def test_zero_env_scenario_passes_all_gates():
    sc = next(s for s in suite() if s.name == "zero-env")
    sc = dataclasses.replace(sc, n_paths=2000)
    rep = run_scenario(sc)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert {"validation", "semigroup", "moment", "laplace-cells",
            "comparison-pathwise", "extinction"} <= names
    assert rep.skipped == []


def test_gate_thresholds_live_in_config():
    sc = dataclasses.replace(_tiny_scenario(),
                             gates=GateConfig(semigroup_tol=1e-30),
                             checks=("validation", "semigroup"))
    rep = run_scenario(sc)
    semi = next(c for c in rep.checks if c.name == "semigroup")
    assert not semi.passed  # absurd tolerance flips the verdict, code unchanged


def test_stable_jump_skips_only_the_moment_gate():
    sc = next(s for s in suite() if s.name == "stable-jump")
    rep = run_scenario(dataclasses.replace(sc, n_paths=2000))
    assert rep.skipped == [Skip("moment", "state variance infinite (uncapped power tail)")]
    assert "moment" not in {c.name for c in rep.checks}


def test_pathwise_comparison_on_diffusion_is_a_skip():
    sc = dataclasses.replace(_tiny_scenario(), x0_high=None, coupled_pairs=10,
                             checks=("validation", "comparison"))
    rep = run_scenario(sc)
    assert [s.check for s in rep.skipped] == ["comparison-pathwise"]
    assert [c.name for c in rep.checks] == ["validation"]


def test_ensemble_time_is_booked_to_no_gate(monkeypatch):
    inner = verify.simulate_ensemble

    def slow(*a, **k):
        time.sleep(0.3)
        return inner(*a, **k)

    monkeypatch.setattr(verify, "simulate_ensemble", slow)
    sc = dataclasses.replace(_tiny_scenario(), x0_high=None, checks=("validation", "moment"))
    rep = run_scenario(sc)
    moment = next(c for c in rep.checks if c.name == "moment")
    assert moment.runtime < 0.3 <= rep.runtime


def test_ensemble_is_built_only_when_a_gate_reads_it(monkeypatch):
    calls = []
    inner = verify.simulate_ensemble

    def counting(*a, **k):
        calls.append(a)
        return inner(*a, **k)

    monkeypatch.setattr(verify, "simulate_ensemble", counting)
    sc = Scenario(name="pairs-only", env=make_env(b11=const(0.5)), x0=(1.0, 0.0), t=0.5,
                  checkpoints=(0.5,), lam_grid=((1.0, 0.0),), n_paths=100, seed=3,
                  opts=SimOptions(step=1e-2), coupled_pairs=20, checks=("validation", "comparison"))
    rep = run_scenario(sc)
    assert [c.name for c in rep.checks] == ["validation", "comparison-pathwise"]
    assert calls == []


def test_every_estimate_of_the_suite_reads_its_own_stream(monkeypatch):
    # the stream of a substream is its seed and spawn key; sizes and steps do
    # not change which streams a scenario opens, so a small run shows them all
    keys, substream = [], NoiseStream.substream

    def recording(self, *args):
        rng = substream(self, *args)
        seq = rng.bit_generator.seed_seq
        keys.append((seq.entropy, seq.spawn_key))
        return rng

    monkeypatch.setattr(NoiseStream, "substream", recording)
    scenarios = suite()
    # a scenario config with a weight measure and the default checks runs the
    # functional estimate beside the ensemble
    scenarios.append(dataclasses.replace(
        next(s for s in scenarios if s.name == "functional-atoms"),
        name="functional-atoms-all-gates", seed=max(s.seed for s in scenarios) + 1,
        checks=("validation", *verify.GATES)))
    for sc in scenarios:
        run_scenario(dataclasses.replace(
            sc, n_paths=200, coupled_pairs=min(sc.coupled_pairs, 20),
            opts=dataclasses.replace(sc.opts, step=max(sc.opts.step, 1e-2))))
    # the ensemble and functional estimate of the added scenario, a coupled
    # batch per scenario with pairs, an x0_high ensemble and a coarse run
    assert len(keys) == len(set(keys)) >= 2 * len(scenarios)


def test_the_suites_pathwise_comparisons_clamp_no_column():
    # the gap clamp keeps a clamped column ordered, which would hide a fault
    # of the thinning coupling from the comparison-pathwise gate; in drop mode
    # no column of the suite's diffusion-free environments is clamped
    compared = [sc for sc in suite() if sc.coupled_pairs and all(c.is_zero for c in sc.env.c)]
    assert len(compared) == 7
    for sc in compared:
        plan = _StepPlan(sc.env, 0.0, sc.t, dataclasses.replace(sc.opts, small_jump_mode="drop"))
        assert plan.clamp == (False, False), sc.name


def test_an_inadmissible_lambda_grid_runs_no_gate(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.GATES, "semigroup", lambda sc, ctx: ran.append(sc) or [])
    sc = next(s for s in suite() if s.name == "dirac-cross")
    for checks in (sc.checks, ("validation", "semigroup")):
        bad = dataclasses.replace(sc, lam_grid=((1.0, 0.5), (math.inf, 0.0)), checks=checks)
        with pytest.raises(ValueError, match="lam_grid must be finite"):
            run_scenario(bad)
    assert ran == []


def test_a_nan_cell_fails_its_gate(monkeypatch):
    inner = verify.simulate_ensemble

    def with_nan(*a, **k):
        stats = inner(*a, **k)
        stats.mean[0, 0] = stats.laplace[-1, -1] = np.nan
        return stats

    monkeypatch.setattr(verify, "simulate_ensemble", with_nan)
    sc = dataclasses.replace(_tiny_scenario(), n_paths=2000,
                             checks=("validation", "moment", "laplace", "comparison"))
    checks = {c.name: c for c in run_scenario(sc).checks}
    for name in ("moment", "laplace-hard-cap", "comparison-distributional"):
        assert math.isnan(checks[name].statistic) and not checks[name].passed, name


def test_certain_extinction_gets_the_exact_check_from_the_law():
    # a full bottleneck of the only populated type, with diffusion before it
    env = make_env(b11=atoms_only((0.4, 1.0)), c1=const(0.2), b22=const(0.3))
    sc = Scenario(name="certain", env=env, x0=(1.0, 0.0), t=0.8, checkpoints=(0.8,),
                  lam_grid=((1.0, 0.0),), n_paths=200, seed=4, opts=SimOptions(step=1e-2),
                  checks=("validation", "extinction"))
    assert extinction_prob(env, sc.x0, sc.t) == 1.0
    rep = run_scenario(sc)
    assert [(c.name, c.statistic, c.passed) for c in rep.checks[1:]] == [
        ("extinction-exact", 1.0, True)]


def test_bias_monotone_reads_inf_when_only_the_coarse_bias_vanishes(monkeypatch):
    monkeypatch.setattr(verify, "extinction_frequency",
                        lambda env, x0, t, *a: (extinction_prob(env, x0, t), 0.0))
    sc = dataclasses.replace(_tiny_scenario(), checks=("validation", "extinction"))
    bias = next(c for c in run_scenario(sc).checks if c.name == "extinction-bias-monotone")
    assert bias.statistic == math.inf and not bias.passed


def test_the_semigroup_gate_fails_on_a_nan_residual():
    # a sweep from lambda = inf gives inf - inf residuals; the gate's reduction keeps them
    sc = next(s for s in suite() if s.name == "dirac-cross")
    with np.errstate(invalid="ignore"):
        [semi] = verify._semigroup(sc, verify._Context(sc, NoiseStream(0), (math.inf, 0.0)))
    assert math.isnan(semi.statistic) and not semi.passed
