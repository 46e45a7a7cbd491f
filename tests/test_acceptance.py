"""Acceptance battery: each numbered criterion runs at its stated tolerance.

The built-in verification suite is executed through the CLI (this is the
acceptance run); criteria 2 through 8 are read off its gated checks in the
JSON report, criterion 9 compares two runs byte for byte, and criteria
1 and 4's randomized half run directly.  Every test prints one PASS line.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bibranch.cumulant import solve_backward
from bibranch.moments import first_moment, moment_bound

from conftest import feller_env, random_env

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """Two full CLI suite runs, in two processes: at --threads 1 and at --threads 2."""
    tmp = tmp_path_factory.mktemp("acceptance")
    outs = {}
    for tag, threads in (("first", "1"), ("threaded", "2")):
        out = tmp / f"report_{tag}.json"
        cmd = [sys.executable, "-m", "bibranch.cli", "verify", "--suite",
               "--threads", threads, "--out", str(out)]
        res = subprocess.run(cmd, capture_output=True, text=True)
        assert res.returncode == 0, \
            f"verify --suite failed (exit {res.returncode}):\n{res.stderr[-3000:]}"
        outs[tag] = out.read_bytes()
    return outs


@pytest.fixture(scope="module")
def reports(suite_runs):
    payload = json.loads(suite_runs["first"])
    assert payload["pass"] is True
    return {rep["scenario"]: rep for rep in payload["reports"]}


def _check(reports, scenario, name):
    for c in reports[scenario]["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError(f"{scenario} has no check named {name}: "
                         f"{[c['name'] for c in reports[scenario]['checks']]}")


def _passline(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_closed_form_oracle():
    b, c, lam, t = 1.0, 0.5, 2.0, 1.0
    t0 = time.perf_counter()
    v = solve_backward(feller_env(b, c), t, (lam, 0.0)).at(0.0)
    elapsed = time.perf_counter() - t0
    exact = lam * math.exp(-b * t) / (1.0 + (c * lam / b) * (1.0 - math.exp(-b * t)))
    rel = abs(v[0] - exact) / exact
    assert rel < 1e-6, f"relative error {rel:.3e}"
    assert elapsed < 1.0, f"solve took {elapsed:.2f}s"
    _passline(1, "closed-form oracle")


def test_criterion_2_flow_property(reports):
    seen = 0
    for name, rep in reports.items():
        for c in rep["checks"]:
            if c["name"] == "semigroup":
                assert c["pass"] and c["statistic"] < 1e-6, \
                    f"{name}: semigroup residual {c['statistic']:.3e}"
                seen += 1
    assert seen >= 8
    _passline(2, "flow property on every suite environment")


def test_criterion_3_laplace_consistency(reports):
    gated = 0
    for name, rep in reports.items():
        for c in rep["checks"]:
            if c["name"] == "laplace-cells":
                assert c["pass"] and c["statistic"] >= 0.95, \
                    f"{name}: only {c['statistic']:.0%} of cells within 3.5 SE"
                gated += 1
            if c["name"] == "laplace-hard-cap":
                assert c["pass"], \
                    f"{name}: a cell exceeded 6 SE (ratio {c['statistic']:.2f})"
    assert gated >= 8, "laplace gate must cover the non-functional environments"
    _passline(3, "simulation agrees with the backward solver")


def test_criterion_4_first_moment(reports):
    for name, rep in reports.items():
        for c in rep["checks"]:
            if c["name"] == "moment":
                assert c["pass"], f"{name}: moment ratio {c['statistic']:.2f}"
    rng = np.random.default_rng(777)
    for _ in range(100):
        env = random_env(rng)
        x0 = tuple(rng.uniform(0.0, 2.0, size=2))
        curve = first_moment(env, x0, 1.0)
        for t in (0.5, 1.0):
            assert np.all(moment_bound(env, x0, t) >= curve.at(t) - 1e-9)
    _passline(4, "first-moment identity and Gronwall domination")


def test_criterion_5_comparison(reports):
    pathwise = 0
    distributional = 0
    for name, rep in reports.items():
        for c in rep["checks"]:
            if c["name"] == "comparison-pathwise":
                assert c["pass"] and c["statistic"] == 0.0, \
                    f"{name}: {c['statistic']:.0f} order violations"
                pathwise += 1
            if c["name"] == "comparison-distributional":
                assert c["pass"], f"{name}: ordering margin {c['statistic']:.2f} sigma"
                distributional += 1
    assert pathwise >= 5 and distributional >= 2
    _passline(5, "pathwise and distributional comparison")


def test_criterion_6_truncation(reports):
    mono = _check(reports, "stable-jump", "truncation-monotone")
    conv = _check(reports, "stable-jump", "truncation-converges")
    assert mono["pass"], f"monotonicity increment {mono['statistic']:.3e}"
    assert conv["pass"] and conv["statistic"] < 1.0, \
        f"|v8 - v| / |v1 - v| = {conv['statistic']:.3f}"
    _passline(6, "large-jump truncation monotone and convergent")


def test_criterion_7_extinction(reports):
    exact = _check(reports, "bottleneck", "extinction-exact")
    assert exact["pass"] and exact["statistic"] == 1.0, \
        f"bottleneck extinction frequency {exact['statistic']}"
    gate = _check(reports, "feller-embed", "extinction")
    assert gate["pass"], f"feller extinction ratio {gate['statistic']:.2f}"
    bias = _check(reports, "feller-embed", "extinction-bias-monotone")
    assert bias["pass"], \
        f"bias did not shrink under step refinement ({bias['statistic']:.2f})"
    stable = _check(reports, "stable-jump", "extinction")
    assert stable["pass"], f"stable-jump extinction ratio {stable['statistic']:.2f}"
    _passline(7, "extinction law: bottleneck exact, feller and stable gated, bias monotone")


def test_criterion_8_functionals(reports):
    for name in ("functional-density", "functional-atoms", "functional-terminal-atom"):
        red = _check(reports, name, "functional-reduction")
        term = _check(reports, name, "functional-terminal-identity")
        mc = _check(reports, name, "functional-mc")
        assert red["pass"] and red["statistic"] <= 1e-9, \
            f"{name}: reduction {red['statistic']:.2e}"
        assert term["pass"] and term["statistic"] <= 1e-8, \
            f"{name}: terminal {term['statistic']:.2e}"
        assert mc["pass"], f"{name}: MC ratio {mc['statistic']:.2f}"
    _passline(8, "weighted functionals: reduction, terminal atom, MC agreement")


def test_criterion_9_reproducible_reports(suite_runs):
    # two processes with different thread counts: equal bytes show both
    # run-to-run determinism and independence of the thread count
    assert suite_runs["first"] == suite_runs["threaded"], \
        "reports differ across runs and --threads values"
    _passline(9, "byte-identical reports across runs and thread counts")
