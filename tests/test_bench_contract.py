"""What the benchmark harness under ``bench/`` reads of the program.

The harness imports the library and wraps some of its functions and methods
from outside, so a change to ``src/`` can crash a benchmark run that no other
test covers.  These checks run the harness's own set-up, its tracer and its
analytic pass in a few seconds; the files under ``bench/`` are only imported.
"""

import math
import sys
from pathlib import Path

import pytest

import bibranch as bb
from bibranch.simulate import SimOptions
from bibranch.verify import run_scenario, suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_builds_and_validates_its_inputs(workload):
    inp = workloads.build(workload, 0)
    tally = workloads.Tally()
    workloads.validate_all(inp, tally)
    assert tally.attempted > 0 and tally.failures == []


def test_the_tracer_installs_and_counts_through_the_engine():
    # install raises KeyError if a measure class loses a method it wraps
    tracer = tracing.Tracer().install()
    try:
        by_name = {sc.name: sc for sc in suite()}
        for name in ("dirac-cross", "stable-jump"):
            sc = by_name[name]
            bb.simulate_ensemble(sc.env, sc.x0, 0.2, (0.2,), (), 50,
                                 SimOptions(step=1e-2), bb.NoiseStream(0))
        bb.solve_backward(by_name["feller-embed"].env, 1.0, (1.0, 0.5))
    finally:
        tracer.restore()
    counts = tracer.counts
    # the plan's samplers are looked up on the classes the tracer wrapped
    assert counts["measures.samples_drawn"] > 0
    assert counts["simulate.path_steps"] == 2 * 50 * 20
    assert counts["cumulant.solve_calls"] == 1
    assert {span[0] for span in tracer.spans} >= {"simulate.simulate_ensemble",
                                                  "cumulant.solve_backward"}


def test_the_analytic_pass_and_oracles_run_clean():
    feller = next(sc.env for sc in suite() if sc.name == "feller-embed")
    _, diag = bb.v_infinity(feller, 1.0)
    assert diag["status"] == ("converged", "diverged") and diag["ladder"] == []
    assert issubclass(bb.LadderNotConverged, Exception)
    inp = workloads.build("analytic", 0)
    tally = workloads.Tally()
    latencies = []
    elapsed = workloads.run_pass(inp, tally, {}, latencies)
    oracle = workloads.oracle_check(inp, tally)
    assert tally.failures == [] and elapsed > 0 and latencies
    assert oracle["cumulant_rel_err"] < workloads.CUMULANT_TOL
    assert math.isfinite(oracle["v_inf_rel_err"])


def test_gate_coverage_reads_a_report():
    # the law makes extinction certain on bottleneck, and coverage counts its
    # extinction-exact check as the extinction gate
    for name, extinction in (("zero-env", "extinction"), ("bottleneck", "extinction-exact")):
        sc = next(sc for sc in suite() if sc.name == name)
        cov = workloads.coverage(sc, run_scenario(sc))
        assert cov == {"gates": ["comparison-pathwise", extinction, "laplace-cells",
                                 "laplace-hard-cap", "moment", "semigroup", "validation"],
                       "skipped": {}, "not_configured": ["functional", "truncation"]}, name
