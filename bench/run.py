"""Benchmark of the bibranch pipeline through its public Python API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports ``bibranch`` from ``src/`` of the
same tree, so nothing needs installing; without that source it exits with
an error before printing any result.  Workloads (see README.md):
``diffusive-narrow``, ``jumps-wide`` and ``analytic``.

With ``--trace 0`` the run measures set-up in fresh processes, then repeats
whole passes of the workload while the next one still fits in ``--seconds``
(at least one), with the host's speed sampled throughout (``hostspeed.py``),
and prints the end-to-end metrics.  With ``--trace 1`` it
runs one untraced pass, which also times the solve probe, and one traced
pass, and prints the per-layer metrics, including the solve latencies and
the tracing overhead.  Either way it checks every output it
produces.  The last line of standard output is the result object; the line
before it records the run's details and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# one caller on one thread; set before numpy loads, unless the caller set them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def import_program():
    """Import ``bibranch`` from this tree's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bibranch", "__init__.py")):
        sys.exit(f"bench: no bibranch source under {SRC}")
    sys.path.insert(0, SRC)
    import bibranch
    if not os.path.abspath(bibranch.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported bibranch from {bibranch.__file__}, not from {SRC}")


def setup(workload: str, seed: int):
    """Build the inputs and validate every environment."""
    import workloads
    inp = workloads.build(workload, seed)
    tally = workloads.Tally()
    workloads.validate_all(inp, tally)
    return inp, tally


def setup_probe(args):
    """Child process: time one set-up from a fresh interpreter."""
    t0 = time.perf_counter()
    import_program()
    _, tally = setup(args.workload, args.seed)
    elapsed = time.perf_counter() - t0
    if tally.failures:
        sys.exit(f"bench: set-up failed: {tally.failures}")
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if res.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{res.stderr[-2000:]}")
        samples.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
    return samples


def steal_ticks():
    """Cumulative CPU steal of the host in clock ticks, if the system reports it."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def machine() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception as exc:  # the report is informational; never fail the run
            return f"unknown ({type(exc).__name__})"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS + ("BIBRANCH_THREADS",)},
    }


def percentile_ms(samples, q):
    import numpy as np
    return float(np.percentile(samples, q)) * 1e3


def run(args) -> tuple[dict, dict]:
    steal0 = steal_ticks()
    setup_samples = [] if args.trace else measure_setup(args)
    inp, tally = setup(args.workload, args.seed)
    import hostspeed
    import workloads

    latencies, gates, pass_s, pass_ref, kernel_ms = [], {}, [], [], []
    while True:
        if args.trace:
            pass_s.append(workloads.run_pass(inp, tally, gates, latencies))
            break
        with hostspeed.Sampler() as host:
            pass_s.append(workloads.run_pass(inp, tally, gates))
        pass_ref.append(host.normalized(pass_s[-1]))
        kernel_ms.append(host.kernel_ms())
        if sum(pass_s) + pass_s[-1] > args.seconds:
            break

    info = {"workload": args.workload, "seed": args.seed, "pass_s": pass_s}
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
        traced_gates = {}
        try:
            traced_s = workloads.run_pass(inp, tally, traced_gates)
        finally:
            tracer.restore()
        metrics = tracing.layer_metrics(tracer, traced_gates)
        metrics["cumulant.solve_p50_ms"] = percentile_ms(latencies, 50)
        metrics["cumulant.solve_p95_ms"] = percentile_ms(latencies, 95)
        metrics["trace.overhead_s"] = traced_s - pass_s[0]
        info.update(traced_pass_s=traced_s, spans=len(tracer.spans), solve_calls=len(latencies))
        units = {name: _layer_unit(name) for name in metrics}
    oracle = workloads.oracle_check(inp, tally)

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_ref": statistics.median(pass_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
            "cumulant_rel_err": oracle["cumulant_rel_err"],
            "v_inf_rel_err": oracle["v_inf_rel_err"],
        }
        units = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MiB", "ok_frac": "frac",
                 "cumulant_rel_err": "rel", "v_inf_rel_err": "rel"}
        info.update(setup_samples=setup_samples, wall_s=statistics.median(pass_s),
                    pass_ref=pass_ref, ref_kernel_ms=kernel_ms)

    steal1 = steal_ticks()
    info.update(
        attempted=tally.attempted, failures=tally.failures,
        inconclusive=sorted(set(tally.inconclusive)), gates=gates,
        v_infinity=oracle["v_infinity"], machine=machine(),
        steal_ticks=None if steal0 is None or steal1 is None else steal1 - steal0,
    )
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return info, result


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or ".scenario_s." in name:
        return "s"
    if "ns_per_" in name:
        return "ns"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_program()
    info, result = run(args)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
