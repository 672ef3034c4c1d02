"""nomalink benchmark: one workload per run, outputs checked, metrics printed.

    python3 benchmarks/run.py --workload mc-ref --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50

Run from a checkout of the repository; the package is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics with nothing installed in the package.  With ``--trace 1`` it
alternates untraced and traced iterations and reports the per-layer
metrics.  Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.  Every run also writes
``benchmarks/results/BENCH_<workload>_seed<n>_trace<t>.json`` with the
environment, every iteration and every Monte Carlo row (scenario, seed,
symbol count, error count, wall time); a traced run also writes all its
spans to ``SPANS_<workload>_seed<n>.tsv`` beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

# One process, one thread of our own: keep native libraries from starting
# thread pools beside the package's sweep pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

MIN_ITERATIONS = 3
SETUP_REPEATS = 5
POOL_REPEATS = 2
RNG_PROBE_S = 0.5

SETUP_SNIPPET = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def _import_package():
    """Import nomalink from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "nomalink" / "__init__.py").is_file():
        raise ImportError(f"no nomalink package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import nomalink
    if Path(nomalink.__file__).resolve().parent != (SRC / "nomalink").resolve():
        raise ImportError(f"nomalink was imported from {nomalink.__file__}, not {SRC}")
    return nomalink


def measure_setup(name: str, seed: int, workdir: str) -> list[float]:
    """Seconds for a fresh interpreter to import nomalink and build the
    workload's inputs; the first, which may compile bytecode, is dropped."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH_DIR), name,
           str(seed), workdir]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        samples.append(time.perf_counter() - start)
    return samples[1:]


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    q = 100.0 * (n - 10) / n
    ordered = sorted(samples)
    return q, ordered[n - 11]


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def rng_normals_per_s() -> float:
    """numpy's ``standard_normal`` rate in this process: the machine ceiling
    the simulator's rate is read against."""
    import numpy as np
    rng = np.random.default_rng(12345)
    n, draws = 100_000, 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < RNG_PROBE_S:
        rng.standard_normal(n)
        draws += n
    return draws / elapsed


def pool_speedup(workload, seed: int) -> tuple[float, int]:
    """``run_sweep`` time with one worker over its time with the default
    pool, on the workload's own spec; also counts rows that differ between
    the two (per-batch seeding makes them bit-identical)."""
    from nomalink import experiments

    spec = workload.spec(seed)
    serial, pooled, mismatched = [], [], 0
    for _ in range(POOL_REPEATS):
        t0 = time.perf_counter()
        one = experiments.run_sweep(spec, max_workers=1)
        t1 = time.perf_counter()
        many = experiments.run_sweep(spec)
        t2 = time.perf_counter()
        serial.append(t1 - t0)
        pooled.append(t2 - t1)
        mismatched += sum(a != b for a, b in zip(one.rows, many.rows, strict=True))
    return statistics.median(serial) / statistics.median(pooled), mismatched


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        setup = measure_setup(name, seed, workdir)
        refs = workloads.load_references()
        workload = workloads.build(name, seed, workdir)

        iterations = [workload.iterate(0, refs)]  # warm-up: checked, not timed
        timed, traced, traced_spans = [], [], []
        measured, index = 0.0, 1
        while (measured < seconds or len(timed) < MIN_ITERATIONS
               or (trace and len(traced) < MIN_ITERATIONS)):
            if trace and index % 2 == 0:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    it = workload.iterate(index, refs)
                traced.append(it)
                traced_spans.append((index, tracer.spans()))
            else:
                it = workload.iterate(index, refs)
                timed.append(it)
            iterations.append(it)
            measured += it.wall_s
            index += 1

        extra_attempted = extra_failed = 0
        per_layer = None
        if trace:
            per_layer = tracing.layer_metrics([tracing.summarize(s) for _, s in traced_spans])
            per_layer["simulator.rng.normals_per_s"] = rng_normals_per_s()
            speedup = 0.0
            if name == "sweep-snr":
                speedup, extra_failed = pool_speedup(workload, workloads.sim_seed(seed, index))
                extra_attempted = len(workload.expected)
            per_layer["experiments.run_sweep.pool_speedup"] = speedup
            per_layer["tracing.overhead_frac"] = (
                statistics.median(i.wall_s for i in traced)
                / statistics.median(i.wall_s for i in timed) - 1.0)
            tracing.write_spans(RESULTS / f"SPANS_{name}_seed{seed}.tsv", traced_spans)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [i.wall_s for i in timed]
    attempted = sum(i.attempted for i in iterations) + extra_attempted
    failed = sum(i.failed for i in iterations) + extra_failed
    rel_errs = [r * math.sqrt(i.wall_s) for i in timed if (r := i.rel_err()) is not None]
    report = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_percentile(walls),
        "wall_s_samples": len(walls),
        "msym_per_s": (statistics.median(i.symbols / i.wall_s / 1e6 for i in timed)
                       if timed[0].symbols else None),
        "rel_err_sqrt_s": statistics.median(rel_errs) if rel_errs else None,
        "evals_per_s": statistics.median(i.attempted / i.wall_s for i in timed),
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "setup_s_samples": setup,
        "report": report,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "iterations": [
            {"index": i.index, "seed": i.seed, "wall_s": i.wall_s,
             "traced": any(i is t for t in traced), "warm_up": i is iterations[0],
             "attempted": i.attempted, "failed": i.failed, "failures": i.failures[:20]}
            for i in iterations
        ],
        "mc_rows": [dict(asdict(r), iteration=i.index) for i in iterations for r in i.mc_rows],
    }


# Units of every metric.  ``--trace 0`` reports END_TO_END, ``--trace 1``
# reports PER_LAYER; REPORT is printed for reading and kept in the result
# file.  msym_per_s and rel_err_sqrt_s exist only where Monte Carlo runs,
# and failed_frac is 0 when all is well, so they are not END_TO_END: every
# reported end-to-end metric must exist, nonzero, on every workload.
END_TO_END = {"wall_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
REPORT = {"setup_s": "s", "wall_s": "s", "msym_per_s": "Msym/s", "rel_err_sqrt_s": "sqrt(s)",
          "evals_per_s": "1/s", "failed_frac": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    "simulator.simulate.noma.msym_per_s": "Msym/s",
    "simulator.simulate.cnoma.msym_per_s": "Msym/s",
    "simulator.simulate.cnoma-wdl.msym_per_s": "Msym/s",
    "simulator.simulate.calls": "count",
    "simulator.self_s": "s",
    "simulator.rng.normals_per_s": "1/s",
    "analytic.scheme_ber.noma.us_per_call": "us",
    "analytic.scheme_ber.cnoma.us_per_call": "us",
    "analytic.scheme_ber.cnoma-wdl.us_per_call": "us",
    "analytic.scheme_ber_floor.us_per_call": "us",
    "analytic.scheme_ber.calls": "count",
    "analytic.self_s": "s",
    "model.link_budget.calls": "count",
    "model.link_budget.us_per_call": "us",
    "model.config.us_per_call": "us",
    "model.self_s": "s",
    "experiments.run_sweep.s": "s",
    "experiments.run_sweep.pool_speedup": "ratio",
    "experiments.parse_config.us": "us",
    "experiments.emit_csv.us": "us",
    "experiments.self_s": "s",
    "cli.main.self_s": "s",
    "tracing.overhead_frac": "ratio",
}


def print_report(result: dict):
    r = result["report"]
    print(f"nomalink benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"{result['seconds']:g} s, trace {result['trace']}")
    print(f"  environment: {json.dumps(result['environment'])}")
    for metric, unit in REPORT.items():
        value = r[metric]
        if value is None:
            text = "n/a (no Monte Carlo row counted errors)"
        else:
            text = f"{value:.6g} {unit}"
        if metric == "wall_s":
            tail = r["wall_s_tail"]
            text += f"  median of n={r['wall_s_samples']}; " + (
                f"p{tail[0]:.0f} {tail[1]:.6g} s (10 samples beyond)" if tail
                else "no percentile has 10 samples beyond it")
        elif metric == "failed_frac":
            text += f"  ({result['failed']} of {result['attempted']} evaluations)"
        elif metric == "setup_s":
            text += f"  median of {len(result['setup_s_samples'])} fresh interpreters"
        print(f"  {metric:<16}{text}")
    if result["per_layer"]:
        for metric, unit in PER_LAYER.items():
            print(f"  {metric:<44}{result['per_layer'][metric]:.6g} {unit}")
    for it in result["iterations"]:
        for failure in it["failures"]:
            print(f"  FAILED iteration {it['index']}: {failure}")


def run_all(args) -> int:
    """Each workload in its own process, so memory peaks stay apart."""
    status = 0
    import workloads

    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, help="mc-ref, sweep-snr, closed-form or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}, expected one of {workloads.NAMES} or all")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.joinpath(f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result)
    if args.trace:
        metrics = {m: {"value": result["per_layer"][m], "unit": u} for m, u in PER_LAYER.items()}
    else:
        metrics = {m: {"value": result["report"][m], "unit": u} for m, u in END_TO_END.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
