"""Fast self-tests of the benchmark itself (not part of the package suite).

    python3 -m pytest benchmarks -q

Each workload runs at a tiny size; deliberately broken outputs must be
counted as failures; the span wrappers must reproduce exact call counts.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from nomalink import analytic, simulator  # noqa: E402
from nomalink.simulator import McResult  # noqa: E402

TINY_SYMBOLS = 20_000
STRIDE = 5  # closed-form grid: 3 hwi x 3 alpha1 x 5 snr points


@pytest.fixture(scope="module")
def refs():
    return w.load_references()


def tiny(name, tmp_path):
    if name == "mc-ref":
        return w.McRef(seed=3, n_symbols=TINY_SYMBOLS)
    if name == "sweep-snr":
        return w.SweepSnr(seed=3, workdir=tmp_path, symbols=TINY_SYMBOLS)
    return w.ClosedForm(seed=3, stride=STRIDE)


def closed_form_counts(workload):
    configs = len(workload.pairs) * len(workload.snr_order)
    return configs, len(workload.pairs)


@pytest.mark.parametrize("name", w.NAMES)
def test_tiny_workload_passes_its_checks(name, tmp_path, refs):
    workload = tiny(name, tmp_path)
    it = workload.iterate(1, refs)
    assert it.failures == []
    assert it.wall_s > 0
    expected = {"mc-ref": 6, "sweep-snr": 108}
    if name == "closed-form":
        configs, pairs = closed_form_counts(workload)
        assert it.attempted == 6 * (configs + pairs)
    else:
        assert it.attempted == expected[name]
        assert all(r.errors and r.z is not None for r in it.mc_rows)
        assert it.rel_err() > 0


def test_seed_fixes_inputs_and_never_reuses_the_reference_seed():
    assert w.ClosedForm(7).pairs == w.ClosedForm(7).pairs
    assert w.ClosedForm(7).pairs != w.ClosedForm(8).pairs
    seeds = {w.sim_seed(s, i) for s in range(-3, 50) for i in range(20)}
    assert len(seeds) == 53 * 20 and w.REFERENCE_SEED not in seeds


def test_perturbed_ber_is_a_failure(tmp_path, refs, monkeypatch):
    real = simulator.simulate

    def inflated(cfg, scheme, spec):
        r = real(cfg, scheme, spec)
        return McResult.from_counts(r.trials, int(r.errors_u1 * 1.5), r.errors_u2)

    monkeypatch.setattr(simulator, "simulate", inflated)
    it = tiny("mc-ref", tmp_path).iterate(1, refs)
    assert it.failed == 3
    assert all("u1" in f and "combined standard errors" in f for f in it.failures)


def test_zero_error_row_is_a_failure(refs):
    row = w.McRow(w.scenario_key(40.0), "cnoma-wdl", "u1", 1, 10_000, 0, 0.0, 0.0,
                  0.1, "iteration")
    w.check_mc_row(row, refs)
    assert "zero errors" in row.error


def test_injected_exception_in_sweep_is_a_failure(tmp_path, refs, monkeypatch):
    real = simulator.simulate

    def broken(cfg, scheme, spec):
        if scheme == "noma":
            raise RuntimeError("injected")
        return real(cfg, scheme, spec)

    monkeypatch.setattr(simulator, "simulate", broken)
    it = tiny("sweep-snr", tmp_path).iterate(1, refs)
    # the sweep keeps the rows, with NaN BER: 9 grid points x 2 users
    assert it.failed == 18
    assert it.attempted == 108


def test_injected_exception_and_perturbed_value_in_closed_form(refs, monkeypatch):
    real = analytic.scheme_ber

    def broken(cfg, scheme, user):
        if scheme == "cnoma":
            raise ValueError("injected")
        value = real(cfg, scheme, user)
        return value * (1 + 1e-6) if scheme == "noma" and user == "u2" else value

    monkeypatch.setattr(analytic, "scheme_ber", broken)
    workload = w.ClosedForm(seed=3, stride=STRIDE)
    it = workload.iterate(1, refs)
    configs, _ = closed_form_counts(workload)
    assert it.failed == 3 * configs
    assert sum("injected" in f for f in it.failures) == 2 * configs
    assert sum("!= reference" in f for f in it.failures) == configs


def test_span_counts_match_independent_counters(tmp_path, refs, monkeypatch):
    counted = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name, owner, attr, _ in tracing.TARGETS:
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

    closed = tiny("closed-form", tmp_path)
    for workload in (tiny("sweep-snr", tmp_path), closed):
        counted.clear()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            it = workload.iterate(1, refs)
        assert it.failures == []
        assert Counter(s.name for s in tracer.spans()) == counted

    # Closed-form structure: per scheme and both users, the number of
    # link_budget lookups is 2 x (1 noma + 2 cnoma + 5 cnoma-wdl).
    configs, pairs = closed_form_counts(closed)
    assert counted["analytic.scheme_ber"] == 6 * configs
    assert counted["analytic.scheme_ber_floor"] == 6 * pairs
    assert counted["model.link_budget"] == 16 * (configs + pairs)
    assert counted["model.config"] == configs + 2 * pairs


def test_pool_threads_nest_under_run_sweep(tmp_path, refs):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tiny("sweep-snr", tmp_path).iterate(1, refs)
    spans = tracer.spans()
    by_id = {s.id: s for s in spans}
    (main,) = [s for s in spans if s.name == "cli.main"]
    (sweep,) = [s for s in spans if s.name == "experiments.run_sweep"]
    assert main.parent == 0 and sweep.parent == main.id
    for s in spans:
        if s.name in ("simulator.simulate", "analytic.scheme_ber"):
            assert s.parent == sweep.id
        if s.name == "model.link_budget":
            assert by_id[s.parent].name in ("simulator.simulate", "analytic.scheme_ber")
    summary = tracing.summarize(spans)
    assert all(v >= 0 for v in summary["self"].values())
    assert summary["calls"][("simulator.simulate", "noma")] == 9
    # the wrappers are gone afterwards
    assert not hasattr(simulator.simulate, "__wrapped__")


def test_self_time_subtracts_the_union_of_overlapping_children():
    S = tracing.Span
    spans = [S(1, 0, "experiments.run_sweep", None, 0, 0.0, 10.0),
             S(2, 1, "simulator.simulate", "noma", 5, 1.0, 6.0),
             S(3, 1, "simulator.simulate", "noma", 5, 4.0, 8.0),
             S(4, 2, "model.link_budget", None, 0, 2.0, 3.0)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 4.0, 3: 4.0, 4: 1.0})
    metrics = tracing.layer_metrics([tracing.summarize(spans)] * 2)
    assert metrics["simulator.simulate.noma.msym_per_s"] == pytest.approx(10 / 9 / 1e6)
    assert metrics["simulator.self_s"] == pytest.approx(8.0)
    assert metrics["model.link_budget.us_per_call"] == pytest.approx(1e6)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    q, value = run.tail_percentile([float(i) for i in range(40)])
    assert q == 75.0 and value == 29.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [x["name"] for x in spec["workloads"]] == [n for n in w.NAMES if n != "mc-ref"]
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} == run.END_TO_END
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == run.PER_LAYER
    setup = [x for x in spec["end_to_end"] if x["name"] == "setup_s"][0]
    assert setup["bound"] == max(x["bound"] for x in spec["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "mc-ref",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "nomalink" in proc.stderr
