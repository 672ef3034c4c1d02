"""Sweep plumbing: grid evaluation, CSV rendering, config parsing, CLI."""

import dataclasses
import hashlib
import math
import os
import re
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from nomalink import analytic, cli, experiments, simulator
from nomalink.experiments import (
    CSV_HEADER,
    SWEEPS,
    ConfigError,
    SweepSpec,
    emit_csv,
    parse_config,
    run_sweep,
)
from nomalink.model import SystemConfig
from nomalink.simulator import SimSpec

FAST_SIM = SimSpec(n_symbols=10_000, seed=9)


def analytic_spec(grid=(0.0, 10.0), schemes=("noma",)):
    return SweepSpec(swept_parameter="snr_db", grid=grid, schemes=schemes,
                     methods=("analytic",))


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(swept_parameter="power", grid=(1.0,))
    with pytest.raises(ValueError):
        SweepSpec(swept_parameter="snr_db", grid=())
    with pytest.raises(ValueError):
        SweepSpec(swept_parameter="snr_db", grid=(0.0, 0.0))
    with pytest.raises(ValueError):
        SweepSpec(swept_parameter="snr_db", grid=(10.0, 0.0))
    for bad in ("xnoma", None, 1):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            SweepSpec(swept_parameter="snr_db", grid=(0.0,), schemes=("noma", bad))
    for bad in ((), None, 1):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            SweepSpec(swept_parameter="snr_db", grid=(0.0,), schemes=bad)
    # a bare string is one name, not a sequence of letters
    assert SweepSpec(swept_parameter="snr_db", grid=(0.0,), schemes="NOMA").schemes == ("noma",)
    with pytest.raises(ValueError):
        SweepSpec(swept_parameter="snr_db", grid=(0.0,), methods=())
    # a repeated entry, also one that differs only in case, would repeat rows
    with pytest.raises(ValueError, match="schemes must not repeat"):
        SweepSpec(swept_parameter="snr_db", grid=(0.0,), schemes=("noma", "NOMA"))
    with pytest.raises(ValueError, match="methods must not repeat"):
        SweepSpec(swept_parameter="snr_db", grid=(0.0,),
                  methods=("analytic", "monte-carlo", "analytic"))
    # every grid point must map to a constructible scenario
    with pytest.raises(ValueError):
        SweepSpec(swept_parameter="alpha1", grid=(0.6, 1.2))


def test_spec_refuses_a_sim_or_base_of_another_type():
    for bad in (200_000, None, {"n_symbols": 200_000}, SystemConfig()):
        with pytest.raises(ValueError, match=re.escape(f"sim must be a SimSpec, got {bad!r}")):
            SweepSpec("snr_db", (0.0,), sim=bad)
    for bad in (None, 20.0, SimSpec()):
        with pytest.raises(ValueError,
                           match=re.escape(f"base must be a SystemConfig, got {bad!r}")):
            SweepSpec("snr_db", (0.0,), base=bad)


def test_grid_point_scenarios():
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0, 20.0))
    cfg = spec.config_at(20.0)
    assert cfg.P_s == pytest.approx(100.0) and cfg.P_r == pytest.approx(100.0)
    spec = SweepSpec(swept_parameter="hwi_k", grid=(0.0, 0.1))
    assert all(spec.config_at(0.1).hwi(link) == 0.1 for link in ("s1", "s2", "sr", "r1", "r2"))
    spec = SweepSpec(swept_parameter="alpha1", grid=(0.6,))
    cfg = spec.config_at(0.6)
    assert cfg.alpha1 == 0.6 and cfg.alpha2 == pytest.approx(0.4)


def test_rows_come_out_in_deterministic_order():
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0, 10.0), sim=FAST_SIM)
    rows = run_sweep(spec).rows
    assert len(rows) == 2 * 3 * 2 * 2
    keys = [(r.value, r.scheme, r.user, r.method) for r in rows]
    expect = [(v, s, u, m)
              for v in (0.0, 10.0)
              for s in ("noma", "cnoma", "cnoma-wdl")
              for u in ("u1", "u2")
              for m in ("analytic", "monte-carlo")]
    assert keys == expect
    for row in rows:
        if row.method == "analytic":
            assert row.std_err is None
        else:
            assert row.std_err is not None and row.std_err > 0
        assert row.error is None
        assert 0.0 <= row.ber <= 1.0


def test_reference_sweep_cardinality():
    spec = SweepSpec(swept_parameter="snr_db", grid=SWEEPS["snr_db"].grid, sim=FAST_SIM)
    result = run_sweep(spec)
    assert len(result.rows) == 9 * 3 * 2 * 2 == 108


def test_analytic_failure_is_recorded_not_raised(monkeypatch):
    def boom(cfg, scheme, user):
        raise ValueError("synthetic analytic failure")
    monkeypatch.setattr(experiments.analytic, "scheme_ber", boom)
    rows = run_sweep(analytic_spec()).rows
    assert len(rows) == 4
    for row in rows:
        assert math.isnan(row.ber)
        assert "synthetic analytic failure" in row.error


def test_simulation_failure_is_recorded_not_raised(monkeypatch):
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0,), schemes=("noma",), sim=FAST_SIM)
    # an exception without a message is recorded by its type's name
    for exc, message in ((RuntimeError("synthetic simulation failure"),
                          "synthetic simulation failure"), (RuntimeError(), "RuntimeError")):
        def boom(cfg, scheme, spec, exc=exc):
            raise exc
        monkeypatch.setattr(experiments.simulator, "simulate", boom)
        rows = run_sweep(spec).rows
        by_method = {r.method: r for r in rows if r.user == "u1"}
        assert by_method["analytic"].error is None
        assert math.isnan(by_method["monte-carlo"].ber)
        assert by_method["monte-carlo"].error == message


def test_points_past_the_float32_span_record_the_refusal_and_spare_the_rest():
    """The simulator refuses a scenario past its float32 span; a sweep whose
    grid crosses it records the message on those points alone, and every
    other row is that of a sweep without them."""
    crossing = SweepSpec(swept_parameter="snr_db", grid=(0.0, 300.0, 390.0, 1000.0),
                         sim=FAST_SIM)
    rows = run_sweep(crossing).rows
    within = run_sweep(SweepSpec(swept_parameter="snr_db", grid=(0.0, 300.0), sim=FAST_SIM)).rows
    assert [r for r in rows if r.value <= 300.0] == list(within)
    past = [r for r in rows if r.value > 300.0 and r.method == "monte-carlo"]
    assert len(past) == 2 * 3 * 2
    for row in past:
        assert math.isnan(row.ber) and row.std_err is None
        assert re.fullmatch(r"link (s1|sr) is out of the simulator's float32 span "
                            r"\[1e-32, 1e\+32\] \(\+-320 dB\): P = 1e\+(39|100), .*",
                            row.error), row.error
    assert not [r for r in rows if r.method == "analytic" and r.error]


def test_points_past_the_double_range_record_the_sinr_refusal():
    """At 3080 dB (P = 1e308) every closed form's SINR leaves the float
    range; those points record the refusal and the rest are unchanged."""
    analytic_only = {"swept_parameter": "snr_db", "methods": ("analytic",)}
    rows = run_sweep(SweepSpec(grid=(0.0, 3080.0), **analytic_only)).rows
    assert rows[:6] == run_sweep(SweepSpec(grid=(0.0,), **analytic_only)).rows
    assert len(rows) == 12
    for row in rows[6:]:
        link = "sr" if row.scheme == "cnoma" else "s" + row.user[1]
        assert math.isnan(row.ber) and row.error == (
            f"the mean SINR of link {link} leaves the float range at P=1e+308 and k=0.175")


@pytest.mark.parametrize("swept, grid", [
    ("snr_db", (0.0, 20.0, 40.0)),
    ("hwi_k", (0.0, 0.1, 0.2)),
    ("alpha1", (0.6, 0.75, 0.9)),
])
def test_sweep_shares_each_batch_yet_every_point_equals_simulate(swept, grid):
    """A sweep draws each batch once for all its grid points and schemes; a
    point's counts must still be those of its own ``simulate`` call, over
    two full batches and a remainder, whatever the pool size."""
    sim = SimSpec(n_symbols=250_000, seed=5)
    assert sim.n_batches == 3
    spec = SweepSpec(swept_parameter=swept, grid=grid, sim=sim)
    rows = run_sweep(spec).rows
    for row in rows:
        if row.method == "monte-carlo":
            mc = simulator.simulate(spec.config_at(row.value), row.scheme, spec.sim)
            assert (row.ber, row.std_err) == (mc.ber(row.user), mc.std_err(row.user)), row
    assert run_sweep(spec, max_workers=1).rows == rows


def test_method_table_is_the_one_place_that_names_a_method(monkeypatch, capsys):
    def fake(spec, configs, pool):
        return {(point, scheme, user): (point / 8, 0.01) if user == "u1" else "no u2"
                for point in range(len(configs)) for scheme in spec.schemes
                for user in ("u1", "u2")}

    monkeypatch.setitem(experiments.METHODS, "fake", fake)
    assert SweepSpec("snr_db", (0.0,), methods=("analytic", "fake")).methods == \
        ("analytic", "fake")
    assert parse_config("methods = analytic, fake").methods == ("analytic", "fake")
    with pytest.raises(SystemExit):
        cli.main(["sweep-snr", "--help"])
    assert "subset of: analytic, monte-carlo, fake" in " ".join(capsys.readouterr().out.split())
    spec = SweepSpec("snr_db", (0.0, 10.0), schemes=("noma", "cnoma"), sim=FAST_SIM,
                     methods=("analytic", "monte-carlo", "fake"))
    result = run_sweep(spec)
    assert [(r.value, r.scheme, r.user, r.method) for r in result.rows] == [
        (v, s, u, m) for v in (0.0, 10.0) for s in ("noma", "cnoma") for u in ("u1", "u2")
        for m in ("analytic", "monte-carlo", "fake")]
    for row in result.rows:
        if row.method == "fake" and row.user == "u1":
            point = spec.grid.index(row.value)
            assert (row.ber, row.std_err, row.error) == (point / 8, 0.01, None)
        elif row.method == "fake":
            assert math.isnan(row.ber) and (row.std_err, row.error) == (None, "no u2")
    paired = run_sweep(SweepSpec("snr_db", (0.0, 10.0), schemes=("noma", "cnoma"),
                                 sim=FAST_SIM, methods=("analytic", "monte-carlo")))
    assert experiments.compare(result, 1e-4) == experiments.compare(paired, 1e-4)


@pytest.mark.parametrize("workers", [0, -1, True, False, 2.5, 2.0, "2"])
def test_sweep_pool_size_must_be_a_positive_integer(workers, monkeypatch):
    def never(**kwargs):
        raise AssertionError("the pool started")

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", never)
    with pytest.raises(ValueError, match=re.escape(
            f"max_workers must be a positive integer, got {workers!r}")):
        run_sweep(analytic_spec(), max_workers=workers)


def test_sweep_pool_defaults_to_the_usable_cores(monkeypatch):
    sizes = []
    real = experiments.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", recording)
    run_sweep(analytic_spec())
    run_sweep(analytic_spec(), max_workers=3)
    assert sizes == [experiments._cores(), 3]
    if hasattr(os, "sched_getaffinity"):
        assert experiments._cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert experiments._cores() == (os.cpu_count() or 1)


def test_failed_draw_is_recorded_on_every_scheme_it_was_drawn_for(monkeypatch):
    """A batch index is drawn once for every requested scheme, so the batch
    carries them all and a failed draw lands on the monte-carlo rows of
    every one; the analytic rows stay clean."""
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0, 10.0),
                     sim=SimSpec(n_symbols=150_000, seed=4))
    clean = run_sweep(spec).rows
    real = SimSpec.draw

    def draw(self, cfg, schemes, index):
        if index == 1:
            raise RuntimeError("synthetic draw failure")
        return real(self, cfg, schemes, index)

    monkeypatch.setattr(SimSpec, "draw", draw)
    rows = run_sweep(spec).rows
    assert len(rows) == len(clean) == 2 * 3 * 2 * 2
    for row, before in zip(rows, clean):
        if row.method == "monte-carlo":
            assert math.isnan(row.ber) and row.std_err is None
            assert row.error == "synthetic draw failure"
        else:
            assert row == before


def test_the_first_error_by_batch_index_wins_whatever_fails_first(monkeypatch):
    """Batches 1 and 2 both fail, and batch 2 fails first: batch 1 waits
    until it has.  A point keeps the first error by batch index, not by
    time, so every monte-carlo row carries batch 1's message; the analytic
    rows stay clean."""
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0, 10.0),
                     sim=SimSpec(n_symbols=250_000, seed=4))
    assert spec.sim.n_batches == 3
    clean = run_sweep(dataclasses.replace(spec, methods=("analytic",))).rows
    real, failed, batch_2_failed = SimSpec.draw, [], threading.Event()

    def draw(self, cfg, schemes, index):
        if index == 1:
            batch_2_failed.wait(timeout=10.0)
        if index in (1, 2):
            failed.append(index)
            batch_2_failed.set()
            raise RuntimeError(f"draw {index} failed")
        return real(self, cfg, schemes, index)

    monkeypatch.setattr(SimSpec, "draw", draw)
    rows = run_sweep(spec, max_workers=2).rows
    assert failed == [2, 1]
    assert len(rows) == 2 * 3 * 2 * 2
    for row in rows:
        if row.method == "monte-carlo":
            assert math.isnan(row.ber) and row.std_err is None
            assert row.error == "draw 1 failed"
    assert [row for row in rows if row.method == "analytic"] == list(clean)


def test_failed_draw_is_recorded_on_its_scheme_alone(monkeypatch):
    """Every scheme reads the one batch drawn at an index, so what can fail
    for one scheme alone is its simulation on that batch: the failure lands
    on that scheme's monte-carlo rows and no other row moves."""
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0, 10.0),
                     sim=SimSpec(n_symbols=150_000, seed=4))
    assert spec.sim.n_batches == 2
    clean = run_sweep(spec).rows
    real = simulator.simulate

    def simulate(cfg, scheme, batch, **kwargs):
        if scheme == "cnoma" and batch.n_symbols == 50_000:  # batch index 1
            raise RuntimeError("synthetic simulation failure")
        return real(cfg, scheme, batch, **kwargs)

    monkeypatch.setattr(experiments.simulator, "simulate", simulate)
    rows = run_sweep(spec).rows
    assert len(rows) == len(clean) == 2 * 3 * 2 * 2
    for row, before in zip(rows, clean):
        if row.scheme == "cnoma" and row.method == "monte-carlo":
            assert math.isnan(row.ber) and row.std_err is None
            assert row.error == "synthetic simulation failure"
        else:
            assert row == before


def test_a_sweep_receives_each_link_once_per_batch_and_point(monkeypatch):
    """The schemes of a sweep share one reception per batch and grid point,
    so its five links (s1, s2, sr, r1, r2) are each received once there,
    not once per scheme that hears them."""
    sim = SimSpec(n_symbols=150_000, seed=4)
    received = []
    real = simulator._receive

    def receive(cfg, link, *rows):
        received.append(link)
        return real(cfg, link, *rows)

    monkeypatch.setattr(simulator, "_receive", receive)
    spec = SweepSpec("snr_db", (0.0, 10.0, 20.0), methods=("monte-carlo",), sim=sim)
    run_sweep(spec)
    batches_and_points = sim.n_batches * len(spec.grid)
    assert len(received) == 5 * batches_and_points
    assert sorted(received) == sorted(["s1", "s2", "sr", "r1", "r2"] * batches_and_points)


def test_a_sweep_task_holds_one_points_reception_at_a_time():
    """A sweep task hears its batch at one grid point at a time and drops
    that reception before the next, so four points peak no higher than
    one; holding every point's reception would add three receptions'
    rows."""
    sim = SimSpec(n_symbols=100_000, seed=2)
    configs = [SystemConfig.defaults(snr_db=v) for v in (0.0, 10.0, 20.0, 30.0)]

    def peak(points):
        tracemalloc.start()
        try:
            experiments._simulate_batch(sim, configs[:points], analytic.SCHEMES, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    reception = sim.draw(configs[0], analytic.SCHEMES, 0).at(configs[0])
    held = [*reception.hop("s"), *reception.hop("r"), *reception.relay(), reception._tx()]
    reception_bytes = sum(row.nbytes for row in held)
    peak(1)  # warm up
    one, four = peak(1), peak(4)
    assert four <= one + 0.5 * reception_bytes, (one, four, reception_bytes)


@pytest.mark.parametrize("schemes", [
    analytic.SCHEMES, ("cnoma-wdl", "noma"), ("noma", "cnoma"), ("cnoma",),
])
def test_sweep_draws_each_batch_index_once(schemes, monkeypatch):
    sim = SimSpec(n_symbols=150_000, seed=4)
    drawn = []
    real = SimSpec.draw

    def draw(self, cfg, schemes, index):
        drawn.append((schemes, index))
        return real(self, cfg, schemes, index)

    monkeypatch.setattr(SimSpec, "draw", draw)
    run_sweep(SweepSpec("snr_db", (0.0, 10.0), schemes=schemes, methods=("monte-carlo",),
                        sim=sim))
    assert sorted(drawn) == [(schemes, index) for index in range(sim.n_batches)]


@pytest.mark.parametrize("scheme", analytic.SCHEMES)
def test_rows_of_a_scheme_do_not_depend_on_the_schemes_beside_it(scheme):
    sim = SimSpec(n_symbols=150_000, seed=6)
    one, other = (s for s in analytic.SCHEMES if s != scheme)
    rows = [[r for r in run_sweep(SweepSpec("alpha1", (0.6, 0.8), schemes=schemes,
                                            sim=sim)).rows if r.scheme == scheme]
            for schemes in ((scheme,), (scheme, one), (other, scheme), (one, other, scheme))]
    assert all(r == rows[0] for r in rows[1:])
    assert len(rows[0]) == 2 * 2 * 2


def test_csv_single_row():
    spec = SweepSpec(swept_parameter="snr_db", grid=(10.0,), schemes=("noma",),
                     methods=("analytic",))
    result = run_sweep(spec)
    # keep only the far user to get a genuinely single-row table
    result = experiments.SweepResult(spec=spec, rows=result.rows[:1])
    text = emit_csv(result)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER == "swept_param,value,scheme,user,method,ber,std_err"
    fields = lines[1].split(",")
    assert fields[:5] == ["snr_db", "10.0", "noma", "u1", "analytic"]
    assert float(fields[5]) == result.rows[0].ber  # repr round-trips exactly
    assert fields[6] == ""
    assert text.endswith("\n")


def test_csv_is_byte_identical_across_runs():
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0, 10.0), schemes=("noma",),
                     sim=FAST_SIM)
    first = emit_csv(run_sweep(spec))
    second = emit_csv(run_sweep(spec))
    assert first == second
    mc_fields = [line.split(",") for line in first.splitlines()[1:]
                 if line.split(",")[4] == "monte-carlo"]
    for fields in mc_fields:
        assert float(fields[5]) >= 0.0 and float(fields[6]) > 0.0


#: SHA-256 of ``emit_csv`` for a sweep of each parameter over its default
#: grid around the reference 20 dB scenario: every scheme, both methods,
#: 20000 symbols, seed 3.  Any change to the random stream, the detection
#: chain, the closed forms or the CSV rendering moves them.
_CSV_SHA256 = {
    "snr_db": "dec432dd4866ce03fb9de0f1658af8e15a26268d18792d10247e03992aaa1f42",
    "hwi_k": "6fcd2e6e5eb3673ac75ae324540757c42c9ffb9e31269a7d316fb3feb4dc3439",
    "alpha1": "ef67a96119e874fb028006c633d9ba5534d6f4716f876ef7a31ed86f3f333450",
}


@pytest.mark.parametrize("swept", sorted(_CSV_SHA256))
def test_sweep_csv_is_pinned(swept):
    spec = SweepSpec(swept_parameter=swept, grid=SWEEPS[swept].grid,
                     base=SystemConfig.defaults(snr_db=20.0),
                     sim=SimSpec(n_symbols=20_000, seed=3))
    csv = emit_csv(run_sweep(spec))
    assert hashlib.sha256(csv.encode()).hexdigest() == _CSV_SHA256[swept]


def test_parse_config_empty_gives_reference_sweep():
    spec = parse_config("")
    assert spec.swept_parameter == "snr_db"
    assert spec.grid == SWEEPS["snr_db"].grid
    assert spec.schemes == ("noma", "cnoma", "cnoma-wdl")
    assert spec.methods == ("analytic", "monte-carlo")
    assert spec.sim.n_symbols == 1_000_000 and spec.sim.seed == 1
    base = spec.base
    assert (base.d_s1, base.d_s2, base.d_sr, base.d_r1, base.d_r2) == (4, 2, 1, 3, 1)
    assert base.alpha1 == 0.8 and base.sigma_eps_sq == 0.005
    assert all(base.hwi(link) == 0.175 for link in ("s1", "s2", "sr", "r1", "r2"))


def test_parse_config_full_file():
    text = """
    # sweep description
    sweep = hwi_k
    grid = 0.0, 0.1, 0.2   # three points
    schemes = noma, cnoma
    methods = mc
    symbols = 20000
    seed = 7
    snr_db = 10
    alpha1 = 0.7
    sigma_eps_sq = 0.002
    d_s1 = 5
    """
    spec = parse_config(text)
    assert spec.swept_parameter == "hwi_k"
    assert spec.grid == (0.0, 0.1, 0.2)
    assert spec.schemes == ("noma", "cnoma")
    assert spec.methods == ("monte-carlo",)
    assert spec.sim == SimSpec(n_symbols=20_000, seed=7)
    assert spec.base.P_s == pytest.approx(10.0)
    assert spec.base.alpha1 == 0.7 and spec.base.alpha2 == pytest.approx(0.3)
    assert spec.base.sigma_eps_sq == 0.002
    assert spec.base.d_s1 == 5.0


def test_parse_config_hardware_level_reaches_all_links():
    spec = parse_config("hwi_k = 0.05")
    assert all(spec.base.hwi(link) == 0.05 for link in ("s1", "s2", "sr", "r1", "r2"))


def test_parse_config_operating_point_defaults():
    # an unspecified operating SNR depends on what is being swept: hardware
    # sweeps sit in the floor region, power-split sweeps at the mid-SNR bench
    assert parse_config("", default_sweep="hwi_k").base.P_s == pytest.approx(1e4)
    assert parse_config("sweep = hwi_k").base.P_s == pytest.approx(1e4)
    assert parse_config("sweep = alpha1").base.P_s == pytest.approx(100.0)
    assert parse_config("sweep = alpha1\nsnr_db = 10").base.P_s == pytest.approx(10.0)
    # the sweep key is a name like schemes and methods: any case
    assert parse_config("sweep = HWI_K").swept_parameter == "hwi_k"


@pytest.mark.parametrize("text,fragment", [
    ("flux = 3", "line 1"),
    ("batch_size = 5000", "unknown key"),
    ("symbols 20000", "expected 'key = value'"),
    ("seed = 1\nseed = 2", "line 2: duplicate"),
    ("grid = 1, two, 3", "invalid number"),
    ("symbols = 1e4", "invalid integer"),
    ("sweep = power", "unknown sweep 'power'"),
    ("schemes = noma, pdma", "unknown scheme"),
    # the mc alias is a method's alone, and the message quotes the text as written
    ("schemes = mc", "unknown scheme 'mc'"),
    ("methods = quadrature", "unknown method"),
    ("schemes = noma,,cnoma", "line 1: empty entry in scheme list"),
    ("methods = analytic,", "empty entry in method list"),
    ("seed = 1\ngrid = 0, , 10", "line 2: empty entry in grid list"),
    ("grid = 0, 10,", "line 1: empty entry in grid list"),
    # the swept parameter's own key would be overwritten by every grid point
    ("snr_db = 10\ngrid = 0, 20", "key 'snr_db' sets the swept parameter"),
    ("sweep = hwi_k\nhwi_k = 0.3", "list its values in 'grid' instead"),
    ("sweep = alpha1\nalpha1 = 0.7", "key 'alpha1' sets the swept parameter"),
    ("methods = mc, monte-carlo", "methods must not repeat an entry"),
    ("schemes = noma, NOMA", "schemes must not repeat an entry"),
])
def test_parse_config_diagnostics(text, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(text)


def test_parse_config_rejects_the_default_sweeps_own_key():
    with pytest.raises(ConfigError, match="key 'hwi_k' sets the swept parameter"):
        parse_config("hwi_k = 0.1", default_sweep="hwi_k")


def test_parse_config_invariant_violation_names_the_key():
    with pytest.raises(ConfigError, match="alpha1"):
        parse_config("alpha1 = 1.2")
    with pytest.raises(ConfigError, match="n_symbols"):
        parse_config("symbols = 100")


@pytest.mark.parametrize("key,bad,good", [
    ("schemes", "noma, pdma", "cnoma"),
    ("methods", "analytic,", "mc"),
    ("symbols", "1e4", "50000"),
    ("seed", "seven", "4"),
])
def test_flags_and_file_lines_share_one_parser(key, bad, good, tmp_path, capsys):
    """A flag is its config key: the same bad text gives the same message
    (the file's after its line number), and a good flag overrides the file."""
    with pytest.raises(ConfigError) as from_file:
        parse_config(f"grid = 3, 7\n{key} = {bad}")
    assert str(from_file.value).startswith("line 2: ")
    message = str(from_file.value).removeprefix("line 2: ")
    assert cli.main(["sweep-snr", "--methods", "analytic", f"--{key}", bad]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"

    file_value = {"schemes": "noma", "methods": "analytic", "symbols": "20000",
                  "seed": "2"}[key]
    spec = parse_config(f"grid = 3, 7\n{key} = {file_value}", flags={key: good})
    assert spec == parse_config(f"grid = 3, 7\n{key} = {good}")
    assert spec != parse_config(f"grid = 3, 7\n{key} = {file_value}")
    assert parse_config(f"{key} = {file_value}", flags={key: None}) == \
        parse_config(f"{key} = {file_value}")


# -- command line --------------------------------------------------------------


def test_cli_snr_sweep_to_file(tmp_path):
    out = tmp_path / "snr.csv"
    code = cli.main(["sweep-snr", "--methods", "analytic", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 9 * 3 * 2
    assert {line.split(",")[0] for line in lines[1:]} == {"snr_db"}


@pytest.mark.parametrize("text", [b"schemes = noma\nsymbols = 10000\n",
                                  b"\xef\xbb\xbfschemes = noma\r\nsymbols = 10000\r\n"],
                         ids=["plain", "bom-crlf"])
def test_cli_subcommand_picks_the_swept_parameter(text, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_bytes(text)
    out = tmp_path / "hwi.csv"
    code = cli.main(["sweep-hwi", "--config", str(cfg), "--methods", "analytic",
                     "--out", str(out)])
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert sorted(set(values)) == list(SWEEPS["hwi_k"].grid)


def test_default_hwi_grid_holds_the_reference_level(capsys):
    assert 0.175 in SWEEPS["hwi_k"].grid
    assert cli.main(["sweep-hwi", "--methods", "analytic", "--schemes", "noma"]) == 0
    values = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert sorted(set(values), key=float) == ["0.0", "0.025", "0.05", "0.075", "0.1",
                                              "0.125", "0.15", "0.175", "0.2"]


def test_cli_pa_sweep_stdout(capsys):
    code = cli.main(["sweep-pa", "--methods", "analytic", "--schemes", "noma"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 9 * 2
    assert all(line.split(",")[0] == "alpha1" for line in lines[1:])


def test_cli_monte_carlo_flags_reach_the_simulator(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid = 0, 10\nschemes = noma\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep-snr", "--config", str(cfg), "--methods", "mc",
            "--symbols", "10000", "--seed", "9"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_warns_that_closed_forms_ignore_the_monte_carlo_flags(capsys):
    args = ["sweep-snr", "--methods", "analytic", "--schemes", "noma"]
    assert cli.main(args) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert cli.main(args + ["--symbols", "20000", "--seed", "5"]) == 0
    flagged = capsys.readouterr()
    assert flagged.out == plain.out
    assert flagged.err == ("warning: symbols and seed only apply to monte-carlo, "
                           "which methods leaves out; ignored\n")
    assert cli.main(["sweep-snr", "--methods", "mc", "--schemes", "noma", "--symbols",
                     "10000", "--seed", "5", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_cli_warns_that_closed_forms_ignore_the_monte_carlo_keys(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("methods = analytic\nschemes = noma\nseed = 5\n")
    assert cli.main(["sweep-pa", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_HEADER + "\n")
    assert captured.err == ("warning: seed only applies to monte-carlo, "
                            "which methods leaves out; ignored\n")
    with pytest.warns(experiments.ConfigWarning, match="^symbols only applies"):
        parse_config("symbols = 20000", flags={"methods": "analytic"})
    # a flag restoring monte-carlo silences it
    cfg.write_text("methods = analytic\nsymbols = 10000\n")
    assert cli.main(["sweep-pa", "--config", str(cfg), "--methods", "mc", "--schemes",
                     "noma", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_cli_rejects_bad_inputs(tmp_path, capsys):
    assert cli.main(["sweep-snr", "--config", str(tmp_path / "absent.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("flux = 3\n")
    assert cli.main(["sweep-snr", "--config", str(bad)]) == 2
    assert cli.main(["sweep-snr", "--methods", "quadrature"]) == 2
    assert cli.main(["validate", "--schemes", "noma,"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def never(spec, *args, **kwargs):
        raise AssertionError("run_sweep ran although --out cannot be opened")

    monkeypatch.setattr(experiments, "run_sweep", never)
    code = cli.main(["sweep-snr", "--methods", "mc", "--symbols", "200000",
                     "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("command", [["sweep-snr", "--methods", "mc"],
                                     ["sweep-snr", "--methods", "analytic"], ["validate"]],
                         ids=" ".join)
@pytest.mark.parametrize("symbols", ["99999999999999999999999", "10000000000000000000000000"])
def test_cli_refuses_a_symbol_count_past_the_bound(command, symbols, capsys, monkeypatch):
    """A symbol count too large to lay out as batches exits 2 with one
    ``error:`` line naming the bound, whatever the methods, before any
    sweep starts."""
    def never(spec, *args, **kwargs):
        raise AssertionError("run_sweep ran on a refused symbol count")

    monkeypatch.setattr(experiments, "run_sweep", never)
    assert cli.main([*command, "--symbols", symbols]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: n_symbols must be at most {simulator._MAX_SYMBOLS}, "
                            f"got {symbols}\n")


@pytest.mark.parametrize("command", ["sweep-snr", "validate"])
@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--symbols", "100"],
                                   ["--symbols", "0"]])
def test_cli_bad_numbers_exit_2_with_one_error_line(command, flags, capsys):
    assert cli.main([command, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("command,text,message", [
    ("sweep-hwi", "sweep = hwi_k\ngrid = nan\n", "k_s1 must be finite, got nan"),
    ("sweep-snr", "grid = 0, 4000\n", "P_s must be finite, got inf"),
    ("sweep-pa", "sweep = alpha1\nsnr_db = inf\n", "P_s must be finite, got inf"),
    # an SNR of -inf would mean zero power, which SystemConfig accepts
    ("sweep-snr", "grid = -inf, 0\n", "snr_db must give a positive power, got -inf"),
    ("sweep-hwi", "sweep = hwi_k\nsnr_db = -inf\n",
     "snr_db must give a positive power, got -inf"),
    # a path loss past the float range is refused by the link, not a traceback
    ("sweep-snr", "d_s1 = 1e-200\n",
     "d_s1 = 1e-200 with a = 2.0 gives a channel variance d ** -a past the float range"),
])
def test_cli_rejects_non_finite_scenario_with_one_error_line(command, text, message,
                                                             tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main([command, "--config", str(cfg), "--methods", "analytic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("flag", ["--config", "--out", "--methods"])
def test_validate_rejects_sweep_only_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", flag, "x"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_rejects_config_sweeping_another_parameter(tmp_path, capsys):
    cfg = tmp_path / "hwi.cfg"
    cfg.write_text("sweep = hwi_k\ngrid = 0, 0.1\n")
    assert cli.main(["sweep-snr", "--config", str(cfg), "--methods", "analytic"]) == 2
    assert "sweeps hwi_k but sweep-snr sweeps snr_db" in capsys.readouterr().err
    assert cli.main(["sweep-hwi", "--config", str(cfg), "--methods", "analytic",
                     "--out", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("command,text,flags,message", [
    ("sweep-snr", "snr_db = 10\ngrid = 0, 20\n", ["--methods", "analytic"],
     "key 'snr_db' sets the swept parameter; list its values in 'grid' instead"),
    ("sweep-snr", None, ["--methods", "analytic,mc,MONTE-CARLO"],
     "methods must not repeat an entry, got ('analytic', 'monte-carlo', 'monte-carlo')"),
    ("validate", None, ["--schemes", "noma,noma", "--symbols", "10000"],
     "schemes must not repeat an entry, got ('noma', 'noma')"),
    ("sweep-snr", b"\xff\xfe grid = 0\n", [],
     "a.cfg is not UTF-8 text (invalid start byte at byte 0)"),
])
def test_cli_rejects_swept_key_and_repeated_entries(command, text, flags, message,
                                                    tmp_path, capsys, monkeypatch):
    if text is not None:
        monkeypatch.chdir(tmp_path)  # so that a message naming the file is fixed
        Path("a.cfg").write_bytes(text if isinstance(text, bytes) else text.encode())
        flags = ["--config", "a.cfg", *flags]
    assert cli.main([command, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def _row(value, method, ber, std_err=None, error=None, scheme="noma", user="u1"):
    return experiments.SweepRow("snr_db", value, scheme, user, method, ber, std_err, error)


def test_compare_pairs_rows_and_flags_failures():
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0, 10.0, 20.0, 30.0, 40.0),
                     schemes=("noma",), sim=FAST_SIM)
    rows = (
        # zero std_err: +-inf when the values differ, 0 when they agree
        _row(0.0, "analytic", 0.1), _row(0.0, "monte-carlo", 0.0, 0.0),
        _row(0.0, "analytic", 0.2, user="u2"), _row(0.0, "monte-carlo", 0.2, 0.0, user="u2"),
        # a failed evaluation is checked and not ok, on either side
        _row(10.0, "analytic", math.nan, error="boom"), _row(10.0, "monte-carlo", 0.1, 0.01),
        _row(10.0, "analytic", 0.1, user="u2"),
        _row(10.0, "monte-carlo", math.nan, error="boom", user="u2"),
        # below the threshold: skipped, ok even far off
        _row(20.0, "analytic", 1e-5), _row(20.0, "monte-carlo", 1e-3, 1e-4),
        # signed distance: mc below the closed form is negative
        _row(30.0, "analytic", 0.1), _row(30.0, "monte-carlo", 0.07, 0.01),
        _row(40.0, "analytic", 0.1), _row(40.0, "monte-carlo", 0.12, 0.01),
    )
    records = experiments.compare(experiments.SweepResult(spec=spec, rows=rows), 1e-4)
    assert [(r["snr_db"], r["user"]) for r in records] == [
        (0.0, "u1"), (0.0, "u2"), (10.0, "u1"), (10.0, "u2"), (20.0, "u1"),
        (30.0, "u1"), (40.0, "u1")]
    zero, equal, bad_ana, bad_mc, skip, below, above = records
    assert zero["sigmas"] == -math.inf and zero["checked"] and not zero["ok"]
    assert equal["sigmas"] == 0.0 and equal["ok"]
    for bad in (bad_ana, bad_mc):
        assert bad["checked"] and not bad["ok"]
    assert bad_ana["error"] == "analytic: boom"
    assert bad_mc["error"] == "monte-carlo: boom"
    assert all(r["error"] is None for r in (zero, equal, skip, below, above))
    assert not skip["checked"] and skip["ok"]
    assert below["sigmas"] == pytest.approx(-3.0) and below["ok"]
    assert above["sigmas"] == pytest.approx(2.0) and above["ok"]
    assert set(above) == {"snr_db", "scheme", "user", "analytic", "mc", "std_err",
                          "sigmas", "checked", "ok", "error"}
    with pytest.raises(ValueError):
        experiments.compare(run_sweep(analytic_spec()), 1e-4)
    # a NaN threshold would check no point and report every one ok
    with pytest.raises(ValueError, match="threshold .*got nan"):
        experiments.compare(experiments.SweepResult(spec=spec, rows=rows), math.nan)


def test_validation_report_grammar(monkeypatch, capsys):
    """The validate command prints one line per compared record, in a fixed
    grammar, whose status word is that of its record."""
    run_sweep, compare = experiments.run_sweep, experiments.compare
    records = []
    monkeypatch.setattr(experiments, "run_sweep", lambda spec: run_sweep(
        dataclasses.replace(spec, grid=(0.0, 10.0), sim=SimSpec(n_symbols=10_000, seed=1))))
    monkeypatch.setattr(experiments, "compare",
                        lambda *a: records.extend(compare(*a)) or records)
    cli.main(["validate", "--symbols", "10000", "--schemes", "noma"])
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(records) == 4 and len(lines) == 4
    pattern = re.compile(
        r"^(pass|FAIL|skip)  snr= *[\d.]+  [\w-]+ +u[12]  "
        r"analytic=\d\.\d{6}e[+-]\d{2}  mc=\d\.\d{6}e[+-]\d{2}  "
        r"\|diff\|=\d\.\d{2}e[+-]\d{2}  \(-?[\d.]+ sigma\)$")
    for line in lines:
        assert pattern.match(line), line
    for record, line in zip(records, lines):
        status = "FAIL" if not record["ok"] else ("pass" if record["checked"] else "skip")
        assert line.startswith(status + "  ")


def test_validate_command_exit_code_tracks_failures(capsys):
    """One line per point, a summary whose counts are those of the lines,
    and a nonzero exit exactly when a point fails."""
    code = cli.main(["validate", "--symbols", "10000", "--schemes", "noma"])
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if re.match(r"^(pass|FAIL|skip) ", line)]
    assert len(lines) == 14
    counts = Counter(line.split()[0] for line in lines)
    assert out.splitlines()[-1] == (
        f"{counts['pass']} pass (within 3 standard errors), {counts['skip']} skip "
        f"(closed form below 10/N), {counts['FAIL']} FAIL, of 14 points")
    assert code == (1 if counts["FAIL"] else 0)


def test_validate_summary_counts_pass_skip_and_fail_apart(monkeypatch, capsys):
    """A skipped point (closed form below 10/N) is not counted as within,
    and a failed evaluation's reason reaches stderr."""
    spec = SweepSpec(swept_parameter="snr_db", grid=(0.0, 10.0), schemes=("noma",),
                     sim=FAST_SIM)
    rows = (
        _row(0.0, "analytic", 0.1), _row(0.0, "monte-carlo", 0.1, 0.01),
        _row(0.0, "analytic", 1e-5, user="u2"),
        _row(0.0, "monte-carlo", 0.0, 0.0, user="u2"),
        _row(10.0, "analytic", 0.1), _row(10.0, "monte-carlo", math.nan, None, "boom"),
    )
    monkeypatch.setattr(experiments, "run_sweep",
                        lambda spec_: experiments.SweepResult(spec=spec, rows=rows))
    code = cli.main(["validate", "--symbols", "10000", "--schemes", "noma"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines()[-1] == (
        "1 pass (within 3 standard errors), 1 skip (closed form below 10/N), "
        "1 FAIL, of 3 points")
    assert captured.err == "warning: noma/u1 at snr_db=10.0: monte-carlo: boom\n"
