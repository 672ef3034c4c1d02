"""Monte Carlo engine: reproducibility, degenerate limits, and agreement
with oracles that share no code with it.

The simulator draws each receiver's sufficient statistic (|h~|^2 and the
projection Re(conj(h~) y)) instead of the complex observation.
``_FullFieldReceiver`` keeps the literal signal model as a test-only
reference, and the whole schemes must agree with it.  Two oracles share no
code with the closed forms: the conditional-Gaussian average in
``semi_analytic_far_bit`` (with impairments on, the projected statistic is
exactly Gaussian given the estimate and the estimation error) and
``exact_clean_ber`` (with impairments off, every scheme's BER is a
deterministic integral over the link gains).
"""

import ast
import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr

from nomalink import analytic, simulator
from nomalink.model import SystemConfig
from nomalink.simulator import CondPropStats, McResult, SimSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(n_symbols=9_999)
    with pytest.raises(ValueError, match="seed"):
        SimSpec(seed=-1)
    for field, value in (("n_symbols", 2e5), ("n_symbols", 20_000.0), ("n_symbols", "20000"),
                         ("n_symbols", True), ("seed", 1.5), ("seed", 1.0), ("seed", None),
                         ("seed", True)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimSpec(**{field: value})
    cfg = SystemConfig.defaults()
    spec = SimSpec(n_symbols=np.int64(20_000), seed=np.uint32(3))
    assert spec.n_batches == 1 and spec.draw(cfg, "noma", 0).n_symbols == 20_000
    # the bound builds, and its last batch is drawn at full size
    bound = simulator._MAX_SYMBOLS
    run = SimSpec(n_symbols=bound)
    assert run.n_batches == 100_000 and run.draw(cfg, "noma", 99_999).n_symbols == 100_000
    for n in (bound + 1, 10**25):
        with pytest.raises(ValueError, match=re.escape(
                f"n_symbols must be at most {bound}, got {n}")):
            SimSpec(n_symbols=n)


def package_imports(path):
    """Every ``(module, name)`` a source file imports from nomalink, with
    relative imports resolved; ``name`` is None for ``import nomalink.x``."""
    found = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            found |= {(a.name, None) for a in node.names
                      if a.name.split(".")[0] == "nomalink"}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ("nomalink", module)))
            if module.split(".")[0] == "nomalink":
                found |= {(module, a.name) for a in node.names}
    return found


def test_simulator_shares_only_the_scenario_with_the_package():
    """The simulator checks the closed forms, so the one thing it may
    take from nomalink is the validated scenario."""
    assert package_imports(simulator.__file__) == {("nomalink.model", "SystemConfig")}


def test_closed_forms_import_only_the_model():
    """The closed forms build on the scenario and its SINRs alone, so they
    cannot reach into the simulator that checks them."""
    assert {module for module, _ in package_imports(analytic.__file__)} == {"nomalink.model"}


def test_batches_cover_the_workload():
    """A run is full batches of 100000 symbols, then one shorter last batch
    for any remainder."""
    cfg = SystemConfig.defaults()
    for n, sizes in ((250_000, [100_000, 100_000, 50_000]), (37_123, [37_123]),
                     (100_000, [100_000]), (100_001, [100_000, 1])):
        spec = SimSpec(n_symbols=n)
        assert spec.n_batches == len(sizes)
        assert [spec.draw(cfg, "noma", i).n_symbols for i in range(spec.n_batches)] == sizes
    spec = SimSpec(n_symbols=1_234_567 * 2)
    assert spec.n_batches == 25 and spec.draw(cfg, "noma", 24).n_symbols == 69_134


def test_result_from_counts():
    """A result is its counts: every rate is derived from them on read."""
    assert [f.name for f in fields(McResult)] == ["trials", "errors_u1", "errors_u2"]
    assert [f.name for f in fields(CondPropStats)] == [
        "events_u1", "errors_u1", "events_u2", "errors_u2"]
    r = McResult.from_counts(10_000, 100, 400)
    assert r == McResult(10_000, 100, 400)
    assert r.ber("u1") == 0.01 and r.ber("u2") == 0.04
    assert r.std_err("u1") == pytest.approx(math.sqrt(0.01 * 0.99 / 10_000))
    assert r.std_err("u2") == pytest.approx(math.sqrt(0.04 * 0.96 / 10_000))
    none_all = McResult.from_counts(10_000, 0, 10_000)
    assert none_all.ber("u1") == 0.0 and none_all.std_err("u1") == 0.0
    assert none_all.ber("u2") == 1.0 and none_all.std_err("u2") == 0.0
    stats = CondPropStats(0, 0, 5, 1)
    assert math.isnan(stats.rate("u1")) and math.isnan(stats.std_err("u1"))
    assert stats.low_confidence("u1") and stats.low_confidence("u2")
    assert stats.rate("u2") == 0.2
    assert stats.std_err("u2") == pytest.approx(math.sqrt(0.2 * 0.8 / 5))
    assert not CondPropStats(100, 7, 99, 7).low_confidence("u1")


@pytest.mark.parametrize("user", ["u3", "U1", None, "errors_u1"])
def test_result_rejects_unknown_users(user):
    r = McResult.from_counts(10_000, 100, 400)
    stats = CondPropStats(200, 20, 300, 30)
    for read in (r.ber, r.std_err, stats.rate, stats.std_err, stats.low_confidence):
        with pytest.raises(ValueError, match=r"unknown user .*expected one of \('u1', 'u2'\)"):
            read(user)


def test_runs_are_reproducible():
    cfg = SystemConfig.defaults(snr_db=10.0)
    spec = SimSpec(n_symbols=50_000, seed=42)
    for scheme in analytic.SCHEMES:
        assert simulator.simulate(cfg, scheme, spec) == simulator.simulate(cfg, scheme, spec)


def test_scheme_names_ignore_case_and_unknown_ones_are_rejected():
    cfg = SystemConfig.defaults(snr_db=5.0)
    spec = SimSpec(n_symbols=20_000, seed=3)
    assert simulator.simulate(cfg, "CNOMA", spec) == simulator.simulate(cfg, "cnoma", spec)
    for unknown in ("dnoma", None, 1):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown scheme {unknown!r}, expected one of {analytic.SCHEMES}")):
            simulator.simulate(cfg, unknown, spec)


def test_drawn_batches_sum_to_the_run():
    """Simulating a SimSpec's batches one by one, each drawn once, gives the
    SimSpec's counts; a batch can be simulated again at another scenario."""
    spec = SimSpec(n_symbols=150_000, seed=1)
    configs = [SystemConfig.defaults(snr_db=snr_db) for snr_db in (20.0, 5.0)]
    for scheme in analytic.SCHEMES:
        batches = [spec.draw(configs[0], scheme, index)
                   for index in range(spec.n_batches)]
        assert [b.n_symbols for b in batches] == [100_000, 50_000]
        for cfg in configs:
            parts = [simulator.simulate(cfg, scheme, b.at(cfg)) for b in batches]
            whole = simulator.simulate(cfg, scheme, spec)
            assert McResult.from_counts(sum(p.trials for p in parts),
                                        sum(p.errors_u1 for p in parts),
                                        sum(p.errors_u2 for p in parts)) == whole


def test_drawn_batch_is_read_only_and_bound_to_its_scheme():
    spec = SimSpec(n_symbols=20_000, seed=3)
    cfg = SystemConfig.defaults()
    batch = spec.draw(cfg, "CNOMA-wdl", 0)
    assert batch.hops == ("s", "r")
    assert batch.bits.shape == (2, 20_000) and batch.receivers.shape == (5, 4, 20_000)
    for array in (batch.bits, batch.bits[0], batch.receivers, batch.receivers[2, 1]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(array, 2.0, out=array)
    # every array the batch holds, private ones included, is read-only
    held = {name: getattr(batch, name) for name in simulator.Batch.__slots__
            if isinstance(getattr(batch, name), np.ndarray)}
    assert {"bits", "receivers"} <= held.keys()
    assert not [name for name, array in held.items() if array.flags.writeable]
    # a batch serves the schemes whose hops it holds, and no other
    assert simulator.simulate(cfg, "NOMA", batch.at(cfg)) == \
        simulator.simulate(cfg, "noma", spec)
    with pytest.raises(ValueError, match="batch holds the hops .*'s',.*not 'r', which cnoma-wdl"):
        simulator.simulate(cfg, "cnoma-wdl", spec.draw(cfg, "noma", 0).at(cfg))
    for index in (1, -1):
        with pytest.raises(ValueError, match=re.escape(
                f"batch index must be in [0, 1), got {index}")):
            spec.draw(cfg, "noma", index)
    for index in (1.5, np.float64(0.0), "0", None, True):
        with pytest.raises(ValueError, match=re.escape(
                f"batch index must be an integer, got {index!r}")):
            spec.draw(cfg, "noma", index)
    assert spec.draw(cfg, "noma", np.int64(0)).n_symbols == 20_000


def test_a_draw_needs_at_least_one_known_scheme():
    """A draw takes one scheme name or several; none would leave a batch of
    bits with no hop, and an unknown name has no hops at all."""
    spec = SimSpec(n_symbols=20_000, seed=3)
    cfg = SystemConfig.defaults()
    for draw in (lambda schemes: spec.draw(cfg, schemes, 0),
                 lambda schemes: simulator.Batch(cfg, schemes, spec, 0)):
        for none in ((), [], iter(())):
            with pytest.raises(ValueError, match="at least one scheme"):
                draw(none)
        for unknown in ("dnoma", ("noma", "dnoma")):
            with pytest.raises(ValueError, match="unknown scheme 'dnoma'"):
                draw(unknown)
        for unknown in (None, 1, ("noma", None)):
            name = unknown[1] if isinstance(unknown, tuple) else unknown
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown scheme {name!r}, expected one of {analytic.SCHEMES}")):
                draw(unknown)
        # a bare string is one scheme, not a sequence of letters
        one, listed = draw("CNOMA"), draw(["cnoma"])
        assert one.hops == listed.hops == ("r",)
        np.testing.assert_array_equal(one.receivers, listed.receivers)


@pytest.mark.parametrize("schemes", [
    schemes for size in (1, 2, 3) for schemes in itertools.combinations(analytic.SCHEMES, size)
], ids="+".join)
def test_a_batch_refuses_a_scheme_whose_hop_it_lacks(schemes):
    """A batch drawn for ``schemes`` holds the union of their hops, serves
    every scheme whose hops it holds with the counts of that scheme's own
    run, and refuses the others with ValueError."""
    spec = SimSpec(n_symbols=20_000, seed=5)
    cfg = SystemConfig.defaults(snr_db=10.0)
    batch = spec.draw(cfg, schemes, 0)
    held = {hop for scheme in schemes for hop in simulator._HOPS[scheme]}
    assert batch.hops == tuple(hop for hop in ("s", "r") if hop in held)
    for scheme in analytic.SCHEMES:
        if set(simulator._HOPS[scheme]) <= held:
            assert simulator.simulate(cfg, scheme, batch.at(cfg)) == \
                simulator.simulate(cfg, scheme, spec), scheme
            continue
        with pytest.raises(ValueError, match=f"batch holds the hops .*which {scheme} hears"):
            simulator.simulate(cfg, scheme, batch.at(cfg))


#: Every link at the same distance, so every link settles with the same
#: sigma~^2 and equal draws would show as equal rows.
_LEVEL = dict(d_s1=1.0, d_s2=1.0, d_sr=1.0, d_r1=1.0, d_r2=1.0)


@pytest.mark.parametrize("seed, index", [(1, 0), (3, 1), (8, 2), (2**40, 0)])
def test_a_hops_rows_do_not_depend_on_the_other_hop(seed, index):
    """The bits and the source hop come from the batch's stream, the relay
    hop from its spawned child, so each hop's rows are the same whether or
    not the other hop was drawn, and the two hops draw different rows."""
    spec = SimSpec(n_symbols=250_000, seed=seed)
    cfg = SystemConfig.defaults(**_LEVEL)
    both = spec.draw(cfg, ("noma", "cnoma"), index)
    source, relay = spec.draw(cfg, "noma", index), spec.draw(cfg, "cnoma", index)
    wdl = spec.draw(cfg, "cnoma-wdl", index)
    for batch in (source, relay, wdl):
        np.testing.assert_array_equal(batch.bits, both.bits)
    np.testing.assert_array_equal(wdl.receivers, both.receivers)
    np.testing.assert_array_equal(source.receivers, both.receivers[:2])
    np.testing.assert_array_equal(relay.receivers, both.receivers[2:])
    for row in relay.receivers:
        for other in source.receivers:
            assert not np.any(row == other)


def test_relay_stream_is_spawned_so_no_batch_replays_another():
    """Appending 1 to the key (seed, index) would be no new stream:
    SeedSequence((7, 5, 1)) and SeedSequence(((5 << 32) + 7, 1)) hold the
    same words, so batch 5 of seed 7 would replay, in its relay rows, the
    stream of batch 1 of seed (5 << 32) + 7.  The relay hop draws from the
    spawned child instead."""
    n = 100_000
    cfg = SystemConfig.defaults(**_LEVEL)
    appended, alias = (np.random.SeedSequence(key) for key in ((7, 5, 1), ((5 << 32) + 7, 1)))
    np.testing.assert_array_equal(appended.generate_state(8), alias.generate_state(8))
    relay = SimSpec(n_symbols=6 * n, seed=7).draw(cfg, "cnoma", 5)
    other = SimSpec(n_symbols=2 * n, seed=(5 << 32) + 7).draw(cfg, "noma", 1)
    # the aliased key is the stream of the other batch's bits and source rows
    np.testing.assert_array_equal(
        other.bits[0], np.random.default_rng(alias).integers(0, 2, n) == 1)
    # the relay rows come from the spawned child, not from the aliased key
    def first_row(seq):  # g = sigma~^2 x of link sr, settled in float64 and stored in float32
        g = np.random.default_rng(seq).standard_exponential(n) * cfg.sigma_tilde_sq("sr")
        return g.astype(np.float32)

    spawned = np.random.SeedSequence((7, 5)).spawn(1)[0]
    np.testing.assert_array_equal(relay.receivers[0, 0], first_row(spawned))
    assert not np.any(relay.receivers[0, 0] == first_row(alias))


@pytest.mark.parametrize("order", [analytic.SCHEMES, analytic.SCHEMES[::-1]],
                         ids=["noma-first", "wdl-first"])
def test_a_scheme_on_a_shared_batch_equals_it_on_its_own(order):
    """Each scheme reads only the rows of the hops it hears, so on a batch
    drawn for every scheme it gets the counts of its own batch at every
    grid point, whichever scheme runs on the batch first."""
    spec = SimSpec(n_symbols=30_000, seed=4)
    base = SystemConfig.defaults(snr_db=15.0)
    shared = spec.draw(base, order, 0)
    own = {scheme: spec.draw(base, scheme, 0) for scheme in order}
    for cfg in _grid_configs(base):
        heard = shared.at(cfg)
        for scheme in order:
            assert simulator.simulate(cfg, scheme, heard) == \
                simulator.simulate(cfg, scheme, own[scheme].at(cfg)), (scheme, cfg)
    # a batch serves only a scenario that shares its geometry on every link
    # it holds: one drawn for every scheme refuses a moved relay even to
    # noma, while noma's own batch, which holds no relay link, serves it
    far_relay = replace(base, d_sr=1.5)
    for scheme in order:
        with pytest.raises(ValueError, match="batch was settled to .*draw a new batch"):
            simulator.simulate(far_relay, scheme, shared.at(far_relay))
    assert simulator.simulate(far_relay, "noma", own["noma"].at(far_relay)) == \
        simulator.simulate(far_relay, "noma", spec)
    other = replace(base, sigma_eps_sq=0.01)
    with pytest.raises(ValueError, match="batch was settled to .*draw a new batch"):
        simulator.simulate(other, "noma", shared.at(other))
    # a batch drawn for every scheme with the relay moved refuses the base
    # geometry to every scheme
    moved = spec.draw(far_relay, order, 0)
    for scheme in order:
        with pytest.raises(ValueError, match="batch was settled to .*draw a new batch"):
            simulator.simulate(base, scheme, moved.at(base))


def test_spec_must_be_a_simspec_or_a_batch():
    """A simulation takes a SimSpec or a Reception; a drawn batch is heard
    first (``batch.at(cfg)``), so a bare Batch is refused like any other
    type."""
    cfg = SystemConfig.defaults()
    batch = SimSpec(n_symbols=20_000, seed=3).draw(cfg, "cnoma-wdl", 0)
    refused = "spec must be a SimSpec or a Reception, got "
    for spec, kind in ((20_000, "int"), (None, "NoneType"), (batch.receivers, "ndarray"),
                       ({"n_symbols": 20_000}, "dict"), (batch, "Batch")):
        with pytest.raises(TypeError, match=refused + kind):
            simulator.simulate(cfg, "noma", spec)
        with pytest.raises(TypeError, match=refused + kind):
            simulator.conditional_prop_stats(cfg, spec)
    # a reception of a drawn batch of the combined scheme serves the
    # conditional statistic too
    stats = simulator.conditional_prop_stats(cfg, batch.at(cfg))
    assert stats == simulator.conditional_prop_stats(cfg, SimSpec(n_symbols=20_000, seed=3))
    assert isinstance(batch.at(cfg), simulator.Reception)


def test_a_simulation_refuses_a_switch_that_is_not_a_bool_or_a_cfg_that_is_not_a_config():
    """A simulation takes no switch at all, so a call that passes one fails
    instead of running without it; a cfg of another type is named, not
    read."""
    cfg = SystemConfig.defaults(snr_db=10.0)
    spec = SimSpec(n_symbols=20_000, seed=3)
    with pytest.raises(TypeError, match="genie_sic"):
        simulator.simulate(cfg, "cnoma", spec, genie_sic=True)
    for other, kind in ((None, "NoneType"), ("x", "str"), ({"snr_db": 10.0}, "dict")):
        with pytest.raises(TypeError, match=f"cfg must be a SystemConfig, got {kind}"):
            simulator.simulate(other, "noma", spec)
        with pytest.raises(TypeError, match=f"cfg must be a SystemConfig, got {kind}"):
            simulator.conditional_prop_stats(other, spec)


def test_a_run_looks_up_each_heard_link_once(monkeypatch):
    """A SimSpec run checks its scenario once, not again on each batch it
    draws for itself: three 1M-symbol runs of ten batches each look up the
    2, 3 and 5 links their schemes hear once, 10 lookups in all."""
    cfg = SystemConfig.defaults(snr_db=20.0)
    looked_up, real = [], SystemConfig.link_budget

    def link_budget(self, link):
        looked_up.append(link)
        return real(self, link)

    monkeypatch.setattr(SystemConfig, "link_budget", link_budget)
    for scheme in analytic.SCHEMES:
        simulator.simulate(cfg, scheme, SimSpec(n_symbols=1_000_000, seed=1))
    assert looked_up == ["s1", "s2", "sr", "r1", "r2", "s1", "s2", "sr", "r1", "r2"]


def test_one_reception_serves_every_scheme_in_every_order():
    """One reception per scenario serves the three schemes and the
    conditional statistic in every order, each with the counts of the
    SimSpec run.  It then holds its four parts, each received once,
    read-only and in rows of its own, none sharing memory with the batch:
    the symbols, the source hop, the relay's decisions and the relay hop."""
    spec = SimSpec(n_symbols=20_000, seed=7)
    batch = spec.draw(SystemConfig.defaults(), analytic.SCHEMES, 0)
    users = [*analytic.SCHEMES, "conditional"]

    def run(cfg, s, heard):
        if s == "conditional":
            return simulator.conditional_prop_stats(cfg, heard)
        return simulator.simulate(cfg, s, heard)

    for cfg in (SystemConfig.defaults(snr_db=5.0), SystemConfig.defaults(snr_db=25.0)):
        alone = {s: run(cfg, s, spec) for s in users}
        for order in itertools.permutations(users):
            reception = batch.at(cfg)
            assert reception.n_symbols == 20_000
            for s in order:
                assert run(cfg, s, reception) == alone[s], (order, s)
            assert sorted(reception._held) == ["r", "relay", "s", "tx"]
            held = [(key, row) for key, rows in reception._held.items() for row in rows]
            assert len(held) == 9
            assert not any(np.shares_memory(row, rows) for _, row in held
                           for rows in (batch.receivers, batch.bits))
            for key, row in held:  # the relay's decisions are boolean, True for +1
                assert row.dtype == (bool if key == "relay" else np.float32)
                assert not row.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    row[0] = 0.0


def test_a_reception_refuses_another_scenario():
    spec = SimSpec(n_symbols=20_000, seed=7)
    cfg = SystemConfig.defaults(snr_db=10.0)
    batch = spec.draw(cfg, analytic.SCHEMES, 0)
    reception = batch.at(cfg)
    for other in (cfg.with_snr_db(20.0), cfg.with_hwi(0.1), cfg.with_alpha1(0.8),
                  cfg.with_alpha1(0.7)):
        for scheme in analytic.SCHEMES:
            with pytest.raises(ValueError, match="reception was built at another scenario"):
                simulator.simulate(other, scheme, reception)
        with pytest.raises(ValueError, match="reception was built at another scenario"):
            simulator.conditional_prop_stats(other, reception)
    # an equal scenario is the same scenario, and nothing above was received
    assert not reception._held
    assert simulator.simulate(replace(cfg), "noma", reception) == \
        simulator.simulate(cfg, "noma", spec)


def _traced_peak(run) -> int:
    """The peak of memory traced by ``tracemalloc`` while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme", [*analytic.SCHEMES, "conditional"])
def test_a_run_holds_one_batch_at_a_time(scheme):
    """A SimSpec run draws each batch after freeing the last, so three
    batches peak no higher than one; holding the previous batch while the
    next is drawn would read close to twice as much."""
    cfg = SystemConfig.defaults(snr_db=20.0)

    def peak(n_symbols):
        spec = SimSpec(n_symbols=n_symbols, seed=2)
        if scheme == "conditional":
            return _traced_peak(lambda: simulator.conditional_prop_stats(cfg, spec))
        return _traced_peak(lambda: simulator.simulate(cfg, scheme, spec))

    one, three = peak(100_000), peak(300_000)
    assert three <= 1.2 * one, (one, three)


def test_batch_shared_by_threads_of_every_scheme_gives_serial_counts():
    """Threads released at once onto a batch drawn for every scheme, each
    running one scheme at one scenario, each get the serial count of their
    own scheme and scenario."""
    spec = SimSpec(n_symbols=20_000, seed=12)
    configs = _grid_configs(SystemConfig.defaults(snr_db=10.0))[:6]
    jobs = [(cfg, scheme) for cfg in configs for scheme in analytic.SCHEMES]
    serial = [simulator.simulate(cfg, scheme, spec) for cfg, scheme in jobs]
    batch = spec.draw(configs[0], analytic.SCHEMES, 0)
    start = threading.Barrier(len(jobs))

    def run(job):
        start.wait(timeout=60)
        cfg, scheme = job
        return simulator.simulate(cfg, scheme, batch.at(cfg))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            shared = [f.result(timeout=60) for f in [pool.submit(run, job) for job in jobs]]
    finally:
        sys.setswitchinterval(interval)
    assert shared == serial


def _shared_counts(spec, jobs):
    """Counts of ``cnoma-wdl`` at each of ``jobs``, every thread released
    at once onto one batch, switching as often as the interpreter allows."""
    batch = spec.draw(jobs[0], "cnoma-wdl", 0)
    start = threading.Barrier(len(jobs))

    def run(cfg):
        start.wait(timeout=60)
        return simulator.simulate(cfg, "cnoma-wdl", batch.at(cfg))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(run, cfg) for cfg in jobs]
            return [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def test_batch_shared_between_threads_gives_serial_counts():
    """Threads sharing one batch, each simulation writing its own work rows,
    must each get the count of a freshly drawn batch at their own scenario,
    here three rounds of an SNR grid."""
    jobs = [SystemConfig.defaults(snr_db=float(v)) for v in range(0, 40, 5)] * 3
    spec = SimSpec(n_symbols=20_000, seed=6)
    serial = [simulator.simulate(cfg, "cnoma-wdl", spec) for cfg in jobs]
    assert _shared_counts(spec, jobs) == serial


def test_unsettled_batch_shared_by_16_threads_gives_serial_counts():
    """Sixteen threads share one batch at points of SNR, hardware and split
    grids; since the batch is settled when drawn, none of them changes what
    the others read, and each gets the count of a freshly drawn batch."""
    jobs = (_grid_configs(SystemConfig.defaults(snr_db=10.0)) * 2)[:16]
    spec = SimSpec(n_symbols=20_000, seed=8)
    serial = [simulator.simulate(cfg, "cnoma-wdl", spec) for cfg in jobs]
    assert _shared_counts(spec, jobs) == serial


#: Error counts of the reference scenario at 20 dB, seed 1, 150000 symbols
#: (one full batch and one half batch), keyed by scheme.  Any change to
#: the random stream or to the detection chain moves them.
_GOLDEN_COUNTS = {
    "noma": (17_320, 19_407),
    "cnoma": (13_876, 15_327),
    "cnoma-wdl": (6_204, 8_880),
}

#: ``conditional_prop_stats`` on the same run: events and errors per user.
_GOLDEN_CONDITIONAL = (2_507, 1_483, 8_023, 6_121)


def test_seeded_counts_are_pinned():
    cfg = SystemConfig.defaults(snr_db=20.0)
    spec = SimSpec(n_symbols=150_000, seed=1)
    for scheme, counts in _GOLDEN_COUNTS.items():
        mc = simulator.simulate(cfg, scheme, spec)
        assert (mc.errors_u1, mc.errors_u2) == counts, scheme
    stats = simulator.conditional_prop_stats(cfg, spec)
    assert (stats.events_u1, stats.errors_u1, stats.events_u2,
            stats.errors_u2) == _GOLDEN_CONDITIONAL


#: The counts of ``_GOLDEN_COUNTS`` (same run, same keys) and of
#: ``conditional_prop_stats`` at two more geometries, recorded with the
#: whole receive chain run at every scenario on raw variates rebuilt from
#: the documented streams (the relay hop's from the spawned child), so
#: they check settling against the arithmetic it splits: with no
#: estimation error, where the field f is exactly sqrt(g), and with a
#: longer source-relay link, a larger estimation error and a lower
#: hardware factor.
_GOLDEN_AT_GEOMETRY = {
    "no-estimation-error": (dict(sigma_eps_sq=0.0), {
        "noma": (12_851, 13_732),
        "cnoma": (10_783, 11_074),
        "cnoma-wdl": (4_673, 6_032),
    }, (2_105, 1_273, 5_731, 4_391)),
    "far-relay": (dict(d_sr=1.5, sigma_eps_sq=0.02, hwi_k=0.1), {
        "noma": (28_460, 25_297),
        "cnoma": (22_755, 25_123),
        "cnoma-wdl": (12_780, 17_975),
    }, (5_696, 3_470, 17_624, 13_580)),
}


@pytest.mark.parametrize("geometry", sorted(_GOLDEN_AT_GEOMETRY))
def test_seeded_counts_are_pinned_at_other_geometries(geometry):
    overrides, golden, conditional = _GOLDEN_AT_GEOMETRY[geometry]
    cfg = SystemConfig.defaults(snr_db=20.0, **overrides)
    spec = SimSpec(n_symbols=150_000, seed=1)
    for scheme, counts in golden.items():
        mc = simulator.simulate(cfg, scheme, spec)
        assert (mc.errors_u1, mc.errors_u2) == counts, scheme
    stats = simulator.conditional_prop_stats(cfg, spec)
    assert (stats.events_u1, stats.errors_u1, stats.events_u2,
            stats.errors_u2) == conditional


def _grid_configs(base):
    """Points of SNR, hardware and power-split sweeps around ``base``."""
    return ([base.with_snr_db(v) for v in (0.0, 20.0, 40.0)]
            + [base.with_hwi(k) for k in (0.0, 0.1, 0.3)]
            + [base.with_alpha1(a) for a in (0.5, 0.7, 0.95)])


def test_settled_batch_serves_every_grid_point_and_rejects_another_geometry():
    """A batch is settled to its scenario's geometry when it is drawn; it
    serves any power, hardware factor or split with the counts of a fresh
    draw, and refuses a scenario of another geometry."""
    n, seed = 20_000, 3
    spec = SimSpec(n_symbols=n, seed=seed)
    base = SystemConfig.defaults(snr_db=20.0)
    err_sd = math.sqrt(base.sigma_eps_sq)
    for scheme in analytic.SCHEMES:
        batch = spec.draw(base, scheme, 0)
        # the documented streams, rebuilt without Batch: bits m1 and m2 from
        # (seed, index), then x, e_par, e_perp and z per receiver, the source
        # hop's from the same stream and the relay hop's from its spawned child
        root = np.random.SeedSequence((seed, 0))
        rng = np.random.default_rng(root)
        bits = [rng.integers(0, 2, n) == 1 for _ in range(2)]  # True where the bit is +1
        np.testing.assert_array_equal(batch.bits, bits)
        assert batch.bits.dtype == bool and batch.receivers.dtype == np.float32
        streams = {"s": rng, "r": np.random.default_rng(root.spawn(1)[0])}
        links = [(hop, link) for hop in simulator._HOPS[scheme]
                 for link in simulator._HOP_LINKS[hop]]
        assert batch.geometry == {link: (base.sigma_eps_sq,
                                         base.link_budget(link).sigma_tilde_sq)
                                  for _, link in links}
        # as drawn, ``receivers`` already shows the settled terms: g = sigma~^2 x,
        # f sqrt(g), s = |h~ + e|^2 and z sqrt(g), with f = sqrt(g) + e_par,
        # each settled in float64 and rounded once to float32
        for (hop, link), settled in zip(links, batch.receivers, strict=True):
            rng = streams[hop]
            x = rng.standard_exponential(n)
            e_par, e_perp, z = rng.standard_normal((3, n))
            g = x * base.link_budget(link).sigma_tilde_sq
            f = e_par * err_sd + np.sqrt(g)
            for got, want in zip(settled, (g, f * np.sqrt(g),
                                           (e_perp * err_sd) ** 2 + f * f, z * np.sqrt(g))):
                np.testing.assert_array_equal(got, want.astype(np.float32))
        for other, unheard in ((replace(base, sigma_eps_sq=0.01), ()),
                               (replace(base, a=3.0), ()),
                               (replace(base, d_sr=1.5), ("noma",)),
                               (replace(base, d_s1=3.0), ("cnoma",))):
            if scheme in unheard:  # a link the scheme never hears is no part of it
                assert simulator.simulate(other, scheme, batch.at(other)) == \
                    simulator.simulate(other, scheme, spec)
                continue
            with pytest.raises(ValueError, match="batch was settled to .*draw a new batch"):
                simulator.simulate(other, scheme, batch.at(other))
        for cfg in _grid_configs(base):
            assert simulator.simulate(cfg, scheme, batch.at(cfg)) == \
                simulator.simulate(cfg, scheme, spec), (scheme, cfg)
        for array in (batch.bits, batch.bits[1], batch.receivers, batch.receivers[-1, 0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.flags.writeable = True


_TINY32 = float(np.finfo(np.float32).smallest_subnormal)
_ROW = 16


@st.composite
def _sic_inputs(draw):
    """A combined statistic phi, its gain and sqrt(alpha1): finite float32
    gains, zero included, and phi finite, a signed zero, subnormal, NaN, or
    a tie at +-c with c = gain sqrt(alpha1)."""
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    gain = draw(arrays(np.float32, _ROW, elements=st.just(0.0) | finite))
    sqrt_a1 = draw(st.floats(0.0, 1.0))
    free = draw(arrays(np.float32, _ROW, elements=st.floats(width=32, allow_infinity=False)))
    tie = draw(arrays(np.int8, _ROW, elements=st.integers(-1, 1)))
    phi = np.where(tie == 0, free, tie * np.multiply(gain, sqrt_a1))
    return phi, gain, sqrt_a1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sic_inputs())
@example((np.array([-0.0, 0.0, _TINY32, -_TINY32, np.nan, 2.5, -2.5, -0.0] * 2, dtype=np.float32),
          np.zeros(_ROW, dtype=np.float32), math.sqrt(0.8)))
def test_near_decides_as_the_subtraction_it_replaces(inputs):
    """``_decide`` takes the far bit ``phi >= 0`` and compares phi with +-c
    for the near bit; it must decide exactly as slicing phi minus the
    decided far bit's +-1 times gain times sqrt(alpha1), all in float32.
    A silent receiver's phi = -0.0 decides +1, as +0.0 does, and a NaN
    statistic never decides +1."""
    phi, gain, sqrt_a1 = inputs
    far, near = simulator._decide(phi, gain, sqrt_a1)
    np.testing.assert_array_equal(far, phi >= 0.0)
    sign = np.where(far, np.float32(1.0), np.float32(-1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.subtract(phi, sign * gain * sqrt_a1) >= 0.0
    assert far.dtype == near.dtype == bool
    np.testing.assert_array_equal(near, want)
    assert not near[np.isnan(phi)].any()
    assert near[(phi == 0.0) & (gain == 0.0)].all()


@st.composite
def _symbol_inputs(draw):
    """Two boolean rows, an alpha in {0, 1.4e-76, 0.2, 0.5, 1} or in
    [1.4e-76, 1], and an alpha1 in [0.5, 1]."""
    m1, m2 = (draw(arrays(bool, _ROW)) for _ in range(2))
    alpha = draw(st.sampled_from([0.0, 1.4e-76, 0.2, 0.5, 1.0]) | st.floats(1.4e-76, 1.0))
    return m1, m2, alpha, draw(st.floats(0.5, 1.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_symbol_inputs())
def test_symbol_and_superpose_return_exact_symbols_in_new_rows(inputs):
    """``_symbol(m, sqrt(a))`` is +-fl32(sqrt(a)) by the sign of each bit
    (+-0 at a = 0), and ``_superpose`` the sum of the two users' float32
    symbols, rounded once in float32; each returns a new writeable float32
    row that shares no memory with the bits it maps."""
    m1, m2, alpha, alpha1 = inputs

    def signed(m, root):
        return np.where(m, np.float32(root), -np.float32(root))

    cfg = SystemConfig.defaults().with_alpha1(alpha1)
    symbol = simulator._symbol(m1, math.sqrt(alpha))
    tx = simulator._superpose(cfg, m1, m2)
    np.testing.assert_array_equal(symbol, signed(m1, math.sqrt(alpha)))
    np.testing.assert_array_equal(
        tx, signed(m1, math.sqrt(cfg.alpha1)) + signed(m2, math.sqrt(cfg.alpha2)))
    for row in (symbol, tx):
        assert row.dtype == np.float32 and row.flags.writeable
        assert not np.shares_memory(row, m1) and not np.shares_memory(row, m2)


#: Seeded counts of ``SimSpec(n_symbols=20_000, seed=5)`` where noise no
#: longer counts: the error floor of the reference scenario, equal to those
#: of a float64 tail.
_FLOOR_COUNTS = {"noma": (928, 1_320), "cnoma": (652, 1_116), "cnoma-wdl": (159, 590)}


def test_a_scenario_past_the_float32_span_is_refused():
    """The rows and the tail are float32, so a heard link whose numbers
    would overflow it, or underflow it to zero, is refused with ValueError
    naming the span, instead of being counted from NaN or zeros.  A link
    the scheme does not hear is no part of it, and within the span the
    counts are a float64 tail's, no RuntimeWarning raised."""
    spec = SimSpec(n_symbols=20_000, seed=5)
    refused = re.escape("out of the simulator's float32 span [1e-32, 1e+32] (+-320 dB)")
    base = SystemConfig.defaults(snr_db=0.0)
    for cfg in (SystemConfig.defaults(snr_db=390.0), SystemConfig.defaults(snr_db=1000.0),
                SystemConfig.defaults(snr_db=0.0, hwi_k=1e20), replace(base, N0=1e40),
                SystemConfig.defaults(snr_db=320.0, d_s1=1e-3, d_sr=1e-3),  # P sigma_h^2 1e38
                replace(base, d_s1=1e-20, d_sr=1e-20, P_s=1e-30, P_r=1e-30),  # sigma_h^2 1e40
                replace(base, P_s=1e-60, P_r=1e-60, N0=1e-60)):
        for scheme in analytic.SCHEMES:
            with pytest.raises(ValueError, match=refused):
                simulator.simulate(cfg, scheme, spec)
            with pytest.raises(ValueError, match=refused):
                simulator.simulate(cfg, scheme, spec.draw(base, scheme, 0).at(cfg))
        with pytest.raises(ValueError, match=refused):
            simulator.conditional_prop_stats(cfg, spec)
    loud_relay = replace(base, P_r=1e39)  # the relay feeds r1 and r2, the source sr
    assert simulator.simulate(loud_relay, "noma", spec) == simulator.simulate(base, "noma", spec)
    with pytest.raises(ValueError, match="link r1 is out of .*P = 1e\\+39"):
        simulator.simulate(loud_relay, "cnoma", spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cfg in (SystemConfig.defaults(snr_db=300.0),
                    SystemConfig.defaults(snr_db=0.0, N0=1e-60)):
            for scheme, counts in _FLOOR_COUNTS.items():
                mc = simulator.simulate(cfg, scheme, spec)
                assert (mc.errors_u1, mc.errors_u2) == counts, (cfg.N0, scheme)


def test_disjoint_seeds_agree_within_sampling_noise():
    cfg = SystemConfig.defaults(snr_db=10.0)
    a = simulator.simulate(cfg, "noma", SimSpec(n_symbols=1_000_000, seed=11))
    b = simulator.simulate(cfg, "noma", SimSpec(n_symbols=1_000_000, seed=12))
    for user in analytic.USERS:
        combined = math.hypot(a.std_err(user), b.std_err(user))
        assert abs(a.ber(user) - b.ber(user)) <= 4.0 * combined


def test_impairment_free_runs_match_closed_forms():
    """Without hardware distortion and estimation error the single-link
    closed forms are exact, so the direct scheme must agree within plain
    sampling noise.  The relay compositions are not exact (see
    ``test_impairment_free_relayed_runs_match_exact_oracle``)."""
    cfg = SystemConfig.defaults(snr_db=20.0, hwi_k=0.0, sigma_eps_sq=0.0)
    mc = simulator.simulate(cfg, "noma", SimSpec(n_symbols=1_000_000, seed=1))
    for user in analytic.USERS:
        ana = analytic.scheme_ber(cfg, "noma", user)
        assert abs(mc.ber(user) - ana) <= 3.0 * mc.std_err(user), user


_PAIRS = tuple(itertools.product((1.0, -1.0), repeat=2))


def _fade_nodes(sigma_tilde_sq, n_nodes=300):
    """Nodes and weights for E[f(g)], g ~ sigma~^2 Exp(1): substitute
    g = sigma~^2 t^2 (density 2t exp(-t^2)) and use Gauss-Legendre on
    t in [0, 7]."""
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    t = 3.5 * (t + 1.0)
    return sigma_tilde_sq * t * t, 3.5 * w * 2.0 * t * np.exp(-t * t)


def _decision_probs(mean, energy, cut, N0):
    """Probabilities of the four (far, near) decisions of a sign slicer
    followed by SIC on a statistic N(mean, energy N0 / 2): the nearest-point
    boundaries sit at -cut, 0 and +cut."""
    sd = np.sqrt(energy * N0 / 2.0)
    lo, mid, hi = (ndtr((c - mean) / sd) for c in (-cut, 0.0, cut))
    return dict(zip(_PAIRS, (1.0 - hi, hi - mid, mid - lo, lo)))


def exact_clean_ber(cfg, scheme, user):
    """Exact BER of ``scheme`` for ``user`` with hardware and estimation
    clean, by quadrature over the link gains.

    A receiver (or an MRC pair) weighting each phase by sqrt(P) sees
    sum P g tx + noise of variance (sum P g) N0 / 2, and SIC cuts at
    sqrt(alpha1) sum P g.  The relay's four decision pairs are averaged
    over the source-relay gain and forwarded; cnoma-wdl integrates its
    direct and relayed gains on a two-dimensional grid.  Flipping every
    bit maps errors to errors, so half the transmitted pairs suffice.
    """
    r1, r2 = math.sqrt(cfg.alpha1), math.sqrt(cfg.alpha2)
    tx = {pair: r1 * pair[0] + r2 * pair[1] for pair in _PAIRS}
    bit = 0 if user == "u1" else 1
    direct, relayed = ("s1", "r1") if user == "u1" else ("s2", "r2")

    def energies(link):
        g, w = _fade_nodes(cfg.link_budget(link).sigma_tilde_sq)
        return cfg.power(link) * g, w

    def decide(branches, weights):
        total = sum(e for e, _ in branches)
        mean = sum(e * amp for e, amp in branches)
        probs = _decision_probs(mean, total, r1 * total, cfg.N0)
        return {d: float(np.sum(weights * p)) for d, p in probs.items()}

    def wrong(probs, sent):
        return sum(p for d, p in probs.items() if d[bit] != sent[bit])

    e_d, w_d = energies(direct)
    e_r, w_r = energies(relayed)
    e_sr, w_sr = energies("sr")
    ber = 0.0
    for m in _PAIRS[:2]:
        if scheme == "noma":
            ber += 0.5 * wrong(decide([(e_d, tx[m])], w_d), m)
            continue
        for f, p_f in decide([(e_sr, tx[m])], w_sr).items():
            if scheme == "cnoma":
                probs = decide([(e_r, tx[f])], w_r)
            else:
                probs = decide([(e_d[:, None], tx[m]), (e_r[None, :], tx[f])],
                               w_d[:, None] * w_r[None, :])
            ber += 0.5 * p_f * wrong(probs, m)
    return ber


@pytest.mark.parametrize("snr_db", [0.0, 20.0])
def test_exact_oracle_reproduces_the_direct_closed_form(snr_db):
    cfg = SystemConfig.defaults(snr_db=snr_db, hwi_k=0.0, sigma_eps_sq=0.0)
    for user in analytic.USERS:
        assert exact_clean_ber(cfg, "noma", user) == pytest.approx(
            analytic.scheme_ber(cfg, "noma", user), rel=1e-6)


def test_impairment_free_relayed_runs_match_exact_oracle():
    """The relay closed forms treat the hops as independent binary
    channels and are biased even at clean 20 dB (cnoma u1 0.054478 against
    an exact 0.054058), so the relayed schemes are checked against the
    exact clean-case oracle instead."""
    cfg = SystemConfig.defaults(snr_db=20.0, hwi_k=0.0, sigma_eps_sq=0.0)
    spec = SimSpec(n_symbols=1_000_000, seed=1)
    for scheme in ("cnoma", "cnoma-wdl"):
        mc = simulator.simulate(cfg, scheme, spec)
        for user in analytic.USERS:
            exact = exact_clean_ber(cfg, scheme, user)
            assert abs(mc.ber(user) - exact) <= 3.0 * mc.std_err(user), (scheme, user)


class _FullFieldReceiver:
    """The literal signal model: draw h~, e, d and n as circular complex
    Gaussians from the test's own generator, form
    y = (h~ + e)(sqrt(P) x + d) + n and project it on conj(h~).  Called
    like ``simulator._receive``, whose settled batch terms it ignores, and
    returns the same two float32 rows: the projection weighted by sqrt(P)
    and the estimate power |h~|^2.  ``scale`` multiplies the distortion
    variance k^2 P and the estimation-error variance sigma_eps_sq; the
    simulator doubles both."""

    scale = 2.0

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __call__(self, cfg, link, tx, variates):
        n = len(tx)
        P, k = cfg.power(link), cfg.hwi(link)

        def cn(var):
            return (self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)) \
                * math.sqrt(var / 2.0)

        h_tilde = cn(cfg.link_budget(link).sigma_tilde_sq)
        est_err = cn(self.scale * cfg.sigma_eps_sq)
        distortion = cn(self.scale * k * k * P)
        noise = cn(cfg.N0)
        y = (h_tilde + est_err) * (math.sqrt(P) * tx + distortion) + noise
        phi = math.sqrt(P) * (np.conj(h_tilde) * y).real
        return phi.astype(np.float32), (np.abs(h_tilde) ** 2).astype(np.float32)


class _HalvedFullFieldReceiver(_FullFieldReceiver):
    """The full field at half the simulator's impairment variances."""

    scale = 1.0


@pytest.mark.parametrize("cfg", [
    SystemConfig.defaults(snr_db=20.0),
    SystemConfig.defaults(snr_db=30.0, hwi_k=0.0, sigma_eps_sq=0.02),
], ids=["reference-20dB", "estimation-only-30dB"])
def test_sufficient_statistic_receiver_matches_full_field(cfg, monkeypatch):
    fast = {s: simulator.simulate(cfg, s, SimSpec(n_symbols=1_000_000, seed=1))
            for s in analytic.SCHEMES}
    monkeypatch.setattr(simulator, "_receive", _FullFieldReceiver(seed=2))
    full = {s: simulator.simulate(cfg, s, SimSpec(n_symbols=1_000_000, seed=2))
            for s in analytic.SCHEMES}
    for scheme in analytic.SCHEMES:
        a, b = fast[scheme], full[scheme]
        for user in analytic.USERS:
            combined = math.hypot(a.std_err(user), b.std_err(user))
            assert abs(a.ber(user) - b.ber(user)) <= 4.0 * combined, (scheme, user)


def test_stream_layout_does_not_depend_on_the_scenario():
    """Each receiver draws the same variates whether or not a variance is
    zero, so one seed gives common random numbers across scenarios: a
    vanishing impairment changes no count."""
    clean = SystemConfig.defaults(snr_db=20.0, hwi_k=0.0, sigma_eps_sq=0.0)
    tiny = SystemConfig.defaults(snr_db=20.0, hwi_k=1e-12, sigma_eps_sq=1e-12)
    spec = SimSpec(n_symbols=100_000, seed=1)
    for scheme in analytic.SCHEMES:
        assert simulator.simulate(clean, scheme, spec) == simulator.simulate(tiny, scheme, spec)


def test_classic_rayleigh_reduction():
    gamma = 1.0
    cfg = SystemConfig(P_s=16.0, P_r=16.0, alpha1=1.0, alpha2=0.0,
                       k_s1=0, k_s2=0, k_sr=0, k_r1=0, k_r2=0, sigma_eps_sq=0.0)
    mc = simulator.simulate(cfg, "noma", SimSpec(n_symbols=1_000_000, seed=1))
    classic = 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))
    assert abs(mc.ber("u1") - classic) <= 3.0 * mc.std_err("u1")


def test_impairments_create_an_error_floor_and_removing_them_removes_it():
    clean30 = simulator.simulate(
        SystemConfig.defaults(snr_db=30.0, hwi_k=0.0, sigma_eps_sq=0.0), "noma",
        SimSpec(n_symbols=2_000_000, seed=3))
    clean40 = simulator.simulate(
        SystemConfig.defaults(snr_db=40.0, hwi_k=0.0, sigma_eps_sq=0.0), "noma",
        SimSpec(n_symbols=2_000_000, seed=3))
    assert clean40.ber("u1") * 5.0 < clean30.ber("u1")
    # with impairments left in, another 10 dB buys almost nothing
    dirty30 = simulator.simulate(SystemConfig.defaults(snr_db=30.0), "noma",
                                 SimSpec(n_symbols=200_000, seed=3))
    dirty40 = simulator.simulate(SystemConfig.defaults(snr_db=40.0), "noma",
                                 SimSpec(n_symbols=200_000, seed=3))
    assert dirty40.ber("u1") > 0.5 * dirty30.ber("u1")


def test_interference_cancellation_errors_hurt_the_near_user():
    """SIC is imperfect: where the near user's own decision on the far bit
    slipped, it subtracts the wrong symbol, and its own bit is wrong far
    more often than where that decision held."""
    cfg = SystemConfig.defaults(snr_db=5.0)
    spec = SimSpec(n_symbols=400_000, seed=7)
    slips = slip_errors = errors = 0
    for index in range(spec.n_batches):
        reception = spec.draw(cfg, "noma", index).at(cfg)
        _, phi2, gain2 = reception.hop("s")
        far, near = simulator._decide(phi2, gain2, math.sqrt(cfg.alpha1))
        m1, m2 = reception.batch.bits
        slipped, wrong = far != m1, near != m2
        slips += int(np.count_nonzero(slipped))
        slip_errors += int(np.count_nonzero(slipped & wrong))
        errors += int(np.count_nonzero(wrong))
    assert errors == simulator.simulate(cfg, "noma", spec).errors_u2
    slip_rate, slip_se = simulator._binomial(slip_errors, slips)
    held_rate, held_se = simulator._binomial(errors - slip_errors, spec.n_symbols - slips)
    assert slip_rate - held_rate > 10.0 * math.hypot(held_se, slip_se), (slip_rate, held_rate)


def test_impairment_conventions_differ_and_default_calibrates(monkeypatch):
    """The simulator draws distortion with total variance 2 k^2 P and the
    estimation error with 2 sigma_eps_sq, the accounting the closed forms
    use; the full field at half those variances lands further away."""
    cfg = SystemConfig.defaults(snr_db=10.0)
    spec = SimSpec(n_symbols=1_000_000, seed=1)
    doubled = simulator.simulate(cfg, "noma", spec)
    monkeypatch.setattr(simulator, "_receive", _HalvedFullFieldReceiver(seed=1))
    halved = simulator.simulate(cfg, "noma", spec)
    assert doubled != halved
    ana = analytic.scheme_ber(cfg, "noma", "u1")
    assert abs(doubled.ber("u1") - ana) < abs(halved.ber("u1") - ana)


def test_noiseless_perfect_runs_make_no_errors():
    clean = SystemConfig.defaults(snr_db=120.0, hwi_k=0.0, sigma_eps_sq=0.0)
    spec = SimSpec(n_symbols=100_000, seed=2)
    mc = simulator.simulate(clean, "noma", spec)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)
    mc = simulator.simulate(clean, "cnoma", spec)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)
    mc = simulator.simulate(clean, "cnoma-wdl", spec)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)


@pytest.mark.parametrize("scheme, silent", [
    ("noma", {"P_s": 0.0}),
    ("cnoma", {"P_s": 0.0}),
    ("cnoma", {"P_r": 0.0}),
    ("cnoma-wdl", {"P_s": 0.0, "P_r": 0.0}),
], ids=["noma-Ps0", "cnoma-Ps0", "cnoma-Pr0", "cnoma-wdl-Ps0-Pr0"])
def test_silent_source_makes_the_relayed_chain_a_coin_flip(scheme, silent):
    """A hop at zero power carries nothing, so a user that hears only
    silent hops, directly or through a relay that heard nothing, guesses."""
    cfg = SystemConfig.defaults(snr_db=10.0, **silent)
    mc = simulator.simulate(cfg, scheme, SimSpec(n_symbols=400_000, seed=2))
    for user in analytic.USERS:
        assert abs(mc.ber(user) - 0.5) <= 3.0 * mc.std_err(user), user


def semi_analytic_far_bit(cfg, link, n, seed):
    """Average the exact conditional error probability over channel draws.

    Given the estimate and the estimation error, the projected observation
    is Gaussian with mean (|h~|^2 + Re(h~* e)) sqrt(P) s and variance
    |h~|^2 (|h~ + e|^2 2 k^2 P + N0) / 2 per real dimension, so the
    conditional far-bit error probability is a two-term Q-function average.
    """
    rng = np.random.default_rng(seed)
    budget = cfg.link_budget(link)
    P, k = cfg.power(link), cfg.hwi(link)
    h_tilde = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        * math.sqrt(budget.sigma_tilde_sq / 2.0)
    err = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        * math.sqrt(2.0 * cfg.sigma_eps_sq / 2.0)
    g_eff = np.abs(h_tilde) ** 2 + (np.conj(h_tilde) * err).real
    var = np.abs(h_tilde) ** 2 * (np.abs(h_tilde + err) ** 2 * 2.0 * k * k * P + cfg.N0) / 2.0
    r1, r2 = math.sqrt(cfg.alpha1), math.sqrt(cfg.alpha2)
    p = np.zeros(n)
    for amp in (r1 + r2, r1 - r2):
        p += ndtr(-g_eff * amp * math.sqrt(P) / np.sqrt(var))
    p /= 2.0
    return float(p.mean()), float(p.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("snr_db", [10.0, 30.0])
def test_simulator_matches_conditional_gaussian_average(snr_db):
    cfg = SystemConfig.defaults(snr_db=snr_db)
    oracle, oracle_se = semi_analytic_far_bit(cfg, "s1", 400_000, seed=21)
    mc = simulator.simulate(cfg, "noma", SimSpec(n_symbols=400_000, seed=22))
    combined = math.hypot(oracle_se, mc.std_err("u1"))
    assert abs(mc.ber("u1") - oracle) <= 4.0 * combined


def test_conditional_stats_without_relay_power():
    cfg = SystemConfig.defaults(snr_db=10.0, P_r=0.0)
    spec = SimSpec(n_symbols=400_000, seed=5)
    stats = simulator.conditional_prop_stats(cfg, spec)
    mc = simulator.simulate(cfg, "cnoma-wdl", spec)
    # a silent relay contributes no energy, so the analytic propagation
    # probability is zero and the user's fate rests on the direct link alone
    assert analytic.prop_error(cfg, "u1") == 0.0
    assert stats.events_u1 > 10_000
    assert not stats.low_confidence("u1")
    # conditioning on a relay slip selects trials where the two bit streams
    # disagree more often, which also drives the direct link harder, so the
    # conditional rate sits between the unconditional rate and a coin flip
    assert mc.ber("u1") <= stats.rate("u1") <= 0.5


def test_conditional_stats_symmetric_branches():
    cfg = SystemConfig.defaults(snr_db=10.0, d_s1=3.0)
    stats = simulator.conditional_prop_stats(cfg, SimSpec(n_symbols=400_000, seed=5))
    assert abs(stats.rate("u1") - 0.5) <= 0.02


def test_conditional_stats_flags_scarce_events():
    cfg = SystemConfig.defaults(snr_db=40.0, hwi_k=0.0, sigma_eps_sq=0.0)
    stats = simulator.conditional_prop_stats(cfg, SimSpec(n_symbols=10_000, seed=1))
    assert stats.low_confidence("u1")
    assert stats.events_u1 < 100
