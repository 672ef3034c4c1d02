"""Monte Carlo engine: reproducibility, degenerate limits, and agreement
with oracles that share no code with it.

The strongest check is the conditional-Gaussian average in
``semi_analytic_far_bit``: given the drawn estimate and estimation error,
the projected decision statistic is exactly Gaussian, so averaging the
closed conditional error probability over fresh channel draws gives an
independent estimate of the same quantity the simulator counts.
"""

import math

import numpy as np
import pytest

from nomalink import analytic, simulator
from nomalink.model import SystemConfig
from nomalink.simulator import McResult, SimSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(n_symbols=9_999)
    with pytest.raises(ValueError):
        SimSpec(impairment_convention="halved")
    with pytest.raises(ValueError):
        SimSpec(n_symbols=100_000, batch_size=30_000)
    with pytest.raises(ValueError):
        SimSpec(n_symbols=100_000, batch_size=0)
    with pytest.raises(ValueError, match="seed"):
        SimSpec(seed=-1)


def test_batches_cover_the_workload():
    assert SimSpec(n_symbols=250_000).batches() == [100_000, 100_000, 50_000]
    assert SimSpec(n_symbols=250_000, batch_size=50_000).batches() == [50_000] * 5
    assert sum(SimSpec(n_symbols=1_234_567 * 2, batch_size=None).batches()) == 2_469_134


def test_result_from_counts():
    r = McResult.from_counts(10_000, 100, 400)
    assert r.ber_u1 == 0.01 and r.ber("u2") == 0.04
    assert r.std_err_u1 == pytest.approx(math.sqrt(0.01 * 0.99 / 10_000))
    assert r.std_err("u2") == pytest.approx(math.sqrt(0.04 * 0.96 / 10_000))


def test_runs_are_reproducible():
    cfg = SystemConfig.defaults(snr_db=10.0)
    spec = SimSpec(n_symbols=50_000, seed=42)
    assert simulator.simulate_noma(cfg, spec) == simulator.simulate_noma(cfg, spec)
    assert simulator.simulate_cnoma(cfg, spec) == simulator.simulate_cnoma(cfg, spec)
    assert simulator.simulate_cnoma_wdl(cfg, spec) == simulator.simulate_cnoma_wdl(cfg, spec)


def test_dispatcher_matches_direct_calls():
    cfg = SystemConfig.defaults(snr_db=5.0)
    spec = SimSpec(n_symbols=20_000, seed=3)
    assert simulator.simulate(cfg, "noma", spec) == simulator.simulate_noma(cfg, spec)
    assert simulator.simulate(cfg, "CNOMA", spec) == simulator.simulate_cnoma(cfg, spec)
    with pytest.raises(ValueError):
        simulator.simulate(cfg, "dnoma", spec)


def test_disjoint_seeds_agree_within_sampling_noise():
    cfg = SystemConfig.defaults(snr_db=10.0)
    a = simulator.simulate_noma(cfg, SimSpec(n_symbols=1_000_000, seed=11))
    b = simulator.simulate_noma(cfg, SimSpec(n_symbols=1_000_000, seed=12))
    for user in analytic.USERS:
        combined = math.hypot(a.std_err(user), b.std_err(user))
        assert abs(a.ber(user) - b.ber(user)) <= 4.0 * combined


def test_impairment_free_runs_match_closed_forms():
    """Without hardware distortion and estimation error the single-link
    closed forms are exact.  The relay compositions are not: they treat the
    hops as independent binary channels, which at 0 dB puts them -32 to
    -216 standard errors off.  At this 20 dB point relay slips are rare
    enough that every scheme agrees within plain sampling noise."""
    cfg = SystemConfig.defaults(snr_db=20.0, hwi_k=0.0, sigma_eps_sq=0.0)
    spec = SimSpec(n_symbols=1_000_000, seed=1)
    for scheme in analytic.SCHEMES:
        mc = simulator.simulate(cfg, scheme, spec)
        for user in analytic.USERS:
            ana = analytic.scheme_ber(cfg, scheme, user)
            assert abs(mc.ber(user) - ana) <= 3.0 * mc.std_err(user), (scheme, user)


def test_classic_rayleigh_reduction():
    gamma = 1.0
    cfg = SystemConfig(P_s=16.0, P_r=16.0, alpha1=1.0, alpha2=0.0,
                       k_s1=0, k_s2=0, k_sr=0, k_r1=0, k_r2=0, sigma_eps_sq=0.0)
    mc = simulator.simulate_noma(cfg, SimSpec(n_symbols=1_000_000, seed=1))
    classic = 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))
    assert abs(mc.ber_u1 - classic) <= 3.0 * mc.std_err_u1


def test_impairments_create_an_error_floor_and_removing_them_removes_it():
    clean30 = simulator.simulate_noma(
        SystemConfig.defaults(snr_db=30.0, hwi_k=0.0, sigma_eps_sq=0.0),
        SimSpec(n_symbols=2_000_000, seed=3))
    clean40 = simulator.simulate_noma(
        SystemConfig.defaults(snr_db=40.0, hwi_k=0.0, sigma_eps_sq=0.0),
        SimSpec(n_symbols=2_000_000, seed=3))
    assert clean40.ber_u1 * 5.0 < clean30.ber_u1
    # with impairments left in, another 10 dB buys almost nothing
    dirty30 = simulator.simulate_noma(SystemConfig.defaults(snr_db=30.0),
                                      SimSpec(n_symbols=200_000, seed=3))
    dirty40 = simulator.simulate_noma(SystemConfig.defaults(snr_db=40.0),
                                      SimSpec(n_symbols=200_000, seed=3))
    assert dirty40.ber_u1 > 0.5 * dirty30.ber_u1


def test_interference_cancellation_errors_hurt_the_near_user():
    cfg = SystemConfig.defaults(snr_db=5.0)
    spec = SimSpec(n_symbols=400_000, seed=7)
    real = simulator.simulate_noma(cfg, spec)
    genie = simulator.simulate_noma(cfg, spec, genie_sic=True)
    combined = math.hypot(real.std_err_u2, genie.std_err_u2)
    assert real.ber_u2 - genie.ber_u2 > 3.0 * combined
    # the far user never subtracts, so the switch must not touch it
    assert real.errors_u1 == genie.errors_u1


def test_impairment_conventions_differ_and_default_calibrates():
    cfg = SystemConfig.defaults(snr_db=10.0)
    doubled = simulator.simulate_noma(cfg, SimSpec(n_symbols=1_000_000, seed=1))
    literal = simulator.simulate_noma(
        cfg, SimSpec(n_symbols=1_000_000, seed=1, impairment_convention="literal"))
    assert doubled != literal
    ana = analytic.scheme_ber(cfg, "noma", "u1")
    assert abs(doubled.ber_u1 - ana) < abs(literal.ber_u1 - ana)


def test_noiseless_perfect_runs_make_no_errors():
    clean = SystemConfig.defaults(snr_db=120.0, hwi_k=0.0, sigma_eps_sq=0.0)
    spec = SimSpec(n_symbols=100_000, seed=2)
    mc = simulator.simulate_noma(clean, spec)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)
    mc = simulator.simulate_cnoma(clean, spec, genie_relay=True)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)
    mc = simulator.simulate_cnoma_wdl(clean, spec, genie_relay=True)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)


def test_silent_source_makes_the_relayed_chain_a_coin_flip():
    cfg = SystemConfig.defaults(snr_db=10.0, P_s=0.0)
    mc = simulator.simulate_cnoma(cfg, SimSpec(n_symbols=400_000, seed=2))
    assert abs(mc.ber_u1 - 0.5) <= 3.0 * mc.std_err_u1


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
        p += analytic.q_function(g_eff * amp * math.sqrt(P) / np.sqrt(var))
    p /= 2.0
    return float(p.mean()), float(p.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("snr_db", [10.0, 30.0])
def test_simulator_matches_conditional_gaussian_average(snr_db):
    cfg = SystemConfig.defaults(snr_db=snr_db)
    oracle, oracle_se = semi_analytic_far_bit(cfg, "s1", 400_000, seed=21)
    mc = simulator.simulate_noma(cfg, SimSpec(n_symbols=400_000, seed=22))
    combined = math.hypot(oracle_se, mc.std_err_u1)
    assert abs(mc.ber_u1 - oracle) <= 4.0 * combined


def test_conditional_stats_without_relay_power():
    cfg = SystemConfig.defaults(snr_db=10.0, P_r=0.0)
    spec = SimSpec(n_symbols=400_000, seed=5)
    stats = simulator.conditional_prop_stats(cfg, spec)
    mc = simulator.simulate_cnoma_wdl(cfg, spec)
    # a silent relay contributes no energy, so the analytic propagation
    # probability is zero and the user's fate rests on the direct link alone
    assert analytic.prop_error(cfg.P_s * cfg.link_budget("s1").sigma_tilde_sq,
                               cfg.P_r * cfg.link_budget("r1").sigma_tilde_sq) == 0.0
    assert stats.events_u1 > 10_000
    assert not stats.low_confidence_u1
    # conditioning on a relay slip selects trials where the two bit streams
    # disagree more often, which also drives the direct link harder, so the
    # conditional rate sits between the unconditional rate and a coin flip
    assert mc.ber_u1 <= stats.rate_u1 <= 0.5


def test_conditional_stats_symmetric_branches():
    cfg = SystemConfig.defaults(snr_db=10.0, d_s1=3.0)
    stats = simulator.conditional_prop_stats(cfg, SimSpec(n_symbols=400_000, seed=5))
    assert abs(stats.rate_u1 - 0.5) <= 0.02


def test_conditional_stats_flags_scarce_events():
    cfg = SystemConfig.defaults(snr_db=40.0, hwi_k=0.0, sigma_eps_sq=0.0)
    stats = simulator.conditional_prop_stats(cfg, SimSpec(n_symbols=10_000, seed=1))
    assert stats.low_confidence_u1
    assert stats.events_u1 < 100
