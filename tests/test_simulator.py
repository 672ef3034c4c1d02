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

import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from nomalink import analytic, simulator
from nomalink.model import SystemConfig
from nomalink.simulator import McResult, SimSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(n_symbols=9_999)
    with pytest.raises(ValueError, match="seed"):
        SimSpec(seed=-1)


def test_batches_cover_the_workload():
    assert SimSpec(n_symbols=250_000).batches() == [100_000, 100_000, 50_000]
    assert SimSpec(n_symbols=37_123).batches() == [37_123]
    assert sum(SimSpec(n_symbols=1_234_567 * 2).batches()) == 2_469_134


def test_result_from_counts():
    r = McResult.from_counts(10_000, 100, 400)
    assert r.ber_u1 == 0.01 and r.ber("u2") == 0.04
    assert r.std_err_u1 == pytest.approx(math.sqrt(0.01 * 0.99 / 10_000))
    assert r.std_err("u2") == pytest.approx(math.sqrt(0.04 * 0.96 / 10_000))


def test_runs_are_reproducible():
    cfg = SystemConfig.defaults(snr_db=10.0)
    spec = SimSpec(n_symbols=50_000, seed=42)
    for scheme in analytic.SCHEMES:
        assert simulator.simulate(cfg, scheme, spec) == simulator.simulate(cfg, scheme, spec)


def test_scheme_names_ignore_case_and_unknown_ones_are_rejected():
    cfg = SystemConfig.defaults(snr_db=5.0)
    spec = SimSpec(n_symbols=20_000, seed=3)
    assert simulator.simulate(cfg, "CNOMA", spec) == simulator.simulate(cfg, "cnoma", spec)
    with pytest.raises(ValueError, match="unknown scheme"):
        simulator.simulate(cfg, "dnoma", spec)


def test_relay_genie_without_a_relay_is_rejected():
    with pytest.raises(ValueError, match="relay"):
        simulator.simulate(SystemConfig.defaults(), "noma", SimSpec(n_symbols=10_000),
                           genie_relay=True)


#: Error counts of the reference scenario at 20 dB, seed 1, 150000 symbols
#: (one full batch and one half batch).  Any change to the random stream or
#: to the detection chain moves them.
_GOLDEN_COUNTS = {"noma": (17_320, 19_407), "cnoma": (14_084, 15_099),
                  "cnoma-wdl": (6_365, 8_828)}


def test_seeded_counts_are_pinned():
    cfg = SystemConfig.defaults(snr_db=20.0)
    spec = SimSpec(n_symbols=150_000, seed=1)
    for scheme, counts in _GOLDEN_COUNTS.items():
        mc = simulator.simulate(cfg, scheme, spec)
        assert (mc.errors_u1, mc.errors_u2) == counts, scheme


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
    Gaussians, form y = (h~ + e)(sqrt(P) x + d) + n and project it on
    conj(h~).  Same constructor and attributes as ``simulator._Receiver``.
    ``scale`` multiplies the distortion variance k^2 P and the
    estimation-error variance sigma_eps_sq; the simulator doubles both."""

    scale = 2.0

    def __init__(self, rng, cfg, link, tx, n):
        P, k = cfg.power(link), cfg.hwi(link)

        def cn(var):
            return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(var / 2.0)

        h_tilde = cn(cfg.link_budget(link).sigma_tilde_sq)
        est_err = cn(self.scale * cfg.sigma_eps_sq)
        distortion = cn(self.scale * k * k * P)
        noise = cn(cfg.N0)
        y = (h_tilde + est_err) * (math.sqrt(P) * tx + distortion) + noise
        self.gain = np.abs(h_tilde) ** 2
        self.proj_y = (np.conj(h_tilde) * y).real


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
    monkeypatch.setattr(simulator, "_Receiver", _FullFieldReceiver)
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
    assert abs(mc.ber_u1 - classic) <= 3.0 * mc.std_err_u1


def test_impairments_create_an_error_floor_and_removing_them_removes_it():
    clean30 = simulator.simulate(
        SystemConfig.defaults(snr_db=30.0, hwi_k=0.0, sigma_eps_sq=0.0), "noma",
        SimSpec(n_symbols=2_000_000, seed=3))
    clean40 = simulator.simulate(
        SystemConfig.defaults(snr_db=40.0, hwi_k=0.0, sigma_eps_sq=0.0), "noma",
        SimSpec(n_symbols=2_000_000, seed=3))
    assert clean40.ber_u1 * 5.0 < clean30.ber_u1
    # with impairments left in, another 10 dB buys almost nothing
    dirty30 = simulator.simulate(SystemConfig.defaults(snr_db=30.0), "noma",
                                 SimSpec(n_symbols=200_000, seed=3))
    dirty40 = simulator.simulate(SystemConfig.defaults(snr_db=40.0), "noma",
                                 SimSpec(n_symbols=200_000, seed=3))
    assert dirty40.ber_u1 > 0.5 * dirty30.ber_u1


def test_interference_cancellation_errors_hurt_the_near_user():
    cfg = SystemConfig.defaults(snr_db=5.0)
    spec = SimSpec(n_symbols=400_000, seed=7)
    real = simulator.simulate(cfg, "noma", spec)
    genie = simulator.simulate(cfg, "noma", spec, genie_sic=True)
    combined = math.hypot(real.std_err_u2, genie.std_err_u2)
    assert real.ber_u2 - genie.ber_u2 > 3.0 * combined
    # the far user never subtracts, so the switch must not touch it
    assert real.errors_u1 == genie.errors_u1


def test_impairment_conventions_differ_and_default_calibrates(monkeypatch):
    """The simulator draws distortion with total variance 2 k^2 P and the
    estimation error with 2 sigma_eps_sq, the accounting the closed forms
    use; the full field at half those variances lands further away."""
    cfg = SystemConfig.defaults(snr_db=10.0)
    spec = SimSpec(n_symbols=1_000_000, seed=1)
    doubled = simulator.simulate(cfg, "noma", spec)
    monkeypatch.setattr(simulator, "_Receiver", _HalvedFullFieldReceiver)
    halved = simulator.simulate(cfg, "noma", spec)
    assert doubled != halved
    ana = analytic.scheme_ber(cfg, "noma", "u1")
    assert abs(doubled.ber_u1 - ana) < abs(halved.ber_u1 - ana)


def test_noiseless_perfect_runs_make_no_errors():
    clean = SystemConfig.defaults(snr_db=120.0, hwi_k=0.0, sigma_eps_sq=0.0)
    spec = SimSpec(n_symbols=100_000, seed=2)
    mc = simulator.simulate(clean, "noma", spec)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)
    mc = simulator.simulate(clean, "cnoma", spec, genie_relay=True)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)
    mc = simulator.simulate(clean, "cnoma-wdl", spec, genie_relay=True)
    assert (mc.errors_u1, mc.errors_u2) == (0, 0)


def test_silent_source_makes_the_relayed_chain_a_coin_flip():
    cfg = SystemConfig.defaults(snr_db=10.0, P_s=0.0)
    mc = simulator.simulate(cfg, "cnoma", SimSpec(n_symbols=400_000, seed=2))
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
        p += ndtr(-g_eff * amp * math.sqrt(P) / np.sqrt(var))
    p /= 2.0
    return float(p.mean()), float(p.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("snr_db", [10.0, 30.0])
def test_simulator_matches_conditional_gaussian_average(snr_db):
    cfg = SystemConfig.defaults(snr_db=snr_db)
    oracle, oracle_se = semi_analytic_far_bit(cfg, "s1", 400_000, seed=21)
    mc = simulator.simulate(cfg, "noma", SimSpec(n_symbols=400_000, seed=22))
    combined = math.hypot(oracle_se, mc.std_err_u1)
    assert abs(mc.ber_u1 - oracle) <= 4.0 * combined


def test_conditional_stats_without_relay_power():
    cfg = SystemConfig.defaults(snr_db=10.0, P_r=0.0)
    spec = SimSpec(n_symbols=400_000, seed=5)
    stats = simulator.conditional_prop_stats(cfg, spec)
    mc = simulator.simulate(cfg, "cnoma-wdl", spec)
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
