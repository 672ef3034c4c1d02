"""Closed-form BER building blocks, checked against direct quadrature.

The fading averages used by the closed forms are one-dimensional integrals
with known densities, so every block is cross-checked here against
scipy.integrate.quad with no shared code beyond the Q-function.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nomalink import analytic
from nomalink.analytic import (
    SCHEMES,
    USERS,
    aber_mrc_pair,
    aber_p2p_m1,
    aber_p2p_m2,
    e2e_cnoma,
    e2e_cnoma_wdl_u1,
    e2e_cnoma_wdl_u2,
    prop_error,
    q_function,
    scheme_ber,
    scheme_ber_floor,
)
from nomalink.model import SystemConfig, build_coefficient_tables, mean_sinr


def fade_quadrature(delta_bar: float) -> float:
    """Average of Q(sqrt(2 g)) over g exponential with the given mean."""
    val, _ = quad(lambda t: q_function(math.sqrt(2.0 * t)) *
                  math.exp(-t / delta_bar) / delta_bar, 0.0, np.inf)
    return val


def mrc_quadrature(a: float, b: float) -> float:
    """Average of Q(sqrt(2 g)) over the sum of two independent exponentials."""
    if a == b:
        density = lambda t: t * math.exp(-t / a) / (a * a)
    else:
        density = lambda t: (math.exp(-t / a) - math.exp(-t / b)) / (a - b)
    val, _ = quad(lambda t: q_function(math.sqrt(2.0 * t)) * density(t), 0.0, np.inf)
    return val


def test_q_function_values():
    assert q_function(0.0) == 0.5
    assert q_function(np.inf) == 0.0
    tail, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), 1.3, np.inf)
    assert q_function(1.3) == pytest.approx(tail, rel=1e-10)
    out = q_function([0.0, 1.0, 2.0])
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)


@pytest.mark.parametrize("delta", [0.05, 0.5, 2.0, 25.0])
def test_single_link_far_bit_matches_quadrature(delta):
    # equal branch means make the two-branch average collapse to one branch
    assert aber_p2p_m1([delta, delta]) == pytest.approx(fade_quadrature(delta), rel=1e-9)


def test_far_bit_average_of_two_branches():
    got = aber_p2p_m1([2.0, 0.5])
    expect = 0.5 * (fade_quadrature(2.0) + fade_quadrature(0.5))
    assert got == pytest.approx(expect, rel=1e-9)
    assert aber_p2p_m1([np.inf, np.inf]) == 0.0
    assert aber_p2p_m1([0.0, 0.0]) == 0.5


def test_far_bit_rejects_wrong_branch_count():
    with pytest.raises(ValueError):
        aber_p2p_m1([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        aber_p2p_m1([-1.0, 2.0])


def test_near_bit_signed_sum_matches_quadrature():
    cfg = SystemConfig.defaults(snr_db=10.0)
    t = build_coefficient_tables(cfg.alpha1, cfg.alpha2)
    budget = cfg.link_budget("s2")
    sinrs = mean_sinr(cfg.P_s, budget, cfg.hwi("s2"), cfg.sigma_eps_sq,
                      cfg.N0, t.zeta, t.xi)
    expect = sum(g * fade_quadrature(d) for g, d in zip(t.g_v, sinrs)) / 2.0
    assert aber_p2p_m2(sinrs, t.g_v) == pytest.approx(expect, rel=1e-9)


def test_near_bit_rejects_inconsistent_branches():
    # branch means whose signed sum lands at -0.5, far outside [0, 1]
    bad = [np.inf, np.inf, 0.0, np.inf, np.inf, 0.0]
    with pytest.raises(ValueError):
        aber_p2p_m2(bad, [1, 1, -1, 1, 1, -1])
    with pytest.raises(ValueError):
        aber_p2p_m2([1.0] * 5, [1] * 5)


def test_mrc_pair_value():
    assert aber_mrc_pair(2.0, 1.0) == pytest.approx(0.03705680966554775, rel=1e-13)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.3, 0.1), (10.0, 0.5), (5.0, 4.999)])
def test_mrc_pair_matches_quadrature(a, b):
    assert aber_mrc_pair(a, b) == pytest.approx(mrc_quadrature(a, b), rel=1e-7)
    assert aber_mrc_pair(a, b) == aber_mrc_pair(b, a)


def test_mrc_pair_equal_means():
    # the closed form has a removable singularity at equal means; the
    # implementation evaluates at a tiny symmetric perturbation instead
    got = aber_mrc_pair(1.0, 1.0)
    assert got == pytest.approx(mrc_quadrature(1.0, 1.0), abs=1e-8)
    assert got == pytest.approx(0.05805826178306622, rel=1e-12)
    near = aber_mrc_pair(1.0, 1.0 + 1e-12)
    assert near == pytest.approx(got, abs=1e-8)


def test_mrc_pair_degenerate_branches():
    # a dead branch reduces to the single-branch fading average
    assert aber_mrc_pair(3.0, 0.0) == pytest.approx(0.5 * (1 - math.sqrt(3.0 / 4.0)), rel=1e-12)
    assert aber_mrc_pair(np.inf, 1.0) == 0.0
    assert aber_mrc_pair(0.0, 0.0) == 0.5
    with pytest.raises(ValueError):
        aber_mrc_pair(-1.0, 1.0)


def test_prop_error_values():
    assert prop_error(1.0, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # reference scenario, both powers equal: relay arm 1/9 - 0.005 versus
    # direct arm 1/16 - 0.005
    d = 0.0575
    r = 1.0 / 9.0 - 0.005
    assert prop_error(d, r) == pytest.approx(0.6485568760611206, rel=1e-12)
    assert prop_error(0.3, 0.0) == 0.0
    assert prop_error(0.0, 0.3) == 1.0


def test_prop_error_rejects_bad_energies():
    with pytest.raises(ValueError):
        prop_error(-0.1, 0.5)
    with pytest.raises(ValueError):
        prop_error(0.0, 0.0)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-3, max_value=1e3))
def test_prop_error_scale_invariance(d, r, c):
    assert prop_error(c * d, c * r) == pytest.approx(prop_error(d, r), rel=1e-12)


def test_prop_branches_identical_because_amplitude_cancels():
    # the per-branch amplitude multiplies both arms, so every branch gets
    # the same ratio; the entries must be equal exactly, not just close
    cfg = SystemConfig.defaults(snr_db=10.0)
    t = build_coefficient_tables(cfg.alpha1, cfg.alpha2)
    rows = analytic._prop_branches(cfg, "s1", "r1", t.psi)
    assert rows.shape == (2,)
    assert rows[0] == rows[1]
    assert rows[0] == prop_error(cfg.P_s * cfg.link_budget("s1").sigma_tilde_sq,
                                 cfg.P_r * cfg.link_budget("r1").sigma_tilde_sq)
    six = analytic._prop_branches(cfg, "s2", "r2", t.zeta)
    assert np.all(six == six[0])


def test_prop_branches_zero_energy_is_a_coin_flip():
    cfg = SystemConfig.defaults(snr_db=10.0, P_s=0.0, P_r=0.0)
    rows = analytic._prop_branches(cfg, "s1", "r1", [1.8, 0.2])
    np.testing.assert_array_equal(rows, [0.5, 0.5])


def test_two_hop_composition():
    assert e2e_cnoma(0.1, 0.2) == pytest.approx(0.26, rel=1e-15)
    assert e2e_cnoma(0.0, 0.2) == 0.2
    assert e2e_cnoma(0.3, 0.0) == 0.3
    assert e2e_cnoma(0.5, 0.5) == 0.5
    with pytest.raises(ValueError):
        e2e_cnoma(1.2, 0.1)
    with pytest.raises(ValueError):
        e2e_cnoma(0.1, -0.01)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_two_hop_composition_symmetric(p, q):
    assert e2e_cnoma(p, q) == pytest.approx(e2e_cnoma(q, p), abs=1e-15)
    assert 0.0 <= e2e_cnoma(p, q) <= 1.0
    # a coin-flip hop pins the end-to-end rate at one half
    assert e2e_cnoma(0.5, q) == pytest.approx(0.5, abs=1e-15)


def test_combined_composition_hand_sum():
    got = e2e_cnoma_wdl_u1([0.1, 0.2], [0.6, 0.6], [0.05, 0.07], [1, 1])
    expect = 0.5 * ((0.6 * 0.1 + 0.9 * 0.05) + (0.6 * 0.2 + 0.8 * 0.07))
    assert got == pytest.approx(expect, rel=1e-15)
    # all relay hops failing leaves only the propagated branch
    assert e2e_cnoma_wdl_u1([1.0, 1.0], [0.6, 0.4], [0.05, 0.07], [1, 1]) == \
        pytest.approx(0.5, rel=1e-15)
    # perfect relay hops leave only the cooperative branch
    assert e2e_cnoma_wdl_u1([0.0, 0.0], [0.6, 0.4], [0.05, 0.07], [1, 1]) == \
        pytest.approx(0.06, rel=1e-15)


def test_combined_composition_signed_branches():
    p_sr = [0.1] * 6
    p_prop = [0.5] * 6
    p_coop = [0.2, 0.1, 0.15, 0.05, 0.08, 0.03]
    g = [1, 1, -1, 1, 1, -1]
    expect = 0.5 * sum(gv * (0.5 * 0.1 + 0.9 * pc) for gv, pc in zip(g, p_coop))
    assert e2e_cnoma_wdl_u2(p_sr, p_prop, p_coop, g) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        e2e_cnoma_wdl_u1([0.1, 0.2, 0.3], [0.6, 0.6], [0.05, 0.07], [1, 1])
    with pytest.raises(ValueError):
        # signed sum escapes [0, 1]
        e2e_cnoma_wdl_u2([0.0] * 6, [0.0] * 6, [0.4, 0.4, 0.9, 0.0, 0.0, 0.9], g)


# -- scheme-level composition -------------------------------------------------


def test_direct_scheme_unwinds_to_building_blocks():
    cfg = SystemConfig.defaults(snr_db=10.0)
    t = build_coefficient_tables(cfg.alpha1, cfg.alpha2)
    far = aber_p2p_m1(mean_sinr(cfg.P_s, cfg.link_budget("s1"), cfg.hwi("s1"),
                                cfg.sigma_eps_sq, cfg.N0, t.psi, t.psi))
    assert scheme_ber(cfg, "noma", "u1") == far
    near = aber_p2p_m2(mean_sinr(cfg.P_s, cfg.link_budget("s2"), cfg.hwi("s2"),
                                 cfg.sigma_eps_sq, cfg.N0, t.zeta, t.xi), t.g_v)
    assert scheme_ber(cfg, "noma", "u2") == near


def test_relayed_scheme_unwinds_to_two_hops():
    cfg = SystemConfig.defaults(snr_db=10.0)
    t = build_coefficient_tables(cfg.alpha1, cfg.alpha2)

    def far_hop(link):
        return aber_p2p_m1(mean_sinr(cfg.power(link), cfg.link_budget(link),
                                     cfg.hwi(link), cfg.sigma_eps_sq, cfg.N0, t.psi, t.psi))

    assert scheme_ber(cfg, "cnoma", "u1") == e2e_cnoma(far_hop("sr"), far_hop("r1"))


def test_combined_scheme_unwinds_to_building_blocks():
    cfg = SystemConfig.defaults(snr_db=10.0)
    t = build_coefficient_tables(cfg.alpha1, cfg.alpha2)

    def branch_sinrs(link):
        return mean_sinr(cfg.power(link), cfg.link_budget(link), cfg.hwi(link),
                         cfg.sigma_eps_sq, cfg.N0, t.psi, t.psi)

    sr, direct, rel = branch_sinrs("sr"), branch_sinrs("s1"), branch_sinrs("r1")
    p_sr = [0.5 * (1 - math.sqrt(d / (1 + d))) for d in sr]
    p_coop = [aber_mrc_pair(a, b) for a, b in zip(direct, rel)]
    p = prop_error(cfg.P_s * cfg.link_budget("s1").sigma_tilde_sq,
                   cfg.P_r * cfg.link_budget("r1").sigma_tilde_sq)
    expect = e2e_cnoma_wdl_u1(p_sr, [p, p], p_coop, t.g_z)
    assert scheme_ber(cfg, "cnoma-wdl", "u1") == pytest.approx(expect, rel=1e-14)


def test_scheme_ber_reference_values():
    cfg = SystemConfig.defaults(snr_db=10.0)
    expect = {
        ("noma", "u1"): 0.2522965978650431,
        ("noma", "u2"): 0.3028393721056528,
        ("cnoma", "u1"): 0.2496886074652577,
        ("cnoma", "u2"): 0.2953926815805891,
        ("cnoma-wdl", "u1"): 0.17816922541348096,
        ("cnoma-wdl", "u2"): 0.24593597993733257,
    }
    for (scheme, user), value in expect.items():
        assert scheme_ber(cfg, scheme, user) == pytest.approx(value, rel=1e-12), (scheme, user)


def test_scheme_ber_rejects_unknown_names():
    cfg = SystemConfig()
    with pytest.raises(ValueError):
        scheme_ber(cfg, "oma", "u1")
    with pytest.raises(ValueError):
        scheme_ber(cfg, "noma", "u3")
    assert scheme_ber(cfg, "NOMA", "u1") == scheme_ber(cfg, "noma", "u1")


def test_classic_rayleigh_reduction():
    """Single-user split with a clean transceiver gives the textbook curve."""
    for gamma in (0.1, 1.0, 10.0):
        cfg = SystemConfig(P_s=gamma * 16.0, P_r=gamma * 16.0, alpha1=1.0, alpha2=0.0,
                           k_s1=0, k_s2=0, k_sr=0, k_r1=0, k_r2=0, sigma_eps_sq=0.0)
        classic = 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))
        assert abs(scheme_ber(cfg, "noma", "u1") - classic) <= 1e-12


def test_floor_matches_deep_saturation():
    base = SystemConfig.defaults()
    for scheme in SCHEMES:
        for user in USERS:
            floor = scheme_ber_floor(base, scheme, user)
            deep = scheme_ber(base.with_snr_db(120.0), scheme, user)
            assert floor == pytest.approx(deep, abs=1e-9), (scheme, user)
            assert floor > 0


def test_floor_vanishes_without_impairments():
    clean = SystemConfig.defaults(hwi_k=0.0, sigma_eps_sq=0.0)
    for scheme in SCHEMES:
        for user in USERS:
            assert scheme_ber_floor(clean, scheme, user) == 0.0, (scheme, user)


def test_far_user_monotonic_in_power():
    for scheme in SCHEMES:
        vals = [scheme_ber(SystemConfig.defaults(snr_db=s), scheme, "u1")
                for s in range(0, 45, 5)]
        assert all(hi >= lo for hi, lo in zip(vals, vals[1:])), scheme


def test_far_user_monotonic_in_impairments():
    for scheme in SCHEMES:
        by_k = [scheme_ber(SystemConfig.defaults(snr_db=20.0, hwi_k=k), scheme, "u1")
                for k in (0.0, 0.05, 0.1, 0.2, 0.3)]
        assert all(lo <= hi for lo, hi in zip(by_k, by_k[1:])), scheme
        by_eps = [scheme_ber(SystemConfig.defaults(snr_db=20.0, sigma_eps_sq=e), scheme, "u1")
                  for e in (0.0, 0.002, 0.005, 0.01, 0.02)]
        assert all(lo <= hi for lo, hi in zip(by_eps, by_eps[1:])), scheme


def test_near_user_combined_value_can_exceed_one_half():
    # the combined near-user composition is an approximation; at low SNR it
    # lands above one half while staying a valid probability
    cfg = SystemConfig()
    got = scheme_ber(cfg, "cnoma-wdl", "u2")
    assert got == pytest.approx(0.5336399571804722, rel=1e-12)
    assert 0.0 <= got <= 1.0


@settings(deadline=None)
@given(st.floats(min_value=-20.0, max_value=60.0),
       st.floats(min_value=0.0, max_value=0.3),
       st.floats(min_value=0.0, max_value=0.05),
       st.floats(min_value=0.5, max_value=1.0))
def test_scheme_ber_stays_in_probability_range(snr_db, k, eps, alpha1):
    cfg = SystemConfig.defaults(snr_db=snr_db, hwi_k=k,
                                sigma_eps_sq=eps).with_alpha1(alpha1)
    for scheme in SCHEMES:
        for user in USERS:
            p = scheme_ber(cfg, scheme, user)
            assert 0.0 <= p <= 1.0, (scheme, user, snr_db, k, eps, alpha1)
