"""Scenario types, coefficient tables and mean-SINR formulas."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nomalink.model import (
    LINKS,
    CoefficientTables,
    LinkBudget,
    SystemConfig,
    build_coefficient_tables,
    link_variance,
    mean_sinr,
    mean_sinr_limit,
)


def test_link_variance_values():
    assert link_variance(1.0, 2.0) == 1.0
    assert link_variance(4.0, 2.0) == 0.0625
    assert link_variance(3.0, 2.0) == pytest.approx(1.0 / 9.0, rel=1e-15)


@pytest.mark.parametrize("d,a", [(0.0, 2.0), (-1.0, 2.0), (2.0, 0.0), (2.0, -1.0)])
def test_link_variance_rejects_nonpositive(d, a):
    with pytest.raises(ValueError):
        link_variance(d, a)


def test_link_budget_from_distance():
    b = LinkBudget.from_distance(4.0, 2.0, 0.005)
    assert b.sigma_h_sq == 0.0625
    assert b.sigma_tilde_sq == pytest.approx(0.0575, rel=1e-15)


def test_link_budget_rejects_estimation_error_swallowing_link():
    with pytest.raises(ValueError):
        LinkBudget.from_distance(4.0, 2.0, 0.07)
    with pytest.raises(ValueError):
        LinkBudget.from_distance(4.0, 2.0, 0.0625)
    with pytest.raises(ValueError):
        LinkBudget.from_distance(4.0, 2.0, -0.001)


def test_link_budget_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        LinkBudget(sigma_h_sq=0.0, sigma_tilde_sq=0.0)
    with pytest.raises(ValueError):
        LinkBudget(sigma_h_sq=0.1, sigma_tilde_sq=0.2)
    with pytest.raises(ValueError):
        LinkBudget(sigma_h_sq=0.1, sigma_tilde_sq=0.0)


def test_reference_scenario_defaults():
    cfg = SystemConfig()
    assert (cfg.d_s1, cfg.d_s2, cfg.d_sr, cfg.d_r1, cfg.d_r2) == (4, 2, 1, 3, 1)
    assert cfg.a == 2.0
    assert cfg.alpha1 == 0.8 and cfg.alpha2 == 0.2
    assert cfg.sigma_eps_sq == 0.005
    assert all(cfg.hwi(link) == 0.175 for link in LINKS)


def test_config_allows_zero_power():
    cfg = SystemConfig(P_s=0.0, P_r=0.0)
    assert cfg.P_s == 0.0


@pytest.mark.parametrize("kw", [
    {"d_s1": 0.0},
    {"d_r2": -1.0},
    {"a": 0.0},
    {"P_s": -1.0},
    {"N0": 0.0},
    {"alpha1": 0.3, "alpha2": 0.7},      # far user must get the larger share
    {"alpha1": 0.8, "alpha2": 0.3},      # shares must sum to one
    {"alpha1": 1.2, "alpha2": -0.2},
    {"k_sr": -0.1},
    {"sigma_eps_sq": -0.005},
    {"sigma_eps_sq": 0.07},              # exceeds the weakest link variance 1/16
])
def test_config_rejects_invalid(kw):
    with pytest.raises(ValueError):
        SystemConfig(**kw)


def test_link_accessors():
    cfg = SystemConfig(P_s=2.0, P_r=3.0, k_r1=0.05)
    assert cfg.link_budget("s1").sigma_tilde_sq == pytest.approx(0.0575)
    assert cfg.link_budget("r1").sigma_h_sq == pytest.approx(1.0 / 9.0)
    assert cfg.power("s1") == 2.0 and cfg.power("sr") == 2.0
    assert cfg.power("r1") == 3.0 and cfg.power("r2") == 3.0
    assert cfg.hwi("r1") == 0.05 and cfg.hwi("s2") == 0.175
    for accessor in (cfg.link_budget, cfg.power, cfg.hwi):
        with pytest.raises(ValueError):
            accessor("rx")


def test_snr_constructor_sets_both_powers():
    cfg = SystemConfig.defaults(snr_db=20.0)
    assert cfg.P_s == pytest.approx(100.0)
    assert cfg.P_r == pytest.approx(100.0)
    assert cfg.N0 == 1.0
    cfg = SystemConfig.defaults(snr_db=0.0, hwi_k=0.05, d_s1=5.0)
    assert cfg.P_s == 1.0 and cfg.hwi("s2") == 0.05 and cfg.d_s1 == 5.0


def test_copy_constructors():
    base = SystemConfig.defaults(snr_db=10.0)
    assert base.with_snr_db(30.0).P_s == pytest.approx(1000.0)
    hw = base.with_hwi(0.0)
    assert all(hw.hwi(link) == 0.0 for link in LINKS)
    pa = base.with_alpha1(0.7)
    assert pa.alpha1 == 0.7 and pa.alpha2 == pytest.approx(0.3)
    assert pa.P_s == base.P_s


def test_coefficient_tables_reference_split():
    t = build_coefficient_tables(0.8, 0.2)
    np.testing.assert_allclose(t.psi, [1.8, 0.2], rtol=1e-12)
    np.testing.assert_allclose(t.zeta, [0.2, 0.2, 1.8, 5.0, 0.2, 1.8], rtol=1e-12)
    np.testing.assert_allclose(t.xi, [1.8, 0.2, 1.8, 1.8, 0.2, 0.2], rtol=1e-12)
    np.testing.assert_array_equal(t.g_v, [1, 1, -1, 1, 1, -1])
    np.testing.assert_array_equal(t.g_z, [1, 1])


def test_coefficient_tables_single_user_split():
    t = build_coefficient_tables(1.0, 0.0)
    np.testing.assert_allclose(t.psi, [1.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(t.zeta, [0.0, 0.0, 1.0, 4.0, 1.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(t.xi, np.ones(6), rtol=1e-12)


def test_coefficient_tables_are_read_only():
    t = build_coefficient_tables(0.8, 0.2)
    for arr in (t.psi, t.zeta, t.xi, t.g_v, t.g_z):
        with pytest.raises(ValueError):
            arr[0] = 99.0


def test_coefficient_tables_reject_bad_splits():
    with pytest.raises(ValueError):
        build_coefficient_tables(0.8, 0.1)
    with pytest.raises(ValueError):
        build_coefficient_tables(0.4, 0.6)


@given(st.floats(min_value=0.5, max_value=1.0))
def test_psi_product_identity(alpha1):
    # (1 + 2*sqrt(a1*a2)) * (1 - 2*sqrt(a1*a2)) = 1 - 4*a1*a2
    t = build_coefficient_tables(alpha1, 1.0 - alpha1)
    assert t.psi[0] * t.psi[1] == pytest.approx(1.0 - 4.0 * alpha1 * (1.0 - alpha1), abs=1e-12)


def _budget(sigma_h_sq, sigma_tilde_sq):
    return LinkBudget(sigma_h_sq=sigma_h_sq, sigma_tilde_sq=sigma_tilde_sq)


def test_mean_sinr_m1_hand_value():
    # P = 10, estimate variance 0.0575, k = 0.175, eps var 0.005, amp^2 = 1.8:
    # numerator 10 * 1.8 * 0.0575 = 1.035
    # denominator 1 + 2*10*0.030625*0.0575 + 2*(0.030625 + 1.8)*10*0.005
    #           = 1 + 0.03521875 + 0.1830625 = 1.21828125
    got = mean_sinr(10.0, _budget(0.0625, 0.0575), 0.175, 0.005, 1.0, 1.8, 1.8)
    assert isinstance(got, float)
    assert got == pytest.approx(1.035 / 1.21828125, rel=1e-14)


def test_mean_sinr_m2_hand_value():
    # P = 10, estimate variance 0.245, k = 0.175, zeta = 0.2, xi = 1.8:
    # numerator 10 * 0.2 * 0.245 = 0.49
    # denominator 1 + 2*10*0.030625*0.245 + 2*(0.030625 + 1.8)*10*0.005
    #           = 1 + 0.1500625 + 0.1830625 = 1.333125
    got = mean_sinr(10.0, _budget(0.25, 0.245), 0.175, 0.005, 1.0, 0.2, 1.8)
    assert got == pytest.approx(0.49 / 1.333125, rel=1e-14)


def test_mean_sinr_zero_power():
    b = _budget(0.0625, 0.0575)
    assert mean_sinr(0.0, b, 0.175, 0.005, 1.0, 1.8, 1.8) == 0.0
    assert mean_sinr(0.0, b, 0.175, 0.005, 1.0, 0.2, 1.8) == 0.0


def test_mean_sinr_clean_reduces_to_average_snr():
    b = _budget(0.25, 0.25)
    assert mean_sinr(8.0, b, 0.0, 0.0, 2.0, 1.0, 1.0) == pytest.approx(8.0 * 0.25 / 2.0, rel=1e-15)


def test_mean_sinr_accepts_arrays():
    b = _budget(0.0625, 0.0575)
    amps = np.array([1.8, 0.2])
    got = mean_sinr(10.0, b, 0.175, 0.005, 1.0, amps, amps)
    assert got.shape == (2,)
    assert got[0] > got[1] > 0


def test_mean_sinr_strictly_increasing_in_power_when_clean():
    b = _budget(0.0625, 0.0625)
    values = [mean_sinr(p, b, 0.0, 0.0, 1.0, 1.8, 1.8) for p in (0.1, 1.0, 10.0, 100.0)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_mean_sinr_strictly_decreasing_in_impairments():
    b = _budget(0.0625, 0.0575)
    by_k = [mean_sinr(10.0, b, k, 0.005, 1.0, 1.8, 1.8) for k in (0.0, 0.1, 0.2)]
    assert by_k[0] > by_k[1] > by_k[2]
    by_eps = [mean_sinr(10.0, b, 0.175, e, 1.0, 1.8, 1.8) for e in (0.0, 0.005, 0.02)]
    assert by_eps[0] > by_eps[1] > by_eps[2]


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_mean_sinr_homogeneity(P, c):
    """Scaling transmit power and noise together leaves the SINR unchanged."""
    b = _budget(0.0625, 0.0575)
    base = mean_sinr(P, b, 0.175, 0.005, 1.0, 1.8, 1.8)
    scaled = mean_sinr(c * P, b, 0.175, 0.005, c * 1.0, 1.8, 1.8)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_sinr_limit_matches_formula_and_large_power():
    b = _budget(0.0625, 0.0575)
    lim = mean_sinr_limit(b, 0.175, 0.005, 1.8, 1.8)
    k2 = 0.175 ** 2
    expect = 1.8 * 0.0575 / (2 * k2 * 0.0575 + 2 * (k2 + 1.8) * 0.005)
    assert lim == pytest.approx(expect, rel=1e-14)
    at_huge_power = mean_sinr(1e12, b, 0.175, 0.005, 1.0, 1.8, 1.8)
    assert at_huge_power == pytest.approx(lim, rel=1e-9)
    lim2 = mean_sinr_limit(b, 0.175, 0.005, 0.2, 1.8)
    assert lim2 == pytest.approx(
        0.2 * 0.0575 / (2 * k2 * 0.0575 + 2 * (k2 + 1.8) * 0.005), rel=1e-14)


def test_sinr_limit_degenerate_cases():
    b = _budget(0.0625, 0.0575)
    assert mean_sinr_limit(b, 0.0, 0.0, 1.8, 1.8) == np.inf
    assert mean_sinr_limit(b, 0.0, 0.0, 0.0, 0.0) == 0.0
    amps = np.array([1.8, 0.0])
    got = mean_sinr_limit(b, 0.0, 0.0, amps, amps)
    assert got[0] == np.inf and got[1] == 0.0


def test_mean_sinr_rejects_bad_inputs():
    b = _budget(0.0625, 0.0575)
    with pytest.raises(ValueError):
        mean_sinr(-1.0, b, 0.175, 0.005, 1.0, 1.8, 1.8)
    with pytest.raises(ValueError):
        mean_sinr(10.0, b, -0.1, 0.005, 1.0, 1.8, 1.8)
    with pytest.raises(ValueError):
        mean_sinr(10.0, b, 0.175, -0.005, 1.0, 1.8, 1.8)
    with pytest.raises(ValueError):
        mean_sinr(10.0, b, 0.175, 0.005, 0.0, 1.8, 1.8)
    with pytest.raises(ValueError):
        mean_sinr(10.0, b, 0.175, 0.005, 1.0, -1.8, -1.8)


def test_config_is_immutable():
    cfg = SystemConfig()
    with pytest.raises(Exception):
        cfg.P_s = 2.0
    t = CoefficientTables(psi=[1.8, 0.2], g_z=[1, 1],
                          zeta=[0.2, 0.2, 1.8, 5.0, 0.2, 1.8],
                          xi=[1.8, 0.2, 1.8, 1.8, 0.2, 0.2],
                          g_v=[1, 1, -1, 1, 1, -1])
    assert not t.psi.flags.writeable
