"""Scenario types, coefficient tables and mean-SINR formulas."""

import math
import pickle
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from nomalink.analytic import SCHEMES, USERS, scheme_ber, scheme_ber_floor
from nomalink.model import (
    LINKS,
    CoefficientTables,
    LinkBudget,
    SystemConfig,
    build_coefficient_tables,
    mean_sinr,
    mean_sinr_limit,
)
from nomalink.simulator import SimSpec, simulate


def test_link_variance_values():
    # the channel variance of a link of length d is d ** -a
    cfg = SystemConfig()
    assert cfg.link_budget("sr").sigma_h_sq == 1.0
    assert cfg.link_budget("s1").sigma_h_sq == 0.0625
    assert cfg.link_budget("r1").sigma_h_sq == pytest.approx(1.0 / 9.0, rel=1e-15)


@pytest.mark.parametrize("d,a", [(0.0, 2.0), (-1.0, 2.0), (2.0, 0.0), (2.0, -1.0)])
def test_link_variance_rejects_nonpositive(d, a):
    with pytest.raises(ValueError):
        SystemConfig(d_sr=d, a=a)


def test_link_budget_from_distance():
    b = SystemConfig(d_s1=4.0, a=2.0, sigma_eps_sq=0.005).link_budget("s1")
    assert b.sigma_h_sq == 0.0625
    assert b.sigma_tilde_sq == pytest.approx(0.0575, rel=1e-15)


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
    {"P_r": -1.0},
    {"N0": 0.0},
    {"alpha1": 0.3, "alpha2": 0.7},      # far user must get the larger share
    {"alpha1": 0.8, "alpha2": 0.3},      # shares must sum to one
    {"alpha1": 1.2, "alpha2": -0.2},
    {"k_sr": -0.1},
    {"sigma_eps_sq": -0.005},
    {"sigma_eps_sq": 0.07},              # exceeds the weakest link variance 1/16
    {"sigma_eps_sq": 0.0625},            # equals it: no usable estimate remains
    {"k_s1": math.nan},
    {"P_s": math.inf},
    {"sigma_eps_sq": math.nan},
    {"N0": -math.inf},
    {"alpha1": math.nan, "alpha2": math.nan},
    {"d_s1": 1e-200},                    # d ** -a past the float range
    {"d_s1": 0.01, "a": 400.0},
])
def test_config_rejects_invalid(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        SystemConfig(**kw)


def test_link_accessors():
    cfg = SystemConfig(P_s=2.0, P_r=3.0, k_r1=0.05)
    assert cfg.link_budget("s1").sigma_tilde_sq == pytest.approx(0.0575)
    assert cfg.link_budget("r1").sigma_h_sq == pytest.approx(1.0 / 9.0)
    assert cfg.power("s1") == 2.0 and cfg.power("sr") == 2.0
    assert cfg.power("r1") == 3.0 and cfg.power("r2") == 3.0
    assert cfg.hwi("r1") == 0.05 and cfg.hwi("s2") == 0.175
    for link in ("s1", "s2", "sr", "r1", "r2"):
        assert cfg.sigma_tilde_sq(link) == cfg.link_budget(link).sigma_tilde_sq
    for link in ("rx", "S1", "", None, ["s1"]):
        for accessor in (cfg.link_budget, cfg.sigma_tilde_sq, cfg.power, cfg.hwi):
            with pytest.raises(ValueError, match="unknown link"):
                accessor(link)


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
    t = build_coefficient_tables(SystemConfig())
    np.testing.assert_allclose(t.psi, [1.8, 0.2], rtol=1e-12)
    np.testing.assert_allclose(t.zeta, [0.2, 0.2, 1.8, 5.0, 0.2, 1.8], rtol=1e-12)
    np.testing.assert_allclose(t.xi, [1.8, 0.2, 1.8, 1.8, 0.2, 0.2], rtol=1e-12)
    np.testing.assert_array_equal(t.g_v, [1, 1, -1, 1, 1, -1])
    np.testing.assert_array_equal(t.g_z, [1, 1])


def test_coefficient_tables_single_user_split():
    t = build_coefficient_tables(SystemConfig(alpha1=1.0, alpha2=0.0))
    np.testing.assert_allclose(t.psi, [1.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(t.zeta, [0.0, 0.0, 1.0, 4.0, 1.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(t.xi, np.ones(6), rtol=1e-12)


def test_coefficient_tables_are_read_only():
    t = build_coefficient_tables(SystemConfig())
    for arr in (t.psi, t.zeta, t.xi, t.g_v, t.g_z):
        with pytest.raises(TypeError):
            arr[0] = 99.0
    with pytest.raises(Exception):
        t.psi = (1.0, 1.0)


@given(st.floats(min_value=0.5, max_value=1.0))
def test_psi_product_identity(alpha1):
    # (1 + 2*sqrt(a1*a2)) * (1 - 2*sqrt(a1*a2)) = 1 - 4*a1*a2
    t = build_coefficient_tables(SystemConfig().with_alpha1(alpha1))
    assert t.psi[0] * t.psi[1] == pytest.approx(1.0 - 4.0 * alpha1 * (1.0 - alpha1), abs=1e-12)


def test_mean_sinr_m1_hand_value():
    # P = 10, estimate variance 0.0575, k = 0.175, eps var 0.005, amp^2 = 1.8:
    # numerator 10 * 1.8 * 0.0575 = 1.035
    # denominator 1 + 2*10*0.030625*0.0575 + 2*(0.030625 + 1.8)*10*0.005
    #           = 1 + 0.03521875 + 0.1830625 = 1.21828125
    got = mean_sinr(SystemConfig(P_s=10.0), "s1", 1.8, 1.8)
    assert isinstance(got, float)
    assert got == pytest.approx(1.035 / 1.21828125, rel=1e-14)


def test_mean_sinr_m2_hand_value():
    # P = 10, estimate variance 0.245, k = 0.175, zeta = 0.2, xi = 1.8:
    # numerator 10 * 0.2 * 0.245 = 0.49
    # denominator 1 + 2*10*0.030625*0.245 + 2*(0.030625 + 1.8)*10*0.005
    #           = 1 + 0.1500625 + 0.1830625 = 1.333125
    got = mean_sinr(SystemConfig(P_s=10.0), "s2", 0.2, 1.8)
    assert got == pytest.approx(0.49 / 1.333125, rel=1e-14)


def test_mean_sinr_zero_power():
    cfg = SystemConfig(P_s=0.0)
    assert mean_sinr(cfg, "s1", 1.8, 1.8) == 0.0
    assert mean_sinr(cfg, "s1", 0.2, 1.8) == 0.0


def test_mean_sinr_clean_reduces_to_average_snr():
    cfg = SystemConfig(P_s=8.0, N0=2.0, k_s2=0.0, sigma_eps_sq=0.0)
    assert mean_sinr(cfg, "s2", 1.0, 1.0) == pytest.approx(8.0 * 0.25 / 2.0, rel=1e-15)


def test_mean_sinr_accepts_arrays():
    # sequences of branches give one SINR per branch, each equal to the
    # single-branch value
    cfg = SystemConfig(P_s=10.0)
    amps = np.array([1.8, 0.2])
    got = mean_sinr(cfg, "s1", amps, amps)
    assert isinstance(got, tuple) and len(got) == 2
    assert got[0] > got[1] > 0
    assert got == (mean_sinr(cfg, "s1", 1.8, 1.8), mean_sinr(cfg, "s1", 0.2, 0.2))
    assert mean_sinr_limit(cfg, "s1", (1.8, 0.2), [1.8, 1.8]) == \
        (mean_sinr_limit(cfg, "s1", 1.8, 1.8), mean_sinr_limit(cfg, "s1", 0.2, 1.8))


def test_mean_sinr_strictly_increasing_in_power_when_clean():
    values = [mean_sinr(SystemConfig(P_s=p, k_s1=0.0, sigma_eps_sq=0.0), "s1", 1.8, 1.8)
              for p in (0.1, 1.0, 10.0, 100.0)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_mean_sinr_strictly_decreasing_in_impairments():
    by_k = [mean_sinr(SystemConfig(P_s=10.0, k_s1=k), "s1", 1.8, 1.8) for k in (0.0, 0.1, 0.2)]
    assert by_k[0] > by_k[1] > by_k[2]
    by_eps = [mean_sinr(SystemConfig(P_s=10.0, sigma_eps_sq=e), "s1", 1.8, 1.8)
              for e in (0.0, 0.005, 0.02)]
    assert by_eps[0] > by_eps[1] > by_eps[2]


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_mean_sinr_homogeneity(P, c):
    """Scaling transmit power and noise together leaves the SINR unchanged."""
    base = mean_sinr(SystemConfig(P_s=P), "s1", 1.8, 1.8)
    scaled = mean_sinr(SystemConfig(P_s=c * P, N0=c * 1.0), "s1", 1.8, 1.8)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_sinr_limit_matches_formula_and_large_power():
    cfg = SystemConfig()
    lim = mean_sinr_limit(cfg, "s1", 1.8, 1.8)
    k2 = 0.175 ** 2
    expect = 1.8 * 0.0575 / (2 * k2 * 0.0575 + 2 * (k2 + 1.8) * 0.005)
    assert lim == pytest.approx(expect, rel=1e-14)
    at_huge_power = mean_sinr(SystemConfig(P_s=1e12), "s1", 1.8, 1.8)
    assert at_huge_power == pytest.approx(lim, rel=1e-9)
    lim2 = mean_sinr_limit(cfg, "s1", 0.2, 1.8)
    assert lim2 == pytest.approx(
        0.2 * 0.0575 / (2 * k2 * 0.0575 + 2 * (k2 + 1.8) * 0.005), rel=1e-14)


def test_sinr_limit_degenerate_cases():
    clean = SystemConfig(k_s1=0.0, sigma_eps_sq=0.0)
    assert mean_sinr_limit(clean, "s1", 1.8, 1.8) == np.inf
    assert mean_sinr_limit(clean, "s1", 0.0, 0.0) == 0.0
    amps = np.array([1.8, 0.0])
    got = mean_sinr_limit(clean, "s1", amps, amps)
    assert got[0] == np.inf and got[1] == 0.0


def test_mean_sinr_rejects_bad_inputs():
    # every scenario number is checked by SystemConfig; the SINR functions
    # check only the branch amplitudes their callers pass
    cfg = SystemConfig(P_s=10.0)
    for sinr in (mean_sinr, mean_sinr_limit):
        with pytest.raises(ValueError, match="nonnegative"):
            sinr(cfg, "s1", -1.8, 1.8)
        with pytest.raises(ValueError, match="nonnegative"):
            sinr(cfg, "s1", 1.8, -1.8)
        with pytest.raises(ValueError, match="nonnegative"):
            sinr(cfg, "s1", np.array([1.8, 0.2]), np.array([1.8, -0.2]))
        with pytest.raises(ValueError, match="nonnegative"):
            sinr(cfg, "s1", math.nan, 1.8)
        with pytest.raises(ValueError, match="nonnegative"):
            sinr(cfg, "s1", (1.8, 0.2), (1.8, math.nan))
        with pytest.raises(ValueError, match="finite and nonnegative, got inf and 1.8"):
            sinr(cfg, "s1", math.inf, 1.8)
        with pytest.raises(ValueError, match="finite and nonnegative, got 0.2 and inf"):
            sinr(cfg, "s1", (1.8, 0.2), (1.8, math.inf))
        with pytest.raises(ValueError, match="unknown link"):
            sinr(cfg, "rx", 1.8, 1.8)


_CLEAN = {"sigma_eps_sq": 0.0, **{f"k_{link}": 0.0 for link in LINKS}}


@pytest.mark.parametrize("kw,k", [({}, 0.175), (_CLEAN, 0.0)])
def test_sinr_refuses_a_branch_past_the_float_range(kw, k):
    """Past about 3076 dB, 2 (k^2 + air) P overflows: with impairments the
    SINR would read 0 (noma u1 0.296, above its floor), without them
    inf * 0 = NaN.  Each scheme refuses, naming the link, P and k."""
    cfg = SystemConfig(P_s=5e307, P_r=5e307, **kw)
    for scheme in SCHEMES:
        for user in USERS:
            link = "sr" if scheme == "cnoma" else "s" + user[1]
            with pytest.raises(ValueError, match=re.escape(
                    f"the mean SINR of link {link} leaves the float range "
                    f"at P=5e+307 and k={k}")):
                scheme_ber(cfg, scheme, user)
    # a little below, every branch is in range and the BER sits on its floor
    below = SystemConfig(P_s=1e307, P_r=1e307, **kw)
    for scheme in SCHEMES:
        for user in USERS:
            assert scheme_ber(below, scheme, user) == pytest.approx(
                scheme_ber_floor(below, scheme, user), rel=1e-9)
    # the floor computes at unit power, where a huge channel variance
    # (d = 1e-154, variance 1e308) overflows the numerator instead
    near = SystemConfig(d_s1=1e-154, **kw)
    with pytest.raises(ValueError, match=re.escape("at P=1.0 and k=")):
        mean_sinr_limit(near, "s1", 1.8, 1.8)


_DISTANCE = st.floats(min_value=0.1, max_value=10.0)
_AMPLITUDE = st.floats(min_value=0.0, max_value=1e3)


@st.composite
def _scenarios(draw):
    """A valid scenario with powers up to 1e6 (60 dB) and noise 1e-3 to 1e3."""
    kw = {f"d_{link}": draw(_DISTANCE) for link in LINKS}
    kw.update({f"k_{link}": draw(st.sampled_from([0.0, 0.175]) | st.floats(0.0, 0.4))
               for link in LINKS})
    try:
        return SystemConfig(
            a=draw(st.floats(min_value=1.0, max_value=4.0)),
            P_s=draw(st.just(0.0) | st.floats(min_value=1e-2, max_value=1e6)),
            P_r=draw(st.floats(min_value=0.0, max_value=1e6)),
            N0=draw(st.floats(min_value=1e-3, max_value=1e3)),
            sigma_eps_sq=draw(st.just(0.0) | st.floats(min_value=0.0, max_value=1e-3)),
            **kw).with_alpha1(draw(st.floats(min_value=0.5, max_value=1.0)))
    except ValueError:
        assume(False)


@given(_scenarios(), st.sampled_from(LINKS),
       _AMPLITUDE | st.lists(_AMPLITUDE, min_size=1, max_size=6).map(tuple),
       st.data())
def test_sinrs_equal_the_written_formulas_bit_for_bit(cfg, link, amps, data):
    """Both SINRs equal their formulas as written out, in the same order of
    operations, down to the last bit: the finite-power one, and the floor
    with 0/0 taken as zero signal."""
    one = isinstance(amps, float)
    air = (data.draw(_AMPLITUDE) if one
           else data.draw(st.lists(_AMPLITUDE, min_size=len(amps), max_size=len(amps))))
    st_, P, k = cfg.sigma_tilde_sq(link), cfg.power(link), cfg.hwi(link)
    N0, eps = cfg.N0, cfg.sigma_eps_sq

    def floor(amp, air):
        num, den = amp * st_, 2.0 * k * k * st_ + 2.0 * (k * k + air) * eps
        return num / den if den > 0 else (0.0 if num == 0 else math.inf)

    def finite(amp, air):
        base = N0 + 2.0 * P * k * k * st_
        return P * amp * st_ / (base + 2.0 * (k * k + air) * P * eps)

    for sinr, formula in ((mean_sinr, finite), (mean_sinr_limit, floor)):
        got = sinr(cfg, link, amps, air)
        want = formula(amps, air) if one else tuple(map(formula, amps, air))
        assert repr(got) == repr(want)


def test_config_is_immutable():
    cfg = SystemConfig()
    with pytest.raises(Exception):
        cfg.P_s = 2.0
    with pytest.raises(Exception):
        cfg.link_budget("s1").sigma_tilde_sq = 1.0


def _records_from_fields(cfg):
    """Each link's (budget, power, hardware factor) and the split's tables,
    computed from the fields alone."""
    records = {}
    for link in LINKS:
        var = float(getattr(cfg, f"d_{link}")) ** -float(cfg.a)
        records[link] = (LinkBudget(sigma_h_sq=var, sigma_tilde_sq=var - cfg.sigma_eps_sq),
                         cfg.P_s if link.startswith("s") else cfg.P_r,
                         getattr(cfg, f"k_{link}"))
    r1, r2 = math.sqrt(cfg.alpha1), math.sqrt(cfg.alpha2)
    plus, minus = (r1 + r2) ** 2, (r1 - r2) ** 2
    tables = CoefficientTables(
        psi=(plus, minus), g_z=(1.0, 1.0),
        zeta=(cfg.alpha2, cfg.alpha2, plus, (2 * r1 + r2) ** 2, minus, (2 * r1 - r2) ** 2),
        xi=(plus, minus, plus, plus, minus, minus), g_v=(1.0, 1.0, -1.0, 1.0, 1.0, -1.0))
    return records, tables


def _check_records(cfg):
    records, tables = _records_from_fields(cfg)
    for link, (budget, power, hwi) in records.items():
        assert cfg.link_budget(link) == budget, (cfg, link)
        assert cfg.power(link) == power and cfg.hwi(link) == hwi, (cfg, link)
    assert build_coefficient_tables(cfg) == tables, cfg


def test_derived_records_follow_every_constructor():
    # a scenario derives its link records and tables once, when built; a
    # copy made by any constructor must derive its own, never keep its
    # source's
    base = SystemConfig.defaults()
    built = [
        SystemConfig(),
        base,
        SystemConfig.defaults(snr_db=30.0, hwi_k=0.05, d_s1=5.0, sigma_eps_sq=0.0),
        base.with_snr_db(40.0),
        base.with_hwi(0.3),
        base.with_alpha1(0.6),
        base.with_alpha1(1.0),
        base.with_hwi(0.1).with_alpha1(0.7).with_snr_db(-10.0),
        replace(base, P_r=7.0, k_r1=0.01, d_sr=1.5, a=2.5, sigma_eps_sq=0.02),
        replace(base.with_alpha1(0.9), P_s=0.0),
    ]
    for cfg in built:
        _check_records(cfg)
    # sources sharing a geometry or a split with their copies are untouched
    _check_records(base)
    assert base.link_budget("s1").sigma_h_sq == 0.0625 and base.power("r1") == 10.0


def test_derived_records_leave_equality_hash_repr_and_pickle_alone():
    base = SystemConfig.defaults(snr_db=20.0)
    same = base.with_hwi(0.3).with_hwi(0.175)
    assert same == base and hash(same) == hash(base)
    assert replace(base) == base and hash(replace(base)) == hash(base)
    assert base.with_snr_db(20.0) == base and base.with_snr_db(30.0) != base
    shown = ", ".join(f"{f.name}={getattr(base, f.name)!r}" for f in fields(base))
    assert repr(base) == f"SystemConfig({shown})"
    for cfg in (base, base.with_alpha1(0.6).with_snr_db(5.0)):
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and hash(copy) == hash(cfg)
        _check_records(copy)
        assert mean_sinr(copy, "s2", 0.2, 1.8) == mean_sinr(cfg, "s2", 0.2, 1.8)
        with pytest.raises(ValueError, match="unknown link"):
            copy.power("rx")


def test_numpy_scalar_fields_are_stored_as_floats():
    """A scenario built from numpy scalars stores Python floats, so it
    computes exactly as the scenario built from floats: the closed forms
    return floats, and the simulator's tail stays in float32."""
    wide = SystemConfig.defaults(snr_db=np.float64(17.3), hwi_k=np.float64(0.175))
    plain = SystemConfig.defaults(snr_db=17.3, hwi_k=0.175)
    assert all(type(getattr(wide, f.name)) is float for f in fields(wide))
    assert wide == plain
    for scheme in SCHEMES:
        for user in USERS:
            got = scheme_ber(wide, scheme, user)
            assert type(got) is float and repr(got) == repr(scheme_ber(plain, scheme, user))
        spec = SimSpec(n_symbols=20_000, seed=5)
        assert simulate(wide, scheme, spec) == simulate(plain, scheme, spec)
    assert type(SystemConfig(d_s1=np.int64(4), k_s1=0).k_s1) is float
