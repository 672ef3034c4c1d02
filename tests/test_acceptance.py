"""Acceptance gate: one test per shipped claim, one verdict line each.

Every numbered check prints exactly one line of the form

    acceptance N: PASS - detail
    acceptance N: FAIL - detail

before asserting, so the suite output doubles as the acceptance report.
A test beside a check that reads only the closed forms asserts what the
simulated model does there, and prints nothing.
Check 1 fails and is left failing: ``analytic.scheme_ber`` approximates the
model the simulator realises, in three measured ways (1M symbols, seed 1).

(a) Each conditional noise denominator takes the mean estimate power in
    its distortion term before the fading average.  noma u1 stays within
    1.4 sigma up to 15 dB, then drifts to -12 sigma at 20 dB and -75 sigma
    at 30 dB.
(b) ``e2e_cnoma`` and ``_e2e_wdl`` compose the relay hops as independent
    binary channels.  That fails even with hardware and estimation clean:
    at 0 dB cnoma u1 is -33 sigma and cnoma-wdl u2 -214 sigma, while an
    exact quadrature (``exact_clean_ber`` in the simulator suite) is
    within 1.7 sigma.
(c) The signed branch sum in ``_e2e_wdl`` gives 0.534 for cnoma-wdl u2 at
    0 dB with the reference impairments, above 1/2, where the simulator
    measures 0.426.

Passing it needs new values from ``scheme_ber``.  The simulator is the
trusted reference: it is pinned independently by quadrature and
conditional-Gaussian oracles in the module suites.  The README summarizes
the analysis.
"""

import math
import time
from dataclasses import replace

import numpy as np

from nomalink import analytic, experiments, simulator
from nomalink.model import SystemConfig, build_coefficient_tables, mean_sinr


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_acceptance_01_simulation_agrees_with_closed_forms():
    """All schemes and users over 0..30 dB: Monte Carlo within 3 standard
    errors of the closed form wherever the closed form predicts at least
    1e-4, with the reference impairment levels, inside a 10 minute budget."""
    started = time.monotonic()
    spec = experiments.SweepSpec("snr_db", tuple(range(0, 35, 5)), SystemConfig.defaults(),
                                 sim=simulator.SimSpec(n_symbols=1_000_000, seed=1))
    records = experiments.compare(experiments.run_sweep(spec), 1e-4)
    rows = []
    for r in records:
        rows.append(r["ok"])
        print(f"  {'ok' if r['ok'] else 'BAD'} snr={r['snr_db']:2.0f} {r['scheme']:9s} "
              f"{r['user']} analytic={r['analytic']:.6f} mc={r['mc']:.6f} "
              f"({r['sigmas']:+7.2f} sigma)")
    elapsed = time.monotonic() - started
    bad = rows.count(False)
    ok = bad == 0 and elapsed < 600.0
    _verdict(1, ok, f"{len(rows) - bad}/{len(rows)} points within 3 standard errors, "
                    f"{elapsed:.0f}s elapsed")
    assert ok, (f"{bad} of {len(rows)} points deviate beyond 3 standard errors; "
                "the closed forms approximate the simulated model (causes (a)-(c) "
                "in the module docstring): the relayed schemes miss from 0 dB on, "
                "the direct scheme once impairments dominate the noise")


def test_acceptance_02_classic_rayleigh_limit():
    """Single-user split with a clean transceiver must reproduce the
    textbook Rayleigh BPSK curve analytically (to 1e-12) and in simulation
    (to 3 standard errors)."""
    worst_gap = 0.0
    worst_sigma = 0.0
    for gamma in (0.1, 1.0, 10.0):
        cfg = SystemConfig(P_s=gamma * 16.0, P_r=gamma * 16.0, alpha1=1.0, alpha2=0.0,
                           k_s1=0, k_s2=0, k_sr=0, k_r1=0, k_r2=0, sigma_eps_sq=0.0)
        classic = 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))
        worst_gap = max(worst_gap, abs(analytic.scheme_ber(cfg, "noma", "u1") - classic))
        mc = simulator.simulate(cfg, "noma", simulator.SimSpec(n_symbols=1_000_000, seed=1))
        worst_sigma = max(worst_sigma, abs(mc.ber("u1") - classic) / mc.std_err("u1"))
    ok = worst_gap <= 1e-12 and worst_sigma <= 3.0
    _verdict(2, ok, f"analytic gap {worst_gap:.1e}, simulation {worst_sigma:.2f} sigma")
    assert ok


def test_acceptance_03_error_floor():
    """With impairments left in, the curves must flatten (60 versus 80 dB
    within 1% relative) onto the value computed from the infinite-power
    SINR limits (to 1e-9, floor evaluated at 120 dB where the finite-power
    curve has converged to it)."""
    worst_rel = 0.0
    worst_floor_gap = 0.0
    base = SystemConfig.defaults()
    for scheme in analytic.SCHEMES:
        for user in analytic.USERS:
            b60 = analytic.scheme_ber(base.with_snr_db(60.0), scheme, user)
            b80 = analytic.scheme_ber(base.with_snr_db(80.0), scheme, user)
            b120 = analytic.scheme_ber(base.with_snr_db(120.0), scheme, user)
            floor = analytic.scheme_ber_floor(base, scheme, user)
            worst_rel = max(worst_rel, abs(b80 - b60) / b60)
            worst_floor_gap = max(worst_floor_gap, abs(b120 - floor))
    ok = worst_rel < 0.01 and worst_floor_gap <= 1e-9
    _verdict(3, ok, f"max 60-to-80 dB movement {worst_rel:.2e} relative, "
                    f"max floor gap {worst_floor_gap:.1e}")
    assert ok


def test_acceptance_04_hardware_quality_crossover():
    """In the hardware sweep at 40 dB the direct and relayed far-user
    curves must swap order at some quality factor inside [0.05, 0.15]."""
    ks = np.arange(0.05, 0.1501, 0.005)

    def gaps(snr_db):
        out = []
        for k in ks:
            cfg = SystemConfig.defaults(snr_db=snr_db, hwi_k=float(k))
            out.append(analytic.scheme_ber(cfg, "noma", "u1")
                       - analytic.scheme_ber(cfg, "cnoma", "u1"))
        return np.asarray(out)

    g40 = gaps(40.0)
    flips = np.flatnonzero(np.sign(g40[:-1]) * np.sign(g40[1:]) < 0)
    ok = flips.size > 0
    bracket = (f"k in [{ks[flips[0]]:.3f}, {ks[flips[0] + 1]:.3f}]" if ok
               else "no sign change")
    # the mid-SNR behavior is informational only: both orderings are legitimate
    g15 = gaps(15.0)
    mid = ("relayed better throughout" if np.all(g15 > 0)
           else "direct better throughout" if np.all(g15 < 0) else "mixed")
    _verdict(4, ok, f"crossover at {bracket} (at 15 dB: {mid}, unasserted)")
    assert ok


def test_simulated_relay_edge_has_no_crossover_in_check_4s_band():
    """Check 4's crossover belongs to the closed forms, not to the model
    they approximate: in simulation at 40 dB the relayed far user stays
    ahead of the direct one, by about 0.015 and 25 combined standard
    errors, at both ends of check 4's band of quality factors."""
    spec = simulator.SimSpec(n_symbols=200_000, seed=1)
    for k in (0.05, 0.15):
        cfg = SystemConfig.defaults(snr_db=40.0, hwi_k=k)
        noma, cnoma = (simulator.simulate(cfg, s, spec) for s in ("noma", "cnoma"))
        gap = noma.ber("u1") - cnoma.ber("u1")
        assert gap > 10.0 * math.hypot(noma.std_err("u1"), cnoma.std_err("u1")), (k, gap)


def test_acceptance_05_combined_scheme_wins_at_high_snr():
    """At 40 dB with reference impairments, direct-plus-relay combining
    must give the lowest closed-form BER for both users."""
    cfg = SystemConfig.defaults(snr_db=40.0)
    ok = True
    details = []
    for user in analytic.USERS:
        vals = {s: analytic.scheme_ber(cfg, s, user) for s in analytic.SCHEMES}
        ok = ok and min(vals, key=vals.get) == "cnoma-wdl"
        details.append(f"{user}: " + " ".join(f"{s}={v:.2e}" for s, v in vals.items()))
    _verdict(5, ok, "; ".join(details))
    assert ok


def _race_prediction(cfg: SystemConfig) -> float:
    return analytic.prop_error(cfg, "u1")


def test_acceptance_06_relay_error_propagation_statistic():
    """The closed forms model a propagated relay error as a race between
    the two combined copies of the far user's bit: the flipped relay copy
    wins with the relay's share of the mean branch energies P * sigma~^2
    (``analytic.prop_error``), additive noise neglected.  The check runs
    where that premise holds: 40 dB transmit SNR, s1 and r1 free of
    distortion and estimation error, relay slips caused only by distortion
    on the source-relay hop (k = 0.3).  At relay-to-source power ratios 1,
    4 and 1/4, which tell an energy race from an amplitude race, the
    simulation's conditional rate must match within 3 conditional standard
    errors, with at least 1000 conditioning events each.  The rate with the
    reference impairments at 0, 10 and 20 dB is printed, unasserted, to
    show how far additive noise pulls it toward 1/2."""
    spec = simulator.SimSpec(n_symbols=1_000_000, seed=1)
    base = SystemConfig.defaults(snr_db=40.0, hwi_k=0.0, sigma_eps_sq=0.0, k_sr=0.3)
    bad, details = [], []
    for ratio in (1.0, 4.0, 0.25):
        cfg = replace(base, P_r=ratio * base.P_s)
        predicted = _race_prediction(cfg)
        stats = simulator.conditional_prop_stats(cfg, spec)
        rate = stats.rate("u1")
        sigma = (rate - predicted) / stats.std_err("u1")
        if stats.events_u1 < 1_000 or abs(sigma) > 3.0:
            bad.append(ratio)
        details.append(f"P_r/P_s={ratio:g}: predicted {predicted:.4f}, measured "
                       f"{rate:.4f} over {stats.events_u1} events "
                       f"({sigma:+.1f} sigma)")
    for snr_db in (0.0, 10.0, 20.0):
        cfg = SystemConfig.defaults(snr_db=snr_db)
        predicted = _race_prediction(cfg)
        extra = simulator.conditional_prop_stats(cfg, spec)
        rate = extra.rate("u1")
        print(f"  context: reference impairments at {snr_db:.0f} dB, conditional rate "
              f"{rate:.4f} over {extra.events_u1} events, predicted "
              f"{predicted:.4f} ({(rate - predicted) / extra.std_err('u1'):+.1f} "
              "sigma, unasserted)")
    ok = not bad
    _verdict(6, ok, "; ".join(details))
    assert ok, f"conditional rate misses the race prediction at P_r/P_s in {bad}"


def test_acceptance_07_invariant_suite():
    """Range, monotonicity, propagation-branch invariance, SINR
    homogeneity and seed reproducibility, bundled."""
    failures = []

    # probabilities stay in range across a stress block
    for snr_db in (-10.0, 10.0, 40.0):
        for k in (0.0, 0.3):
            for eps in (0.0, 0.04):
                for alpha1 in (0.6, 0.95):
                    cfg = SystemConfig.defaults(snr_db=snr_db, hwi_k=k,
                                                sigma_eps_sq=eps).with_alpha1(alpha1)
                    for scheme in analytic.SCHEMES:
                        for user in analytic.USERS:
                            p = analytic.scheme_ber(cfg, scheme, user)
                            if not 0.0 <= p <= 1.0:
                                failures.append(f"range {scheme}/{user}")

    # far user improves with power, degrades with impairments
    for scheme in analytic.SCHEMES:
        by_snr = [analytic.scheme_ber(SystemConfig.defaults(snr_db=s), scheme, "u1")
                  for s in range(0, 45, 5)]
        if not all(hi >= lo for hi, lo in zip(by_snr, by_snr[1:])):
            failures.append(f"snr monotonicity {scheme}")
        by_k = [analytic.scheme_ber(SystemConfig.defaults(snr_db=20.0, hwi_k=k), scheme, "u1")
                for k in (0.0, 0.1, 0.2, 0.3)]
        if not all(lo <= hi for lo, hi in zip(by_k, by_k[1:])):
            failures.append(f"hardware monotonicity {scheme}")
        by_eps = [analytic.scheme_ber(SystemConfig.defaults(snr_db=20.0, sigma_eps_sq=e),
                                      scheme, "u1")
                  for e in (0.0, 0.005, 0.02)]
        if not all(lo <= hi for lo, hi in zip(by_eps, by_eps[1:])):
            failures.append(f"estimation monotonicity {scheme}")

    # the propagation probability is branch-index free: amplitudes cancel
    cfg = SystemConfig.defaults(snr_db=10.0)
    tables = build_coefficient_tables(cfg)
    for user, amps in (("1", tables.psi), ("2", tables.zeta)):
        d = cfg.P_s * cfg.link_budget("s" + user).sigma_tilde_sq
        r = cfg.P_r * cfg.link_budget("r" + user).sigma_tilde_sq
        shared = analytic.prop_error(cfg, "u" + user)
        if any(abs(amp * r / (amp * d + amp * r) - shared) > 1e-14 * shared
               for amp in amps):
            failures.append(f"propagation branch invariance u{user}")

    # mean SINRs depend on power only through P/N0
    for c in (1e-3, 7.0, 1e3):
        base, scaled = replace(cfg, P_s=3.0, N0=1.0), replace(cfg, P_s=c * 3.0, N0=c * 1.0)
        a = mean_sinr(base, "s1", 1.8, 1.8)
        b = mean_sinr(scaled, "s1", 1.8, 1.8)
        if abs(a - b) > 1e-9 * a:
            failures.append(f"m1 homogeneity c={c}")
        a = mean_sinr(base, "s1", 0.2, 1.8)
        b = mean_sinr(scaled, "s1", 0.2, 1.8)
        if abs(a - b) > 1e-9 * a:
            failures.append(f"m2 homogeneity c={c}")

    # a pinned seed pins every reported number
    sim = simulator.SimSpec(n_symbols=50_000, seed=42)
    for scheme in analytic.SCHEMES:
        if simulator.simulate(cfg, scheme, sim) != simulator.simulate(cfg, scheme, sim):
            failures.append(f"reproducibility {scheme}")
    spec = experiments.SweepSpec(swept_parameter="snr_db", grid=(0.0, 10.0),
                                 schemes=("noma",),
                                 sim=simulator.SimSpec(n_symbols=10_000, seed=9))
    if experiments.emit_csv(experiments.run_sweep(spec)) != \
            experiments.emit_csv(experiments.run_sweep(spec)):
        failures.append("sweep table reproducibility")

    ok = not failures
    _verdict(7, ok, "range, monotonicity, branch invariance, homogeneity, "
                    "reproducibility" if ok else "; ".join(failures))
    assert ok, failures


def test_acceptance_08_power_split_fairness_tradeoff():
    """Sweeping the far user's power share at 20 dB must improve the far
    user monotonically while the near user passes through an interior
    optimum."""
    grid = [round(0.55 + 0.05 * i, 2) for i in range(9)]
    base = SystemConfig.defaults(snr_db=20.0)
    u1 = [analytic.scheme_ber(base.with_alpha1(a), "noma", "u1") for a in grid]
    u2 = [analytic.scheme_ber(base.with_alpha1(a), "noma", "u2") for a in grid]
    u1_monotone = all(hi >= lo for hi, lo in zip(u1, u1[1:]))
    best = int(np.argmin(u2))
    interior = 0 < best < len(grid) - 1
    ok = u1_monotone and interior
    _verdict(8, ok, f"far user nonincreasing: {u1_monotone}; "
                    f"near user optimum at share {grid[best]:.2f} (interior: {interior})")
    assert ok
