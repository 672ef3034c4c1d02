"""Symbol-level simulation against the closed forms.

Two runs of the same grid. With a clean transceiver at 20 dB the
simulation lands within Monte Carlo noise of the closed forms: the
single links are exact without impairments, and the relay compositions,
which are not exact, miss by at most 1.5 % relative here, inside the
noise of this run (the simulator suite checks the relayed schemes
against an exact clean-case quadrature instead).
With impairments on, the formulas substitute the mean estimate power
into the conditional noise denominators, and that approximation grows
optimistic-to-pessimistic with SNR; the simulation is the reference.
The `nomalink validate` CLI command runs the same comparison at full
budget.

Run:  python3 demos/02_monte_carlo_check.py
"""

import math

from nomalink import experiments
from nomalink.analytic import prop_error
from nomalink.experiments import SweepSpec
from nomalink.model import SystemConfig
from nomalink.simulator import SimSpec, conditional_prop_stats

sim = SimSpec(n_symbols=200_000, seed=11)


def at_20_db(label, **kw):
    """Both methods on a one-point SNR sweep, paired by ``experiments.compare``."""
    print(label)
    spec = SweepSpec("snr_db", (20.0,), SystemConfig.defaults(**kw), ("noma", "cnoma-wdl"),
                     sim=sim)
    for r in experiments.compare(experiments.run_sweep(spec), 0.0):
        print(f"  {r['scheme']:9s} {r['user']}  analytic={r['analytic']:.5f}  "
              f"simulated={r['mc']:.5f}  ({r['sigmas']:+.1f} sigma)")
    print()


at_20_db("Clean transceiver at 20 dB (expect < 3 sigma):", hwi_k=0.0, sigma_eps_sq=0.0)
at_20_db("Reference impairments at 20 dB (formulas approximate, gap is real):")

print("Conditional view of a relayed error: far-user error rate given a relay slip")
print("against the amplitude-race prediction prop_error, which neglects noise:")


def race(cfg, label):
    predicted = prop_error(cfg, "u1")
    stats = conditional_prop_stats(cfg, SimSpec(n_symbols=1_000_000, seed=1))
    snr_db = 10.0 * math.log10(cfg.P_s / cfg.N0)
    rate = stats.rate("u1")
    sigma = (rate - predicted) / stats.std_err("u1")
    print(f"  {label} at {snr_db:.0f} dB: measured {rate:.4f} "
          f"over {stats.events_u1} events, predicted {predicted:.4f} ({sigma:+.1f} sigma)")


race(SystemConfig.defaults(snr_db=0.0), "reference impairments")
race(SystemConfig.defaults(snr_db=40.0, hwi_k=0.0, sigma_eps_sq=0.0, k_sr=0.3),
     "clean s1/r1, relay slips from k_sr = 0.3")
print("  at 0 dB additive noise pulls the measured rate toward 1/2; where")
print("  noise is negligible the race model holds (acceptance check 6).")
