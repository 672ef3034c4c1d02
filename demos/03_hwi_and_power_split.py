"""Two design sweeps: hardware quality and power allocation.

First, at high SNR, sweep the hardware quality factor k and watch the
direct and relayed far-user curves swap order: a relay helps until its
own transceiver distortion (two impaired hops) costs more than the
diversity it buys. Second, sweep the far user's power share at 20 dB:
the far user always wants more power, the near user has a sweet spot
because giving the far user too little power makes interference
cancellation unreliable.

The CLI runs the same sweeps with a Monte Carlo column and CSV output:

    nomalink sweep-hwi --methods analytic,mc --out hwi.csv
    nomalink sweep-pa  --methods analytic    --out pa.csv

Run:  python3 demos/03_hwi_and_power_split.py
"""

import numpy as np

from nomalink.analytic import scheme_ber
from nomalink.model import SystemConfig

print("Far-user BER vs hardware quality factor at 40 dB")
print("    k     direct    relayed   better")
previous = None
for k in np.arange(0.05, 0.1501, 0.01):
    cfg = SystemConfig.defaults(snr_db=40.0, hwi_k=float(k))
    direct = scheme_ber(cfg, "noma", "u1")
    relayed = scheme_ber(cfg, "cnoma", "u1")
    better = "direct" if direct < relayed else "relayed"
    marker = "  <- order swaps" if previous not in (None, better) else ""
    print(f"  {k:.3f}  {direct:.6f}  {relayed:.6f}  {better}{marker}")
    previous = better

print()
print("BER vs far-user power share at 20 dB (direct transmission)")
print("  share   far user   near user")
rows = []
for alpha1 in np.arange(0.55, 0.951, 0.05):
    cfg = SystemConfig.defaults(snr_db=20.0).with_alpha1(round(float(alpha1), 2))
    rows.append((cfg.alpha1, scheme_ber(cfg, "noma", "u1"),
                 scheme_ber(cfg, "noma", "u2")))
best_near = min(rows, key=lambda r: r[2])
for share, far, near in rows:
    marker = "  <- near-user optimum" if share == best_near[0] else ""
    print(f"  {share:.2f}   {far:.6f}   {near:.6f}{marker}")
