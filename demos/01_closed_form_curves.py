"""Closed-form BER curves for the three downlink schemes.

Walks the average-BER formulas over an SNR grid with the reference
impairment levels (k = 0.175, sigma_eps^2 = 0.005), then shows the
error floors those impairments impose: past roughly 40 dB the curves
stop improving, and the infinite-power limit matches the flattened
value.

Run:  python3 demos/01_closed_form_curves.py
"""

from nomalink.analytic import SCHEMES, USERS, scheme_ber, scheme_ber_floor
from nomalink.model import SystemConfig

snrs = range(0, 45, 5)

print("Average BER from the closed forms (impairments on)")
header = "snr_db " + "  ".join(f"{s}/{u}" for s in SCHEMES for u in USERS)
print(header)
for snr_db in snrs:
    cfg = SystemConfig.defaults(snr_db=snr_db)
    cells = [f"{scheme_ber(cfg, s, u):.4f}" for s in SCHEMES for u in USERS]
    print(f"{snr_db:6d} " + "   ".join(cells))

print()
print("Error floors (infinite-power limit vs the curve at 80 dB)")
base = SystemConfig.defaults()
for scheme in SCHEMES:
    for user in USERS:
        floor = scheme_ber_floor(base, scheme, user)
        b80 = scheme_ber(base.with_snr_db(80.0), scheme, user)
        print(f"  {scheme:9s} {user}  floor={floor:.6f}  at 80 dB={b80:.6f}")

print()
print("The same grid with a clean transceiver (k = 0, perfect CSI):")
for snr_db in (0, 20, 40):
    cfg = SystemConfig.defaults(snr_db=snr_db, hwi_k=0.0, sigma_eps_sq=0.0)
    u1 = scheme_ber(cfg, "noma", "u1")
    print(f"  {snr_db:2d} dB  direct far user {u1:.6f}  (keeps falling, no floor)")
