"""Regenerate the benchmark's correctness references.

    python3 benchmarks/make_references.py

Writes two files under ``benchmarks/references/``:

* ``closed_form.npz``: ``scheme_ber`` on the whole closed-form grid and
  ``scheme_ber_floor`` on every (hwi, alpha1) pair.  Workload outputs must
  match them to floating-point rounding.
* ``monte_carlo.json``: for every scenario a Monte Carlo workload runs, the
  closed-form value of each scheme and user, and a Monte Carlo BER from ten
  times the workload's symbol count on a seed no workload uses.  Workload
  rows must lie within ``workloads.Z_MAX`` combined standard errors of it.

Run it only when the model itself changes on purpose; the references pin
the outputs of the commit they were made from.  Takes about two minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import nomalink  # noqa: E402
import workloads as w  # noqa: E402
from nomalink import analytic, experiments, simulator  # noqa: E402
from nomalink.model import SystemConfig  # noqa: E402

REFERENCE_FACTOR = 10


def closed_form_reference():
    ber = np.empty((len(w.CF_HWI), len(w.CF_ALPHA1), len(w.CF_SNR_DB), len(w.SCHEME_USERS)))
    floor = np.empty((len(w.CF_HWI), len(w.CF_ALPHA1), len(w.SCHEME_USERS)))
    base = SystemConfig.defaults()
    for i, k in enumerate(w.CF_HWI):
        for j, alpha1 in enumerate(w.CF_ALPHA1):
            cfg_ij = base.with_hwi(k).with_alpha1(alpha1)
            for c, (scheme, user) in enumerate(w.SCHEME_USERS):
                floor[i, j, c] = analytic.scheme_ber_floor(cfg_ij, scheme, user)
                for s, snr in enumerate(w.CF_SNR_DB):
                    ber[i, j, s, c] = analytic.scheme_ber(cfg_ij.with_snr_db(snr), scheme, user)
    if not (np.isfinite(ber).all() and np.isfinite(floor).all()):
        raise SystemExit("closed-form grid produced non-finite values")
    return ber, floor


def monte_carlo_reference():
    spec = experiments.parse_config(w.sweep_config_text(w.SWEEP_SYMBOLS))
    if spec.config_at(w.MC_REF_SNR_DB) != SystemConfig.defaults(snr_db=w.MC_REF_SNR_DB):
        raise SystemExit("sweep-snr and mc-ref disagree on the 20 dB scenario")
    scenarios = {}
    for snr in w.SWEEP_GRID:
        cfg = spec.config_at(snr)
        symbols = w.SWEEP_SYMBOLS
        if snr == w.MC_REF_SNR_DB:
            symbols = max(symbols, w.MC_REF_SYMBOLS)
        n = REFERENCE_FACTOR * symbols
        entry = {"n_symbols": n, "seed": w.REFERENCE_SEED, "analytic": {}, "monte-carlo": {}}
        for scheme in analytic.SCHEMES:
            t0 = time.perf_counter()
            mc = simulator.simulate(cfg, scheme, simulator.SimSpec(n_symbols=n,
                                                                   seed=w.REFERENCE_SEED))
            print(f"{w.scenario_key(snr)} {scheme}: {n} symbols in "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
            for user in analytic.USERS:
                entry["analytic"][f"{scheme}/{user}"] = analytic.scheme_ber(cfg, scheme, user)
                entry["monte-carlo"][f"{scheme}/{user}"] = {
                    "errors": getattr(mc, f"errors_{user}"),
                    "ber": mc.ber(user),
                    "std_err": mc.std_err(user),
                }
        scenarios[w.scenario_key(snr)] = entry
    return scenarios


def main():
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    ber, floor = closed_form_reference()
    np.savez_compressed(w.CLOSED_FORM_REFERENCE, snr_db=np.asarray(w.CF_SNR_DB),
                        hwi_k=np.asarray(w.CF_HWI), alpha1=np.asarray(w.CF_ALPHA1),
                        ber=ber, floor=floor)
    print(f"wrote {w.CLOSED_FORM_REFERENCE.name}: {ber.size + floor.size} values")
    doc = {
        "nomalink": nomalink.__version__,
        "numpy": np.__version__,
        "reference_factor": REFERENCE_FACTOR,
        "scenarios": monte_carlo_reference(),
    }
    w.MC_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {w.MC_REFERENCE.name}")


if __name__ == "__main__":
    main()
