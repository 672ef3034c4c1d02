"""Closed-form average bit error rates over Rayleigh fading.

Every expression here averages an instantaneous Gaussian error probability
over exponentially distributed channel gains, with hardware distortion and
channel-estimation error folded into the effective noise of each detection
branch (see :mod:`nomalink.model`).  Three schemes are covered:

* ``noma``       - direct superposition-coded downlink, no relay;
* ``cnoma``      - two-hop decode-and-forward relaying, no direct links;
* ``cnoma-wdl``  - relaying plus direct links, maximum-ratio combining.

``scheme_ber`` is the single entry point used by sweeps and tests; the
lower-level pieces are exposed for composition and for validating each step
on its own.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from .model import SystemConfig, build_coefficient_tables, mean_sinr, mean_sinr_limit

SCHEMES = ("noma", "cnoma", "cnoma-wdl")
USERS = ("u1", "u2")

_PROB_TOL = 1e-12


def q_function(x) -> float | np.ndarray:
    """Gaussian tail probability Q(x)."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / np.sqrt(2.0))
    return out if out.ndim else float(out)


def _fade_term(delta_bar) -> np.ndarray:
    """Rayleigh average of Q(sqrt(2*g)) for g exponential with mean delta_bar.

    Returns (1/2) * (1 - sqrt(d/(1+d))) per entry; infinite means map to 0.
    """
    d = np.asarray(delta_bar, dtype=float)
    if np.any(d < 0):
        raise ValueError("mean SINRs must be nonnegative")
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.isinf(d), 1.0, d / (1.0 + d))
    return 0.5 * (1.0 - np.sqrt(ratio))


def aber_p2p_m1(delta_bars) -> float:
    """Average BER of the far user's bit on a single link.

    ``delta_bars`` holds the two per-branch mean SINRs (near user's bit
    agreeing / disagreeing).
    """
    d = np.asarray(delta_bars, dtype=float)
    if d.shape != (2,):
        raise ValueError(f"expected two branch SINRs, got shape {d.shape}")
    return float(np.mean(_fade_term(d)))


def aber_p2p_m2(delta_bars, g_v) -> float:
    """Average BER of the near user's bit on a single link (SIC receiver).

    ``delta_bars`` and ``g_v`` hold the six branch mean SINRs and signs.
    The signed sum must land in [0, 1]; anything further out than 1e-12
    indicates inconsistent branch inputs and raises.
    """
    d = np.asarray(delta_bars, dtype=float)
    g = np.asarray(g_v, dtype=float)
    if d.shape != (6,) or g.shape != (6,):
        raise ValueError("expected six branch SINRs and six signs")
    return _signed_fade_sum(d, g, "near-user branch sum")


def _signed_fade_sum(delta_bars, signs, label) -> float:
    return _checked_probability(float(np.sum(signs * _fade_term(delta_bars)) / 2.0), label)


def aber_mrc_pair(delta_bar_a: float, delta_bar_b: float) -> float:
    """Average BER of a bit decided from two maximum-ratio-combined branches.

    Branch mean SINRs may differ; equal means are handled by a symmetric
    relative perturbation of 1e-6, which matches the analytic limit well
    inside 1e-8.  A zero branch reduces to the single-branch form and an
    infinite branch drives the error to zero.
    """
    a, b = float(delta_bar_a), float(delta_bar_b)
    if a < 0 or b < 0:
        raise ValueError("mean SINRs must be nonnegative")
    if np.isinf(a) or np.isinf(b):
        return 0.0
    if abs(a - b) < 1e-9 * max(a, b, 1.0):
        mid = 0.5 * (a + b)
        a, b = mid * (1.0 + 1e-6), mid * (1.0 - 1e-6)
        if a == b:  # both zero
            return 0.5
    fa = a * np.sqrt(a / (1.0 + a))
    fb = b * np.sqrt(b / (1.0 + b))
    return float(0.5 * (1.0 - (fa - fb) / (a - b)))


def prop_error(phi_bar_direct: float, phi_bar_relay: float) -> float:
    """Probability that a flipped relay branch outweighs the direct branch.

    Both arguments are mean branch energies (power * amplitude^2 * estimate
    variance).  The additive noise is neglected, so only the ratio matters.
    """
    if phi_bar_direct < 0 or phi_bar_relay < 0:
        raise ValueError("branch energies must be nonnegative")
    total = phi_bar_direct + phi_bar_relay
    if total == 0:
        raise ValueError("at least one branch energy must be positive")
    return float(phi_bar_relay / total)


def e2e_cnoma(p_first_hop: float, p_second_hop: float) -> float:
    """End-to-end BER of two decode-and-forward hops (error iff exactly one hop errs)."""
    for p in (p_first_hop, p_second_hop):
        if not 0 <= p <= 1:
            raise ValueError(f"hop BER {p} outside [0, 1]")
    return p_first_hop + p_second_hop - 2.0 * p_first_hop * p_second_hop


def _e2e_wdl(p_sr, p_prop, p_coop, signs, label) -> float:
    p_sr = np.asarray(p_sr, dtype=float)
    p_prop = np.asarray(p_prop, dtype=float)
    p_coop = np.asarray(p_coop, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if not (p_sr.shape == p_prop.shape == p_coop.shape == signs.shape):
        raise ValueError("per-branch inputs must share one shape")
    total = 0.5 * float(np.sum(signs * (p_prop * p_sr + (1.0 - p_sr) * p_coop)))
    return _checked_probability(total, label)


def e2e_cnoma_wdl_u1(p_sr_z, p_prop_z, p_coop_z, g_z) -> float:
    """End-to-end far-user BER with direct link and relay combined.

    All inputs are per-branch (two entries): relay-hop error probability,
    error probability under a propagated relay error, and the cooperative
    (both-branch) error probability.
    """
    return _e2e_wdl(p_sr_z, p_prop_z, p_coop_z, g_z, "far-user combined sum")


def e2e_cnoma_wdl_u2(p_sr_v, p_prop_v, p_coop_v, g_v) -> float:
    """End-to-end near-user BER with direct link and relay combined (six signed branches)."""
    return _e2e_wdl(p_sr_v, p_prop_v, p_coop_v, g_v, "near-user combined sum")


def _checked_probability(p: float, label: str) -> float:
    if p < -_PROB_TOL or p > 1.0 + _PROB_TOL:
        raise ValueError(f"{label} left [0, 1]: {p}")
    return min(max(p, 0.0), 1.0)


# -- scheme-level composition -----------------------------------------------


def _prop_branches(cfg: SystemConfig, direct: str, rel: str, amp_sq) -> np.ndarray:
    """Per-branch probability that a flipped relay copy outweighs the direct copy.

    The branch amplitude multiplies both mean energies, so it cancels from
    the ratio; computing from powers and estimate variances alone extends the
    result continuously to zero-amplitude branches (equal power split, or a
    dead near-user stream).  With no energy on either arm the combined
    statistic is pure noise and the conditional error is a coin flip.
    """
    amp = np.atleast_1d(np.asarray(amp_sq, dtype=float))
    d_energy = cfg.P_s * cfg.link_budget(direct).sigma_tilde_sq
    r_energy = cfg.P_r * cfg.link_budget(rel).sigma_tilde_sq
    if d_energy == 0.0 and r_energy == 0.0:
        return np.full(amp.shape, 0.5)
    return np.full(amp.shape, prop_error(d_energy, r_energy))


def _scheme_ber(cfg: SystemConfig, scheme: str, user: str, limit: bool) -> float:
    tables = build_coefficient_tables(cfg.alpha1, cfg.alpha2)
    # The user picks its branch table and links; the far user's bit is the
    # SIC table with zeta = xi = psi and two unit signs.
    if user == "u1":
        amp, air, signs = tables.psi, tables.psi, tables.g_z
    else:
        amp, air, signs = tables.zeta, tables.xi, tables.g_v
    direct, rel = "s" + user[1], "r" + user[1]
    label = f"{scheme} {user} branch sum"

    def sinrs(link):
        budget, k = cfg.link_budget(link), cfg.hwi(link)
        if limit:
            return np.atleast_1d(mean_sinr_limit(budget, k, cfg.sigma_eps_sq, amp, air))
        return np.atleast_1d(
            mean_sinr(cfg.power(link), budget, k, cfg.sigma_eps_sq, cfg.N0, amp, air))

    def link_ber(link):
        return _signed_fade_sum(sinrs(link), signs, label)

    if scheme == "noma":
        return link_ber(direct)
    if scheme == "cnoma":
        return e2e_cnoma(link_ber("sr"), link_ber(rel))
    if scheme == "cnoma-wdl":
        p_coop = np.array([aber_mrc_pair(da, dr) for da, dr in zip(sinrs(direct), sinrs(rel))])
        return _e2e_wdl(_fade_term(sinrs("sr")), _prop_branches(cfg, direct, rel, amp),
                        p_coop, signs, label)
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def _check_user(user: str):
    if user not in USERS:
        raise ValueError(f"unknown user {user!r}, expected one of {USERS}")


def scheme_ber(cfg: SystemConfig, scheme: str, user: str) -> float:
    """Closed-form average BER of ``user`` under ``scheme`` for a scenario."""
    _check_user(user)
    return _scheme_ber(cfg, scheme.lower(), user, limit=False)


def scheme_ber_floor(cfg: SystemConfig, scheme: str, user: str) -> float:
    """Error floor of ``user`` under ``scheme``: the BER limit as both
    transmit powers grow without bound at their configured ratio."""
    _check_user(user)
    return _scheme_ber(cfg, scheme.lower(), user, limit=True)
