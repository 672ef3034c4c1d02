"""Closed-form average bit error rates over Rayleigh fading.

Every expression here averages an instantaneous Gaussian error probability
over exponentially distributed channel gains, with hardware distortion and
channel-estimation error folded into the effective noise of each detection
branch (see :mod:`nomalink.model`).  Three schemes are covered:

* ``noma``       - direct superposition-coded downlink, no relay;
* ``cnoma``      - two-hop decode-and-forward relaying, no direct links;
* ``cnoma-wdl``  - relaying plus direct links, maximum-ratio combining.

``scheme_ber`` and ``scheme_ber_floor`` are the entry points; they read a
validated :class:`~nomalink.model.SystemConfig`, so the private composition
steps trust their inputs.  The propagation probability ``prop_error`` reads
one too; the public combiner and two-hop pieces still check theirs,
because they take bare numbers.

A call composes at most six branches per link, so it runs in scalar float
math: array bookkeeping cost more than the flops.  Branch sums run left to
right, as numpy's six-entry sums did (``sum`` compensates from Python 3.12).
"""

from __future__ import annotations

import math

from .model import SystemConfig, build_coefficient_tables, mean_sinr, mean_sinr_limit

SCHEMES = ("noma", "cnoma", "cnoma-wdl")
USERS = ("u1", "u2")

_PROB_TOL = 1e-12


def _fade_term(delta_bar: float) -> float:
    """Rayleigh average of Q(sqrt(2*g)) for g exponential with mean delta_bar:
    (1/2) * (1 - sqrt(d/(1+d))), and 0 for an infinite mean."""
    return 0.0 if delta_bar == math.inf else 0.5 * (1.0 - math.sqrt(delta_bar / (1.0 + delta_bar)))


def aber_mrc_pair(delta_bar_a: float, delta_bar_b: float) -> float:
    """Average BER of a bit decided from two maximum-ratio-combined branches.

    Branch mean SINRs may differ; equal means are handled by a symmetric
    relative perturbation of 1e-6, which matches the analytic limit well
    inside 1e-8.  A zero branch reduces to the single-branch form and an
    infinite branch drives the error to zero.
    """
    a, b = delta_bar_a, delta_bar_b
    if not (a >= 0 and b >= 0):
        raise ValueError(f"mean SINRs must be nonnegative, got {a} and {b}")
    if a == math.inf or b == math.inf:
        return 0.0
    if abs(a - b) < 1e-9 * max(a, b, 1.0):
        mid = 0.5 * a + 0.5 * b  # a + b may overflow
        a, b = mid * (1.0 + 1e-6), mid * (1.0 - 1e-6)
        if a == b:  # both zero
            return 0.5
    fa = a * math.sqrt(a / (1.0 + a))
    fb = b * math.sqrt(b / (1.0 + b))
    return 0.5 * (1.0 - (fa - fb) / (a - b))


def prop_error(cfg: SystemConfig, user: str) -> float:
    """Probability that a flipped relay copy of ``user``'s bit outweighs the
    direct copy, on every branch of the combined scheme.

    The copies race with their mean branch energies, power * amplitude^2 *
    estimate variance, on the direct link (s1 or s2) and the relay's (r1 or
    r2); the additive noise is neglected, so only their ratio matters.  The
    branch amplitude multiplies both energies, so it cancels from the
    ratio; computing from powers and estimate variances alone extends the
    result continuously to zero-amplitude branches (equal power split, or a
    dead near-user stream).  With no energy on either copy the combined
    statistic is pure noise and the conditional error is a coin flip.
    """
    if user not in USERS:
        raise ValueError(f"unknown user {user!r}, expected one of {USERS}")
    direct = cfg.P_s * cfg.link_budget("s" + user[1]).sigma_tilde_sq
    relay = cfg.P_r * cfg.link_budget("r" + user[1]).sigma_tilde_sq
    total = direct + relay
    return relay / total if total else 0.5


def e2e_cnoma(p_first_hop: float, p_second_hop: float) -> float:
    """End-to-end BER of two decode-and-forward hops (error iff exactly one hop errs)."""
    for p in (p_first_hop, p_second_hop):
        if not 0 <= p <= 1:
            raise ValueError(f"hop BER {p} outside [0, 1]")
    return p_first_hop + p_second_hop - 2.0 * p_first_hop * p_second_hop


def _branch_sum(signs, terms, label) -> float:
    """Half the signed sum of per-branch probabilities, accumulated left to right."""
    total = 0.0
    for g, t in zip(signs, terms):
        total += g * t
    return _checked_probability(total / 2.0, label)


def _e2e_wdl(p_sr, p_prop: float, p_coop, signs, label) -> float:
    """Signed branch sum of the combined scheme: a relay-hop error leaves the
    propagated-error probability, a correct hop the cooperative one."""
    return _branch_sum(signs, [p_prop * e + (1.0 - e) * c for e, c in zip(p_sr, p_coop)],
                       label)


def _checked_probability(p: float, label: str) -> float:
    if p < -_PROB_TOL or p > 1.0 + _PROB_TOL:
        raise ValueError(f"{label} left [0, 1]: {p}")
    return min(max(p, 0.0), 1.0)


# -- scheme-level composition -----------------------------------------------


def _scheme_ber(cfg: SystemConfig, scheme: str, user: str, limit: bool) -> float:
    if user not in USERS:
        raise ValueError(f"unknown user {user!r}, expected one of {USERS}")
    if not isinstance(scheme, str) or scheme.lower() not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    scheme = scheme.lower()
    tables = build_coefficient_tables(cfg)
    # The user picks its branch table and links; the far user's bit is the
    # SIC table with zeta = xi = psi and two unit signs.
    if user == "u1":
        amp, air, signs = tables.psi, tables.psi, tables.g_z
    else:
        amp, air, signs = tables.zeta, tables.xi, tables.g_v
    direct, rel = "s" + user[1], "r" + user[1]
    label = f"{scheme} {user} branch sum"
    branch_sinr = mean_sinr_limit if limit else mean_sinr

    def fades(link):
        return [_fade_term(d) for d in branch_sinr(cfg, link, amp, air)]

    if scheme == "noma":
        return _branch_sum(signs, fades(direct), label)
    if scheme == "cnoma":
        return e2e_cnoma(_branch_sum(signs, fades("sr"), label),
                         _branch_sum(signs, fades(rel), label))
    p_coop = list(map(aber_mrc_pair, branch_sinr(cfg, direct, amp, air),
                      branch_sinr(cfg, rel, amp, air)))
    return _e2e_wdl(fades("sr"), prop_error(cfg, user), p_coop, signs, label)


def scheme_ber(cfg: SystemConfig, scheme: str, user: str) -> float:
    """Closed-form average BER of ``user`` under ``scheme`` for a scenario."""
    return _scheme_ber(cfg, scheme, user, limit=False)


def scheme_ber_floor(cfg: SystemConfig, scheme: str, user: str) -> float:
    """Error floor of ``user`` under ``scheme``: the BER limit as both
    transmit powers grow without bound at their configured ratio."""
    return _scheme_ber(cfg, scheme, user, limit=True)
