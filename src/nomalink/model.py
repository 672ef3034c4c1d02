"""System model for a two-user downlink NOMA network with a decode-and-forward relay.

A source superimposes two BPSK streams (power fractions alpha1 >= alpha2,
alpha1 for the far user) and reaches the users either directly, through a
relay, or both.  Every link is flat Rayleigh with distance path loss, the
receivers only hold an imperfect channel estimate, and every transceiver
adds residual hardware distortion proportional to the transmit power.

This module owns the scenario description (:class:`SystemConfig`), the
per-link fading statistics (:class:`LinkBudget`), the superposition
coefficient tables (:class:`CoefficientTables`) and the mean effective SINR
of each detection branch.  Everything downstream (closed forms, simulator,
sweeps) is built on these.

A scenario's numbers are checked once, when a :class:`SystemConfig` is
built, and the same step derives its link records (budget, power and
hardware factor of each link) and the coefficient tables of its power
split.  The accessors and :func:`build_coefficient_tables` return those
stored values, so a closed form that reads a link many times computes it
once.  One routine gives both SINRs: the floor is the mean SINR at zero
noise and unit power.  It checks only the branch amplitudes its callers
pass, and refuses a branch whose SINR terms leave the float range (past
about 3076 dB) instead of returning a wrong number.
Tables and SINRs are scalar float math over 2- to 6-entry tuples, where
numpy's bookkeeping cost more than the arithmetic; IEEE ``+ - * / sqrt``
round alike in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from operator import attrgetter

# Links are named source->receiver / relay->receiver.
LINKS = ("s1", "s2", "sr", "r1", "r2")

_ALPHA_SUM_TOL = 1e-12

# The sign each scenario number must have; the power split is checked as a pair.
_SIGNS = {
    **dict.fromkeys((*(f"d_{link}" for link in LINKS), "a", "N0"), "positive"),
    **dict.fromkeys(("P_s", "P_r", *(f"k_{link}" for link in LINKS), "sigma_eps_sq"),
                    "nonnegative"),
}


def _power_at_snr_db(snr_db: float) -> float:
    """Transmit power 10**(snr_db/10) at N0 = 1; an SNR past the float range
    gives inf, which SystemConfig then rejects by name.  No SNR means zero
    power, which SystemConfig accepts, so -inf (or an underflow) is refused."""
    try:
        power = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf
    if power == 0.0:
        raise ValueError(f"snr_db must give a positive power, got {snr_db}")
    return power


@dataclass(frozen=True)
class LinkBudget:
    """Second-order statistics of one link under imperfect channel estimation.

    ``sigma_h_sq`` is the variance of the true channel, ``sigma_tilde_sq``
    the variance of the estimate after removing the estimation-error power.
    Read through :meth:`SystemConfig.link_budget` from a validated scenario.
    """

    sigma_h_sq: float
    sigma_tilde_sq: float


@lru_cache(maxsize=256)
def _budget(d: float, a: float, sigma_eps_sq: float) -> LinkBudget:
    """Budget of a link of length ``d``: channel variance ``d ** -a``.

    Budgets are immutable, so the scenarios of a sweep, which share one
    geometry, share them instead of each building five.  A path loss past
    the float range gives an infinite variance, which SystemConfig refuses.
    """
    try:
        var = d ** -a
    except OverflowError:
        var = math.inf
    return LinkBudget(sigma_h_sq=var, sigma_tilde_sq=var - sigma_eps_sq)


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario description.

    Distances are in meters, powers in linear scale.  ``alpha1`` is the power
    fraction of the far user's stream, ``k_*`` the aggregate hardware-quality
    factor of each link (transmit and receive sides combined) and
    ``sigma_eps_sq`` the channel-estimation error variance, common to all
    links.  Every field is stored as a Python ``float``, numpy scalars too.
    """

    d_s1: float = 4.0
    d_s2: float = 2.0
    d_sr: float = 1.0
    d_r1: float = 3.0
    d_r2: float = 1.0
    a: float = 2.0
    P_s: float = 1.0
    P_r: float = 1.0
    N0: float = 1.0
    alpha1: float = 0.8
    alpha2: float = 0.2
    k_s1: float = 0.175
    k_s2: float = 0.175
    k_sr: float = 0.175
    k_r1: float = 0.175
    k_r2: float = 0.175
    sigma_eps_sq: float = 0.005

    def __post_init__(self):
        for name, value in zip(_FIELD_NAMES, _field_values(self)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            sign = _SIGNS.get(name)
            if sign and (value <= 0 if sign == "positive" else value < 0):
                raise ValueError(f"{name} must be {sign}")
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        distances, factors = _distances(self), _hwi_factors(self)
        if not 0 <= self.alpha2 <= self.alpha1 <= 1:
            raise ValueError(
                f"power allocation must satisfy 0 <= alpha2 <= alpha1 <= 1, "
                f"got alpha1={self.alpha1}, alpha2={self.alpha2}"
            )
        if abs(self.alpha1 + self.alpha2 - 1.0) > _ALPHA_SUM_TOL:
            raise ValueError(
                f"alpha1 + alpha2 must equal 1, got {self.alpha1 + self.alpha2}"
            )
        links = {}
        for link, d, k in zip(LINKS, distances, factors):
            budget = _budget(d, self.a, self.sigma_eps_sq)
            if budget.sigma_h_sq == math.inf:
                raise ValueError(f"d_{link} = {d} with a = {self.a} gives a channel "
                                 f"variance d ** -a past the float range")
            if budget.sigma_h_sq <= self.sigma_eps_sq:
                raise ValueError(
                    f"sigma_eps_sq {self.sigma_eps_sq} must stay below the "
                    f"variance {budget.sigma_h_sq} of link {link}; no usable estimate remains"
                )
            links[link] = (budget, self.P_s if link.startswith("s") else self.P_r, k)
        # Each link's record is (budget, power, hardware factor).  Records
        # and tables are derived here and are not fields: equality, hashing
        # and repr see only the scenario's numbers, and every copy
        # constructor goes through __init__, so a record cannot outlive the
        # fields it was derived from.
        object.__setattr__(self, "_links", links)
        object.__setattr__(self, "_tables", _split_tables(self.alpha1, self.alpha2))

    # -- per-link accessors -------------------------------------------------

    def link_budget(self, link: str) -> LinkBudget:
        """Fading statistics of one of the five links."""
        return self._link(link)[0]

    def sigma_tilde_sq(self, link: str) -> float:
        """Variance of a link's channel estimate, as in its ``link_budget``."""
        return self._link(link)[0].sigma_tilde_sq

    def power(self, link: str) -> float:
        """Transmit power feeding a link (source power or relay power)."""
        return self._link(link)[1]

    def hwi(self, link: str) -> float:
        """Aggregate hardware-quality factor of a link."""
        return self._link(link)[2]

    def _link(self, link: str) -> tuple[LinkBudget, float, float]:
        try:
            return self._links[link]
        except (KeyError, TypeError):
            raise ValueError(f"unknown link {link!r}, expected one of {LINKS}") from None

    # -- convenience constructors -------------------------------------------

    @classmethod
    def defaults(cls, snr_db: float = 10.0, hwi_k: float = 0.175, **overrides) -> "SystemConfig":
        """Reference scenario at a given transmit SNR.

        SNR is P_s/N0 in dB with N0 fixed to one; the relay transmits at the
        source power and all five links share the same hardware-quality
        factor unless overridden.
        """
        p = _power_at_snr_db(snr_db)
        kw = dict(P_s=p, P_r=p, N0=1.0)
        kw.update({f"k_{link}": hwi_k for link in LINKS})
        kw.update(overrides)
        return cls(**kw)

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        """Copy of this scenario with P_s = P_r = 10**(snr_db/10) and N0 = 1."""
        p = _power_at_snr_db(snr_db)
        return replace(self, P_s=p, P_r=p, N0=1.0)

    def with_hwi(self, k: float) -> "SystemConfig":
        """Copy of this scenario with the same hardware factor on all five links."""
        return replace(self, **{f"k_{link}": k for link in LINKS})

    def with_alpha1(self, alpha1: float) -> "SystemConfig":
        """Copy of this scenario with power split (alpha1, 1 - alpha1)."""
        return replace(self, alpha1=alpha1, alpha2=1.0 - alpha1)


_FIELD_NAMES = tuple(f.name for f in fields(SystemConfig))
_field_values = attrgetter(*_FIELD_NAMES)
_distances = attrgetter(*(f"d_{link}" for link in LINKS))
_hwi_factors = attrgetter(*(f"k_{link}" for link in LINKS))


@dataclass(frozen=True)
class CoefficientTables:
    """Per-branch coefficients of the BPSK superposition constellation.

    ``psi`` holds the two squared composite amplitudes seen by a detector
    that slices the far user's bit directly (the two entries correspond to
    the near user's bit agreeing/disagreeing with the far user's).  ``zeta``
    and ``xi`` describe the six signed branches of the near user's
    detect-subtract-detect receiver: ``zeta`` is the squared effective
    amplitude of the branch decision, ``xi`` the squared amplitude of the
    composite symbol actually on the air for that branch (it scales the
    estimation-error penalty).  ``g_z`` and ``g_v`` are the branch signs.
    """

    psi: tuple[float, ...]
    g_z: tuple[float, ...]
    zeta: tuple[float, ...]
    xi: tuple[float, ...]
    g_v: tuple[float, ...]


def build_coefficient_tables(cfg: SystemConfig) -> CoefficientTables:
    """The detection-branch coefficient tables of a scenario's power split."""
    return cfg._tables


@lru_cache(maxsize=256)
def _split_tables(alpha1: float, alpha2: float) -> CoefficientTables:
    """Tables of one power split, shared by every scenario with a split that
    compares equal, as the scenarios themselves do (the tables hold tuples,
    so sharing is safe)."""
    r1, r2 = math.sqrt(alpha1), math.sqrt(alpha2)
    plus, minus = (r1 + r2) ** 2, (r1 - r2) ** 2
    # Branches 4 and 6 carry the doubled far-user amplitude left behind by a
    # wrong subtraction.
    return CoefficientTables(
        psi=(plus, minus),
        g_z=(1.0, 1.0),
        zeta=(alpha2, alpha2, plus, (2 * r1 + r2) ** 2, minus, (2 * r1 - r2) ** 2),
        xi=(plus, minus, plus, plus, minus, minus),
        g_v=(1.0, 1.0, -1.0, 1.0, 1.0, -1.0),
    )


def mean_sinr(cfg: SystemConfig, link: str, amp_sq, air_sq) -> float | tuple[float, ...]:
    """Mean effective SINR of one detection branch on one link of ``cfg``.

    ``amp_sq`` scales the useful branch amplitude, ``air_sq`` is the squared
    amplitude of the composite symbol on the air for that branch (only the
    latter multiplies the estimation-error penalty).  A far-user bit
    decision passes the ``psi`` entries as both, the near user's SIC
    branches ``zeta`` and ``xi``; numbers give a float, sequences a tuple.
    The denominator collects thermal noise, hardware distortion riding the
    estimated channel, and the estimation error's self-interference.
    """
    return _sinr(cfg, link, amp_sq, air_sq, cfg.N0, cfg.power(link))


def mean_sinr_limit(cfg: SystemConfig, link: str, amp_sq, air_sq) -> float | tuple[float, ...]:
    """Power-to-infinity limit of :func:`mean_sinr` (the error-floor SINR):
    the same SINR at zero noise and unit power, so a refusal names P=1.0."""
    return _sinr(cfg, link, amp_sq, air_sq, 0.0, 1.0)


def _sinr(cfg: SystemConfig, link: str, amp_sq, air_sq, N0: float,
          P: float) -> float | tuple[float, ...]:
    """``P amp st / (N0 + 2 P k^2 st + 2 (k^2 + air) P eps)`` per branch.

    At ``N0 = 0`` and ``P = 1`` every extra product and sum is exact, so the
    floor SINR is the finite-power expression with the power divided out.
    A squared amplitude that is negative or not finite, and a branch whose
    numerator or denominator leaves the float range, are refused.
    """
    st = cfg.link_budget(link).sigma_tilde_sq
    k, eps = cfg._links[link][2], cfg.sigma_eps_sq
    one = not hasattr(amp_sq, "__iter__")
    pairs = ((amp_sq, air_sq),) if one else zip(amp_sq, air_sq, strict=True)
    # Noise and distortion are the same on every branch; the sums keep the
    # order of N0 + 2 P k^2 st + 2 (k^2 + air) P eps.
    base = N0 + 2.0 * P * k * k * st
    out = []
    for amp, air in pairs:
        if not (0 <= amp < math.inf and 0 <= air < math.inf):
            raise ValueError(
                f"squared amplitudes must be finite and nonnegative, got {amp} and {air}")
        num, den = P * amp * st, base + 2.0 * (k * k + air) * P * eps
        if not (num < math.inf and den < math.inf):
            raise ValueError(f"the mean SINR of link {link} leaves the float range "
                             f"at P={P} and k={k}")
        # 0/0 (zero amplitude at zero noise, no impairments) is taken as zero signal.
        out.append(num / den if den > 0 else (0.0 if num == 0 else math.inf))
    return out[0] if one else tuple(out)
