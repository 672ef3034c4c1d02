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
once; the SINRs only check the branch amplitudes their callers pass.
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


@lru_cache(maxsize=256, typed=True)
def _budget(d: float, a: float, sigma_eps_sq: float) -> LinkBudget:
    """Budget of a link of length ``d``: channel variance ``d ** -a``.

    Budgets are immutable, so the scenarios of a sweep, which share one
    geometry, share them instead of each building five; ``typed`` keeps a
    numpy input's budget apart from a float's.
    """
    var = float(d) ** -float(a)
    return LinkBudget(sigma_h_sq=var, sigma_tilde_sq=var - sigma_eps_sq)


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario description.

    Distances are in meters, powers in linear scale.  ``alpha1`` is the power
    fraction of the far user's stream, ``k_*`` the aggregate hardware-quality
    factor of each link (transmit and receive sides combined) and
    ``sigma_eps_sq`` the channel-estimation error variance, common to all
    links.
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
        distances, factors = _distances(self), _hwi_factors(self)
        for link, d in zip(LINKS, distances):
            if d <= 0:
                raise ValueError(f"d_{link} must be positive")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.P_s < 0 or self.P_r < 0:
            raise ValueError("transmit powers P_s and P_r must be nonnegative")
        if self.N0 <= 0:
            raise ValueError("N0 must be positive")
        if not 0 <= self.alpha2 <= self.alpha1 <= 1:
            raise ValueError(
                f"power allocation must satisfy 0 <= alpha2 <= alpha1 <= 1, "
                f"got alpha1={self.alpha1}, alpha2={self.alpha2}"
            )
        if abs(self.alpha1 + self.alpha2 - 1.0) > _ALPHA_SUM_TOL:
            raise ValueError(
                f"alpha1 + alpha2 must equal 1, got {self.alpha1 + self.alpha2}"
            )
        for link, k in zip(LINKS, factors):
            if k < 0:
                raise ValueError(f"k_{link} must be nonnegative")
        if self.sigma_eps_sq < 0:
            raise ValueError("sigma_eps_sq must be nonnegative")
        links = {}
        for link, d, k in zip(LINKS, distances, factors):
            budget = _budget(d, self.a, self.sigma_eps_sq)
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


@lru_cache(maxsize=256, typed=True)
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


def _branches(amp_sq, air_sq) -> tuple[bool, tuple]:
    """Whether a call passed one branch as two numbers, and the ``(amp,
    air)`` pairs of its branches, each checked nonnegative."""
    one = not hasattr(amp_sq, "__iter__")
    pairs = ((amp_sq, air_sq),) if one else tuple(zip(amp_sq, air_sq, strict=True))
    for amp, air in pairs:
        if not (amp >= 0 and air >= 0):
            raise ValueError(f"squared amplitudes must be nonnegative, got {amp} and {air}")
    return one, pairs


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
    st = cfg.link_budget(link).sigma_tilde_sq
    _, P, k = cfg._links[link]
    one, pairs = _branches(amp_sq, air_sq)
    # Noise and distortion are the same on every branch; the sums keep the
    # order of N0 + 2 P k^2 st + 2 (k^2 + air) P eps.
    base, eps = cfg.N0 + 2.0 * P * k * k * st, cfg.sigma_eps_sq
    out = tuple([P * amp * st / (base + 2.0 * (k * k + air) * P * eps) for amp, air in pairs])
    return out[0] if one else out


def mean_sinr_limit(cfg: SystemConfig, link: str, amp_sq, air_sq) -> float | tuple[float, ...]:
    """Power-to-infinity limit of :func:`mean_sinr` (the error-floor SINR)."""
    st = cfg.link_budget(link).sigma_tilde_sq
    _, _, k = cfg._links[link]
    one, pairs = _branches(amp_sq, air_sq)
    base, eps = 2.0 * k * k * st, cfg.sigma_eps_sq
    out = []
    for amp, air in pairs:
        num, den = amp * st, base + 2.0 * (k * k + air) * eps
        # 0/0 (zero amplitude and no impairments) is taken as zero signal.
        out.append(num / den if den > 0 else (0.0 if num == 0 else math.inf))
    return out[0] if one else tuple(out)
