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
built; the link budgets, tables and SINRs read that validated config and
only check the branch amplitudes their callers pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

# Links are named source->receiver / relay->receiver.
LINKS = ("s1", "s2", "sr", "r1", "r2")

_ALPHA_SUM_TOL = 1e-12


def _power_at_snr_db(snr_db: float) -> float:
    """Transmit power 10**(snr_db/10) at N0 = 1; an SNR past the float range
    gives inf, which SystemConfig then rejects by name."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def _link_variance(d: float, a: float) -> float:
    """Rayleigh channel variance ``d ** -a`` of a link of length ``d``."""
    return float(d) ** -float(a)


@dataclass(frozen=True)
class LinkBudget:
    """Second-order statistics of one link under imperfect channel estimation.

    ``sigma_h_sq`` is the variance of the true channel, ``sigma_tilde_sq``
    the variance of the estimate after removing the estimation-error power.
    Built by :meth:`SystemConfig.link_budget` from a validated scenario.
    """

    sigma_h_sq: float
    sigma_tilde_sq: float


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("d_s1", "d_s2", "d_sr", "d_r1", "d_r2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
        for name in ("k_s1", "k_s2", "k_sr", "k_r1", "k_r2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.sigma_eps_sq < 0:
            raise ValueError("sigma_eps_sq must be nonnegative")
        for link in LINKS:
            var = _link_variance(getattr(self, f"d_{link}"), self.a)
            if var <= self.sigma_eps_sq:
                raise ValueError(
                    f"sigma_eps_sq {self.sigma_eps_sq} must stay below the "
                    f"variance {var} of link {link}; no usable estimate remains"
                )

    # -- per-link accessors -------------------------------------------------

    def link_budget(self, link: str) -> LinkBudget:
        """Fading statistics of one of the five links."""
        self._check_link(link)
        var = _link_variance(getattr(self, f"d_{link}"), self.a)
        return LinkBudget(sigma_h_sq=var, sigma_tilde_sq=var - self.sigma_eps_sq)

    def power(self, link: str) -> float:
        """Transmit power feeding a link (source power or relay power)."""
        self._check_link(link)
        return self.P_s if link.startswith("s") else self.P_r

    def hwi(self, link: str) -> float:
        """Aggregate hardware-quality factor of a link."""
        self._check_link(link)
        return getattr(self, f"k_{link}")

    @staticmethod
    def _check_link(link: str):
        if link not in LINKS:
            raise ValueError(f"unknown link {link!r}, expected one of {LINKS}")

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
    """Expand a scenario's power split into the detection-branch coefficient tables."""
    r1, r2 = np.sqrt(cfg.alpha1), np.sqrt(cfg.alpha2)
    plus, minus = (r1 + r2) ** 2, (r1 - r2) ** 2
    # Branches 4 and 6 carry the doubled far-user amplitude left behind by a
    # wrong subtraction.
    return CoefficientTables(
        psi=(plus, minus),
        g_z=(1.0, 1.0),
        zeta=(cfg.alpha2, cfg.alpha2, plus, (2 * r1 + r2) ** 2, minus, (2 * r1 - r2) ** 2),
        xi=(plus, minus, plus, plus, minus, minus),
        g_v=(1.0, 1.0, -1.0, 1.0, 1.0, -1.0),
    )


def _squared_amplitudes(amp_sq, air_sq) -> tuple[np.ndarray, np.ndarray]:
    amp, air = np.asarray(amp_sq, dtype=float), np.asarray(air_sq, dtype=float)
    if (amp < 0).any() or (air < 0).any():
        raise ValueError("squared amplitudes must be nonnegative")
    return amp, air


def mean_sinr(cfg: SystemConfig, link: str, amp_sq, air_sq) -> float | np.ndarray:
    """Mean effective SINR of one detection branch on one link of ``cfg``.

    ``amp_sq`` scales the useful branch amplitude, ``air_sq`` is the squared
    amplitude of the composite symbol on the air for that branch (only the
    latter multiplies the estimation-error penalty).  A far-user bit
    decision passes the ``psi`` entries as both; the near user's SIC
    branches pass ``zeta`` and ``xi``.  Scalars or arrays; the result
    matches their shape.  The denominator collects thermal noise, hardware
    distortion riding the estimated channel, and the residual
    self-interference of the estimation error.
    """
    amp, air = _squared_amplitudes(amp_sq, air_sq)
    P, k, budget = cfg.power(link), cfg.hwi(link), cfg.link_budget(link)
    num = P * amp * budget.sigma_tilde_sq
    den = (cfg.N0 + 2.0 * P * k * k * budget.sigma_tilde_sq
           + 2.0 * (k * k + air) * P * cfg.sigma_eps_sq)
    return num / den


def mean_sinr_limit(cfg: SystemConfig, link: str, amp_sq, air_sq) -> float | np.ndarray:
    """Power-to-infinity limit of :func:`mean_sinr` (the error-floor SINR)."""
    amp, air = _squared_amplitudes(amp_sq, air_sq)
    k, budget = cfg.hwi(link), cfg.link_budget(link)
    num = amp * budget.sigma_tilde_sq
    den = 2.0 * k * k * budget.sigma_tilde_sq + 2.0 * (k * k + air) * cfg.sigma_eps_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
    # 0/0 (zero amplitude and no impairments) is taken as zero signal.
    out = np.where((num == 0) & (den == 0), 0.0, out)
    return out if out.ndim else float(out)
