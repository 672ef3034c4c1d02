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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Links are named source->receiver / relay->receiver.
LINKS = ("s1", "s2", "sr", "r1", "r2")

_ALPHA_SUM_TOL = 1e-12


def link_variance(d: float, a: float) -> float:
    """Rayleigh channel variance of a link of length ``d`` with path-loss exponent ``a``.

    The channel coefficient is zero-mean circular Gaussian with variance
    ``d ** -a``.
    """
    if d <= 0:
        raise ValueError(f"link distance must be positive, got {d}")
    if a <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {a}")
    return float(d) ** -float(a)


@dataclass(frozen=True)
class LinkBudget:
    """Second-order statistics of one link under imperfect channel estimation.

    ``sigma_h_sq`` is the variance of the true channel, ``sigma_tilde_sq``
    the variance of the estimate after removing the estimation-error power.
    """

    sigma_h_sq: float
    sigma_tilde_sq: float

    def __post_init__(self):
        if self.sigma_h_sq <= 0:
            raise ValueError("channel variance must be positive")
        if not 0 < self.sigma_tilde_sq <= self.sigma_h_sq:
            raise ValueError(
                "estimate variance must stay within (0, channel variance]; "
                "the estimation-error power may not swallow the whole link"
            )

    @classmethod
    def from_distance(cls, d: float, a: float, sigma_eps_sq: float) -> "LinkBudget":
        var = link_variance(d, a)
        if sigma_eps_sq < 0:
            raise ValueError("estimation-error variance must be nonnegative")
        if var <= sigma_eps_sq:
            raise ValueError(
                f"estimation-error variance {sigma_eps_sq} exceeds the link "
                f"variance {var} (d={d}, a={a}); no usable estimate remains"
            )
        return cls(sigma_h_sq=var, sigma_tilde_sq=var - sigma_eps_sq)


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
        for name in ("d_s1", "d_s2", "d_sr", "d_r1", "d_r2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.P_s < 0 or self.P_r < 0:
            raise ValueError("transmit powers must be nonnegative")
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
            var = link_variance(getattr(self, f"d_{link}"), self.a)
            if var <= self.sigma_eps_sq:
                raise ValueError(
                    f"estimation-error variance {self.sigma_eps_sq} exceeds the "
                    f"variance {var} of link {link}"
                )

    # -- per-link accessors -------------------------------------------------

    def link_budget(self, link: str) -> LinkBudget:
        """Fading statistics of one of the five links."""
        self._check_link(link)
        return LinkBudget.from_distance(getattr(self, f"d_{link}"), self.a, self.sigma_eps_sq)

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
        p = 10.0 ** (snr_db / 10.0)
        kw = dict(P_s=p, P_r=p, N0=1.0)
        kw.update({f"k_{link}": hwi_k for link in LINKS})
        kw.update(overrides)
        return cls(**kw)

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        """Copy of this scenario with P_s = P_r = 10**(snr_db/10) and N0 = 1."""
        p = 10.0 ** (snr_db / 10.0)
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

    psi: np.ndarray
    g_z: np.ndarray
    zeta: np.ndarray
    xi: np.ndarray
    g_v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", _frozen(self.psi))
        object.__setattr__(self, "g_z", _frozen(self.g_z))
        object.__setattr__(self, "zeta", _frozen(self.zeta))
        object.__setattr__(self, "xi", _frozen(self.xi))
        object.__setattr__(self, "g_v", _frozen(self.g_v))


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


def build_coefficient_tables(alpha1: float, alpha2: float) -> CoefficientTables:
    """Expand a power split into the detection-branch coefficient tables."""
    if abs(alpha1 + alpha2 - 1.0) > _ALPHA_SUM_TOL:
        raise ValueError(f"power fractions must sum to 1, got {alpha1 + alpha2}")
    if not 0 <= alpha2 <= alpha1 <= 1:
        raise ValueError("power fractions must satisfy 0 <= alpha2 <= alpha1 <= 1")
    r1, r2 = np.sqrt(alpha1), np.sqrt(alpha2)
    plus, minus = (r1 + r2) ** 2, (r1 - r2) ** 2
    psi = [plus, minus]
    # Branches 4 and 6 carry the doubled far-user amplitude left behind by a
    # wrong subtraction.
    zeta = [alpha2, alpha2, plus, (2 * r1 + r2) ** 2, minus, (2 * r1 - r2) ** 2]
    xi = [plus, minus, plus, plus, minus, minus]
    g_v = [1.0, 1.0, -1.0, 1.0, 1.0, -1.0]
    g_z = [1.0, 1.0]
    return CoefficientTables(psi=psi, g_z=g_z, zeta=zeta, xi=xi, g_v=g_v)


def mean_sinr(P: float, budget: LinkBudget, k: float, sigma_eps_sq: float,
              N0: float, amp_sq, air_sq) -> float | np.ndarray:
    """Mean effective SINR of one detection branch on one link.

    ``amp_sq`` scales the useful branch amplitude, ``air_sq`` is the squared
    amplitude of the composite symbol on the air for that branch (only the
    latter multiplies the estimation-error penalty).  A far-user bit
    decision passes the ``psi`` entries as both; the near user's SIC
    branches pass ``zeta`` and ``xi``.  Scalars or arrays; the result
    matches their shape.  The denominator collects thermal noise, hardware
    distortion riding the estimated channel, and the residual
    self-interference of the estimation error.
    """
    _check_sinr_inputs(P, k, sigma_eps_sq, N0, amp_sq)
    amp, air = np.asarray(amp_sq, dtype=float), np.asarray(air_sq, dtype=float)
    num = P * amp * budget.sigma_tilde_sq
    den = (N0 + 2.0 * P * k * k * budget.sigma_tilde_sq
           + 2.0 * (k * k + air) * P * sigma_eps_sq)
    return num / den


def mean_sinr_limit(budget: LinkBudget, k: float, sigma_eps_sq: float,
                    amp_sq, air_sq) -> float | np.ndarray:
    """Power-to-infinity limit of :func:`mean_sinr` (the error-floor SINR)."""
    amp, air = np.asarray(amp_sq, dtype=float), np.asarray(air_sq, dtype=float)
    num = amp * budget.sigma_tilde_sq
    den = 2.0 * k * k * budget.sigma_tilde_sq + 2.0 * (k * k + air) * sigma_eps_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
    # 0/0 (zero amplitude and no impairments) is taken as zero signal.
    out = np.where((num == 0) & (den == 0), 0.0, out)
    return out if out.ndim else float(out)


def _check_sinr_inputs(P, k, sigma_eps_sq, N0, amp_sq):
    if P < 0:
        raise ValueError("power must be nonnegative")
    if k < 0:
        raise ValueError("hardware-quality factor must be nonnegative")
    if sigma_eps_sq < 0:
        raise ValueError("estimation-error variance must be nonnegative")
    if N0 <= 0:
        raise ValueError("N0 must be positive")
    if np.any(np.asarray(amp_sq, dtype=float) < 0):
        raise ValueError("squared amplitudes must be nonnegative")
