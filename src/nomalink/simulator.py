"""Symbol-level Monte Carlo simulation of the three downlink schemes.

Each trial transmits one fresh BPSK pair through independently drawn
channels, estimation errors, hardware distortion and thermal noise; the
receivers detect with the channel estimate only, and each receiver draws
the exact joint law of the two numbers its detector reads (see
``_Receiver``) rather than the complex observation.  Successive interference
cancellation is genuine: the near user (and the relay) subtracts its own
hard decision, so detection errors propagate exactly as they would on the
air, and the relay re-encodes whatever it decided before forwarding.

The simulator is the independent check on :mod:`nomalink.analytic`; it
shares nothing with the closed forms except :class:`SystemConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import SystemConfig

_BATCH_SYMBOLS = 100_000
_MIN_SYMBOLS = 10_000
_LOW_CONFIDENCE_EVENTS = 100


@dataclass(frozen=True)
class SimSpec:
    """How much to simulate.

    ``n_symbols`` counts transmitted symbol pairs, split into batches of
    100000 and one shorter final batch for the remainder.  Each batch owns
    a private random stream derived from ``(seed, batch index)``, so results
    are bit-identical for identical inputs regardless of evaluation order.
    """

    n_symbols: int = 1_000_000
    seed: int = 1

    def __post_init__(self):
        if self.n_symbols < _MIN_SYMBOLS:
            raise ValueError(f"n_symbols must be at least {_MIN_SYMBOLS}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def batches(self) -> list[int]:
        full, rem = divmod(self.n_symbols, _BATCH_SYMBOLS)
        return [_BATCH_SYMBOLS] * full + ([rem] if rem else [])


@dataclass(frozen=True)
class McResult:
    """Bit-error counts and rates of one simulation run."""

    trials: int
    errors_u1: int
    errors_u2: int
    ber_u1: float
    ber_u2: float
    std_err_u1: float
    std_err_u2: float

    @classmethod
    def from_counts(cls, trials: int, errors_u1: int, errors_u2: int) -> "McResult":
        ber1, ber2 = errors_u1 / trials, errors_u2 / trials
        return cls(
            trials=trials,
            errors_u1=errors_u1,
            errors_u2=errors_u2,
            ber_u1=ber1,
            ber_u2=ber2,
            std_err_u1=math.sqrt(ber1 * (1.0 - ber1) / trials),
            std_err_u2=math.sqrt(ber2 * (1.0 - ber2) / trials),
        )

    def ber(self, user: str) -> float:
        return self.ber_u1 if user == "u1" else self.ber_u2

    def std_err(self, user: str) -> float:
        return self.std_err_u1 if user == "u1" else self.std_err_u2


@dataclass(frozen=True)
class CondPropStats:
    """Per-user error rates conditioned on the relay mis-detecting that user's bit."""

    events_u1: int
    errors_u1: int
    events_u2: int
    errors_u2: int
    rate_u1: float
    rate_u2: float
    std_err_u1: float
    std_err_u2: float
    low_confidence_u1: bool
    low_confidence_u2: bool


def _rngs(spec: SimSpec):
    for index, size in enumerate(spec.batches()):
        yield np.random.default_rng(np.random.SeedSequence((spec.seed, index))), size


def _bits(rng, n: int) -> np.ndarray:
    return rng.integers(0, 2, n).astype(float) * 2.0 - 1.0


class _Receiver:
    """One link's receive chain for a batch, reduced to what detection reads.

    Detection uses only the estimate power ``gain`` = |h~|^2 and the
    projection ``proj_y`` = Re(conj(h~) y) of the observation
    y = (h~ + e)(sqrt(P) tx + d) + n.  The distortion d has total variance
    2 k^2 P and the estimation error e total variance 2 sigma_eps_sq, the
    accounting the closed forms use.  Distortion and noise n are
    independent circular Gaussians, so given h~ and e the projection is
    Gaussian with mean Re(conj(h~)(h~ + e)) sqrt(P) tx and variance
    |h~|^2 (|h~ + e|^2 2 k^2 P + N0) / 2.  Writing e in the frame of h~ as
    (e_par, e_perp) gives Re(conj(h~) e) = |h~| e_par and
    |h~ + e|^2 = (|h~| + e_par)^2 + e_perp^2, so one receiver needs four
    real draws: |h~|^2 (exponential), e_par and e_perp, and one standard
    normal for the projected distortion plus noise.  All four are drawn
    even when a variance is zero, so a seed fixes the same stream for every
    scenario.
    """

    __slots__ = ("gain", "proj_y")

    def __init__(self, rng, cfg: SystemConfig, link: str, tx: np.ndarray, n: int):
        P = cfg.power(link)
        k = cfg.hwi(link)
        gain = cfg.link_budget(link).sigma_tilde_sq * rng.standard_exponential(n)
        err_sd = math.sqrt(cfg.sigma_eps_sq)  # each of the two parts of e
        e_par = rng.standard_normal(n) * err_sd
        e_perp = rng.standard_normal(n) * err_sd
        z = rng.standard_normal(n)
        amp = np.sqrt(gain)
        field = amp + e_par  # component of h~ + e along h~
        spread = np.sqrt(((field * field + e_perp * e_perp) * (2.0 * k * k * P) + cfg.N0) / 2.0)
        self.gain = gain
        self.proj_y = amp * (field * math.sqrt(P) * tx + spread * z)


def _slice_sign(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0, -1.0)


def _detect_m1(rx: _Receiver) -> np.ndarray:
    """Far-user bit by minimum distance over the four composite points.

    The candidates lie on one line at (+-r1 +- r2) times the channel scale
    with r1 >= r2, so the minimum-distance readout of the far bit is the
    sign of the projected observation: the nearest-point boundaries sit at
    -r1, 0 and +r1 and both positive points carry m1 = +1.  The sign form
    also settles the r1 = r2 case, where two candidates coincide at zero
    and plain nearest-point search has no defined answer.
    """
    return _slice_sign(rx.proj_y)


def _sic_detect_m2(rx: _Receiver, cfg: SystemConfig, link: str,
                   m1_for_sic: np.ndarray) -> np.ndarray:
    """Near-user bit after subtracting the (given) far-user decision."""
    amp = math.sqrt(cfg.power(link))
    residual = rx.proj_y - amp * math.sqrt(cfg.alpha1) * m1_for_sic * rx.gain
    return _slice_sign(residual)


def _superpose(cfg: SystemConfig, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    return math.sqrt(cfg.alpha1) * m1 + math.sqrt(cfg.alpha2) * m2


def _relay_decisions(rng, cfg, s, m1, m2, n, genie_relay, genie_sic):
    rx_sr = _Receiver(rng, cfg, "sr", s, n)
    m1_r = _detect_m1(rx_sr)
    m2_r = _sic_detect_m2(rx_sr, cfg, "sr", m1 if genie_sic else m1_r)
    if genie_relay:
        return m1, m2, m1_r, m2_r
    return m1_r, m2_r, m1_r, m2_r


def _broadcast_batches(cfg, spec, genie_relay, genie_sic, hop):
    """noma (``hop`` "s") and cnoma (``hop`` "r"): both users detect one
    superposed broadcast on links ``{hop}1`` and ``{hop}2``.

    For cnoma the source reaches only the relay, which SIC-detects both bits
    and re-encodes its decisions at the relay power; that is the
    transmission the users hear.  Yields the two users' error masks.
    """
    # All batches run in this one frame, so a batch's arrays stay referenced
    # until the next batch rebinds the same names.  Freeing them on return
    # from a per-batch function instead lets glibc trim the heap between
    # receivers, and the next receiver faults the pages back in: on two
    # cores about 50% more minor faults and 10% more sweep-snr wall time.
    for rng, n in _rngs(spec):
        m1, m2 = _bits(rng, n), _bits(rng, n)
        tx = _superpose(cfg, m1, m2)
        if hop == "r":
            fwd1, fwd2, _, _ = _relay_decisions(rng, cfg, tx, m1, m2, n, genie_relay, genie_sic)
            tx = _superpose(cfg, fwd1, fwd2)
        rx1 = _Receiver(rng, cfg, hop + "1", tx, n)
        det1 = _detect_m1(rx1)
        rx2 = _Receiver(rng, cfg, hop + "2", tx, n)
        m1_at_u2 = _detect_m1(rx2)
        det2 = _sic_detect_m2(rx2, cfg, hop + "2", m1 if genie_sic else m1_at_u2)
        yield det1 != m1, det2 != m2


def _wdl_batch(rng, cfg, n, genie_relay, genie_sic):
    """One batch of the combined scheme; returns error masks and relay masks."""
    m1, m2 = _bits(rng, n), _bits(rng, n)
    s = _superpose(cfg, m1, m2)
    # Phase one: one transmission, three independent receivers.
    rx_s1 = _Receiver(rng, cfg, "s1", s, n)
    rx_s2 = _Receiver(rng, cfg, "s2", s, n)
    fwd1, fwd2, m1_r, m2_r = _relay_decisions(rng, cfg, s, m1, m2, n, genie_relay, genie_sic)
    # Phase two: the relay forwards its re-encoded decisions.
    s_fwd = _superpose(cfg, fwd1, fwd2)
    rx_r1 = _Receiver(rng, cfg, "r1", s_fwd, n)
    rx_r2 = _Receiver(rng, cfg, "r2", s_fwd, n)

    # Far user: maximum-ratio combination of both phases, then slice.  Each
    # projection already carries conj(h~); the MRC weight adds the branch's
    # transmit amplitude, so a phase enters with energy P * |h~|^2.
    amp_s, amp_r = math.sqrt(cfg.P_s), math.sqrt(cfg.P_r)
    phi_u1 = amp_s * rx_s1.proj_y + amp_r * rx_r1.proj_y
    det1 = _slice_sign(phi_u1)

    # Near user: detect the far bit from the combined statistic, subtract it
    # on both branches, re-combine, slice.
    phi_u2 = amp_s * rx_s2.proj_y + amp_r * rx_r2.proj_y
    m1_at_u2 = _slice_sign(phi_u2)
    sub = m1 if genie_sic else m1_at_u2
    combined_gain = cfg.P_s * rx_s2.gain + cfg.P_r * rx_r2.gain
    det2 = _slice_sign(phi_u2 - math.sqrt(cfg.alpha1) * sub * combined_gain)

    return det1 != m1, det2 != m2, m1_r != m1, m2_r != m2


def _wdl_batches(cfg, spec, genie_relay, genie_sic):
    """cnoma-wdl: each user combines both phases by MRC, weighting each
    phase's projection by its transmit amplitude sqrt(P).  Yields the two
    users' error masks and the relay's two error masks."""
    for rng, n in _rngs(spec):
        yield _wdl_batch(rng, cfg, n, genie_relay, genie_sic)


#: Each scheme's batch stream: ``(cfg, spec, genie_relay, genie_sic)`` to one
#: tuple of error masks per batch, the two users' first.
_BATCHES = {
    "noma": partial(_broadcast_batches, hop="s"),
    "cnoma": partial(_broadcast_batches, hop="r"),
    "cnoma-wdl": _wdl_batches,
}


def simulate(cfg: SystemConfig, scheme: str, spec: SimSpec, *, genie_relay: bool = False,
             genie_sic: bool = False) -> McResult:
    """Simulate ``scheme`` (noma, cnoma or cnoma-wdl, any case) and count bit errors.

    ``genie_relay`` forwards the true bits regardless of what the relay
    detected (noma has no relay and rejects it); ``genie_sic`` feeds the
    true far-user bit to every subtraction, relay and near user, leaving
    the detections themselves unchanged.  Both isolate one loss for
    instrumentation and are deliberately not reachable from file configs.
    """
    scheme = scheme.lower()
    if scheme not in _BATCHES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {tuple(_BATCHES)}")
    if genie_relay and scheme == "noma":
        raise ValueError("genie_relay needs a relay, and noma has none")
    e1 = e2 = 0
    for err1, err2, *_ in _BATCHES[scheme](cfg, spec, genie_relay, genie_sic):
        e1 += int(np.count_nonzero(err1))
        e2 += int(np.count_nonzero(err2))
    return McResult.from_counts(spec.n_symbols, e1, e2)


def conditional_prop_stats(cfg: SystemConfig, spec: SimSpec) -> CondPropStats:
    """Empirical per-user error rates given the relay mis-detected that user's bit.

    Runs the combined scheme and, among trials where the relay's decision on
    a user's own bit was wrong, counts how often that user's final decision
    is wrong too.  Fewer than 100 conditioning events flags the estimate as
    low-confidence rather than failing.
    """
    ev1 = er1 = ev2 = er2 = 0
    for err1, err2, rel1, rel2 in _wdl_batches(cfg, spec, False, False):
        ev1 += int(np.count_nonzero(rel1))
        er1 += int(np.count_nonzero(err1 & rel1))
        ev2 += int(np.count_nonzero(rel2))
        er2 += int(np.count_nonzero(err2 & rel2))
    rate1 = er1 / ev1 if ev1 else math.nan
    rate2 = er2 / ev2 if ev2 else math.nan
    se1 = math.sqrt(rate1 * (1.0 - rate1) / ev1) if ev1 else math.nan
    se2 = math.sqrt(rate2 * (1.0 - rate2) / ev2) if ev2 else math.nan
    return CondPropStats(
        events_u1=ev1, errors_u1=er1, events_u2=ev2, errors_u2=er2,
        rate_u1=rate1, rate_u2=rate2, std_err_u1=se1, std_err_u2=se2,
        low_confidence_u1=ev1 < _LOW_CONFIDENCE_EVENTS,
        low_confidence_u2=ev2 < _LOW_CONFIDENCE_EVENTS,
    )
