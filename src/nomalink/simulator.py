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
import numbers
from dataclasses import dataclass

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
        for name in ("n_symbols", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    bits = rng.integers(0, 2, n).astype(float)
    bits *= 2.0
    bits -= 1.0
    return bits


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

    The arithmetic runs in place on the arrays the draws return, operation
    for operation in the order of the out-of-place expressions
    gain = st x, field = sqrt(gain) + e_par and
    proj_y = sqrt(gain) (field sqrt(P) tx + spread z), so a seed gives the
    same bits; a receiver allocates two arrays beyond its draws.
    """

    __slots__ = ("gain", "proj_y")

    def __init__(self, rng, cfg: SystemConfig, link: str, tx: np.ndarray, n: int):
        P = cfg.power(link)
        k = cfg.hwi(link)
        gain = rng.standard_exponential(n)
        gain *= cfg.link_budget(link).sigma_tilde_sq
        err_sd = math.sqrt(cfg.sigma_eps_sq)  # each of the two parts of e
        field = rng.standard_normal(n)  # e_par, then the component of h~ + e along h~
        field *= err_sd
        e_perp = rng.standard_normal(n)
        e_perp *= err_sd
        z = rng.standard_normal(n)
        amp = np.sqrt(gain)
        field += amp
        spread = field * field
        e_perp *= e_perp
        spread += e_perp
        spread *= 2.0 * k * k * P
        spread += cfg.N0
        spread /= 2.0
        np.sqrt(spread, out=spread)
        field *= math.sqrt(P)
        field *= tx
        spread *= z
        field += spread
        field *= amp
        self.gain = gain
        self.proj_y = field


#: The hops each scheme's users hear, in transmission order: "s" is the
#: source's broadcast on links s1 and s2, "r" the relay's forward on r1 and
#: r2 of what it detected on link sr.  A user hearing several hops combines
#: them by maximum-ratio combining.
_HOPS = {"noma": ("s",), "cnoma": ("r",), "cnoma-wdl": ("s", "r")}


def _superpose(cfg: SystemConfig, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    return math.sqrt(cfg.alpha1) * m1 + math.sqrt(cfg.alpha2) * m2


def _hear(rng, cfg: SystemConfig, link: str, tx: np.ndarray, n: int, heard=None):
    """Draw the receiver on ``link`` and fold it into the running combination
    ``heard`` (None before the first hop), returning the new ``(phi, gain)``.

    Each projection already carries conj(h~); the maximum-ratio weight adds
    the link's transmit amplitude sqrt(P), so a hop enters the statistic
    ``phi`` with energy P |h~|^2, which ``gain`` accumulates.  The
    receiver's own arrays become the running sums, so folding allocates
    nothing.
    """
    rx = _Receiver(rng, cfg, link, tx, n)
    P = cfg.power(link)
    phi, gain = rx.proj_y, rx.gain
    phi *= math.sqrt(P)
    gain *= P
    if heard is not None:
        phi += heard[0]
        gain += heard[1]
    return phi, gain


def _slice_sign(x: np.ndarray) -> np.ndarray:
    """+1 where ``x >= 0`` (-0.0 included), else -1 (NaN included).

    The comparison writes straight into a float array, which is then
    mapped {0, 1} -> {-1, +1} in place: about a fifth of the time of
    ``np.where`` on a 100,000-entry batch.
    """
    sign = np.greater_equal(x, 0.0, out=np.empty(x.shape))
    sign *= 2.0
    sign -= 1.0
    return sign


def _sic_slice(phi: np.ndarray, gain: np.ndarray, sqrt_a1: float,
               m1_known: np.ndarray | None, layers: int) -> tuple[np.ndarray, ...]:
    """The first ``layers`` bits in SIC order (far, then near) from a
    combined statistic: the far user reads one layer, the near user and
    the relay both.

    The four composite points lie on one line at (+-r1 +- r2) times
    ``gain`` with r1 >= r2, so the minimum-distance readout of the far bit
    is the sign of ``phi``: the nearest-point boundaries sit at -r1, 0 and
    +r1 and both positive points carry m1 = +1.  The sign form also settles
    the r1 = r2 case, where two candidates coincide at zero and plain
    nearest-point search has no defined answer.  The near bit is the sign
    after subtracting the far bit at sqrt(alpha1) ``gain``: the far
    decision, or ``m1_known`` when a genie supplies the true bit.
    """
    far = _slice_sign(phi)
    if layers == 1:
        return (far,)
    sub = far if m1_known is None else m1_known
    return far, _slice_sign(phi - sqrt_a1 * sub * gain)


def _batches(cfg: SystemConfig, scheme: str, spec: SimSpec, genie_relay: bool,
             genie_sic: bool):
    """Yield per batch each user's error mask on its own bit and the relay's
    two error masks (None without a relay).

    The relay and both users read the same law: they slice the
    sqrt(P)-weighted sum of the hops they hear (``_sic_slice``).  The relay
    hears the source on link sr and re-encodes its decisions at the relay
    power, unless ``genie_relay`` forwards the true bits.  Receivers are
    drawn in the order s1, s2, sr, r1, r2.
    """
    # glibc trims the heap whenever freed arrays of a batch meet at its top,
    # and the next allocation faults those pages back in.  Each receiver is
    # folded into (phi, gain) in place as soon as it is drawn, so a fold
    # allocates nothing.  Measured on two cores over nine in-process
    # sweep-snr sweeps: 0.81-0.94M minor faults at 120-122 MB peak RSS;
    # folding into new arrays took 1.51-1.73M, and keeping every receiver's
    # arrays until the next batch 1.03-1.05M at 138-151 MB.
    sqrt_a1 = math.sqrt(cfg.alpha1)
    for rng, n in _rngs(spec):
        m1, m2 = _bits(rng, n), _bits(rng, n)
        m1_known = m1 if genie_sic else None
        tx = _superpose(cfg, m1, m2)
        u1 = u2 = relay = None
        for hop in _HOPS[scheme]:
            if hop == "r":
                relay = _sic_slice(*_hear(rng, cfg, "sr", tx, n), sqrt_a1, m1_known, 2)
                if not genie_relay:
                    tx = _superpose(cfg, *relay)
            u1 = _hear(rng, cfg, hop + "1", tx, n, u1)
            u2 = _hear(rng, cfg, hop + "2", tx, n, u2)
        err1 = _sic_slice(*u1, sqrt_a1, m1_known, 1)[0] != m1
        err2 = _sic_slice(*u2, sqrt_a1, m1_known, 2)[1] != m2
        yield err1, err2, None if relay is None else (relay[0] != m1, relay[1] != m2)


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
    if scheme not in _HOPS:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {tuple(_HOPS)}")
    if genie_relay and scheme == "noma":
        raise ValueError("genie_relay needs a relay, and noma has none")
    e1 = e2 = 0
    for err1, err2, _ in _batches(cfg, scheme, spec, genie_relay, genie_sic):
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
    for err1, err2, (slip1, slip2) in _batches(cfg, "cnoma-wdl", spec, False, False):
        ev1 += int(np.count_nonzero(slip1))
        er1 += int(np.count_nonzero(err1 & slip1))
        ev2 += int(np.count_nonzero(slip2))
        er2 += int(np.count_nonzero(err2 & slip2))
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
