"""Symbol-level Monte Carlo simulation of the three downlink schemes.

Each trial transmits one fresh BPSK pair through independently drawn
channels, estimation errors, hardware distortion and thermal noise; the
receivers detect with the channel estimate only, and each receiver draws
the exact joint law of the two numbers its detector reads (see
``_receive``) rather than the complex observation.  Successive interference
cancellation is genuine: the near user (and the relay) subtracts its own
hard decision, so detection errors propagate exactly as they would on the
air, and the relay re-encodes whatever it decided before forwarding.

The simulator is the independent check on :mod:`nomalink.analytic`; it
shares nothing with the closed forms except :class:`SystemConfig`.
"""

from __future__ import annotations

import math
import numbers
import threading
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
    are bit-identical for identical inputs regardless of evaluation order,
    and a batch's draws do not depend on the scenario (see ``draw``).
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

    def draw(self, scheme: str, index: int) -> "Batch":
        """Draw batch ``index`` of this run for ``scheme``, from the batch's
        own stream: bits m1 and m2, then four variates per receiver."""
        sizes = self.batches()
        if not 0 <= index < len(sizes):
            raise ValueError(f"batch index must be in [0, {len(sizes)}), got {index}")
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, index)))
        return Batch(_scheme(scheme), rng, sizes[index])


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


class Batch:
    """One batch of a run's random draws for one scheme, drawn once.

    Built by :meth:`SimSpec.draw`.  ``bits`` holds the BPSK bits m1 and m2
    as +-1 floats; ``receivers`` holds, per receiver in the order the
    scheme's chain reads them, the four standard variates of ``_receive``:
    an exponential and three normals.  Every array is read-only, so any
    number of scenarios can be simulated on the same draws; that is what a
    sweep does, and it gives its grid points common random numbers.

    The work arrays those simulations write are allocated by the first and
    kept with the batch for the rest.  A lock lets one simulation at a time
    use them, so a batch is safe to share between threads.
    """

    __slots__ = ("scheme", "n_symbols", "bits", "receivers", "_work", "_lock")

    def __init__(self, scheme: str, rng, n: int):
        receivers = sum(3 if hop == "r" else 2 for hop in _HOPS[scheme])
        draws = np.empty((2 + 4 * receivers, n))
        for bits in draws[:2]:
            bits[:] = rng.integers(0, 2, n)
            bits *= 2.0
            bits -= 1.0
        for variates in draws[2:].reshape(receivers, 4, n):
            rng.standard_exponential(out=variates[0])
            rng.standard_normal(out=variates[1:])
        draws.flags.writeable = False  # before any view is taken, so all inherit it
        self.scheme = scheme
        self.n_symbols = n
        self.bits = draws[:2]
        self.receivers = draws[2:].reshape(receivers, 4, n)
        self._work = None
        self._lock = threading.Lock()


def _scheme(name: str) -> str:
    scheme = name.lower()
    if scheme not in _HOPS:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {tuple(_HOPS)}")
    return scheme


def _work(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The work arrays of the chain for batches of up to ``n`` symbols: ten
    float rows (``_chain`` names them) and four boolean error-mask rows."""
    return np.empty((10, n)), np.empty((4, n), dtype=bool)


def _receive(cfg: SystemConfig, link: str, tx: np.ndarray, variates: np.ndarray,
             phi: np.ndarray, gain: np.ndarray, scratch: tuple[np.ndarray, ...]) -> None:
    """One link's receive chain for a batch, reduced to what detection reads.

    Detection uses only the estimate power |h~|^2 and the projection
    Re(conj(h~) y) of the observation y = (h~ + e)(sqrt(P) tx + d) + n.
    The distortion d has total variance 2 k^2 P and the estimation error e
    total variance 2 sigma_eps_sq, the accounting the closed forms use.
    Distortion and noise n are independent circular Gaussians, so given h~
    and e the projection is Gaussian with mean Re(conj(h~)(h~ + e)) sqrt(P)
    tx and variance |h~|^2 (|h~ + e|^2 2 k^2 P + N0) / 2.  Writing e in the
    frame of h~ as (e_par, e_perp) gives Re(conj(h~) e) = |h~| e_par and
    |h~ + e|^2 = (|h~| + e_par)^2 + e_perp^2, so one receiver reads four
    standard ``variates`` of its batch: |h~|^2 / sigma~^2 (exponential),
    e_par and e_perp over their deviation, and one normal for the projected
    distortion plus noise.  All four are drawn even when a variance is
    zero, so a seed fixes the same stream for every scenario.

    The receiver writes into work arrays and never into its read-only
    variates: ``phi`` gets the projection with the maximum-ratio weight
    sqrt(P), so a hop enters a user's statistic with energy P |h~|^2, which
    goes to ``gain``.  ``scratch`` is three more work arrays (sqrt(|h~|^2),
    the spread and a temporary).  The arithmetic is the out-of-place
    gain = st x, field = sqrt(gain) + e_par,
    proj_y = sqrt(gain) (field sqrt(P) tx + spread z), operation for
    operation, so a seed gives the same bits.
    """
    exponential, e_par, e_perp, z = variates
    amp, spread, tmp = scratch
    P = cfg.power(link)
    k = cfg.hwi(link)
    err_sd = math.sqrt(cfg.sigma_eps_sq)  # each of the two parts of e
    np.multiply(exponential, cfg.link_budget(link).sigma_tilde_sq, out=gain)
    np.multiply(e_par, err_sd, out=phi)  # then the component of h~ + e along h~
    np.multiply(e_perp, err_sd, out=tmp)
    np.sqrt(gain, out=amp)
    phi += amp
    np.multiply(phi, phi, out=spread)
    tmp *= tmp
    spread += tmp
    spread *= 2.0 * k * k * P
    spread += cfg.N0
    spread /= 2.0
    np.sqrt(spread, out=spread)
    phi *= math.sqrt(P)
    phi *= tx
    spread *= z
    phi += spread
    phi *= amp
    phi *= math.sqrt(P)
    gain *= P


#: The hops each scheme's users hear, in transmission order: "s" is the
#: source's broadcast on links s1 and s2, "r" the relay's forward on r1 and
#: r2 of what it detected on link sr.  A user hearing several hops combines
#: them by maximum-ratio combining.
_HOPS = {"noma": ("s",), "cnoma": ("r",), "cnoma-wdl": ("s", "r")}


def _superpose(cfg: SystemConfig, m1: np.ndarray, m2: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> None:
    np.multiply(m1, math.sqrt(cfg.alpha1), out=out)
    np.multiply(m2, math.sqrt(cfg.alpha2), out=tmp)
    out += tmp


def _slice_sign(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write +1 where ``x >= 0`` (-0.0 included), else -1 (NaN included),
    into ``out``, which may be ``x`` itself.

    The comparison writes straight into the float array, which is then
    mapped {0, 1} -> {-1, +1} in place: about a fifth of the time of
    ``np.where`` on a 100,000-entry batch.
    """
    np.greater_equal(x, 0.0, out=out)
    out *= 2.0
    out -= 1.0
    return out


def _sic_slice(phi: np.ndarray, gain: np.ndarray, sqrt_a1: float,
               m1_known: np.ndarray | None, far: np.ndarray, near: np.ndarray) -> None:
    """Write the two bits in SIC order (far, then near) of a combined
    statistic into ``far`` and ``near``: the relay and the near user read
    both, the far user only the sign of its statistic.

    The four composite points lie on one line at (+-r1 +- r2) times
    ``gain`` with r1 >= r2, so the minimum-distance readout of the far bit
    is the sign of ``phi``: the nearest-point boundaries sit at -r1, 0 and
    +r1 and both positive points carry m1 = +1.  The sign form also settles
    the r1 = r2 case, where two candidates coincide at zero and plain
    nearest-point search has no defined answer.  The near bit is the sign
    after subtracting the far bit at sqrt(alpha1) ``gain``: the far
    decision, or ``m1_known`` when a genie supplies the true bit.
    """
    _slice_sign(phi, far)
    np.multiply(far if m1_known is None else m1_known, sqrt_a1, out=near)
    near *= gain
    np.subtract(phi, near, out=near)
    _slice_sign(near, near)


def _chain(cfg: SystemConfig, batch: Batch, work: tuple[np.ndarray, np.ndarray],
           genie_relay: bool, genie_sic: bool):
    """Detect one batch; return each user's error mask on its own bit and
    the relay's two error masks (None without a relay), all rows of
    ``work``.

    The relay and both users read the same law: they slice the
    sqrt(P)-weighted sum of the hops they hear (``_sic_slice``).  The relay
    hears the source on link sr and re-encodes its decisions at the relay
    power, unless ``genie_relay`` forwards the true bits.  Receivers are
    read in the order s1, s2, sr, r1, r2, the order ``Batch`` draws them.
    """
    n = batch.n_symbols
    floats, flags = work
    tx, phi1, gain1, phi2, gain2, phi, gain, *scratch = floats[:, :n]
    amp, spread, tmp = scratch
    err1, err2, slip1, slip2 = flags[:, :n]
    m1, m2 = batch.bits
    m1_known = m1 if genie_sic else None
    sqrt_a1 = math.sqrt(cfg.alpha1)
    variates = iter(batch.receivers)
    _superpose(cfg, m1, m2, tx, tmp)
    relay = None
    for heard, hop in enumerate(_HOPS[batch.scheme]):
        if hop == "r":
            _receive(cfg, "sr", tx, next(variates), phi, gain, scratch)
            _sic_slice(phi, gain, sqrt_a1, m1_known, amp, spread)
            relay = np.not_equal(amp, m1, out=slip1), np.not_equal(spread, m2, out=slip2)
            if not genie_relay:
                _superpose(cfg, amp, spread, tx, tmp)
        for link, user_phi, user_gain in ((hop + "1", phi1, gain1), (hop + "2", phi2, gain2)):
            if not heard:  # a user's first hop starts its sums
                _receive(cfg, link, tx, next(variates), user_phi, user_gain, scratch)
            else:  # later hops fold in by maximum-ratio combining
                _receive(cfg, link, tx, next(variates), phi, gain, scratch)
                user_phi += phi
                user_gain += gain
    _slice_sign(phi1, phi1)
    _sic_slice(phi2, gain2, sqrt_a1, m1_known, amp, spread)
    return np.not_equal(phi1, m1, out=err1), np.not_equal(spread, m2, out=err2), relay


def _batches(cfg: SystemConfig, scheme: str, spec, genie_relay: bool, genie_sic: bool):
    """Yield ``_chain``'s masks for each batch of ``spec``: every batch of a
    :class:`SimSpec`, drawn one at a time, or the one :class:`Batch` given.
    The masks are work arrays, overwritten by the next batch."""
    # glibc trims the heap whenever freed arrays meet at its top, and the
    # next allocation faults those pages back in.  So the chain writes every
    # receiver, fold, superposition and slice into one set of work arrays
    # (``_work``), allocated once per call here and once per Batch, where a
    # sweep's grid points all reuse it.  A SimSpec's batches are drawn one at
    # a time into one block each, freed before the next is drawn.  Measured
    # on two cores, in one process after a warm-up: run_sweep on the
    # sweep-snr spec took 3-3,877 minor faults per sweep (median 6), against
    # 78-100k when every receiver and slice allocated its own arrays; a
    # 1M-pair simulate 0.8-1.5k per call against 12-20k, at 6-20 MB more
    # peak RSS, since a whole batch of draws and the work arrays are live
    # at once.
    if isinstance(spec, Batch):
        if spec.scheme != scheme:
            raise ValueError(f"batch was drawn for {spec.scheme}, not {scheme}")
        with spec._lock:
            if spec._work is None:
                spec._work = _work(spec.n_symbols)
            yield _chain(cfg, spec, spec._work, genie_relay, genie_sic)
        return
    sizes = spec.batches()
    work = _work(sizes[0])
    for index in range(len(sizes)):
        yield _chain(cfg, spec.draw(scheme, index), work, genie_relay, genie_sic)


def simulate(cfg: SystemConfig, scheme: str, spec: SimSpec | Batch, *,
             genie_relay: bool = False, genie_sic: bool = False) -> McResult:
    """Simulate ``scheme`` (noma, cnoma or cnoma-wdl, any case) and count bit errors.

    ``spec`` is a :class:`SimSpec`, whose batches are drawn one at a time,
    or one :class:`Batch` drawn for ``scheme``, whose draws are reused as
    they are: the counts of a SimSpec's batches, each simulated alone, sum
    to the SimSpec's.  ``genie_relay`` forwards the true bits regardless of
    what the relay detected (noma has no relay and rejects it);
    ``genie_sic`` feeds the true far-user bit to every subtraction, relay
    and near user, leaving the detections themselves unchanged.  Both
    isolate one loss for instrumentation and are deliberately not reachable
    from file configs.
    """
    scheme = _scheme(scheme)
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
