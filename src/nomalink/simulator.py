"""Symbol-level Monte Carlo simulation of the three downlink schemes.

Each trial transmits one fresh BPSK pair through independently drawn
channels, estimation errors, hardware distortion and thermal noise; the
receivers detect with the channel estimate only, and each receiver draws
the exact joint law of the two numbers its detector reads (see
``_receive``) rather than the complex observation.  Successive interference
cancellation is genuine: the near user (and the relay) subtracts its own
hard decision, so detection errors propagate exactly as they would on the
air, and the relay re-encodes whatever it decided before forwarding.

A run is its batches of draws (:class:`Batch`), each settled to one
geometry; a batch heard at one scenario is a :class:`Reception`, which
receives each link once for every scheme simulated on it.

The simulator is the independent check on :mod:`nomalink.analytic`; it
shares nothing with the closed forms except :class:`SystemConfig`.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig

_BATCH_SYMBOLS = 100_000
_MIN_SYMBOLS = 10_000
_MAX_SYMBOLS = 10**10  # 100,000 batches, about half an hour per scheme
_LOW_CONFIDENCE_EVENTS = 100
_USERS = ("u1", "u2")


@dataclass(frozen=True)
class SimSpec:
    """How much to simulate.

    ``n_symbols`` counts transmitted symbol pairs, 10**4 to 10**10, laid out
    as ``n_batches`` batches, full ones of 100000 and a shorter last one for
    any remainder.  Each batch owns private random streams derived from
    ``(seed, batch index)``, one per hop it holds (see ``Batch``), so results
    are bit-identical for identical inputs regardless of evaluation order,
    and a batch's variates depend neither on the scenario nor on the schemes
    it was drawn for.
    """

    n_symbols: int = 1_000_000
    seed: int = 1

    def __post_init__(self):
        for name in ("n_symbols", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_symbols < _MIN_SYMBOLS:
            raise ValueError(f"n_symbols must be at least {_MIN_SYMBOLS}")
        if self.n_symbols > _MAX_SYMBOLS:
            raise ValueError(f"n_symbols must be at most {_MAX_SYMBOLS}, got {self.n_symbols}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def n_batches(self) -> int:
        return -(-int(self.n_symbols) // _BATCH_SYMBOLS)

    def draw(self, cfg: SystemConfig, schemes, index: int) -> "Batch":
        """Draw batch ``index`` of this run for ``schemes`` (one name or
        several) from the batch's own streams, settled to the geometry of
        ``cfg`` (see :class:`Batch`)."""
        return Batch(cfg, schemes, self, index)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _binomial(errors: int, trials: int) -> tuple[float, float]:
    """The rate ``errors / trials`` and its binomial std err, NaN at 0 trials."""
    if not trials:
        return math.nan, math.nan
    p = errors / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def _user(user: str) -> str:
    if user not in _USERS:
        raise ValueError(f"unknown user {user!r}, expected one of {_USERS}")
    return user


@dataclass(frozen=True)
class McResult:
    """Bit-error counts of one simulation run, from which each user's rate
    and its standard error are read.  Results add: the sum of two runs'
    results is the result of both runs together."""

    trials: int
    errors_u1: int
    errors_u2: int

    @classmethod
    def from_counts(cls, trials: int, errors_u1: int, errors_u2: int) -> "McResult":
        return cls(trials, errors_u1, errors_u2)

    def __add__(self, other: "McResult") -> "McResult":
        """Each count summed; any other operand is not a result."""
        if not isinstance(other, McResult):
            return NotImplemented
        return McResult(self.trials + other.trials, self.errors_u1 + other.errors_u1,
                        self.errors_u2 + other.errors_u2)

    def ber(self, user: str) -> float:
        return _binomial(getattr(self, f"errors_{_user(user)}"), self.trials)[0]

    def std_err(self, user: str) -> float:
        return _binomial(getattr(self, f"errors_{_user(user)}"), self.trials)[1]


@dataclass(frozen=True)
class CondPropStats:
    """Per user, the relay's slips on that user's bit (events) and the
    user's errors among them, from which the conditional rate, its standard
    error and the flag of fewer than 100 events are read."""

    events_u1: int
    errors_u1: int
    events_u2: int
    errors_u2: int

    def rate(self, user: str) -> float:
        return self._estimate(user)[0]

    def std_err(self, user: str) -> float:
        return self._estimate(user)[1]

    def low_confidence(self, user: str) -> bool:
        return getattr(self, f"events_{_user(user)}") < _LOW_CONFIDENCE_EVENTS

    def _estimate(self, user: str) -> tuple[float, float]:
        user = _user(user)
        return _binomial(getattr(self, f"errors_{user}"), getattr(self, f"events_{user}"))


class Batch:
    """One batch of a run's random draws, drawn for a set of schemes,
    settled to one geometry, and serving every scheme whose hops it holds.

    Built by :meth:`SimSpec.draw` as batch ``index`` of the run ``spec``,
    which is its ``n_batches`` batches, drawn and simulated one at a time; the
    batch checks ``index`` and sizes itself in O(1), full or the remainder.  A
    batch holds the hops (``_HOPS``) of the schemes it was drawn for, in the
    order "s", "r", in ``hops``.  Each hop draws from its own stream: the bits
    and the source hop from ``SeedSequence((seed, index))``, the relay hop
    from that sequence's first spawned child.  The first stream holds the BPSK
    bits m1 and m2, then the source hop's receivers; each receiver, in the
    order of ``_HOP_LINKS``, takes the four standard variates of ``_receive``:
    an exponential x and three normals e_par, e_perp and z.  So a hop's rows
    do not depend on whether the other hop was drawn: noma reads the same bits
    and rows on its own batch as on one drawn for every scheme, and cnoma the
    same relay rows as cnoma-wdl.

    At its draw the batch settles every receiver row to its link's
    geometry, the estimation-error variance sigma_eps_sq and the estimate
    variance sigma~^2 of ``cfg``: ``geometry`` maps each link, in row
    order, to that pair.  Each receiver is drawn and settled in float64,
    in a scratch block of four rows, and then stored, rounded once, in
    float32.  Per row, in place: g = x sigma~^2, f = e_par sigma + sqrt(g),
    s = (e_perp sigma)^2 + f f, where sigma is the deviation of each of the
    two parts of e, and then f sqrt(g) and z sqrt(g) replace f and z.  Each
    operation and its order are fixed, as in ``_receive``.  From then on
    every array the batch holds is read-only, so it never changes: ``bits``
    (m1 and m2, one boolean row each, True where the bit is +1) and
    ``receivers`` (g, f sqrt(g), s, z sqrt(g) per row, in float32), whose
    row of each link ``_terms`` holds.  Every decision a simulation takes
    is a boolean row of the same kind, one comparison, counted against
    ``bits`` (``_detect``).  The float32 rows
    halve the bytes every pass of the tail moves; a decision differs from
    that of a float64 tail only where its statistic lies within float32
    rounding of a boundary, about 2e-8 of decisions, and no seeded count
    the tests pin moved.  A simulation refuses, with ValueError, a scenario
    whose heard links the float32 rows and tail cannot hold
    (``_FLOAT32_SPAN``).  A batch is heard at a scenario through a
    :class:`Reception` (``at``), which only reads the batch and writes rows
    of its own, so threads share a batch without a lock.  It runs only the
    tail that powers, hardware factors and the split change, on a scenario
    that shares the batch's geometry on the links it holds; a simulation
    refuses any other, and a scheme whose hops the batch lacks, with
    ValueError.  The grid points and schemes of a sweep share one geometry,
    so they share both the draws and the settling: common random numbers.
    """

    __slots__ = ("hops", "n_symbols", "geometry", "bits", "receivers", "_terms")

    def __init__(self, cfg: SystemConfig, schemes, spec: SimSpec, index: int):
        if not _is_integer(index):
            raise ValueError(f"batch index must be an integer, got {index!r}")
        index = operator.index(index)
        if not 0 <= index < spec.n_batches:
            raise ValueError(f"batch index must be in [0, {spec.n_batches}), got {index}")
        n = min(_BATCH_SYMBOLS, spec.n_symbols - index * _BATCH_SYMBOLS)
        if isinstance(schemes, str) or not np.iterable(schemes):
            schemes = (schemes,)  # one name
        names = tuple(schemes)
        if not names:
            raise ValueError("a batch is drawn for at least one scheme, got none")
        held = {hop for name in names for hop in _HOPS[_scheme(name)]}
        hops = tuple(hop for hop in _HOP_LINKS if hop in held)
        links = [link for hop in hops for link in _HOP_LINKS[hop]]
        bits = np.empty((2, n), dtype=bool)
        receivers = np.empty((len(links), 4, n), dtype=np.float32)
        seq = np.random.SeedSequence((spec.seed, index))
        rng = np.random.default_rng(seq)
        for row in bits:
            row[:] = rng.integers(0, 2, n)  # True where the bit is +1
        self.geometry = _geometry(cfg, links)
        err_sd = math.sqrt(cfg.sigma_eps_sq)  # each of the two parts of e
        variates, root, square = np.empty((4, n)), np.empty(n), np.empty(n)
        g, f, s, z = variates
        for link, row, (_, sigma_tilde_sq) in zip(links, receivers, self.geometry.values()):
            if link == _HOP_LINKS["r"][0]:  # the relay hop: seq's first child
                rng = np.random.default_rng(seq.spawn(1)[0])
            rng.standard_exponential(out=g)
            rng.standard_normal(out=variates[1:])
            g *= sigma_tilde_sq
            f *= err_sd
            np.sqrt(g, out=root)
            f += root
            s *= err_sd
            s *= s
            np.multiply(f, f, out=square)
            s += square
            f *= root
            z *= root
            row[:] = variates  # rounded once, to float32
        for array in (bits, receivers):
            array.flags.writeable = False
        self.hops, self.n_symbols = hops, n
        # views of read-only arrays, which nothing can make writeable again
        self.bits, self.receivers = bits[:], receivers[:]
        self._terms = dict(zip(links, self.receivers))

    def at(self, cfg: SystemConfig) -> "Reception":
        """This batch heard at ``cfg``, for every scheme that reads it (see
        :class:`Reception`); nothing is received until a scheme reads it."""
        return Reception(self, cfg)


def _geometry(cfg: SystemConfig, links) -> dict[str, tuple[float, float]]:
    """Per link, what settling a receiver row reads of ``cfg``:
    (sigma_eps_sq, sigma~^2)."""
    return {link: (cfg.sigma_eps_sq, cfg.sigma_tilde_sq(link)) for link in links}


#: The magnitudes a heard link's float32 rows and tail are built from must
#: lie in this span (+-320 dB): its channel gain sigma_h^2, the noise N0
#: and its power P max(1, k^2) max(1, sigma_h^2) at most the top, and the
#: larger of its received power P sigma_h^2 and N0 at least the bottom.
#: Every number the tail forms is then within about 1e3 of these, far from
#: float32's limits (1.2e-38 and 3.4e38).
_FLOAT32_SPAN = (1e-32, 1e32)


def _check_span(cfg: SystemConfig, links) -> None:
    """Refuse, with ValueError, a scenario whose ``links`` the float32 rows
    and tail cannot hold (``_FLOAT32_SPAN``), instead of overflowing into
    wrong counts."""
    low, high = _FLOAT32_SPAN
    for link in links:
        P, k, gain = cfg.power(link), cfg.hwi(link), cfg.link_budget(link).sigma_h_sq
        if (max(gain, cfg.N0, P * max(1.0, k * k) * max(1.0, gain)) > high
                or max(P * gain, cfg.N0) < low):
            raise ValueError(
                f"link {link} is out of the simulator's float32 span [{low:g}, {high:g}] "
                f"(+-{10 * math.log10(high):g} dB): P = {P:.3g}, k = {k:g}, "
                f"sigma_h^2 = {gain:.3g}, N0 = {cfg.N0:.3g}")


def _scheme(name: str) -> str:
    if not isinstance(name, str) or name.lower() not in _HOPS:
        raise ValueError(f"unknown scheme {name!r}, expected one of {tuple(_HOPS)}")
    return name.lower()


def _receive(cfg: SystemConfig, link: str, tx: np.ndarray,
             terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One link's receive chain for a batch, reduced to what detection reads.

    Detection uses only the estimate power |h~|^2 and the projection
    Re(conj(h~) y) of the observation y = (h~ + e)(sqrt(P) tx + d) + n.
    The distortion d has total variance 2 k^2 P and the estimation error e
    total variance 2 sigma_eps_sq, the accounting the closed forms use.
    Distortion and noise n are independent circular Gaussians, so given h~
    and e the projection is Gaussian with mean Re(conj(h~)(h~ + e)) sqrt(P)
    tx and variance |h~|^2 (|h~ + e|^2 2 k^2 P + N0) / 2.  Writing e in the
    frame of h~ as (e_par, e_perp) gives Re(conj(h~) e) = |h~| e_par and
    |h~ + e|^2 = (|h~| + e_par)^2 + e_perp^2, so one receiver draws four
    standard variates: |h~|^2 / sigma~^2 (exponential), e_par and e_perp
    over their deviation, and one normal z for the projected distortion
    plus noise.  All four are drawn even when a variance is zero, so a seed
    fixes the same stream for every scenario.

    ``terms`` is the receiver's row of a batch, settled in float64 at its
    draw and stored in float32 (``Batch``): g = |h~|^2, f sqrt(g) with
    f = |h~| + e_par, s = |h~ + e|^2 and z sqrt(g), the same for every
    scenario of the batch's geometry.  Every array here is float32, and
    numpy keeps a Python float scalar, as every field of a SystemConfig
    is, from widening it, so the whole receive runs in float32, within
    ``_FLOAT32_SPAN``.  What is left depends on P, k and N0.  Returns
    (phi, g): phi, a new row, is the projection with the maximum-ratio
    weight sqrt(P),
    P f sqrt(g) tx + sqrt(P) sqrt(s k^2 P + N0 / 2) z sqrt(g),
    in eight passes with one square root; g is the batch's own read-only
    row, from which a reader that needs a hop's energy P g forms it (the
    far user slices only the sign of phi and reads none).  Each operation
    and its order are fixed, here and in settling: the seeded counts of
    the tests pin them.
    """
    g, fg, s, zg = terms
    P = cfg.power(link)
    k = cfg.hwi(link)
    spread = s * (k * k * P)
    spread += 0.5 * cfg.N0
    np.sqrt(spread, out=spread)
    spread *= zg
    spread *= math.sqrt(P)
    phi = fg * P
    phi *= tx
    phi += spread
    return phi, g


#: The hops each scheme's users hear, in transmission order: "s" is the
#: source's broadcast on links s1 and s2, "r" the relay's forward on r1 and
#: r2 of what it detected on link sr.  A user hearing several hops combines
#: them by maximum-ratio combining.
_HOPS = {"noma": ("s",), "cnoma": ("r",), "cnoma-wdl": ("s", "r")}

#: The links of each hop's receivers, in draw order: the relay's own
#: receive on sr before its forward.
_HOP_LINKS = {"s": ("s1", "s2"), "r": ("sr", "r1", "r2")}


def _symbol(m: np.ndarray, root: float) -> np.ndarray:
    """The BPSK symbol of the boolean row ``m`` at amplitude ``root``, as a
    new float32 row: +-fl32(root), the sign of the bit, exactly, since
    2 fl32(root) - fl32(root) and 0 - fl32(root) are exact for a root of 0
    or a normal float32 (any alpha of 0 or at least 1.4e-76).  Two
    arithmetic passes; ``np.where`` with scalar arms takes about 25 times
    one."""
    out = np.multiply(m, 2.0 * root, dtype=np.float32)
    out -= root
    return out


def _superpose(cfg: SystemConfig, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The boolean rows (m1, m2), the source's bits or the relay's
    decisions, mapped to the symbols sqrt(alpha1) m1 + sqrt(alpha2) m2, as
    a new float32 row."""
    tx = _symbol(m1, math.sqrt(cfg.alpha1))
    tx += _symbol(m2, math.sqrt(cfg.alpha2))
    return tx


def _decide(phi: np.ndarray, gain: np.ndarray, sqrt_a1: float) -> tuple[np.ndarray, np.ndarray]:
    """The far bit and then the near bit, after successive interference
    cancellation, that the combined statistic ``phi`` decides, as boolean
    rows, True for +1: far = ``phi >= 0``, and near = ``phi >= c`` where
    far is true and ``phi >= -c`` elsewhere, with c = ``gain`` sqrt(alpha1)
    in float32.

    The four composite points lie on one line at (+-r1 +- r2) times
    ``gain`` with r1 >= r2, so the minimum-distance readout of the far bit
    is ``phi >= 0``: the nearest-point boundaries sit at -r1, 0 and +r1
    and both positive points carry m1 = +1.  The sign form also settles
    the r1 = r2 case, where two candidates coincide at zero and plain
    nearest-point search has no defined answer.  The near comparison is
    the slice of ``phi`` minus the far bit's symbol at sqrt(alpha1)
    ``gain``: IEEE subtraction keeps the sign, even under gradual
    underflow, and rounding is symmetric in sign, so it decides as that
    difference would, -0.0 as +1 and NaN as -1 included.
    """
    far = phi >= 0.0
    c = _symbol(far, sqrt_a1)
    c *= gain
    return far, phi >= c


class Reception:
    """A batch heard at one scenario: the receiving every scheme's detection
    shares, done once for all of them.

    Built by :meth:`Batch.at` and bound to the scenario ``cfg``;
    :func:`simulate` and :func:`conditional_prop_stats` refuse it, with
    ValueError, at another scenario.  It carries the batch's ``n_symbols``
    and holds four parts, each received the first time a simulation reads
    it, as the rows the kernels return, and read-only from then on:

    * ``_tx()``: the source's symbols, sqrt(alpha1) m1 + sqrt(alpha2) m2;
    * ``hop("s")``: the source hop, phi on s1 and phi and gain P g on s2;
    * ``relay()``: the relay's decisions (far, near) on the bits it heard
      on sr, boolean rows, True for +1, like the batch's ``bits``, taken
      by ``_decide`` on phi and P g;
    * ``hop("r")``: the relay hop, phi on r1 and phi and gain P g on r2,
      carrying the relay's decisions re-encoded at the relay power.

    Every row it holds is its own, none a row of the batch.  So at one
    grid point cnoma-wdl reads the source hop noma received and the relay
    hop cnoma received, and a scheme reads no hop it does not hear.
    Detection (``_detect``) writes only rows of its own.
    """

    __slots__ = ("batch", "cfg", "n_symbols", "_held")

    def __init__(self, batch: Batch, cfg: SystemConfig):
        self.batch, self.cfg = batch, cfg
        self.n_symbols = batch.n_symbols
        self._held: dict[str, tuple[np.ndarray, ...]] = {}

    def _tx(self) -> np.ndarray:
        return self._read("tx", lambda: (_superpose(self.cfg, *self.batch.bits),))[0]

    def relay(self) -> tuple[np.ndarray, np.ndarray]:
        return self._read("relay", self._relay_decisions)

    def hop(self, hop: str) -> tuple[np.ndarray, ...]:
        return self._read(hop, lambda: self._received(hop))

    def _read(self, key: str, compute) -> tuple[np.ndarray, ...]:
        rows = self._held.get(key)
        if rows is None:
            rows = tuple(compute())
            for row in rows:
                row.flags.writeable = False
            self._held[key] = rows
        return rows

    def _hear(self, link: str, tx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _receive(self.cfg, link, tx, self.batch._terms[link])

    def _relay_decisions(self):
        phi, g = self._hear("sr", self._tx())
        return _decide(phi, g * self.cfg.power("sr"), math.sqrt(self.cfg.alpha1))

    def _received(self, hop: str):
        tx = self._tx() if hop == "s" else _superpose(self.cfg, *self.relay())
        phi1 = self._hear(hop + "1", tx)[0]
        phi2, g2 = self._hear(hop + "2", tx)
        return phi1, phi2, g2 * self.cfg.power(hop + "2")


def _detect(reception: Reception, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """Each user's error mask on its own bit under ``scheme``, on the hops
    it hears of ``reception``, which this only reads.

    The relay and both users read the same law on the sqrt(P)-weighted
    sum of the hops they hear, and every decision is a boolean row, True
    for +1, compared with the batch's ``bits``: the far user reads the far
    bit ``phi >= 0`` and the near user the near row of ``_decide``, as the
    relay reads both.  A user hearing both hops sums the source's then the
    relay's statistic into rows of its own (maximum-ratio combining); the
    far user reads only the sign of its sum, so it sums no gain.
    Everything runs in float32 on the batch's float32 rows, on a scenario
    ``_receptions`` has checked against ``_FLOAT32_SPAN``.
    """
    heard = [reception.hop(hop) for hop in _HOPS[scheme]]
    phi1, phi2, gain2 = heard[0]
    if len(heard) > 1:
        phi1, phi2, gain2 = (np.add(s, r) for s, r in zip(*heard))
    m1, m2 = reception.batch.bits
    near = _decide(phi2, gain2, math.sqrt(reception.cfg.alpha1))[1]
    return (phi1 >= 0.0) != m1, near != m2


def _receptions(cfg: SystemConfig, scheme: str, spec: SimSpec | Reception):
    """The receptions a simulation of ``scheme`` on ``spec`` detects, once its
    inputs are checked (see :func:`simulate`) and before anything is drawn or
    received: a SimSpec's ``n_batches`` batches, each drawn and heard at
    ``cfg`` only when read, or the Reception itself."""
    if not isinstance(cfg, SystemConfig):
        raise TypeError(f"cfg must be a SystemConfig, got {type(cfg).__name__}")
    if not isinstance(spec, (SimSpec, Reception)):
        raise TypeError(f"spec must be a SimSpec or a Reception, got {type(spec).__name__}")
    _check_span(cfg, [link for hop in _HOPS[scheme] for link in _HOP_LINKS[hop]])
    if isinstance(spec, SimSpec):
        return (spec.draw(cfg, scheme, index).at(cfg) for index in range(spec.n_batches))
    if spec.cfg != cfg:
        raise ValueError("reception was built at another scenario; hear the batch at this "
                         "one with batch.at(cfg)")
    batch = spec.batch
    for hop in _HOPS[scheme]:
        if hop not in batch.hops:
            raise ValueError(f"batch holds the hops {batch.hops}, not {hop!r}, which {scheme} "
                             f"hears; draw a batch for {scheme}")
    wanted = _geometry(cfg, batch.geometry)  # on the links the batch holds
    if wanted != batch.geometry:
        raise ValueError(f"batch was settled to (sigma_eps_sq, sigma~^2) per link "
                         f"{batch.geometry}, not {wanted}; draw a new batch for another geometry")
    return (spec,)


def simulate(cfg: SystemConfig, scheme: str, spec: SimSpec | Reception) -> McResult:
    """Simulate ``scheme`` (noma, cnoma or cnoma-wdl, any case) and count bit errors.

    ``spec`` is a :class:`SimSpec`, a run of its ``n_batches`` batches, each
    drawn at ``cfg`` for ``scheme`` alone and freed before the next is drawn;
    or a :class:`Reception` (``batch.at(cfg)``) of one batch
    (:meth:`SimSpec.draw`) that holds every hop ``scheme`` hears, which every
    scheme simulated on it at ``cfg`` shares.  Another ``spec``, or a ``cfg``
    that is not a SystemConfig, raises TypeError; a reception heard at another
    scenario raises ValueError, as does one whose batch lacks such a hop or
    was settled to another geometry on a link it holds.  Both take one path:
    ``scheme`` is detected and counted on each reception.  So the counts of a
    SimSpec's batches, each simulated alone, sum to the SimSpec's, and a batch
    reused at another power, hardware factor or split, drawn beside other
    schemes, or heard once for several schemes, gets the counts of a fresh
    draw: a batch never changes after its draw, a reception's rows never
    change once received, and a simulation's work rows are its own.
    """
    scheme = _scheme(scheme)

    def count(reception: Reception) -> tuple[int, int, int]:
        err1, err2 = _detect(reception, scheme)
        return reception.n_symbols, int(np.count_nonzero(err1)), int(np.count_nonzero(err2))

    receptions = _receptions(cfg, scheme, spec)
    return McResult(*map(sum, zip(*map(count, receptions))))  # each reception freed once counted


def conditional_prop_stats(cfg: SystemConfig, spec: SimSpec | Reception) -> CondPropStats:
    """Per-user error counts given the relay mis-detected that user's bit.

    Runs the combined scheme on ``spec``, as :func:`simulate` does, and,
    among trials where the relay's decision on a user's own bit was wrong,
    counts how often that user's final decision is wrong too.  Fewer than
    100 conditioning events flags the rate as low-confidence rather than
    failing.
    """
    def count(reception: Reception) -> list[int]:  # per user: slips, errors among them
        slips = np.not_equal(reception.relay(), reception.batch.bits)
        errors = slips & _detect(reception, "cnoma-wdl")
        return [int(np.count_nonzero(m)) for m in (slips[0], errors[0], slips[1], errors[1])]

    receptions = _receptions(cfg, "cnoma-wdl", spec)
    return CondPropStats(*map(sum, zip(*map(count, receptions))))
