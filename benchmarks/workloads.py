"""The benchmark's three workloads: inputs built from a seed, one timed
iteration, and the check of every output against the committed references.

Each workload drives nomalink only through public functions, looked up on
their module or class at call time so that the traced run's span wrappers
(see ``tracing.py``) see every call.

* ``mc-ref``: the Quickstart call, three serial 1M-symbol simulations.
* ``sweep-snr``: the whole command-line path of ``nomalink sweep-snr``.
* ``closed-form``: dense design-space grids through ``scheme_ber`` and
  ``scheme_ber_floor``; never reaches the simulator.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nomalink import analytic, cli, experiments, simulator
from nomalink.model import SystemConfig

NAMES = ("mc-ref", "sweep-snr", "closed-form")

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
MC_REFERENCE = REFERENCE_DIR / "monte_carlo.json"
CLOSED_FORM_REFERENCE = REFERENCE_DIR / "closed_form.npz"

#: Seed of the Monte Carlo references; ``sim_seed`` never returns it.
REFERENCE_SEED = 0
#: A Monte Carlo BER passes when it lies within this many combined standard
#: errors (its own and the reference's) of the reference BER.  At 5 the
#: chance of a false failure is 6e-7 per row.
Z_MAX = 5.0
#: Closed-form outputs must match the reference to floating-point rounding.
CLOSED_FORM_RTOL = 1e-9
CLOSED_FORM_ATOL = 1e-15

SCHEME_USERS = tuple((s, u) for s in analytic.SCHEMES for u in analytic.USERS)

MC_REF_SNR_DB = 20.0
MC_REF_SYMBOLS = 1_000_000

SWEEP_SYMBOLS = 200_000
SWEEP_GRID = tuple(float(v) for v in range(0, 45, 5))
SWEEP_METHODS = ("analytic", "monte-carlo")

# 21 x 13 x 11 = 3003 scenarios, six scheme_ber calls each, plus six
# scheme_ber_floor calls per (hwi, alpha1) pair: 18876 evaluations.
CF_SNR_DB = tuple(float(v) for v in range(0, 41, 2))
CF_HWI = tuple(round(0.015 * i, 3) for i in range(13))
CF_ALPHA1 = tuple(round(0.55 + 0.04 * i, 2) for i in range(11))


def sim_seed(seed: int, iteration: int) -> int:
    """Monte Carlo seed of one iteration: fixed by the workload seed, new
    for every iteration, and never the reference seed."""
    return 1 + ((seed << 10) + iteration) % (1 << 62)


def scenario_key(snr_db: float) -> str:
    return f"snr_db={float(snr_db)!r}"


@dataclass
class McRow:
    """One Monte Carlo BER evaluation and everything needed to trace it."""

    scenario: str
    scheme: str
    user: str
    seed: int
    n_symbols: int
    errors: int | None
    ber: float
    std_err: float | None
    wall_s: float
    wall_scope: str
    z: float | None = None
    error: str | None = None


@dataclass
class Iteration:
    """Outcome of one workload iteration.

    ``wall_s`` covers the calls into nomalink only; checking happens after
    the clock stops.  ``failures`` holds one message per failed evaluation.
    """

    index: int
    seed: int
    wall_s: float
    attempted: int
    failures: list[str] = field(default_factory=list)
    mc_rows: list[McRow] = field(default_factory=list)
    symbols: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def rel_err(self) -> float | None:
        """Geometric mean of std_err/ber over the rows that counted errors."""
        ratios = [r.std_err / r.ber for r in self.mc_rows
                  if r.error is None and r.errors and r.std_err]
        if not ratios:
            return None
        return math.exp(sum(math.log(x) for x in ratios) / len(ratios))


# -- references ---------------------------------------------------------------


@dataclass(frozen=True)
class References:
    mc: dict
    cf_ber: np.ndarray
    cf_floor: np.ndarray


def load_references() -> References:
    mc = json.loads(MC_REFERENCE.read_text(encoding="utf-8"))
    with np.load(CLOSED_FORM_REFERENCE, allow_pickle=False) as data:
        for name, grid in (("snr_db", CF_SNR_DB), ("hwi_k", CF_HWI), ("alpha1", CF_ALPHA1)):
            if not np.array_equal(data[name], np.asarray(grid)):
                raise ValueError(f"closed-form reference grid {name} does not match the workload")
        cf_ber, cf_floor = data["ber"], data["floor"]
    return References(mc=mc["scenarios"], cf_ber=cf_ber, cf_floor=cf_floor)


def check_mc_row(row: McRow, refs: References) -> None:
    """Set ``row.error`` if the row fails its check; record its z-score."""
    if row.error is not None:
        return
    if not math.isfinite(row.ber) or row.std_err is None or not math.isfinite(row.std_err):
        row.error = f"non-finite result: ber={row.ber!r} std_err={row.std_err!r}"
        return
    if not row.errors:
        row.error = "zero errors counted; its std_err of 0 would claim certainty"
        return
    ref = refs.mc[row.scenario]["monte-carlo"][f"{row.scheme}/{row.user}"]
    combined = math.hypot(row.std_err, ref["std_err"])
    row.z = abs(row.ber - ref["ber"]) / combined
    if row.z > Z_MAX:
        row.error = (f"ber {row.ber!r} is {row.z:.1f} combined standard errors "
                     f"from the reference {ref['ber']!r}")


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- workloads ----------------------------------------------------------------


class McRef:
    """``simulate`` at the reference 20 dB scenario, each scheme in turn."""

    def __init__(self, seed: int, n_symbols: int = MC_REF_SYMBOLS):
        self.seed = seed
        self.n_symbols = n_symbols
        self.cfg = SystemConfig.defaults(snr_db=MC_REF_SNR_DB)

    def iterate(self, index: int, refs: References) -> Iteration:
        seed = sim_seed(self.seed, index)
        spec = simulator.SimSpec(n_symbols=self.n_symbols, seed=seed)
        results = []
        start = time.perf_counter()
        for scheme in analytic.SCHEMES:
            t0 = time.perf_counter()
            try:
                outcome = simulator.simulate(self.cfg, scheme, spec)
            except Exception as exc:  # counted as a failure, never aborts the run
                outcome = exc
            results.append((scheme, outcome, time.perf_counter() - t0))
        wall = time.perf_counter() - start

        it = Iteration(index, seed, wall, attempted=2 * len(results),
                       symbols=self.n_symbols * len(results))
        for scheme, outcome, elapsed in results:
            for user in analytic.USERS:
                row = McRow(scenario_key(MC_REF_SNR_DB), scheme, user, seed,
                            self.n_symbols, None, math.nan, None, elapsed, "simulate")
                if isinstance(outcome, Exception):
                    row.error = _describe(outcome)
                else:
                    row.errors = getattr(outcome, f"errors_{user}")
                    row.ber = outcome.ber(user)
                    row.std_err = outcome.std_err(user)
                check_mc_row(row, refs)
                it.mc_rows.append(row)
        it.failures = [f"{r.scheme}/{r.user}: {r.error}" for r in it.mc_rows if r.error]
        return it


class SweepSnr:
    """``nomalink sweep-snr`` end to end: config file in, CSV file out."""

    def __init__(self, seed: int, workdir: Path, symbols: int = SWEEP_SYMBOLS):
        self.seed = seed
        self.symbols = symbols
        self.config_text = sweep_config_text(symbols)
        self.config_path = Path(workdir) / "sweep-snr.conf"
        self.out_path = Path(workdir) / "sweep-snr.csv"
        self.config_path.write_text(self.config_text, encoding="utf-8")
        self.expected = [(v, s, u, m) for v in SWEEP_GRID for s in analytic.SCHEMES
                         for u in analytic.USERS for m in SWEEP_METHODS]

    def spec(self, seed: int):
        """The sweep the command line runs, for calling ``run_sweep`` directly."""
        return experiments.parse_config(self.config_text + f"seed = {seed}\n")

    def iterate(self, index: int, refs: References) -> Iteration:
        seed = sim_seed(self.seed, index)
        if self.out_path.exists():
            self.out_path.unlink()
        argv = ["sweep-snr", "--config", str(self.config_path),
                "--out", str(self.out_path), "--seed", str(seed)]
        start = time.perf_counter()
        try:
            outcome = cli.main(argv)
        except Exception as exc:  # counted as a failure, never aborts the run
            outcome = exc
        wall = time.perf_counter() - start

        simulations = len(SWEEP_GRID) * len(analytic.SCHEMES)
        it = Iteration(index, seed, wall, attempted=len(self.expected),
                       symbols=self.symbols * simulations)
        if isinstance(outcome, Exception):
            it.failures = [f"cli.main raised {_describe(outcome)}"] * len(self.expected)
            return it
        try:
            rows = _read_csv(self.out_path)
        except (OSError, ValueError) as exc:
            it.failures = [f"unreadable CSV: {exc}"] * len(self.expected)
            return it
        for key in self.expected:
            value, scheme, user, method = key
            found = rows.get(key)
            if found is None:
                it.failures.append(f"{key}: row missing (cli.main returned {outcome})")
                continue
            ber, std_err = found
            if method == "analytic":
                ref = refs.mc[scenario_key(value)]["analytic"][f"{scheme}/{user}"]
                if not math.isclose(ber, ref, rel_tol=CLOSED_FORM_RTOL,
                                    abs_tol=CLOSED_FORM_ATOL):
                    it.failures.append(f"{key}: analytic {ber!r} != reference {ref!r}")
                continue
            row = McRow(scenario_key(value), scheme, user, seed, self.symbols,
                        round(ber * self.symbols) if math.isfinite(ber) else None,
                        ber, std_err, wall, "iteration")
            check_mc_row(row, refs)
            it.mc_rows.append(row)
            if row.error:
                it.failures.append(f"{key}: {row.error}")
        extra = set(rows) - set(self.expected)
        if extra:
            it.failures.append(f"{len(extra)} unexpected CSV rows")
        return it


def sweep_config_text(symbols: int) -> str:
    grid = ", ".join(f"{v:g}" for v in SWEEP_GRID)
    return ("sweep = snr_db\n"
            f"grid = {grid}\n"
            "schemes = noma, cnoma, cnoma-wdl\n"
            "methods = analytic, mc\n"
            f"symbols = {symbols}\n")


def _read_csv(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != experiments.CSV_HEADER:
        raise ValueError(f"header {lines[:1]!r} is not {experiments.CSV_HEADER!r}")
    rows = {}
    for line in lines[1:]:
        _, value, scheme, user, method, ber, std_err = line.split(",")
        rows[(float(value), scheme, user, method)] = (
            float(ber), float(std_err) if std_err else None)
    return rows


class ClosedForm:
    """Every scheme and user over a dense (hwi, alpha1, snr) grid, plus the
    error floor of every (hwi, alpha1) pair.  The seed fixes the order in
    which the grid is visited; the set of evaluations is always the same."""

    def __init__(self, seed: int, stride: int = 1):
        rng = np.random.default_rng(seed % (1 << 63))
        pairs = [(i, j) for i in range(0, len(CF_HWI), stride)
                 for j in range(0, len(CF_ALPHA1), stride)]
        self.pairs = [pairs[p] for p in rng.permutation(len(pairs))]
        snrs = list(range(0, len(CF_SNR_DB), stride))
        self.snr_order = [snrs[p] for p in rng.permutation(len(snrs))]
        self.seed = seed
        self.base = SystemConfig.defaults()

    def iterate(self, index: int, refs: References) -> Iteration:
        ber = np.full(refs.cf_ber.shape, np.nan)
        floor = np.full(refs.cf_floor.shape, np.nan)
        failures = []
        start = time.perf_counter()
        for i, j in self.pairs:
            try:
                cfg_ij = self.base.with_hwi(CF_HWI[i]).with_alpha1(CF_ALPHA1[j])
                for s in self.snr_order:
                    cfg = cfg_ij.with_snr_db(CF_SNR_DB[s])
                    for c, (scheme, user) in enumerate(SCHEME_USERS):
                        try:
                            ber[i, j, s, c] = analytic.scheme_ber(cfg, scheme, user)
                        except Exception as exc:
                            failures.append(f"scheme_ber {(i, j, s, scheme, user)}: "
                                            f"{_describe(exc)}")
                for c, (scheme, user) in enumerate(SCHEME_USERS):
                    try:
                        floor[i, j, c] = analytic.scheme_ber_floor(cfg_ij, scheme, user)
                    except Exception as exc:
                        failures.append(f"scheme_ber_floor {(i, j, scheme, user)}: "
                                        f"{_describe(exc)}")
            except Exception as exc:
                failures.append(f"config {(i, j)}: {_describe(exc)}")
        wall = time.perf_counter() - start

        visited_i = [i for i, _ in self.pairs]
        visited_j = [j for _, j in self.pairs]
        got = np.concatenate([ber[visited_i, visited_j][:, self.snr_order].ravel(),
                              floor[visited_i, visited_j].ravel()])
        want = np.concatenate([refs.cf_ber[visited_i, visited_j][:, self.snr_order].ravel(),
                               refs.cf_floor[visited_i, visited_j].ravel()])
        it = Iteration(index, self.seed, wall, attempted=got.size)
        bad = ~np.isclose(got, want, rtol=CLOSED_FORM_RTOL, atol=CLOSED_FORM_ATOL)
        # An exception leaves NaN in its slots, so each failed evaluation is
        # counted once, from ``bad``; exception texts label the NaN slots.
        raised = iter(failures)
        it.failures = [f"output {got[k]!r} != reference {want[k]!r}" if np.isfinite(got[k])
                       else next(raised, "NaN output") for k in np.flatnonzero(bad)]
        return it


def build(name: str, seed: int, workdir: Path):
    """The workload's inputs: everything an iteration needs, built from the seed."""
    if name == "mc-ref":
        return McRef(seed)
    if name == "sweep-snr":
        return SweepSnr(seed, workdir)
    if name == "closed-form":
        return ClosedForm(seed)
    raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
