"""Parameter sweeps, CSV output and the flat-text config format.

A sweep varies one parameter (transmit SNR, hardware-quality factor, or the
power split) over a grid and evaluates BER for the requested schemes and
users by each requested method of :data:`METHODS`: closed forms, or Monte
Carlo batches that run concurrently, each drawn once per index and shared
by every grid point and every requested scheme.  A batch's task goes
through the grid point by point and hears the batch once at each point,
for every scheme (``Batch.at``).  Rows come out in a fixed order:
grid-major, then scheme, user, method.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

from . import analytic, simulator
from .model import SystemConfig

CSV_HEADER = "swept_param,value,scheme,user,method,ber,std_err"


class Sweep(NamedTuple):
    """What the package knows of one swept parameter."""

    command: str                # the command-line subcommand that runs it
    constructor: str            # the SystemConfig copy constructor that sets it
    grid: tuple[float, ...]     # default grid
    snr_db: float               # default operating SNR


# One record per swept parameter.  The copy constructor is looked up by name
# on each call, so a wrapper installed on the class (as benchmarks/tracing.py
# does) sees every grid point.  The operating SNR of an SNR sweep is a
# placeholder (each grid point replaces it); hardware sweeps run at high SNR,
# where the floor shows, power-split sweeps at the usual mid-SNR setting.
SWEEPS = {
    "snr_db": Sweep("sweep-snr", "with_snr_db", tuple(map(float, range(0, 45, 5))), 40.0),
    "hwi_k": Sweep("sweep-hwi", "with_hwi", tuple(round(0.025 * i, 3) for i in range(9)), 40.0),
    "alpha1": Sweep("sweep-pa", "with_alpha1",
                    tuple(round(0.55 + 0.05 * i, 2) for i in range(9)), 20.0),
}


class ConfigError(ValueError):
    """A sweep config file could not be understood."""


class ConfigWarning(UserWarning):
    """A sweep config sets a key that the sweep it describes never reads."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: what to vary, over which grid, and how to evaluate it.

    ``base`` supplies everything that is not swept.  For SNR sweeps the grid
    replaces both transmit powers (N0 stays at one); for hardware sweeps it
    replaces the factor on all five links; for power-allocation sweeps it
    replaces the split.
    """

    swept_parameter: str
    grid: tuple[float, ...]
    base: SystemConfig = field(default_factory=SystemConfig)
    schemes: tuple[str, ...] = analytic.SCHEMES
    methods: tuple[str, ...] = field(default_factory=lambda: tuple(METHODS))
    sim: simulator.SimSpec = field(default_factory=simulator.SimSpec)

    def __post_init__(self):
        for name, kind in (("base", SystemConfig), ("sim", simulator.SimSpec)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if self.swept_parameter not in SWEEPS:
            raise ValueError(
                f"swept_parameter must be one of {tuple(SWEEPS)}, "
                f"got {self.swept_parameter!r}"
            )
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        for name, known in (("schemes", analytic.SCHEMES), ("methods", tuple(METHODS))):
            value = getattr(self, name)  # a string, or any other non-iterable, is one entry
            one = isinstance(value, str) or not hasattr(value, "__iter__")
            names = (value,) if one else tuple(value)
            for entry in names or [value]:  # an empty value is its own bad entry
                if not isinstance(entry, str) or entry.lower() not in known:
                    raise ValueError(f"{name} must be a nonempty subset of {known}, got {entry!r}")
            names = tuple(n.lower() for n in names)
            if len(set(names)) < len(names):
                raise ValueError(f"{name} must not repeat an entry, got {names}")
            object.__setattr__(self, name, names)
        for value in grid:
            self.config_at(value)  # every grid point must yield a valid scenario

    def config_at(self, value: float) -> SystemConfig:
        return getattr(self.base, SWEEPS[self.swept_parameter].constructor)(value)


@dataclass(frozen=True)
class SweepRow:
    """One (grid value, scheme, user, method) evaluation.

    ``std_err`` is None for closed-form rows.  A failed evaluation keeps its
    slot with ``ber`` = NaN and the message in ``error``.
    """

    swept_param: str
    value: float
    scheme: str
    user: str
    method: str
    ber: float
    std_err: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]


def _cores() -> int:
    """The cores this process may run on: the default size of the sweep pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _attempt(evaluate, *args):
    """``evaluate(*args)``, or the message of the exception it raised (its
    type's name when the message is empty): a failed evaluation is recorded
    in its rows and never aborts the sweep."""
    try:
        return evaluate(*args)
    except Exception as exc:
        return str(exc) or type(exc).__name__


def _closed_forms(spec: SweepSpec, configs: list[SystemConfig], pool) -> dict:
    """The ``analytic`` method: every closed form, on the calling thread."""
    outcomes = {}
    for point, cfg in enumerate(configs):
        for scheme in spec.schemes:
            for user in analytic.USERS:
                ber = _attempt(analytic.scheme_ber, cfg, scheme, user)
                outcomes[point, scheme, user] = ber if isinstance(ber, str) else (ber, None)
    return outcomes


def _simulate_batch(sim: simulator.SimSpec, configs: list[SystemConfig],
                    schemes: tuple[str, ...], index: int) -> dict[str, list]:
    """One pool task: draw batch ``index`` once for all of ``schemes``, at
    the geometry the grid points share, and go through the grid point by
    point: hear the batch once at each point (``Batch.at``) and simulate
    each scheme on that one reception, which is dropped before the next
    point is heard.  Each scheme's entries are, per point, its result or,
    when the draw or the simulation raised, the message."""
    batch = _attempt(sim.draw, configs[0], schemes, index)
    if isinstance(batch, str):
        return dict.fromkeys(schemes, [batch] * len(configs))
    outcomes = {scheme: [] for scheme in schemes}
    for cfg in configs:
        reception = batch.at(cfg)
        for scheme in schemes:
            outcomes[scheme].append(_attempt(simulator.simulate, cfg, scheme, reception))
    return outcomes


def _simulations(spec: SweepSpec, configs: list[SystemConfig], pool) -> dict:
    """The ``monte-carlo`` method: one pool task per batch index below
    ``spec.sim.n_batches``, so the grid points and the requested schemes share
    each batch's draws, yet each point's counts, summed over its batches,
    equal those of ``simulate`` with the sweep's SimSpec.  A point keeps the
    first error among its batches."""
    tasks = [pool.submit(_simulate_batch, spec.sim, configs, spec.schemes, index)
             for index in range(spec.sim.n_batches)]
    per_batch = [task.result() for task in tasks]
    outcomes = {}
    for scheme in spec.schemes:
        for point, results in enumerate(zip(*(batch[scheme] for batch in per_batch))):
            error = next((r for r in results if isinstance(r, str)), None)
            if error is None:
                total = simulator.McResult(sum(r.trials for r in results),
                                           sum(r.errors_u1 for r in results),
                                           sum(r.errors_u2 for r in results))
            for user in analytic.USERS:
                outcomes[point, scheme, user] = error or (total.ber(user), total.std_err(user))
    return outcomes


# Each method's evaluator maps (spec, configs, pool) to, for every (point, scheme,
# user), a (ber, std_err) pair (std_err None for a closed form) or an error message.
METHODS = {"analytic": _closed_forms, "monte-carlo": _simulations}


def run_sweep(spec: SweepSpec, max_workers: int | None = None) -> SweepResult:
    """Evaluate the whole grid by each of ``spec.methods`` in turn, its
    evaluator sharing a pool of ``max_workers`` threads (a positive
    integer; by default one per usable core); rows come out in a fixed
    order."""
    if max_workers is not None and (isinstance(max_workers, bool) or not isinstance(
            max_workers, numbers.Integral) or max_workers < 1):
        raise ValueError(f"max_workers must be a positive integer, got {max_workers!r}")
    configs = [spec.config_at(value) for value in spec.grid]
    workers = _cores() if max_workers is None else int(max_workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = {method: METHODS[method](spec, configs, pool) for method in spec.methods}
    rows = []
    for point, value in enumerate(spec.grid):
        for scheme in spec.schemes:
            for user in analytic.USERS:
                for method in spec.methods:
                    key = (spec.swept_parameter, value, scheme, user, method)
                    outcome = outcomes[method][point, scheme, user]
                    fields = (math.nan, None, outcome) if isinstance(outcome, str) else outcome
                    rows.append(SweepRow(*key, *fields))
    return SweepResult(spec=spec, rows=tuple(rows))


def compare(result: SweepResult, threshold: float) -> list[dict]:
    """Pair each closed-form row of ``result`` with its Monte Carlo row.

    One record per (grid value, scheme, user), in row order, keyed by the
    swept parameter's name (``snr_db`` for an SNR sweep) and ``scheme``,
    ``user``, ``analytic``, ``mc``, ``std_err``, ``sigmas`` (the signed
    distance ``(mc - analytic) / std_err``; a zero ``std_err`` gives +-inf,
    or 0 when the two agree), ``checked``, ``ok`` and ``error`` (None, or
    each failed evaluation's message prefixed with its method).  A point is
    checked when the closed form is at least ``threshold`` and is then ok
    within three standard errors; a row whose evaluation failed (NaN) is
    checked and not ok, never skipped.  A NaN ``threshold`` raises ValueError.
    """
    if math.isnan(threshold):
        raise ValueError("compare needs a threshold to check points against, got nan")
    if not {"analytic", "monte-carlo"} <= set(result.spec.methods):
        raise ValueError("compare needs a sweep over both methods ('analytic', 'monte-carlo')")
    mc_rows = {(r.value, r.scheme, r.user): r for r in result.rows
               if r.method == "monte-carlo"}
    records = []
    for row in result.rows:
        if row.method != "analytic":
            continue
        mc = mc_rows[(row.value, row.scheme, row.user)]
        se = math.nan if mc.std_err is None else mc.std_err
        gap = mc.ber - row.ber
        broken = math.isnan(gap) or math.isnan(se)
        checked = broken or row.ber >= threshold
        if se:
            sigmas = gap / se
        else:
            sigmas = math.copysign(math.inf, gap) if gap else 0.0
        records.append({
            result.spec.swept_parameter: row.value, "scheme": row.scheme,
            "user": row.user, "analytic": row.ber, "mc": mc.ber, "std_err": se,
            "sigmas": sigmas, "checked": checked,
            "ok": not broken and (not checked or abs(gap) <= 3.0 * se),
            "error": "; ".join(f"{r.method}: {r.error}" for r in (row, mc)
                               if r.error is not None) or None,
        })
    return records


def emit_csv(result: SweepResult) -> str:
    """Render a sweep as CSV with round-trippable float formatting."""
    lines = [CSV_HEADER]
    for row in result.rows:
        std = "" if row.std_err is None else repr(float(row.std_err))
        lines.append(",".join([
            row.swept_param,
            repr(float(row.value)),
            row.scheme,
            row.user,
            row.method,
            repr(float(row.ber)),
            std,
        ]))
    return "\n".join(lines) + "\n"


# -- flat key = value config files -------------------------------------------
#
# Each key's parser turns the text of its value, from a file line or from the
# command-line flag of the same name, into what the sweep spec holds.


def _number(kind):
    what = "integer" if kind is int else "number"

    def parse(key, text):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"invalid {what} for {key!r}: {text!r}") from None
    return parse


def _list_of(parse_entry, what):
    def parse(key, text):
        entries = [v.strip() for v in text.split(",")]
        if "" in entries:
            raise ConfigError(f"empty entry in {what} list {text!r}")
        return tuple(parse_entry(key, v) for v in entries)
    return parse


def _name_in(known, what, aliases=None):
    """A parser of one name of ``known``, any case, or of its alias."""
    def parse(key, text):
        name = (aliases or {}).get(text.lower(), text.lower())
        if name not in known:
            raise ConfigError(f"unknown {what} {text!r}, expected one of {tuple(known)}")
        return name
    return parse


# The scenario keys that SystemConfig.defaults takes as they are; snr_db and
# alpha1 (which also sets alpha2) are the other two.
_SCENARIO_KEYS = ("d_s1", "d_s2", "d_sr", "d_r1", "d_r2", "a", "sigma_eps_sq", "hwi_k")

_PARSERS = {
    "sweep": _name_in(SWEEPS, "sweep"),
    "grid": _list_of(_number(float), "grid"),
    "schemes": _list_of(_name_in(analytic.SCHEMES, "scheme"), "scheme"),
    "methods": _list_of(_name_in(METHODS, "method", {"mc": "monte-carlo"}), "method"),
    "symbols": _number(int),
    "seed": _number(int),
    **dict.fromkeys((*_SCENARIO_KEYS, "snr_db", "alpha1"), _number(float)),
}


def parse_config(text: str, default_sweep: str = "snr_db",
                 flags: dict[str, str | None] | None = None) -> SweepSpec:
    """Build a :class:`SweepSpec` from flat ``key = value`` text.

    ``#`` starts a comment, blank lines are skipped, list values are
    comma-separated.  Unknown or duplicate keys are rejected with their line
    number; an empty file yields the default sweep over its reference grid.
    ``flags`` maps keys to command-line text (None for a flag not given);
    each given flag is parsed like its key's file line and overrides it.
    Recognized keys:

    ``sweep`` (a key of :data:`SWEEPS`, any case), ``grid``, ``schemes``,
    ``methods``, ``symbols``, ``seed``, ``snr_db`` (the operating point for
    non-SNR sweeps; by default the swept parameter's record gives it),
    ``alpha1``, ``hwi_k`` (all five links), ``sigma_eps_sq``, the five
    distances ``d_s1 .. d_r2`` and the path-loss exponent ``a``.  The swept
    parameter's own key is rejected: its values are ``grid``.  ``symbols``
    or ``seed`` without ``monte-carlo`` among the methods is read but
    unused, and warned of with a :class:`ConfigWarning`.
    """
    seen: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if key not in _PARSERS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        try:
            seen[key] = _PARSERS[key](key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    for key, value in (flags or {}).items():
        if value is not None:
            seen[key] = _PARSERS[key](key, value)
    return _spec_from_keys(seen, default_sweep)


def _spec_from_keys(seen: dict, default_sweep: str) -> SweepSpec:
    swept = seen.get("sweep", default_sweep)
    if swept in seen:
        raise ConfigError(f"key {swept!r} sets the swept parameter; "
                          f"list its values in 'grid' instead")
    base_kw = {key: seen[key] for key in _SCENARIO_KEYS if key in seen}
    if "alpha1" in seen:
        base_kw.update(alpha1=seen["alpha1"], alpha2=1.0 - seen["alpha1"])
    sim_kw = {name: seen[key] for key, name in (("symbols", "n_symbols"), ("seed", "seed"))
              if key in seen}
    try:
        base = SystemConfig.defaults(snr_db=seen.get("snr_db", SWEEPS[swept].snr_db), **base_kw)
        spec = SweepSpec(swept, seen.get("grid", SWEEPS[swept].grid), base,
                         seen.get("schemes", analytic.SCHEMES),
                         seen.get("methods", tuple(METHODS)), simulator.SimSpec(**sim_kw))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ignored = [key for key in ("symbols", "seed") if key in seen]
    if ignored and "monte-carlo" not in spec.methods:
        verb = "apply" if len(ignored) > 1 else "applies"
        warnings.warn(f"{' and '.join(ignored)} only {verb} to monte-carlo, which methods "
                      f"leaves out; ignored", ConfigWarning, stacklevel=3)
    return spec
