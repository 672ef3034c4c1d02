"""Parameter sweeps, CSV output and the flat-text config format.

A sweep varies one parameter (transmit SNR, hardware-quality factor, or the
power split) over a grid and evaluates closed-form and/or Monte Carlo BER
for the requested schemes and users.  Monte Carlo batches run concurrently,
each shared by every grid point, but rows come out in a fixed order:
grid-major, then scheme, user, method.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import analytic, simulator
from .model import SystemConfig

# The SystemConfig copy constructor that sets each swept parameter.  It is
# looked up by name on each call, so a wrapper installed on the class (as
# benchmarks/tracing.py does) sees every grid point.
_CONSTRUCTOR_OF_PARAMETER = {"snr_db": "with_snr_db", "hwi_k": "with_hwi",
                             "alpha1": "with_alpha1"}
SWEPT_PARAMETERS = tuple(_CONSTRUCTOR_OF_PARAMETER)
METHODS = ("analytic", "monte-carlo")

CSV_HEADER = "swept_param,value,scheme,user,method,ber,std_err"

DEFAULT_SNR_GRID = tuple(float(v) for v in range(0, 45, 5))
DEFAULT_HWI_GRID = tuple(round(0.025 * i, 3) for i in range(0, 9))
DEFAULT_ALPHA_GRID = tuple(round(0.55 + 0.05 * i, 2) for i in range(0, 9))
DEFAULT_GRIDS = {"snr_db": DEFAULT_SNR_GRID, "hwi_k": DEFAULT_HWI_GRID,
                 "alpha1": DEFAULT_ALPHA_GRID}


class ConfigError(ValueError):
    """A sweep config file could not be understood."""


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
    methods: tuple[str, ...] = METHODS
    sim: simulator.SimSpec = field(default_factory=simulator.SimSpec)

    def __post_init__(self):
        if self.swept_parameter not in SWEPT_PARAMETERS:
            raise ValueError(
                f"swept_parameter must be one of {SWEPT_PARAMETERS}, "
                f"got {self.swept_parameter!r}"
            )
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        for name, known in (("schemes", analytic.SCHEMES), ("methods", METHODS)):
            names = tuple(n.lower() for n in getattr(self, name))
            if not names or not set(names) <= set(known):
                raise ValueError(f"{name} must be a nonempty subset of {known}")
            if len(set(names)) < len(names):
                raise ValueError(f"{name} must not repeat an entry, got {names}")
            object.__setattr__(self, name, names)
        for value in grid:
            self.config_at(value)  # every grid point must yield a valid scenario

    def config_at(self, value: float) -> SystemConfig:
        return getattr(self.base, _CONSTRUCTOR_OF_PARAMETER[self.swept_parameter])(value)


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


def _simulate_batch(sim: simulator.SimSpec, configs: list[SystemConfig], scheme: str,
                    index: int) -> list:
    """One pool task: draw batch ``index`` of ``scheme`` once and simulate it
    at every grid point.  Each entry is that point's result or, when the draw
    or the simulation raised, its message."""
    try:
        batch = sim.draw(scheme, index)
    except Exception as exc:  # record, never abort the sweep
        return [str(exc)] * len(configs)
    results = []
    for cfg in configs:
        try:
            results.append(simulator.simulate(cfg, scheme, batch))
        except Exception as exc:
            results.append(str(exc))
    return results


def _total(per_batch: tuple) -> simulator.McResult | str:
    """One grid point's counts summed over its batches, or the first error."""
    for result in per_batch:
        if isinstance(result, str):
            return result
    return simulator.McResult.from_counts(sum(r.trials for r in per_batch),
                                          sum(r.errors_u1 for r in per_batch),
                                          sum(r.errors_u2 for r in per_batch))


def _closed_form(cfg: SystemConfig, scheme: str, user: str) -> float | str:
    try:
        return analytic.scheme_ber(cfg, scheme, user)
    except Exception as exc:  # record, never abort the sweep
        return str(exc)


def run_sweep(spec: SweepSpec, max_workers: int | None = None) -> SweepResult:
    """Evaluate the whole grid; rows come out in a fixed order.

    The Monte Carlo work runs on a pool of ``max_workers`` threads (by
    default one per usable core) as one task per (scheme, batch): the task
    draws its batch once and simulates it at every grid point.  So the grid
    points share each batch's draws, and each point's counts equal those of
    ``simulate`` with the sweep's SimSpec.  The closed forms are evaluated
    meanwhile on the calling thread.
    """
    configs = [spec.config_at(value) for value in spec.grid]
    workers = _cores() if max_workers is None else max_workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tasks = {}
        if "monte-carlo" in spec.methods:
            tasks = {scheme: [pool.submit(_simulate_batch, spec.sim, configs, scheme, index)
                              for index in range(len(spec.sim.batches()))]
                     for scheme in spec.schemes}
        closed = {}
        if "analytic" in spec.methods:
            closed = {(point, scheme, user): _closed_form(cfg, scheme, user)
                      for point, cfg in enumerate(configs) for scheme in spec.schemes
                      for user in analytic.USERS}
        mc = {scheme: [_total(point) for point in zip(*(task.result() for task in per_batch))]
              for scheme, per_batch in tasks.items()}
    rows = []
    for point, value in enumerate(spec.grid):
        for scheme in spec.schemes:
            for user in analytic.USERS:
                for method in spec.methods:
                    key = (spec.swept_parameter, value, scheme, user, method)
                    outcome = (closed[point, scheme, user] if method == "analytic"
                               else mc[scheme][point])
                    if isinstance(outcome, str):
                        rows.append(SweepRow(*key, math.nan, None, outcome))
                    elif method == "analytic":
                        rows.append(SweepRow(*key, outcome))
                    else:
                        rows.append(SweepRow(*key, outcome.ber(user), outcome.std_err(user)))
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
    checked and not ok, never skipped.
    """
    if set(result.spec.methods) != set(METHODS):
        raise ValueError(f"compare needs a sweep over both methods {METHODS}")
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

_ALIASES = {"mc": "monte-carlo"}


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


def _name_in(known, what):
    def parse(key, text):
        name = _ALIASES.get(text.lower(), text.lower())
        if name not in known:
            raise ConfigError(f"unknown {what} {name!r}")
        return name
    return parse


def _sweep(key, text):
    if text not in SWEPT_PARAMETERS:
        raise ConfigError(f"sweep must be one of {SWEPT_PARAMETERS}, got {text!r}")
    return text


_PARSERS = {
    "sweep": _sweep,
    "grid": _list_of(_number(float), "grid"),
    "schemes": _list_of(_name_in(analytic.SCHEMES, "scheme"), "scheme"),
    "methods": _list_of(_name_in(METHODS, "method"), "method"),
    "symbols": _number(int),
    "seed": _number(int),
    **dict.fromkeys(("d_s1", "d_s2", "d_sr", "d_r1", "d_r2", "a", "alpha1", "hwi_k",
                     "sigma_eps_sq", "snr_db"), _number(float)),
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

    ``sweep`` (snr_db | hwi_k | alpha1), ``grid``, ``schemes``, ``methods``,
    ``symbols``, ``seed``, ``snr_db`` (the operating point for non-SNR
    sweeps: 40 dB for hardware sweeps, 20 dB for power-split sweeps unless
    set here), ``alpha1``, ``hwi_k`` (all five links), ``sigma_eps_sq``,
    the five distances ``d_s1 .. d_r2`` and the path-loss exponent ``a``.
    The swept parameter's own key is rejected: its values are ``grid``.
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


# Operating point when the config does not set one: the SNR-sweep value is a
# placeholder (each grid point replaces it), hardware sweeps run at high SNR
# where the floor behavior shows, power-split sweeps at the usual mid-SNR
# benchmark setting.
_DEFAULT_OPERATING_SNR = {"snr_db": 40.0, "hwi_k": 40.0, "alpha1": 20.0}


def _spec_from_keys(seen: dict, default_sweep: str) -> SweepSpec:
    swept = seen.get("sweep", default_sweep)
    if swept in seen:
        raise ConfigError(f"key {swept!r} sets the swept parameter; "
                          f"list its values in 'grid' instead")
    base_kw = {key: seen[key] for key in ("d_s1", "d_s2", "d_sr", "d_r1", "d_r2", "a",
                                          "sigma_eps_sq", "hwi_k") if key in seen}
    if "alpha1" in seen:
        base_kw["alpha1"] = seen["alpha1"]
        base_kw["alpha2"] = 1.0 - seen["alpha1"]
    sim_kw = {name: seen[key] for key, name in (("symbols", "n_symbols"), ("seed", "seed"))
              if key in seen}
    try:
        base = SystemConfig.defaults(
            snr_db=seen.get("snr_db", _DEFAULT_OPERATING_SNR[swept]), **base_kw)
        return SweepSpec(swept, seen.get("grid", DEFAULT_GRIDS[swept]), base,
                         seen.get("schemes", analytic.SCHEMES),
                         seen.get("methods", METHODS), simulator.SimSpec(**sim_kw))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
