"""Parameter sweeps, CSV output and the flat-text config format.

A sweep varies one parameter (transmit SNR, hardware-quality factor, or the
power split) over a grid and evaluates closed-form and/or Monte Carlo BER
for the requested schemes and users.  Grid points run concurrently but rows
come out in a fixed order: grid-major, then scheme, user, method.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from . import analytic, simulator
from .model import SystemConfig

SWEPT_PARAMETERS = ("snr_db", "hwi_k", "alpha1")
METHODS = ("analytic", "monte-carlo")

CSV_HEADER = "swept_param,value,scheme,user,method,ber,std_err"

DEFAULT_SNR_GRID = tuple(float(v) for v in range(0, 45, 5))
DEFAULT_HWI_GRID = tuple(i * 0.025 for i in range(0, 9))
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
        schemes = tuple(s.lower() for s in self.schemes)
        unknown = set(schemes) - set(analytic.SCHEMES)
        if unknown or not schemes:
            raise ValueError(f"schemes must be a nonempty subset of {analytic.SCHEMES}")
        object.__setattr__(self, "schemes", schemes)
        methods = tuple(m.lower() for m in self.methods)
        unknown = set(methods) - set(METHODS)
        if unknown or not methods:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        object.__setattr__(self, "methods", methods)
        for value in grid:
            self.config_at(value)  # every grid point must yield a valid scenario

    def config_at(self, value: float) -> SystemConfig:
        if self.swept_parameter == "snr_db":
            return self.base.with_snr_db(value)
        if self.swept_parameter == "hwi_k":
            return self.base.with_hwi(value)
        return self.base.with_alpha1(value)


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


def _evaluate_point(spec: SweepSpec, value: float) -> list[SweepRow]:
    rows = []
    try:
        cfg = spec.config_at(value)
    except ValueError as exc:
        for scheme in spec.schemes:
            for user in analytic.USERS:
                for method in spec.methods:
                    rows.append(SweepRow(spec.swept_parameter, value, scheme, user,
                                         method, math.nan, None, str(exc)))
        return rows

    for scheme in spec.schemes:
        mc = None
        mc_error = None
        if "monte-carlo" in spec.methods:
            try:
                mc = simulator.simulate(cfg, scheme, spec.sim)
            except Exception as exc:  # record, never abort the sweep
                mc_error = str(exc)
        for user in analytic.USERS:
            for method in spec.methods:
                if method == "analytic":
                    try:
                        ber = analytic.scheme_ber(cfg, scheme, user)
                        rows.append(SweepRow(spec.swept_parameter, value, scheme,
                                             user, method, ber))
                    except Exception as exc:
                        rows.append(SweepRow(spec.swept_parameter, value, scheme,
                                             user, method, math.nan, None, str(exc)))
                elif mc is not None:
                    rows.append(SweepRow(spec.swept_parameter, value, scheme, user,
                                         method, mc.ber(user), mc.std_err(user)))
                else:
                    rows.append(SweepRow(spec.swept_parameter, value, scheme, user,
                                         method, math.nan, None, mc_error))
    return rows


def run_sweep(spec: SweepSpec, max_workers: int | None = None) -> SweepResult:
    """Evaluate the whole grid; points run concurrently, rows stay ordered."""
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        per_point = list(pool.map(lambda v: _evaluate_point(spec, v), spec.grid))
    rows = tuple(row for point in per_point for row in point)
    return SweepResult(spec=spec, rows=rows)


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

_ALIASES = {"mc": "monte-carlo"}

_SCALAR_KEYS = ("d_s1", "d_s2", "d_sr", "d_r1", "d_r2", "a",
                "alpha1", "hwi_k", "sigma_eps_sq", "snr_db")


def _parse_float(key, value, line_no):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: invalid number for {key!r}: {value!r}") from None


def _parse_int(key, value, line_no):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: invalid integer for {key!r}: {value!r}") from None


def parse_names(raw: str, known: tuple[str, ...], what: str) -> tuple[str, ...]:
    """Split a comma-separated list of ``known`` names, case-insensitively
    (``mc`` stands for ``monte-carlo``).  An empty or unknown entry raises
    :class:`ConfigError` naming ``what``."""
    names = []
    for part in raw.split(","):
        part = part.strip().lower()
        if not part:
            raise ConfigError(f"empty entry in {what} list {raw!r}")
        name = _ALIASES.get(part, part)
        if name not in known:
            raise ConfigError(f"unknown {what} {part!r}")
        names.append(name)
    return tuple(names)


_LIST_KEYS = {"schemes": (analytic.SCHEMES, "scheme"), "methods": (METHODS, "method")}


def parse_config(text: str, default_sweep: str = "snr_db") -> SweepSpec:
    """Build a :class:`SweepSpec` from flat ``key = value`` text.

    ``#`` starts a comment, blank lines are skipped, list values are
    comma-separated.  Unknown keys are rejected with their line number; an
    empty file yields the default sweep over its reference grid.  Recognized
    keys:

    ``sweep`` (snr_db | hwi_k | alpha1), ``grid``, ``schemes``, ``methods``,
    ``symbols``, ``seed``, ``snr_db`` (the operating point for non-SNR
    sweeps: 40 dB for hardware sweeps, 20 dB for power-split sweeps unless
    set here), ``alpha1``, ``hwi_k`` (all five links), ``sigma_eps_sq``,
    the five distances ``d_s1 .. d_r2`` and the path-loss exponent ``a``.
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
        if key == "sweep":
            if value not in SWEPT_PARAMETERS:
                raise ConfigError(
                    f"line {line_no}: sweep must be one of {SWEPT_PARAMETERS}, got {value!r}"
                )
            seen[key] = value
        elif key == "grid":
            seen[key] = tuple(_parse_float(key, v.strip(), line_no)
                              for v in value.split(",") if v.strip())
        elif key in _LIST_KEYS:
            try:
                seen[key] = parse_names(value, *_LIST_KEYS[key])
            except ConfigError as exc:
                raise ConfigError(f"line {line_no}: {exc}") from None
        elif key in ("symbols", "seed"):
            seen[key] = _parse_int(key, value, line_no)
        elif key in _SCALAR_KEYS:
            seen[key] = _parse_float(key, value, line_no)
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    return _spec_from_keys(seen, default_sweep)


# Operating point when the config does not set one: the SNR-sweep value is a
# placeholder (each grid point replaces it), hardware sweeps run at high SNR
# where the floor behavior shows, power-split sweeps at the usual mid-SNR
# benchmark setting.
_DEFAULT_OPERATING_SNR = {"snr_db": 40.0, "hwi_k": 40.0, "alpha1": 20.0}


def _spec_from_keys(seen: dict, default_sweep: str = "snr_db") -> SweepSpec:
    swept = seen.get("sweep", default_sweep)
    grid = seen.get("grid", DEFAULT_GRIDS[swept])

    base_kw = {}
    for key in ("d_s1", "d_s2", "d_sr", "d_r1", "d_r2", "a", "sigma_eps_sq"):
        if key in seen:
            base_kw[key] = seen[key]
    if "alpha1" in seen:
        base_kw["alpha1"] = seen["alpha1"]
        base_kw["alpha2"] = 1.0 - seen["alpha1"]
    operating_snr = seen.get("snr_db", _DEFAULT_OPERATING_SNR[swept])
    p = 10.0 ** (operating_snr / 10.0)
    base_kw.update(P_s=p, P_r=p, N0=1.0)
    hwi_k = seen.get("hwi_k", 0.175)
    base_kw.update({f"k_{link}": hwi_k for link in ("s1", "s2", "sr", "r1", "r2")})
    try:
        base = SystemConfig(**base_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sim_kw = {}
    if "symbols" in seen:
        sim_kw["n_symbols"] = seen["symbols"]
    if "seed" in seen:
        sim_kw["seed"] = seen["seed"]
    try:
        sim = simulator.SimSpec(**sim_kw)
        return SweepSpec(
            swept_parameter=swept,
            grid=grid,
            base=base,
            schemes=seen.get("schemes", analytic.SCHEMES),
            methods=seen.get("methods", METHODS),
            sim=sim,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def spec_with(spec: SweepSpec, *, schemes=None, methods=None,
              n_symbols: int | None = None, seed: int | None = None) -> SweepSpec:
    """Copy of ``spec`` with CLI-style overrides applied.

    An override that makes the spec invalid raises :class:`ConfigError`.
    """
    kw = {}
    if schemes is not None:
        kw["schemes"] = schemes
    if methods is not None:
        kw["methods"] = methods
    sim_kw = {}
    if n_symbols is not None:
        sim_kw["n_symbols"] = n_symbols
    if seed is not None:
        sim_kw["seed"] = seed
    try:
        if sim_kw:
            kw["sim"] = replace(spec.sim, **sim_kw)
        return replace(spec, **kw) if kw else spec
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
