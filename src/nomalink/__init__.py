"""Average-BER toolkit for relay-assisted downlink NOMA under hardware and
channel-estimation impairments: closed forms, a symbol-level Monte Carlo
simulator that cross-checks them, and sweep tooling.

The package root re-exports the documented entry points; every other name
is imported from its submodule (``nomalink.model``, ``nomalink.analytic``,
``nomalink.simulator``, ``nomalink.experiments``, ``nomalink.cli``).
"""

from .analytic import SCHEMES, USERS, scheme_ber, scheme_ber_floor
from .experiments import ConfigError, SweepSpec, emit_csv, parse_config, run_sweep
from .model import SystemConfig
from .simulator import McResult, SimSpec, simulate

__all__ = [
    "SCHEMES",
    "USERS",
    "ConfigError",
    "McResult",
    "SimSpec",
    "SweepSpec",
    "SystemConfig",
    "emit_csv",
    "parse_config",
    "run_sweep",
    "scheme_ber",
    "scheme_ber_floor",
    "simulate",
]

__version__ = "0.1.0"
