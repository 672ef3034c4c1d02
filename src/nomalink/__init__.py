"""Average-BER toolkit for relay-assisted downlink NOMA under hardware and
channel-estimation impairments: closed forms, a symbol-level Monte Carlo
simulator that cross-checks them, and sweep tooling.

Each name is imported from the module that defines it: the scenario from
``nomalink.model``, the closed forms from ``nomalink.analytic``, the
simulator from ``nomalink.simulator``, sweeps and the config parser from
``nomalink.experiments`` and the command line from ``nomalink.cli``.
"""

__version__ = "0.1.0"
