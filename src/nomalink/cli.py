"""Command-line front end.

One subcommand per entry of :data:`nomalink.experiments.SWEEPS`
(``sweep-snr``, ``sweep-hwi``, ``sweep-pa``) runs that parameter's sweep and
writes CSV; ``validate`` runs both methods
over the reference SNR grid on the sweep pool, compares them with
:func:`nomalink.experiments.compare` and exits nonzero if any point
disagrees beyond three standard errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import warnings
from collections import Counter

from . import analytic, experiments

VALIDATE_SNR_GRID = tuple(float(v) for v in range(0, 35, 5))


def _add_sim_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--schemes", metavar="LIST",
                        help=f"comma-separated subset of: {', '.join(analytic.SCHEMES)}")
    parser.add_argument("--symbols", metavar="N",
                        help="Monte Carlo symbol pairs per grid point")
    parser.add_argument("--seed", metavar="N", help="Monte Carlo seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomalink",
        description="Average-BER analysis of relay-assisted downlink NOMA "
                    "under hardware and channel-estimation impairments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for swept, sweep in experiments.SWEEPS.items():
        p = sub.add_parser(sweep.command, help=f"sweep {swept} and write CSV")
        p.add_argument("--config", metavar="PATH",
                       help="flat key = value sweep config (see the README)")
        p.add_argument("--out", metavar="PATH", default="-",
                       help="output CSV path, '-' for stdout (default)")
        p.add_argument("--methods", metavar="LIST",
                       help=f"comma-separated subset of: {', '.join(experiments.METHODS)}")
        _add_sim_flags(p)
        p.set_defaults(swept=swept, run=_run_sweep_command)
    v = sub.add_parser("validate",
                       help="compare simulation against the closed forms "
                            "on the reference grid")
    _add_sim_flags(v)
    v.set_defaults(swept="snr_db", run=_validate_command)
    return parser


def _load_spec(args) -> experiments.SweepSpec:
    """The command's config file, if any, with its flags as keys that override it;
    each warning of the parser goes to stderr as one ``warning:`` line."""
    text = ""
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise experiments.ConfigError(
                f"{args.config} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    flags = {key: getattr(args, key, None) for key in ("schemes", "methods", "symbols", "seed")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", experiments.ConfigWarning)
        spec = experiments.parse_config(text, default_sweep=args.swept, flags=flags)
    if spec.swept_parameter != args.swept:
        raise experiments.ConfigError(
            f"{args.config} sweeps {spec.swept_parameter} but {args.command} "
            f"sweeps {args.swept}")
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return spec


def _run_sweep_command(args) -> int:
    spec = _load_spec(args)
    # Open the output before sweeping, so an unwritable path fails before
    # any simulation runs rather than after all of them.
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="utf-8")) as fh:
        result = experiments.run_sweep(spec)
        fh.write(experiments.emit_csv(result))
    failed = [r for r in result.rows if r.error is not None]
    for row in failed:
        print(f"warning: {row.scheme}/{row.user}/{row.method} at "
              f"{row.swept_param}={row.value}: {row.error}", file=sys.stderr)
    return 1 if failed else 0


def _status(record: dict) -> str:
    return "FAIL" if not record["ok"] else ("pass" if record["checked"] else "skip")


def _validate_command(args) -> int:
    """Closed forms versus Monte Carlo over ``VALIDATE_SNR_GRID`` on the
    sweep pool: one line per record of :func:`nomalink.experiments.compare`
    and a summary; a point is compared only when the closed form predicts
    at least ten expected error events.  A failed evaluation's reason goes
    to stderr as a ``warning:`` line."""
    # the flags are checked as a sweep config's keys, so a bad one is a ConfigError
    spec = dataclasses.replace(_load_spec(args), grid=VALIDATE_SNR_GRID)
    records = experiments.compare(experiments.run_sweep(spec), 10.0 / spec.sim.n_symbols)
    for r in records:
        if r["error"] is not None:
            print(f"warning: {r['scheme']}/{r['user']} at snr_db={r['snr_db']}: "
                  f"{r['error']}", file=sys.stderr)
        print(f"{_status(r)}  snr={r['snr_db']:5.1f}  {r['scheme']:9s} {r['user']}  "
              f"analytic={r['analytic']:.6e}  mc={r['mc']:.6e}  "
              f"|diff|={abs(r['mc'] - r['analytic']):.2e}  "
              f"({abs(r['sigmas']):.2f} sigma)")
    counts = Counter(_status(r) for r in records)
    print(f"{counts['pass']} pass (within 3 standard errors), {counts['skip']} skip "
          f"(closed form below 10/N), {counts['FAIL']} FAIL, of {len(records)} points")
    return 1 if counts["FAIL"] else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (experiments.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
