"""Command line front end.

Three subcommands share a scenario argument (built-in name or scenario
file) and a seed override:

* ``certify``  - compute the coupling threshold and residual bound,
  write ``report.txt`` and ``report.json``; exit 0 when certified, 2
  when the hypotheses fail, 1 on bad input.
* ``simulate`` - integrate the network, write ``trajectory.csv``,
  ``errors.csv`` and ``summary.txt``; exit 0, or 3 when the state
  diverged, 1 on bad input.
* ``sweep``    - integrate every gain of a grid in one pass and certify
  each, write ``sweep.csv``; exit 0, 1 on bad input (checked before the
  output directory is created).

Outputs carry no timestamps, so a rerun with identical arguments
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .certify import CertifyError
from .graph import GraphError
from .scenarios import BUILTINS, ConfigError, load_scenario
from .sim import (
    SimError,
    error_series,
    steady_state_eps,
    sweep_coupling,
    write_error_csv,
    write_sweep_csv,
    write_trajectory_csv,
)

__all__ = ["main", "build_parser"]


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--scenario", required=True,
        help=f"built-in name ({', '.join(sorted(BUILTINS))}) or scenario file path",
    )
    sub.add_argument("--seed", type=int, default=None, help="seed override for all scenario draws")
    sub.add_argument("--out", default="pwsync-out", help="output directory (created if missing)")
    sub.add_argument("--dt", type=float, default=None, help="integration step override")
    sub.add_argument("--t-end", type=float, default=None, help="integration horizon override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwsync",
        description="certified synchronization bounds and simulation for coupled piecewise-smooth networks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    cert = subs.add_parser("certify", help="compute coupling threshold and residual bound")
    _add_common(cert)
    cert.add_argument("--c", type=float, default=None, help="coupling gain (default: scenario value)")
    cert.set_defaults(func=cmd_certify)

    sim = subs.add_parser("simulate", help="integrate the network and measure the residual")
    _add_common(sim)
    sim.add_argument("--c", type=float, default=None, help="coupling gain (default: scenario value)")
    sim.set_defaults(func=cmd_simulate)

    sweep = subs.add_parser("sweep", help="certify and simulate across a gain grid")
    _add_common(sweep)
    sweep.add_argument("--c-min", type=float, required=True, help="smallest gain")
    sweep.add_argument("--c-max", type=float, required=True, help="largest gain")
    sweep.add_argument("--points", type=int, default=10, help="number of grid points")
    sweep.add_argument("--grid", choices=("lin", "log"), default="lin", help="grid spacing")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def _scenario_meta(scenario) -> dict:
    meta = dict(scenario.meta)
    meta["mode"] = scenario.resolved_mode()
    meta["c"] = scenario.coupling.c
    meta["coupling"] = scenario.coupling.label or scenario.coupling.variant
    return meta


def _apply_sim_overrides(scenario, args):
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    return scenario.with_sim(**overrides) if overrides else scenario


def _apply_gain(scenario, args):
    """The scenario at ``--c``; a negative or non-finite gain is bad input."""
    return scenario if args.c is None else scenario.with_gain(args.c)


def cmd_certify(args) -> int:
    scenario = _apply_gain(load_scenario(args.scenario, args.seed), args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        report = scenario.certify()
    except CertifyError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    meta = _scenario_meta(scenario)
    header = [f"# {key} = {meta[key]}" for key in sorted(meta)]
    text = "\n".join(header) + "\n\n" + report.to_text() + "\n"
    (outdir / "report.txt").write_text(text)
    payload = {"report": report.to_dict(), "scenario": {k: str(v) for k, v in meta.items()}}
    (outdir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(report.to_text())
    print(f"report written to {outdir}")
    return 0 if report.certified else 2


def cmd_simulate(args) -> int:
    scenario = _apply_sim_overrides(load_scenario(args.scenario, args.seed), args)
    scenario = _apply_gain(scenario, args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    traj = scenario.simulate()
    series = error_series(traj)
    eps_hat = steady_state_eps(series, scenario.sim.tail_fraction)

    try:
        report = scenario.certify()
    except CertifyError as exc:
        report, cert_note = None, str(exc)
    else:
        cert_note = None

    meta = _scenario_meta(scenario)
    write_trajectory_csv(traj, outdir / "trajectory.csv", extra_meta=meta)
    write_error_csv(series, outdir / "errors.csv", extra_meta=meta)

    lines = [
        f"scenario = {scenario.name}",
        f"mode = {meta['mode']}",
        f"c = {meta['c']:.17g}",
        f"dt = {scenario.sim.dt:.17g}",
        f"t_end = {traj.times[-1]:.17g}",
        f"steps = {traj.times.shape[0] - 1}",
        f"diverged = {'yes' if traj.diverged else 'no'}",
        f"eps_hat = {eps_hat:.17g}",
    ]
    if report is not None:
        eps_bar = report.eps_bar
        lines.append("eps_bar = n/a" if eps_bar is None else f"eps_bar = {eps_bar:.17g}")
        lines.append(f"certified = {'yes' if report.certified else 'no'}")
        if report.certified and eps_bar == 0.0:
            lines.append("eps_hat <= eps_bar = n/a (a zero eps_bar is only reached as t -> inf)")
        elif report.certified and eps_bar is not None and np.isfinite(eps_bar):
            ok = "yes" if eps_hat <= eps_bar else "no"
            lines.append(f"eps_hat <= eps_bar = {ok}")
    else:
        lines.append(f"certification skipped: {cert_note}")
    for key in sorted(meta):
        lines.append(f"# {key} = {meta[key]}")
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")

    for line in lines:
        if not line.startswith("#"):
            print(line)
    print(f"results written to {outdir}")
    return 3 if traj.diverged else 0


def cmd_sweep(args) -> int:
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    if not (np.isfinite(args.c_min) and np.isfinite(args.c_max)):
        raise ConfigError("--c-min and --c-max must be finite")
    if args.c_max <= args.c_min:
        raise ConfigError("--c-max must exceed --c-min")
    if args.grid == "log":
        if args.c_min <= 0.0:
            raise ConfigError("log grid needs a positive --c-min")
        c_values = np.geomspace(args.c_min, args.c_max, args.points)
    else:
        c_values = np.linspace(args.c_min, args.c_max, args.points)
    scenario = _apply_sim_overrides(load_scenario(args.scenario, args.seed), args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = sweep_coupling(scenario, c_values, scenario.sim)
    meta = _scenario_meta(scenario)
    meta["grid"] = f"{args.grid}[{args.c_min:g}, {args.c_max:g}] x {args.points}"
    write_sweep_csv(rows, outdir / "sweep.csv", extra_meta=meta)

    print(f"{'c':>12} {'eps_hat':>14} {'eps_bar':>14} {'certified':>9} {'diverged':>8}")
    for row in rows:
        print(
            f"{row['c']:>12.6g} {row['eps_hat']:>14.6g} {row['eps_bar']:>14.6g} "
            f"{'yes' if row['certified'] else 'no':>9} {'yes' if row['diverged'] else 'no':>8}"
        )
    print(f"sweep written to {outdir / 'sweep.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CertifyError, GraphError, SimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
