"""Command-line front end: single runs, sweeps, bound tables, scripted traces.

Subcommands: run | sweep | bounds | trace.  All outputs are plain CSV/JSON,
plus a gnuplot script beside each file of curve data: `run` always writes
trajectory.gp, and `sweep` writes curves.gp whenever it writes curves.csv.
Every CSV goes through mechanism.write_csv, one row template per file; reals
are serialized with 9 significant digits so determinism checks are meaningful.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .analysis import BOUNDS, BoundInputs, check_c_condition, comp_frequency_bound, summarize
from .core import (DRIFT_KINDS, NOISE_KINDS, BanditError, BanditInstance, DriftModel, InputError,
                   NoiseModel, named)
from .experiment import ExperimentConfig, ExperimentError, run_experiment
from .mechanism import (CURVE_COLUMNS, CURVE_ROW, SUMMARY_COLUMNS, SUMMARY_ROW, SWEEP_COLUMNS,
                        SWEEP_ROW, TRAJECTORY_COLUMNS, MechanismOptions, check_run_args, csv_file,
                        fmt_real, run, trajectory_lines, write_csv)
from .policies import POLICIES, POLICY_NAMES, PolicyKind
from .rng import ScriptedRng, ScriptExhaustedError

DEFAULT_MEANS = "0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1"


# the flag of each field that a domain type names in an InputError
FLAGS = {"sigma": "--sigma", "lipschitz": "--l", "cap": "--cap", "c": "--c",
         "delta_lower": "--delta-lower", "horizon": "--T", "gaps": "--means"}


def _reject(parser: argparse.ArgumentParser, exc: ValueError) -> NoReturn:
    """Exit 2 with the message of `exc`, an InputError's field read as its flag."""
    parser.error(f"{FLAGS[exc.field]} {exc.problem}" if isinstance(exc, InputError) else str(exc))


def _write_manifest(out_dir: Path, command: str, seed: int, config: dict,
                    outputs: dict[str, str]) -> None:
    """manifest.json in `out_dir`; `outputs` maps each output's role to its file name."""
    body = {
        "command": command,
        "package": "driftbandit",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "config": config,
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _simulation(args, parser, draws: str | None = None):
    """(instance, policy, drift, options, stream) from the flags run and trace share.

    The stream is run()'s seed argument: --seed, or a ScriptedRng over the
    comma-separated `draws`.  A bad flag exits 2, checked in the order noise,
    means, drift, policy, draws, horizon.
    """
    try:
        noise = NoiseModel(args.noise, args.sigma)
        instance = named({None: f"--means {args.means}"}, BanditInstance, args.means.split(","),
                         noise)
        drift = DriftModel(args.drift, lipschitz=args.l, cap=args.cap)
        policy = PolicyKind(args.policy, args.c if POLICIES[args.policy].takes_c else None)
        stream = args.seed if draws is None else named(
            {None: f"--draws {draws}"}, ScriptedRng, draws.split(",") if draws else [])
        check_run_args(instance, args.T)
    except ValueError as exc:
        _reject(parser, exc)
    options = MechanismOptions(
        project_feedback={"auto": None, "on": True, "off": False}[args.project])
    return instance, policy, drift, options, stream


def _gnuplot_script(path: Path, data_file: str, columns: tuple[str, ...],
                    ys: tuple[str, ...]) -> None:
    """Plot each column of `ys` against the round column t, titled by its name; `columns`
    are the data file's, and gnuplot counts them from 1."""
    lines = ["set datafile separator ','", "set key autotitle columnhead", "set xlabel 't'"]
    plots = ", ".join(f"'{data_file}' using {columns.index('t') + 1}:{columns.index(y) + 1} "
                      f"with lines title '{y}'" for y in ys)
    lines.append("plot " + plots)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- run

def _cmd_run(args, parser) -> int:
    instance, policy, drift, options, seed = _simulation(args, parser)
    if seed < 0:
        parser.error(f"--seed must be >= 0, got {seed}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before playing, so a bad --out-dir fails fast
    # trajectory.csv is written block by block while the rounds are played
    lines = trajectory_lines(instance.gap_vector)
    with csv_file(out_dir / "trajectory.csv", TRAJECTORY_COLUMNS) as write:
        final = run(instance, policy, drift, options, args.T, seed, keep_records=False,
                    on_block=lambda block: write(lines(block)))
    metrics = summarize(final, instance)
    summary = SUMMARY_ROW % (policy.name, args.l, args.T, args.seed, metrics.regret,
                             metrics.compensation, metrics.comp_rounds, metrics.arm1_rel_error)
    write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, [[summary]])
    _gnuplot_script(out_dir / "trajectory.gp", "trajectory.csv", TRAJECTORY_COLUMNS,
                    ("cum_regret", "cum_compensation"))
    config = {
        "policy": policy.name, "c": policy.c, "means": list(instance.arm_means),
        "noise": args.noise, "sigma": args.sigma, "drift": args.drift,
        "cap": args.cap, "l": args.l, "T": args.T,
        "seed": args.seed, "project": args.project,
    }
    _write_manifest(out_dir, "run", args.seed, config,
                    {"summary_csv": "summary.csv", "trajectory_csv": "trajectory.csv"})
    print(" ".join(f"{c}={v}" for c, v in zip(SUMMARY_COLUMNS, summary.split(","))))
    return 0


# ---------------------------------------------------------------- sweep

def _cmd_sweep(args, parser) -> int:
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        with open(args.config) as fh:
            data = json.load(fh)
        if args.seed is not None and isinstance(data, dict):  # from_dict rejects a non-object
            data["master_seed"] = args.seed
        config = ExperimentConfig.from_dict(data)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        if isinstance(exc, InputError) and exc.field == "master_seed" and args.seed is not None:
            parser.error(f"--seed {exc.problem}")  # the seed came from the flag
        parser.error(f"invalid config {args.config}: {exc}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before playing, so a bad --out-dir fails fast
    result = run_experiment(config, jobs=args.jobs)
    outputs = {"summary_csv": "sweep.csv"}
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, [[SWEEP_ROW % (
        c.policy.name, c.l, c.regret_mean, c.regret_std, c.comp_mean, c.comp_std,
        c.comp_rounds_mean, c.arm1_err_mean) for c in result.cells]])
    if config.trajectory_stride is not None:
        outputs["curves_csv"] = "curves.csv"
        write_csv(out_dir / "curves.csv", CURVE_COLUMNS, (
            [CURVE_ROW % (c.policy.name, c.l, *point) for point in zip(*c.curve)]
            for c in result.cells))
        _gnuplot_script(out_dir / "curves.gp", "curves.csv", CURVE_COLUMNS,
                        ("cum_regret_mean", "cum_compensation_mean"))
    _write_manifest(out_dir, "sweep", config.master_seed, config.to_dict(), outputs)
    print(f"wrote {out_dir / 'sweep.csv'} ({len(result.cells)} cells)")
    return 0


# ---------------------------------------------------------------- bounds

def _cmd_bounds(args, parser) -> int:
    try:
        noise = NoiseModel("bernoulli")
        instance = named({None: f"--means {args.means}"}, BanditInstance, args.means.split(","),
                         noise)
        inputs = BoundInputs.from_instance(instance, horizon=args.T, lipschitz=args.l,
                                           c=args.c, delta_lower=args.delta_lower)
    except ValueError as exc:
        _reject(parser, exc)
    lines = [
        f"inputs: K={inputs.k} T={inputs.horizon} l={fmt_real(inputs.lipschitz)} "
        f"c={fmt_real(inputs.c)} delta={fmt_real(inputs.delta_min)} "
        f"delta_lower={fmt_real(inputs.delta_lower)}",
    ]
    if not check_c_condition(inputs.c, inputs.delta_min):
        lines.append(f"warning: c={fmt_real(inputs.c)} fails the exploration-schedule "
                     f"condition c >= 36/delta = {fmt_real(36.0 / inputs.delta_min)}")
    rows = [(f"{name} {kind}", bound(inputs)) for name, pair in BOUNDS.items()
            for kind, bound in zip(("regret", "compensation"), pair)]
    rows.append(("thompson per-arm compensated pulls",
                 comp_frequency_bound(inputs.delta_lower, inputs.horizon)))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        lines.append(f"{name:<{width}}  <= {fmt_real(value)}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "bounds.txt").write_text(text)
        config = {"means": list(instance.arm_means), "l": args.l, "c": args.c,
                  "delta_lower": inputs.delta_lower, "T": args.T}
        _write_manifest(out_dir, "bounds", 0, config, {"bounds_txt": "bounds.txt"})
    return 0


# ---------------------------------------------------------------- trace

def _cmd_trace(args, parser) -> int:
    if args.T > 20:
        parser.error(f"--T {args.T}: trace supports T <= 20 (use run for longer horizons)")
    instance, policy, drift, options, rng = _simulation(args, parser, args.draws)
    lines, rows = trajectory_lines(instance.gap_vector), [",".join(TRAJECTORY_COLUMNS)]
    try:
        run(instance, policy, drift, options, args.T, rng, keep_records=False,
            on_block=lambda block: rows.extend(lines(block)))
    except (ScriptExhaustedError, ValueError) as exc:  # the other flags are checked already
        parser.error(f"--draws {args.draws}: {exc}")
    print("\n".join(rows))  # only once the run has passed, so a failed trace prints no row
    return 0


# ---------------------------------------------------------------- parser

def _add_env_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--means", default=DEFAULT_MEANS,
                   help="comma-separated true arm means in (0,1]")
    p.add_argument("--noise", choices=NOISE_KINDS, default="gaussian")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="gaussian noise standard deviation")
    p.add_argument("--drift", choices=DRIFT_KINDS, default="linear",
                   help="drift response to compensation")
    p.add_argument("--l", type=float, default=0.0, help="drift Lipschitz coefficient")
    p.add_argument("--cap", type=float, default=None, help="clip level for clipped_linear")
    p.add_argument("--c", type=float, default=4.0, help="egreedy exploration constant")
    projected = ", ".join(name for name, rule in POLICIES.items() if rule.projects_feedback)
    p.add_argument("--project", choices=("auto", "on", "off"), default="auto",
                   help=f"project credited feedback onto [0,1] (auto: on for {projected})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftbandit",
        description="Incentivized bandit simulation under compensation-driven reward drift")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one seeded trajectory")
    p_run.add_argument("--policy", choices=POLICY_NAMES, required=True)
    _add_env_flags(p_run)
    p_run.add_argument("--T", type=int, default=20000, help="horizon (rounds)")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--out-dir", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="replicated (policy, l) grid from a JSON config")
    p_sweep.add_argument("--config", required=True, help="JSON experiment config")
    p_sweep.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.add_argument("--out-dir", default="out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="print the closed-form bound table")
    p_bounds.add_argument("--means", default=DEFAULT_MEANS)
    p_bounds.add_argument("--l", type=float, default=0.0)
    p_bounds.add_argument("--c", type=float, default=4.0)
    p_bounds.add_argument("--delta-lower", type=float, default=None,
                          help="posted-mean separation (default: min pairwise true-mean gap)")
    p_bounds.add_argument("--T", type=int, default=20000)
    p_bounds.add_argument("--out-dir", default=None)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_trace = sub.add_parser("trace", help="short run on a scripted number list")
    p_trace.add_argument("--policy", choices=POLICY_NAMES, required=True)
    _add_env_flags(p_trace)
    p_trace.add_argument("--T", type=int, default=6, help="horizon, at most 20")
    p_trace.add_argument("--draws", required=True,
                         help="comma-separated scripted stream values")
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (BanditError, ExperimentError, ValueError, OSError) as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
