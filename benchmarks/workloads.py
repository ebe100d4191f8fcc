"""Workload inputs and correctness checks shared by the benchmark's entry points.

Every workload is an `ExperimentConfig` grid built from the workload seed.
The two sweeps run their grid through `run_experiment`; `run-trajectory`
runs the grid's policies one at a time through `driftbandit run`.  The
program receives only these generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import replace
from pathlib import Path

from driftbandit import cli
from driftbandit.analysis import summarize
from driftbandit.experiment import ExperimentConfig, aggregate, derive_seed
from driftbandit.mechanism import run
from driftbandit.policies import PolicyKind

NINE_ARMS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)

# (replications per timed sweep, horizon, replications in the traced grid).
# "full" is what the benchmark measures; "tiny" exists for the self-test.
# The traced grid has at least 40 work items so the item-time tail has ten
# samples beyond it.
SIZES = {
    ("sweep-gauss", "full"): (4, 20000, 2),
    ("sweep-gauss", "tiny"): (1, 300, 1),
    ("sweep-bernoulli", "full"): (25, 5000, 5),
    ("sweep-bernoulli", "tiny"): (2, 300, 1),
    ("run-trajectory", "full"): (1, 20000, 2),
    ("run-trajectory", "tiny"): (1, 300, 1),
}


def jobs() -> int:
    """Worker processes for pooled sweeps: two, or fewer on a smaller host."""
    return min(2, os.cpu_count() or 1)


def workload_config(root: Path, name: str, size: str, seed: int) -> ExperimentConfig:
    """The grid a workload runs, with `seed` as its master seed."""
    reps, horizon, _ = SIZES[name, size]
    if name == "sweep-bernoulli":
        # the criterion-6 fixture: c just above 36/delta, projection by policy default
        return ExperimentConfig(
            arm_means=NINE_ARMS,
            policies=(PolicyKind.ucb(), PolicyKind.egreedy(361.0), PolicyKind.thompson()),
            l_values=(0.0, 0.5, 1.0), horizon=horizon, replications=reps,
            master_seed=seed, noise_kind="bernoulli", noise_sigma=0.0)
    data = json.loads((root / "configs" / "nine_arm_sweep.json").read_text())
    data.update(replications=reps, horizon=horizon, master_seed=seed)
    config = ExperimentConfig.from_dict(data)
    if name == "run-trajectory":
        # `driftbandit run` defaults: projection auto (on for egreedy)
        config = replace(config, project_overrides={})
    return config


def traced_config(config: ExperimentConfig, name: str, size: str) -> ExperimentConfig:
    return replace(config, replications=SIZES[name, size][2])


def cli_args(config: ExperimentConfig, policy: PolicyKind, l: float, seed: int,
             out_dir: Path) -> list[str]:
    """`driftbandit run` arguments for one trajectory of `config`'s environment."""
    args = ["run", "--policy", policy.name,
            "--means", ",".join(repr(m) for m in config.arm_means),
            "--noise", config.noise_kind, "--sigma", repr(config.noise_sigma),
            "--drift", config.drift_kind, "--l", repr(l),
            "--T", str(config.horizon), "--seed", str(seed), "--out-dir", str(out_dir)]
    if policy.c is not None:
        args += ["--c", repr(policy.c)]
    project = config.project_overrides.get(policy.name)
    if project is not None:
        args += ["--project", "on" if project else "off"]
    return args


def invoke_cli(args: list[str]) -> int | None:
    """Exit code of one in-process `driftbandit` call, or None if it raised.

    Its stdout is discarded; a traceback goes to stderr.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(args)
        except SystemExit as exc:  # argparse rejects bad flags this way
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # counted as a failed invocation by the caller
            traceback.print_exc()
            return None


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 21 samples no percentile at or above the median has ten beyond it;
    the maximum is reported then, with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _fmt(x: float) -> str:
    return format(x, ".9g")


def sweep_digest(result) -> str:
    """sha256 of the rows `driftbandit sweep` would write to sweep.csv."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cli.SWEEP_COLUMNS)
    for cell in result.cells:
        writer.writerow((cell.policy.name, _fmt(cell.l), _fmt(cell.regret_mean),
                         _fmt(cell.regret_std), _fmt(cell.comp_mean),
                         _fmt(cell.comp_std), _fmt(cell.comp_rounds_mean),
                         _fmt(cell.arm1_err_mean)))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _cell_values(cell) -> tuple[float, ...]:
    return (cell.regret_mean, cell.regret_std, cell.comp_mean, cell.comp_std,
            cell.comp_rounds_mean, cell.comp_rounds_std, cell.arm1_err_mean,
            cell.arm1_err_std)


def scalar_cell(config: ExperimentConfig, p_idx: int, l_idx: int) -> tuple[float, ...]:
    """One cell recomputed through derive_seed -> run -> summarize -> aggregate."""
    policy = config.policies[p_idx]
    instance = config.instance()
    drift = config.drift_model(config.l_values[l_idx])
    metrics = [
        summarize(run(instance, policy, drift, config.options_for(policy), config.horizon,
                      derive_seed(config.master_seed, p_idx, l_idx, rep),
                      keep_records=False), instance)
        for rep in range(config.replications)
    ]
    return (*aggregate([m.regret for m in metrics]),
            *aggregate([m.compensation for m in metrics]),
            *aggregate([float(m.comp_rounds) for m in metrics]),
            *aggregate([m.arm1_rel_error for m in metrics]))


def failed_cells(config: ExperimentConfig, result, pick: tuple[int, int],
                 digest: str | None) -> set[int]:
    """Indices of the cells of `result` that fail a correctness check.

    Every cell must sit in grid order with finite, non-negative values; the
    cell at `pick` must equal its scalar recomputation exactly; and when a
    digest is given, a mismatch of the sweep.csv rows fails every cell.
    """
    order = [(p.name, l) for p in config.policies for l in config.l_values]
    if len(result.cells) != len(order):
        return set(range(len(order)))
    failed = {i for i, cell in enumerate(result.cells)
              if (cell.policy.name, cell.l) != order[i]
              or not all(math.isfinite(v) and v >= 0 for v in _cell_values(cell))}
    p_idx, l_idx = pick
    index = p_idx * len(config.l_values) + l_idx
    if _cell_values(result.cells[index]) != scalar_cell(config, p_idx, l_idx):
        failed.add(index)
    if digest is not None and sweep_digest(result) != digest:
        failed.update(range(len(order)))
    return failed
