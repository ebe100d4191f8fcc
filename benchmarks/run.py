"""driftbandit benchmark: one workload per invocation, from the repository root.

    python3 benchmarks/run.py --workload sweep-gauss --seed 20260809 --seconds 45 --trace 0

Workloads (see README.md next to this file for why each exists):
  sweep-gauss      canonical nine-arm Gaussian grid through run_experiment(jobs=2)
  run-trajectory   repeated in-process `driftbandit run` invocations
  sweep-bernoulli  the criterion-6 Bernoulli grid through run_experiment(jobs=2);
                   runnable by hand, not listed in BENCHMARK.json

Each workload is a closed loop from this one process: the next sweep or
invocation starts when the previous one has returned, until `--seconds` of
timed work have passed.  With `--trace 0` the last stdout line carries the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
layers.py instead.  The line before it records the host, the revision, the
sample counts and the error rate.  Correctness checks run outside the timed
regions and count in `attempted` / `failed`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 25
# master_seed of configs/nine_arm_sweep.json and of the criterion-6 fixture;
# the sweep digests in expected.json are pinned for this seed only.
DEFAULT_SEED = 20260809


def _die(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import driftbandit from this checkout's src/, never from anywhere else."""
    for needed in (SRC / "driftbandit" / "__init__.py", ROOT / "configs" / "nine_arm_sweep.json"):
        if not needed.is_file():
            _die(f"run from the repository root: {needed.relative_to(ROOT)} is missing")
    sys.path.insert(0, str(SRC))
    import driftbandit
    if Path(driftbandit.__file__).resolve().parent != (SRC / "driftbandit").resolve():
        _die(f"imported driftbandit from {driftbandit.__file__}, not from {SRC}")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def host_record() -> dict:
    numpy = sys.modules["numpy"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev, "src_sha256": digest.hexdigest(),
            "loadavg": os.getloadavg()}


class SetupProbes:
    """Set-up time in fresh interpreters (setup_probe.py), spread over a run.

    One probe of the ~0.2 s set-up spreads by about a quarter on a shared
    host, and the host's speed drifts within a run, so the probes run
    between timed calls at even steps of the timed work and their median
    is reported.  A probe does a subset of what this process did, so its
    RSS stays below this process's and leaves `peak_rss_mb` unchanged.
    """

    def __init__(self, name: str, seed: int, size: str, seconds: float):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), size]
        self.step = seconds / SETUP_PROBES
        self.times: list[float] = []

    def run_due(self, elapsed: float) -> None:
        """Run the probes whose step `elapsed` seconds of timed work have reached."""
        while len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.step:
            done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=120, check=True)
            self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def median(self) -> float:
        self.run_due(float("inf"))
        return statistics.median(self.times)


class Timed:
    """Wall and CPU seconds of the timed regions of one workload run."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpu = 0.0

    @contextlib.contextmanager
    def region(self):
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.walls.append(time.perf_counter() - t0)
            self.cpu += cpu_seconds() - c0


def run_sweeps(config, seed, seconds, digest, jobs, probes):
    """Closed loop of whole-grid sweeps; the base of `failed` is cells."""
    import workloads
    from driftbandit.experiment import run_experiment

    rng = random.Random(seed)
    timed = Timed()
    cells = len(config.policies) * len(config.l_values)
    rounds = attempted = failed = 0
    first_digest = None
    while not timed.walls or sum(timed.walls) < seconds:
        if timed.walls:
            config = replace(config, master_seed=rng.getrandbits(63))
        result = None
        with timed.region():
            try:
                result = run_experiment(config, jobs=jobs)
            except Exception:  # counted as failed cells below
                traceback.print_exc()
        probes.run_due(sum(timed.walls))
        attempted += cells
        rounds += cells * config.replications * config.horizon
        if result is None:
            failed += cells
            continue
        pick = (rng.randrange(len(config.policies)), rng.randrange(len(config.l_values)))
        check = digest if len(timed.walls) == 1 else None
        if first_digest is None:
            first_digest = workloads.sweep_digest(result)
        failed += len(workloads.failed_cells(config, result, pick, check))
    return timed, rounds, attempted, failed, {"sweep_sha256": first_digest}


def _trajectory_ok(out_dir: Path, horizon: int) -> bool:
    """Outputs of one `driftbandit run`: T rows, and a summary that agrees with them."""
    from driftbandit.cli import SUMMARY_COLUMNS
    from driftbandit.mechanism import TRAJECTORY_COLUMNS

    try:
        traj = (out_dir / "trajectory.csv").read_text().splitlines()
        summary = (out_dir / "summary.csv").read_text().splitlines()
        json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError):
        return False
    if len(traj) != horizon + 1 or len(summary) != 2:
        return False
    last = dict(zip(TRAJECTORY_COLUMNS, traj[-1].split(",")))
    fields = dict(zip(SUMMARY_COLUMNS, summary[1].split(",")))
    return (last["t"] == str(horizon) and last["cum_regret"] == fields["regret"]
            and last["cum_compensation"] == fields["compensation"])


def run_trajectories(config, seed, seconds, tmp: Path, probes):
    """Closed loop of `driftbandit run` calls; the base of `failed` is invocations."""
    import workloads

    rng = random.Random(seed)
    timed = Timed()
    attempted = failed = 0
    first = None
    while not timed.walls or sum(timed.walls) < seconds:
        inputs = (config.policies[attempted % len(config.policies)],
                  rng.choice(config.l_values), rng.randrange(1, 2**31))
        args = workloads.cli_args(config, *inputs, tmp / "run")
        with timed.region():
            code = workloads.invoke_cli(args)
        probes.run_due(sum(timed.walls))
        attempted += 1
        ok = code == 0 and _trajectory_ok(tmp / "run", config.horizon)
        failed += not ok
        if first is None and ok:
            first = (inputs, [(tmp / "run" / f).read_bytes() for f in ("trajectory.csv", "summary.csv")])
    if first is not None:
        # determinism: the same invocation again gives byte-identical CSVs
        inputs, outputs = first
        attempted += 1
        same = workloads.invoke_cli(workloads.cli_args(config, *inputs, tmp / "rerun")) == 0 and outputs == [
            (tmp / "rerun" / f).read_bytes() for f in ("trajectory.csv", "summary.csv")]
        failed += not same
    rounds = len(timed.walls) * config.horizon
    return timed, rounds, attempted, failed, {}


def end_to_end(name, size, seed, seconds, digest, tmp):
    import workloads

    config = workloads.workload_config(ROOT, name, size, seed)
    jobs = workloads.jobs()
    probes = SetupProbes(name, seed, size, seconds)
    if name == "run-trajectory":
        timed, rounds, attempted, failed, extra = run_trajectories(
            config, seed, seconds, tmp, probes)
    else:
        timed, rounds, attempted, failed, extra = run_sweeps(
            config, seed, seconds, digest, jobs, probes)
    setup = probes.median()
    peak = peak_rss_mb()
    wall = sum(timed.walls)
    tail_ms, tail_pct = workloads.tail(timed.walls)
    metrics = {
        "rounds_per_s": (rounds / wall, "1/s"),
        "cpu_us_per_round": (1e6 * timed.cpu / rounds, "us"),
        "latency_ms.p50": (1e3 * statistics.median(timed.walls), "ms"),
        "latency_ms.tail": (1e3 * tail_ms, "ms"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (setup, "s"),
    }
    context = {"latency_samples": len(timed.walls), "latency_tail_percentile": tail_pct,
               "setup_probes": len(probes.times),
               "jobs": jobs, "rounds": rounds, **extra}
    return metrics, attempted, failed, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-gauss", "sweep-bernoulli", "run-trajectory"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    import layers
    import workloads

    started = host_record()
    digest = None
    if args.seed == DEFAULT_SEED:
        digest = json.loads((HERE / "expected.json").read_text())["sweep_sha256"].get(
            f"{args.workload}/{args.size}")
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, context = layers.per_layer(
                ROOT, args.workload, args.size, args.seed, tmp)
        else:
            metrics, attempted, failed, context = end_to_end(
                args.workload, args.size, args.seed, args.seconds, digest, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_tmp").rmdir()
    context.update(workload=args.workload, seed=args.seed, size=args.size, host=started,
                   error_rate={"value": failed / attempted, "unit": "ratio"})
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
