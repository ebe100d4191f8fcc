"""Per-layer metrics of one workload (the `--trace 1` run).

The layers are the package modules rng, core, policies, mechanism, analysis,
experiment and cli.  Everything is measured from the benchmark's own files,
in two ways:

* timing loops that call each module's public functions directly;
* spans recorded by temporarily replacing module attributes, such as
  `driftbandit.mechanism.step`, with timing wrappers.  Spans are kept in
  memory as (name, parent, start, end); a span's self time is its duration
  minus that of its children.  Every wrapper is restored before returning.

All runs use the workload's own environment, policies and horizon.  The
sweep traced per round runs at jobs=1; its wall time over the same sweep
traced per work item only is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

from driftbandit import cli, experiment, mechanism
from driftbandit.analysis import summarize
from driftbandit.core import SimState, sample_reward
from driftbandit.experiment import derive_seed, run_experiment
from driftbandit.mechanism import run, step, trajectory_rows, warm_start, write_trajectory_csv
from driftbandit.policies import greedy_choice, select_arm
from driftbandit.rng import NumpyRng

import workloads


class CountingRng:
    """RngStream proxy that counts the draws of each kind."""

    __slots__ = ("_inner", "uniforms", "normals")

    def __init__(self, inner):
        self._inner = inner
        self.uniforms = 0
        self.normals = 0

    def uniform(self) -> float:
        self.uniforms += 1
        return self._inner.uniform()

    def normal(self) -> float:
        self.normals += 1
        return self._inner.normal()


class Tracer:
    """In-memory spans, recorded around patched module attributes."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """`fn`, recording a span named `name` around each call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name) target; restore them on exit."""
        originals = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def durations_ns(self, name: str) -> np.ndarray:
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        return dur[ids == self.names.index(name)]

    def self_ns(self) -> dict[str, float]:
        """Total self time per span name."""
        dur = (np.frombuffer(self.ends, dtype=np.int64)
               - np.frombuffer(self.starts, dtype=np.int64)).astype(np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        inner = parents >= 0
        children = np.bincount(parents[inner], weights=dur[inner], minlength=len(dur))
        totals = np.bincount(np.frombuffer(self.name_ids, dtype=np.int32),
                             weights=dur - children, minlength=len(self.names))
        return dict(zip(self.names, totals.tolist()))


def ns_per_call(fn, n: int, repeats: int = 5) -> float:
    """Median over `repeats` loops of n calls of the wall ns per call."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(samples)


def _seconds(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _median_seconds(fn, repeats: int = 3) -> tuple[float, object]:
    runs = [_seconds(fn) for _ in range(repeats)]
    return statistics.median(t for t, _ in runs), runs[-1][1]


def _single_runs(config, seed: int, n: int, tmp: Path, m: dict) -> None:
    """rng, core, policies, mechanism and analysis metrics from single runs."""
    instance = config.instance()
    horizon = config.horizon
    drift = config.drift_model(config.l_values[len(config.l_values) // 2])
    draws = NumpyRng(seed)
    m["rng.normal_ns"] = (ns_per_call(draws.normal, n), "ns")
    m["rng.uniform_ns"] = (ns_per_call(draws.uniform, n), "ns")

    normals = uniforms = compensated = rows = 0
    extra_records = []
    rows_s = csv_s = 0.0
    summarize_us = []
    for p_idx, policy in enumerate(config.policies):
        name = policy.name
        options = config.options_for(policy)
        s = derive_seed(seed, p_idx, 0, 0)
        counter = CountingRng(NumpyRng(s))
        run(instance, policy, drift, options, horizon, counter, keep_records=False)
        normals += counter.normals
        uniforms += counter.uniforms

        bare, _ = _median_seconds(
            lambda: run(instance, policy, drift, options, horizon, s, keep_records=False))
        kept, traj = _median_seconds(
            lambda: run(instance, policy, drift, options, horizon, s, keep_records=True))
        m[f"mechanism.run_ns_per_round.{name}"] = (1e9 * bare / horizon, "ns")
        extra_records.append(1e9 * (kept - bare) / horizon)
        compensated += summarize(traj, instance).comp_rounds
        rows += len(traj.records)
        rows_s += _seconds(lambda: list(trajectory_rows(traj)))[0]
        csv_s += _seconds(lambda: write_trajectory_csv(traj, tmp / "trajectory.csv"))[0]
        summarize_us.append(ns_per_call(lambda: summarize(traj, instance), n // 50) / 1e3)

        # step by step from warm start, keeping the view at mid-horizon for select_arm
        state = SimState.fresh(instance, NumpyRng(s))
        resolved = options.resolve(policy)
        warm_start(state, instance, resolved)
        t0 = time.perf_counter_ns()
        while state.round <= horizon // 2:
            step(state, policy, drift, instance, resolved)
        t1 = time.perf_counter_ns()
        view = state.policy_view()
        t2 = time.perf_counter_ns()
        while state.round <= horizon:
            step(state, policy, drift, instance, resolved)
        t3 = time.perf_counter_ns()
        m[f"mechanism.step_ns.{name}"] = ((t1 - t0 + t3 - t2) / (horizon - instance.k), "ns")
        m[f"policies.select_ns.{name}"] = (
            ns_per_call(lambda: select_arm(policy, view, draws), n // 10), "ns")
        if p_idx == 0:
            m["core.policy_view_ns"] = (ns_per_call(state.policy_view, n // 10), "ns")
            m["core.sample_reward_ns"] = (
                ns_per_call(lambda: sample_reward(instance, 0, draws), n // 10), "ns")
            m["core.cum_regret_ns"] = (ns_per_call(lambda: state.cum_regret, n // 10), "ns")
            m["policies.greedy_choice_ns"] = (ns_per_call(lambda: greedy_choice(view), n // 10), "ns")

    total = horizon * len(config.policies)
    m["rng.normal_per_round"] = (normals / total, "count")
    m["rng.uniform_per_round"] = (uniforms / total, "count")
    m["mechanism.records_ns_per_round"] = (statistics.fmean(extra_records), "ns")
    m["mechanism.trajectory_rows_per_s"] = (rows / rows_s, "1/s")
    m["mechanism.csv_rows_per_s"] = (rows / csv_s, "1/s")
    m["mechanism.compensated_share"] = (compensated / total, "ratio")
    m["analysis.summarize_us"] = (statistics.fmean(summarize_us), "us")


def _cli_runs(config, seed: int, tmp: Path, m: dict) -> tuple[int, int]:
    """cli metrics from one traced `driftbandit run` per policy."""
    tracer = Tracer()
    written = failed = 0
    l = config.l_values[len(config.l_values) // 2]
    main = tracer.wrap("cli.main", workloads.invoke_cli)
    with tracer.patched([(cli, "run", "cli.run"), (cli, "summarize", "cli.summarize")]):
        for p_idx, policy in enumerate(config.policies):
            out = tmp / f"cli{p_idx}"
            code = main(workloads.cli_args(config, policy, l, seed + p_idx, out))
            if code == 0:
                written += sum(f.stat().st_size for f in out.iterdir())
            else:
                failed += 1
    calls = len(config.policies)
    inner = tracer.durations_ns("cli.run").sum() + tracer.durations_ns("cli.summarize").sum()
    m["cli.output_ms"] = ((tracer.durations_ns("cli.main").sum() - inner) / calls / 1e6, "ms")
    m["cli.bytes_written"] = (written / calls, "bytes")
    return calls, failed


# (owner, attribute, span name): the calls a sweep makes into each layer.
# The first two wrap whole work items, so they add almost nothing to a run.
ITEM_SPANS = (
    (experiment, "run", "experiment.run"),
    (experiment, "summarize", "experiment.summarize"),
)
ROUND_SPANS = ITEM_SPANS + (
    (mechanism, "step", "mechanism.step"),
    (mechanism, "select_arm", "mechanism.select_arm"),
    (mechanism, "greedy_choice", "mechanism.greedy_choice"),
    (mechanism, "sample_reward", "mechanism.sample_reward"),
    (SimState, "policy_view", "core.SimState.policy_view"),
)


def _traced_sweep(grid, spans) -> tuple[Tracer, float, object]:
    """A jobs=1 sweep under `spans`: (tracer, wall seconds, result)."""
    tracer = Tracer()
    with tracer.patched(spans):
        result = tracer.wrap("experiment.run_experiment", run_experiment)(grid, jobs=1)
    return tracer, tracer.durations_ns("experiment.run_experiment")[0] / 1e9, result


def _sweeps(grid, jobs: int, m: dict) -> tuple[int, int]:
    """experiment metrics and span self times from the workload's grid.

    The grid runs at jobs=1 with item spans only, at `jobs` untraced, and at
    jobs=1 with round spans too; all three must give equal cells.
    """
    cells = len(grid.policies) * len(grid.l_values)
    rounds = cells * grid.replications * grid.horizon
    per_item, wall1, plain = _traced_sweep(grid, ITEM_SPANS)
    wall2, pooled = _seconds(lambda: run_experiment(grid, jobs=jobs))
    per_round, wall_traced, traced = _traced_sweep(grid, ROUND_SPANS)
    failed = sum(a != b for a, b in zip(plain.cells, pooled.cells))
    failed += sum(a != b for a, b in zip(plain.cells, traced.cells))

    item_ms = (per_item.durations_ns("experiment.run")
               + per_item.durations_ns("experiment.summarize")) / 1e6
    m["experiment.item_ms.p50"] = (float(np.median(item_ms)), "ms")
    m["experiment.item_ms.tail"] = (workloads.tail(item_ms.tolist())[0], "ms")
    m["experiment.serial_s"] = (wall1 - item_ms.sum() / 1e3, "s")
    m["experiment.rounds_per_s.jobs1"] = (rounds / wall1, "1/s")
    m["experiment.rounds_per_s.jobs2"] = (rounds / wall2, "1/s")
    m["experiment.scaling_2x"] = (wall1 / wall2, "ratio")
    m["trace.overhead_x"] = (wall_traced / wall1, "ratio")
    for name, total in per_round.self_ns().items():
        m[f"trace.self_ns_per_round.{name}"] = (total / rounds, "ns")
    return 2 * cells, failed


def per_layer(root: Path, name: str, size: str, seed: int, tmp: Path):
    """(metrics, attempted, failed, context) of the traced run of one workload."""
    config = workloads.workload_config(root, name, size, seed)
    grid = workloads.traced_config(config, name, size)
    jobs = workloads.jobs()
    m: dict[str, tuple[float, str]] = {}
    _single_runs(config, seed, 100_000 if size == "full" else 2_000, tmp, m)
    cli_calls, cli_failed = _cli_runs(config, seed, tmp, m)
    compared, mismatched = _sweeps(grid, jobs, m)
    context = {"traced_grid_items": len(grid.policies) * len(grid.l_values) * grid.replications,
               "jobs": jobs}
    return m, cli_calls + compared, cli_failed + mismatched, context
