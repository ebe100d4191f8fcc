"""The module attributes the benchmark's per-layer spans patch stay on the call path.

benchmarks/layers.py times each layer by replacing module attributes such as
`driftbandit.mechanism.step` with timing wrappers.  A refactor that calls
around one of them would silently zero its span, so every patched name is
checked here: a small run and `driftbandit run` must reach it.  A sweep
must reach the two item names, `experiment.run` and `experiment.summarize`,
equally often: the benchmark adds their span durations element-wise.  Every
name the benchmark imports from the package must still exist, and its
per-layer path must run on each workload it declares.
"""

import ast
import importlib
import json
import math
from pathlib import Path

import pytest

from driftbandit import (
    BanditInstance,
    DriftModel,
    ExperimentConfig,
    MechanismOptions,
    NoiseModel,
    PolicyKind,
    cli,
    experiment,
    mechanism,
)
from driftbandit.core import SimState

ROUND_NAMES = ("step", "select_arm", "greedy_choice", "sample_reward")
ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def count_calls(monkeypatch, owner, name, counts):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("policy", [
    PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson(), PolicyKind.greedy(),
])
def test_run_reaches_each_patched_round_name(monkeypatch, policy):
    # a run plays through one round_player, built after the warm start from one view
    counts = dict.fromkeys(ROUND_NAMES + ("round_player", "policy_view"), 0)
    for name in ROUND_NAMES + ("round_player",):
        count_calls(monkeypatch, mechanism, name, counts)
    count_calls(monkeypatch, SimState, "policy_view", counts)
    inst = BanditInstance((0.9, 0.5, 0.2), NoiseModel("gaussian", 1.0))
    mechanism.run(inst, policy, DriftModel("linear", lipschitz=1.0), MechanismOptions(),
                  20, 3, keep_records=False)
    steps = 20 - inst.k
    assert counts == {"round_player": 1, "step": 0, "select_arm": steps, "greedy_choice": steps,
                      "sample_reward": 20, "policy_view": 1}


@pytest.mark.parametrize("stride", [None, 3])
def test_sweep_reaches_each_patched_item_and_round_name(monkeypatch, stride):
    # a sweep plays its lanes in lockstep, one chunk per worker (so one at
    # jobs=1, whatever the number of policies): experiment.run and
    # experiment.summarize once per chunk, equally often, and never the
    # scalar round functions, with curves or without
    counts = dict.fromkeys(ROUND_NAMES + ("policy_view", "run", "summarize"), 0)
    for name in ROUND_NAMES:
        count_calls(monkeypatch, mechanism, name, counts)
    count_calls(monkeypatch, SimState, "policy_view", counts)
    for name in ("run", "summarize"):
        count_calls(monkeypatch, experiment, name, counts)
    config = ExperimentConfig(arm_means=(0.9, 0.5),
                              policies=(PolicyKind.ucb(), PolicyKind.thompson()),
                              l_values=(0.0, 1.0), horizon=10, replications=2,
                              master_seed=1, trajectory_stride=stride)
    result = experiment.run_experiment(config, jobs=1)
    assert counts == {**dict.fromkeys(ROUND_NAMES + ("policy_view",), 0), "run": 1, "summarize": 1}
    assert [cell.curve is not None for cell in result.cells] == [stride is not None] * 4


def test_cli_run_reaches_run_and_summarize(monkeypatch, tmp_path):
    counts = {"run": 0, "summarize": 0}
    for name in counts:
        count_calls(monkeypatch, cli, name, counts)
    assert cli.main(["run", "--policy", "ucb", "--T", "20", "--out-dir", str(tmp_path)]) == 0
    assert counts == {"run": 1, "summarize": 1}


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` works: an attribute, or else a submodule."""
    try:
        owner = importlib.import_module(module)
        return hasattr(owner, name) or bool(importlib.import_module(f"{module}.{name}"))
    except ImportError:
        return False


def test_benchmark_imports_resolve():
    # the benchmark's self-test takes tens of seconds and is not in this suite
    imports = [(path.name, node.module, alias.name)
               for path in sorted(BENCHMARKS.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and (node.module or "").split(".")[0] == "driftbandit"
               for alias in node.names]
    assert {module for _, module, _ in imports} >= {"driftbandit", "driftbandit.mechanism"}
    missing = [(file, f"{module}.{name}") for file, module, name in imports
               if not _resolves(module, name)]
    assert not missing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_layer_path_runs(monkeypatch, tmp_path, workload):
    # the per-layer metrics read the objects run() and run_lanes() return
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    layers = importlib.import_module("layers")
    metrics, attempted, failed, _ = layers.per_layer(ROOT, workload, "tiny", 7, tmp_path)
    assert attempted > 0 and failed == 0
    assert all(math.isfinite(value) for value, _ in metrics.values())
