"""Self-test of the benchmark at its tiny size.  From the repository root:

    python3 -m pytest benchmarks/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["sweep-gauss", "run-trajectory", "sweep-bernoulli"]


def test_benchmark_json_lists_only_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _bench(*args, cwd=ROOT, script="benchmarks/run.py"):
    return subprocess.run([sys.executable, str(script), "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _copy_benchmark(dest):
    shutil.copytree(ROOT / "benchmarks", dest / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "benchmarks"


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_a_unit(workload, trace):
    result = _result(_bench("--workload", workload, "--seed", "20260809",
                            "--trace", trace, "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(metric["value"]) for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep-gauss", "sweep-bernoulli"])
def test_corrupted_digest_counts_as_error(workload, tmp_path):
    bench = _copy_benchmark(tmp_path)
    expected = json.loads((bench / "expected.json").read_text())
    expected["sweep_sha256"][f"{workload}/tiny"] = "0" * 64
    (bench / "expected.json").write_text(json.dumps(expected))
    done = _bench("--workload", workload, "--seed", "20260809", "--trace", "0",
                  "--size", "tiny", script=bench / "run.py")
    result = _result(done)
    context = json.loads(done.stdout.strip().splitlines()[-2])["context"]
    assert result["failed"] > 0 and result["correct"] is False
    assert context["error_rate"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    _copy_benchmark(tmp_path)
    done = _bench("--workload", "sweep-gauss", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
