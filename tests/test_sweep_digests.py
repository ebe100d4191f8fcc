"""`driftbandit sweep` writes the same bytes as the scalar loop did.

tests/data/sweep_digests.json holds the sha256 of each case's sweep.csv and
curves.csv as written by the scalar per-replication loop that sweeps used
before the lockstep engine.  The cases are the canonical config at a reduced
size, a Bernoulli grid with clipped drift, projection overrides, all four
policies and curves, and a single epsilon-greedy Gaussian policy with a large
c whose lanes are split over two chunks at --jobs 2.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from driftbandit.cli import main
from driftbandit.experiment import ExperimentConfig, run_experiment

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
DIGESTS = json.loads((DATA / "sweep_digests.json").read_text())


def _config(name: str) -> dict:
    if name == "canonical_small":
        data = json.loads((REPO / "configs" / "nine_arm_sweep.json").read_text())
        data.update(replications=2, horizon=3000)
        return data
    return json.loads((DATA / f"{name}.json").read_text())


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_sweep_outputs_match_pinned_digests(tmp_path, capsys, name, jobs):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_config(name)))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--jobs", str(jobs),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    written = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in DIGESTS[name]}
    assert written == DIGESTS[name]


def _workloads():
    """benchmarks/workloads.py, loaded by path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_sweep_digest_hashes_the_bytes_sweep_writes(tmp_path, capsys):
    # benchmarks/workloads.py formats sweep.csv again for its digest check;
    # tie that copy to the bytes `driftbandit sweep` writes
    config_path = DATA / "sweep_bernoulli_clipped.json"
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    config = ExperimentConfig.from_dict(json.loads(config_path.read_text()))
    written = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert written == _workloads().sweep_digest(run_experiment(config))


@pytest.mark.parametrize("pick", [(0, 0), (1, 2), (3, 1)])
def test_benchmark_cell_check_passes(pick):
    # the benchmark's own check of a sweep: every cell in grid order, finite and
    # non-negative, and the picked cell equal to its scalar recomputation
    # (derive_seed -> run -> summarize -> aggregate)
    config = ExperimentConfig.from_dict(
        json.loads((DATA / "sweep_bernoulli_clipped.json").read_text()))
    assert _workloads().failed_cells(config, run_experiment(config), pick, None) == set()
