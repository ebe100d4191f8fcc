"""`driftbandit run` writes and prints the same bytes as the per-row CSV writer did.

tests/data/run_digests.json holds the sha256 of each case's trajectory.csv
and summary.csv as written by the per-row writer (one `accounting_totals`
and one csv.writer row per round) that `run` used before the blocked writer,
and of its stdout as printed when summary.csv was still written by csv.writer.
The cases cover every policy, both noise models, linear and clipped drift,
projection on and off, and horizons on each side of the writer's block edges:
T = K, 1023, 1024, 1025 and 2 * 1024 + 3.
"""

import hashlib
import json
from pathlib import Path

import pytest

from driftbandit.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parent / "data" / "run_digests.json").read_text())

CASES = {
    "ucb_gaussian_linear_T9": [
        "--policy", "ucb", "--l", "1.1", "--T", "9", "--seed", "3"],
    "egreedy_gaussian_linear_T1023": [
        "--policy", "egreedy", "--c", "4", "--l", "0.5", "--T", "1023", "--seed", "11"],
    "thompson_bernoulli_clipped_T1024": [
        "--policy", "thompson", "--noise", "bernoulli", "--drift", "clipped_linear",
        "--cap", "0.05", "--l", "1.1", "--T", "1024", "--seed", "5"],
    "greedy_gaussian_linear_on_T1025": [
        "--policy", "greedy", "--l", "1.1", "--project", "on", "--T", "1025", "--seed", "7"],
    "ucb_bernoulli_clipped_off_T2051": [
        "--policy", "ucb", "--noise", "bernoulli", "--drift", "clipped_linear", "--cap", "0.2",
        "--l", "2", "--project", "off", "--T", "2051", "--seed", "13"],
    "egreedy_gaussian_clipped_off_T2051": [
        "--policy", "egreedy", "--c", "2", "--sigma", "0.5", "--drift", "clipped_linear",
        "--cap", "0.1", "--l", "1.1", "--project", "off", "--T", "2051", "--seed", "17"],
    "thompson_gaussian_linear_on_T1025": [
        "--policy", "thompson", "--l", "0.3", "--project", "on", "--T", "1025", "--seed", "19"],
    "greedy_bernoulli_linear_T1023": [
        "--policy", "greedy", "--noise", "bernoulli", "--l", "1.1", "--T", "1023",
        "--seed", "23"],
}


def test_every_case_has_pinned_digests():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_outputs_match_pinned_digests(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert main(["run", *CASES[name], "--out-dir", str(out)]) == 0
    written = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in ("trajectory.csv", "summary.csv")}
    written["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert written == DIGESTS[name]
