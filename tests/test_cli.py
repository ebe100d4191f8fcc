import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from driftbandit import (BanditInstance, DriftModel, MechanismOptions, NoiseModel, PolicyKind, cli,
                         mechanism, run, write_trajectory_csv)
from driftbandit.cli import DEFAULT_MEANS, main

REPO = Path(__file__).resolve().parent.parent
GOLDEN_TRACE = Path(__file__).resolve().parent / "data" / "golden_trace_ucb.txt"

TRACE_ARGS = ["trace", "--policy", "ucb", "--means", "0.6,0.5", "--sigma", "0",
              "--drift", "linear", "--l", "1.0", "--T", "6"]


def run_cli(args):
    return main(args)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def plotted_columns(script, data):
    """The (x, y) column names of each `using a:b` in a gnuplot script, read off the header
    of its data file (gnuplot counts columns from 1)."""
    with open(data) as fh:
        header = next(csv.reader(fh))
    return [(header[int(a) - 1], header[int(b) - 1])
            for a, b in re.findall(r"using (\d+):(\d+)", script.read_text())]


# ---------------------------------------------------------------- run

def test_run_twice_byte_identical(tmp_path):
    args = ["run", "--policy", "thompson", "--drift", "linear", "--l", "0",
            "--T", "100", "--seed", "7"]
    assert run_cli(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("trajectory.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("horizon", [9, 1023, 1024, 1025, 2051])
def test_run_streams_the_bytes_of_write_trajectory_csv(tmp_path, horizon):
    # the file written while playing equals the one written from the kept records
    assert run_cli(["run", "--policy", "thompson", "--l", "1.1", "--T", str(horizon),
                    "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    inst = BanditInstance(DEFAULT_MEANS.split(","), NoiseModel("gaussian", 1.0))
    kept = run(inst, PolicyKind.thompson(), DriftModel("linear", lipschitz=1.1),
               MechanismOptions(), horizon, 5, keep_records=True)
    write_trajectory_csv(kept, tmp_path / "kept.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()


def test_run_that_fails_mid_play_leaves_no_trajectory_csv(tmp_path, capsys, monkeypatch):
    args = ["run", "--policy", "ucb", "--T", "3000", "--out-dir", str(tmp_path)]
    inner = mechanism.greedy_choice

    def failing(view):
        if view.t == 2000:
            raise ValueError("step failed")
        return inner(view)

    with monkeypatch.context() as patch:
        patch.setattr(mechanism, "greedy_choice", failing)
        assert run_cli(args) == 1
    assert "error in run: step failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no trajectory.csv, partial or whole
    # a reused out-dir keeps the earlier run's complete trajectory.csv beside its summary
    assert run_cli(args + ["--seed", "2"]) == 0
    earlier = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(mechanism, "greedy_choice", failing)
    assert run_cli(args) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier


def test_run_whose_sums_overflow_exits_1_and_leaves_no_csv(tmp_path, capsys):
    assert run_cli(["run", "--policy", "egreedy", "--project", "off", "--l", "1e300",
                    "--T", "200", "--out-dir", str(tmp_path)]) == 1
    assert "error in run: run overflowed: arm 0 feedback_sum is inf" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no trajectory.csv or summary.csv


PEAK_RSS = """
import resource, sys
from driftbandit.cli import main
main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_run_peak_memory_does_not_grow_with_the_horizon(tmp_path):
    # Kept records cost about 200 B a round: 36 MB more at T=200000 than at T=20000.
    # A run that holds one block at a time peaks within 4 MB of itself at any horizon.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    procs = [subprocess.Popen(
        [sys.executable, "-c", PEAK_RSS, "run", "--policy", "ucb", "--means", "0.9,0.5",
         "--l", "1.1", "--seed", "7", "--T", str(horizon), "--out-dir", str(tmp_path / str(horizon))],
        env=env, stdout=subprocess.PIPE, text=True) for horizon in (20000, 200000)]
    short, long = (int(p.communicate(timeout=120)[0].split()[-1]) for p in procs)  # KiB
    assert [p.returncode for p in procs] == [0, 0]
    assert long - short < 4 * 1024


NO_POOL = """
import sys, tempfile
import driftbandit
from driftbandit import cli
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["run", "--policy", "ucb", "--T", "50", "--out-dir", out]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""


def test_run_does_not_import_the_worker_pool():
    # only a sweep that opens two or more workers loads concurrent.futures and multiprocessing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_POOL], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("args,message", [
    pytest.param(["run", "--policy", "ucb", "--drift", "clipped_linear"],
                 "--cap is required by clipped_linear",
                 id="args0---cap is required by clipped_linear"),
    pytest.param(["run", "--policy", "ucb", "--drift", "clipped_linear", "--cap", "-0.5"],
                 "--cap must be >= 0, got -0.5",
                 id="args1---cap must be >= 0, got -0.5"),
    pytest.param(["trace", "--policy", "ucb", "--drift", "clipped_linear", "--draws", "0"],
                 "--cap is required by clipped_linear",
                 id="args2---cap is required by clipped_linear"),
    pytest.param(["run", "--policy", "ucb", "--drift", "linear", "--cap", "0.1"],
                 "--cap applies to clipped_linear only, not linear",
                 id="args3---cap applies to clipped_linear only, not linear"),
    pytest.param(["trace", "--policy", "ucb", "--drift", "linear", "--cap", "0.1", "--draws", "0"],
                 "--cap applies to clipped_linear only, not linear",
                 id="args4---cap applies to clipped_linear only, not linear"),
    pytest.param(["run", "--policy", "egreedy", "--c", "0"], "--c must be > 0, got 0.0",
                 id="args5---c must be > 0, got 0.0"),
    pytest.param(["trace", "--policy", "egreedy", "--c", "-1", "--draws", "0"],
                 "--c must be > 0, got -1.0",
                 id="args6---c must be > 0, got -1.0"),
    pytest.param(["bounds", "--T", "1"], "--T must be >= 2", id="args7---T must be >= 2"),
    # derive_seed reads the master seed mod 2^64, so -1 would replay 2^64 - 1
    pytest.param(["sweep", "--config", str(REPO / "configs" / "nine_arm_sweep.json"),
                  "--seed", "-1"],
                 "--seed must be in [0, 2**64), got -1",
                 id="args8---seed must be in [0, 2**64), got -1"),
    pytest.param(["sweep", "--config", str(REPO / "configs" / "nine_arm_sweep.json"),
                  "--seed", str(2 ** 64)],
                 "--seed must be in [0, 2**64), got 18446744073709551616",
                 id="args9---seed must be in [0, 2**64), got 18446744073709551616"),
    pytest.param(["run", "--policy", "ucb", "--means", "0.5,0.5"],
                 "--means 0.5,0.5: maximum mean 0.5 attained by more than one arm",
                 id="args10---means 0.5,0.5: maximum mean 0.5 attained by more than one arm"),
    pytest.param(["trace", "--policy", "ucb", "--means", "0.5,0.5", "--draws", "0"],
                 "--means 0.5,0.5: maximum mean 0.5 attained by more than one arm",
                 id="args11---means 0.5,0.5: maximum mean 0.5 attained by more than one arm"),
    pytest.param(["bounds", "--means", "0.5,0.5"],
                 "--means 0.5,0.5: maximum mean 0.5 attained by more than one arm",
                 id="args12---means 0.5,0.5: maximum mean 0.5 attained by more than one arm"),
    pytest.param(["run", "--policy", "ucb", "--means", "1.5,0.2"],
                 "--means 1.5,0.2: arm means must lie in (0, 1]",
                 id="args13---means 1.5,0.2: arm means must lie in (0, 1]"),
    pytest.param(["bounds", "--means", "0.9"], "--means 0.9: need at least 2 arms",
                 id="args14---means 0.9: need at least 2 arms"),
    pytest.param(["run", "--policy", "ucb", "--means", "0.9,abc"],
                 "--means 0.9,abc: could not convert string to float: 'abc'",
                 id="args15---means 0.9,abc: could not convert string to float: 'abc'"),
    pytest.param(["bounds", "--delta-lower", "0"], "--delta-lower must be > 0",
                 id="args16---delta-lower must be > 0"),
    pytest.param(["trace", "--policy", "ucb", "--draws", "0,abc"],
                 "--draws 0,abc: could not convert string to float: 'abc'",
                 id="args17---draws 0,abc: could not convert string to float: 'abc'"),
    pytest.param(TRACE_ARGS + ["--draws", "0,0,nan,0"],
                 "--draws 0,0,nan,0: scripted values must be finite",
                 id="args18---draws 0,0,nan,0: scripted values must be finite"),
    pytest.param(TRACE_ARGS + ["--draws", "0,0,inf,0"],
                 "--draws 0,0,inf,0: scripted values must be finite",
                 id="args19---draws 0,0,inf,0: scripted values must be finite"),
    # the egreedy coin of round 3 reads 1.5, after two Bernoulli warm-start rewards
    pytest.param(["trace", "--policy", "egreedy", "--noise", "bernoulli", "--means", "0.6,0.5",
                  "--draws", "0.1,0.1,1.5,0.1,0.1,0.1"],
                 "--draws 0.1,0.1,1.5,0.1,0.1,0.1: scripted uniform draw 1.5 outside [0, 1)",
                 id="args20---draws 0.1,0.1,1.5,0.1,0.1,0.1: scripted uniform draw 1.5 outside [0, 1)"),
    pytest.param(TRACE_ARGS + ["--draws", "0,0,0"],
                 "--draws 0,0,0: scripted stream exhausted: draw 4 requested but only 3 values",
                 id="args21---draws 0,0,0: scripted stream exhausted: draw 4 requested but only 3 values"),
    pytest.param(["trace", "--policy", "ucb", "--T", "21", "--draws", "0"],
                 "--T 21: trace supports T <= 20",
                 id="args22---T 21: trace supports T <= 20"),
    pytest.param(["bounds", "--l", "-1"], "--l must be >= 0, got -1.0",
                 id="args23---l must be >= 0, got -1.0"),
    pytest.param(["trace", "--policy", "ucb", "--sigma", "-1", "--draws", "0"],
                 "--sigma must be >= 0, got -1.0",
                 id="args24---sigma must be >= 0, got -1.0"),
    # beyond float range, so ln T would overflow; never a run or trace, which would not end
    pytest.param(["bounds", "--T", "1" + "0" * 400], "--T must be finite",
                 id="args25---T must be finite"),
    # the ids above keep the form pytest once generated from the arguments; new cases
    # take an id that names their input
    pytest.param(["run", "--policy", "ucb", "--drift", "zero"],
                 "argument --drift: invalid choice: 'zero'", id="run --drift zero"),
    pytest.param(["trace", "--policy", "ucb", "--drift", "zero", "--draws", "0"],
                 "argument --drift: invalid choice: 'zero'", id="trace --drift zero"),
    # the Thompson bounds divide by delta_lower^2, which underflows to 0 here
    pytest.param(["bounds", "--delta-lower", "1e-200"],
                 "--delta-lower must have a square above 0, got 1e-200",
                 id="bounds --delta-lower 1e-200"),
    # ... and overflows to inf here, which would print the Thompson compensation rows as 0
    pytest.param(["bounds", "--delta-lower", "1e300"],
                 "--delta-lower must have a finite square, got 1e+300",
                 id="bounds --delta-lower 1e300"),
    pytest.param(["bounds", "--delta-lower", "1e200", "--l", "1e308"],
                 "--delta-lower must have a finite square, got 1e+200",
                 id="bounds --delta-lower 1e200 --l 1e308"),
    # every bound divides by the smallest gap's square, which underflows to 0 here;
    # a --means rule, so it is named before the default --delta-lower is read
    pytest.param(["bounds", "--means", "2e-170,1e-170", "--delta-lower", "0.1"],
                 "--means must have a smallest gap with a square above 0, got 1e-170",
                 id="bounds --means 2e-170,1e-170 --delta-lower 0.1"),
    pytest.param(["bounds", "--means", "2e-170,1e-170"],
                 "--means must have a smallest gap with a square above 0, got 1e-170",
                 id="bounds --means 2e-170,1e-170"),
    pytest.param(["run", "--policy", "ucb", "--l", "nan"], "--l must be finite, got nan",
                 id="run --l nan"),
    pytest.param(["run", "--policy", "ucb", "--l", "inf"], "--l must be finite, got inf",
                 id="run --l inf"),
    pytest.param(["run", "--policy", "ucb", "--sigma", "nan"], "--sigma must be finite, got nan",
                 id="run --sigma nan"),
    pytest.param(["run", "--policy", "ucb", "--drift", "clipped_linear", "--cap", "inf"],
                 "--cap must be finite, got inf", id="run --drift clipped_linear --cap inf"),
    pytest.param(["run", "--policy", "egreedy", "--c", "nan"], "--c must be finite, got nan",
                 id="run --policy egreedy --c nan"),
    pytest.param(["trace", "--policy", "ucb", "--l", "nan", "--draws", "0"],
                 "--l must be finite, got nan", id="trace --l nan"),
    pytest.param(["bounds", "--delta-lower", "nan"], "--delta-lower must be finite, got nan",
                 id="bounds --delta-lower nan"),
    pytest.param(["bounds", "--c", "inf"], "--c must be finite, got inf", id="bounds --c inf"),
    pytest.param(["bounds", "--l", "inf"], "--l must be finite, got inf", id="bounds --l inf"),
    pytest.param(["bounds", "--c", "0"], "--c must be > 0, got 0.0", id="bounds --c 0"),
    pytest.param(["bounds", "--c", "-2.5"], "--c must be > 0, got -2.5", id="bounds --c -2.5"),
    pytest.param(["run", "--policy", "ucb", "--l", "-1"], "--l must be >= 0, got -1.0",
                 id="run --l -1"),
    pytest.param(["run", "--policy", "ucb", "--T", "20", "--seed", "-1"],
                 "--seed must be >= 0, got -1", id="run --seed -1"),
    pytest.param(["sweep", "--config", str(REPO / "configs" / "nine_arm_sweep.json"),
                  "--jobs", "0"], "--jobs must be >= 1", id="sweep --jobs 0"),
])
def test_library_rejections_exit_2_naming_the_flag(tmp_path, capsys, args, message):
    with pytest.raises(SystemExit) as err:
        run_cli(args + (["--out-dir", str(tmp_path)] if args[0] != "trace" else []))
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_edge_values_are_accepted(tmp_path, capsys):
    # the least --seed of run, and the longest --T of trace: 20 rounds, one draw each
    assert run_cli(["run", "--policy", "ucb", "--T", "20", "--seed", "0",
                    "--out-dir", str(tmp_path)]) == 0
    assert read_rows(tmp_path / "summary.csv")[0]["seed"] == "0"
    assert run_cli(["trace", "--policy", "ucb", "--T", "20", "--draws", ",".join(["0"] * 20)]) == 0
    header, *played = capsys.readouterr().out.splitlines()[1:]  # after run's summary line
    assert header == ",".join(mechanism.TRAJECTORY_COLUMNS) and len(played) == 20


def test_run_into_a_file_exits_1_naming_the_command(tmp_path, capsys):
    # an error raised while running (here by mkdir) is reported, not a traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(["run", "--policy", "ucb", "--T", "20", "--out-dir", str(taken)]) == 1
    assert "error in run: [Errno 17] File exists" in capsys.readouterr().err
    assert taken.read_text() == ""
    assert list(tmp_path.iterdir()) == [taken]  # no manifest or other output


@pytest.mark.parametrize("args, play", [
    pytest.param(["run", "--policy", "ucb", "--T", "200000"], "run", id="args0-run"),
    pytest.param(["sweep", "--config", str(REPO / "configs" / "nine_arm_sweep.json")],
                 "run_experiment",
                 id="args1-run_experiment"),
])
def test_out_dir_that_is_a_file_exits_1_before_playing(tmp_path, capsys, monkeypatch, args, play):
    calls = []
    monkeypatch.setattr(cli, play, lambda *a, **kw: calls.append(a))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(args + ["--out-dir", str(taken)]) == 1
    assert f"error in {args[0]}: [Errno 17] File exists" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == [taken]


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "driftbandit", "bounds", "--T", "100"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "ucb regret" in done.stdout


def test_run_outputs_and_summary_schema(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "--policy", "egreedy", "--c", "4", "--l", "0.5",
                    "--T", "200", "--seed", "3", "--out-dir", str(out)]) == 0
    assert (out / "manifest.json").exists()
    rows = read_rows(out / "summary.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["policy"] == "egreedy"
    assert float(row["l"]) == 0.5
    assert int(row["T"]) == 200
    assert float(row["regret"]) >= 0.0
    traj_rows = read_rows(out / "trajectory.csv")
    assert len(traj_rows) == 200
    assert plotted_columns(out / "trajectory.gp", out / "trajectory.csv") == [
        ("t", "cum_regret"), ("t", "cum_compensation")]


def test_run_manifest_round_trip(tmp_path):
    out1 = tmp_path / "first"
    assert run_cli(["run", "--policy", "ucb", "--l", "0.9", "--T", "300",
                    "--seed", "11", "--out-dir", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    cfg = manifest["config"]
    out2 = tmp_path / "second"
    args = ["run", "--policy", cfg["policy"],
            "--means", ",".join(str(m) for m in cfg["means"]),
            "--noise", cfg["noise"], "--sigma", str(cfg["sigma"]),
            "--drift", cfg["drift"], "--l", str(cfg["l"]),
            "--c", str(cfg["c"] if cfg["c"] is not None else 4.0),
            "--T", str(cfg["T"]), "--seed", str(manifest["seed"]),
            "--project", cfg["project"], "--out-dir", str(out2)]
    assert run_cli(args) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_run_ucb_with_drift_lands_in_reported_band(tmp_path):
    # single seeded run at the defaults; the reported value for this setting
    # is 854.2 and a [0.5x, 2x] band is the acceptance convention
    out = tmp_path / "out"
    assert run_cli(["run", "--policy", "ucb", "--l", "1.1", "--seed", "1",
                    "--out-dir", str(out)]) == 0
    regret = float(read_rows(out / "summary.csv")[0]["regret"])
    assert 0.5 * 854.2 <= regret <= 2 * 854.2


def test_project_help_names_the_policies_that_project_by_default(capsys):
    # built from POLICIES[...].projects_feedback
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "(auto: on for egreedy)" in " ".join(capsys.readouterr().out.split())


# ---------------------------------------------------------------- sweep

def small_config(**overrides):
    return {
        "arm_means": [0.9, 0.6, 0.3],
        "noise": {"kind": "bernoulli", "sigma": 0.0},
        "policies": [{"name": "ucb"}, {"name": "thompson"}],
        "drift_kind": "linear",
        "l_values": [0.0, 1.0],
        "horizon": 60,
        "replications": 2,
        "master_seed": 5,
        **overrides,
    }


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_sweep_csv_layout_and_determinism(tmp_path):
    path = write_config(tmp_path, small_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["sweep", "--config", str(path), "--out-dir", str(out1)]) == 0
    assert run_cli(["sweep", "--config", str(path), "--out-dir", str(out2),
                    "--jobs", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    rows = read_rows(out1 / "sweep.csv")
    assert len(rows) == 4  # 2 policies x 2 l values
    assert list(rows[0].keys()) == ["policy", "l", "regret_mean", "regret_std",
                                    "comp_mean", "comp_std", "comp_rounds_mean",
                                    "arm1_err_mean"]


def test_sweep_whose_sums_overflow_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, small_config(
        policies=[{"name": "ucb"}, {"name": "egreedy", "c": 4.0}], l_values=[1e300],
        project_feedback={"egreedy": False}))
    with pytest.warns(RuntimeWarning):  # numpy's overflow and invalid-value warnings
        assert run_cli(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "overflowed: arm 0" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_sweep_shipped_config_grid(tmp_path):
    # the shipped sweep has 3 policies x 7 drift coefficients = 21 cells;
    # run it shrunk (tiny horizon, one replication) to keep the test fast
    shipped = json.loads((REPO / "configs" / "nine_arm_sweep.json").read_text())
    assert len(shipped["policies"]) == 3
    assert len(shipped["l_values"]) == 7
    shipped["horizon"] = 100
    shipped["replications"] = 1
    path = write_config(tmp_path, shipped)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
    assert len(read_rows(out / "sweep.csv")) == 21


def test_sweep_seed_on_a_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, [small_config()])
    with pytest.raises(SystemExit) as err:
        run_cli(["sweep", "--config", str(path), "--seed", "3", "--out-dir", str(tmp_path / "o")])
    assert err.value.code == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_curves_output(tmp_path):
    path = write_config(tmp_path, small_config(trajectory_stride=30))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
    rows = read_rows(out / "curves.csv")
    assert len(rows) == 4 * 2  # cells x ceil(60/30) points
    assert plotted_columns(out / "curves.gp", out / "curves.csv") == [
        ("t", "cum_regret_mean"), ("t", "cum_compensation_mean")]


def test_sweep_with_a_null_stride_writes_no_curves(tmp_path):
    path = write_config(tmp_path, small_config(trajectory_stride=None))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["trajectory_stride"] is None
    assert manifest["outputs"] == {"summary_csv": "sweep.csv"}


def test_sweep_manifest_round_trip(tmp_path):
    path = write_config(tmp_path, small_config())
    out1 = tmp_path / "a"
    assert run_cli(["sweep", "--config", str(path), "--out-dir", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    path2 = tmp_path / "config_from_manifest.json"
    path2.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "b"
    assert run_cli(["sweep", "--config", str(path2), "--out-dir", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


# ---------------------------------------------------------------- bounds

# What `bounds` prints, pinned as text so that a change to a bound reads as a diff.  The
# defaults: nine arms 0.9 down to 0.1, l = 0, c = 4, T = 20000 and delta_lower 0.9 - 0.8
AT_DEFAULTS = """\
inputs: K=9 T=20000 l=0 c=4 delta=0.1 delta_lower=0.1
warning: c=4 fails the exploration-schedule condition c >= 36/delta = 360
ucb regret                          <= 2248.04935
ucb compensation                    <= 6036.46205
egreedy regret                      <= 480505.752
egreedy compensation                <= 732.462651
thompson regret                     <= 3.97912373e+09
thompson compensation               <= 17826.2776
thompson per-arm compensated pulls  <= 1980.69751
"""
AT_L_1_1 = """\
inputs: K=9 T=20000 l=1.1 c=4 delta=0.1 delta_lower=0.1
warning: c=4 fails the exploration-schedule condition c >= 36/delta = 360
ucb regret                          <= 9590.80628
ucb compensation                    <= 12516.7384
egreedy regret                      <= 482654.31
egreedy compensation                <= 805.708917
thompson regret                     <= 3.97931549e+09
thompson compensation               <= 19608.9054
thompson per-arm compensated pulls  <= 1980.69751
"""


@pytest.mark.parametrize("args, table", [
    pytest.param([], AT_DEFAULTS, id="defaults"),
    pytest.param(["--l", "0", "--T", "20000", "--delta-lower", "0.1"], AT_DEFAULTS,
                 id="compensated pulls 2 ln T / delta_lower^2"),
    pytest.param(["--c", "4"], AT_DEFAULTS, id="warns below 36/delta"),
    # delta is 0.9-0.8 in floats, slightly under 0.1, so c = 400 clears the bar with margin
    pytest.param(["--c", "400"], """\
inputs: K=9 T=20000 l=0 c=400 delta=0.1 delta_lower=0.1
ucb regret                          <= 2248.04935
ucb compensation                    <= 6036.46205
egreedy regret                      <= 4.79650387e+09
egreedy compensation                <= 42651.9262
thompson regret                     <= 3.97912373e+09
thompson compensation               <= 17826.2776
thompson per-arm compensated pulls  <= 1980.69751
""", id="no warning at or above 36/delta"),
    pytest.param(["--l", "1.1"], AT_L_1_1, id="every bound at or above its l=0 value"),
    pytest.param(["--l", "1.1", "--c", "4", "--T", "20000", "--delta-lower", "0.1"], AT_L_1_1,
                 id="README example"),
    pytest.param(["--c", "1e308"], """\
inputs: K=9 T=20000 l=0 c=1e+308 delta=0.1 delta_lower=0.1
ucb regret                          <= 2248.04935
ucb compensation                    <= 6036.46205
egreedy regret                      <= inf
egreedy compensation                <= inf
thompson regret                     <= 3.97912373e+09
thompson compensation               <= 17826.2776
thompson per-arm compensated pulls  <= 1980.69751
""", id="egreedy bounds overflow to inf"),
    pytest.param(["--l", "1e308"], """\
inputs: K=9 T=20000 l=1e+308 c=4 delta=0.1 delta_lower=0.1
warning: c=4 fails the exploration-schedule condition c >= 36/delta = 360
ucb regret                          <= inf
ucb compensation                    <= inf
egreedy regret                      <= inf
egreedy compensation                <= inf
thompson regret                     <= inf
thompson compensation               <= inf
thompson per-arm compensated pulls  <= 1980.69751
""", id="thompson threshold inf at l 1e308"),
    pytest.param(["--l", "1.1", "--delta-lower", "1e-160"], """\
inputs: K=9 T=20000 l=1.1 c=4 delta=0.1 delta_lower=1e-160
warning: c=4 fails the exploration-schedule condition c >= 36/delta = 360
ucb regret                          <= 9590.80628
ucb compensation                    <= 12516.7384
egreedy regret                      <= 482654.31
egreedy compensation                <= 805.708917
thompson regret                     <= inf
thompson compensation               <= inf
thompson per-arm compensated pulls  <= inf
""", id="thompson threshold inf at delta_lower 1e-160"),
    # a finite delta_lower^2 of 1e308, but 4 gap l and 3 delta_lower^2 overflow: inf/inf
    pytest.param(["--l", "1e308", "--delta-lower", "1e154"], """\
inputs: K=9 T=20000 l=1e+308 c=4 delta=0.1 delta_lower=1e+154
warning: c=4 fails the exploration-schedule condition c >= 36/delta = 360
ucb regret                          <= inf
ucb compensation                    <= inf
egreedy regret                      <= inf
egreedy compensation                <= inf
thompson regret                     <= inf
thompson compensation               <= inf
thompson per-arm compensated pulls  <= 1.98069751e-307
""", id="thompson threshold inf, not nan, at inf/inf"),
    # sqrt(3/c) overflows to inf, and l = 0 drops the drift term that multiplies it
    pytest.param(["--means", "0.9,0.5", "--c", "1e-320"], """\
inputs: K=2 T=20000 l=0 c=9.99988867e-321 delta=0.4 delta_lower=0.4
warning: c=9.99988867e-321 fails the exploration-schedule condition c >= 36/delta = 90
ucb regret                          <= 199.385698
ucb compensation                    <= 824.568281
egreedy regret                      <= 1.99997773e-319
egreedy compensation                <= 3.77705786e-159
thompson regret                     <= 217476766
thompson compensation               <= 247.587189
thompson per-arm compensated pulls  <= 123.793594
""", id="no nan when sqrt(3 over c) overflows"),
])
def test_bounds_prints_the_pinned_table(capsys, args, table):
    assert run_cli(["bounds"] + args) == 0
    assert capsys.readouterr().out == table


def test_bounds_writes_file(tmp_path, capsys):
    out = tmp_path / "bounds_out"
    assert run_cli(["bounds", "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert (out / "bounds.txt").read_text() == stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bounds" and manifest["seed"] == 0
    assert manifest["config"] == {"means": [float(m) for m in DEFAULT_MEANS.split(",")],
                                  "l": 0.0, "c": 4.0, "delta_lower": 0.9 - 0.8, "T": 20000}
    assert manifest["outputs"] == {"bounds_txt": "bounds.txt"}


# ---------------------------------------------------------------- trace

def test_trace_matches_golden_file(capsys):
    assert run_cli(TRACE_ARGS + ["--draws", "0,0,0,0,0,0"]) == 0
    assert capsys.readouterr().out == GOLDEN_TRACE.read_text()


def test_trace_whose_sums_overflow_exits_1_and_prints_no_row(capsys):
    # warm start: arm 0 draws 1e300; round 3 explores arm 1 (coin 0, arm draw 0.5) and
    # pays x = 1e300 for it, so l * x is inf: rows are only printed once the run has passed
    args = ["trace", "--policy", "egreedy", "--project", "off", "--l", "1e10",
            "--means", "0.6,0.5", "--T", "3", "--draws", "1e300,0,0,0.5,0"]
    assert run_cli(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error in trace: run overflowed: arm 1 feedback_sum is inf" in err
