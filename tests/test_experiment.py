import concurrent.futures
import json
import math
import random
import re
import statistics
import warnings
from pathlib import Path

import numpy as np
import pytest

from driftbandit import (
    AggregateResult,
    BanditError,
    ExperimentConfig,
    ExperimentError,
    PolicyKind,
    aggregate,
    derive_seed,
    run,
    run_experiment,
    summarize,
)
from driftbandit.cli import main
from driftbandit.experiment import _CONFIG_KEYS, _chunks

SMALL_CONFIG = dict(
    arm_means=(0.9, 0.6, 0.3),
    policies=(PolicyKind.ucb(), PolicyKind.thompson()),
    l_values=(0.0, 1.0),
    horizon=120,
    replications=4,
    master_seed=20260809,
    noise_kind="bernoulli",
    noise_sigma=0.0,
)

DROP = object()  # a config change that leaves the key out

NINE_ARMS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
REPO = Path(__file__).resolve().parents[1]
CANONICAL = REPO / "configs" / "nine_arm_sweep.json"
# every rule once, greedy the cheapest, and nine egreedy entries that differ only in c
FOUR_RULES = (PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson(),
              PolicyKind.greedy())
NINE_EGREEDY = tuple(PolicyKind.egreedy(c) for c in (1, 2, 4, 8, 16, 36, 90, 360, 500))


# ---------------------------------------------------------------- derive_seed

def test_derive_seed_golden_values():
    # frozen once from the pinned mixing definition (also published in README)
    assert derive_seed(20260809, 0, 0, 0) == 4365403269829319558
    assert derive_seed(20260809, 0, 0, 1) == 14381135486112333354
    assert derive_seed(20260809, 1, 2, 3) == 618406902457344150
    assert derive_seed(1, 0, 0, 0) == 12793040940332582595


def test_derive_seed_distinctness_spot_checks():
    m = 20260809
    assert derive_seed(m, 0, 0, 0) != derive_seed(m, 0, 0, 1)
    assert derive_seed(m, 0, 0, 0) != derive_seed(m, 0, 1, 0)
    assert derive_seed(m, 0, 0, 0) != derive_seed(m, 1, 0, 0)
    seeds = {derive_seed(m, p, l, r) for p in range(4) for l in range(8) for r in range(100)}
    assert len(seeds) == 4 * 8 * 100


def test_derive_seed_master_changes_everything():
    a = [derive_seed(20260809, p, l, r) for p in range(3) for l in range(3) for r in range(3)]
    b = [derive_seed(20260810, p, l, r) for p in range(3) for l in range(3) for r in range(3)]
    assert all(x != y for x, y in zip(a, b))


def test_derive_seed_is_64_bit():
    assert 0 <= derive_seed(2**64 - 1, 7, 3, 49) < 2**64
    assert derive_seed(2**64 - 1, 7, 3, 49) == 11845000517143785870


# ---------------------------------------------------------------- aggregate

def test_aggregate_examples():
    mean, std = aggregate([2.0, 4.0])
    assert mean == 3.0
    assert std == pytest.approx(math.sqrt(2))
    assert aggregate([5.0]) == (5.0, 0.0)
    assert aggregate([1.5, 1.5, 1.5]) == (1.5, pytest.approx(0.0))


def test_aggregate_order_free():
    xs = [3.1, 0.2, 5.5, 2.2, 9.9, 1.0]
    shuffled = xs[:]
    random.Random(0).shuffle(shuffled)
    assert aggregate(xs) == aggregate(shuffled)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(**{**SMALL_CONFIG, "l_values": ()})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**SMALL_CONFIG, "l_values": (-0.5,)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**SMALL_CONFIG, "replications": 0})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**SMALL_CONFIG, "trajectory_stride": 0})
    assert ExperimentConfig(**{**SMALL_CONFIG, "trajectory_stride": 1}).trajectory_stride == 1
    with pytest.raises(ValueError):
        ExperimentConfig(**{**SMALL_CONFIG, "arm_means": (0.5, 0.5)})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="l_values"):
            ExperimentConfig(**{**SMALL_CONFIG, "l_values": (0.0, bad)})


def test_config_dict_round_trip():
    config = ExperimentConfig(**SMALL_CONFIG)
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_config_dict_round_trip_of_a_policy_list():
    # a list of policies is stored as a tuple, so the config equals its round trip
    config = ExperimentConfig(**{**SMALL_CONFIG, "policies": list(SMALL_CONFIG["policies"])})
    assert config.policies == SMALL_CONFIG["policies"]
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_from_dict_takes_absent_keys_from_the_field_defaults():
    required = {key: SMALL_CONFIG[key] for key in ("arm_means", "policies", "l_values",
                                                   "horizon", "replications", "master_seed")}
    data = {key: value for key, value in ExperimentConfig(**required).to_dict().items()
            if key in required}
    assert ExperimentConfig.from_dict(data) == ExperimentConfig(**required)


def test_config_parses_policy_c():
    config = ExperimentConfig.from_dict({
        "arm_means": [0.9, 0.1],
        "policies": [{"name": "egreedy", "c": 4}],
        "l_values": [0.0],
        "horizon": 50,
        "replications": 1,
        "master_seed": 3,
    })
    assert config.policies[0] == PolicyKind.egreedy(4.0)
    assert config.noise_kind == "gaussian" and config.noise_sigma == 1.0


@pytest.mark.parametrize("change,key", [
    pytest.param({"policies": [{"name": "ucb", "cc": 3}]}, "cc", id="change0-cc"),
    pytest.param({"horizn": 100}, "horizn", id="change1-horizn"),
    pytest.param({"noise": {"kind": "gaussian", "sigm": 2.0}}, "sigm", id="change2-sigm"),
    pytest.param({"project_feedback": {"ucbb": True}}, "ucbb", id="change3-ucbb"),
    pytest.param({"project_feedback": {"ucb": "off"}}, "project_feedback",
                 id="change4-project_feedback"),
    pytest.param({"horizon": 100.7}, "horizon", id="change5-horizon"),
    pytest.param({"replications": 2.9}, "replications", id="change6-replications"),
    pytest.param({"trajectory_stride": 2.5}, "trajectory_stride", id="change7-trajectory_stride"),
    pytest.param({"master_seed": 3.5}, "master_seed", id="change8-master_seed"),
    pytest.param({"horizon": "100"}, "horizon", id="change9-horizon"),
    pytest.param({"drift_kind": "clipped_linear"}, "drift_cap", id="change10-drift_cap"),
    pytest.param({"drift_cap": 1.0}, "drift_cap", id="change11-drift_cap"),
    pytest.param({"drift_kind": "clipped_linear", "drift_cap": "2"}, "drift_cap",
                 id="change12-drift_cap"),
    pytest.param({"drift_kind": "sinusoid"}, "drift_kind", id="change13-drift_kind"),
    pytest.param({"policies": [{"name": "ucb"}, {"name": "egreedy", "c": 0}]}, "policies[1].c",
                 id="change14-policies[1].c"),
    pytest.param({"policies": [{"name": "ucb"}, {"name": "egreedy", "c": "4"}]}, "policies[1].c",
                 id="change15-policies[1].c"),
    pytest.param({"policies": [{"name": "ucb"}, {"name": "ucbb"}]}, "policies[1].name",
                 id="change16-policies[1].name"),
    pytest.param({"noise": {"kind": "poisson"}}, "noise.kind", id="change17-noise.kind"),
    pytest.param({"noise": {"kind": "gaussian", "sigma": "1"}}, "noise.sigma",
                 id="change18-noise.sigma"),
    pytest.param({"noise": {"kind": "gaussian", "sigma": -1.0}}, "noise.sigma",
                 id="change19-noise.sigma"),
    pytest.param({"l_values": [0.0, "1"]}, "l_values[1]", id="change20-l_values[1]"),
    pytest.param({"l_values": [0.0, -1.0]}, "l_values", id="change21-l_values"),
    pytest.param({"arm_means": [0.9, "0.6", 0.3]}, "arm_means[1]", id="change22-arm_means[1]"),
    pytest.param({"arm_means": [0.9, 0.9, 0.3]}, "arm_means", id="change23-arm_means"),
    # a key that trajectory_stride replaced, refused with either value it took
    pytest.param({"capture_trajectories": True}, "unknown config key(s) ['capture_trajectories']",
                 id="change24-capture_trajectories"),
    pytest.param({"capture_trajectories": False}, "unknown config key(s) ['capture_trajectories']",
                 id="change25-capture_trajectories"),
    pytest.param({"master_seed": -1}, "master_seed", id="change26-master_seed"),
    pytest.param({"master_seed": 2 ** 64}, "master_seed", id="change27-master_seed"),
    # a value of the wrong JSON type, named by its key rather than by an entry
    pytest.param({"l_values": 1.0}, "l_values must be a JSON array",
                 id="change28-l_values must be a JSON array"),
    pytest.param({"arm_means": 0.9}, "arm_means must be a JSON array",
                 id="change29-arm_means must be a JSON array"),
    pytest.param({"policies": {"name": "ucb"}}, "policies must be a JSON array",
                 id="change30-policies must be a JSON array"),
    pytest.param({"policies": "ucb"}, "policies must be a JSON array",
                 id="change31-policies must be a JSON array"),
    pytest.param({"project_feedback": [1]}, "project_feedback must be a JSON object",
                 id="change32-project_feedback must be a JSON object"),
    # a required key left out, named with its path
    pytest.param({"arm_means": DROP}, "missing config key arm_means",
                 id="change33-missing config key arm_means"),
    pytest.param({"policies": DROP}, "missing config key policies",
                 id="change34-missing config key policies"),
    pytest.param({"l_values": DROP}, "missing config key l_values",
                 id="change35-missing config key l_values"),
    pytest.param({"horizon": DROP}, "missing config key horizon",
                 id="change36-missing config key horizon"),
    pytest.param({"replications": DROP}, "missing config key replications",
                 id="change37-missing config key replications"),
    pytest.param({"master_seed": DROP}, "missing config key master_seed",
                 id="change38-missing config key master_seed"),
    pytest.param({"policies": [{"name": "ucb"}, {"c": 3}]}, "missing config key policies[1].name",
                 id="change39-missing config key policies[1].name"),
    # a policy name that is not a string
    pytest.param({"policies": [{"name": ["ucb"]}]}, "policies[0].name",
                 id="change40-policies[0].name"),
    pytest.param({"policies": [{"name": {"kind": "ucb"}}]}, "policies[0].name",
                 id="change41-policies[0].name"),
    pytest.param({"l_values": [0.0, math.inf]}, "l_values[1]", id="change42-l_values[1]"),
    # an empty policy list
    pytest.param({"policies": []}, "policies must be non-empty",
                 id="change43-policies must be non-empty"),
    # the ids above keep the form pytest once generated from the arguments; new cases
    # take an id that names their input
    pytest.param({"l_values": []}, "l_values", id="l_values empty"),
    pytest.param({"l_values": [math.nan]}, "l_values", id="l_values nan"),
    pytest.param({"drift_kind": "zero"}, "drift_kind must be one of", id="drift_kind zero"),
    # a JSON integer of 401 digits, beyond float range
    pytest.param({"arm_means": [10 ** 400, 0.5]}, "arm_means: arm means must lie in (0, 1]",
                 id="arm_means beyond float range"),
    pytest.param({"noise": {"kind": "gaussian", "sigma": 10 ** 400}},
                 "noise.sigma must be finite, got 1" + "0" * 400,
                 id="noise.sigma beyond float range"),
    pytest.param({"policies": [{"c": 3}]}, "missing config key policies[0].name",
                 id="policies[0] without a name"),
])
def test_config_from_dict_rejects_naming_the_key(tmp_path, capsys, change, key):
    # the library refuses the JSON, and `driftbandit sweep` on it exits 2 before writing
    data = {**ExperimentConfig(**SMALL_CONFIG).to_dict(), **change}
    data = {k: v for k, v in data.items() if v is not DROP}
    with pytest.raises(ValueError, match=re.escape(key)):
        ExperimentConfig.from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))  # nan is written as NaN, which json.load reads back
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the direct-construction twin: the constructor holds every value rule, so a
# config built in Python is refused as the same JSON value would be
@pytest.mark.parametrize("change,key", [
    pytest.param({"project_overrides": {"ucb": "no"}}, "project_feedback['ucb']",
                 id="project_overrides-value-not-a-flag"),
    pytest.param({"project_overrides": {"ucbb": True}}, "ucbb", id="project_overrides-unknown-name"),
    pytest.param({"project_overrides": [("ucb", True)]}, "project_feedback must be a JSON object",
                 id="project_overrides-not-a-dict"),
    pytest.param({"trajectory_stride": "7"}, "trajectory_stride", id="trajectory_stride-string"),
    pytest.param({"trajectory_stride": 0}, "trajectory_stride", id="trajectory_stride-zero"),
    pytest.param({"trajectory_stride": 2.5}, "trajectory_stride", id="trajectory_stride-fraction"),
    pytest.param({"policies": ("ucb",)}, "policies[0] must be a PolicyKind",
                 id="policies-string"),
    pytest.param({"policies": (PolicyKind.ucb(), {"name": "thompson"})},
                 "policies[1] must be a PolicyKind", id="policies-dict"),
    pytest.param({"horizon": 2}, "horizon 2 is shorter than the warm start",
                 id="horizon-below-warm-start"),
    pytest.param({"horizon": 10.5}, "horizon", id="horizon-fraction"),
    pytest.param({"horizon": "120"}, "horizon", id="horizon-string"),
    pytest.param({"replications": 2.9}, "replications", id="replications-fraction"),
    pytest.param({"master_seed": 3.5}, "master_seed", id="master_seed-fraction"),
    pytest.param({"master_seed": True}, "master_seed", id="master_seed-bool"),
    pytest.param({"arm_means": ("0.9", "0.5")}, "arm_means[0]", id="arm_means-strings"),
    pytest.param({"arm_means": 0.9}, "arm_means must be a JSON array", id="arm_means-scalar"),
    pytest.param({"l_values": (0.0, "1")}, "l_values[1]", id="l_values-string"),
    pytest.param({"l_values": (0.0, True)}, "l_values[1]", id="l_values-bool"),
    pytest.param({"noise_sigma": "1"}, "noise.sigma", id="noise_sigma-string"),
    pytest.param({"noise_sigma": math.inf}, "noise.sigma must be finite", id="noise_sigma-inf"),
    pytest.param({"drift_kind": "clipped_linear", "drift_cap": "2"}, "drift_cap",
                 id="drift_cap-string"),
])
def test_config_rejects_at_construction_naming_the_key(change, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        ExperimentConfig(**{**SMALL_CONFIG, **change})


def test_config_to_dict_has_every_config_key():
    assert set(ExperimentConfig(**SMALL_CONFIG).to_dict()) == set(_CONFIG_KEYS)


# every sweep config the repository ships, beside the digests file that shares the prefix
SHIPPED_CONFIGS = sorted([*(REPO / "configs").glob("*.json"),
                          *(p for p in (REPO / "tests" / "data").glob("sweep_*.json")
                            if p.name != "sweep_digests.json")])


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_shipped_config_parses_and_round_trips(path):
    config = ExperimentConfig.from_dict(json.loads(path.read_text()))
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert set(config.to_dict()) == set(_CONFIG_KEYS)


def test_config_stores_numpy_integer_counts_as_int():
    counts = {"horizon": 120, "replications": 4, "master_seed": 20260809, "trajectory_stride": 7}
    config = ExperimentConfig(**{**SMALL_CONFIG, **{k: np.int64(v) for k, v in counts.items()}})
    assert config == ExperimentConfig(**{**SMALL_CONFIG, **counts})
    assert [type(getattr(config, key)) for key in counts] == [int] * len(counts)


def test_config_from_dict_rejects_a_config_that_is_not_an_object():
    with pytest.raises(ValueError, match="config must be a JSON object"):
        ExperimentConfig.from_dict([ExperimentConfig(**SMALL_CONFIG).to_dict()])


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_config_accepts_every_64_bit_master_seed(seed):
    assert ExperimentConfig(**{**SMALL_CONFIG, "master_seed": seed}).master_seed == seed


def test_config_from_dict_accepts_whole_floats():
    data = {**ExperimentConfig(**SMALL_CONFIG).to_dict(), "horizon": 120.0}
    assert ExperimentConfig.from_dict(data) == ExperimentConfig(**SMALL_CONFIG)


# ---------------------------------------------------------------- run_experiment

def test_single_replication_mean_is_value_std_zero():
    config = ExperimentConfig(**{**SMALL_CONFIG, "replications": 1})
    result = run_experiment(config)
    for cell in result.cells:
        assert cell.regret_std == 0.0
        assert cell.comp_std == 0.0


def test_run_experiment_jobs_do_not_change_results():
    config = ExperimentConfig(**SMALL_CONFIG)
    serial = run_experiment(config, jobs=1)
    assert serial == run_experiment(config, jobs=2)
    # below 1: serial, as jobs=1, so this is also a rerun in the same process
    assert serial == run_experiment(config, jobs=0)


@pytest.mark.parametrize("replications", [3, 4])
def test_cell_medians_match_recomputed_replications(replications):
    config = ExperimentConfig(**{**SMALL_CONFIG, "replications": replications})
    result = run_experiment(config, jobs=1)
    assert run_experiment(config, jobs=2) == result
    instance = config.instance()
    for p_idx, policy in enumerate(config.policies):
        for l_idx, l in enumerate(config.l_values):
            reps = [
                summarize(run(instance, policy, config.drift_model(l),
                              config.options_for(policy), config.horizon,
                              derive_seed(config.master_seed, p_idx, l_idx, rep),
                              keep_records=False), instance)
                for rep in range(replications)
            ]
            cell = result.cell(policy.name, l)
            assert cell.rep_metrics == tuple(reps)
            assert cell.regret_median == statistics.median(m.regret for m in reps)
            assert cell.comp_median == statistics.median(m.compensation for m in reps)
            assert cell.comp_rounds_median == statistics.median(
                float(m.comp_rounds) for m in reps)
            assert cell.arm1_err_median == statistics.median(
                m.arm1_rel_error for m in reps)


def test_run_experiment_cell_grid():
    config = ExperimentConfig(**SMALL_CONFIG)
    result = run_experiment(config)
    assert len(result.cells) == 4
    assert [(c.policy.name, c.l) for c in result.cells] == [
        ("ucb", 0.0), ("ucb", 1.0), ("thompson", 0.0), ("thompson", 1.0)]
    cell = result.cell("ucb", 1.0)
    assert cell.regret_mean >= 0.0
    with pytest.raises(KeyError, match=re.escape("no cell for (ucb, 0.5)")):
        result.cell("ucb", 0.5)


def test_cell_refuses_a_lookup_that_matches_two_cells():
    # two egreedy entries with different c: (egreedy, l) names two cells
    config = ExperimentConfig(**{**SMALL_CONFIG, "horizon": 20, "replications": 1, "policies": (
        PolicyKind.egreedy(4.0), PolicyKind.ucb(), PolicyKind.egreedy(8.0))})
    result = run_experiment(config)
    with pytest.raises(KeyError, match=re.escape("2 cells for (egreedy, 1.0)")):
        result.cell("egreedy", 1.0)
    assert result.cell("ucb", 1.0) is result.cells[3]


def test_run_experiment_curves():
    config = ExperimentConfig(**{**SMALL_CONFIG, "trajectory_stride": 25})
    result = run_experiment(config)
    for cell in result.cells:
        assert cell.curve.rounds == [25, 50, 75, 100, 120]
        assert len(cell.curve.regret) == math.ceil(config.horizon / 25)
        # cumulative means are non-decreasing
        assert cell.curve.regret == sorted(cell.curve.regret)


@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
@pytest.mark.parametrize("n_policies", [1, 2, 3, 4])
def test_chunks_deal_every_triple_once(n_policies, jobs):
    policies = (PolicyKind.ucb(), PolicyKind.thompson(), PolicyKind.egreedy(4.0),
                PolicyKind.greedy())[:n_policies]
    config = ExperimentConfig(**{**SMALL_CONFIG, "policies": policies, "replications": 3})
    chunks = _chunks(config, jobs)
    dealt = [triple for chunk in chunks for triple in chunk]
    assert sorted(dealt) == [(p, l, rep) for p in range(n_policies) for l in range(2)
                             for rep in range(3)]
    # a unit is one policy, or a part of one when there are fewer policies than jobs
    units = n_policies * min(6, -(-jobs // n_policies))
    assert len(chunks) == min(jobs, units)
    if jobs == 1:
        assert len(chunks) == 1
    # lanes stay in grid order, so each policy's lanes in a chunk form one group
    assert all(list(chunk) == sorted(chunk) for chunk in chunks)


def test_chunks_deal_the_canonical_grid_by_cost():
    # thompson's lanes cost about as much as ucb's and egreedy's together
    config = ExperimentConfig.from_dict(json.loads(CANONICAL.read_text()))
    chunks = _chunks(config, 2)
    assert [sorted({p_idx for p_idx, _, _ in chunk}) for chunk in chunks] == [[2], [0, 1]]


def _round_robin(config, jobs):
    """The deal by count: the units _chunks cuts, dealt as units[c::count]."""
    lanes = [(l_idx, rep) for l_idx in range(len(config.l_values))
             for rep in range(config.replications)]
    parts = min(len(lanes), -(-jobs // len(config.policies)))
    cuts = [len(lanes) * i // parts for i in range(parts + 1)]
    units = [tuple((p_idx, l_idx, rep) for l_idx, rep in lanes[a:b])
             for p_idx in range(len(config.policies)) for a, b in zip(cuts, cuts[1:])]
    count = min(jobs, len(units))
    return [tuple(lane for unit in units[c::count] for lane in unit) for c in range(count)]


@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
@pytest.mark.parametrize("policies", [(PolicyKind.thompson(),), NINE_EGREEDY],
                         ids=["one-policy-in-parts", "nine-egreedy"])
def test_chunks_deal_equal_cost_units_round_robin(policies, jobs):
    # 12 lanes a policy cut into 1-4 parts of 12/parts lanes: every unit weighs the same
    config = ExperimentConfig(**{**SMALL_CONFIG, "policies": policies, "replications": 6})
    assert _chunks(config, jobs) == _round_robin(config, jobs)


@pytest.mark.parametrize("policies", [FOUR_RULES, NINE_EGREEDY],
                         ids=["four-rules", "nine-egreedy"])
def test_run_experiment_cells_do_not_depend_on_the_deal(policies):
    config = ExperimentConfig(arm_means=NINE_ARMS, policies=policies, l_values=(0.0, 1.1),
                              horizon=40, replications=2, master_seed=20260809)
    serial = run_experiment(config, jobs=1)
    for jobs in (2, 3, 4):
        assert run_experiment(config, jobs=jobs) == serial, jobs


@pytest.mark.parametrize("l_values,pools", [((0.0,), []), ((0.0, 1.0), [2])])
def test_run_experiment_opens_one_worker_per_chunk(monkeypatch, l_values, pools):
    # one policy and one replication: a lane per l, so one chunk or two at jobs=8
    sizes = []

    class InProcessPool:  # records its size and maps in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    # run_experiment imports the pool class only when it opens one, and so reads the patch
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = ExperimentConfig(**{**SMALL_CONFIG, "policies": (PolicyKind.ucb(),),
                                 "l_values": l_values, "replications": 1})
    assert run_experiment(config, jobs=8) == run_experiment(config, jobs=1)
    assert sizes == pools


def test_run_experiment_names_failing_triple():
    bad = ExperimentConfig(**SMALL_CONFIG)
    object.__setattr__(bad, "horizon", 2)  # corrupt past validation: runs must fail
    with pytest.raises(ExperimentError) as err:
        run_experiment(bad)
    assert "policy=ucb" in str(err.value)
    assert "l=0.0" in str(err.value)
    assert "rep=0" in str(err.value)


def test_run_experiment_jobs2_names_failing_triple():
    # only the egreedy items fail: with its c dropped past validation its lane form
    # raises TypeError.  At jobs=2 its 8 lanes are a chunk, whose first triple is named
    bad = ExperimentConfig(**{**SMALL_CONFIG,
                              "policies": (PolicyKind.ucb(), PolicyKind.egreedy(4.0))})
    object.__setattr__(bad.policies[1], "c", None)
    with pytest.raises(ExperimentError) as err:
        run_experiment(bad, jobs=2)
    assert str(err.value).startswith(
        "replications failed in the chunk of 8 starting at policy=egreedy, l=0.0, rep=0: ")


@pytest.mark.parametrize("jobs,named", [(1, "l=0.0, rep=0"), (2, "l=-1.0, rep=0")])
def test_run_experiment_names_first_triple_of_failing_chunk(jobs, named):
    # one policy: one chunk at jobs=1, two chunks (one per l) at jobs=2;
    # only the lanes with l=-1.0 fail
    bad = ExperimentConfig(**{**SMALL_CONFIG, "policies": (PolicyKind.ucb(),),
                              "replications": 2})
    object.__setattr__(bad, "l_values", (0.0, -1.0))
    with pytest.raises(ExperimentError) as err:
        run_experiment(bad, jobs=jobs)
    assert f"policy=ucb, {named}" in str(err.value)
    assert "lipschitz" in str(err.value)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_experiment_names_the_lane_that_failed(jobs):
    # unprojected egreedy overflows at l=1e300 (test_run_refuses_arm_sums_that_overflow);
    # ucb and l=0.0 stay finite.  At jobs=1 the failing lane sits after the 8 ucb lanes
    # and 4 egreedy l=0.0 lanes; at jobs=2 (the egreedy lanes cross the pool) after
    # the 4 l=0.0 lanes of its chunk
    config = ExperimentConfig(
        arm_means=(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
        policies=(PolicyKind.ucb(), PolicyKind.egreedy(4.0)), l_values=(0.0, 1e300),
        horizon=200, replications=4, master_seed=20260809,
        project_overrides={"egreedy": False})
    first_bad = None
    for rep in range(config.replications):  # the scalar run of each egreedy l=1e300 item
        seed = derive_seed(config.master_seed, 1, 1, rep)
        try:
            run(config.instance(), config.policies[1], config.drift_model(1e300),
                config.options_for(config.policies[1]), config.horizon, seed)
        except BanditError:
            first_bad = rep, seed
            break
    assert first_bad is not None
    rep, seed = first_bad
    with pytest.raises(ExperimentError) as err, warnings.catch_warnings():
        # numpy's overflow and invalid-value warnings, raised in this process at jobs=1
        warnings.simplefilter("ignore", RuntimeWarning)
        run_experiment(config, jobs=jobs)
    message = str(err.value)
    assert message.startswith(f"replication failed at policy=egreedy, l=1e+300, rep={rep}: ")
    assert f"(seed {seed}) overflowed: arm " in message


def test_sublinear_growth_bernoulli_drift():
    # log-growth signature: second half adds less than the first half
    config = ExperimentConfig(
        arm_means=(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
        policies=(PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson()),
        l_values=(1.1,),
        horizon=10000,
        replications=10,
        master_seed=20260809,
        noise_kind="bernoulli",
        noise_sigma=0.0,
        trajectory_stride=5000,
    )
    result = run_experiment(config, jobs=2)
    for cell in result.cells:
        halfway = cell.curve.regret[cell.curve.rounds.index(5000)]
        full = cell.curve.regret[cell.curve.rounds.index(10000)]
        assert full - halfway < halfway, cell.policy.name


def test_ucb_regret_and_comp_rounds_monotone_in_l():
    config = ExperimentConfig(
        arm_means=(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
        policies=(PolicyKind.ucb(),),
        l_values=(0.0, 0.4, 0.9),
        horizon=5000,
        replications=12,
        master_seed=20260809,
        noise_kind="gaussian",
        noise_sigma=1.0,
    )
    result = run_experiment(config, jobs=2)
    cells = [result.cell("ucb", l) for l in (0.0, 0.4, 0.9)]

    def pooled_se(a, b):
        n = config.replications
        return math.sqrt(a ** 2 / n + b ** 2 / n)

    for lo, hi in zip(cells, cells[1:]):
        slack = 2 * pooled_se(lo.regret_std, hi.regret_std)
        assert hi.regret_mean >= lo.regret_mean - slack
        slack_n = 2 * pooled_se(lo.comp_rounds_std, hi.comp_rounds_std)
        assert hi.comp_rounds_mean >= lo.comp_rounds_mean - slack_n
