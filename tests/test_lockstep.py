"""The lockstep engine against the scalar loop it replays, compared with ==.

mechanism.run is the executable spec: every lane of lockstep.run_lanes, and
every work item of run_experiment, must give the SummaryMetrics and the curve
that derive_seed -> run -> summarize gives for the same inputs.
"""

from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbandit import (
    BanditInstance,
    DriftModel,
    ExperimentConfig,
    MechanismOptions,
    NoiseModel,
    NumpyRng,
    PolicyKind,
    derive_seed,
    run,
    run_experiment,
    summarize,
)
from driftbandit.lockstep import run_lanes
from driftbandit.rng import LaneStreams

POLICIES = st.one_of(
    st.just(PolicyKind.ucb()), st.just(PolicyKind.thompson()), st.just(PolicyKind.greedy()),
    st.sampled_from([0.5, 4.0, 60.0]).map(PolicyKind.egreedy))
MEANS = st.lists(st.integers(1, 100), min_size=2, max_size=6, unique=True).map(
    lambda xs: tuple(x / 100 for x in xs))
NOISE = st.one_of(st.just(NoiseModel("bernoulli")),
                  st.sampled_from([0.0, 0.3, 1.0, 2.5]).map(lambda s: NoiseModel("gaussian", s)))
DRIFT = st.sampled_from([("zero", None), ("linear", None), ("clipped_linear", 0.0),
                         ("clipped_linear", 0.05), ("clipped_linear", 0.4)])
L_VALUE = st.sampled_from([0.0, 0.05, 0.4, 1.1, 3.0])
PROJECT = st.sampled_from([None, True, False])
STRIDE = st.one_of(st.none(), st.integers(1, 60))
SEED = st.integers(0, 2**64 - 1)


def _drift(kind: str, cap, l: float) -> DriftModel:
    return DriftModel(kind, lipschitz=0.0 if kind == "zero" else l, cap=cap)


def _assert_lanes_equal_scalar(instance, policy, drifts, options, horizon, seeds, stride):
    lanes = run_lanes(instance, policy, drifts, options, horizon, seeds, stride=stride)
    assert len(lanes) == len(seeds)
    for lane, drift, seed in zip(lanes, drifts, seeds):
        scalar = run(instance, policy, drift, options, horizon, seed,
                     stride=stride, keep_records=False)
        assert summarize(lane, instance) == summarize(scalar, instance)
        assert lane.curve == scalar.curve
        assert lane.final.arms == scalar.final.arms


@settings(max_examples=60, deadline=None)
@given(policy=POLICIES, means=MEANS, noise=NOISE, drift=DRIFT,
       ls=st.lists(L_VALUE, min_size=1, max_size=5), project=PROJECT,
       horizon_extra=st.one_of(st.integers(0, 40), st.integers(100, 1300)),
       stride=STRIDE, seed_base=SEED)
def test_run_lanes_equals_scalar_run(policy, means, noise, drift, ls, project, horizon_extra,
                                     stride, seed_base):
    instance = BanditInstance(means, noise)
    drifts = [_drift(*drift, l) for l in ls]
    seeds = [derive_seed(seed_base, 0, j, 0) for j in range(len(ls))]
    _assert_lanes_equal_scalar(instance, policy, drifts, MechanismOptions(project_feedback=project),
                               instance.k + horizon_extra, seeds, stride)


@pytest.mark.parametrize("noise", [NoiseModel("bernoulli"), NoiseModel("gaussian", 1.0)])
@pytest.mark.parametrize("policy", [PolicyKind.ucb(), PolicyKind.egreedy(4.0),
                                    PolicyKind.thompson(), PolicyKind.greedy()])
def test_every_policy_past_several_block_refills(policy, noise):
    instance = BanditInstance((0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1), noise)
    drifts = [DriftModel("clipped_linear", lipschitz=l, cap=0.3) for l in (0.0, 0.7, 1.1)]
    seeds = [derive_seed(20260809, 2, j, 1) for j in range(len(drifts))]
    _assert_lanes_equal_scalar(instance, policy, drifts, MechanismOptions(), 2100, seeds, 9)


class _RefillLog:
    """RngStream over NumpyRng that logs the kind of each block refill."""

    def __init__(self, seed):
        self._inner = NumpyRng(seed)
        self.counts = {"u": 0, "n": 0}
        self.refills = []

    def _note(self, kind):
        if self.counts[kind] % 1024 == 0:
            self.refills.append(kind)
        self.counts[kind] += 1

    def uniform(self):
        self._note("u")
        return self._inner.uniform()

    def normal(self):
        self._note("n")
        return self._inner.normal()


def test_egreedy_gaussian_lanes_refill_in_different_orders():
    # with a large c most early rounds explore, so each lane's uniform block
    # runs out at its own round while the normal blocks run out together
    instance = BanditInstance((0.8, 0.65, 0.5, 0.45, 0.2), NoiseModel("gaussian", 1.0))
    policy = PolicyKind.egreedy(80.0)
    horizon = 2600
    drifts = [DriftModel("linear", lipschitz=l) for l in (0.0, 0.4, 1.1) for _ in range(3)]
    seeds = [derive_seed(5, 1, j, 0) for j in range(len(drifts))]
    orders = set()
    for drift, seed in zip(drifts, seeds):
        log = _RefillLog(seed)
        run(instance, policy, drift, MechanismOptions(), horizon, log, keep_records=False)
        orders.add(tuple(log.refills))
    assert len(orders) > 1
    _assert_lanes_equal_scalar(instance, policy, drifts, MechanismOptions(), horizon, seeds, 50)


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(SEED, min_size=1, max_size=4),
       ops=st.lists(st.tuples(st.sampled_from(["u", "n", "normals"]),
                              st.integers(1, 700), st.integers(1, 15)), max_size=40))
def test_lane_streams_replay_numpy_rng(seeds, ops):
    # "u" draws a uniform for the lanes in the bit mask; "n" and "normals"
    # draw one and n normals for every lane
    draws = LaneStreams(seeds)
    scalar = [NumpyRng(s) for s in seeds]
    for kind, n, mask in ops:
        if kind == "normals":
            assert draws.normals(n).tolist() == [[rng.normal() for _ in range(n)]
                                                 for rng in scalar]
        elif kind == "n":
            assert draws.normal().tolist() == [rng.normal() for rng in scalar]
        else:
            lanes = [j for j in range(len(seeds)) if mask >> j & 1] or [0]
            pick = None if len(lanes) == len(seeds) else np.array(lanes)
            assert draws.uniform(pick).tolist() == [scalar[j].uniform() for j in lanes]


@settings(max_examples=15, deadline=None)
@given(policies=st.lists(POLICIES, min_size=1, max_size=2, unique_by=lambda p: p.name),
       means=MEANS, noise=NOISE, drift=DRIFT,
       ls=st.lists(L_VALUE, min_size=1, max_size=3, unique=True),
       replications=st.integers(1, 3), horizon_extra=st.integers(0, 400),
       stride=STRIDE, overrides=st.dictionaries(
           st.sampled_from(["ucb", "egreedy", "thompson", "greedy"]), st.booleans()),
       master=SEED)
def test_run_experiment_equals_scalar_items(policies, means, noise, drift, ls, replications,
                                            horizon_extra, stride, overrides, master):
    kind, cap = drift
    config = ExperimentConfig(
        arm_means=means, policies=tuple(policies), l_values=tuple(ls),
        horizon=len(means) + horizon_extra, replications=replications, master_seed=master,
        noise_kind=noise.kind, noise_sigma=noise.sigma, drift_kind=kind, drift_cap=cap,
        project_overrides=overrides, capture_trajectories=stride is not None,
        trajectory_stride=stride or 10)
    result = run_experiment(config)
    instance = config.instance()
    for p_idx, policy in enumerate(config.policies):
        for l_idx, l in enumerate(config.l_values):
            runs = [run(instance, policy, config.drift_model(l), config.options_for(policy),
                        config.horizon, derive_seed(master, p_idx, l_idx, rep), stride=stride,
                        keep_records=False) for rep in range(replications)]
            cell = result.cell(policy.name, l)
            assert cell.rep_metrics == tuple(summarize(r, instance) for r in runs)
            if stride is not None:
                assert cell.curve_rounds == tuple(runs[0].curve.rounds)
                assert cell.regret_curve_mean == tuple(
                    fmean(col) for col in zip(*(r.curve.regret for r in runs)))
                assert cell.comp_curve_mean == tuple(
                    fmean(col) for col in zip(*(r.curve.compensation for r in runs)))


def test_run_lanes_rejects_what_run_rejects():
    instance = BanditInstance((0.9, 0.5, 0.2), NoiseModel("gaussian", 1.0))
    drift = DriftModel("linear", lipschitz=1.0)
    with pytest.raises(ValueError, match="warm start"):
        run_lanes(instance, PolicyKind.ucb(), [drift], MechanismOptions(), 2, [1])
    with pytest.raises(ValueError, match="stride"):
        run_lanes(instance, PolicyKind.ucb(), [drift], MechanismOptions(), 20, [1], stride=0)
    with pytest.raises(ValueError, match="debug"):
        run_lanes(instance, PolicyKind.ucb(), [drift], MechanismOptions(debug=True), 20, [1])
    with pytest.raises(ValueError, match="drift kind"):
        run_lanes(instance, PolicyKind.ucb(), [drift, DriftModel("zero")], MechanismOptions(),
                  20, [1, 2])
