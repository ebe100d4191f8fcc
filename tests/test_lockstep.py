"""The lockstep engine against the scalar loop it replays, compared with ==.

mechanism.run is the executable spec: every lane of lockstep.run_lanes, and
every work item of run_experiment, must give the SummaryMetrics and the curve
that derive_seed -> run -> summarize gives for the same inputs.
"""

import ast
from dataclasses import astuple
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftbandit import (
    ArmState,
    BanditError,
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
from driftbandit import lockstep
from driftbandit.core import DRIFT_KINDS
from driftbandit.lockstep import Lane, run_lanes
from driftbandit.mechanism import CurveProbe, curve_of
from driftbandit.policies import POLICY_NAMES
from driftbandit.rng import LaneStreams

POLICIES = st.one_of(
    st.just(PolicyKind.ucb()), st.just(PolicyKind.thompson()), st.just(PolicyKind.greedy()),
    st.sampled_from([0.5, 4.0, 60.0]).map(PolicyKind.egreedy))
MEANS = st.lists(st.integers(1, 100), min_size=2, max_size=6, unique=True).map(
    lambda xs: tuple(x / 100 for x in xs))
NOISE = st.one_of(st.just(NoiseModel("bernoulli")),
                  st.sampled_from([0.0, 0.3, 1.0, 2.5]).map(lambda s: NoiseModel("gaussian", s)))
DRIFT = st.sampled_from([(kind, cap) for kind in DRIFT_KINDS
                         for cap in ((0.0, 0.05, 0.4) if kind == "clipped_linear" else (None,))])
L_VALUE = st.sampled_from([0.0, 0.05, 0.4, 1.1, 3.0])
STRIDE = st.one_of(st.none(), st.integers(1, 60))
SEED = st.integers(0, 2**64 - 1)


def _drift(kind: str, cap, l: float) -> DriftModel:
    return DriftModel(kind, lipschitz=l, cap=cap)


def _one_policy(policy, drifts, options, seeds):
    return [Lane(policy, options, drift, seed) for drift, seed in zip(drifts, seeds)]


def _assert_lanes_equal_scalar(instance, lanes, horizon, stride):
    probe = None if stride is None else CurveProbe(instance.gap_vector, horizon, stride)
    played = run_lanes(instance, lanes, horizon, probe=probe)
    assert len(played) == len(lanes)
    curves = [None] * len(lanes) if probe is None else probe.curves()
    for got, curve, lane in zip(played, curves, lanes):
        scalar = run(instance, lane.policy, lane.drift, lane.options, horizon, lane.seed)
        assert summarize(got, instance) == summarize(scalar, instance)
        assert curve == (None if stride is None else curve_of(scalar, stride))
        assert got.arms == scalar.arms
        assert got.records == []  # the lockstep keeps no record


@settings(max_examples=80, deadline=None)
@given(lanes=st.lists(st.tuples(POLICIES, L_VALUE), min_size=1, max_size=8),
       overrides=st.dictionaries(st.sampled_from(["ucb", "egreedy", "thompson", "greedy"]),
                                 st.booleans()),
       means=MEANS, noise=NOISE, drift=DRIFT,
       horizon_extra=st.one_of(st.integers(0, 40), st.integers(100, 1300)),
       stride=STRIDE, seed_base=SEED)
# every policy twice, interleaved, so eight groups share one argmax; Bernoulli
# rewards on close means tie the posted means now and then in every group, so
# the first-maximum rule decides ties in all of them; egreedy projects its feedback
@example(lanes=[(policy, l) for l in (0.0, 1.1) for policy in (
             PolicyKind.ucb(), PolicyKind.greedy(), PolicyKind.egreedy(4.0), PolicyKind.thompson())],
         overrides={"egreedy": True}, means=(0.5, 0.45, 0.4), noise=NoiseModel("bernoulli"),
         drift=("linear", None), horizon_extra=1300, stride=None, seed_base=20260809)
def test_run_lanes_equals_scalar_run(lanes, overrides, means, noise, drift, horizon_extra,
                                     stride, seed_base):
    # lanes of one or several policies in one lockstep, in any order, with
    # projection overrides that differ between policies; strides below and above K
    instance = BanditInstance(means, noise)
    mixed = [Lane(policy, MechanismOptions(project_feedback=overrides.get(policy.name)),
                  _drift(*drift, l), derive_seed(seed_base, 0, j, 0))
             for j, (policy, l) in enumerate(lanes)]
    _assert_lanes_equal_scalar(instance, mixed, instance.k + horizon_extra, stride)


@settings(max_examples=30, deadline=None)
@given(lanes=st.lists(st.tuples(POLICIES, L_VALUE, st.booleans()), min_size=1, max_size=6),
       means=MEANS, noise=NOISE, drift=DRIFT, horizon_extra=st.integers(0, 300),
       seed_base=SEED)
def test_run_lanes_finals_post_the_scalar_final_view(lanes, means, noise, drift,
                                                     horizon_extra, seed_base):
    # each final state's live view is derived from its arms when run_lanes builds it
    instance = BanditInstance(means, noise)
    horizon = instance.k + horizon_extra
    lanes = [Lane(policy, MechanismOptions(project_feedback=project), _drift(*drift, l),
                  derive_seed(seed_base, 0, j, 0))
             for j, (policy, l, project) in enumerate(lanes)]
    for got, lane in zip(run_lanes(instance, lanes, horizon), lanes):
        scalar = run(instance, lane.policy, lane.drift, lane.options, horizon, lane.seed)
        assert got.policy_view() == scalar.policy_view()


@pytest.mark.parametrize("noise", [NoiseModel("bernoulli"), NoiseModel("gaussian", 1.0)])
@pytest.mark.parametrize("policy", [PolicyKind.ucb(), PolicyKind.egreedy(4.0),
                                    PolicyKind.thompson(), PolicyKind.greedy()])
def test_every_policy_past_several_block_refills(policy, noise):
    instance = BanditInstance((0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1), noise)
    drifts = [DriftModel("clipped_linear", lipschitz=l, cap=0.3) for l in (0.0, 0.7, 1.1)]
    seeds = [derive_seed(20260809, 2, j, 1) for j in range(len(drifts))]
    _assert_lanes_equal_scalar(instance, _one_policy(policy, drifts, MechanismOptions(), seeds),
                               2100, 9)


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
    _assert_lanes_equal_scalar(instance, _one_policy(policy, drifts, MechanismOptions(), seeds),
                               horizon, 50)


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(SEED, min_size=1, max_size=4),
       ops=st.lists(st.tuples(st.sampled_from(["u", "n", "normals"]),
                              st.integers(1, 700), st.integers(1, 15)), max_size=40))
# lane 0 uses up its uniform block while lane 1 draws past its own, then
# waits out a normal refill; lane 2 draws no uniform until the normals are filled
@example(seeds=[1, 2, 3], ops=[("u", 700, 0b011), ("normals", 600, 1), ("u", 324, 0b001),
                               ("u", 500, 0b110), ("normals", 600, 1), ("u", 1, 0b111),
                               ("u", 600, 0b100), ("n", 1, 1)])
def test_lane_streams_replay_numpy_rng(seeds, ops):
    # "u" draws a uniform n times for the lanes in the bit mask, so the lanes
    # use up their uniform blocks at different draws; "n" and "normals" draw
    # one and n normals for every lane
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
            for _ in range(n):
                assert draws.uniform(pick).tolist() == [scalar[j].uniform() for j in lanes]


def test_run_lanes_warm_start_points_read_the_pulls_so_far():
    # the hand values of test_mechanism: 2.1 after seven of nine warm-start pulls
    instance = BanditInstance((0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
                              NoiseModel("gaussian", 1.0))
    lanes = [Lane(policy, MechanismOptions(), DriftModel("linear", lipschitz=1.1), seed)
             for seed, policy in enumerate([PolicyKind.ucb(), PolicyKind.thompson(),
                                            PolicyKind.egreedy(4.0), PolicyKind.ucb()])]
    probe = CurveProbe(instance.gap_vector, 20, 7)
    run_lanes(instance, lanes, 20, probe=probe)
    for curve in probe.curves():
        assert curve.rounds == [7, 14, 20]
        assert curve.regret[0] == 2.1
        assert curve.compensation[0] == 0.0


def test_run_lanes_keeps_lane_order_and_probes_after_the_credit():
    # the two ucb lanes are not consecutive, so they play in separate groups;
    # engine row j is still lanes[j], for the probe as for the trajectories
    instance = BanditInstance((0.9, 0.8, 0.6, 0.3), NoiseModel("gaussian", 1.0))
    policies = [PolicyKind.ucb(), PolicyKind.thompson(), PolicyKind.ucb(),
                PolicyKind.egreedy(4.0), PolicyKind.thompson()]
    lanes = [Lane(policy, MechanismOptions(), DriftModel("linear", lipschitz=l),
                  derive_seed(11, 0, j, 0))
             for j, (policy, l) in enumerate(zip(policies, (0.0, 1.1, 0.4, 1.1, 0.7)))]
    horizon, stride = 1500, 40
    curves = CurveProbe(instance.gap_vector, horizon, stride)
    rounds, last = [], []

    def probe(t, arms):
        rounds.append(t)
        curves(t, arms)
        if t == horizon:
            last.append(np.array([astuple(arm) for arm in arms]))  # (K, 5, lanes) copies

    played = run_lanes(instance, lanes, horizon, probe=probe)
    assert rounds == list(range(1, horizon + 1))
    for j, (lane, got, curve) in enumerate(zip(lanes, played, curves.curves())):
        scalar = run(instance, lane.policy, lane.drift, lane.options, horizon, lane.seed)
        assert [ArmState(*fields) for fields in last[0][:, :, j].tolist()] == scalar.arms
        assert got.arms == scalar.arms
        assert curve == curve_of(scalar, stride)


def test_lane_streams_thompson_draws_past_shared_refills():
    # nine normals then one a round, as Thompson's selection and reward draw;
    # 1024 is not a multiple of 10, so the shared blocks run out inside a take
    seeds = [derive_seed(3, 2, j, 0) for j in range(31)]
    draws = LaneStreams(seeds)
    scalar = [NumpyRng(s) for s in seeds]
    for _ in range(350):  # 3500 normals a lane: three refills after the first fill
        assert draws.normals(9).tolist() == [[rng.normal() for _ in range(9)]
                                             for rng in scalar]
        assert draws.normal().tolist() == [rng.normal() for rng in scalar]
    assert draws.normals(2100).tolist() == [[rng.normal() for _ in range(2100)]
                                            for rng in scalar]


@settings(max_examples=15, deadline=None)
@given(policies=st.lists(POLICIES, min_size=1, max_size=4),
       means=MEANS, noise=NOISE, drift=DRIFT,
       ls=st.lists(L_VALUE, min_size=1, max_size=3, unique=True),
       replications=st.integers(1, 3), horizon_extra=st.integers(0, 400),
       stride=STRIDE, overrides=st.dictionaries(
           st.sampled_from(["ucb", "egreedy", "thompson", "greedy"]), st.booleans()),
       master=SEED)
# a repeated entry: the identical egreedy pair plays as one lockstep group, and
# the third egreedy differs only by c
@example(policies=[PolicyKind.egreedy(4.0), PolicyKind.egreedy(4.0), PolicyKind.ucb(),
                   PolicyKind.egreedy(60.0)],
         means=(0.5, 0.45, 0.4), noise=NoiseModel("bernoulli"), drift=("linear", None),
         ls=[0.0, 1.1], replications=2, horizon_extra=300, stride=7, overrides={}, master=9)
def test_run_experiment_equals_scalar_items(policies, means, noise, drift, ls, replications,
                                            horizon_extra, stride, overrides, master):
    kind, cap = drift
    config = ExperimentConfig(
        arm_means=means, policies=tuple(policies), l_values=tuple(ls),
        horizon=len(means) + horizon_extra, replications=replications, master_seed=master,
        noise_kind=noise.kind, noise_sigma=noise.sigma, drift_kind=kind, drift_cap=cap,
        project_overrides=overrides, trajectory_stride=stride)
    result = run_experiment(config)
    instance = config.instance()
    for p_idx, policy in enumerate(config.policies):
        for l_idx, l in enumerate(config.l_values):
            runs = [run(instance, policy, config.drift_model(l), config.options_for(policy),
                        config.horizon, derive_seed(master, p_idx, l_idx, rep))
                    for rep in range(replications)]
            cell = result.cells[p_idx * len(ls) + l_idx]
            assert cell.rep_metrics == tuple(summarize(r, instance) for r in runs)
            if stride is not None:
                curves = [curve_of(r, stride) for r in runs]
                assert cell.curve.rounds == curves[0].rounds
                assert cell.curve.regret == [
                    fmean(col) for col in zip(*(c.regret for c in curves))]
                assert cell.curve.compensation == [
                    fmean(col) for col in zip(*(c.compensation for c in curves))]
            else:
                assert cell.curve is None


def test_lockstep_names_no_policy():
    # the engine reaches each rule through PolicyKind.rule, so it cannot fork by policy
    tree = ast.parse(Path(lockstep.__file__).read_text())
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & {*POLICY_NAMES, "name"}
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "name"] == []


def test_run_lanes_rejects_what_run_rejects():
    instance = BanditInstance((0.9, 0.5, 0.2), NoiseModel("gaussian", 1.0))
    drift = DriftModel("linear", lipschitz=1.0)
    ucb = Lane(PolicyKind.ucb(), MechanismOptions(), drift, 1)
    with pytest.raises(ValueError, match="lane"):
        run_lanes(instance, [], 20)
    with pytest.raises(ValueError, match="warm start"):
        run_lanes(instance, [ucb], 2)
    with pytest.raises(ValueError, match="drift kind"):
        run_lanes(instance, [ucb, Lane(PolicyKind.thompson(), MechanismOptions(),
                                       DriftModel("clipped_linear", 1.0, 0.3), 2)], 20)


def test_run_lanes_refuses_a_lane_whose_sums_overflow():
    # the egreedy lane of test_run_refuses_arm_sums_that_overflow; the ucb lane stays finite
    instance = BanditInstance((0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
                              NoiseModel("gaussian", 1.0))
    drift = DriftModel("linear", lipschitz=1e300)
    off = MechanismOptions(project_feedback=False)
    lanes = [Lane(PolicyKind.ucb(), off, drift, 2), Lane(PolicyKind.egreedy(4.0), off, drift, 1)]
    # the arm, field and value that mechanism.run names for the egreedy lane alone
    named = r"^lane 1 \(seed 1\) overflowed: arm 0 feedback_sum is inf$"
    with pytest.raises(BanditError, match=named):
        with pytest.warns(RuntimeWarning):  # numpy's overflow and invalid-value warnings
            run_lanes(instance, lanes, 200)
    run_lanes(instance, lanes[:1], 200)
