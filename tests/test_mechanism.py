import csv
import dataclasses
import io
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftbandit import (
    ArmState,
    BanditError,
    BanditInstance,
    DriftModel,
    MechanismOptions,
    NoiseModel,
    NumpyRng,
    PolicyKind,
    PolicyView,
    ScriptedRng,
    SimState,
    WarmStartError,
    mechanism,
    posted_mean,
    run,
    step,
    trajectory_rows,
    warm_start,
    write_trajectory_csv,
)
from driftbandit.core import accounting_totals
from driftbandit.mechanism import (
    BLOCK_ROUNDS,
    CURVE_COLUMNS,
    CURVE_ROW,
    REAL_FORMAT,
    SUMMARY_COLUMNS,
    SUMMARY_ROW,
    SWEEP_COLUMNS,
    SWEEP_ROW,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_ROW,
    check_finite,
    curve_of,
    fmt_real,
    read_blocks,
    record_blocks,
    write_csv,
)
from driftbandit.policies import POLICY_NAMES

NINE_ARM_MEANS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
NO_DRIFT = DriftModel("linear", lipschitz=0.0)


def make_state(instance, arms, rng=None):
    # through the constructor, which derives the live view from `arms`
    return SimState(round=1 + sum(a.pulls for a in arms), arms=arms,
                    gap_vector=instance.gap_vector, rng=rng or NumpyRng(0))


# ---------------------------------------------------------------- warm start

def test_warm_start_deterministic_two_arms():
    inst = BanditInstance((0.9, 0.8), NoiseModel("gaussian", 0.0))
    state = SimState.fresh(inst, NumpyRng(0))
    records = warm_start(state, inst, MechanismOptions(project_feedback=False))
    assert [r.chosen for r in records] == [0, 1]
    assert state.policy_view().posted == (0.9, 0.8)
    assert [a.pulls for a in state.arms] == [1, 1]
    assert state.cum_regret == pytest.approx(0.1)
    assert state.cum_compensation == 0.0
    assert state.round == 3


def test_warm_start_rejects_used_state():
    inst = BanditInstance((0.9, 0.8), NoiseModel("gaussian", 0.0))
    state = SimState.fresh(inst, NumpyRng(0))
    warm_start(state, inst, MechanismOptions(project_feedback=False))
    with pytest.raises(WarmStartError):
        warm_start(state, inst, MechanismOptions(project_feedback=False))


def test_warm_start_zero_drift_accumulates_none():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    state = SimState.fresh(inst, NumpyRng(5))
    warm_start(state, inst, MechanismOptions(project_feedback=False))
    assert sum(a.drift_sum for a in state.arms) == 0.0


# ---------------------------------------------------------------- step

def test_step_compensated_branch_arithmetic():
    # posted [0.6, 0.4]; thompson scripted to force arm 1; greedy is arm 0
    inst = BanditInstance((0.9, 0.95), NoiseModel("gaussian", 0.0))
    arms = [ArmState(pulls=1, feedback_sum=0.6), ArmState(pulls=1, feedback_sum=0.4)]
    state = make_state(inst, arms, ScriptedRng([0.0, 10.0, 0.0]))
    rec = step(state, PolicyKind.thompson(), DriftModel("linear", lipschitz=1.1),
               inst, MechanismOptions(project_feedback=False))
    assert rec.chosen == 1 and rec.greedy == 0 and rec.compensated
    assert rec.compensation == pytest.approx(0.2)
    assert rec.drift == pytest.approx(0.22)
    assert rec.raw_reward == 0.95
    assert rec.feedback == pytest.approx(0.95 + 0.22)
    assert state.arms[1].comp_count == 1
    assert state.arms[1].comp_sum == pytest.approx(0.2)
    assert state.cum_compensation == pytest.approx(0.2)


def test_step_no_compensation_when_choices_agree():
    inst = BanditInstance((0.9, 0.8), NoiseModel("gaussian", 0.0))
    arms = [ArmState(pulls=1, feedback_sum=0.9), ArmState(pulls=1, feedback_sum=0.8)]
    state = make_state(inst, arms)
    rec = step(state, PolicyKind.greedy(), DriftModel("linear", lipschitz=1.1),
               inst, MechanismOptions(project_feedback=False))
    assert rec.chosen == rec.greedy == 0
    assert not rec.compensated
    assert rec.compensation == 0.0 and rec.drift == 0.0
    assert rec.feedback == rec.raw_reward


def test_step_projection_clips_feedback_but_not_drift_sum():
    inst = BanditInstance((0.9, 0.95), NoiseModel("gaussian", 0.0))
    arms = [ArmState(pulls=1, feedback_sum=0.6), ArmState(pulls=1, feedback_sum=0.4)]
    state = make_state(inst, arms, ScriptedRng([0.0, 10.0, 0.0]))
    rec = step(state, PolicyKind.thompson(), DriftModel("linear", lipschitz=1.1),
               inst, MechanismOptions(project_feedback=True))
    assert rec.raw_reward == 0.95
    assert rec.drift == pytest.approx(0.22)
    assert rec.feedback == 1.0  # clipped
    assert state.arms[1].drift_sum == pytest.approx(0.22)  # unprojected accounting


def test_step_requires_warm_start():
    inst = BanditInstance((0.9, 0.8), NoiseModel("gaussian", 0.0))
    state = SimState.fresh(inst, NumpyRng(0))
    with pytest.raises(WarmStartError):
        step(state, PolicyKind.greedy(), NO_DRIFT, inst, MechanismOptions())


def test_warm_start_and_step_reject_unresolved_options():
    inst = BanditInstance((0.9, 0.8), NoiseModel("gaussian", 0.0))
    state = SimState.fresh(inst, NumpyRng(0))
    with pytest.raises(ValueError, match="resolve"):
        warm_start(state, inst, MechanismOptions())
    assert state.round == 1 and all(a.pulls == 0 for a in state.arms)
    warm_start(state, inst, MechanismOptions().resolve(PolicyKind.ucb()))
    with pytest.raises(ValueError, match="resolve"):
        step(state, PolicyKind.ucb(), NO_DRIFT, inst, MechanismOptions())


def test_step_compensation_zero_on_posted_tie():
    # tied posted means: greedy and chosen coincide at index 0
    inst = BanditInstance((0.9, 0.8), NoiseModel("gaussian", 0.0))
    arms = [ArmState(pulls=1, feedback_sum=0.7), ArmState(pulls=1, feedback_sum=0.7)]
    state = make_state(inst, arms)
    rec = step(state, PolicyKind.greedy(), DriftModel("linear", lipschitz=1.0),
               inst, MechanismOptions(project_feedback=False))
    assert rec.chosen == 0 and not rec.compensated and rec.compensation == 0.0


def rebuilt_view(state):
    """The policy view read afresh from state.arms: each arm's posted_mean and pulls."""
    return PolicyView(state.round, tuple(posted_mean(a) for a in state.arms),
                      tuple(a.pulls for a in state.arms))


@settings(max_examples=60, deadline=None)
@given(policy=st.sampled_from([PolicyKind.ucb(), PolicyKind.egreedy(4.0),
                               PolicyKind.thompson(), PolicyKind.greedy()]),
       project=st.booleans(),
       noise=st.sampled_from([NoiseModel("bernoulli"), NoiseModel("gaussian", 1.0)]),
       drift=st.sampled_from([DriftModel("linear", lipschitz=1.1),
                              DriftModel("clipped_linear", lipschitz=3.0, cap=0.2)]),
       means=st.lists(st.integers(1, 100), min_size=2, max_size=6, unique=True).map(
           lambda xs: tuple(x / 100 for x in xs)),
       rounds=st.integers(0, 300), seed=st.integers(0, 2**64 - 1))
def test_live_view_equals_the_view_rebuilt_from_the_arms(policy, project, noise, drift,
                                                         means, rounds, seed):
    inst = BanditInstance(means, noise)
    state = SimState.fresh(inst, NumpyRng(seed))
    with pytest.raises(WarmStartError):
        state.policy_view()
    options = MechanismOptions(project_feedback=project)
    warm_start(state, inst, options)
    assert state.policy_view() == rebuilt_view(state)
    for _ in range(rounds):
        step(state, policy, drift, inst, options)
        assert state.policy_view() == rebuilt_view(state)


def test_constructor_derives_the_live_view_from_the_arms():
    inst = BanditInstance((0.9, 0.8, 0.7), NoiseModel("gaussian", 0.0))
    arms = [ArmState(pulls=2, feedback_sum=1.5), ArmState(pulls=1, feedback_sum=0.25),
            ArmState(pulls=4, feedback_sum=3.0)]
    state = make_state(inst, arms)
    assert state.policy_view() == rebuilt_view(state) == PolicyView(8, (0.75, 0.25, 0.75),
                                                                     (2, 1, 4))
    arms[1].pulls = 0
    with pytest.raises(WarmStartError):
        make_state(inst, arms).policy_view()


def test_assigning_arms_rebuilds_the_live_view():
    inst = BanditInstance((0.9, 0.8, 0.7), NoiseModel("gaussian", 0.0))
    arms = [ArmState(pulls=2, feedback_sum=1.5), ArmState(pulls=1, feedback_sum=0.25),
            ArmState(pulls=4, feedback_sum=3.0)]
    state = SimState.fresh(inst, NumpyRng(0))
    state.arms = arms
    state.round = 8
    assert state.arms is arms
    assert state.policy_view() == make_state(inst, arms).policy_view() == rebuilt_view(state)
    replaced = dataclasses.replace(state, arms=[ArmState(pulls=1, feedback_sum=0.5)] * 3)
    assert replaced.policy_view() == PolicyView(8, (0.5, 0.5, 0.5), (1, 1, 1))
    assert state.policy_view() == PolicyView(8, (0.75, 0.25, 0.75), (2, 1, 4))


def test_an_arm_edited_in_place_is_followed_by_the_view():
    inst = BanditInstance((0.9, 0.8, 0.7), NoiseModel("gaussian", 0.0))
    arms = [ArmState(pulls=2, feedback_sum=1.5), ArmState(pulls=1, feedback_sum=0.25),
            ArmState(pulls=4, feedback_sum=3.0)]
    state = make_state(inst, arms)
    arms[1].pulls = 2
    arms[1].feedback_sum = 1.0
    assert state.policy_view() == PolicyView(8, (0.75, 0.5, 0.75), (2, 2, 4))
    arms[2].pulls = 0
    with pytest.raises(WarmStartError):
        state.policy_view()


@settings(max_examples=60, deadline=None)
@given(policy=st.sampled_from([PolicyKind.ucb(), PolicyKind.egreedy(4.0),
                               PolicyKind.thompson(), PolicyKind.greedy()]),
       project=st.booleans(),
       noise=st.sampled_from([NoiseModel("bernoulli"), NoiseModel("gaussian", 1.0)]),
       drift=st.sampled_from([DriftModel("linear", lipschitz=1.1),
                              DriftModel("clipped_linear", lipschitz=3.0, cap=0.2)]),
       means=st.lists(st.integers(1, 100), min_size=2, max_size=6, unique=True).map(
           lambda xs: tuple(x / 100 for x in xs)),
       rounds=st.integers(0, 300), seed=st.integers(0, 2**64 - 1))
def test_round_player_view_equals_the_view_derived_from_the_arms(policy, project, noise, drift,
                                                                 means, rounds, seed):
    # the player's own copy of the view is what select_arm sees each round
    inst = BanditInstance(means, noise)
    state = SimState.fresh(inst, NumpyRng(seed))
    options = MechanismOptions(project_feedback=project)
    seen = []
    inner = mechanism.select_arm

    def select(policy, view, rng):
        seen.append(view == state.policy_view())
        return inner(policy, view, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mechanism, "select_arm", select)
        records = warm_start(state, inst, options)
        play = mechanism.round_player(state, policy, drift, inst, options)
        records += [play() for _ in range(rounds)]
    assert seen == [True] * rounds
    # read_blocks reads a record's compensation as it stands: 0.0 on every unpaid round
    assert all(r.compensated or r.compensation == 0.0 for r in records)


# ---------------------------------------------------------------- run

def test_run_warm_start_only_at_minimal_horizon():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.ucb(), NO_DRIFT, MechanismOptions(), 9, 1)
    assert len(traj.records) == 9
    assert traj.cum_compensation == 0.0


def test_run_rejects_short_horizon():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    with pytest.raises(ValueError):
        run(inst, PolicyKind.ucb(), NO_DRIFT, MechanismOptions(), 8, 1)


def test_run_refuses_arm_sums_that_overflow():
    # unprojected egreedy pays for exploring an arm far below a drifted leader, and
    # l * x overflows; the sums stay non-finite, so the end of the run sees them
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    with pytest.raises(BanditError, match="run overflowed: arm 0 feedback_sum is inf"):
        run(inst, PolicyKind.egreedy(4.0), DriftModel("linear", lipschitz=1e300),
            MechanismOptions(project_feedback=False), 200, 1)


@pytest.mark.parametrize("field", ["feedback_sum", "drift_sum", "comp_sum"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_check_finite_names_the_first_non_finite_sum(field, value):
    arms = [ArmState(pulls=2, feedback_sum=1.0), ArmState(pulls=1, **{field: value}),
            ArmState(pulls=1, drift_sum=math.nan)]
    with pytest.raises(BanditError, match=f"run overflowed: arm 1 {field} is {value}"):
        check_finite(arms)
    check_finite(arms[:1])


@pytest.mark.parametrize("policy", [
    PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson(), PolicyKind.greedy(),
])
def test_run_deterministic_and_zero_drift_equals_linear_zero(policy):
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    opts = MechanismOptions()
    a = run(inst, policy, NO_DRIFT, opts, 300, 7)
    b = run(inst, policy, NO_DRIFT, opts, 300, 7)
    # clipped_linear at l = 0 is the other zero drift
    c = run(inst, policy, DriftModel("clipped_linear", lipschitz=0.0, cap=0.2), opts, 300, 7)
    assert a.records == b.records == c.records
    assert a.cum_regret == b.cum_regret == c.cum_regret


def test_run_seeds_the_stream_from_a_numpy_integer():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    drift = DriftModel("linear", lipschitz=1.1)
    a = run(inst, PolicyKind.thompson(), drift, MechanismOptions(), 300, 7)
    b = run(inst, PolicyKind.thompson(), drift, MechanismOptions(), 300, np.int64(7))
    assert a.arms == b.arms and a.records == b.records


def test_run_trajectory_length_and_round_accounting():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    state = run(inst, PolicyKind.thompson(), NO_DRIFT, MechanismOptions(), 250, 2)
    assert len(state.records) == 250
    assert [r.t for r in state.records] == list(range(1, 251))
    assert state.round - 1 == sum(a.pulls for a in state.arms) == 250


@pytest.mark.parametrize("policy,seed", [
    (PolicyKind.ucb(), 3), (PolicyKind.egreedy(4.0), 4), (PolicyKind.thompson(), 5),
])
def test_run_invariants(policy, seed):
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    drift = DriftModel("linear", lipschitz=1.1)
    state = run(inst, policy, drift, MechanismOptions(project_feedback=False), 600, seed)

    # compensation nonnegativity and pairing with disagreement
    for rec in state.records:
        assert rec.compensation >= 0.0
        assert rec.compensated == (rec.chosen != rec.greedy)
        if not rec.compensated:
            assert rec.compensation == 0.0 and rec.drift == 0.0
            assert rec.feedback == rec.raw_reward

    # compensation-frequency accounting
    assert sum(a.comp_count for a in state.arms) == sum(
        1 for r in state.records if r.compensated)

    # regret identity, exact
    expected = 0.0
    for gap, arm in zip(inst.gap_vector, state.arms):
        expected += gap * arm.pulls
    assert state.cum_regret == expected

    # cum compensation identity, exact
    total = 0.0
    for arm in state.arms:
        total += arm.comp_sum
    assert state.cum_compensation == total

    # per-arm counter sanity
    for arm in state.arms:
        assert arm.pulls >= arm.comp_count >= 0
        assert arm.drift_sum >= 0.0 and arm.comp_sum >= 0.0


def test_run_projection_invariant():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.egreedy(4.0), DriftModel("linear", lipschitz=1.1),
               MechanismOptions(project_feedback=True), 500, 9)
    assert all(0.0 <= r.feedback <= 1.0 for r in traj.records)


def test_run_projection_defaults_per_policy():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    eg = run(inst, PolicyKind.egreedy(4.0), NO_DRIFT, MechanismOptions(), 200, 9)
    assert all(0.0 <= r.feedback <= 1.0 for r in eg.records)  # on for egreedy
    ucb = run(inst, PolicyKind.ucb(), NO_DRIFT, MechanismOptions(), 200, 9)
    assert any(r.feedback > 1.0 or r.feedback < 0.0 for r in ucb.records)  # off for ucb


def test_run_with_decomposition_check():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=0.7),
               MechanismOptions(project_feedback=False), 400, 13)
    from driftbandit import posted_mean, true_empirical_mean

    for arm in traj.arms:
        lhs = posted_mean(arm)
        rhs = true_empirical_mean(arm) + arm.drift_sum / arm.pulls
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_run_curve_capture():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.ucb(), NO_DRIFT, MechanismOptions(), 95, 1)
    curve = curve_of(traj, 10)
    assert curve.rounds == [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]
    assert len(curve.rounds) == math.ceil(95 / 10)
    assert curve.regret[-1] == traj.cum_regret
    assert curve.compensation[-1] == traj.cum_compensation
    # each point is the cumulative columns of trajectory.csv's row t
    rows = {int(row[0]): row for row in trajectory_rows(traj)}
    for t, regret, comp in zip(*curve):
        assert (fmt_real(regret), fmt_real(comp)) == rows[t][-2:]
    with pytest.raises(ValueError, match="stride"):
        curve_of(traj, 0)


def test_run_curve_warm_start_points_read_the_pulls_so_far():
    # a point at t <= K reads the totals after t warm-start pulls, arms 0..t-1
    # once each: the in-order sum of the first t gaps, and no compensation
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    curve = curve_of(run(inst, PolicyKind.ucb(), NO_DRIFT, MechanismOptions(), 20, 1), 7)
    assert curve.rounds == [7, 14, 20]
    # 0 + 0.1 + 0.2 + 0.3 + 0.4 + 0.5 + 0.6, not all nine gaps (3.6)
    assert curve.regret[0] == 2.1
    assert curve.compensation[0] == 0.0
    warm = curve_of(run(inst, PolicyKind.ucb(), NO_DRIFT, MechanismOptions(), 9, 1), 1)
    assert warm.rounds == list(range(1, 10))
    assert warm.regret == [0.0, 0.09999999999999998, 0.30000000000000004,
                           0.6000000000000001, 1.0, 1.5, 2.1, 2.8, 3.5999999999999996]
    assert warm.compensation == [0.0] * 9


# ---------------------------------------------------------------- csv rows

def _per_row_totals(trajectory):
    """The per-row accounting the blocked writer replaced: one accounting_totals per round."""
    gaps = trajectory.gap_vector
    arms = [ArmState() for _ in gaps]
    totals = []
    for rec in trajectory.records:
        arm = arms[rec.chosen]
        arm.pulls += 1
        if rec.compensated:
            arm.comp_sum += rec.compensation
        totals.append(accounting_totals(gaps, arms))
    return totals


def test_trajectory_rows_cumulative_columns():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    for policy in (PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson()):
        for horizon in (9, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, BLOCK_ROUNDS + 1,
                        2 * BLOCK_ROUNDS + 3):
            traj = run(inst, policy, DriftModel("linear", lipschitz=1.1), MechanismOptions(),
                       horizon, 21)
            blocks = list(map(read_blocks(traj.gap_vector), record_blocks(traj)))
            assert [len(regret) for regret, _ in blocks] == [
                min(BLOCK_ROUNDS, horizon - start) for start in range(0, horizon, BLOCK_ROUNDS)]
            totals = [(reg, comp) for regret, compensation in blocks
                      for reg, comp in zip(regret.tolist(), compensation.tolist())]
            expected = _per_row_totals(traj)
            assert totals == expected
            assert expected[-1] == (traj.cum_regret, traj.cum_compensation)
            rows = list(trajectory_rows(traj))
            assert [(row[8], row[9]) for row in rows] == [
                (fmt_real(reg), fmt_real(comp)) for reg, comp in expected]


def test_read_blocks_running_state_equals_the_run():
    # the running state carries across blocks: the last block's last totals are the run's
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    for policy in (PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson()):
        traj = run(inst, policy, DriftModel("linear", lipschitz=1.1), MechanismOptions(),
                   BLOCK_ROUNDS + 40, 21)
        blocks = list(map(read_blocks(traj.gap_vector), record_blocks(traj)))
        assert [len(regret) for regret, _ in blocks] == [BLOCK_ROUNDS, 40]
        regret, compensation = blocks[-1]
        assert (regret[-1], compensation[-1]) == (traj.cum_regret,
                                                  traj.cum_compensation)


@pytest.mark.parametrize("policy", [PolicyKind.ucb(), PolicyKind.egreedy(4.0),
                                    PolicyKind.thompson()])
def test_read_blocks_gives_the_same_rows_however_the_records_are_cut(policy):
    # the carry row joins the blocks: cut into blocks of 1, 7 or BLOCK_ROUNDS records,
    # the reader gives the same cumulative totals, bit for bit
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, policy, DriftModel("linear", lipschitz=1.1), MechanismOptions(),
               2 * BLOCK_ROUNDS + 3, 21)

    def read_cut(size):
        read = read_blocks(traj.gap_vector)
        rows = []  # (cum_regret, cum_compensation) after each round
        for start in range(0, len(traj.records), size):
            regret, comp = read(traj.records[start:start + size])
            rows += zip(regret.tolist(), comp.tolist())
        return rows

    whole = read_cut(BLOCK_ROUNDS)
    assert len(whole) == len(traj.records)
    assert read_cut(1) == whole
    assert read_cut(7) == whole


@pytest.mark.parametrize("means, horizon", [
    (NINE_ARM_MEANS, 9), (NINE_ARM_MEANS, BLOCK_ROUNDS - 1), (NINE_ARM_MEANS, BLOCK_ROUNDS),
    (NINE_ARM_MEANS, BLOCK_ROUNDS + 1), (NINE_ARM_MEANS, 2 * BLOCK_ROUNDS + 3),
    # a warm start longer than a block is cut like any other rounds
    (tuple(0.9 - i / 2000 for i in range(BLOCK_ROUNDS + 6)), BLOCK_ROUNDS + 9),
], ids=["T=K", "T=1023", "T=1024", "T=1025", "T=2051", "K=1030"])
def test_run_hands_on_block_the_kept_records_cut_at_block_rounds(means, horizon):
    inst = BanditInstance(means, NoiseModel("gaussian", 1.0))
    args = (inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=1.1), MechanismOptions(),
            horizon, 21)
    kept = run(*args)
    for keep_records in (False, True):
        blocks = []
        streamed = run(*args, keep_records=keep_records, on_block=blocks.append)
        assert [len(block) for block in blocks] == [
            min(BLOCK_ROUNDS, horizon - start) for start in range(0, horizon, BLOCK_ROUNDS)]
        assert [r for block in blocks for r in block] == kept.records
        assert blocks == list(record_blocks(kept))
        assert streamed.records == (kept.records if keep_records else [])
        assert (streamed.round, streamed.arms) == (kept.round, kept.arms)


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


@given(st.floats() | st.integers(0, 2**64 - 1).map(_float_from_bits))
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
def test_real_format_formats_like_format_9g(x):
    assert REAL_FORMAT % x == format(x, ".9g") == fmt_real(x)


REALS = (st.floats() | st.integers(0, 2**64 - 1).map(_float_from_bits)
         | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324, 1e+22]))
# each template field's values, and the field string csv.writer is given for a value
FIELDS = {"%s": (st.sampled_from(POLICY_NAMES), str),
          "%d": (st.integers(-2**70, 2**70), str),
          REAL_FORMAT: (REALS, lambda x: format(x, ".9g"))}


@pytest.mark.parametrize("columns,template", [
    (TRAJECTORY_COLUMNS, TRAJECTORY_ROW), (SUMMARY_COLUMNS, SUMMARY_ROW),
    (SWEEP_COLUMNS, SWEEP_ROW), (CURVE_COLUMNS, CURVE_ROW)],
    ids=["trajectory", "summary", "sweep", "curves"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_write_csv_writes_the_bytes_of_csv_writer(columns, template, data):
    # no field of a template ever needs quoting, so csv.writer would write the same bytes
    kinds = template.split(",")
    assert len(kinds) == len(columns)
    row = st.tuples(*(FIELDS[kind][0] for kind in kinds))
    blocks = data.draw(st.lists(st.lists(row, max_size=4), max_size=3))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(columns)
    for block in blocks:
        writer.writerows([FIELDS[kind][1](v) for kind, v in zip(kinds, values)]
                         for values in block)
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "rows.csv", columns,
                  ([template % values for values in block] for block in blocks))
        assert (Path(tmp) / "rows.csv").read_bytes() == expected.getvalue().encode()


def test_write_trajectory_csv_peak_memory_is_bounded(tmp_path):
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=1.1),
               MechanismOptions(), 20000, 1)
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The whole trajectory formatted at once peaks near 5 MB; one block well under 1 MB.
    assert peak < 1_000_000


def test_trajectory_rows_requires_records():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.ucb(), NO_DRIFT, MechanismOptions(), 20, 1,
               keep_records=False)
    with pytest.raises(ValueError):
        list(trajectory_rows(traj))
