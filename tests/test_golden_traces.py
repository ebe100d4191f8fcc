"""Hand-computed golden trajectories, matched bit-for-bit.

Environment: two arms with true means (0.6, 0.5), zero-variance gaussian
noise (every raw reward equals the pulled arm's mean), linear drift with
coefficient 1.0, horizon 6.  The expected records below are derived by
applying the loop rules by hand, writing each float operation in the same
order the mechanism performs it:

  posted_i = feedback_sum_i / pulls_i            (start of round)
  x = posted[greedy] - posted[chosen]            (only when they differ)
  b = 1.0 * x
  feedback = reward + b   (clipped to [0,1] when projection is on)
  feedback_sum_chosen += feedback

Scripted draw order per round: policy draws first (egreedy: coin, then arm
if exploring; thompson: one normal per arm in index order), then one
environment draw for the reward.
"""

import math

import pytest

from driftbandit import (
    BanditInstance,
    DriftModel,
    MechanismOptions,
    NoiseModel,
    PolicyKind,
    ScriptedRng,
    run,
)

MEANS = (0.6, 0.5)
GAP1 = 0.6 - 0.5  # gap of arm 1 as the instance computes it
INST = BanditInstance(MEANS, NoiseModel("gaussian", 0.0))
DRIFT = DriftModel("linear", lipschitz=1.0)


def rec(t, chosen, greedy, compensated, compensation, drift, raw, feedback):
    regret_inc = 0.0 if chosen == 0 else GAP1
    return (t, chosen, greedy, compensated, compensation, drift, raw, feedback, regret_inc)


def as_tuples(records):
    return [(r.t, r.chosen, r.greedy, r.compensated, r.compensation, r.drift,
             r.raw_reward, r.feedback, r.regret_increment) for r in records]


def expected_ucb():
    # Warm start: t=1 pulls arm 0, t=2 pulls arm 1.
    s0, n0 = 0.6, 1
    s1, n1 = 0.5, 1
    out = [rec(1, 0, 0, False, 0.0, 0.0, 0.6, 0.6),
           rec(2, 1, 1, False, 0.0, 0.0, 0.5, 0.5)]
    # t=3: bonuses equal (both pulls 1), posted 0.6 > 0.5 -> arm 0; greedy 0.
    out.append(rec(3, 0, 0, False, 0.0, 0.0, 0.6, 0.6))
    s0, n0 = s0 + 0.6, 2
    # t=4: 0.6+sqrt(2ln4/2)=1.777 < 0.5+sqrt(2ln4/1)=2.165 -> arm 1; greedy 0.
    x = s0 / n0 - s1 / n1
    b = 1.0 * x
    fb = 0.5 + b
    out.append(rec(4, 1, 0, True, x, b, 0.5, fb))
    s1, n1 = s1 + fb, 2
    comp1 = x
    # t=5: 0.6+sqrt(2ln5/2)=1.869 > 0.55+sqrt(2ln5/2)=1.819 -> arm 0.
    out.append(rec(5, 0, 0, False, 0.0, 0.0, 0.6, 0.6))
    s0, n0 = s0 + 0.6, 3
    # t=6: 0.6+sqrt(2ln6/3)=1.693 < 0.55+sqrt(2ln6/2)=1.889 -> arm 1; greedy 0.
    x = s0 / n0 - s1 / n1
    b = 1.0 * x
    fb = 0.5 + b
    out.append(rec(6, 1, 0, True, x, b, 0.5, fb))
    s1, n1 = s1 + fb, 3
    comp1 += x
    final = {"s": (s0, s1), "n": (n0, n1), "comp1": comp1}
    return out, final


def test_ucb_golden_trace():
    expected, final = expected_ucb()
    traj = run(INST, PolicyKind.ucb(), DRIFT, MechanismOptions(), 6,
               ScriptedRng([0.0] * 6))
    assert as_tuples(traj.records) == expected
    state = traj.final
    assert (state.arms[0].feedback_sum, state.arms[1].feedback_sum) == final["s"]
    assert (state.arms[0].pulls, state.arms[1].pulls) == final["n"]
    assert state.arms[1].comp_count == 2
    assert state.arms[1].comp_sum == final["comp1"]
    assert state.cum_compensation == 0.0 + final["comp1"]
    assert state.cum_regret == 0.0 * 3 + GAP1 * 3


def test_egreedy_golden_trace():
    # c=1: eps_t = min(1, 2/t); explore iff coin < eps_t; arm = floor(u*2).
    # Projection is on by default for egreedy; no value leaves [0,1] here,
    # so clipping is the identity.
    s0, s1 = 0.6, 0.5
    expected = [rec(1, 0, 0, False, 0.0, 0.0, 0.6, 0.6),
                rec(2, 1, 1, False, 0.0, 0.0, 0.5, 0.5)]
    # t=3: eps=2/3, coin 0.9 -> exploit argmax(0.6, 0.5) = 0.
    expected.append(rec(3, 0, 0, False, 0.0, 0.0, 0.6, 0.6))
    s0 = s0 + 0.6
    # t=4: eps=1/2, coin 0.1 -> explore; u=0.6 -> arm 1; greedy 0.
    x = s0 / 2 - s1 / 1
    b = 1.0 * x
    fb = min(1.0, max(0.0, 0.5 + b))
    expected.append(rec(4, 1, 0, True, x, b, 0.5, fb))
    s1 = s1 + fb
    # t=5: eps=2/5, coin 0.9 -> exploit argmax(0.6, ~0.55) = 0.
    expected.append(rec(5, 0, 0, False, 0.0, 0.0, 0.6, 0.6))
    s0 = s0 + 0.6
    # t=6: eps=1/3, coin 0.0 -> explore; u=0.0 -> arm 0 = greedy: no pay.
    expected.append(rec(6, 0, 0, False, 0.0, 0.0, 0.6, 0.6))
    s0 = s0 + 0.6

    draws = [0.0, 0.0,          # warm rewards
             0.9, 0.0,          # t=3 coin, reward
             0.1, 0.6, 0.0,     # t=4 coin, arm, reward
             0.9, 0.0,          # t=5 coin, reward
             0.0, 0.0, 0.0]     # t=6 coin, arm, reward
    traj = run(INST, PolicyKind.egreedy(1.0), DRIFT, MechanismOptions(), 6,
               ScriptedRng(draws))
    assert as_tuples(traj.records) == expected
    assert traj.final.arms[0].feedback_sum == s0
    assert traj.final.arms[1].feedback_sum == s1
    assert traj.final.arms[1].comp_count == 1


def test_thompson_golden_trace():
    # theta_i = posted_i + z_i / sqrt(pulls_i + 1), normals in arm order.
    s0, s1 = 0.6, 0.5
    expected = [rec(1, 0, 0, False, 0.0, 0.0, 0.6, 0.6),
                rec(2, 1, 1, False, 0.0, 0.0, 0.5, 0.5)]
    # t=3: z=(0,0) -> theta = posted -> arm 0.
    expected.append(rec(3, 0, 0, False, 0.0, 0.0, 0.6, 0.6))
    s0 = s0 + 0.6
    # t=4: z=(0,1): theta1 = 0.5 + 1/sqrt(2) = 1.207 > 0.6 -> arm 1; greedy 0.
    assert 0.5 + 1.0 / math.sqrt(2) > 0.6
    x = s0 / 2 - s1 / 1
    b = 1.0 * x
    fb = 0.5 + b
    expected.append(rec(4, 1, 0, True, x, b, 0.5, fb))
    s1 = s1 + fb
    # t=5: z=(0,0) -> theta = posted = (0.6, ~0.55) -> arm 0.
    expected.append(rec(5, 0, 0, False, 0.0, 0.0, 0.6, 0.6))
    s0 = s0 + 0.6
    # t=6: z=(-2,0): theta0 = 0.6 - 2/sqrt(4) = -0.4 < theta1 ~ 0.55 -> arm 1.
    x = s0 / 3 - s1 / 2
    b = 1.0 * x
    fb = 0.5 + b
    expected.append(rec(6, 1, 0, True, x, b, 0.5, fb))
    s1 = s1 + fb

    draws = [0.0, 0.0,            # warm rewards
             0.0, 0.0, 0.0,       # t=3 z0 z1 reward
             0.0, 1.0, 0.0,       # t=4
             0.0, 0.0, 0.0,       # t=5
             -2.0, 0.0, 0.0]      # t=6
    traj = run(INST, PolicyKind.thompson(), DRIFT, MechanismOptions(), 6,
               ScriptedRng(draws))
    assert as_tuples(traj.records) == expected
    assert traj.final.arms[1].comp_count == 2
    assert traj.final.arms[1].feedback_sum == s1


def test_scripted_stream_exhaustion_reports_supply():
    from driftbandit import ScriptExhaustedError

    with pytest.raises(ScriptExhaustedError) as err:
        run(INST, PolicyKind.ucb(), DRIFT, MechanismOptions(), 6, ScriptedRng([0.0] * 3))
    assert "3 values were supplied" in str(err.value)
    assert "draw 4" in str(err.value)
