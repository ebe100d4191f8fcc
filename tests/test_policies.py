import math

import pytest
from hypothesis import example, given, strategies as st

from driftbandit import (
    PolicyKind,
    PolicyView,
    ScriptedRng,
    egreedy_select,
    epsilon_schedule,
    greedy_choice,
    select_arm,
    thompson_sample,
    ucb_index,
    ucb_select,
)
from driftbandit.policies import POLICIES, POLICY_NAMES, _argmax


def view(posted, pulls, t):
    return PolicyView(t, tuple(posted), tuple(pulls))


# ---------------------------------------------------------------- ucb_index

def test_ucb_index_values():
    assert ucb_index(0.5, 4, 100) == pytest.approx(2.0174271293851467, abs=1e-5)
    assert ucb_index(0.5, 1, 1) == 0.5  # ln 1 = 0
    # bonus alone at ln t = 1 (t is an integer round count, so check the formula term)
    assert math.sqrt(2 * 1.0 / 100) == pytest.approx(0.1414213562, abs=1e-5)


def test_ucb_index_rejects_zero_pulls():
    with pytest.raises(ValueError):
        ucb_index(0.5, 0, 10)
    with pytest.raises(ValueError, match="t >= 1"):
        ucb_index(0.5, 1, 0)


@given(
    posted=st.floats(min_value=-5, max_value=5),
    pulls=st.integers(min_value=1, max_value=10**6),
    t=st.integers(min_value=1, max_value=10**6),
)
def test_ucb_index_monotonicity(posted, pulls, t):
    base = ucb_index(posted, pulls, t)
    if t > 1:
        assert ucb_index(posted, pulls + 1, t) < base  # strictly decreasing in pulls
    assert ucb_index(posted, pulls, t + 1) >= base  # non-decreasing in t


# ---------------------------------------------------------------- ucb_select

def test_ucb_select_bonus_dominates():
    v = view([0.9, 0.1], [100, 1], 100)
    # 0.9 + 0.303 vs 0.1 + 3.035
    assert ucb_select(v) == 1


def test_ucb_select_tie_breaks_low():
    assert ucb_select(view([0.5, 0.5, 0.5], [3, 3, 3], 10)) == 0


def test_ucb_select_argmax():
    assert ucb_select(view([0.5, 0.8, 0.5], [3, 3, 3], 10)) == 1


# ---------------------------------------------------------------- epsilon schedule

def test_epsilon_schedule_values():
    assert epsilon_schedule(4, 9, 1) == 1.0
    assert epsilon_schedule(4, 9, 72) == pytest.approx(0.5)
    assert epsilon_schedule(4, 9, 20000) == pytest.approx(0.0018)


@given(
    c=st.floats(min_value=0.01, max_value=50),
    k=st.integers(min_value=2, max_value=20),
    horizon=st.integers(min_value=1, max_value=3000),
)
def test_epsilon_schedule_sum_bound(c, k, horizon):
    total = sum(epsilon_schedule(c, k, t) for t in range(1, horizon + 1))
    assert total <= c * k * (math.log(horizon) + 1) * (1 + 1e-12)


# ---------------------------------------------------------------- egreedy

def test_egreedy_pure_exploitation():
    v = view([0.2, 0.8], [5, 5], 10**9)  # eps ~ 0
    assert egreedy_select(v, 1e-9, ScriptedRng([0.99])) == 1


def test_egreedy_scripted_uniform_maps_to_arm():
    v = view([0.5] * 9, [1] * 9, 1)  # t <= cK so eps = 1
    # coin 0.0 -> explore; arm draw 0.6 -> floor(0.6 * 9) = 5
    assert egreedy_select(v, 4.0, ScriptedRng([0.0, 0.6])) == 5


def test_egreedy_exploit_tie_breaks_low():
    v = view([0.7, 0.7], [4, 4], 10**9)
    assert egreedy_select(v, 1e-9, ScriptedRng([0.99])) == 0


def test_egreedy_draw_order_coin_then_arm():
    v = view([0.2, 0.8], [5, 5], 1)  # eps = 1, always explores
    rng = ScriptedRng([0.3, 0.0])
    assert egreedy_select(v, 4.0, rng) == 0
    assert rng.consumed == 2


# ---------------------------------------------------------------- thompson

def test_thompson_zero_scripted_matches_greedy():
    v = view([0.6, 0.4], [3, 7], 11)
    assert thompson_sample(v, ScriptedRng([0.0, 0.0])) == 0 == greedy_choice(v)


def test_thompson_scale_shrinks_with_pulls():
    v = view([0.5, 0.1], [3, 1], 5)
    # theta_0 = 0.5 + 1/sqrt(4) = 1.0
    rng = ScriptedRng([1.0, 0.0])
    assert thompson_sample(v, rng) == 0
    assert 0.5 + 1.0 / math.sqrt(3 + 1) == pytest.approx(1.0)


def test_thompson_warm_started_arm_wins_on_spread():
    v = view([0.5, 0.5], [3, 1], 6)
    # theta = [0.5, 0.5 + 1/sqrt(2) ~ 1.207]
    assert thompson_sample(v, ScriptedRng([0.0, 1.0])) == 1


def test_thompson_consumes_one_normal_per_arm_in_order():
    v = view([0.5, 0.5, 0.5], [1, 1, 1], 4)
    rng = ScriptedRng([0.0, 0.0, 5.0])
    assert thompson_sample(v, rng) == 2
    assert rng.consumed == 3


# ---------------------------------------------------------------- greedy

def test_greedy_argmax():
    assert greedy_choice(view([0.3, 0.9, 0.7], [1, 1, 1], 4)) == 1


def test_greedy_all_equal_tie_breaks_low():
    assert greedy_choice(view([0.5, 0.5, 0.5], [1, 1, 1], 4)) == 0


def test_greedy_strict_comparison_no_epsilon():
    assert greedy_choice(view([0.9, 0.9 - 1e-12], [1, 1], 4)) == 0


# ---------------------------------------------------------------- shift invariance

@given(shift=st.floats(min_value=-3, max_value=3))
def test_argmax_shift_invariance(shift):
    posted = (0.41, 0.73, 0.55, 0.73)
    pulls = (4, 2, 9, 2)
    t = 37
    v0 = view(posted, pulls, t)
    v1 = view([p + shift for p in posted], pulls, t)
    assert ucb_select(v0) == ucb_select(v1)
    assert greedy_choice(v0) == greedy_choice(v1)
    zs = [0.3, -1.2, 0.8, 0.1]
    assert thompson_sample(v0, ScriptedRng(zs)) == thompson_sample(v1, ScriptedRng(zs))


def _argmax_loop(scores):
    """The first-maximum loop _argmax replaced, kept as its reference."""
    best, bv = 0, scores[0]
    for i in range(1, len(scores)):
        if scores[i] > bv:
            best, bv = i, scores[i]
    return best


# few distinct values, so ties are common; signed zeros, infinities and nan included
SCORES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -0.5, 1.0]) | st.floats()


@given(st.lists(SCORES, min_size=1, max_size=9))
@example([0.5, 0.9, 0.9])
@example([-0.0, 0.0])
@example([0.0, -0.0])
@example([-math.inf, -math.inf])
@example([1.0, math.inf, math.inf])
@example([math.nan, 1.0])
def test_argmax_is_the_first_maximum_loop(scores):
    assert _argmax(scores) == _argmax(tuple(scores)) == _argmax_loop(scores)


# ---------------------------------------------------------------- PolicyKind

def test_policy_kind_validation():
    with pytest.raises(ValueError):
        PolicyKind("egreedy")  # c required
    with pytest.raises(ValueError):
        PolicyKind("egreedy", -1.0)
    with pytest.raises(ValueError):
        PolicyKind("ucb", 3.0)  # c meaningless
    with pytest.raises(ValueError):
        PolicyKind("softmax")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            PolicyKind("egreedy", bad)
    assert PolicyKind.egreedy(4).c == 4.0


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_every_policy_name_builds_a_policy_kind(name):
    policy = PolicyKind(name, 4.0 if POLICIES[name].takes_c else None)
    assert select_arm(policy, view([0.3, 0.9], [1, 1], 3),
                      ScriptedRng([0.99, 0.0, 0.0])) in (0, 1)


def test_select_arm_dispatch():
    v = view([0.3, 0.9], [1, 1], 3)
    assert select_arm(PolicyKind.greedy(), v, ScriptedRng([])) == 1
    assert select_arm(PolicyKind.ucb(), v, ScriptedRng([])) == 1
    assert select_arm(PolicyKind.thompson(), v, ScriptedRng([0.0, 0.0])) == 1
    assert select_arm(PolicyKind.egreedy(1e-9), v, ScriptedRng([0.99])) == 1
