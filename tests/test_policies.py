import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from driftbandit import (
    PolicyKind,
    PolicyView,
    ScriptExhaustedError,
    ScriptedRng,
    egreedy_select,
    epsilon_schedule,
    greedy_choice,
    select_arm,
    thompson_sample,
    ucb_select,
)
from driftbandit.policies import (
    POLICIES,
    POLICY_NAMES,
    _argmax,
    egreedy_bonus_lanes,
    thompson_bonus_lanes,
    ucb_bonus_lanes,
)


def view(posted, pulls, t):
    return PolicyView(t, tuple(posted), tuple(pulls))


# ---------------------------------------------------------------- ucb_select

def test_ucb_select_bonus_dominates():
    v = view([0.9, 0.1], [100, 1], 100)
    # 0.9 + 0.303 vs 0.1 + 3.035
    assert ucb_select(v) == 1


def test_ucb_select_tie_breaks_low():
    assert ucb_select(view([0.5, 0.5, 0.5], [3, 3, 3], 10)) == 0


def test_ucb_select_argmax():
    assert ucb_select(view([0.5, 0.8, 0.5], [3, 3, 3], 10)) == 1


# rows with tied posted means and tied pulls, so ties decide most picks: a lane's
# posted + bonus must tie exactly where the scalar rule's scores tie
TIED_POSTED = np.array([[0.5, 0.5, 0.2], [0.3, 0.7, 0.7], [0.4, 0.4, 0.4], [0.9, 0.1, 0.9],
                        [0.6, 0.2, 0.6]])
TIED_PULLS = np.array([[3.0, 3.0, 3.0], [4.0, 2.0, 2.0], [2.0, 2.0, 2.0], [4.0, 1.0, 4.0],
                       [5.0, 1.0, 2.0]])


@pytest.mark.parametrize("t", [6, 40, 20000])
def test_ucb_bonus_lanes_picks_what_ucb_select_picks(t):
    bonus = np.full(TIED_POSTED.shape, math.nan)
    ucb_bonus_lanes(t, TIED_PULLS, None, None, bonus)
    for posted, pulls, row_bonus in zip(TIED_POSTED, TIED_PULLS, bonus):
        expected = ucb_select(view(posted.tolist(), pulls.astype(int).tolist(), t))
        assert int(np.argmax(posted + row_bonus)) == expected


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
    with pytest.raises(ScriptExhaustedError):  # both values drawn
        rng.uniform()


class _ScriptedUniforms:
    """A LaneStreams stand-in: each uniform(lanes) call returns the next scripted array,
    one value per lane drawing."""

    def __init__(self, lanes, *draws):
        self._lanes, self._draws = lanes, list(draws)

    def uniform(self, lanes=None):
        values = np.array(self._draws.pop(0))
        assert len(values) == (self._lanes if lanes is None else len(lanes))
        return values


def test_egreedy_bonus_lanes_picks_what_egreedy_select_picks():
    # tied posted means in every row; eps = min(1, 1.0 * 3 / 6) = 0.5
    posted = np.array([[0.5, 0.5, 0.2], [0.3, 0.7, 0.7], [0.4, 0.4, 0.4], [0.9, 0.1, 0.9]])
    pulls = np.array([[2.0, 3.0, 1.0], [1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [4.0, 1.0, 1.0]])
    c, t = 1.0, 6
    last = math.nextafter(1.0, 0.0)  # floor(u * 3) = 2, the last arm
    rounds = [([0.1, 0.7, 0.2, 0.49], [last, 0.34, 0.0]),  # lanes 0, 2 and 3 explore
              ([0.5, 0.9, 0.6, 0.99], None)]  # no lane explores
    bonus = np.zeros((4, 3))
    for coins, arms in rounds:
        draws = _ScriptedUniforms(4, coins, *([arms] if arms else []))
        egreedy_bonus_lanes(t, pulls, c, draws, bonus)
        script = iter(arms or [])
        for row, coin in enumerate(coins):
            rng = ScriptedRng([coin] + ([next(script)] if coin < 0.5 else []))
            expected = egreedy_select(view(posted[row], pulls[row], t), c, rng)
            assert int(np.argmax(posted[row] + bonus[row])) == expected
    assert bonus.tolist() == np.zeros((4, 3)).tolist()  # the exploring round left no inf


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
    with pytest.raises(ScriptExhaustedError):  # all three values drawn
        rng.normal()


class _ScriptedNormals:
    """A LaneStreams stand-in: normals(n) returns the next scripted (lanes, n) array."""

    def __init__(self, *draws):
        self._draws = [np.array(d) for d in draws]

    def normals(self, n):
        values = self._draws.pop(0)
        assert values.shape[1] == n
        return values


def test_thompson_bonus_lanes_picks_what_thompson_sample_picks():
    rounds = [np.zeros(TIED_POSTED.shape),  # ties of posted and pulls stay ties
              np.array([[0.3, 0.3, -1.0], [2.0, 0.5, 0.5], [-0.2, -0.2, -0.2],
                        [1.0, -3.0, 1.0], [0.0, 0.5, -0.4]]),
              np.array([[-1.5, 0.7, 2.2], [0.1, -0.4, 1.3], [0.9, -0.6, 0.9],
                        [-0.5, 0.0, 0.5], [1.2, 1.2, 1.2]])]
    draws = _ScriptedNormals(*rounds)
    bonus = np.full(TIED_POSTED.shape, math.nan)
    for t, normals in enumerate(rounds, start=10):
        thompson_bonus_lanes(t, TIED_PULLS, None, draws, bonus)
        for posted, pulls, row_bonus, z in zip(TIED_POSTED, TIED_PULLS, bonus, normals):
            rng = ScriptedRng(z)
            expected = thompson_sample(view(posted.tolist(), pulls.astype(int).tolist(), t), rng)
            with pytest.raises(ScriptExhaustedError):  # one normal per arm, all drawn
                rng.normal()
            assert int(np.argmax(posted + row_bonus)) == expected


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_every_lane_form_sees_the_round_and_the_pulls_only(name):
    # the engine calls every lane form alike, with no view of the posted means
    parameters = inspect.signature(POLICIES[name].lane_form).parameters
    assert list(parameters) == ["t", "pulls", "c", "draws", "bonus"]


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
