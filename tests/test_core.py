import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftbandit import (
    ArmState,
    BanditInstance,
    BoundInputs,
    DriftModel,
    NoiseModel,
    NonUniqueOptimumError,
    NumpyRng,
    ScriptedRng,
    SimState,
    UndefinedStatisticError,
    WarmStartError,
    drift_apply,
    gaps,
    posted_mean,
    sample_reward,
    true_empirical_mean,
)
from driftbandit.core import DRIFT_KINDS

NINE_ARM_MEANS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)


# ---------------------------------------------------------------- drift

def test_drift_linear_reference_coefficient():
    model = DriftModel("linear", lipschitz=1.1)
    assert drift_apply(model, 0.2) == pytest.approx(0.22, abs=1e-12)


@pytest.mark.parametrize("model", [
    DriftModel("linear", lipschitz=0.0),
    DriftModel("linear", lipschitz=1.1),
    DriftModel("clipped_linear", lipschitz=2.0, cap=0.1),
])
def test_drift_vanishes_at_zero(model):
    assert drift_apply(model, 0.0) == 0.0


def test_drift_clipped():
    model = DriftModel("clipped_linear", lipschitz=2.0, cap=0.1)
    assert drift_apply(model, 0.3) == 0.1  # min(0.6, 0.1)


def test_drift_rejects_negative_compensation():
    with pytest.raises(ValueError):
        drift_apply(DriftModel("linear", lipschitz=1.0), -0.01)


def test_drift_model_validation():
    with pytest.raises(ValueError):
        DriftModel("linear", lipschitz=-0.5)
    with pytest.raises(ValueError):
        DriftModel("clipped_linear", lipschitz=1.0)  # cap missing
    with pytest.raises(ValueError):
        DriftModel("linear", lipschitz=1.0, cap=0.5)  # cap meaningless
    with pytest.raises(ValueError):
        DriftModel("sublinear", lipschitz=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            DriftModel("linear", lipschitz=bad)
        with pytest.raises(ValueError, match="finite"):
            DriftModel("clipped_linear", lipschitz=1.0, cap=bad)


@given(
    x=st.floats(min_value=0, max_value=1e6),
    y=st.floats(min_value=0, max_value=1e6),
    lipschitz=st.floats(min_value=0, max_value=100),
    cap=st.floats(min_value=0, max_value=100),
    kind=st.sampled_from(DRIFT_KINDS),
)
def test_drift_axioms(x, y, lipschitz, cap, kind):
    model = DriftModel(kind, lipschitz=lipschitz, cap=cap if kind == "clipped_linear" else None)
    fx, fy = drift_apply(model, x), drift_apply(model, y)
    assert drift_apply(model, 0.0) == 0.0
    if x <= y:
        assert fx <= fy
    # Lipschitz with the declared constant (round-off guard only)
    assert abs(fx - fy) <= lipschitz * abs(x - y) * (1 + 1e-12) + 1e-15


# ---------------------------------------------------------------- arm statistics

def test_posted_mean_by_hand():
    assert posted_mean(ArmState(pulls=4, feedback_sum=2.2)) == pytest.approx(0.55)


def test_posted_mean_single_unbiased_sample():
    arm = ArmState(pulls=1, feedback_sum=0.9, drift_sum=0.0)
    assert posted_mean(arm) == 0.9
    assert true_empirical_mean(arm) == 0.9


def test_posted_mean_decomposition_by_hand():
    arm = ArmState(pulls=2, feedback_sum=1.2, drift_sum=0.2)
    assert posted_mean(arm) == pytest.approx(0.6)
    assert true_empirical_mean(arm) == pytest.approx(0.5)
    assert arm.drift_sum / arm.pulls == pytest.approx(0.1)


def test_true_empirical_mean_by_hand():
    assert true_empirical_mean(ArmState(pulls=3, feedback_sum=2.1, drift_sum=0.6)) == pytest.approx(0.5)


def test_undefined_statistics_at_zero_pulls():
    with pytest.raises(UndefinedStatisticError):
        posted_mean(ArmState())
    with pytest.raises(UndefinedStatisticError):
        true_empirical_mean(ArmState())


@given(
    pulls=st.integers(min_value=1, max_value=10**6),
    feedback_sum=st.floats(min_value=-1e6, max_value=1e6),
    drift_sum=st.floats(min_value=0, max_value=1e6),
)
def test_decomposition_identity(pulls, feedback_sum, drift_sum):
    arm = ArmState(pulls=pulls, feedback_sum=feedback_sum, drift_sum=drift_sum)
    lhs = posted_mean(arm)
    rhs = true_empirical_mean(arm) + arm.drift_sum / arm.pulls
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------- environment

def bound_inputs(gap_vector):
    """BoundInputs on these gaps; its delta_min is the one place that computes the smallest
    positive gap."""
    return BoundInputs(horizon=2, lipschitz=0.0, gaps=gap_vector, delta_lower=1.0, c=1.0)


def test_gaps_nine_arm_ladder():
    vec = gaps(NINE_ARM_MEANS)
    assert vec == pytest.approx(tuple(0.1 * i for i in range(9)), abs=1e-12)
    assert bound_inputs(vec).delta_min == pytest.approx(0.1)


def test_gaps_two_arms():
    vec = gaps((1.0, 0.0))
    assert vec == (0.0, 1.0)
    assert bound_inputs(vec).delta_min == 1.0


def test_gaps_rejects_tied_optimum():
    with pytest.raises(NonUniqueOptimumError):
        gaps((0.5, 0.5))
    with pytest.raises(NonUniqueOptimumError):
        BanditInstance((0.5, 0.5), NoiseModel("bernoulli"))


def test_gaps_best_arm_any_index():
    inst = BanditInstance((0.2, 0.9, 0.4), NoiseModel("bernoulli"))
    assert inst.best_arm == 1
    assert inst.gap_vector[1] == 0.0
    assert bound_inputs(inst.gap_vector).delta_min == pytest.approx(0.5)


def test_instance_validation():
    with pytest.raises(ValueError):
        BanditInstance((0.9,), NoiseModel("bernoulli"))
    with pytest.raises(ValueError):
        BanditInstance((0.9, 1.5), NoiseModel("bernoulli"))
    with pytest.raises(ValueError):
        BanditInstance((0.9, 0.0), NoiseModel("bernoulli"))
    with pytest.raises(ValueError):
        NoiseModel("poisson")
    with pytest.raises(ValueError):
        NoiseModel("gaussian", sigma=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel("gaussian", sigma=bad)


# ---------------------------------------------------------------- rewards

def test_bernoulli_degenerate_arm():
    inst = BanditInstance((1.0, 0.5), NoiseModel("bernoulli"))
    rng = NumpyRng(0)
    assert all(sample_reward(inst, 0, rng) == 1.0 for _ in range(100))


def test_gaussian_zero_noise():
    inst = BanditInstance((0.7, 0.5), NoiseModel("gaussian", 0.0))
    assert sample_reward(inst, 0, NumpyRng(0)) == 0.7


def test_gaussian_scripted_draw():
    inst = BanditInstance((0.9, 0.5), NoiseModel("gaussian", 1.0))
    assert sample_reward(inst, 0, ScriptedRng([-0.5])) == pytest.approx(0.4)


def test_scripted_uniform_refuses_one():
    # what lets egreedy's arm int(u * K) go unclamped: every uniform is below 1
    rng = ScriptedRng([math.nextafter(1.0, 0.0), 1.0])
    assert rng.uniform() < 1.0
    with pytest.raises(ValueError, match=r"scripted uniform draw 1.0 outside \[0, 1\)"):
        rng.uniform()


def test_bernoulli_support_and_mean():
    inst = BanditInstance((0.9, 0.3), NoiseModel("bernoulli"))
    rng = NumpyRng(42)
    n = 10**5
    draws = [sample_reward(inst, 1, rng) for _ in range(n)]
    assert set(draws) <= {0.0, 1.0}
    mu = 0.3
    half_width = 3 * math.sqrt(mu * (1 - mu) / n)
    assert abs(sum(draws) / n - mu) <= half_width


# ---------------------------------------------------------------- streams

@pytest.mark.parametrize("seed", [0, 20260809, 2**64 - 1])
def test_numpy_rng_returns_the_generator_blocks_in_the_order_they_ran_out(seed):
    # The seed->stream mapping, pinned against numpy itself: a draw that finds its
    # kind's 1024-value block used up takes the next block of that kind from the one
    # generator, random(1024) or standard_normal(1024).  The first run ends exactly at
    # a block's end, so a stream that refilled as a block ran out, not at the next
    # draw, would take the second uniform block before the first normal one.
    runs = [("u", 1024), ("n", 1500), ("u", 1000), ("n", 900), ("u", 700)]
    # draws 1, 1025 and 2049 of each kind find its blocks used up: u n n u n u
    gen = np.random.default_rng(seed)
    u1, n1, n2, u2, n3, u3 = (gen.random(1024) if kind == "u" else gen.standard_normal(1024)
                              for kind in "unnunu")
    expected = {"u": np.concatenate((u1, u2, u3)).tolist(),
                "n": np.concatenate((n1, n2, n3)).tolist()}
    rng = NumpyRng(seed)
    got = {"u": [], "n": []}
    for kind, n in runs:
        draw = rng.uniform if kind == "u" else rng.normal
        got[kind] += [draw() for _ in range(n)]
    assert got == {kind: expected[kind][:len(values)] for kind, values in got.items()}
    assert (len(got["u"]), len(got["n"])) == (2724, 2400)  # three blocks of each kind


# ---------------------------------------------------------------- state

def test_fresh_state_counters():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    state = SimState.fresh(inst, NumpyRng(0))
    assert state.round == 1
    assert state.cum_regret == 0.0
    assert state.cum_compensation == 0.0
    with pytest.raises(WarmStartError):
        state.policy_view()


def test_policy_view_exposes_only_posted_and_pulls():
    from driftbandit import PolicyView

    assert PolicyView._fields == ("t", "posted", "pulls")
