import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from driftbandit import (
    ArmState,
    BanditInstance,
    BoundInputs,
    DiagnosticError,
    DriftModel,
    MechanismOptions,
    NoiseModel,
    PolicyKind,
    RoundRecord,
    check_c_condition,
    comp_frequency_bound,
    egreedy_comp_bound,
    egreedy_regret_bound,
    min_pairwise_gap,
    run,
    summarize,
    thompson_comp_bound,
    thompson_regret_bound,
    ucb_comp_bound,
    ucb_regret_bound,
)
from driftbandit.analysis import (
    egreedy_arm_slope,
    thompson_pull_drift_term,
    thompson_pull_log_term,
    ucb_drift_check,
)
from driftbandit.mechanism import BLOCK_ROUNDS

NINE_ARM_MEANS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)

# The bound evaluators are pure formulas; the frozen oracle examples use the
# real horizons T = e and T = e^3 (math.log returns exactly 1.0 and 3.0 for
# them), matching the hand calculations.

T_E = math.e  # ln T = 1
T_E3 = math.e ** 3  # ln T = 3


def inputs(horizon=3, lipschitz=0.0, gaps=(0.0, 0.5), delta_lower=0.5, c=72.0):
    return BoundInputs(horizon=horizon, lipschitz=lipschitz, gaps=tuple(gaps),
                       delta_lower=delta_lower, c=c)


# ---------------------------------------------------------------- ucb bounds

def test_ucb_regret_bound_oracle():
    # 8(l+1)^2 ln T / 0.5 + 0.5 * 1 * pi^2 / 3 at ln T = 1
    assert ucb_regret_bound(inputs(lipschitz=0.0, horizon=T_E)) == pytest.approx(17.644934066848226, abs=1e-3)
    assert ucb_regret_bound(inputs(lipschitz=1.0, horizon=T_E)) == pytest.approx(65.64493406684822, abs=1e-3)


def test_ucb_regret_bound_log_term_vanishes():
    # subtracting the log term leaves only the per-arm constant (what the
    # bound reduces to at ln T = 0; T = 1 itself is rejected by validation)
    log_term = 8.0 * 1.0 * 1.0 / 0.5
    assert (ucb_regret_bound(inputs(horizon=T_E)) - log_term
            == pytest.approx(0.5 * 1 * math.pi ** 2 / 3))
    with pytest.raises(ValueError):
        inputs(horizon=1)


def test_ucb_comp_bound_oracle():
    # 32 + 32 + 4 pi sqrt(2/3) at ln T = 1
    assert ucb_comp_bound(inputs(horizon=T_E)) == pytest.approx(74.26039864129491, abs=1e-2)


def test_ucb_comp_bound_linear_in_lp1():
    log_terms_l0 = ucb_comp_bound(inputs(lipschitz=0.0, horizon=T_E)) - 4 * math.pi * math.sqrt(2 / 3)
    log_terms_l1 = ucb_comp_bound(inputs(lipschitz=1.0, horizon=T_E)) - 4 * math.pi * math.sqrt(2 / 3)
    assert log_terms_l1 == pytest.approx(2 * log_terms_l0)


# ---------------------------------------------------------------- egreedy bounds

def test_egreedy_arm_slope_no_drift():
    assert egreedy_arm_slope(72.0, 0.0, 0.5) == pytest.approx(1.5 + 18 * 72 / 0.25)


def test_egreedy_regret_bound_oracle():
    # 72 * (1.5 + 5184) * 2 + 72 * (2 + pi^2/6) at ln T = 1
    assert egreedy_regret_bound(inputs(c=72.0, horizon=T_E)) == pytest.approx(746974.435252813, abs=1.0)


@given(l1=st.floats(min_value=0, max_value=5), dl=st.floats(min_value=0.01, max_value=5))
def test_egreedy_arm_slope_monotone_in_l(l1, dl):
    assert egreedy_arm_slope(4.0, l1 + dl, 0.3) > egreedy_arm_slope(4.0, l1, 0.3)


def test_egreedy_comp_bound_oracle():
    # max(l,1)(c + sqrt(3c)) K (ln T + 1); frozen from an independent calculator
    b = BoundInputs(horizon=20000, lipschitz=1.1, gaps=tuple(0.1 * i for i in range(9)),
                    delta_lower=0.1, c=4.0)
    assert egreedy_comp_bound(b) == pytest.approx(805.7089166100412, abs=0.5)


def test_egreedy_comp_bound_clamps_small_l():
    assert (egreedy_comp_bound(inputs(lipschitz=0.5, c=3.0, horizon=T_E))
            == egreedy_comp_bound(inputs(lipschitz=1.0, c=3.0, horizon=T_E)))


def test_egreedy_comp_bound_c3_factor():
    # c + sqrt(3c) = 6 at c = 3
    assert egreedy_comp_bound(inputs(c=3.0, horizon=T_E)) == pytest.approx(1.0 * 6.0 * 2 * 2.0)


# ---------------------------------------------------------------- thompson bounds

def test_thompson_pull_log_term_oracle():
    assert thompson_pull_log_term(T_E3, 0.5) == pytest.approx(116.18680599936788, abs=1e-2)


def test_thompson_pull_log_term_clamps():
    assert thompson_pull_log_term(4, 0.5) == 0.0  # T gap^2 = 1 -> log 1 = 0
    assert thompson_pull_log_term(2, 0.1) == 0.0  # T gap^2 < 1 clamps at 0


def test_thompson_pull_drift_term_oracle():
    # ceil(18 * ((1 + 8/3) * 3 + sqrt(17))) = ceil(272.216) = 273
    assert thompson_pull_drift_term(T_E3, 0.5, 1.0, 0.5) == 273


def test_thompson_pull_drift_term_no_drift():
    # l = 0 -> ceil(9/(2 gap^2) (ln T + 1))
    got = thompson_pull_drift_term(T_E3, 0.5, 0.0, 0.5)
    assert got == math.ceil(9.0 / (2 * 0.25) * (3.0 + 1.0))


def test_thompson_regret_bound_combines_terms():
    b = inputs(lipschitz=1.0, horizon=T_E3)
    expected = ((4 * math.e ** 11 + 21) * 116.18680599936788 + 5 / 0.25 + 273
                + math.pi ** 2 / 6)
    assert thompson_regret_bound(b) == pytest.approx(expected, rel=1e-6)


def test_thompson_comp_bound_oracle():
    b = BoundInputs(horizon=20000, lipschitz=0.0, gaps=tuple(0.1 * i for i in range(9)),
                    delta_lower=0.1, c=4.0)
    assert thompson_comp_bound(b) == pytest.approx(17826.27759456503, abs=1.0)


def test_thompson_comp_bound_scalings():
    b1 = inputs(delta_lower=0.2, horizon=20000, lipschitz=1.0)
    b2 = inputs(delta_lower=0.4, horizon=20000, lipschitz=1.0)
    assert thompson_comp_bound(b1) == pytest.approx(4 * thompson_comp_bound(b2))
    b3 = inputs(delta_lower=0.2, horizon=20000, lipschitz=2.0)
    assert thompson_comp_bound(b3) == pytest.approx(2 * thompson_comp_bound(b1))


# ---------------------------------------------------------------- lemma / c-condition

def test_comp_frequency_bound_oracle():
    assert comp_frequency_bound(0.1, 20000) == pytest.approx(1980.6975105072254, abs=0.5)


def test_comp_frequency_bound_vanishes_at_log_one():
    assert comp_frequency_bound(0.1, 1) == 0.0


def test_table_comp_rounds_fall_below_lemma_times_k():
    total_bound = comp_frequency_bound(0.1, 20000) * 9
    assert all(n < total_bound for n in (58, 60, 79, 98, 106, 109, 131))


def test_check_c_condition():
    assert check_c_condition(360, 0.1)
    assert not check_c_condition(4, 0.1)
    assert check_c_condition(36, 1.0)  # boundary


# ---------------------------------------------------------------- monotonicity properties

@st.composite
def bound_inputs(draw):
    k = draw(st.integers(min_value=2, max_value=9))
    gap_list = sorted(draw(st.lists(
        st.floats(min_value=0.05, max_value=0.9), min_size=k - 1, max_size=k - 1)))
    gaps = (0.0, *gap_list)
    horizon = draw(st.integers(min_value=3, max_value=10**6))
    lipschitz = draw(st.floats(min_value=0, max_value=5))
    delta_lower = draw(st.floats(min_value=0.01, max_value=1.0))
    c = draw(st.floats(min_value=0.5, max_value=500))
    return BoundInputs(horizon=horizon, lipschitz=lipschitz, gaps=gaps,
                       delta_lower=delta_lower, c=c)


ALL_BOUNDS = (ucb_regret_bound, ucb_comp_bound, egreedy_regret_bound,
              egreedy_comp_bound, thompson_regret_bound, thompson_comp_bound)


@given(b=bound_inputs(), dt=st.integers(min_value=1, max_value=10**5),
       dl=st.floats(min_value=0.0, max_value=3.0))
def test_bounds_monotone_in_horizon_and_lipschitz(b, dt, dl):
    from dataclasses import replace

    later = replace(b, horizon=b.horizon + dt)
    drifted = replace(b, lipschitz=b.lipschitz + dl)
    for bound in ALL_BOUNDS:
        assert bound(later) >= bound(b) * (1 - 1e-12)
        assert bound(drifted) >= bound(b) * (1 - 1e-12)


# ---------------------------------------------------------------- inputs validation

def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        inputs(horizon=1)
    with pytest.raises(ValueError):
        inputs(delta_lower=0.0)
    with pytest.raises(ValueError):
        BoundInputs(horizon=10, lipschitz=0.0, gaps=(0.0, 0.0),
                    delta_lower=0.1, c=4.0)  # no suboptimal arm
    for field in ("lipschitz", "delta_lower", "c"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                inputs(**{field: bad})
    for bad_c in (0.0, -1.0):
        with pytest.raises(ValueError, match="c must be > 0"):
            inputs(c=bad_c)


@pytest.mark.parametrize("delta_lower", [
    pytest.param(1e-200, id="1e-200"),
    pytest.param(1e-162, id="1e-162, the square below the least subnormal"),
])
def test_bound_inputs_reject_a_delta_lower_whose_square_is_zero(delta_lower):
    message = f"delta_lower must have a square above 0, got {delta_lower}"
    with pytest.raises(ValueError, match=message):
        inputs(delta_lower=delta_lower)


@pytest.mark.parametrize("delta_lower", [
    pytest.param(1e300, id="1e300"),
    pytest.param(1e155, id="1e155, the square just past the largest float"),
])
def test_bound_inputs_reject_a_delta_lower_whose_square_is_not_finite(delta_lower):
    message = f"delta_lower must have a finite square, got {delta_lower}"
    with pytest.raises(ValueError, match=re.escape(message)):
        inputs(delta_lower=delta_lower)


@pytest.mark.parametrize("lipschitz, delta_lower", [
    pytest.param(1e308, 0.5, id="l 1e308"),
    pytest.param(1.1, 1e-160, id="delta_lower 1e-160"),
    # 4 gap l and 3 delta_lower^2 both overflow, so the threshold reads inf/inf = nan
    pytest.param(1e308, 1e154, id="l 1e308, delta_lower 1e154"),
])
def test_thompson_pull_drift_term_keeps_an_overflowed_threshold_infinite(lipschitz, delta_lower):
    assert thompson_pull_drift_term(T_E3, 0.5, lipschitz, delta_lower) == math.inf
    assert thompson_regret_bound(inputs(lipschitz=lipschitz, delta_lower=delta_lower)) == math.inf


def test_bound_inputs_read_k_and_delta_min_from_the_gaps():
    b = inputs(gaps=(0.0, 0.5, 0.3, 0.0))
    assert (b.k, b.delta_min) == (4, 0.3)
    with pytest.raises(TypeError):
        BoundInputs(horizon=10, lipschitz=0.0, gaps=(0.0, 0.5), delta_lower=0.1, c=4.0, k=5)


def test_bound_inputs_from_instance_defaults_delta_lower():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("bernoulli"))
    b = BoundInputs.from_instance(inst, horizon=20000, lipschitz=0.0, c=4.0)
    assert b.delta_lower == pytest.approx(0.1)
    assert b.delta_min == pytest.approx(0.1)
    assert b.k == 9


def test_min_pairwise_gap():
    assert min_pairwise_gap((0.9, 0.5, 0.45)) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        min_pairwise_gap((0.5, 0.5))


# ---------------------------------------------------------------- summarize

def test_summarize_zero_noise_greedy():
    inst = BanditInstance((0.9, 0.8), NoiseModel("gaussian", 0.0))
    traj = run(inst, PolicyKind.greedy(), DriftModel("linear", lipschitz=0.0),
               MechanismOptions(), 4, 0)
    m = summarize(traj, inst)
    assert m.regret == pytest.approx(0.1)  # warm-start pull of arm 1 only
    assert m.comp_rounds == 0
    assert m.compensation == 0.0
    assert m.arm1_rel_error == 0.0


def test_summarize_comp_rounds_match_records():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=1.1),
               MechanismOptions(), 500, 3)
    m = summarize(traj, inst)
    assert m.comp_rounds == sum(1 for r in traj.records if r.compensated)


def test_summarize_regret_identity_from_per_arm():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.thompson(), DriftModel("linear", lipschitz=0.5),
               MechanismOptions(), 800, 11)
    m = summarize(traj, inst)
    recomputed = 0.0
    for gap, (pulls, _, _) in zip(inst.gap_vector, m.per_arm):
        recomputed += gap * pulls
    assert m.regret == recomputed  # exact


# ---------------------------------------------------------------- UCB drift slack

def crafted(rounds, warm_drift=0.0):
    """A two-arm run's records: the warm start (arm 0 drifted by `warm_drift`), then round
    t = 3, 4, ... pulls `chosen` against the player's arm 0, paying x with drift b."""
    inst = BanditInstance((0.9, 0.8), NoiseModel("gaussian", 0.0))
    records = [RoundRecord(1, 0, 0, False, 0.0, warm_drift, 0.9, 0.9 + warm_drift, 0.0),
               RoundRecord(2, 1, 1, False, 0.0, 0.0, 0.8, 0.8, inst.gap_vector[1])]
    for t, (chosen, x, b) in enumerate(rounds, start=3):
        records.append(RoundRecord(t, chosen, 0, chosen != 0, x, b, 0.8, 0.8 + b,
                                   inst.gap_vector[chosen]))
    return records


RADIUS_3 = math.sqrt(2.0 * math.log(3))  # round 3, one pull of the chosen arm so far


def test_ucb_drift_slack_rejects_a_per_round_violation():
    with pytest.raises(DiagnosticError,
                       match=f"round 3: compensation 2.0 exceeds per-round drift bound {RADIUS_3}"):
        ucb_drift_check(2, 1.0)(crafted([(1, 2.0, 0.0)]))


def test_ucb_drift_slack_rejects_a_cumulative_drift_violation():
    # arm 0 carries far more drift than B_0 <= 2 l sqrt(2 n_0 ln t) allows
    with pytest.raises(DiagnosticError, match="round 3: arm 0 cumulative drift 50.0 exceeds bound"):
        ucb_drift_check(2, 1.0)(crafted([(1, 0.0, 0.0)], warm_drift=50.0))


def test_ucb_drift_slack_reads_the_state_before_the_credit():
    # x lies between sqrt(2 ln 3 / 2), after round 3's pull, and sqrt(2 ln 3 / 1), before it
    x = 1.25
    assert math.sqrt(2.0 * math.log(3) / 2) < x < RADIUS_3
    per_round, _ = ucb_drift_check(2, 1.0)(crafted([(1, x, 0.0)]))
    assert per_round == x / RADIUS_3
    # the round-off guard 1e-9 max(1, bound) lets a bound's last bits pass
    per_round, _ = ucb_drift_check(2, 1.0)(crafted([(1, RADIUS_3 + 1e-10, 0.0)]))
    assert per_round > 1.0


def test_ucb_drift_slack_without_drift_reads_zero():
    assert ucb_drift_check(2, 0.0)(crafted([(1, 1.0, 0.0), (0, 0.0, 0.0)]))[1] == 0.0
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    traj = run(inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=0.0),
               MechanismOptions(), 1500, 0)
    per_round, cumulative = ucb_drift_check(inst.k, 0.0)(traj.records)
    assert cumulative == 0.0 and 0.0 < per_round <= 1.0


def test_ucb_drift_slack_reads_drift_over_a_zero_bound_as_inf():
    # l = 0 makes every bound 0; a drift within the round-off guard passes, its ratio inf
    assert ucb_drift_check(2, 0.0)(crafted([(1, 0.0, 0.0)], warm_drift=1e-10)) == (0.0, math.inf)


def _scalar_slack(records, k, lipschitz):
    """The inequalities round by round, on K ArmStates replayed from the records."""
    arms = [ArmState() for _ in range(k)]
    per_round = cumulative = 0.0
    for rec in records:
        if rec.t > len(arms):
            log_t = math.log(rec.t)
            per_round = max(per_round,
                            rec.compensation / math.sqrt(2.0 * log_t / arms[rec.chosen].pulls))
            for arm in arms:
                cap = 2.0 * lipschitz * math.sqrt(2.0 * arm.pulls * log_t)
                if arm.drift_sum > 0:
                    cumulative = max(cumulative, arm.drift_sum / cap)
        arms[rec.chosen].pulls += 1
        arms[rec.chosen].drift_sum += rec.drift
    return per_round, cumulative


def test_run_ucb_drift_slack_clean():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    for seed in range(5):
        traj = run(inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=1.1),
                   MechanismOptions(), 1500, seed)
        slack = ucb_drift_check(inst.k, 1.1)(traj.records)  # raises DiagnosticError on a violation
        assert slack == _scalar_slack(traj.records, inst.k, 1.1)
        assert all(0.0 < s <= 1.0 for s in slack)


def _first_violation(records, k, lipschitz):
    """The message of the first bound broken, every arm checked every round; None if none."""
    arms = [ArmState() for _ in range(k)]
    for rec in records:
        if rec.t > len(arms):
            log_t = math.log(rec.t)
            radius = math.sqrt(2.0 * log_t / arms[rec.chosen].pulls)
            if rec.compensation > radius + 1e-9 * max(1.0, radius):
                return (f"round {rec.t}: compensation {rec.compensation} exceeds "
                        f"per-round drift bound {radius}")
            for i, arm in enumerate(arms):
                cap = 2.0 * lipschitz * math.sqrt(2.0 * arm.pulls * log_t)
                if arm.drift_sum > cap + 1e-9 * max(1.0, cap):
                    return (f"round {rec.t}: arm {i} cumulative drift {arm.drift_sum} "
                            f"exceeds bound {cap}")
        arms[rec.chosen].pulls += 1
        arms[rec.chosen].drift_sum += rec.drift
    return None


# a stretch of rounds that all pull one arm, so the other arms go unpulled for its length
STRETCHES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
                                 st.floats(-0.5, 1.0)), min_size=1, max_size=60)),
    max_size=12)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(min_value=2, max_value=5), lipschitz=st.floats(0.05, 3.0),
       warm_drift=st.lists(st.floats(-0.5, 1.0), min_size=5, max_size=5),
       stretches=STRETCHES, cut=st.integers(min_value=1, max_value=50))
def test_ucb_drift_check_equals_a_check_of_every_arm_every_round(k, lipschitz, warm_drift,
                                                                 stretches, cut):
    records = [RoundRecord(t, t - 1, t - 1, False, 0.0, warm_drift[t - 1], 0.5, 0.5, 0.0)
               for t in range(1, k + 1)]
    for arm, rounds in stretches:
        for x, b in rounds:
            records.append(RoundRecord(len(records) + 1, arm % k, 0, x > 0, x, b, 0.5, 0.5, 0.0))
    check = ucb_drift_check(k, lipschitz)
    expected = _first_violation(records, k, lipschitz)
    if expected is None:
        assert ucb_drift_check(k, lipschitz)(records) == _scalar_slack(records, k, lipschitz)
        for start in range(0, len(records), cut):  # any cut into blocks reads the same
            slack = check(records[start:start + cut])
        assert slack == _scalar_slack(records, k, lipschitz)
    else:
        with pytest.raises(DiagnosticError) as err:
            ucb_drift_check(k, lipschitz)(records)
        assert str(err.value) == expected
        with pytest.raises(DiagnosticError) as err:
            for start in range(0, len(records), cut):
                check(records[start:start + cut])
        assert str(err.value) == expected


def test_streamed_ucb_drift_check_equals_the_check_of_the_kept_run():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    horizon = 2 * BLOCK_ROUNDS + 3
    check, slacks = ucb_drift_check(inst.k, 1.1), []
    run(inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=1.1), MechanismOptions(),
        horizon, 4, keep_records=False, on_block=lambda block: slacks.append(check(block)))
    kept = run(inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=1.1), MechanismOptions(),
               horizon, 4)
    assert len(slacks) == 3
    assert slacks[-1] == ucb_drift_check(inst.k, 1.1)(kept.records)


def test_streamed_ucb_drift_check_holds_no_record():
    inst = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    check = ucb_drift_check(inst.k, 1.1)
    tracemalloc.start()
    try:
        run(inst, PolicyKind.ucb(), DriftModel("linear", lipschitz=1.1), MechanismOptions(),
            60000, 1, keep_records=False, on_block=check)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of records at a time; the kept records of this run peak near 12 MB
    assert peak < 2_000_000
