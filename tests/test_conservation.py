"""Conservation laws of the mechanism, checked on the final arm statistics of both engines.

The laws hold for every run, whatever the policy and the draws, so they check
the model itself and not one engine against the other (tests/test_lockstep.py
does that with ==).  For every arm of every run:
- the warm start pays nothing, so at most pulls - 1 of an arm's pulls carried
  compensation;
- compensation and drift are never negative;
and the pulls sum to T.  Linear drift injects l times each compensation, so
drift_sum = l * comp_sum up to rounding; clipped drift injects at most l * x
and at most cap on each paid pull, so drift_sum <= min(l * comp_sum,
cap * comp_count).
"""

import pytest

from driftbandit import (
    BanditInstance,
    DriftModel,
    MechanismOptions,
    NoiseModel,
    PolicyKind,
    derive_seed,
    run,
)
from driftbandit.lockstep import Lane, run_lanes

# Relative tolerance of the drift identities, fixed before any run: summing
# l * x_t and multiplying the sum of x_t by l differ only by rounding, and the
# largest gap over 210 canonical lanes (T=20000) was 7.2e-15.
REL = 1e-12
MEANS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
POLICIES = (PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson(),
            PolicyKind.greedy())
L_VALUES = (0.0, 0.4, 1.1, 3.0)
HORIZON = 1500
CAP = 0.05  # below l * x on many paid pulls, so the clip binds


def assert_conserved(arms, drift: DriftModel, horizon: int) -> None:
    l = drift.lipschitz
    assert sum(arm.pulls for arm in arms) == horizon
    for arm in arms:
        assert arm.comp_count <= arm.pulls - 1
        assert arm.comp_sum >= 0.0
        assert arm.drift_sum >= 0.0
        if drift.kind == "linear":
            assert abs(arm.drift_sum - l * arm.comp_sum) <= REL * l * arm.comp_sum
        else:
            bound = min(l * arm.comp_sum, drift.cap * arm.comp_count)
            assert arm.drift_sum <= bound + REL * bound


@pytest.mark.parametrize("noise", [NoiseModel("gaussian", 1.0), NoiseModel("bernoulli")],
                         ids=["gaussian", "bernoulli"])
@pytest.mark.parametrize("kind,cap", [("linear", None), ("clipped_linear", CAP)],
                         ids=["linear", "clipped"])
def test_both_engines_conserve_compensation_and_drift(noise, kind, cap):
    # every policy at every l, with its default projection, in one lockstep and one by one
    instance = BanditInstance(MEANS, noise)
    lanes = [Lane(policy, MechanismOptions(), DriftModel(kind, lipschitz=l, cap=cap),
                  derive_seed(20260809, p_idx, l_idx, 0))
             for p_idx, policy in enumerate(POLICIES) for l_idx, l in enumerate(L_VALUES)]
    for lane, played in zip(lanes, run_lanes(instance, lanes, HORIZON)):
        scalar = run(instance, lane.policy, lane.drift, lane.options, HORIZON, lane.seed,
                     keep_records=False)
        assert_conserved(played.arms, lane.drift, HORIZON)
        assert_conserved(scalar.arms, lane.drift, HORIZON)
