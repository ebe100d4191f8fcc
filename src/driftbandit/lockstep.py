"""The lockstep engine: many runs of one policy played together, round by round.

Each lane is one mechanism.run with its own drift coefficient and seed.  The
lanes advance together as (lanes, K) arrays.  Every lane does the scalar
loop's float operations in the same order and draws its own NumpyRng stream
in the documented per-round order, so each lane ends with the ArmStates and
curve that mechanism.run gives for the same inputs, equal under ==.
mechanism.run stays the executable spec; records, scripted streams and debug
checks exist only there.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    ArmState,
    BanditInstance,
    DriftModel,
    PolicyView,
    SimState,
    accounting_totals,
    lane_drift,
    lane_rewards,
)
from .mechanism import Curve, MechanismOptions, Trajectory
from .policies import POLICIES, PolicyKind, greedy_choice_lanes
from .rng import LaneStreams

# the ArmState fields, in the order of the last axis of the engine's state
_FIELDS = ("pulls", "feedback_sum", "drift_sum", "comp_count", "comp_sum")
_PULLS, _FEEDBACK, _DRIFT, _COMP_COUNT, _COMP_SUM = range(len(_FIELDS))


def run_lanes(instance: BanditInstance, policy: PolicyKind, drifts: Sequence[DriftModel],
              options: MechanismOptions, horizon: int, seeds: Sequence[int],
              *, stride: int | None = None) -> list[Trajectory]:
    """mechanism.run(instance, policy, drifts[j], options, horizon, seeds[j],
    stride=stride, keep_records=False) for every lane j, played in lockstep.

    The drift models may differ only in their Lipschitz coefficient.  The
    returned trajectories carry no records, and their final states no stream.
    """
    if len(drifts) != len(seeds) or not seeds:
        raise ValueError(f"need one drift model per seed, got {len(drifts)} and {len(seeds)}")
    if horizon < instance.k:
        raise ValueError(f"horizon {horizon} shorter than warm start over {instance.k} arms")
    if stride is not None and stride < 1:
        raise ValueError("stride must be >= 1")
    options = options.resolve(policy)
    if options.debug:
        raise ValueError("debug checks run in mechanism.run only")
    select = POLICIES[policy.name].select_lanes
    lanes, k = len(seeds), instance.k
    draws = LaneStreams(seeds)
    drift = lane_drift(drifts)
    reward = lane_rewards(instance)
    project = options.project_feedback

    state = np.zeros((len(_FIELDS), lanes, k))  # state[f][j, i]: field f of lane j's arm i
    by_row = state.reshape(len(_FIELDS), lanes * k)  # one column per (lane, arm)
    first = np.arange(lanes) * k  # column of each lane's arm 0
    pulls, feedback = state[_PULLS], state[_FEEDBACK]
    credit = np.zeros((len(_FIELDS), lanes))  # what this round adds to each lane's pulled arm
    credit[_PULLS] = 1.0
    # per-arm views of the live state, so accounting_totals sums every lane at once
    columns = [ArmState(pulls=pulls[:, i], comp_sum=state[_COMP_SUM][:, i]) for i in range(k)]
    rounds: list[int] = []
    totals: list[tuple[np.ndarray, np.ndarray]] = []

    def capture(t: int) -> None:
        if stride is not None and (t % stride == 0 or t == horizon):
            rounds.append(t)
            totals.append(accounting_totals(instance.gap_vector, columns))

    def play(at: np.ndarray, fb: np.ndarray, b, x, compensated) -> None:
        credit[_FEEDBACK] = fb
        credit[_DRIFT] = b
        credit[_COMP_COUNT] = compensated
        credit[_COMP_SUM] = x
        by_row[:, at] += credit

    for arm in range(k):  # warm start: each arm once, in index order, unpaid
        r = reward(np.full(lanes, arm), draws)
        play(first + arm, np.clip(r, 0.0, 1.0) if project else r, 0.0, 0.0, 0.0)
    for t in range(1, k + 1):  # as in mechanism.run: sampled after the whole warm start
        capture(t)
    for t in range(k + 1, horizon + 1):
        posted = feedback / pulls
        view = PolicyView(t, posted, pulls)
        chosen = select(view, policy.c, draws)
        greedy = greedy_choice_lanes(view)
        at = first + chosen
        flat = posted.reshape(-1)
        x = flat[first + greedy] - flat[at]  # 0.0 where chosen == greedy
        b = drift(x)
        fb = reward(chosen, draws) + b
        if project:
            fb = np.clip(fb, 0.0, 1.0)
        play(at, fb, b, x, chosen != greedy)
        capture(t)

    curves = [None] * lanes
    if stride is not None:
        regret = np.array([reg for reg, _ in totals]).T.tolist()
        comp = np.array([c for _, c in totals]).T.tolist()
        curves = [Curve(list(rounds), regret[j], comp[j]) for j in range(lanes)]
    return [Trajectory(records=[], final=_final_state(instance, horizon, arms), curve=curve)
            for arms, curve in zip(state.transpose(1, 2, 0).tolist(), curves)]


def _final_state(instance: BanditInstance, horizon: int, arms: list[list[float]]) -> SimState:
    return SimState(
        round=horizon + 1,
        arms=[ArmState(pulls=int(a[_PULLS]), feedback_sum=a[_FEEDBACK], drift_sum=a[_DRIFT],
                       comp_count=int(a[_COMP_COUNT]), comp_sum=a[_COMP_SUM]) for a in arms],
        gap_vector=instance.gap_vector, rng=None)
