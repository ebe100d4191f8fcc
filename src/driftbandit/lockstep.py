"""The lockstep engine: many runs, of one or several policies, played together round by round.

Each lane is one mechanism.run with its own policy, options, drift coefficient
and seed.  The lanes advance together as (lanes, K) arrays whose row j is
lanes[j].  Each consecutive run of lanes with the same policy and resolved
options forms a group: a slice of the rows with its own LaneStreams, where
the policy's lane rule selects and the rewards are drawn.  The greedy pick,
compensation, drift and credit run once over all lanes, in one round loop
whose first K rounds are the warm start.  Every lane does the scalar loop's
float operations in the same order and draws its own NumpyRng stream in the
documented per-round order, so each lane ends with the ArmStates that
mechanism.run gives for the same inputs, equal under ==.  An optional probe
reads the live state after each round's credit; mechanism.CurveProbe reads
the curves that mechanism.curve_of reads from the scalar runs.
mechanism.run stays the executable spec; records and scripted streams exist
only there.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ArmState,
    BanditInstance,
    DriftModel,
    PolicyView,
    SimState,
    lane_drift,
    lane_rewards,
)
from .mechanism import MechanismOptions, Trajectory, check_run_args
from .policies import POLICIES, PolicyKind, greedy_choice_lanes
from .rng import LaneStreams


class Lane(NamedTuple):
    """One run to play: mechanism.run(instance, policy, drift, options, horizon, seed)."""

    policy: PolicyKind
    options: MechanismOptions
    drift: DriftModel
    seed: int


class _Group(NamedTuple):
    """A consecutive run of lanes with one policy and resolved options: rows of the arrays."""

    rows: slice
    select: Callable[[PolicyView, float | None, LaneStreams], np.ndarray]  # select_lanes
    c: float | None
    draws: LaneStreams
    project: bool


def run_lanes(instance: BanditInstance, lanes: Sequence[Lane], horizon: int,
              *, probe: Callable[[int, list[ArmState]], None] | None = None
              ) -> list[Trajectory]:
    """mechanism.run(instance, lane.policy, lane.drift, lane.options, horizon,
    lane.seed, keep_records=False) for every lane, played in lockstep.

    The drift models may differ only in their Lipschitz coefficient.  The
    returned trajectories, in the order of `lanes`, carry no records, and
    their final states no stream.  `probe(t, arms)` is called after round
    t's credit, for t = 1..horizon: arms[i] is an ArmState whose five fields
    are live (lanes,) views of arm i in every lane, row j being lanes[j].
    The views change as the lanes play on, so a probe copies what it keeps.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    check_run_args(instance, horizon)
    groups = []
    start = 0
    for (policy, options), same in groupby(
            lanes, lambda lane: (lane.policy, lane.options.resolve(lane.policy))):
        seeds = [lane.seed for lane in same]
        groups.append(_Group(slice(start, start + len(seeds)), POLICIES[policy.name].select_lanes,
                             policy.c, LaneStreams(seeds), options.project_feedback))
        start += len(seeds)
    n, k = len(lanes), instance.k
    drift = lane_drift([lane.drift for lane in lanes])
    reward = lane_rewards(instance)

    # fields[f][j, i]: ArmState field f of lane j's arm i; the flat views index (lane, arm) cells
    fields = [np.zeros((n, k)) for _ in range(5)]
    pulls, feedback = fields[:2]
    pulls_at, feedback_at, drift_at, comp_count_at, comp_sum_at = (a.reshape(-1) for a in fields)
    first = np.arange(n) * k  # flat index of each lane's arm 0
    arms = [ArmState(*(a[:, i] for a in fields)) for i in range(k)]  # what the probe reads

    chosen = np.empty(n, dtype=np.int64)
    r = np.empty(n)
    unpaid = np.zeros(n)
    for t in range(1, horizon + 1):
        if t <= k:  # the warm start: arm t-1 in every lane, the player follows, nothing paid
            chosen.fill(t - 1)
            greedy, x = chosen, unpaid
        else:
            posted = feedback / pulls
            for g in groups:  # each lane draws for its selection here, then for its reward
                rows = g.rows
                chosen[rows] = g.select(PolicyView(t, posted[rows], pulls[rows]), g.c, g.draws)
            greedy = greedy_choice_lanes(PolicyView(t, posted, pulls))
            posted_at = posted.reshape(-1)
            x = posted_at[first + greedy] - posted_at[first + chosen]  # 0.0 where unpaid
        for g in groups:
            r[g.rows] = reward(chosen[g.rows], g.draws)
        at = first + chosen
        b = drift(x)
        fb = r + b
        for g in groups:
            if g.project:
                np.clip(fb[g.rows], 0.0, 1.0, out=fb[g.rows])
        pulls_at[at] += 1.0
        feedback_at[at] += fb
        drift_at[at] += b
        comp_count_at[at] += chosen != greedy
        comp_sum_at[at] += x
        if probe is not None:
            probe(t, arms)

    # cells[j][i]: the five ArmState fields of lane j's arm i, in field order
    cells = np.stack(fields, axis=-1).tolist()
    finals = [SimState(round=horizon + 1, gap_vector=instance.gap_vector, rng=None,
                       arms=[ArmState(int(p), f, d, int(cc), cs) for p, f, d, cc, cs in lane])
              for lane in cells]
    return [Trajectory(records=[], final=final) for final in finals]
