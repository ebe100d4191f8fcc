"""The lockstep engine: many runs, of one or several policies, played together round by round.

Each lane is one mechanism.run with its own policy, options, drift coefficient
and seed.  The lanes advance together as (lanes, K) arrays.  Lanes that share
a policy and resolved options form a group: a contiguous slice of the rows
with its own LaneStreams, where the policy's lane rule selects and the
rewards are drawn.  The greedy pick, compensation, drift and credit run once
over all lanes, in one round loop whose first K rounds are the warm start.
Every lane does the scalar loop's float operations in the same order and
draws its own NumpyRng stream in the documented per-round order, so each lane
ends with the ArmStates that mechanism.run gives for the same inputs, and the
curve that mechanism.curve_of reads from that run, equal under ==.
mechanism.run stays the executable spec; records and scripted streams exist
only there.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

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
from .mechanism import Curve, MechanismOptions, Trajectory, check_run_args, curve_rounds
from .policies import POLICIES, PolicyKind, greedy_choice_lanes
from .rng import LaneStreams


class Lane(NamedTuple):
    """One run to play: mechanism.run(instance, policy, drift, options, horizon, seed)."""

    policy: PolicyKind
    options: MechanismOptions
    drift: DriftModel
    seed: int


class _Group(NamedTuple):
    """The lanes of one policy and resolved options: rows of the engine's arrays."""

    rows: slice
    select: Callable[[PolicyView, float | None, LaneStreams], np.ndarray]  # select_lanes
    c: float | None
    draws: LaneStreams
    project: bool


def run_lanes(instance: BanditInstance, lanes: Sequence[Lane], horizon: int,
              *, stride: int | None = None) -> list[Trajectory]:
    """mechanism.run(instance, lane.policy, lane.drift, lane.options, horizon,
    lane.seed, keep_records=False) for every lane, played in lockstep.

    The drift models may differ only in their Lipschitz coefficient.  The
    returned trajectories, in the order of `lanes`, carry no records, and
    their final states no stream.  With `stride`, each carries the curve that
    mechanism.curve_of(run(...), stride) reads from the run's records.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    check_run_args(instance, horizon)
    rounds = curve_rounds(horizon, stride) if stride is not None else []
    points = set(rounds)
    members: dict[tuple[PolicyKind, MechanismOptions], list[int]] = {}
    for j, lane in enumerate(lanes):
        members.setdefault((lane.policy, lane.options.resolve(lane.policy)), []).append(j)
    order = [j for js in members.values() for j in js]  # engine row -> index in `lanes`
    groups = []
    start = 0
    for (policy, options), js in members.items():
        groups.append(_Group(slice(start, start + len(js)), POLICIES[policy.name].select_lanes,
                             policy.c, LaneStreams([lanes[j].seed for j in js]),
                             options.project_feedback))
        start += len(js)
    n, k = len(order), instance.k
    drift = lane_drift([lanes[j].drift for j in order])
    reward = lane_rewards(instance)

    # field[j, i]: that ArmState field of lane j's arm i; the flat views index (lane, arm) cells
    pulls, feedback, drift_sum, comp_count, comp_sum = (np.zeros((n, k)) for _ in range(5))
    pulls_at, feedback_at, drift_at, comp_count_at, comp_sum_at = (
        a.reshape(-1) for a in (pulls, feedback, drift_sum, comp_count, comp_sum))
    first = np.arange(n) * k  # flat index of each lane's arm 0
    # per-arm views of the live state, so accounting_totals sums every lane at once
    columns = [ArmState(pulls=pulls[:, i], comp_sum=comp_sum[:, i]) for i in range(k)]
    totals: list[tuple[np.ndarray, np.ndarray]] = []

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
        if t in points:
            totals.append(accounting_totals(instance.gap_vector, columns))

    curves = [None] * n
    if stride is not None:
        regret, comp = np.array(totals).transpose(1, 2, 0).tolist()  # (2, lanes, points)
        curves = [Curve(list(rounds), regret[row], comp[row]) for row in range(n)]
    # cells[j][i]: the five ArmState fields of lane j's arm i, in field order
    cells = np.stack((pulls, feedback, drift_sum, comp_count, comp_sum), axis=-1).tolist()
    out: list[Trajectory] = [None] * n
    for j, arms, curve in zip(order, cells, curves):
        final = SimState(round=horizon + 1, gap_vector=instance.gap_vector, rng=None,
                         arms=[ArmState(int(p), f, d, int(cc), cs) for p, f, d, cc, cs in arms])
        out[j] = Trajectory(records=[], final=final, curve=curve)
    return out
