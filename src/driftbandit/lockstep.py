"""The lockstep engine: many runs, of one or several policies, played together round by round.

Each lane is one mechanism.run with its own policy, options, drift coefficient
and seed.  The lanes advance together as (lanes, K) arrays whose row j is
lanes[j].  Each consecutive run of lanes with the same policy and resolved
options forms a group: a slice of the rows with its own LaneStreams.  A group
does only what differs by policy: its rule's lane form writes the group's
rows of one bonus array (policies), and it draws its reward noise into the
group's rows of one buffer.  Everything else runs once over all lanes, in one
round loop whose first K rounds are the warm start: one index posted + bonus,
one argmax for the chosen and the greedy arms, the compensation, drift and
rewards (core), and one credit of the five ArmState fields.  Every lane does
the scalar loop's float operations in the same order and draws its own
NumpyRng stream in the documented per-round order, so each lane ends with the
ArmStates that mechanism.run gives for the same inputs, equal under ==; a
lane whose sums overflow is refused as mechanism.run refuses it.  An optional
probe reads the live state after each round's credit; mechanism.CurveProbe
reads the curves that mechanism.curve_of reads from the scalar runs.
mechanism.run stays the executable spec; records and scripted streams exist
only there.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ArmState,
    BanditError,
    BanditInstance,
    DriftModel,
    PolicyView,
    SimState,
    lane_drift,
    lane_rewards,
)
from .mechanism import MechanismOptions, Trajectory, check_finite, check_run_args, run
from .policies import PolicyKind
from .rng import LaneStreams


class LaneError(BanditError):
    """One lane of run_lanes failed: `lane` is its index in run_lanes' lanes."""

    def __init__(self, message: str, lane: int) -> None:
        super().__init__(message, lane)  # both in args, so the error pickles
        self.lane = lane

    def __str__(self) -> str:
        return self.args[0]


class Lane(NamedTuple):
    """One run to play: mechanism.run(instance, policy, drift, options, horizon, seed)."""

    policy: PolicyKind
    options: MechanismOptions
    drift: DriftModel
    seed: int


class _Group(NamedTuple):
    """A consecutive run of lanes with one policy and resolved options."""

    lane_form: Callable  # PolicyRule.lane_form: (view, c, draws, bonus) writes the bonus rows
    c: float | None
    draws: LaneStreams
    # the group's rows of the engine's arrays, as views
    posted: np.ndarray
    pulls: np.ndarray
    bonus: np.ndarray
    drawn: np.ndarray


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
    A lane whose arm sums overflow raises LaneError naming its index and
    seed and the arm that mechanism.run names (check_finite).
    """
    if not lanes:
        raise ValueError("need at least one lane")
    check_run_args(instance, horizon)
    n, k = len(lanes), instance.k
    drift = lane_drift([lane.drift for lane in lanes])
    draw, reward = lane_rewards(instance)

    # state[f, j*K + i] = fields[f, j, i]: ArmState field f of lane j's arm i
    state = np.zeros((5, n * k))
    fields = state.reshape(5, n, k)
    pulls, feedback = fields[:2]
    arms = [ArmState(*fields[:, :, i]) for i in range(k)]  # what the probe reads
    bonus = np.zeros((n, k))  # 0.0 in the rows of a rule that writes no bonus
    # scores[0], the principal's index posted + bonus, over scores[1], the posted means:
    # one argmax gives both picks, the chosen arms over the player's greedy arms
    scores = np.empty((2, n, k))
    index, posted = scores
    picks = np.empty((2, n), dtype=np.int64)
    chosen, greedy = picks
    first = np.tile(np.arange(n) * k, (2, 1))  # cell of each lane's arm 0
    cells = np.empty((2, n), dtype=np.int64)  # the cells of the picks
    at = cells[0]  # the cell each lane pulls
    posted_at = posted.reshape(-1)
    state_at = state.reshape(-1)
    field_at = np.arange(5)[:, None] * (n * k)  # state_at index of each field's cell 0
    credited = np.empty((5, n), dtype=np.int64)  # state_at index of the fields of each pull
    drawn = np.empty(n)
    # the credit of a round, field by field: one pull, its feedback, drift, paid, compensation
    credit = np.zeros((5, n))
    credit[0] = 1.0
    fb, b, paid, x = credit[1:]
    projected = []  # fb's rows of the groups that project their feedback

    groups = []
    start = 0
    for (policy, options), same in groupby(
            lanes, lambda lane: (lane.policy, lane.options.resolve(lane.policy))):
        seeds = [lane.seed for lane in same]
        rows = slice(start, start + len(seeds))
        groups.append(_Group(policy.rule.lane_form, policy.c, LaneStreams(seeds), posted[rows],
                             pulls[rows], bonus[rows], drawn[rows]))
        if options.project_feedback:
            projected.append(fb[rows])
        start += len(seeds)

    for t in range(1, horizon + 1):
        if t <= k:  # the warm start: arm t-1 in every lane, the player follows, nothing paid
            for g in groups:
                g.drawn[...] = draw(g.draws)
            picks.fill(t - 1)
            np.add(first, picks, out=cells)
            x.fill(0.0)
        else:
            np.divide(feedback, pulls, out=posted)
            for g in groups:  # each lane draws for its selection, then for its reward
                g.lane_form(PolicyView(t, g.posted, g.pulls), g.c, g.draws, g.bonus)
                g.drawn[...] = draw(g.draws)
            np.add(posted, bonus, out=index)
            scores.reshape(2 * n, k).argmax(axis=1, out=picks.reshape(-1))
            np.add(first, picks, out=cells)
            picked = posted_at.take(cells)  # the posted means of the picks
            np.subtract(picked[1], picked[0], out=x)
        paid[...] = chosen != greedy
        drift(x, out=b)
        np.add(reward(chosen, drawn), b, out=fb)
        for rows_fb in projected:
            np.clip(rows_fb, 0.0, 1.0, out=rows_fb)
        np.add(field_at, at, out=credited)
        pulled = state_at.take(credited)
        pulled += credit
        state_at[credited] = pulled
        if probe is not None:
            probe(t, arms)

    # lane_cells[j][i]: the five ArmState fields of lane j's arm i, in field order
    lane_cells = fields.transpose(1, 2, 0).tolist()
    finals = [SimState(round=horizon + 1, gap_vector=instance.gap_vector, rng=None,
                       arms=[ArmState(int(p), f, d, int(cc), cs) for p, f, d, cc, cs in lane])
              for lane in lane_cells]
    if not np.isfinite(state).all():
        j = int(np.isfinite(fields).all(axis=(0, 2)).argmin())  # the first lane that overflowed
        policy, options, lane_drift_model, seed = lanes[j]
        try:  # replayed alone it names mechanism.run's arm: past a nan mean the argmaxes differ
            run(instance, policy, lane_drift_model, options, horizon, seed, keep_records=False)
            check_finite(finals[j].arms)
        except BanditError as exc:  # "run overflowed: arm ..."
            raise LaneError(f"lane {j} (seed {seed}) {str(exc).removeprefix('run ')}", j) from None
    return [Trajectory(records=[], final=final) for final in finals]
