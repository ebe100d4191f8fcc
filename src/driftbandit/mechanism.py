"""The incentive loop: principal proposes, player follows the posted means.

Per round: the principal picks I_t, the player's greedy choice is G_t; when
they differ the principal pays the posted-mean difference, the player's
feedback picks up drift from that payment, and the (possibly projected)
feedback is credited to the pulled arm.  Compensation is computed from the
posted means at the start of the round, before the new pull lands.
"""

from __future__ import annotations

import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ArmState,
    BanditError,
    BanditInstance,
    DriftModel,
    InputError,
    PolicyView,
    SimState,
    WarmStartError,
    accounting_totals,
    drift_apply,
    sample_reward,
)
from .policies import PolicyKind, greedy_choice, select_arm
from .rng import NumpyRng, RngStream

@dataclass(slots=True)
class RoundRecord:
    """Audit log for one round."""

    t: int
    chosen: int  # principal's arm I_t
    greedy: int  # player's own pick G_t
    compensated: bool
    compensation: float  # posted-mean difference paid (0 when not compensated)
    drift: float  # bias injected into feedback
    raw_reward: float  # true reward drawn from the environment
    feedback: float  # value credited to the arm (after optional projection)
    regret_increment: float  # true-mean gap of the chosen arm


@dataclass(frozen=True)
class MechanismOptions:
    """The loop's option: project_feedback=None means "policy default"
    (policy.rule.projects_feedback).  resolve() pins it; warm_start(),
    round_player() and step() take resolved options only."""

    project_feedback: bool | None = None

    def resolve(self, policy: PolicyKind) -> "MechanismOptions":
        if self.project_feedback is not None:
            return self
        return replace(self, project_feedback=policy.rule.projects_feedback)


class Curve(NamedTuple):
    """Cumulative regret/compensation at the rounds of curve_rounds(horizon, stride)."""

    rounds: list[int]
    regret: list[float]
    compensation: list[float]


def _play(state: SimState, instance: BanditInstance, chosen: int, greedy: int, x: float,
          b: float, project: bool) -> RoundRecord:
    """The body every round ends in: pull `chosen`, add the drift `b` to its reward,
    project if `project`, credit the pull to the arm (paid `x` if chosen != greedy), advance."""
    r = sample_reward(instance, chosen, state.rng)
    fb = r + b
    if project:
        fb = min(1.0, max(0.0, fb))
    compensated = chosen != greedy
    arm = state.arms[chosen]
    arm.pulls += 1
    arm.feedback_sum += fb
    arm.drift_sum += b
    if compensated:
        arm.comp_count += 1
        arm.comp_sum += x
    # positional: RoundRecord's field order (t, chosen, greedy, compensated, compensation,
    # drift, raw_reward, feedback, regret_increment)
    rec = RoundRecord(state.round, chosen, greedy, compensated, x, b, r, fb,
                      state.gap_vector[chosen])
    state.round += 1
    return rec


def warm_start(state: SimState, instance: BanditInstance,
               options: MechanismOptions) -> list[RoundRecord]:
    """Pull each arm once, in index order, with no compensation.

    Resolves the undefined posted mean at zero pulls for every policy.
    Rounds 1..K, each the round body with the player following the
    principal and nothing paid; afterwards the state sits at round K+1.
    `options` must be resolved (MechanismOptions.resolve; run() does this).
    """
    project = options.project_feedback
    if project is None:
        raise ValueError("warm_start needs options.resolve(policy): project_feedback is None")
    if state.round != 1 or any(a.pulls for a in state.arms):
        raise WarmStartError("warm start requires a fresh state")
    return [_play(state, instance, arm, arm, 0.0, 0.0, project) for arm in range(instance.k)]


def round_player(state: SimState, policy: PolicyKind, drift: DriftModel,
                 instance: BanditInstance, options: MechanismOptions) -> Callable[[], RoundRecord]:
    """play(): one incentivized round on `state`, in place, and its record; `options` must be
    resolved.  The player keeps its own copy of the view, updated with one division a round,
    so `state` may change only through play() while the player is in use."""
    view = state.policy_view()
    project = options.project_feedback
    if project is None:
        raise ValueError("step needs options.resolve(policy): project_feedback is None")
    posted, pulls = list(view.posted), list(view.pulls)

    def play() -> RoundRecord:
        view = PolicyView(state.round, tuple(posted), tuple(pulls))
        chosen = select_arm(policy, view, state.rng)
        greedy = greedy_choice(view)
        x = b = 0.0
        if chosen != greedy:
            x = posted[greedy] - posted[chosen]
            b = drift_apply(drift, x)
        rec = _play(state, instance, chosen, greedy, x, b, project)
        arm = state.arms[chosen]
        pulls[chosen], posted[chosen] = arm.pulls, arm.feedback_sum / arm.pulls
        return rec

    return play


def step(state: SimState, policy: PolicyKind, drift: DriftModel,
         instance: BanditInstance, options: MechanismOptions) -> RoundRecord:
    """One round of a fresh round_player: play it on `state`; `options` must be resolved."""
    return round_player(state, policy, drift, instance, options)()


BLOCK_ROUNDS = 1024  # rounds a run hands on, and a trajectory reader reads, together


def check_run_args(instance: BanditInstance, horizon: int) -> None:
    """InputError naming the horizon unless it covers the warm start."""
    if horizon < instance.k:
        raise InputError("horizon", f"{horizon} is shorter than the warm start over "
                                    f"{instance.k} arms")


def check_finite(arms: Sequence[ArmState]) -> None:
    """BanditError naming the first arm whose feedback_sum, drift_sum or comp_sum is not
    finite.  A sum that turned +-inf or nan never turns finite again, so a run that
    passes at its end never posted a non-finite mean."""
    for i, arm in enumerate(arms):
        for name in ("feedback_sum", "drift_sum", "comp_sum"):
            value = getattr(arm, name)
            if not math.isfinite(value):
                raise BanditError(f"run overflowed: arm {i} {name} is {value}")


def curve_rounds(horizon: int, stride: int) -> list[int]:
    """The rounds a curve samples: every `stride`-th round, and the final round."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return [t for t in range(1, horizon + 1) if t % stride == 0 or t == horizon]


def run(instance: BanditInstance, policy: PolicyKind, drift: DriftModel,
        options: MechanismOptions, horizon: int, seed: int | RngStream,
        *, keep_records: bool = True,
        on_block: Callable[[list[RoundRecord]], None] | None = None) -> SimState:
    """Warm-start, then play one round_player until `horizon` rounds are played; the final state.

    `seed` is either an integer (seeding the production stream) or an
    RngStream instance (e.g. ScriptedRng for golden traces).  Deterministic:
    identical inputs give bit-identical runs.  The final state's `records`
    holds every round's record with keep_records=True; with keep_records=False
    it holds none, and the run holds one block at a time.  `on_block`, if
    given, is called with each block of records as soon as it is played, in
    round order: rounds 1..BLOCK_ROUNDS (the warm start first), then the next
    BLOCK_ROUNDS, and so on, the blocks record_blocks cuts from the records.
    A run whose arm sums overflow raises BanditError (check_finite) after its
    last block.
    """
    check_run_args(instance, horizon)
    rng = NumpyRng(seed) if isinstance(seed, numbers.Integral) else seed
    state = SimState.fresh(instance, rng)
    options = options.resolve(policy)

    pending = warm_start(state, instance, options)
    play = round_player(state, policy, drift, instance, options)
    for start in range(0, horizon, BLOCK_ROUNDS):
        end = min(start + BLOCK_ROUNDS, horizon)
        while state.round <= end:
            pending.append(play())
        block, pending = pending[:end - start], pending[end - start:]
        if keep_records:
            state.records += block
        if on_block is not None:
            on_block(block)
    check_finite(state.arms)
    return state


REAL_FORMAT = "%.9g"  # every real in every CSV and printed line: 9 significant digits

# Each CSV file's columns, and the row template whose `%` over a row's values is its line.
TRAJECTORY_COLUMNS = ("t", "chosen", "greedy", "compensated", "compensation",
                      "drift", "raw_reward", "feedback", "cum_regret", "cum_compensation")
TRAJECTORY_ROW = ",".join(["%d"] * 4 + [REAL_FORMAT] * 6)
SUMMARY_COLUMNS = ("policy", "l", "T", "seed", "regret", "compensation",
                   "comp_rounds", "arm1_rel_error")
SUMMARY_ROW = ",".join(["%s", REAL_FORMAT, "%d", "%d", REAL_FORMAT, REAL_FORMAT, "%d", REAL_FORMAT])
SWEEP_COLUMNS = ("policy", "l", "regret_mean", "regret_std", "comp_mean",
                 "comp_std", "comp_rounds_mean", "arm1_err_mean")
SWEEP_ROW = ",".join(["%s"] + [REAL_FORMAT] * 7)
CURVE_COLUMNS = ("policy", "l", "t", "cum_regret_mean", "cum_compensation_mean")
CURVE_ROW = ",".join(["%s", REAL_FORMAT, "%d", REAL_FORMAT, REAL_FORMAT])


def fmt_real(x: float) -> str:
    """A real as every CSV and printed line writes it (REAL_FORMAT)."""
    return REAL_FORMAT % x


def record_blocks(state: SimState):
    """A finished run's records cut into the blocks run() hands its on_block: BLOCK_ROUNDS
    rounds each, the last one shorter."""
    records = state.records
    if not records:
        raise ValueError("run carries no records (played with keep_records=False?)")
    return (records[start:start + BLOCK_ROUNDS] for start in range(0, len(records), BLOCK_ROUNDS))


def read_blocks(gap_vector: Sequence[float]):
    """read(block) -> (cum_regret, cum_compensation), called per block in round order.

    The two arrays hold the run's totals after each of the block's rounds, the
    trajectory.csv columns of the same names.  The reader carries each arm's running
    (pulls, comp_sum) from call to call: np.cumsum adds each round's increments in round
    order under that carry, so every value is bit-equal to the ArmState field the run held
    (adding +0.0 leaves a non-negative sum unchanged), and the totals are accounting_totals
    over those per-arm columns after each round, however the records are cut into blocks.
    """
    k = len(gap_vector)
    carry = np.zeros((2, k))

    def read(block: Sequence[RoundRecord]):
        running = np.zeros((len(block) + 1, 2, k))
        running[0] = carry
        # flat index of each round's pulls cell; its comp_sum cell is k on
        at = np.arange(2 * k, running.size, 2 * k) + [r.chosen for r in block]
        running.reshape(-1)[at] = 1.0
        running.reshape(-1)[at + k] = [r.compensation for r in block]
        carry[:] = running.cumsum(axis=0, out=running)[-1]
        return accounting_totals(gap_vector, [ArmState(pulls=p, comp_sum=c)
                                              for p, c in running[1:].transpose(2, 1, 0)])

    return read


def curve_of(state: SimState, stride: int) -> Curve:
    """The cumulative regret/compensation of a run with records at curve_rounds(T, stride).

    The point of round t is row t of trajectory.csv: its cum_regret and
    cum_compensation columns, the totals after t pulls, warm start included.
    """
    rounds = curve_rounds(len(state.records), stride)
    regret, comp = zip(*map(read_blocks(state.gap_vector), record_blocks(state)))
    rows = np.array(rounds) - 1  # round t is row t of the CSV, index t - 1
    return Curve(rounds, np.concatenate(regret)[rows].tolist(),
                 np.concatenate(comp)[rows].tolist())


class CurveProbe:
    """A lockstep.run_lanes probe that reads every lane's curve at curve_rounds(horizon, stride):
    accounting_totals over the live per-arm views after the credit, as curve_of reads row t."""

    def __init__(self, gap_vector: Sequence[float], horizon: int, stride: int) -> None:
        self.rounds = curve_rounds(horizon, stride)
        self._gaps, self._points, self._totals = gap_vector, set(self.rounds), []

    def __call__(self, t: int, arms: Sequence[ArmState]) -> None:
        if t in self._points:
            self._totals.append(accounting_totals(self._gaps, arms))

    def curves(self) -> list[Curve]:
        """One Curve per lane, in the order of run_lanes' lanes."""
        regret, comp = np.array(self._totals).transpose(1, 2, 0).tolist()  # (2, lanes, points)
        return [Curve(list(self.rounds), r, c) for r, c in zip(regret, comp)]


def trajectory_lines(gap_vector: Sequence[float]):
    """lines(block): a block's CSV lines (no terminator), called per block in round order.

    Every consumer of a run's rows (`run`, write_trajectory_csv, `trace`,
    trajectory_rows) reads these lines, so the format lives here only.
    """
    read = read_blocks(gap_vector)

    def lines(block: Sequence[RoundRecord]) -> list[str]:
        regret, comp = read(block)
        return [TRAJECTORY_ROW % (r.t, r.chosen, r.greedy, r.compensated, r.compensation,
                                  r.drift, r.raw_reward, r.feedback, cum_regret, cum_comp)
                for r, cum_regret, cum_comp in zip(block, regret.tolist(), comp.tolist())]

    return lines


def trajectory_rows(state: SimState):
    """Yield a finished run's CSV rows (tuples of strings) in TRAJECTORY_COLUMNS order."""
    for lines in map(trajectory_lines(state.gap_vector), record_blocks(state)):
        for line in lines:
            yield tuple(line.split(","))


@contextmanager
def csv_file(path, columns: Sequence[str]):
    """Open a CSV file for writing: yields write(lines), which writes a block of row-template
    lines at once, each ended with CRLF as the csv module ends it (no field ever needs
    quoting).  The header is written first.  The file is written under a temporary name
    beside `path` and renamed onto `path` only when the block exits without an error, so a
    failed write leaves no partial file and any earlier file at `path` as it was."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", newline="") as fh:
            def write(lines: Sequence[str]) -> None:
                fh.write("\r\n".join([*lines, ""]))  # each line ended, an empty block writes nothing

            write([",".join(columns)])
            yield write
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_csv(path, columns: Sequence[str], blocks) -> None:
    """The writer of every CSV file: the header, then each block of lines (csv_file)."""
    with csv_file(path, columns) as write:
        for lines in blocks:
            write(lines)


def write_trajectory_csv(state: SimState, path) -> None:
    write_csv(path, TRAJECTORY_COLUMNS,
              map(trajectory_lines(state.gap_vector), record_blocks(state)))
