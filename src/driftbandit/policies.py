"""Principal arm-selection rules and the player's greedy rule.

All selections are computed solely from the posted (drifted) means and pull
counts exposed through a PolicyView; true means and undrifted empirical means
are not reachable from here.  Ties break to the lowest arm index everywhere,
and a uniform draw u maps to arm floor(u * K), so scripted-stream traces are
exact.

Each rule also has a lane form for the lockstep engine, which scores every
lane's arms as posted + bonus and takes the first maximum of each row.  A
lane form sees only the round t and the pulls, the group's (lanes, K) float
rows, and draws from a LaneStreams.  It writes the group's rows of the
engine's bonus array, and does nothing else: UCB s/sqrt(n), Thompson
z/sqrt(n+1), egreedy +inf at each exploring lane's drawn arm and 0.0
elsewhere; greedy leaves its rows at 0.0, and posted + 0.0 has the argmax of
posted.  It does the scalar form's float operations in the same order and
draws in the same order, and np.argmax keeps the first maximum like _argmax,
so each lane picks what the scalar rule would as long as no score is nan
(_argmax([1.0, nan, 2.0]) is 2, np.argmax gives 1).  The posted means of a
run that completes are finite (mechanism.check_finite), so posted + inf is
its row's one infinite score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import InputError, PolicyView, at_least
from .rng import LaneStreams, RngStream


@dataclass(frozen=True)
class PolicyKind:
    """A named selection rule; 'egreedy' carries its exploration constant c.

    'greedy' is the no-incentive baseline that always takes the player's own
    choice (it never pays compensation).
    """

    name: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.name not in POLICY_NAMES:
            raise InputError("name", f"must be one of {POLICY_NAMES}, got {self.name!r}")
        if self.rule.takes_c:
            if self.c is None:
                raise InputError("c", f"is required by {self.name}")
            at_least("c", self.c, 0, strict=True)
        elif self.c is not None:
            raise InputError("c", f"is not taken by {self.name}")

    @property
    def rule(self) -> "PolicyRule":
        return POLICIES[self.name]

    @classmethod
    def ucb(cls) -> "PolicyKind":
        return cls("ucb")

    @classmethod
    def egreedy(cls, c: float) -> "PolicyKind":
        return cls("egreedy", float(c))

    @classmethod
    def thompson(cls) -> "PolicyKind":
        return cls("thompson")

    @classmethod
    def greedy(cls) -> "PolicyKind":
        return cls("greedy")


def _argmax(scores: Sequence[float]) -> int:
    """The index of the first maximum: max() keeps its pick unless a later value is strictly
    greater, and index() returns the first value equal (or, for a nan, identical) to it."""
    return scores.index(max(scores))


def ucb_select(view: PolicyView) -> int:
    s = math.sqrt(2.0 * math.log(view.t))
    scores = [p + s / math.sqrt(n) for p, n in zip(view.posted, view.pulls)]
    return _argmax(scores)


def ucb_bonus_lanes(t: int, pulls: np.ndarray, c: None, draws: LaneStreams,
                    bonus: np.ndarray) -> None:
    np.sqrt(pulls, out=bonus)
    np.divide(math.sqrt(2.0 * math.log(t)), bonus, out=bonus)


def epsilon_schedule(c: float, k: int, t: int) -> float:
    """Exploration probability min(1, cK/t), unchecked: PolicyKind holds c > 0,
    BanditInstance K >= 2, and the engines select only at rounds t > K."""
    eps = c * k / t
    return 1.0 if eps > 1.0 else eps


def egreedy_select(view: PolicyView, c: float, rng: RngStream) -> int:
    """Explore a uniform arm with probability eps_t, else exploit the posted argmax.

    Consumes one uniform for the coin (explore iff coin < eps_t) and, only
    when exploring, a second uniform for the arm.
    """
    k = len(view.posted)
    eps = epsilon_schedule(c, k, view.t)
    if rng.uniform() < eps:
        arm = int(rng.uniform() * k)
        return k - 1 if arm >= k else arm
    return _argmax(view.posted)


def egreedy_bonus_lanes(t: int, pulls: np.ndarray, c: float, draws: LaneStreams,
                        bonus: np.ndarray) -> None:
    k = bonus.shape[1]
    bonus.fill(0.0)
    explore = (draws.uniform() < epsilon_schedule(c, k, t)).nonzero()[0]
    if explore.size:
        arm = (draws.uniform(explore) * k).astype(np.int64)
        bonus[explore, np.minimum(arm, k - 1)] = math.inf


def thompson_sample(view: PolicyView, rng: RngStream) -> int:
    """Gaussian posterior sampling: theta_i = posted_i + z_i / sqrt(pulls_i + 1).

    Consumes one normal per arm, in arm-index order.
    """
    scores = [p + rng.normal() / math.sqrt(n + 1) for p, n in zip(view.posted, view.pulls)]
    return _argmax(scores)


def thompson_bonus_lanes(t: int, pulls: np.ndarray, c: None, draws: LaneStreams,
                         bonus: np.ndarray) -> None:
    np.add(pulls, 1.0, out=bonus)
    np.sqrt(bonus, out=bonus)
    np.divide(draws.normals(bonus.shape[1]), bonus, out=bonus)


def greedy_choice(view: PolicyView) -> int:
    """The player's myopic pick: argmax of posted means."""
    return _argmax(view.posted)


@dataclass(frozen=True)
class PolicyRule:
    """Everything that tells one principal apart from the others."""

    select: Callable[[PolicyView, float | None, RngStream], int]  # (view, c, rng) -> arm
    # the lane form, for (lanes, K) rows: (t, pulls, c, draws, bonus) writes the group's bonus rows
    lane_form: Callable[[int, np.ndarray, float | None, LaneStreams, np.ndarray], None]
    # a lane's share of a lockstep round, relative to UCB's; experiment._chunks weighs by it
    lane_cost: float
    takes_c: bool = False  # whether PolicyKind carries an exploration constant c
    projects_feedback: bool = False  # default of MechanismOptions.project_feedback


# The lane costs are ratios of one-policy lockstep times at the canonical config's size
# (350 lanes, T=20000, process time): ucb 0.87 s, egreedy 1.16, thompson 2.09, greedy 0.71-0.73
# against ucb's 0.84-0.86.  Retimed at 0.68, 0.76, 1.37 and 0.57 s, whose ratios would deal the
# four rules at --jobs 2 more slowly (sweep 1.97 against 1.95 s, medians of 5; README).
POLICIES: dict[str, PolicyRule] = {
    # UCB1 (Auer, Cesa-Bianchi & Fischer 2002)
    "ucb": PolicyRule(lambda view, c, rng: ucb_select(view), ucb_bonus_lanes, 1.0),
    # epsilon_t-greedy, eps_t = min(1, cK/t) (Auer, Cesa-Bianchi & Fischer 2002)
    "egreedy": PolicyRule(egreedy_select, egreedy_bonus_lanes, 1.3,
                          takes_c=True, projects_feedback=True),
    # Gaussian Thompson sampling (Agrawal & Goyal 2013)
    "thompson": PolicyRule(lambda view, c, rng: thompson_sample(view, rng), thompson_bonus_lanes,
                           2.4),
    # no-incentive baseline: always the player's own pick
    "greedy": PolicyRule(lambda view, c, rng: greedy_choice(view),
                         lambda t, pulls, c, draws, bonus: None, 0.8),
}
POLICY_NAMES = tuple(POLICIES)


def select_arm(policy: PolicyKind, view: PolicyView, rng: RngStream) -> int:
    """The principal's choice for one round."""
    return POLICIES[policy.name].select(view, policy.c, rng)
