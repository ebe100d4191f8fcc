"""Principal arm-selection rules and the player's greedy rule.

All selections are computed solely from the posted (drifted) means and pull
counts exposed through a PolicyView; true means and undrifted empirical means
are not reachable from here.  Ties break to the lowest arm index everywhere,
and a uniform draw u maps to arm floor(u * K), so scripted-stream traces are
exact.

Each rule also has a lane form for the lockstep engine: the view's posted
means and pulls are (lanes, K) float arrays, the draws come from a
LaneStreams, and the result is one arm per lane.  A lane form does the
scalar form's float operations in the same order and draws in the same
order, and np.argmax keeps the first maximum like _argmax, so each lane
picks what the scalar rule would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
        if POLICIES[self.name].takes_c:
            if self.c is None:
                raise InputError("c", f"is required by {self.name}")
            at_least("c", self.c, 0, strict=True)
        elif self.c is not None:
            raise InputError("c", f"is not taken by {self.name}")

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


def _argmax(scores) -> int:
    best = 0
    bv = scores[0]
    for i in range(1, len(scores)):
        v = scores[i]
        if v > bv:
            best = i
            bv = v
    return best


def ucb_index(posted: float, pulls: int, t: int) -> float:
    """Optimism index: posted mean plus sqrt(2 ln t / pulls)."""
    if pulls < 1:
        raise ValueError("ucb index needs pulls >= 1")
    if t < 1:
        raise ValueError("ucb index needs t >= 1")
    return posted + math.sqrt(2.0 * math.log(t) / pulls)


def ucb_select(view: PolicyView) -> int:
    s = math.sqrt(2.0 * math.log(view.t))
    scores = [p + s / math.sqrt(n) for p, n in zip(view.posted, view.pulls)]
    return _argmax(scores)


def ucb_select_lanes(view: PolicyView) -> np.ndarray:
    s = math.sqrt(2.0 * math.log(view.t))
    return (view.posted + s / np.sqrt(view.pulls)).argmax(axis=1)


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


def egreedy_select_lanes(view: PolicyView, c: float, draws: LaneStreams) -> np.ndarray:
    k = view.posted.shape[1]
    eps = epsilon_schedule(c, k, view.t)
    chosen = view.posted.argmax(axis=1)
    explore = np.flatnonzero(draws.uniform() < eps)
    if explore.size:
        arm = (draws.uniform(explore) * k).astype(np.int64)
        chosen[explore] = np.minimum(arm, k - 1)
    return chosen


def thompson_sample(view: PolicyView, rng: RngStream) -> int:
    """Gaussian posterior sampling: theta_i = posted_i + z_i / sqrt(pulls_i + 1).

    Consumes one normal per arm, in arm-index order.
    """
    scores = [p + rng.normal() / math.sqrt(n + 1) for p, n in zip(view.posted, view.pulls)]
    return _argmax(scores)


def thompson_sample_lanes(view: PolicyView, draws: LaneStreams) -> np.ndarray:
    z = draws.normals(view.posted.shape[1])
    return (view.posted + z / np.sqrt(view.pulls + 1.0)).argmax(axis=1)


def greedy_choice(view: PolicyView) -> int:
    """The player's myopic pick: argmax of posted means."""
    return _argmax(view.posted)


def greedy_choice_lanes(view: PolicyView) -> np.ndarray:
    return view.posted.argmax(axis=1)


@dataclass(frozen=True)
class PolicyRule:
    """Everything that tells one principal apart from the others."""

    select: Callable[[PolicyView, float | None, RngStream], int]  # (view, c, rng) -> arm
    # the same rule for (lanes, K) views: (view, c, draws) -> one arm per lane
    select_lanes: Callable[[PolicyView, float | None, LaneStreams], np.ndarray]
    takes_c: bool = False  # whether PolicyKind carries an exploration constant c
    projects_feedback: bool = False  # default of MechanismOptions.project_feedback


POLICIES: dict[str, PolicyRule] = {
    # UCB1 (Auer, Cesa-Bianchi & Fischer 2002)
    "ucb": PolicyRule(lambda view, c, rng: ucb_select(view),
                      lambda view, c, draws: ucb_select_lanes(view)),
    # epsilon_t-greedy, eps_t = min(1, cK/t) (Auer, Cesa-Bianchi & Fischer 2002)
    "egreedy": PolicyRule(egreedy_select, egreedy_select_lanes,
                          takes_c=True, projects_feedback=True),
    # Gaussian Thompson sampling (Agrawal & Goyal 2013)
    "thompson": PolicyRule(lambda view, c, rng: thompson_sample(view, rng),
                           lambda view, c, draws: thompson_sample_lanes(view, draws)),
    # no-incentive baseline: always the player's own pick
    "greedy": PolicyRule(lambda view, c, rng: greedy_choice(view),
                         lambda view, c, draws: greedy_choice_lanes(view)),
}
POLICY_NAMES = tuple(POLICIES)


def select_arm(policy: PolicyKind, view: PolicyView, rng: RngStream) -> int:
    """The principal's choice for one round."""
    return POLICIES[policy.name].select(view, policy.c, rng)
