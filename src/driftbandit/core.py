"""Domain types and primitive operations shared by every policy.

The environment (true arm means, noise), the drift model applied to
compensation, per-arm statistics, and the posted (drifted) mean that is the
only statistic visible to the principal and the players.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .rng import LaneStreams, RngStream


class BanditError(Exception):
    """Base class for simulation errors."""


class UndefinedStatisticError(BanditError):
    """A per-arm statistic was requested before the arm was ever pulled."""


class WarmStartError(BanditError):
    """A policy was consulted while some arm still has zero pulls."""


class NonUniqueOptimumError(BanditError, ValueError):
    """Two or more arms share the maximum true mean."""


class DiagnosticError(BanditError):
    """A run breaks an inequality of the analysis (analysis.ucb_drift_slack)."""


class InputError(ValueError):
    """An input breaks a rule of the type that owns it: str() is "<field> <problem>",
    and a front end names the field by its own flag or key."""

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(field, problem)  # both in args, so the error pickles
        self.field = field
        self.problem = problem

    def __str__(self) -> str:
        return f"{self.field} {self.problem}"


def at_least(field: str, value: float, low: float, strict: bool = False) -> None:
    """InputError naming `field` unless `value` is finite and >= low (> low if strict)."""
    if not abs(value) <= sys.float_info.max:  # nan, infinities and ints beyond float range
        raise InputError(field, f"must be finite, got {value}")
    if value < low or (strict and value == low):
        raise InputError(field, f"must be {'>' if strict else '>='} {low}, got {value}")


def gaps(arm_means: Sequence[float]) -> tuple[tuple[float, ...], float]:
    """Per-arm suboptimality gaps and their positive minimum.

    Returns (gap_vector, delta_min) where gap_vector[i] is the distance from
    the best mean (0 for the best arm) and delta_min is the smallest positive
    gap.  Raises NonUniqueOptimumError when the maximum mean is attained by
    more than one arm.
    """
    best = max(arm_means)
    if sum(1 for m in arm_means if m == best) != 1:
        raise NonUniqueOptimumError(f"maximum mean {best} attained by more than one arm")
    vec = tuple(best - m for m in arm_means)
    return vec, min(g for g in vec if g > 0)


NOISE_KINDS = ("gaussian", "bernoulli")
DRIFT_KINDS = ("linear", "clipped_linear")


@dataclass(frozen=True)
class NoiseModel:
    """Reward noise: 'bernoulli' (mean-parameterized coin) or 'gaussian' (additive)."""

    kind: str
    sigma: float = 0.0  # gaussian only

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise InputError("kind", f"must be one of {NOISE_KINDS}, got {self.kind!r}")
        at_least("sigma", self.sigma, 0)


@dataclass(frozen=True)
class BanditInstance:
    """Ground-truth environment: true arm means and the noise model.

    Known only to the simulator; policies never see these fields.  Requires at
    least two arms, means in (0, 1], and a unique best arm.
    """

    arm_means: tuple[float, ...]
    noise: NoiseModel
    best_arm: int = field(init=False)
    gap_vector: tuple[float, ...] = field(init=False)
    delta_min: float = field(init=False)

    def __post_init__(self) -> None:
        means = tuple(float(m) for m in self.arm_means)
        object.__setattr__(self, "arm_means", means)
        if len(means) < 2:
            raise ValueError("need at least 2 arms")
        if any(not 0 < m <= 1 for m in means):
            raise ValueError("arm means must lie in (0, 1]")
        vec, dmin = gaps(means)
        object.__setattr__(self, "best_arm", vec.index(0.0))
        object.__setattr__(self, "gap_vector", vec)
        object.__setattr__(self, "delta_min", dmin)

    @property
    def k(self) -> int:
        return len(self.arm_means)


@dataclass(frozen=True)
class DriftModel:
    """Feedback drift as a function of compensation.

    Kinds: 'linear' (lipschitz * x) and 'clipped_linear' (linear up to an
    absolute cap).  Both are non-decreasing, vanish at 0, and are Lipschitz
    with constant `lipschitz`; lipschitz = 0 is no drift.
    """

    kind: str
    lipschitz: float = 0.0
    cap: float | None = None  # clipped_linear only

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise InputError("kind", f"must be one of {DRIFT_KINDS}, got {self.kind!r}")
        at_least("lipschitz", self.lipschitz, 0)
        if self.kind == "clipped_linear":
            if self.cap is None:
                raise InputError("cap", "is required by clipped_linear")
            at_least("cap", self.cap, 0)
        elif self.cap is not None:
            raise InputError("cap", f"applies to clipped_linear only, not {self.kind}")


def drift_apply(model: DriftModel, x: float) -> float:
    """Drift injected into feedback for compensation x >= 0."""
    if x < 0:
        raise ValueError(f"compensation must be >= 0, got {x} (mechanism bug upstream)")
    b = model.lipschitz * x
    if model.kind == "clipped_linear" and b > model.cap:
        return model.cap
    return b


def lane_drift(models: Sequence[DriftModel]):
    """drift_apply for many lanes at once: x[j] -> drift_apply(models[j], x[j]).

    The models may differ only in their Lipschitz coefficient.  Returns a
    function apply(x, out) that writes the drift of the (lanes,) compensation
    array x, which must be >= 0, into out.
    """
    kinds = {(m.kind, m.cap) for m in models}
    if len(kinds) != 1:
        raise ValueError(f"lanes must share one drift kind and cap, got {sorted(kinds, key=str)}")
    kind, cap = kinds.pop()
    lipschitz = np.array([m.lipschitz for m in models])

    def apply(x: np.ndarray, out: np.ndarray) -> None:
        np.multiply(lipschitz, x, out=out)
        if kind == "clipped_linear":
            np.minimum(out, cap, out=out)

    return apply


@dataclass(slots=True)
class ArmState:
    """Running statistics for one arm, all in drifted-feedback terms."""

    pulls: int = 0
    feedback_sum: float = 0.0  # sum of credited (drifted, possibly projected) feedback
    drift_sum: float = 0.0  # cumulative injected drift
    comp_count: int = 0  # pulls that carried compensation
    comp_sum: float = 0.0  # cumulative compensation paid for this arm


def posted_mean(arm: ArmState) -> float:
    """Average drifted feedback: the one statistic policies and players see."""
    if arm.pulls < 1:
        raise UndefinedStatisticError("posted mean undefined before the first pull")
    return arm.feedback_sum / arm.pulls


def true_empirical_mean(arm: ArmState) -> float:
    """Average of true rewards with the drift backed out.  Diagnostic only."""
    if arm.pulls < 1:
        raise UndefinedStatisticError("empirical mean undefined before the first pull")
    return (arm.feedback_sum - arm.drift_sum) / arm.pulls


class PolicyView(NamedTuple):
    """What a policy is allowed to observe: posted means, pulls, the round."""

    t: int
    posted: tuple[float, ...]
    pulls: tuple[int, ...]


def accounting_totals(gap_vector: Sequence[float],
                      arms: Sequence[ArmState]) -> tuple[float, float]:
    """(sum of gap_i * pulls_i, sum of comp_sum_i), added left to right in arm order.

    Builtin sum() (compensated since Python 3.12), np.sum (pairwise) and a
    running per-round total each round differently, and would change outputs.
    """
    regret = 0.0
    comp = 0.0
    for g, a in zip(gap_vector, arms):
        regret += g * a.pulls
        comp += a.comp_sum
    return regret, comp


@dataclass
class SimState:
    """Global simulation state for one run.

    Owns the rng stream, so independent replications can run in parallel.
    Cumulative regret and compensation are derived from the per-arm counters
    in arm-index order, which makes the accounting identities exact rather
    than subject to per-round float accumulation order.  `posted` and `pulls`
    are the live policy view of `arms`: derived from them whenever `arms` is
    assigned (by the constructor, dataclasses.replace or a plain assignment),
    then kept by credit(), which is how a round changes an arm.  An ArmState
    edited in place outside credit() is not followed.
    """

    round: int  # 1-based
    arms: list[ArmState]
    gap_vector: tuple[float, ...]  # environment-side, for regret accounting
    rng: RngStream
    posted: list[float] = field(init=False, repr=False, compare=False)  # 0.0 while unpulled
    pulls: list[int] = field(init=False, repr=False, compare=False)

    @classmethod
    def fresh(cls, instance: BanditInstance, rng: RngStream) -> "SimState":
        return cls(round=1, arms=[ArmState() for _ in range(instance.k)],
                   gap_vector=instance.gap_vector, rng=rng)

    @property
    def cum_regret(self) -> float:
        return accounting_totals(self.gap_vector, self.arms)[0]

    @property
    def cum_compensation(self) -> float:
        return accounting_totals(self.gap_vector, self.arms)[1]

    def credit(self, i: int, feedback: float, drift: float, paid: bool, x: float) -> None:
        """Credit one pull of arm i: its feedback and drift, and x if it was paid for;
        then its entries of the live view."""
        arm = self._arms[i]
        arm.pulls += 1
        arm.feedback_sum += feedback
        arm.drift_sum += drift
        if paid:
            arm.comp_count += 1
            arm.comp_sum += x
        self.pulls[i] = arm.pulls
        self.posted[i] = arm.feedback_sum / arm.pulls

    def policy_view(self) -> PolicyView:
        if 0 in self.pulls:
            raise WarmStartError("warm start incomplete: an arm has zero pulls")
        return PolicyView(self.round, tuple(self.posted), tuple(self.pulls))


def _set_arms(state: SimState, arms: list[ArmState]) -> None:
    state._arms = arms
    state.posted = [a.feedback_sum / a.pulls if a.pulls else 0.0 for a in arms]
    state.pulls = [a.pulls for a in arms]


# set after the class body, where a property would read as the field's default
SimState.arms = property(lambda state: state._arms, _set_arms)


def sample_reward(instance: BanditInstance, arm: int, rng: RngStream) -> float:
    """Draw one true reward for `arm`; consumes exactly one rng value."""
    mu = instance.arm_means[arm]
    noise = instance.noise
    if noise.kind == "bernoulli":
        return 1.0 if rng.uniform() < mu else 0.0
    return mu + noise.sigma * rng.normal()


def lane_rewards(instance: BanditInstance):
    """sample_reward for many lanes at once, in two steps: returns (draw, reward).

    draw(draws) is the one value sample_reward draws, for every lane of a
    LaneStreams; reward(arms, drawn) is lane j's reward for pulling arms[j]
    with its value drawn[j], exactly as sample_reward would give it.
    """
    means = np.asarray(instance.arm_means)
    noise = instance.noise
    if noise.kind == "bernoulli":
        def draw(draws: LaneStreams) -> np.ndarray:
            return draws.uniform()

        def reward(arms: np.ndarray, drawn: np.ndarray) -> np.ndarray:
            return np.where(drawn < means.take(arms), 1.0, 0.0)
    else:
        sigma = noise.sigma

        def draw(draws: LaneStreams) -> np.ndarray:
            return draws.normal()

        def reward(arms: np.ndarray, drawn: np.ndarray) -> np.ndarray:
            return means.take(arms) + sigma * drawn

    return draw, reward
