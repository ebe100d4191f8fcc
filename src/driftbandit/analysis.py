"""Closed-form regret/compensation bound evaluators and run summaries.

The bounds take the true gaps and the drift Lipschitz coefficient as inputs;
they are evaluation tools for the simulator's operator, never visible to the
policies.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (BanditInstance, DiagnosticError, InputError, SimState, accounting_totals,
                   at_least, posted_mean)
from .mechanism import RoundRecord


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed-form bounds need.

    K and delta_min are read from the gaps.  delta_lower is the posted-mean
    separation parameter of the Thompson bounds; it is not computable a priori,
    so by convention it defaults to the minimum pairwise gap of the true means
    (a proxy, overridable).
    """

    horizon: int
    lipschitz: float
    gaps: tuple[float, ...]
    delta_lower: float
    c: float

    def __post_init__(self) -> None:
        if not any(g > 0 for g in self.gaps):
            raise ValueError("need at least one suboptimal arm")
        if (delta := self.delta_min) * delta == 0:  # the bounds divide by every gap's square
            raise InputError("gaps", f"must have a smallest gap with a square above 0, got {delta}")
        at_least("horizon", self.horizon, 2)  # the bounds take ln T
        at_least("lipschitz", self.lipschitz, 0)
        at_least("delta_lower", self.delta_lower, 0, strict=True)
        square = self.delta_lower * self.delta_lower  # the Thompson bounds divide by it
        if square == 0:
            raise InputError("delta_lower", f"must have a square above 0, got {self.delta_lower}")
        if square == math.inf:
            raise InputError("delta_lower", f"must have a finite square, got {self.delta_lower}")
        at_least("c", self.c, 0, strict=True)

    @property
    def k(self) -> int:
        return len(self.gaps)

    @property
    def delta_min(self) -> float:
        return min(g for g in self.gaps if g > 0)

    @classmethod
    def from_instance(cls, instance: BanditInstance, *, horizon: int,
                      lipschitz: float, c: float,
                      delta_lower: float | None = None) -> "BoundInputs":
        if delta_lower is None:
            delta_lower = min_pairwise_gap(instance.arm_means)
        return cls(horizon=horizon, lipschitz=lipschitz, gaps=instance.gap_vector,
                   delta_lower=delta_lower, c=c)


def min_pairwise_gap(means) -> float:
    """Smallest absolute difference between any two distinct means."""
    diffs = [abs(a - b) for i, a in enumerate(means) for b in means[i + 1:] if a != b]
    if not diffs:
        raise ValueError("all means are equal")
    return min(diffs)


def ucb_regret_bound(inputs: BoundInputs) -> float:
    """Regret bound for incentivized UCB: sum of 8(l+1)^2 ln T / gap plus a
    per-arm (K-1) pi^2 / 3 constant, exactly as the closed form is stated."""
    log_t = math.log(inputs.horizon)
    lp1 = inputs.lipschitz + 1.0
    total = 0.0
    for g in inputs.gaps:
        if g > 0:
            total += 8.0 * lp1 * lp1 * log_t / g + g * (inputs.k - 1) * math.pi ** 2 / 3.0
    return total


def ucb_comp_bound(inputs: BoundInputs) -> float:
    """Compensation bound for incentivized UCB."""
    log_t = math.log(inputs.horizon)
    lp1 = inputs.lipschitz + 1.0
    total = 16.0 * lp1 * log_t / inputs.delta_min
    total += 2.0 * math.pi * inputs.k * math.sqrt(2.0 * log_t / 3.0)
    for g in inputs.gaps:
        if g > 0:
            total += 16.0 * lp1 * log_t / g
    return total


def egreedy_arm_slope(c: float, lipschitz: float, gap: float) -> float:
    """Per-arm log coefficient 1.5 + 3(1+sqrt(3/c)) l + 18 c / gap^2, with 0 for l = 0."""
    drift = 3.0 * (1.0 + math.sqrt(3.0 / c)) * lipschitz if lipschitz else 0.0
    return 1.5 + drift + 18.0 * c / (gap * gap)


def egreedy_regret_bound(inputs: BoundInputs) -> float:
    """Regret bound for incentivized epsilon-greedy (requires c > 0; the
    schedule condition c >= 36/delta is advisory, see check_c_condition)."""
    log_t = math.log(inputs.horizon)
    total = inputs.c * (inputs.k - 1) * (inputs.k + math.pi ** 2 / 6.0)
    for g in inputs.gaps:
        if g > 0:
            total += inputs.c * egreedy_arm_slope(inputs.c, inputs.lipschitz, g) * (log_t + 1.0)
    return total


def egreedy_comp_bound(inputs: BoundInputs) -> float:
    """Compensation bound max(l,1) (c + sqrt(3c)) K (ln T + 1).

    The (+1) on the log factor follows the derivation's final form; the
    tighter display without it does not cover small horizons.
    """
    c = inputs.c
    return (max(inputs.lipschitz, 1.0) * (c + math.sqrt(3.0 * c)) * inputs.k
            * (math.log(inputs.horizon) + 1.0))


def thompson_pull_log_term(horizon: int, gap: float) -> float:
    """18 ln(T gap^2) / gap^2, clamped at 0 when T gap^2 <= 1."""
    val = 18.0 * math.log(horizon * gap * gap) / (gap * gap)
    return val if val > 0 else 0.0


def thompson_pull_drift_term(horizon: int, gap: float, lipschitz: float,
                             delta_lower: float) -> float:
    """Drift-inflated pull threshold, rounded up to an integer; inf when it overflows
    (nan included: inf/inf when both 4 gap l and 3 delta_lower^2 overflow)."""
    log_t = math.log(horizon)
    dl2 = delta_lower * delta_lower
    inner = ((1.0 + 4.0 * gap * lipschitz / (3.0 * dl2)) * log_t
             + math.sqrt(1.0 + 8.0 * gap * lipschitz * log_t / (3.0 * dl2)))
    threshold = 9.0 / (2.0 * gap * gap) * inner
    return math.ceil(threshold) if math.isfinite(threshold) else math.inf


def thompson_regret_bound(inputs: BoundInputs) -> float:
    """Regret bound for incentivized Thompson sampling."""
    total = 0.0
    big = 4.0 * math.e ** 11 + 21.0
    for g in inputs.gaps:
        if g > 0:
            total += (big * thompson_pull_log_term(inputs.horizon, g)
                      + 5.0 / (g * g)
                      + thompson_pull_drift_term(inputs.horizon, g, inputs.lipschitz,
                                                 inputs.delta_lower)
                      + math.pi ** 2 / 6.0)
    return total


def thompson_comp_bound(inputs: BoundInputs) -> float:
    """Compensation bound 2 max(l,1) K ln T / delta_lower^2."""
    return (2.0 * max(inputs.lipschitz, 1.0) * inputs.k * math.log(inputs.horizon)
            / (inputs.delta_lower * inputs.delta_lower))


def comp_frequency_bound(delta_lower: float, horizon: int) -> float:
    """Per-arm bound 2 ln T / delta_lower^2 on compensated pulls under
    Thompson sampling (BoundInputs holds delta_lower > 0)."""
    return 2.0 * math.log(horizon) / (delta_lower * delta_lower)


def check_c_condition(c: float, delta: float) -> bool:
    """Whether c satisfies the epsilon-greedy schedule condition c >= 36/delta.

    Advisory only: the agent does not know delta, so nothing enforces this at
    selection time."""
    return c >= 36.0 / delta


def ucb_drift_check(k: int, lipschitz: float):
    """check(block) -> (per_round, cumulative): UCB's drift inequalities, fed a K-arm UCB
    run's blocks of records in round order, as run(..., on_block=) hands them on.

    Each round t > K, with the arm state before its credit, has x_t <= sqrt(2 ln t / n_{I_t})
    (the UCB1 radius) and B_i <= 2 l sqrt(2 n_i ln t) for every arm.  Raises DiagnosticError
    at the first bound exceeded by more than 1e-9 max(1, bound); else returns the largest
    x_t / radius and B_i / bound so far, 0/0 read as 0 and B_i > 0 over a zero bound as inf.
    """
    pulls = [0] * k
    drift = [0.0] * k
    unchecked = range(k)  # the arms whose state no bound has seen since it changed
    per_round = cumulative = 0.0

    def check(block: Sequence[RoundRecord]) -> tuple[float, float]:
        nonlocal unchecked, per_round, cumulative
        for r in block:
            t, chosen = r.t, r.chosen
            if t > k:
                log_t = math.log(t)
                x, radius = r.compensation, math.sqrt(2.0 * log_t / pulls[chosen])
                if x > radius + 1e-9 * max(1.0, radius):
                    raise DiagnosticError(f"round {t}: compensation {x} exceeds "
                                          f"per-round drift bound {radius}")
                per_round = max(per_round, x / radius)
                # An arm's bound only grows with t while its (n_i, B_i) stands still: 2 n ln t
                # strictly increases, and every operation after it is monotone.  So only the
                # arms credited since the last check can newly break it or raise the maximum:
                # all K at round K+1, then the one arm credited the round before.
                for i in unchecked:
                    b, cap = drift[i], 2.0 * lipschitz * math.sqrt(2.0 * pulls[i] * log_t)
                    if b > cap + 1e-9 * max(1.0, cap):
                        raise DiagnosticError(f"round {t}: arm {i} cumulative drift {b} "
                                              f"exceeds bound {cap}")
                    if b > 0:
                        cumulative = max(cumulative, b / cap if cap else math.inf)
                unchecked = (chosen,)
            pulls[chosen] += 1
            drift[chosen] += r.drift
        return per_round, cumulative

    return check


@dataclass(frozen=True)
class SummaryMetrics:
    """End-of-run scalars: the table quantities."""

    regret: float
    compensation: float
    comp_rounds: int  # rounds paid ("N")
    arm1_rel_error: float  # relative posted-mean error on the best arm ("E")
    per_arm: tuple[tuple[int, int, float], ...]  # (pulls, comp_count, drift_sum)


def summarize(state: SimState, instance: BanditInstance) -> SummaryMetrics:
    """Reduce a run's final state to its summary metrics."""
    best = instance.best_arm
    mu_best = instance.arm_means[best]
    rel_err = abs(posted_mean(state.arms[best]) - mu_best) / mu_best
    regret, compensation = accounting_totals(state.gap_vector, state.arms)
    return SummaryMetrics(
        regret=regret,
        compensation=compensation,
        comp_rounds=sum(a.comp_count for a in state.arms),
        arm1_rel_error=rel_err,
        per_arm=tuple((a.pulls, a.comp_count, a.drift_sum) for a in state.arms),
    )
