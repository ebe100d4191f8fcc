"""Closed-form regret/compensation bound evaluators and run summaries.

The bounds take the true gaps and the drift Lipschitz coefficient as inputs;
they are evaluation tools for the simulator's operator, never visible to the
policies.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BanditInstance, DiagnosticError, accounting_totals, at_least, posted_mean
from .mechanism import Trajectory, read_blocks, record_blocks


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
        at_least("horizon", self.horizon, 2)  # the bounds take ln T
        at_least("lipschitz", self.lipschitz, 0)
        at_least("delta_lower", self.delta_lower, 0, strict=True)
        at_least("c", self.c, 0, strict=True)
        if not any(g > 0 for g in self.gaps):
            raise ValueError("need at least one suboptimal arm")

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
    """Per-arm log coefficient 1.5 + 3(1+sqrt(3/c)) l + 18 c / gap^2."""
    return 1.5 + 3.0 * (1.0 + math.sqrt(3.0 / c)) * lipschitz + 18.0 * c / (gap * gap)


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
                             delta_lower: float) -> int:
    """Drift-inflated pull threshold, rounded up to an integer."""
    log_t = math.log(horizon)
    dl2 = delta_lower * delta_lower
    inner = ((1.0 + 4.0 * gap * lipschitz / (3.0 * dl2)) * log_t
             + math.sqrt(1.0 + 8.0 * gap * lipschitz * log_t / (3.0 * dl2)))
    return math.ceil(9.0 / (2.0 * gap * gap) * inner)


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


def ucb_drift_slack(trajectory: Trajectory, lipschitz: float) -> tuple[float, float]:
    """The largest slacks of UCB's drift inequalities in a UCB run with records.

    Each round t > K, with the arm state before its credit (row t-1), has
    x_t <= sqrt(2 ln t / n_{I_t}) (the UCB1 radius) and B_i <= 2 l sqrt(2 n_i ln t)
    for every arm.  Raises DiagnosticError at the first bound exceeded by more than
    1e-9 max(1, bound); else returns (max x_t / radius, max B_i / bound), 0/0 read as 0.
    """
    gaps = trajectory.final.gap_vector
    per_round = cumulative = 0.0
    for block, running, _, _ in read_blocks(record_blocks(trajectory), gaps):
        late = np.array([r.t for r in block]) > len(gaps)
        t, chosen, x = np.array([(r.t, r.chosen, r.compensation) for r in block])[late].T
        pulls, _, drift = running[:-1][late].transpose(1, 0, 2)  # the state before each credit
        log_t = np.array([math.log(v) for v in t])
        radius = np.sqrt(2.0 * log_t / pulls[np.arange(len(t)), chosen.astype(np.int64)])
        cap = 2.0 * lipschitz * np.sqrt(2.0 * pulls * log_t[:, None])
        over_x = x > radius + 1e-9 * np.maximum(1.0, radius)
        over_b = drift > cap + 1e-9 * np.maximum(1.0, cap)
        bad = over_x | over_b.any(axis=1)
        if bad.any():
            j = bad.argmax()
            if over_x[j]:
                raise DiagnosticError(f"round {t[j]:.0f}: compensation {x[j]} exceeds "
                                      f"per-round drift bound {radius[j]}")
            i = over_b[j].argmax()
            raise DiagnosticError(f"round {t[j]:.0f}: arm {i} cumulative drift {drift[j, i]} "
                                  f"exceeds bound {cap[j, i]}")
        per_round = (x / radius).max(initial=per_round)
        slack = np.divide(drift, cap, out=np.zeros_like(drift), where=drift > 0)
        cumulative = slack.max(initial=cumulative)
    return float(per_round), float(cumulative)


@dataclass(frozen=True)
class SummaryMetrics:
    """End-of-run scalars: the table quantities."""

    regret: float
    compensation: float
    comp_rounds: int  # rounds paid ("N")
    arm1_rel_error: float  # relative posted-mean error on the best arm ("E")
    per_arm: tuple[tuple[int, int, float], ...]  # (pulls, comp_count, drift_sum)


def summarize(trajectory: Trajectory, instance: BanditInstance) -> SummaryMetrics:
    """Reduce a finished run to its summary metrics."""
    state = trajectory.final
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
