"""Incentivized multi-armed bandit simulation under compensation-driven reward drift."""

__version__ = "0.1.0"

from .analysis import (
    BoundInputs,
    SummaryMetrics,
    check_c_condition,
    comp_frequency_bound,
    egreedy_comp_bound,
    egreedy_regret_bound,
    min_pairwise_gap,
    summarize,
    thompson_comp_bound,
    thompson_regret_bound,
    ucb_comp_bound,
    ucb_regret_bound,
)
from .core import (
    ArmState,
    BanditError,
    BanditInstance,
    DiagnosticError,
    DriftModel,
    NoiseModel,
    NonUniqueOptimumError,
    PolicyView,
    SimState,
    UndefinedStatisticError,
    WarmStartError,
    drift_apply,
    gaps,
    posted_mean,
    sample_reward,
    true_empirical_mean,
)
from .experiment import (
    AggregateResult,
    CellResult,
    ExperimentConfig,
    ExperimentError,
    aggregate,
    derive_seed,
    run_experiment,
)
from .mechanism import (
    Curve,
    MechanismOptions,
    RoundRecord,
    run,
    step,
    trajectory_rows,
    warm_start,
    write_trajectory_csv,
)
from .policies import (
    PolicyKind,
    egreedy_select,
    epsilon_schedule,
    greedy_choice,
    select_arm,
    thompson_sample,
    ucb_select,
)
from .rng import NumpyRng, RngStream, ScriptedRng, ScriptExhaustedError
