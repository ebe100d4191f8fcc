"""Acceptance suite: every criterion at its stated tolerance.

One pass/fail line is printed per criterion (run with `pytest -s` to stream
them).  Criteria 1-5 and 10 share one replicated sweep of the shipped
nine-arm Gaussian benchmark restricted to drift coefficients {0, 1.1};
criterion 6 runs the theory-compliant Bernoulli environment.  The master
seed comes from the shipped config and is not tuned.

Criteria 1, 2, 4 and 5 check the paper's numerical examples, which are
single runs, so they compare the median replication of each cell with the
single-run reference values; their lines print the replication mean beside
the asserted median.  Criteria 3, 6 and 10 check expectations and bounds and
keep the means.

The setting that produced the reference values is not recorded in the
repository (PAPER.md holds only the abstract).  Against the pinned Thompson
sampler the Thompson references are about ten times too small, so these
sub-checks fail until that setting is in the repository: criterion 1's
TS < eG at l=0 and l=1.1, criterion 2's TS regret and TS compensation bands,
and criterion 4's TS compensated rounds at l=1.1.  Every other sub-check
passes.
"""

import json
import os
import time
from pathlib import Path

import pytest

import test_golden_traces as golden
from driftbandit import (
    BanditInstance,
    BoundInputs,
    DiagnosticError,
    DriftModel,
    ExperimentConfig,
    MechanismOptions,
    NoiseModel,
    PolicyKind,
    check_c_condition,
    comp_frequency_bound,
    egreedy_comp_bound,
    egreedy_regret_bound,
    run,
    run_experiment,
    thompson_comp_bound,
    thompson_regret_bound,
    ucb_comp_bound,
    ucb_regret_bound,
)
from driftbandit.analysis import ucb_drift_slack
from driftbandit.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
NINE_ARM_MEANS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
JOBS = max(1, min(os.cpu_count() or 1, 4))

# reported single-run values the ballpark bands are anchored to; they are
# compared with the median replication.  Their source setting is not recorded
# in the repository, and the Thompson ones (TS_*) are about ten times below
# what the pinned sampler gives (see the module docstring).
UCB_R, EG_R, TS_R = 348.5, 160.0, 25.3
UCB_C, TS_C = 277.2, 18.9
UCB_R_DRIFT, TS_R_DRIFT = 854.2, 74.5


def _med(median, mean, spec=".1f", unit=""):
    """The asserted median with the replication mean beside it."""
    return f"{median:{spec}}{unit} (mean {mean:{spec}}{unit})"


def _report(num, title, checks):
    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{label}{'' if flag else ' <FAIL>'}" for label, flag in checks)
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'} | {title} | {detail}")
    assert ok, f"criterion {num}: " + "; ".join(l for l, f in checks if not f)


@pytest.fixture(scope="session")
def gauss_sweep():
    data = json.loads((REPO / "configs" / "nine_arm_sweep.json").read_text())
    data["l_values"] = [0.0, 1.1]
    data["capture_trajectories"] = True
    data["trajectory_stride"] = 10
    config = ExperimentConfig.from_dict(data)
    assert config.replications == 50 and config.horizon == 20000
    start = time.perf_counter()
    result = run_experiment(config, jobs=JOBS)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def bernoulli_sweep():
    # c just above 36/delta (delta is 0.9-0.8 in floats, slightly under 0.1)
    c = 361.0
    config = ExperimentConfig(
        arm_means=NINE_ARM_MEANS,
        policies=(PolicyKind.ucb(), PolicyKind.egreedy(c), PolicyKind.thompson()),
        l_values=(0.0, 0.5, 1.0),
        horizon=5000,
        replications=100,
        master_seed=20260809,
        noise_kind="bernoulli",
        noise_sigma=0.0,
    )
    start = time.perf_counter()
    result = run_experiment(config, jobs=JOBS)
    return result, time.perf_counter() - start


def test_criterion_1_policy_ordering(gauss_sweep):
    result, elapsed = gauss_sweep
    checks = []
    for l in (0.0, 1.1):
        ucb = result.cell("ucb", l)
        eg = result.cell("egreedy", l)
        ts = result.cell("thompson", l)
        checks.append((
            f"l={l} regret TS {_med(ts.regret_median, ts.regret_mean)} < "
            f"eG {_med(eg.regret_median, eg.regret_mean)}",
            ts.regret_median < eg.regret_median))
        checks.append((
            f"l={l} regret eG {_med(eg.regret_median, eg.regret_mean)} < "
            f"UCB {_med(ucb.regret_median, ucb.regret_mean)}",
            eg.regret_median < ucb.regret_median))
        checks.append((
            f"l={l} comp TS {_med(ts.comp_median, ts.comp_mean)} < "
            f"UCB {_med(ucb.comp_median, ucb.comp_mean)}",
            ts.comp_median < ucb.comp_median))
    checks.append((f"runtime {elapsed:.0f}s < 60s", elapsed < 60.0))
    _report(1, "policy ordering of medians, 50 reps, T=20000", checks)


def test_criterion_2_ballpark_magnitudes(gauss_sweep):
    result, _ = gauss_sweep
    ucb = result.cell("ucb", 0.0)
    ts = result.cell("thompson", 0.0)
    eg = result.cell("egreedy", 0.0)
    print(f"criterion  2 info | eG advisory bands: regret "
          f"{_med(eg.regret_median, eg.regret_mean)} "
          f"vs reported {EG_R} (band [{0.5 * EG_R:.1f}, {2 * EG_R:.1f}]), "
          f"comp {_med(eg.comp_median, eg.comp_mean)}")
    checks = [
        (f"UCB regret {_med(ucb.regret_median, ucb.regret_mean)} "
         f"in [{0.5 * UCB_R}, {2 * UCB_R}]",
         0.5 * UCB_R <= ucb.regret_median <= 2 * UCB_R),
        (f"TS regret {_med(ts.regret_median, ts.regret_mean)} "
         f"in [{0.5 * TS_R}, {2 * TS_R}]",
         0.5 * TS_R <= ts.regret_median <= 2 * TS_R),
        (f"UCB comp {_med(ucb.comp_median, ucb.comp_mean)} "
         f"in [{0.5 * UCB_C}, {2 * UCB_C}]",
         0.5 * UCB_C <= ucb.comp_median <= 2 * UCB_C),
        (f"TS comp {_med(ts.comp_median, ts.comp_mean)} "
         f"in [{0.5 * TS_C}, {2 * TS_C}]",
         0.5 * TS_C <= ts.comp_median <= 2 * TS_C),
    ]
    _report(2, "ballpark magnitudes of medians at l=0", checks)


def test_criterion_3_drift_degradation(gauss_sweep):
    result, _ = gauss_sweep
    ucb0, ucb1 = result.cell("ucb", 0.0), result.cell("ucb", 1.1)
    ts0, ts1 = result.cell("thompson", 0.0), result.cell("thompson", 1.1)
    checks = [
        (f"UCB regret {ucb0.regret_mean:.1f} -> {ucb1.regret_mean:.1f} (x1.5+)",
         ucb1.regret_mean >= 1.5 * ucb0.regret_mean),
        (f"TS regret {ts0.regret_mean:.1f} -> {ts1.regret_mean:.1f} (x1.5+)",
         ts1.regret_mean >= 1.5 * ts0.regret_mean),
    ]
    _report(3, "drift degrades regret", checks)


def test_criterion_4_compensation_frequency(gauss_sweep):
    result, _ = gauss_sweep
    ucb0, ucb1 = result.cell("ucb", 0.0), result.cell("ucb", 1.1)
    total_bound = comp_frequency_bound(0.1, 20000) * 9
    threshold = total_bound / 10  # required margin of 10x
    checks = [
        (f"UCB comp_rounds {_med(ucb0.comp_rounds_median, ucb0.comp_rounds_mean, '.0f')}"
         f" -> {_med(ucb1.comp_rounds_median, ucb1.comp_rounds_mean, '.0f')} (x1.5+)",
         ucb1.comp_rounds_median >= 1.5 * ucb0.comp_rounds_median),
    ]
    for l in (0.0, 1.1):
        ts = result.cell("thompson", l)
        checks.append((
            f"TS comp_rounds l={l} {_med(ts.comp_rounds_median, ts.comp_rounds_mean, '.0f')}"
            f" < {threshold:.0f} (=bound/10)",
            ts.comp_rounds_median < threshold))
    _report(4, "compensation frequency of medians", checks)


def test_criterion_5_estimation_error(gauss_sweep):
    result, _ = gauss_sweep
    checks = []
    for policy in ("ucb", "egreedy", "thompson"):
        for l in (0.0, 1.1):
            cell = result.cell(policy, l)
            errs = [m.arm1_rel_error for m in cell.rep_metrics]
            worst = max(range(len(errs)), key=errs.__getitem__)
            over = sum(e > 0.05 for e in errs)
            checks.append((
                f"{policy} l={l} arm1 err "
                f"{_med(100 * cell.arm1_err_median, 100 * cell.arm1_err_mean, unit='%')} < 5% "
                f"[{over}/{len(errs)} reps > 5%, worst rep {worst} "
                f"{100 * errs[worst]:.1f}%]",
                cell.arm1_err_median < 0.05))
    _report(5, "best-arm estimation error of medians", checks)


def test_criterion_6_theoretical_bound_compliance(bernoulli_sweep):
    result, elapsed = bernoulli_sweep
    config = result.config
    instance = config.instance()
    c = config.policies[1].c
    assert check_c_condition(c, instance.delta_min)
    checks = []
    for l in config.l_values:
        inputs = BoundInputs.from_instance(instance, horizon=config.horizon,
                                           lipschitz=l, c=c)
        pairs = (
            ("ucb", ucb_regret_bound, ucb_comp_bound),
            ("egreedy", egreedy_regret_bound, egreedy_comp_bound),
            ("thompson", thompson_regret_bound, thompson_comp_bound),
        )
        for name, regret_bound, comp_bound in pairs:
            cell = result.cell(name, l)
            rb, cb = regret_bound(inputs), comp_bound(inputs)
            checks.append((
                f"{name} l={l} regret {cell.regret_mean:.0f} <= {rb:.0f}",
                cell.regret_mean <= rb))
            checks.append((
                f"{name} l={l} comp {cell.comp_mean:.0f} <= {cb:.0f}",
                cell.comp_mean <= cb))
        ts = result.cell("thompson", l)
        freq_bound = comp_frequency_bound(inputs.delta_lower, config.horizon)
        worst = max(ts.comp_count_per_arm_mean)
        checks.append((
            f"TS l={l} max per-arm comp pulls {worst:.1f} <= {freq_bound:.0f}",
            worst <= freq_bound))
    checks.append((f"runtime {elapsed:.0f}s < 120s", elapsed < 120.0))
    _report(6, "Bernoulli bound compliance, 100 reps, T=5000", checks)


def test_criterion_7_runtime_ucb_diagnostics():
    instance = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    l_cycle = (0.0, 0.5, 1.0, 1.1)
    violations = []
    per_round = cumulative = 0.0
    for seed in range(20):
        l = l_cycle[seed % 4]
        traj = run(instance, PolicyKind.ucb(), DriftModel("linear", lipschitz=l),
                   MechanismOptions(), 5000, seed)
        try:
            slack = ucb_drift_slack(traj, l)
        except DiagnosticError as exc:
            violations.append(f"seed {seed}: {exc}")
            continue
        per_round, cumulative = max(per_round, slack[0]), max(cumulative, slack[1])
    _report(7, "per-round UCB drift inequalities over 20 runs, read from their records",
            [(f"{len(violations)} violations" + "".join(f"; {v}" for v in violations),
              not violations),
             (f"largest x_t/radius {per_round:.6f}, largest B_i/bound {cumulative:.6f}", True)])


def test_criterion_8_oracle_traces():
    golden.test_ucb_golden_trace()
    golden.test_egreedy_golden_trace()
    golden.test_thompson_golden_trace()
    _report(8, "hand-computed golden traces, bit-for-bit",
            [("ucb/egreedy/thompson traces match", True)])


def test_criterion_9_identity_and_determinism(tmp_path):
    checks = []
    instance = BanditInstance(NINE_ARM_MEANS, NoiseModel("gaussian", 1.0))
    opts = MechanismOptions(project_feedback=False)

    for policy in (PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson()):
        a = run(instance, policy, DriftModel("linear", lipschitz=0.0), opts, 600, 17)
        b = run(instance, policy, DriftModel("linear", lipschitz=0.0), opts, 600, 17)
        checks.append((f"{policy.name} l=0 rerun -> same records", a.records == b.records))

    args = ["run", "--policy", "thompson", "--drift", "linear", "--l", "0.4",
            "--T", "400", "--seed", "23"]
    assert cli_main(args + ["--out-dir", str(tmp_path / "x")]) == 0
    assert cli_main(args + ["--out-dir", str(tmp_path / "y")]) == 0
    same = all(
        (tmp_path / "x" / n).read_bytes() == (tmp_path / "y" / n).read_bytes()
        for n in ("trajectory.csv", "summary.csv"))
    checks.append(("same config -> byte-identical outputs", same))

    exact = True
    for policy in (PolicyKind.ucb(), PolicyKind.egreedy(4.0), PolicyKind.thompson()):
        for seed in (1, 2, 3):
            traj = run(instance, policy, DriftModel("linear", lipschitz=1.1),
                       opts, 2000, seed, keep_records=False)
            expected = 0.0
            for gap, arm in zip(instance.gap_vector, traj.final.arms):
                expected += gap * arm.pulls
            exact = exact and traj.final.cum_regret == expected
    checks.append(("regret identity exact on every run", exact))
    _report(9, "identity and determinism suite", checks)


def test_criterion_10_sublinearity(gauss_sweep):
    result, _ = gauss_sweep
    checks = []
    for policy in ("ucb", "egreedy", "thompson"):
        cell = result.cell(policy, 1.1)
        at = dict(zip(cell.curve.rounds, cell.curve.regret))
        first, second = at[5000], at[10000] - at[5000]
        checks.append((
            f"{policy} growth {second:.1f} < first-half {first:.1f}",
            second < first))
    _report(10, "log-growth signature at l=1.1", checks)
