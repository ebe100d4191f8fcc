"""Cross-validation against minimal reference simulators.

The reference loops below are written directly from the selection-rule
definitions with their own numpy streams; they share no code with the
package.  Means over a batch of seeds must agree with the package within a
generous band, which pins the package's regret scale independently of its
internals (projection, drift and compensation are all off here: l = 0).
"""

from statistics import fmean

import numpy as np
import pytest

from driftbandit import (
    BanditInstance,
    DriftModel,
    MechanismOptions,
    NoiseModel,
    PolicyKind,
    run,
    summarize,
)

MEANS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
K = len(MEANS)
HORIZON = 4000
SEEDS = range(12)


def _reference(policy, seed, sigma):
    mu = np.array(MEANS)
    rng = np.random.default_rng(seed ^ 0x5DEECE66D)
    n = np.zeros(K)
    s = np.zeros(K)
    regret = 0.0
    for i in range(K):
        s[i] += mu[i] + sigma * rng.standard_normal()
        n[i] += 1
        regret += mu[0] - mu[i]
    for t in range(K + 1, HORIZON + 1):
        if policy == "ucb":
            i = int(np.argmax(s / n + np.sqrt(2 * np.log(t) / n)))
        elif policy == "thompson":
            i = int(np.argmax(s / n + rng.standard_normal(K) / np.sqrt(n + 1)))
        else:
            raise ValueError(policy)
        s[i] += mu[i] + sigma * rng.standard_normal()
        n[i] += 1
        regret += mu[0] - mu[i]
    return regret


def _package(policy, seed, sigma):
    inst = BanditInstance(MEANS, NoiseModel("gaussian", sigma))
    traj = run(inst, policy, DriftModel("linear", lipschitz=0.0),
               MechanismOptions(project_feedback=False), HORIZON, seed,
               keep_records=False)
    return summarize(traj, inst).regret


@pytest.mark.parametrize("name,policy", [
    ("ucb", PolicyKind.ucb()),
    ("thompson", PolicyKind.thompson()),
])
def test_regret_scale_matches_reference(name, policy):
    ours = fmean(_package(policy, s, 1.0) for s in SEEDS)
    ref = fmean(_reference(name, s, 1.0) for s in SEEDS)
    assert 0.6 * ref < ours < 1.6 * ref, (ours, ref)


def test_thompson_regret_scale_is_noise_insensitive():
    # exploration is driven by the sampler's own 1/(n+1) posterior variance,
    # so halving the reward noise must not halve the regret
    loud = fmean(_package(PolicyKind.thompson(), s, 1.0) for s in SEEDS)
    quiet = fmean(_package(PolicyKind.thompson(), s, 0.1) for s in SEEDS)
    assert quiet > 0.5 * loud
