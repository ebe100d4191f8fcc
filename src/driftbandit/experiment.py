"""Replicated, seeded sweeps over (policy, drift coefficient) grids.

Each (policy, l, replication) triple gets its own stream seed derived from
the master seed with a fixed 64-bit mixing function, so results are
bit-identical across machines and across any parallel execution order.

Work items run as lanes of the lockstep engine (lockstep.run_lanes), which
gives each lane exactly what mechanism.run gives for its triple, and plays
the lanes of several policies together.  A lockstep round costs about the
same for few lanes as for many, so the grid is played in as few chunks as
there are workers: the work units (the lanes of one policy, or a part of
them when there are fewer policies than workers) are dealt to min(jobs, units)
chunks, and each chunk is one lockstep, in a worker process of its own when
there are several.  The deal balances the chunks' cost: a unit weighs its
lanes times its policy's fixed per-lane cost (PolicyRule.lane_cost), and the
units go heaviest first, each to the chunk with the least weight so far.  The
workers come from a concurrent.futures.ProcessPoolExecutor, imported by
run_experiment only when it opens one, so that a process which never fans a
sweep out (run, bounds, trace, a one-chunk sweep) does not load
concurrent.futures and multiprocessing.
"""

from __future__ import annotations

import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from statistics import fmean, median, stdev
from typing import Sequence

from . import analysis
from .analysis import SummaryMetrics
from .core import BanditInstance, DriftModel, InputError, NoiseModel, SimState, finite, named
from .lockstep import Lane, LaneError, run_lanes
from .mechanism import Curve, CurveProbe, MechanismOptions, check_run_args
from .policies import POLICY_NAMES, PolicyKind

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class ExperimentError(Exception):
    """A replication failed; the message names the offending triple."""


def _mix64(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, policy_id: int, l_index: int, rep: int) -> int:
    """Stream seed for one (policy, l, replication) work item.

    Bit-exact definition: starting from master masked to 64 bits, for each of
    policy_id, l_index, rep in that order, add 0x9E3779B97F4A7C15 mod 2^64,
    xor in the word, and apply the splitmix64 finalizer.  Distinct inputs
    give distinct streams with overwhelming probability.
    """
    h = master & _MASK64
    for word in (policy_id, l_index, rep):
        h = (h + _GAMMA) & _MASK64
        h = _mix64(h ^ (word & _MASK64))
    return h


def aggregate(values: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1; 0 when n=1)."""
    xs = list(values)
    if not xs:
        raise ValueError("nothing to aggregate")
    if len(xs) == 1:
        return float(xs[0]), 0.0
    return fmean(xs), stdev(xs)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: an environment, a policy list, and a drift-coefficient grid.

    The constructor checks every value, so a config built in Python passes the
    same rules as one read by from_dict; a ValueError names the key as the
    README schema spells it (noise.sigma, l_values[1], project_feedback).
    """

    arm_means: tuple[float, ...]
    policies: tuple[PolicyKind, ...]
    l_values: tuple[float, ...]
    horizon: int
    replications: int
    master_seed: int
    noise_kind: str = "gaussian"
    noise_sigma: float = 1.0
    drift_kind: str = "linear"
    drift_cap: float | None = None  # clipped_linear only
    project_overrides: dict = field(default_factory=dict)  # policy name -> bool
    trajectory_stride: int | None = None  # when set, curves sample every so many rounds

    def __post_init__(self) -> None:
        def store(name: str, value) -> None:  # the checked value in place of the given one
            object.__setattr__(self, name, value)

        _known_keys("project_feedback", self.project_overrides, POLICY_NAMES)
        for name, flag in self.project_overrides.items():
            if not isinstance(flag, bool):
                raise ValueError(f"project_feedback[{name!r}] must be true or false, got {flag!r}")
        store("project_overrides", dict(self.project_overrides))
        store("arm_means", _entries("arm_means", self.arm_means, _number))
        store("l_values", _entries("l_values", self.l_values, _number))
        store("policies", _entries("policies", self.policies, _policy_kind))
        for name in ("horizon", "replications", "master_seed"):
            store(name, _whole(name, getattr(self, name)))
        if self.trajectory_stride is not None:
            store("trajectory_stride", _whole("trajectory_stride", self.trajectory_stride))
            if self.trajectory_stride < 1:
                raise ValueError("trajectory_stride must be >= 1")
        store("noise_sigma", float(finite("noise.sigma", _number("noise.sigma", self.noise_sigma))))
        if self.drift_cap is not None:
            _number("drift_cap", self.drift_cap)
        if not self.l_values:
            raise ValueError("l_values must be non-empty")
        if not self.policies:
            raise ValueError("policies must be non-empty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0 <= self.master_seed <= _MASK64:
            raise InputError("master_seed", f"must be in [0, 2**64), got {self.master_seed}")
        # fail early on the rules of the domain types, naming the key
        instance = named({"kind": "noise.kind", "sigma": "noise.sigma", None: "arm_means"},
                         self.instance)
        named({"horizon": "horizon"}, check_run_args, instance, self.horizon)
        for i, l in enumerate(self.l_values):
            named({"kind": "drift_kind", "cap": "drift_cap", "lipschitz": f"l_values[{i}]"},
                  self.drift_model, l)

    def instance(self) -> BanditInstance:
        return BanditInstance(self.arm_means, NoiseModel(self.noise_kind, self.noise_sigma))

    def drift_model(self, lipschitz: float) -> DriftModel:
        return DriftModel(self.drift_kind, lipschitz=lipschitz, cap=self.drift_cap)

    def options_for(self, policy: PolicyKind) -> MechanismOptions:
        return MechanismOptions(project_feedback=self.project_overrides.get(policy.name))

    def to_dict(self) -> dict:
        """The config as a JSON object in the README schema: every field under its
        own name, but noise.kind, noise.sigma, project_feedback and the policy objects."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["noise"] = {"kind": data.pop("noise_kind"), "sigma": data.pop("noise_sigma")}
        data["project_feedback"] = dict(data.pop("project_overrides"))
        data["policies"] = [{"name": p.name} if p.c is None else {"name": p.name, "c": p.c}
                            for p in self.policies]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a JSON object in the README schema (to_dict() round-trips).

        Raises ValueError naming the key (with its path, as policies[1].c) on
        any key, type or value outside that schema.  It checks the shape (known
        keys, required keys, the policy objects) and the constructor every value;
        an absent optional key takes its field's default.
        """
        _known_keys("config", data, _CONFIG_KEYS)
        noise = data.get("noise", {})
        _known_keys("noise", noise, ("kind", "sigma"))
        for key in ("arm_means", "policies", "l_values", "horizon", "replications", "master_seed"):
            _required(data, key)
        values = {"project_overrides" if key == "project_feedback" else key: value
                  for key, value in data.items() if key != "noise"}
        values["policies"] = _entries("policies", data["policies"], _policy)
        return cls(**values, **{f"noise_{key}": value for key, value in noise.items()})


_CONFIG_KEYS = ("arm_means", "noise", "policies", "drift_kind", "drift_cap", "l_values",
                "horizon", "replications", "master_seed", "project_feedback", "trajectory_stride")


def _known_keys(where: str, data: dict, keys: tuple[str, ...]) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}, expected some of {list(keys)}")


def _required(data: dict, key: str, path: str | None = None):
    if key not in data:
        raise ValueError(f"missing config key {path or key}")
    return data[key]


def _entries(key: str, value, parse) -> tuple:
    """parse(f"{key}[i]", entry) of every entry; ValueError unless `value` is a JSON array."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a JSON array, got {value!r}")
    return tuple(parse(f"{key}[{i}]", entry) for i, entry in enumerate(value))


def _policy(key: str, entry: dict) -> PolicyKind:
    _known_keys(key, entry, ("name", "c"))
    name, c = _required(entry, "name", f"{key}.name"), entry.get("c")
    c = None if c is None else _number(f"{key}.c", c)
    return named({"name": f"{key}.name", "c": f"{key}.c"}, PolicyKind, name, c)


def _policy_kind(key: str, entry) -> PolicyKind:
    if not isinstance(entry, PolicyKind):
        raise ValueError(f"{key} must be a PolicyKind, got {entry!r}")
    return entry


def _number(key: str, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return value


def _whole(key: str, value) -> int:
    """`value` as an int; ValueError naming `key` unless it is a whole number."""
    if not isinstance(_number(key, value), numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _stats(name: str) -> tuple[property, property, property]:
    """Read-only views of the mean and std (aggregate) and the median of
    [float(m.<name>) for m in rep_metrics], in replication order."""
    def values(cell: CellResult) -> list[float]:
        return [float(getattr(m, name)) for m in cell.rep_metrics]
    return (property(lambda cell: aggregate(values(cell))[0]),
            property(lambda cell: aggregate(values(cell))[1]),
            property(lambda cell: median(values(cell))))


@dataclass(frozen=True)
class CellResult:
    """One (policy, l) grid cell: every replication's summary in replication
    order, and statistics read from them when asked for (none is stored).

    So a tail that carries a mean can be traced to its runs.  The medians
    describe the middle replication, which is what a single-run reference
    value should be compared with; the means are the expectation estimates.
    `curve` is the mean of the replications' curves, point by point (None
    unless the config sets trajectory_stride).
    """

    policy: PolicyKind
    l: float
    rep_metrics: tuple[SummaryMetrics, ...]
    curve: Curve | None

    regret_mean, regret_std, regret_median = _stats("regret")
    comp_mean, comp_std, comp_median = _stats("compensation")
    comp_rounds_mean, comp_rounds_std, comp_rounds_median = _stats("comp_rounds")
    arm1_err_mean, arm1_err_std, arm1_err_median = _stats("arm1_rel_error")

    @property
    def comp_count_per_arm_mean(self) -> tuple[float, ...]:
        return tuple(fmean(m.per_arm[i][1] for m in self.rep_metrics)
                     for i in range(len(self.rep_metrics[0].per_arm)))


@dataclass(frozen=True)
class AggregateResult:
    config: ExperimentConfig
    cells: tuple[CellResult, ...]  # policy-major, then l, matching config order

    def cell(self, policy_name: str, l: float) -> CellResult:
        """The one cell of (policy_name, l); KeyError if there is none, or more than one
        because the config lists the policy or the coefficient twice."""
        found = [c for c in self.cells if c.policy.name == policy_name and c.l == l]
        if len(found) > 1:
            raise KeyError(f"{len(found)} cells for ({policy_name}, {l}): the config repeats "
                           f"the policy or the coefficient, so read result.cells by index")
        if not found:
            raise KeyError(f"no cell for ({policy_name}, {l})")
        return found[0]


Chunk = tuple[tuple[int, int, int], ...]  # the (policy index, l index, rep) lanes of one lockstep

# run and summarize are a chunk's two steps, called through this module's
# globals once per chunk each; the per-layer benchmark wraps them to time chunks.


def run(config: ExperimentConfig,
        chunk: Chunk) -> tuple[list[SimState], list[Curve] | list[None]]:
    """Play every lane of `chunk` in one lockstep: each lane's final state, and its
    curve when the config sets trajectory_stride."""
    instance = config.instance()
    lanes = [Lane(config.policies[p_idx], config.options_for(config.policies[p_idx]),
                  config.drift_model(config.l_values[l_idx]),
                  derive_seed(config.master_seed, p_idx, l_idx, rep))
             for p_idx, l_idx, rep in chunk]
    if config.trajectory_stride is None:
        return run_lanes(instance, lanes, config.horizon), [None] * len(lanes)
    probe = CurveProbe(instance.gap_vector, config.horizon, config.trajectory_stride)
    return run_lanes(instance, lanes, config.horizon, probe=probe), probe.curves()


def summarize(config: ExperimentConfig, played: tuple[list[SimState], list]
              ) -> list[tuple[SummaryMetrics, Curve | None]]:
    """analysis.summarize of every lane of a chunk, beside its curve."""
    instance = config.instance()
    return [(analysis.summarize(final, instance), curve) for final, curve in zip(*played)]


def _run_chunk(config: ExperimentConfig,
               chunk: Chunk) -> list[tuple[SummaryMetrics, Curve | None]]:
    return summarize(config, run(config, chunk))


def _chunks(config: ExperimentConfig, jobs: int) -> list[Chunk]:
    """The grid's work units dealt to min(jobs, units) chunks, heaviest first.

    A unit is the lanes of one policy, split into parts of equal size only
    when there are fewer policies than jobs, so that every worker gets one.
    A unit weighs its lanes times its rule's lane_cost.  The units go heaviest
    first, each to the first chunk with the least weight so far (Graham's LPT
    rule); the sort is stable, so units of equal weight are dealt round-robin.
    A chunk's lanes are in grid order.  Weights add, but a lockstep pays its shared
    round work once ({ucb, egreedy, greedy} took 1.78 s, the three alone 2.01 s summed),
    so lane_cost ranks deals on the grids the sweeps serve; it is not a cost model.
    """
    lanes = [(l_idx, rep) for l_idx in range(len(config.l_values))
             for rep in range(config.replications)]
    parts = min(len(lanes), -(-jobs // len(config.policies)))
    cuts = [len(lanes) * i // parts for i in range(parts + 1)]  # parts of equal size, +-1
    units = [tuple((p_idx, l_idx, rep) for l_idx, rep in lanes[a:b])
             for p_idx in range(len(config.policies)) for a, b in zip(cuts, cuts[1:])]
    weights = [len(unit) * config.policies[unit[0][0]].rule.lane_cost for unit in units]
    loads = [0.0] * min(jobs, len(units))
    dealt: list[list[int]] = [[] for _ in loads]
    for u in sorted(range(len(units)), key=lambda u: -weights[u]):
        c = loads.index(min(loads))
        loads[c] += weights[u]
        dealt[c].append(u)
    return [tuple(lane for u in sorted(members) for lane in units[u]) for members in dealt]


def _mean_curve(curves: tuple[Curve | None, ...]) -> Curve | None:
    """The point-by-point mean of a cell's replication curves (None if none were captured)."""
    if curves[0] is None:
        return None
    return Curve(curves[0].rounds, [fmean(col) for col in zip(*(c.regret for c in curves))],
                 [fmean(col) for col in zip(*(c.compensation for c in curves))])


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> AggregateResult:
    """Run every (policy, l, replication) work item and aggregate per cell.

    `jobs` bounds parallel worker processes; results do not depend on it.
    A failing chunk raises ExperimentError naming the triple of the lane that
    failed (LaneError), or else the chunk's first triple.
    """
    chunks = _chunks(config, max(jobs, 1))
    outcomes: dict[tuple[int, int, int], tuple[SummaryMetrics, Curve | None]] = {}
    # one worker per chunk; a single chunk (always at jobs <= 1) plays in this
    # process, where patches of run and summarize apply
    if len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a fanned-out sweep pays its import
        context = ProcessPoolExecutor(max_workers=len(chunks))
    else:
        context = nullcontext()
    with context as pool:
        played = (map if pool is None else pool.map)(_run_chunk, [config] * len(chunks), chunks)
        for chunk in chunks:
            try:
                outcomes.update(zip(chunk, next(played)))
            except Exception as exc:
                raise ExperimentError(_describe_failure(config, chunk, exc)) from exc

    cells = []
    for p_idx, policy in enumerate(config.policies):
        for l_idx, l in enumerate(config.l_values):
            metrics, curves = zip(*(outcomes[p_idx, l_idx, rep]
                                    for rep in range(config.replications)))
            cells.append(CellResult(policy, l, metrics, _mean_curve(curves)))
    return AggregateResult(config=config, cells=tuple(cells))


def _describe_failure(config: ExperimentConfig, chunk: Chunk, exc: Exception) -> str:
    if isinstance(exc, LaneError):  # one lane failed: name its own triple
        where, triple = "replication failed at", chunk[exc.lane]
    else:
        where, triple = f"replications failed in the chunk of {len(chunk)} starting at", chunk[0]
    p_idx, l_idx, rep = triple
    return (f"{where} policy={config.policies[p_idx].name}, l={config.l_values[l_idx]}, "
            f"rep={rep}: {exc}")
