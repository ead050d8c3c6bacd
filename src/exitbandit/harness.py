"""Experiment orchestration: config files, replications, sweeps, emission.

A single JSON document configures one experiment. Parsing is strict: any
key the schema does not know is an error, top-level or nested, so a typo'd
sweep cannot silently run the wrong thing. All randomness flows from the
config's seed list; reruns of the same config produce byte-identical trace
files.

Per-seed outputs:
    trace_{policy}_{seed}.csv     one row per round
    summary_{policy}_{seed}.json  flat RunSummary
    aggregate_{policy}.json       mean/std across seeds

Trace CSV header, then one TRACE_ROW line per round (floats printed with
9 significant digits, the arm as metrics.arm_key prints it):
    round,arm,exit_layer,score,reward,correct_prob,correct,cum_regret
"""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import reliability as rel
from .bandit import (
    BanditState,
    RewardParams,
    RewardVariant,
    RunTrace,
    UcbPolicy,
    lambda_from_epsilon,
    natural_criterion,
    run_policy,
)
from .baselines import (
    FinalLayerPolicy,
    FixedPolicy,
    RandomPolicy,
    oracle_best_arm,
    replay_arm,
)
from .env import (
    DEFAULT_GRID_HIGH,
    DEFAULT_GRID_LOW,
    DEFAULT_GRID_SIZE,
    GeneratorParams,
    ShiftSchedule,
    ThresholdGrid,
    require_count,
)
from .exits import Criterion
from .metrics import (FINAL_ARM_TOKEN, RunSummary, arm_key, attach_regret, empirical_risk,
                      summarize)
# stream is kept in this namespace only for the benchmark's traced run, which
# wraps harness.stream
from .simulator import sample_block, stream  # noqa: F401

TRACE_HEADER = ("round", "arm", "exit_layer", "score", "reward",
                "correct_prob", "correct", "cum_regret")
TRACE_ROW = "%d,%s,%d,%.9g,%.9g,%.9g,%d,%.9g\r\n"
DEFAULT_EPSILON = 0.01
# Size caps, checked before anything of that size is allocated. They sit far
# above any depth or grid a run uses; past them a config is a typo, and numpy
# would fail on it with a MemoryError or first allocate gigabytes.
MAX_NUM_LAYERS = 10_000
MAX_GRID_SIZE = 100_000


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration content."""


def _strict(payload, allowed: Sequence[str], where: str) -> None:
    """A JSON object with no key outside allowed."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")


def _integer(value, where: str) -> int:
    """A JSON integer; floats, booleans and strings are errors, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """A finite JSON number; booleans, strings, NaN and infinities are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where} must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


_GENERATOR_KEYS = tuple(f.name for f in dataclasses.fields(GeneratorParams))


def _parse_generator(payload, where: str) -> GeneratorParams:
    _strict(payload, _GENERATOR_KEYS, where)
    try:
        params = GeneratorParams(**payload)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {where}: {e}") from e
    if params.num_layers > MAX_NUM_LAYERS:
        raise ConfigError(f"{where}.num_layers must be <= {MAX_NUM_LAYERS}")
    return params


def _parse_schedule(payload, where: str) -> ShiftSchedule:
    if not isinstance(payload, list) or not payload:
        raise ConfigError(f"{where} must be a non-empty list of segments")
    segments = []
    for pos, seg in enumerate(payload):
        _strict(seg, ("start_round", "generator"), f"{where}[{pos}]")
        if "start_round" not in seg or "generator" not in seg:
            raise ConfigError(f"{where}[{pos}] needs start_round and generator")
        segments.append(
            (_integer(seg["start_round"], f"{where}[{pos}].start_round"),
             _parse_generator(seg["generator"], f"{where}[{pos}].generator"))
        )
    try:
        return ShiftSchedule(tuple(segments))
    except ValueError as e:
        raise ConfigError(f"invalid {where}: {e}") from e


def _parse_grid(payload, where: str) -> ThresholdGrid:
    _strict(payload, ("values", "size", "low", "high"), where)
    if "values" in payload:
        _strict(payload, ("values",), where)
        values = payload["values"]
        if not isinstance(values, list):
            raise ConfigError(f"{where}.values must be a list")
        values = tuple(_number(v, f"{where}.values") for v in values)
    else:
        _strict(payload, ("size", "low", "high"), where)
        size = _integer(payload.get("size", DEFAULT_GRID_SIZE), f"{where}.size")
        low = _number(payload.get("low", DEFAULT_GRID_LOW), f"{where}.low")
        high = _number(payload.get("high", DEFAULT_GRID_HIGH), f"{where}.high")
        if size < 1:
            raise ConfigError(f"{where}.size must be >= 1")
        if size > MAX_GRID_SIZE:
            raise ConfigError(f"{where}.size must be <= {MAX_GRID_SIZE}")
        values = tuple(float(v) for v in np.linspace(low, high, size))
    try:
        grid = ThresholdGrid(values)
    except ValueError as e:
        raise ConfigError(f"invalid {where}: {e}") from e
    # the values increase, so two arms that print alike are neighbours
    for a, b in zip(values, values[1:]):
        if arm_key(a) == arm_key(b):
            raise ConfigError(f"{where}: arms {a!r} and {b!r} both print as {arm_key(a)!r}")
    return grid


@dataclass(frozen=True)
class PolicySpec:
    """Which arm-picking policy a run uses; tau is set for fixed only."""

    kind: str  # "ucb" | "fixed" | "random" | "final"
    tau: Optional[float] = None

    @property
    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed{self.tau:g}"
        return self.kind


def _parse_policy(payload, where: str) -> PolicySpec:
    if isinstance(payload, str):
        if payload == "uat":  # compatibility alias for the adaptive policy
            payload = "ucb"
        if payload in ("ucb", "random", "final"):
            return PolicySpec(payload)
        raise ConfigError(
            f"{where} must be 'ucb' (alias 'uat'), 'random', 'final', "
            "or a fixed-policy object"
        )
    if isinstance(payload, dict):
        _strict(payload, ("type", "tau"), where)
        if payload.get("type") != "fixed":
            raise ConfigError(f"{where}.type must be 'fixed'")
        if "tau" not in payload:
            raise ConfigError(f"{where} needs tau")
        return PolicySpec("fixed", _number(payload["tau"], f"{where}.tau"))
    raise ConfigError(f"{where} must be a string or object")


_TOP_KEYS = (
    "generator", "schedule", "grid", "gamma", "epsilon", "lambda", "variant",
    "criterion", "policy", "num_rounds", "seeds", "out_dir", "log_mode",
    "calibration_tol", "reliability",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see parse_config for the schema).

    document is the JSON document it was parsed from; every variant of a
    config is parsed again from an edited copy of it (see derive).
    """

    schedule: ShiftSchedule
    grid: ThresholdGrid
    gamma: float
    epsilon: float
    lam_spec: Union[float, str]  # a number, or "auto" for epsilon / L
    variant: RewardVariant
    criterion: Optional[Criterion]
    policy: PolicySpec
    num_rounds: int
    seeds: tuple[int, ...]
    out_dir: str
    log_mode: str
    calibration_tol: float
    training: rel.Hyperparams
    holdout_fraction: float
    document: dict = field(repr=False, compare=False)

    @property
    def num_layers(self) -> int:
        return self.schedule.segments[0][1].num_layers

    @property
    def resolved_lambda(self) -> float:
        if self.lam_spec == "auto":
            return lambda_from_epsilon(self.epsilon, self.num_layers)
        return self.lam_spec

    @property
    def resolved_criterion(self) -> Criterion:
        if self.criterion is not None:
            return self.criterion
        return natural_criterion(self.variant)

    def reward_params(self) -> RewardParams:
        return RewardParams(self.resolved_lambda, self.num_layers, self.variant)


def _parse_seeds(seeds) -> tuple[int, ...]:
    """The seed rule: a non-empty list of distinct JSON integers >= 0."""
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list")
    seeds = tuple(_integer(s, "seeds") for s in seeds)
    if any(s < 0 for s in seeds):
        raise ConfigError("seeds must be >= 0")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    return seeds


def parse_config(payload: dict) -> ExperimentConfig:
    """Validate a config document; unknown keys anywhere are errors."""
    if not isinstance(payload, dict):
        raise ConfigError("config root must be an object")
    _strict(payload, _TOP_KEYS, "config")

    if ("generator" in payload) == ("schedule" in payload):
        raise ConfigError("config needs exactly one of 'generator' or 'schedule'")
    if "generator" in payload:
        schedule = ShiftSchedule.constant(_parse_generator(payload["generator"], "generator"))
    else:
        schedule = _parse_schedule(payload["schedule"], "schedule")

    grid = _parse_grid(payload.get("grid", {}), "grid")

    gamma = _number(payload.get("gamma", math.sqrt(2.0)), "gamma")
    if gamma < 1.0:
        raise ConfigError("gamma must be >= 1")

    epsilon = _number(payload.get("epsilon", DEFAULT_EPSILON), "epsilon")
    if not (0.0 < epsilon < 1.0):
        raise ConfigError("epsilon must be in (0, 1)")

    lam_spec = payload.get("lambda", "auto")
    if lam_spec != "auto":
        lam_spec = _number(lam_spec, "lambda")
        if lam_spec < 0.0:
            raise ConfigError("lambda must be >= 0 or 'auto'")

    variant_name = payload.get("variant", RewardVariant.PRODUCT_PENALIZED.value)
    try:
        variant = RewardVariant(variant_name)
    except ValueError:
        raise ConfigError(f"unknown variant {variant_name!r}") from None

    criterion = None
    if "criterion" in payload:
        try:
            criterion = Criterion(payload["criterion"])
        except ValueError:
            raise ConfigError(f"unknown criterion {payload['criterion']!r}") from None

    policy = _parse_policy(payload.get("policy", "ucb"), "policy")
    if policy.kind == "fixed":
        if not (grid.values[0] <= policy.tau <= grid.values[-1]):
            raise ConfigError(
                f"fixed tau {policy.tau} outside grid range "
                f"[{grid.values[0]}, {grid.values[-1]}]"
            )

    if "num_rounds" not in payload:
        raise ConfigError("config needs num_rounds")
    num_rounds = _integer(payload["num_rounds"], "num_rounds")
    if num_rounds < 2:
        # the summary's regret bound needs ln(num_rounds) > 0
        raise ConfigError("num_rounds must be >= 2")

    seeds = _parse_seeds(payload.get("seeds", [0]))

    log_mode = payload.get("log_mode", "round")
    if log_mode not in ("round", "horizon"):
        raise ConfigError("log_mode must be 'round' or 'horizon'")

    calibration_tol = _number(payload.get("calibration_tol", 0.1), "calibration_tol")
    if not (0.0 < calibration_tol < 1.0):
        raise ConfigError("calibration_tol must be in (0, 1)")

    training_payload = payload.get("reliability", {})
    _strict(training_payload, ("epochs", "learning_rate", "sharpness",
                               "holdout_fraction"), "reliability")
    holdout_fraction = _number(training_payload.get("holdout_fraction", 0.2),
                               "reliability.holdout_fraction")
    if not (0.0 < holdout_fraction < 1.0):
        raise ConfigError("reliability.holdout_fraction must be in (0, 1)")
    hyperparams = {
        name: (_integer if name == "epochs" else _number)(value, f"reliability.{name}")
        for name, value in training_payload.items() if name != "holdout_fraction"
    }
    try:
        training = rel.Hyperparams(**hyperparams)
    except ValueError as e:
        raise ConfigError(f"invalid reliability: {e}") from e

    out_dir = payload.get("out_dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir must be a non-empty string")

    return ExperimentConfig(
        schedule=schedule,
        grid=grid,
        gamma=gamma,
        epsilon=epsilon,
        lam_spec=lam_spec,
        variant=variant,
        criterion=criterion,
        policy=policy,
        num_rounds=num_rounds,
        seeds=seeds,
        out_dir=out_dir,
        log_mode=log_mode,
        calibration_tol=calibration_tol,
        training=training,
        holdout_fraction=holdout_fraction,
        document=copy.deepcopy(payload),
    )


def derive(config: ExperimentConfig, changes: dict) -> ExperimentConfig:
    """The config parsed from its document with top-level keys replaced.

    Every variant of a config (CLI overrides, sweep values) is made here,
    so it passes every rule parse_config applies to a config file.
    """
    return parse_config({**config.document, **changes})


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return parse_config(payload)


def _make_policy(config: ExperimentConfig, seed: int):
    spec = config.policy
    if spec.kind == "ucb":
        horizon = config.num_rounds if config.log_mode == "horizon" else None
        return UcbPolicy(config.grid, gamma=config.gamma, horizon=horizon)
    if spec.kind == "random":
        return RandomPolicy(config.grid, seed)
    if spec.kind == "final":
        return FinalLayerPolicy()
    return FixedPolicy(spec.tau)


@dataclass
class SeedResult:
    trace: RunTrace
    summary: RunSummary
    best_arm: float
    per_arm_means: dict


def run_single(config: ExperimentConfig, seed: int) -> SeedResult:
    """One seeded replication: stream, policy run, oracle replay, metrics.

    The stream is generated once, as a SampleBlock, and read by all three.
    """
    samples = sample_block(config.schedule, config.num_rounds, seed)
    params = config.reward_params()
    criterion = config.resolved_criterion

    policy = _make_policy(config, seed)
    trace = run_policy(
        policy, samples, params, criterion,
        grid=config.grid, label=config.policy.label, seed=seed,
    )

    best, means = oracle_best_arm(config.grid, samples, params, criterion)
    best_trace = replay_arm(best, samples, params, criterion, grid=config.grid)
    epsilon_star = empirical_risk(best_trace)[0]

    means_for_regret = dict(means)
    if config.policy.kind in ("final", "fixed"):
        # an open-loop policy's own arm (None, or an off-grid tau) is a virtual
        # arm; its mean comes from its own full-length trace over the same stream
        means_for_regret.setdefault(trace.arms[0], math.fsum(trace.rewards) / len(trace))
    attach_regret(trace, means_for_regret, means[best])
    summary = summarize(
        trace, means_for_regret, best,
        epsilon=config.epsilon, epsilon_star=epsilon_star,
        calibration_tol=config.calibration_tol,
    )
    return SeedResult(trace=trace, summary=summary, best_arm=best, per_arm_means=means)


@contextlib.contextmanager
def _replacing(path: Path):
    """Text handle on a temp file beside path that replaces path on success.

    Every output file is written through here. If writing fails part way,
    path keeps its previous content (or stays absent) and the temp file is
    removed, so no output is ever left half-written.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: Sequence[str], row: str, rows) -> None:
    """The header line, then row % values for each tuple of rows."""
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % values for values in rows)


def write_trace_csv(trace: RunTrace, path) -> None:
    """Emit the per-round trace; requires an attached regret curve."""
    if trace.cum_regret is None:
        raise ValueError("attach a regret curve before writing the trace")
    arms = trace.arms
    layers, scores, rewards, cps, realized, cum_regret = (
        column.tolist() for column in (trace.exit_layers, trace.scores, trace.rewards,
                                       trace.correct_probs, trace.realized, trace.cum_regret))
    # indexed by position, so a column shorter than the trace fails (IndexError)
    _write_csv(Path(path), TRACE_HEADER, TRACE_ROW, (
        (i + 1, arm_key(arms[i]), layers[i], scores[i], rewards[i], cps[i], realized[i],
         cum_regret[i])
        for i in range(len(trace))))


@dataclass
class TraceTable:
    """Columns of one trace CSV read back from disk."""

    rounds: np.ndarray
    arms: list
    exit_layers: np.ndarray
    scores: np.ndarray
    rewards: np.ndarray
    correct_probs: np.ndarray
    correct: np.ndarray
    cum_regret: np.ndarray

    def __len__(self) -> int:
        return len(self.arms)

    @property
    def arm_set(self) -> frozenset:
        return frozenset(self.arms)


def read_trace_csv(path) -> TraceTable:
    path = Path(path)
    isfinite = math.isfinite
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        rounds, arms, layers, scores, rewards, cps, correct, cum = (
            [], [], [], [], [], [], [], []
        )
        for row in reader:
            try:
                if len(row) != len(TRACE_HEADER):
                    raise ValueError(f"{len(row)} fields, expected {len(TRACE_HEADER)}")
                arm = None if row[1] == FINAL_ARM_TOKEN else float(row[1])
                layer = int(row[2])
                score, r, cp = float(row[3]), float(row[4]), float(row[5])
                regret = float(row[7])
                if not (isfinite(score) and isfinite(r) and isfinite(cp) and isfinite(regret)):
                    raise ValueError("fields must be finite numbers")
                if arm is not None and not 0.0 < arm <= 1.0:
                    raise ValueError(f"arm must be in (0, 1], got {row[1]!r}")
                if layer < 1:
                    raise ValueError(f"exit_layer must be >= 1, got {layer}")
                if row[6] not in ("0", "1"):
                    raise ValueError(f"correct must be 0 or 1, got {row[6]!r}")
                t = int(row[0])
                if t != len(rounds) + 1:
                    raise ValueError(f"round {t} out of order, expected {len(rounds) + 1}")
                rounds.append(t)
                arms.append(arm)
                layers.append(layer)
                scores.append(score)
                rewards.append(r)
                cps.append(cp)
                correct.append(row[6] == "1")
                cum.append(regret)
            except ValueError as e:
                raise ValueError(f"{path}: line {reader.line_num}: {e}") from None
    if not rounds:
        raise ValueError(f"{path}: trace has no rounds")
    return TraceTable(
        rounds=np.asarray(rounds, dtype=np.int64),
        arms=arms,
        exit_layers=np.asarray(layers, dtype=np.int32),
        scores=np.asarray(scores),
        rewards=np.asarray(rewards),
        correct_probs=np.asarray(cps),
        correct=np.asarray(correct, dtype=bool),
        cum_regret=np.asarray(cum),
    )


_AGGREGATED_FIELDS = (
    "cumulative_regret", "regret_bound", "empirical_risk",
    "realized_error_rate", "mean_exit_layer", "speedup", "delta1_hat",
    "epsilon_star", "risk_bound_rhs",
)


def aggregate_summaries(summaries: Sequence[RunSummary]) -> dict:
    """Mean/std (population) of the numeric per-seed summary fields."""
    if not summaries:
        raise ValueError("no summaries to aggregate")
    out = {
        "policy": summaries[0].policy,
        "num_seeds": len(summaries),
        "seeds": [s.seed for s in summaries],
        "num_rounds": summaries[0].num_rounds,
        "num_layers": summaries[0].num_layers,
        "risk_bound_holds_fraction":
            float(np.mean([s.risk_bound_holds for s in summaries])),
        "mean": {}, "std": {},
    }
    for name in _AGGREGATED_FIELDS:
        values = np.asarray([getattr(s, name) for s in summaries], dtype=np.float64)
        out["mean"][name] = float(np.mean(values))
        out["std"][name] = float(np.std(values))
    return out


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run every seed, write per-seed trace/summary files plus an aggregate.

    Returns {"traces": [...], "summaries": [...], "aggregate": path}.
    """
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    label = config.policy.label

    trace_paths = []
    summary_paths = []
    summaries = []
    for seed in config.seeds:
        result = run_single(config, seed)
        trace_path = out / f"trace_{label}_{seed}.csv"
        write_trace_csv(result.trace, trace_path)
        summary_path = out / f"summary_{label}_{seed}.json"
        with _replacing(summary_path) as fh:
            fh.write(result.summary.to_json() + "\n")
        trace_paths.append(trace_path)
        summary_paths.append(summary_path)
        summaries.append(result.summary)

    aggregate_path = out / f"aggregate_{label}.json"
    aggregate = aggregate_summaries(summaries)
    with _replacing(aggregate_path) as fh:
        fh.write(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
    return {"traces": trace_paths, "summaries": summary_paths,
            "aggregate": aggregate_path}


SWEEP_AXES = ("lambda", "epsilon", "tau", "variant")
SWEEP_HEADER = ("axis", "value", "empirical_risk", "speedup", "cumulative_regret")
SWEEP_ROW = "%s,%s,%.9g,%.9g,%.9g\r\n"


def sweep(config: ExperimentConfig, axis: str, values: Sequence, out_path=None) -> Path:
    """One aggregate row per value along the axis, as a plot-ready CSV.

    Each value's config is derived (and so checked) before the first run.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick from {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if axis == "epsilon" and config.lam_spec != "auto":
        raise ConfigError("epsilon sweep needs lambda='auto' so the "
                          "penalty actually follows epsilon")
    if axis == "tau" and config.policy.kind != "fixed":
        raise ConfigError("tau sweep needs a fixed policy")
    derived_configs = [
        derive(config, {"policy": {"type": "fixed", "tau": v}} if axis == "tau"
               else {axis: v})
        for v in values
    ]
    means = [aggregate_summaries([run_single(d, seed).summary for seed in d.seeds])["mean"]
             for d in derived_configs]
    path = Path(out_path) if out_path is not None \
        else Path(config.out_dir) / f"sweep_{axis}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, SWEEP_HEADER, SWEEP_ROW,
               [(axis, value, m["empirical_risk"], m["speedup"], m["cumulative_regret"])
                for value, m in zip(values, means)])
    return path


def _policy_from_trace_name(path: Path) -> str:
    stem = path.stem
    if stem.startswith("trace_"):
        body = stem[len("trace_"):]
        policy, _, seed = body.rpartition("_")
        if policy and seed:
            return policy
    raise ValueError(
        f"{path.name}: cannot infer policy; expected trace_<policy>_<seed>.csv"
    )


def analyze(trace_paths: Sequence, out_dir) -> list[Path]:
    """Average cumulative-regret-vs-round series per policy, one CSV each.

    All traces must have the same round count. Grid compatibility is
    inferred from content: traces sharing a policy label must have visited
    the same set of arms.
    """
    paths = [Path(p) for p in trace_paths]
    if not paths:
        raise ValueError("analyze needs at least one trace file")
    by_policy: dict[str, list[TraceTable]] = {}
    round_counts, resolved = set(), set()
    for p in paths:
        if p.resolve() in resolved:
            raise ValueError(f"{p}: trace file given twice")
        resolved.add(p.resolve())
        policy = _policy_from_trace_name(p)
        table = read_trace_csv(p)
        round_counts.add(len(table))
        by_policy.setdefault(policy, []).append(table)
    if len(round_counts) != 1:
        raise ValueError(f"traces disagree on round count: {sorted(round_counts)}")
    for policy, tables in by_policy.items():
        arm_sets = {t.arm_set for t in tables}
        if len(arm_sets) != 1:
            raise ValueError(
                f"{policy}: traces visited different arm sets; "
                "were they run on the same threshold grid?"
            )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for policy in sorted(by_policy):
        tables = by_policy[policy]
        mean_curve = np.mean(np.stack([t.cum_regret for t in tables]), axis=0)
        path = out / f"regret_{policy}.csv"
        _write_csv(path, ("round", "cum_regret"), "%d,%.9g\r\n",
                   enumerate(mean_curve.tolist(), start=1))
        written.append(path)
    return written


def train_reliability(config: ExperimentConfig, seed: int, out_dir=None) -> dict:
    """Train the reliability scorer on a fresh stream and persist it.

    num_rounds samples are drawn; the last holdout_fraction of them are kept
    out of training and used for the AUC report. Writes the model JSON and a
    metrics JSON; returns their paths plus the metrics.
    """
    block = sample_block(config.schedule, config.num_rounds, seed)
    split = int(round(len(block) * (1.0 - config.holdout_fraction)))
    if split < 1 or split >= len(block):
        raise ConfigError("num_rounds too small for the holdout split")
    train_samples, held_out = block.rows(0, split), block.rows(split, len(block))

    targets = rel.compute_c_from_samples(train_samples)
    dataset = rel.dataset_from_samples(train_samples)
    model = rel.train(dataset, targets, config.training)

    eval_set = rel.dataset_from_samples(held_out)
    scores = rel.batch_scores(model, eval_set)
    metrics = {
        "seed": seed,
        "train_samples": len(train_samples),
        "holdout_samples": len(held_out),
        "epochs": config.training.epochs,
        "learning_rate": config.training.learning_rate,
        "coverage": rel.coverage(model, dataset),
        "per_exit_coverage": [float(v) for v in rel.per_exit_coverage(model, dataset)],
        "coverage_targets": list(targets.c_per_exit),
        "min_coverage_target": min(targets.c_per_exit),
        "holdout_auc": rel.auc_score(scores, eval_set.correct),
    }

    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / f"reliability_{seed}.json"
    with _replacing(model_path) as fh:
        fh.write(model.to_json() + "\n")
    metrics_path = out / f"reliability_metrics_{seed}.json"
    with _replacing(metrics_path) as fh:
        fh.write(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return {"model": model_path, "metrics_file": metrics_path, "metrics": metrics}


def benchmark_overhead(
    num_arms: int = 10,
    rounds: int = 20000,
    warmup: int = 1000,
    gamma: float = math.sqrt(2.0),
    seed: int = 0,
) -> dict:
    """Per-round controller cost (select + update only), in microseconds.

    Times each round individually with perf_counter_ns and reports the
    median, mean, and 90th percentile; sample generation and reward
    computation are excluded by construction.
    """
    require_count("num_arms", num_arms, 1)
    require_count("rounds", rounds, 1)
    require_count("warmup", warmup, 0)
    values = tuple(float(v) for v in np.linspace(0.5, 1.0, num_arms))
    grid = ThresholdGrid(values)
    state = BanditState(grid=grid, gamma=gamma)
    rng = np.random.default_rng(seed)
    rewards = [float(r) for r in rng.random(rounds + warmup)]

    timer = time.perf_counter_ns
    samples_ns = []
    for r in range(rounds + warmup):
        t0 = timer()
        i = state.select_index()
        state.update_index(i, rewards[r])
        elapsed = timer() - t0
        if r >= warmup:
            samples_ns.append(elapsed)
    return {
        "num_arms": num_arms,
        "rounds": rounds,
        "median_us": statistics.median(samples_ns) / 1000.0,
        "mean_us": statistics.fmean(samples_ns) / 1000.0,
        "p90_us": float(np.percentile(samples_ns, 90)) / 1000.0,
    }
