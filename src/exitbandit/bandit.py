"""UCB bandit over an exit-threshold grid.

One arm per candidate threshold. Each round: pick an arm, run the exit rule
on the next stream sample, collect a depth-penalized reward, update that
arm's running mean. The first |grid| rounds play every arm once (round-robin
initialization with the pull count already at 1, so the mean after the first
observation is that observation); afterwards the arm maximizing

    Q(arm) + gamma * sqrt(ln(round) / N(arm))

is played, ties going to the smallest threshold. BanditState.select_index
and update_index are deliberately plain-Python over flat lists: per-round
controller overhead has a microsecond budget and numpy's per-call cost
dominates at ten arms.

The deployed step (select -> decide -> reward -> observe) does no hashing in
Python and works nothing out again: Criterion and RewardVariant hash by
identity (Enum's own __hash__ is a Python function, and the step hashed a
member twice), and RewardParams.layer_cost is worked out once per instance.
In a step of a few microseconds, each such call is a visible share.
"""

from __future__ import annotations

import array
import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .env import SampleBlock, ThresholdGrid, require_count, require_finite, require_integer
# decide (the single-threshold form of the rule) stays in this namespace so
# code that looks up or wraps bandit.decide keeps working
from .exits import (  # noqa: F401
    Criterion, ExitDecision, decide, exit_at, exit_table, table_exits, table_rows,
)


class RewardVariant(enum.Enum):
    """Which score components the per-round reward uses.

    The depth penalty is lambda * exit_layer; "penalized" variants subtract
    it, the others reward the bare score. Each variant's score term matches
    the exit criterion the engine pairs it with (see natural_criterion).
    """

    PRODUCT_PENALIZED = "product_penalized"        # conf * reliab - lambda * layer
    PRODUCT = "product"                            # conf * reliab
    CONFIDENCE = "confidence"                      # conf
    CONFIDENCE_PENALIZED = "confidence_penalized"  # conf - lambda * layer
    RELIABILITY = "reliability"                    # reliab
    RELIABILITY_PENALIZED = "reliability_penalized"

    __hash__ = object.__hash__  # identity, as for Criterion: no Python-level hash


_PENALIZED = frozenset(
    {
        RewardVariant.PRODUCT_PENALIZED,
        RewardVariant.CONFIDENCE_PENALIZED,
        RewardVariant.RELIABILITY_PENALIZED,
    }
)


def natural_criterion(variant: RewardVariant) -> Criterion:
    """Exit criterion whose score matches the variant's reward score term."""
    if variant in (RewardVariant.PRODUCT_PENALIZED, RewardVariant.PRODUCT):
        return Criterion.PRODUCT
    if variant in (RewardVariant.CONFIDENCE, RewardVariant.CONFIDENCE_PENALIZED):
        return Criterion.CONFIDENCE
    return Criterion.RELIABILITY


def has_penalty(variant: RewardVariant) -> bool:
    return variant in _PENALIZED


@dataclass(frozen=True)
class RewardParams:
    """Reward shape: per-layer cost lam, depth L, and the component variant."""

    lam: float
    num_layers: int
    variant: RewardVariant = RewardVariant.PRODUCT_PENALIZED

    def __post_init__(self):
        require_finite("lam", self.lam)
        require_count("num_layers", self.num_layers, 1)
        if self.lam < 0.0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")

    @cached_property
    def layer_cost(self) -> float:
        """Per-layer penalty the variant pays: lam if penalized, else 0.
        Worked out on the first read and kept: the fields are frozen."""
        return self.lam if has_penalty(self.variant) else 0.0


def lambda_from_epsilon(epsilon: float, num_layers: int) -> float:
    """Per-layer cost that spends a total risk budget epsilon over L layers."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    require_count("num_layers", num_layers, 1)
    return epsilon / num_layers


def exit_reward(score_at_exit, exit_layer, layer_cost):
    """The reward formula: score at exit minus layer_cost per layer used.

    Every reward in the package comes from here: per decision (reward), per
    runner round and, elementwise on arrays, per oracle column. layer_cost is
    RewardParams.layer_cost; at 0 the score is returned unchanged.
    """
    return score_at_exit - layer_cost * exit_layer


def reward(decision: ExitDecision, params: RewardParams) -> float:
    """Reward of one decided round.

    Penalized variants: score_at_exit - lam * exit_layer (the final layer
    pays the full lam * L). Unpenalized variants: the bare score. The score
    term is whatever criterion produced the decision, so rewards stay
    consistent with the exit rule that generated them.
    """
    return exit_reward(decision.score_at_exit, decision.exit_layer, params.layer_cost)


def ucb_index(q: float, n: int, t: int, gamma: float) -> float:
    """Optimism index q + gamma * sqrt(ln(t) / n) for the round numbered t."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    return q + gamma * math.sqrt(math.log(t) / n)


@dataclass
class BanditState:
    """Mutable per-run bandit state.

    q[i], n[i] align with grid.values[i]. t counts completed rounds, so
    sum(n) == t holds from the end of initialization onward. n starts at 1
    per arm and the first observed reward keeps n at 1 (the initialization
    convention); from the second observation onward n increments per pull.
    """

    grid: ThresholdGrid
    gamma: float = math.sqrt(2.0)
    q_values: list[float] = field(default_factory=list)
    pull_counts: list[int] = field(default_factory=list)
    observations: list[int] = field(default_factory=list)
    t: int = 0

    def __post_init__(self):
        require_finite("gamma", self.gamma)
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma!r}")
        k = len(self.grid)
        if not self.q_values:
            self.q_values = [0.0] * k
        if not self.pull_counts:
            self.pull_counts = [1] * k
        if not self.observations:
            self.observations = [0] * k
        for name in ("q_values", "pull_counts", "observations"):
            if len(getattr(self, name)) != k:
                raise ValueError(f"{name} needs one entry per grid arm ({k})")
        if not all(map(math.isfinite, self.q_values)):
            raise ValueError(f"q_values must be finite, got {self.q_values!r}")
        if min(self.pull_counts) < 1 or min(self.observations) < 0:
            raise ValueError("pull_counts must be >= 1 and observations >= 0")
        require_count("t", self.t, 0)

    @property
    def q(self) -> dict[float, float]:
        """Arm -> empirical mean reward view."""
        return dict(zip(self.grid.values, self.q_values))

    @property
    def n(self) -> dict[float, int]:
        """Arm -> pull count view."""
        return dict(zip(self.grid.values, self.pull_counts))

    def select_index(self, log_of: Optional[float] = None) -> int:
        """Grid index of the arm to play in the upcoming round.

        log_of overrides the log argument (fixed-horizon mode passes the
        total round count instead of the current round).
        """
        t_next = self.t + 1
        k = len(self.q_values)
        if t_next <= k:
            return t_next - 1
        log_t = math.log(t_next if log_of is None else log_of)
        gamma = self.gamma
        q = self.q_values
        n = self.pull_counts
        best = 0
        best_index = q[0] + gamma * math.sqrt(log_t / n[0])
        for i in range(1, k):
            v = q[i] + gamma * math.sqrt(log_t / n[i])
            if v > best_index:
                best_index = v
                best = i
        return best

    def update_index(self, i: int, reward_value: float) -> None:
        """Record one observed reward for arm i and advance the round count."""
        obs = self.observations[i] + 1
        self.observations[i] = obs
        if obs == 1:
            self.q_values[i] = reward_value
        else:
            n = self.pull_counts[i] + 1
            self.pull_counts[i] = n
            self.q_values[i] += (reward_value - self.q_values[i]) / n
        self.t += 1


@dataclass
class RunTrace:
    """Per-round record of one policy run plus identifying metadata.

    arms holds the threshold played each round (None on rounds where the
    policy bypassed thresholds and forced the final layer). cum_regret stays
    None until a per-arm means table is attached (see metrics).
    """

    policy: str
    arms: list
    exit_layers: np.ndarray
    scores: np.ndarray
    rewards: np.ndarray
    correct_probs: np.ndarray
    realized: np.ndarray
    reliabilities: np.ndarray
    grid: ThresholdGrid
    reward_params: RewardParams
    criterion: Criterion
    num_layers: int
    seed: Optional[int] = None
    cum_regret: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.arms)


def run_policy(policy, samples, reward_params: RewardParams,
               criterion: Optional[Criterion] = None, *, grid: Optional[ThresholdGrid] = None,
               label: Optional[str] = None, seed: Optional[int] = None,
               num_rounds: Optional[int] = None) -> RunTrace:
    """Drive any arm-picking policy over a sample stream and record the trace.

    policy follows run_many's protocol. A None arm forces a final-layer exit.
    samples is a SampleBlock or any iterable of samples (a generator
    streams without materializing); num_rounds, when given, truncates after
    that many samples.
    """
    return run_many([policy], samples, reward_params, criterion, grid=grid,
                    labels=None if label is None else [label], seed=seed,
                    num_rounds=num_rounds)[0]


def run_many(policies, samples, reward_params: RewardParams,
             criterion: Optional[Criterion] = None, *, grid: Optional[ThresholdGrid] = None,
             labels: Optional[list] = None, seed: Optional[int] = None,
             num_rounds: Optional[int] = None) -> list[RunTrace]:
    """Run several policies in lockstep over one shared sample stream.

    A policy exposes select(round_number) -> threshold-or-None and
    observe(arm, reward_value), called once per round. A policy whose arms
    do not depend on its rewards may instead declare them: a callable
    planned_arms(num_rounds) returning the list select would give over that
    many rounds; its select and observe are not called. The loop plays the
    undeclared policies only to choose their arms. After it, every policy's
    trace is answered from the stream's exit table at its arms
    (exits.table_exits), whether they were played or declared.

    samples is a SampleBlock or any iterable of samples. Every policy sees
    the identical samples (common random numbers), so cross-policy
    comparisons are paired. Each layer is scored once, however many policies
    play, and every row is a row of an exit table (exits.exit_table). A
    SampleBlock, or a list or tuple of samples stacked into one, is scored
    into one table before the loop. Any other iterable is read a sample at a
    time, after every undeclared policy has played the round before: a
    generated sample still linked to its pass (simulator.iter_samples) reads
    its row from that pass's table, built once per pass, and any other
    sample is read as a one-row pass. Returns one RunTrace per policy, in
    input order.
    """
    if criterion is None:
        criterion = natural_criterion(reward_params.variant)
    if not policies:
        raise ValueError("no policies given")
    if labels is not None and len(labels) != len(policies):
        raise ValueError("labels and policies differ in length")
    if num_rounds is not None:
        require_count("num_rounds", num_rounds, 0)
    grids = [grid if grid is not None else getattr(p, "grid", None) for p in policies]
    if any(g is None for g in grids):
        raise ValueError("pass grid= for policies that do not carry one")
    num_layers = reward_params.num_layers
    layer_cost = reward_params.layer_cost

    declared = [callable(getattr(p, "planned_arms", None)) for p in policies]
    # per undeclared policy: the policy and the arms it played
    tracks = [(policy, []) for policy, d in zip(policies, declared) if not d]
    if isinstance(samples, (list, tuple)):
        samples = SampleBlock.from_samples(samples[:num_rounds])
    if isinstance(samples, SampleBlock):
        block = samples if num_rounds is None else samples.rows(0, num_rounds)
        table = exit_table(block, criterion, num_layers)
        t = _play(tracks, table_rows(table), layer_cost) if tracks else len(block)
        columns = (block.correct_prob, block.realized_correct, block.reliability_risk)
    else:
        # per round: the sample's correct_prob, realized_correct and
        # reliability_risk, and its exit-table row
        packed = (array.array("d"), array.array("B"), array.array("d"), array.array("d"))
        rows = _packed_rows(samples, criterion, num_layers, packed)
        t = _play(tracks, itertools.islice(rows, num_rounds), layer_cost)
        rows.close()  # packs the rows read since the last pack
        if t == 0:
            raise ValueError("empty sample stream")
        *columns, table = [np.frombuffer(buf, dtype).reshape(t, num_layers)
                           for buf, dtype in zip(packed, (np.float64, bool, np.float64, np.float64))]

    # every policy's arms are checked before any trace is built
    played = iter(tracks)
    records = []
    for policy, is_declared in zip(policies, declared):
        arms = list(policy.planned_arms(t)) if is_declared else next(played)[1]
        if len(arms) != t:
            raise ValueError(f"planned_arms gave {len(arms)} arms for {t} rounds")
        records.append((arms, *table_exits(table, arms)))
    return [
        gather_trace(labels[j] if labels is not None else getattr(policy, "name", "policy"),
                     *record, columns, grid=grids[j], reward_params=reward_params,
                     criterion=criterion, seed=seed)
        for j, (policy, record) in enumerate(zip(policies, records))
    ]


def _play(tracks, rows, layer_cost) -> int:
    """Play each track's policy on every row, in lockstep, appending its arm
    to the track; the rows played. An invalid arm raises on its round."""
    t = 0
    for t, row in enumerate(rows, start=1):
        for policy, arms in tracks:
            arm = policy.select(t)
            layer, s = exit_at(row, arm)
            policy.observe(arm, exit_reward(s, layer, layer_cost))
            arms.append(arm)
    return t


def _packed_rows(samples, criterion, num_layers, packed):
    """The exit-table row of each sample, pulled one at a time. The sample's
    correct_prob, realized_correct and reliability_risk and its row are
    appended flat to the four packed buffers, so the samples themselves are
    not kept.

    A sample's row is a row of its pass: the pass a generated sample still
    holds, or for any other sample a one-row pass of its own. The pass's
    exit table is scored once, when its first sample arrives, and a run of
    consecutive rows of one pass is packed with one slice per column when it
    ends (another pass, another row, or the generator closed).
    """
    block, columns, rows = None, (), None  # the pass of the current run, its four columns and rows
    start = stop = 0  # the run is rows start..stop - 1 of the pass

    def pack():
        for buf, column in zip(packed, columns):
            buf.frombytes(column[start:stop].tobytes())

    try:
        for sample in samples:
            link = getattr(sample, "_pass", None)
            if link is None:  # a sample from no pass is a one-row pass
                link, row = SampleBlock.from_samples((sample,)), 0
            else:
                row = sample._row
            if link is not block or row != stop:
                pack()  # the run ends
                if link is not block:
                    block, table = link, exit_table(link, criterion, num_layers)
                    columns = (block.correct_prob, block.realized_correct,
                               block.reliability_risk, table)
                    rows = table.tolist()
                start = stop = row
            stop += 1
            yield rows[stop - 1]
    finally:
        pack()


def gather_trace(policy: str, arms, exit_layers, scores, columns, *,
                 grid: ThresholdGrid, reward_params: RewardParams, criterion: Criterion,
                 seed: Optional[int]) -> RunTrace:
    """The RunTrace of one policy's decisions over a stream.

    columns are the stream's (T, L) correct_prob, realized_correct and
    reliability_risk; the trace reads each at the exit layer of every round.
    """
    exit_layers = np.asarray(exit_layers, dtype=np.int32)
    scores = np.asarray(scores, dtype=np.float64)
    rows, cols = np.arange(len(exit_layers)), exit_layers - 1
    correct_prob, realized, reliability_risk = columns
    return RunTrace(
        policy=policy, arms=arms, exit_layers=exit_layers, scores=scores,
        rewards=exit_reward(scores, exit_layers, reward_params.layer_cost),
        correct_probs=correct_prob[rows, cols], realized=realized[rows, cols],
        reliabilities=1.0 - reliability_risk[rows, cols],
        grid=grid, reward_params=reward_params, criterion=criterion,
        num_layers=reward_params.num_layers, seed=seed,
    )


class UcbPolicy:
    """Adapter exposing BanditState through the runner's policy protocol.

    With a horizon, every round's index uses ln(horizon) instead of the log
    of the current round number.
    """

    name = "ucb"

    def __init__(self, grid: ThresholdGrid, gamma: float = math.sqrt(2.0),
                 horizon: Optional[int] = None):
        if horizon is not None:
            require_count("horizon", horizon, 1)
        self.grid = grid
        self.state = BanditState(grid=grid, gamma=gamma)
        self._log_of = None if horizon is None else float(horizon)
        self._last_index: Optional[int] = None

    def select(self, round_number: int) -> float:
        i = self.state.select_index(self._log_of)
        self._last_index = i
        return self.grid.values[i]

    def observe(self, arm: float, reward_value: float) -> None:
        self.state.update_index(self._last_index, reward_value)


def run(grid: ThresholdGrid, samples, params: RewardParams, gamma: float = math.sqrt(2.0),
        num_rounds: Optional[int] = None, *, criterion: Optional[Criterion] = None,
        seed: Optional[int] = None) -> RunTrace:
    """Run the threshold-adaptation loop end to end over the stream.

    num_rounds defaults to the stream length (required when samples is an
    unsized iterable); a shorter value truncates. Deterministic: same
    (samples, gamma, params) in, same trace out.
    """
    if num_rounds is None:
        try:
            num_rounds = len(samples)
        except TypeError:
            raise ValueError("num_rounds is required for unsized streams") from None
    else:
        require_integer("num_rounds", num_rounds)
        if hasattr(samples, "__len__") and num_rounds > len(samples):
            raise ValueError("num_rounds exceeds stream length")
    return run_policy(UcbPolicy(grid, gamma=gamma), samples, params, criterion, grid=grid,
                      label="ucb", seed=seed, num_rounds=num_rounds)
