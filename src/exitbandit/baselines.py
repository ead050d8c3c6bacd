"""Reference policies: fixed threshold, random threshold, always-final-layer,
and the offline oracle that replays every arm to find the best fixed one.

The oracle replays all arms over the same realized stream (common random
numbers), so desk-scale gap estimates are stable; its per-arm means are the
ground truth that regret computations use.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

# run_policy stays in this namespace: the benchmark's traced run wraps
# baselines.run_policy
from .bandit import (  # noqa: F401
    RewardParams, RunTrace, exit_reward, gather_trace, natural_criterion, run_policy,
)
from .env import SampleBlock, ThresholdGrid
from .exits import Criterion, exit_columns


class FixedPolicy:
    """Plays one threshold every round."""

    name = "fixed"

    def __init__(self, tau: float):
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau {tau!r} outside (0, 1]")
        self.tau = tau

    def select(self, round_number: int) -> float:
        return self.tau

    def observe(self, arm, reward_value) -> None:
        pass


class RandomPolicy:
    """Plays a uniformly random grid arm every round (seeded)."""

    name = "random"

    def __init__(self, grid: ThresholdGrid, seed: int):
        self.grid = grid
        self._rng = np.random.default_rng(seed)
        self._k = len(grid)

    def select(self, round_number: int) -> float:
        return self.grid.values[int(self._rng.integers(self._k))]

    def observe(self, arm, reward_value) -> None:
        pass


class FinalLayerPolicy:
    """Never exits early; the runner bypasses thresholding on a None arm."""

    name = "final"

    def select(self, round_number: int) -> None:
        return None

    def observe(self, arm, reward_value) -> None:
        pass


def replay_arm(
    tau: float,
    samples,
    params: RewardParams,
    criterion: Optional[Criterion] = None,
    *,
    grid: Optional[ThresholdGrid] = None,
    seed: Optional[int] = None,
    num_rounds: Optional[int] = None,
) -> RunTrace:
    """Trace of playing one fixed arm over the whole stream (or its first
    num_rounds rounds): the trace run_policy(FixedPolicy(tau), ...) records,
    gathered from the stream's exit table."""
    FixedPolicy(tau)  # the same check of tau
    if grid is None:
        grid = ThresholdGrid((tau,))
    if criterion is None:
        criterion = natural_criterion(params.variant)
    if isinstance(samples, SampleBlock):
        block = samples if num_rounds is None else samples.rows(0, num_rounds)
    else:
        block = SampleBlock.from_samples(itertools.islice(samples, num_rounds))
    (layers, at_exit), = exit_columns(block, (tau,), criterion, params.num_layers)
    return gather_trace(f"fixed{tau:g}", [tau] * len(block), layers, at_exit,
                        exit_reward(at_exit, layers, params.layer_cost),
                        (block.correct_prob, block.realized_correct, block.reliability_risk),
                        grid=grid, reward_params=params, criterion=criterion, seed=seed)


def oracle_best_arm(
    grid: ThresholdGrid,
    samples,
    params: RewardParams,
    criterion: Optional[Criterion] = None,
) -> tuple[float, dict[float, float]]:
    """Exhaustively replay every arm; return (best arm, per-arm mean rewards).

    Mean reward ties break toward the smallest threshold. The means define
    the gaps used by every regret metric downstream. Each arm's rewards are
    those replay_arm would record (same exits, same reward formula) and are
    summed exactly, so a mean equals math.fsum(replay_arm(tau).rewards) / T.
    """
    if criterion is None:
        criterion = natural_criterion(params.variant)
    columns = exit_columns(samples, grid.values, criterion, params.num_layers)
    means: dict[float, float] = {}
    for tau, (layers, at_exit) in zip(grid.values, columns):
        rewards = exit_reward(at_exit, layers, params.layer_cost)
        means[tau] = math.fsum(rewards.tolist()) / len(rewards)
    best = grid.values[0]
    for tau in grid.values[1:]:
        if means[tau] > means[best]:
            best = tau
    return best, means
