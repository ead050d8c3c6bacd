"""Reference policies: fixed threshold, random threshold, always-final-layer,
and the offline oracle that replays every arm to find the best fixed one.

The oracle replays all arms over the same realized stream (common random
numbers), so desk-scale gap estimates are stable; its per-arm means are the
ground truth that regret computations use.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .bandit import RewardParams, RunTrace, exit_reward, natural_criterion, run_policy
from .env import ThresholdGrid, require_threshold
from .exits import Criterion, exit_table, table_exits


class FixedPolicy:
    """Plays one threshold every round."""

    name = "fixed"

    def __init__(self, tau: float):
        require_threshold(tau)
        self.tau = tau

    def select(self, round_number: int) -> float:
        return self.tau

    def observe(self, arm, reward_value) -> None:
        pass

    def planned_arms(self, num_rounds: int) -> list:
        return [self.tau] * num_rounds


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

    def planned_arms(self, num_rounds: int) -> list:
        """select's arms for num_rounds rounds, drawn in one batch: the same
        draws, leaving the generator in the same state (pinned by a test)."""
        values = self.grid.values
        return [values[i] for i in self._rng.integers(self._k, size=num_rounds).tolist()]


class FinalLayerPolicy:
    """Never exits early; the runner bypasses thresholding on a None arm."""

    name = "final"

    def select(self, round_number: int) -> None:
        return None

    def observe(self, arm, reward_value) -> None:
        pass

    def planned_arms(self, num_rounds: int) -> list:
        return [None] * num_rounds


def replay_arm(tau: float, samples, params: RewardParams, criterion: Optional[Criterion] = None,
               *, grid: Optional[ThresholdGrid] = None, seed: Optional[int] = None,
               num_rounds: Optional[int] = None) -> RunTrace:
    """Trace of playing one fixed arm over the whole stream (or its first
    num_rounds rounds): run_policy(FixedPolicy(tau), ...), labelled
    fixed<tau>, on a grid of tau alone unless one is given."""
    return run_policy(FixedPolicy(tau), samples, params, criterion,
                      grid=ThresholdGrid((tau,)) if grid is None else grid,
                      label=f"fixed{tau:g}", seed=seed, num_rounds=num_rounds)


def oracle_best_arm(grid: ThresholdGrid, samples, params: RewardParams,
                    criterion: Optional[Criterion] = None) -> tuple[float, dict[float, float]]:
    """Exhaustively replay every arm; return (best arm, per-arm mean rewards).

    Mean reward ties break toward the smallest threshold. The means define
    the gaps used by every regret metric downstream. Each arm's rewards are
    those replay_arm would record (same exits, same reward formula) and are
    summed exactly, so a mean equals math.fsum(replay_arm(tau).rewards) / T.
    """
    if criterion is None:
        criterion = natural_criterion(params.variant)
    table = exit_table(samples, criterion, params.num_layers)
    means: dict[float, float] = {}
    for tau in grid.values:
        layers, at_exit = table_exits(table, tau)
        rewards = exit_reward(at_exit, layers, params.layer_cost)
        means[tau] = math.fsum(rewards.tolist()) / len(rewards)
    best = grid.values[0]
    for tau in grid.values[1:]:
        if means[tau] > means[best]:
            best = tau
    return best, means
