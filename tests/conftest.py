"""Shared builders for hand-constructed samples, streams, and traces."""

from __future__ import annotations

import numpy as np

from exitbandit import (
    Criterion,
    RewardParams,
    RewardVariant,
    RunTrace,
    SampleOutcomes,
    ThresholdGrid,
)


def make_sample(scores, cps=None, realized=None):
    """Sample whose product exit score at layer i equals scores[i-1].

    Confidence carries the whole score (reliability risk is zero), so the
    product, confidence, and reliability criteria are all predictable.
    """
    L = len(scores)
    if cps is None:
        cps = [1.0] * L
    if realized is None:
        realized = [True] * L
    return SampleOutcomes(
        confidence=tuple(float(s) for s in scores),
        reliability_risk=(0.0,) * L,
        correct_prob=tuple(float(c) for c in cps),
        realized_correct=tuple(bool(r) for r in realized),
        feat=tuple(float(c) for c in cps),
    )


def constant_stream(scores, num_rounds, **kwargs):
    """The same hand-built sample repeated every round."""
    sample = make_sample(scores, **kwargs)
    return [sample] * num_rounds


def two_layer_noisy_stream(num_rounds, seed, lo1=0.55, hi1=0.95, lo2=0.45, hi2=0.65):
    """2-layer samples with uniform layer scores; arm means are analytic."""
    rng = np.random.default_rng(seed)
    c1 = rng.uniform(lo1, hi1, num_rounds)
    c2 = rng.uniform(lo2, hi2, num_rounds)
    return [
        SampleOutcomes((a, b), (0.0, 0.0), (1.0, 1.0), (True, True), (1.0, 1.0))
        for a, b in zip(c1.tolist(), c2.tolist())
    ]


def make_trace(
    arms,
    exit_layers,
    correct_probs=None,
    realized=None,
    reliabilities=None,
    rewards=None,
    num_layers=12,
    lam=0.0,
    variant=RewardVariant.PRODUCT,
    grid=None,
):
    """Minimal RunTrace with just the columns a metric under test reads."""
    n = len(arms)
    if correct_probs is None:
        correct_probs = [1.0] * n
    if realized is None:
        realized = [True] * n
    if reliabilities is None:
        reliabilities = [1.0] * n
    if rewards is None:
        rewards = [0.0] * n
    if grid is None:
        grid_values = sorted({a for a in arms if a is not None}) or [1.0]
        grid = ThresholdGrid(tuple(grid_values))
    return RunTrace(
        policy="test",
        arms=list(arms),
        exit_layers=np.asarray(exit_layers, dtype=np.int32),
        scores=np.zeros(n),
        rewards=np.asarray(rewards, dtype=np.float64),
        correct_probs=np.asarray(correct_probs, dtype=np.float64),
        realized=np.asarray(realized, dtype=bool),
        reliabilities=np.asarray(reliabilities, dtype=np.float64),
        grid=grid,
        reward_params=RewardParams(lam=lam, num_layers=num_layers, variant=variant),
        criterion=Criterion.PRODUCT,
        num_layers=num_layers,
    )
