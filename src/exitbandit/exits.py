"""Exit rule: leave at the first layer whose exit score clears the threshold.

The score criterion is configurable; the primary criterion multiplies the
reported confidence by the reliability scorer's complement, so a layer only
qualifies when the model is both confident and believed reliable.

The rule comes in two forms that give the same answers. decide (one sample,
one threshold) is the deployed loop's call and the reference. The other form
scores each layer once into running maxima: a sample's row (scored_row)
answers any threshold by bisection (exit_at), and a stream's (T, L)
exit_table is read row by row (table_rows) or counted at one threshold or
one per row (table_exits, which planned_exits feeds checked arms).
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .env import SampleBlock, SampleOutcomes


class Criterion(enum.Enum):
    """Which per-layer exit score the policy thresholds."""

    PRODUCT = "product"            # confidence * (1 - reliability_risk)
    CONFIDENCE = "confidence"      # raw confidence
    RELIABILITY = "reliability"    # 1 - reliability_risk


@dataclass(frozen=True, slots=True)
class ExitDecision:
    """Outcome of running the exit rule on one sample."""

    exit_layer: int
    score_at_exit: float
    early: bool


def _product_score(confidence, reliability_risk):
    return confidence * (1.0 - reliability_risk)


def _confidence_score(confidence, reliability_risk):
    return confidence


def _reliability_score(confidence, reliability_risk):
    return 1.0 - reliability_risk


# plain arithmetic, so the same scorers also work elementwise on arrays
_SCORERS = {
    Criterion.PRODUCT: _product_score,
    Criterion.CONFIDENCE: _confidence_score,
    Criterion.RELIABILITY: _reliability_score,
}


def _scorer(criterion: Criterion):
    try:
        return _SCORERS[criterion]
    except (KeyError, TypeError):
        raise ValueError(f"unknown criterion {criterion!r}") from None


def _check_threshold(threshold: float) -> None:
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold {threshold!r} outside (0, 1]")


def layer_score(confidence, reliability_risk, criterion: Criterion):
    """Exit score of one layer (or, elementwise, of arrays) under the criterion."""
    return _scorer(criterion)(confidence, reliability_risk)


def decide(
    sample: SampleOutcomes, threshold: float, criterion: Criterion = Criterion.PRODUCT
) -> ExitDecision:
    """First layer with score >= threshold wins; the last layer needs no score.

    The comparison is inclusive: a score exactly equal to the threshold
    exits. Layers beyond the exit are never evaluated.
    """
    _check_threshold(threshold)
    score = _scorer(criterion)
    conf, risk = sample.confidence, sample.reliability_risk
    last = len(conf) - 1
    for pos in range(last):
        s = score(conf[pos], risk[pos])
        if s >= threshold:
            return ExitDecision(pos + 1, s, True)
    return ExitDecision(last + 1, score(conf[last], risk[last]), False)


def scored_row(confidence, reliability_risk, criterion: Criterion = Criterion.PRODUCT):
    """One sample's row of the exit table, in plain Python: (prefix_max,
    final_score), the running max of the scores of layers 1..L-1 (a list)
    and the final layer's score. Ties keep the earlier layer's score."""
    score = _scorer(criterion)
    prefix_max = []
    best = -math.inf
    for pos in range(len(confidence) - 1):
        s = score(confidence[pos], reliability_risk[pos])
        if s > best:
            best = s
        prefix_max.append(best)
    return prefix_max, score(confidence[-1], reliability_risk[-1])


def exit_at(prefix_max, final_score, threshold) -> tuple[int, float]:
    """decide's (exit_layer, score_at_exit) read from a row of the exit table.

    The exit is the first layer whose running max clears the threshold,
    found by bisection; there the running max is the layer's own score,
    since every threshold is above 0. A None threshold exits at the final
    layer.
    """
    if threshold is not None:
        _check_threshold(threshold)
        if prefix_max[-1] >= threshold:
            pos = bisect.bisect_left(prefix_max, threshold)
            return pos + 1, prefix_max[pos]
    return len(prefix_max) + 1, final_score


# rows of an exit table converted to Python floats per step of table_rows
_ROW_CHUNK = 256


def exit_table(samples, criterion: Criterion = Criterion.PRODUCT, num_layers=None):
    """(T, L) exit table of a SampleBlock or an iterable of samples: row t
    holds the running max of sample t's scores over layers 1..L-1, then its
    final-layer score. The stream must have num_layers layers (if given)."""
    block = SampleBlock.from_samples(samples)
    if num_layers is not None and block.num_layers != num_layers:
        raise ValueError("stream depth does not match num_layers")
    # a copy: the confidence criterion's score is the confidence array itself
    table = np.array(_scorer(criterion)(block.confidence, block.reliability_risk))
    running_max = table[:, :-1]
    np.maximum.accumulate(running_max, axis=1, out=running_max)
    return table


def table_rows(table):
    """The exit table's rows as scored_row gives them, one per round,
    converted to Python floats a chunk at a time, lazily."""
    for lo in range(0, len(table), _ROW_CHUNK):
        rows = table[lo:lo + _ROW_CHUNK]
        yield from zip(rows[:, :-1].tolist(), rows[:, -1].tolist())


def planned_exits(table, arms):
    """exit_at over every row of an exit table: row t at arms[t], a
    threshold or None (the final layer). Each distinct arm is checked as
    exit_at checks it. Returns the exit layers and the scores at exit."""
    for arm in dict.fromkeys(arms):
        if arm is not None:
            _check_threshold(arm)
    thresholds = np.array(arms, dtype=np.float64)  # None becomes NaN,
    thresholds[np.isnan(thresholds)] = np.inf      # which exits at the final layer
    return table_exits(table, thresholds)


def table_exits(table, thresholds):
    """Exit layers and scores at exit of an exit table's rows at one threshold,
    or at thresholds[t] for row t (the caller checks them). A row exits at the
    first layer whose running max is not below its threshold, scoring that max;
    an infinite threshold exits at the final layer (every score is <= 1)."""
    pos = np.count_nonzero(table[:, :-1] < np.reshape(thresholds, (-1, 1)), axis=1)
    return pos + 1, table[np.arange(len(table)), pos]


def exit_distribution(
    samples, threshold: float, criterion: Criterion = Criterion.PRODUCT
) -> np.ndarray:
    """Empirical exit-layer histogram of the rule over a SampleBlock or an
    iterable of samples.

    Returns an array of length num_layers summing to 1 (within float error).
    """
    if not isinstance(samples, SampleBlock):
        samples = list(samples)
        if not samples:
            raise ValueError("no samples given")
    _check_threshold(threshold)
    table = exit_table(samples, criterion)
    layers, _ = table_exits(table, threshold)
    return np.bincount(layers, minlength=table.shape[1] + 1)[1:] / len(layers)
