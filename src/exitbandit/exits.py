"""Exit rule: leave at the first layer whose exit score clears the threshold.

The score criterion is configurable; the primary criterion multiplies the
reported confidence by the reliability scorer's complement, so a layer only
qualifies when the model is both confident and believed reliable.

The rule comes in three forms that give the same answers: decide (one
sample, one threshold; the deployed loop's call and the reference), ExitScan
(one sample, many thresholds, each layer scored at most once) and
exit_columns (a whole stream, one threshold column at a time).
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .env import SampleOutcomes


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


class ExitScan:
    """Exit decisions of one sample for any number of thresholds.

    Layers are scored lazily, only as deep as the deepest threshold asked so
    far needs, and each at most once. The running max of the scores scored so
    far (final layer excluded) is kept, so a threshold it already clears is
    resolved by bisection. exit(threshold) returns decide's (exit_layer,
    score_at_exit); threshold None exits at the final layer.
    """

    __slots__ = ("_conf", "_risk", "_score", "_scores", "_prefix_max", "_final")

    def __init__(self, sample: SampleOutcomes, criterion: Criterion = Criterion.PRODUCT):
        self._conf = sample.confidence
        self._risk = sample.reliability_risk
        self._score = _scorer(criterion)
        self._scores: list[float] = []
        self._prefix_max: list[float] = []
        self._final = None

    def exit(self, threshold) -> tuple[int, float]:
        if threshold is not None:
            _check_threshold(threshold)
            prefix_max = self._prefix_max
            if prefix_max and prefix_max[-1] >= threshold:
                pos = bisect.bisect_left(prefix_max, threshold)
                return pos + 1, self._scores[pos]
            conf, risk, score, scores = self._conf, self._risk, self._score, self._scores
            best = prefix_max[-1] if prefix_max else -math.inf
            for pos in range(len(scores), len(conf) - 1):
                s = score(conf[pos], risk[pos])
                scores.append(s)
                if s > best:
                    best = s
                prefix_max.append(best)
                if s >= threshold:
                    return pos + 1, s
        if self._final is None:
            self._final = self._score(self._conf[-1], self._risk[-1])
        return len(self._conf), self._final


_BLOCK_ROWS = 256


def exit_columns(samples, thresholds, criterion: Criterion = Criterion.PRODUCT,
                 num_layers=None):
    """Batch form of decide over a whole stream, one threshold at a time.

    Yields (exit_layers, scores_at_exit), two length-T arrays, per threshold
    in order. Every sample must have num_layers layers (default: the first
    sample's). Each layer is scored once, into a (T, L) table whose row t
    holds the running max of sample t's scores over layers 1..L-1, then its
    final-layer score. A row's exit is the number of running-max entries
    below the threshold; at an early exit the running max is the exit score.
    """
    score = _scorer(criterion)
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample stream")
    if num_layers is None:
        num_layers = samples[0].num_layers
    if any(s.num_layers != num_layers for s in samples):
        raise ValueError("stream depth does not match num_layers")

    # scored in row blocks so the temporaries stay small next to the table
    table = np.empty((len(samples), num_layers))
    for start in range(0, len(samples), _BLOCK_ROWS):
        block = samples[start:start + _BLOCK_ROWS]
        table[start:start + len(block)] = score(
            np.array([s.confidence for s in block], dtype=np.float64),
            np.array([s.reliability_risk for s in block], dtype=np.float64),
        )
    running_max = table[:, :-1]
    np.maximum.accumulate(running_max, axis=1, out=running_max)
    rows = np.arange(len(samples))
    for threshold in thresholds:
        _check_threshold(threshold)
        pos = np.count_nonzero(running_max < threshold, axis=1)
        yield pos + 1, table[rows, pos]


def exit_distribution(
    samples, threshold: float, criterion: Criterion = Criterion.PRODUCT
) -> np.ndarray:
    """Empirical exit-layer histogram of the rule over a sample set.

    Returns an array of length num_layers summing to 1 (within float error).
    """
    samples = list(samples)
    if len(samples) == 0:
        raise ValueError("no samples given")
    (layers, _), = exit_columns(samples, (threshold,), criterion)
    counts = np.bincount(layers, minlength=samples[0].num_layers + 1)[1:]
    return counts / layers.size
