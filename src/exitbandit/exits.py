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
import itertools
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


class ExitScan:
    """Exit decisions of one sample for any number of thresholds.

    Layers are scored lazily, only as deep as the deepest threshold asked so
    far needs, and each at most once. The running max of the scores scored so
    far (final layer excluded) is kept, so a threshold it already clears is
    resolved by bisection. exit(threshold) returns decide's (exit_layer,
    score_at_exit); threshold None exits at the final layer. The sample is
    given as its confidence and reliability_risk columns, or already scored
    (see scored).
    """

    __slots__ = ("_conf", "_risk", "_score", "_scores", "_prefix_max", "_final", "_layers")

    def __init__(self, confidence, reliability_risk, criterion: Criterion = Criterion.PRODUCT):
        self._conf = confidence
        self._risk = reliability_risk
        self._score = _scorer(criterion)
        self._scores: list[float] = []
        self._prefix_max: list[float] = []
        self._final = None
        self._layers = len(confidence)

    @classmethod
    def scored(cls, prefix_max: list, final_score: float) -> "ExitScan":
        """A scan with every layer scored: one _exit_table row, as the running
        max over layers 1..L-1 and the final-layer score. The running max
        stands in for the scores, since at an early exit the two are equal."""
        scan = cls.__new__(cls)
        scan._conf = scan._risk = scan._score = None
        scan._scores = scan._prefix_max = prefix_max
        scan._final = final_score
        scan._layers = len(prefix_max) + 1
        return scan

    def exit(self, threshold) -> tuple[int, float]:
        if threshold is not None:
            _check_threshold(threshold)
            prefix_max = self._prefix_max
            if prefix_max and prefix_max[-1] >= threshold:
                pos = bisect.bisect_left(prefix_max, threshold)
                return pos + 1, self._scores[pos]
            conf, risk, score, scores = self._conf, self._risk, self._score, self._scores
            best = prefix_max[-1] if prefix_max else -math.inf
            for pos in range(len(scores), self._layers - 1):
                s = score(conf[pos], risk[pos])
                scores.append(s)
                if s > best:
                    best = s
                prefix_max.append(best)
                if s >= threshold:
                    return pos + 1, s
        if self._final is None:
            self._final = self._score(self._conf[-1], self._risk[-1])
        return self._layers, self._final


# rows of a SampleBlock scored and converted to Python floats per step of block_rounds
_ROW_CHUNK = 256


def _exit_table(confidence, reliability_risk, criterion: Criterion) -> np.ndarray:
    """(T, L) table whose row t holds the running max of sample t's scores
    over layers 1..L-1, then its final-layer score."""
    # a copy: the confidence criterion's score is the confidence array itself
    table = np.array(_scorer(criterion)(confidence, reliability_risk))
    running_max = table[:, :-1]
    np.maximum.accumulate(running_max, axis=1, out=running_max)
    return table


def block_rounds(block: SampleBlock, criterion: Criterion):
    """Per round of the block: (ExitScan, correct_prob, realized_correct,
    reliability_risk), the columns as lists. Rows are scored in numpy and
    converted a chunk at a time, lazily."""
    def chunk(lo):
        rows = slice(lo, lo + _ROW_CHUNK)
        table = _exit_table(block.confidence[rows], block.reliability_risk[rows], criterion)
        return zip(map(ExitScan.scored, table[:, :-1].tolist(), table[:, -1].tolist()),
                   block.correct_prob[rows].tolist(), block.realized_correct[rows].tolist(),
                   block.reliability_risk[rows].tolist())
    return itertools.chain.from_iterable(map(chunk, range(0, len(block), _ROW_CHUNK)))


def exit_columns(samples, thresholds, criterion: Criterion = Criterion.PRODUCT,
                 num_layers=None):
    """Batch form of decide over a whole stream, one threshold at a time.

    samples is a SampleBlock or an iterable of samples (stacked into one).
    Yields (exit_layers, scores_at_exit), two length-T arrays, per threshold
    in order. The stream must have num_layers layers (default: its own).
    Each layer is scored once, into the _exit_table of running maxima. A
    row's exit is the number of running-max entries below the threshold; at
    an early exit the running max is the exit score.
    """
    if not isinstance(samples, SampleBlock):
        samples = SampleBlock.from_samples(samples)
    if num_layers is not None and samples.num_layers != num_layers:
        raise ValueError("stream depth does not match num_layers")

    table = _exit_table(samples.confidence, samples.reliability_risk, criterion)
    running_max = table[:, :-1]
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
