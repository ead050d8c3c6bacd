"""Exit rule: leave at the first layer whose exit score clears the threshold.

The score criterion is configurable; the primary criterion multiplies the
reported confidence by the reliability scorer's complement, so a layer only
qualifies when the model is both confident and believed reliable.

The rule comes in two forms that give the same answers. decide (one sample,
one threshold) is the deployed loop's call and the reference. The other form
scores each layer once into running maxima: a stream's (T, L) exit_table,
whose every row answers any threshold by bisection (exit_at), is read row by
row (table_rows) or answered at one arm or at one arm per row (table_exits).
"""

from __future__ import annotations

import bisect
import enum
from typing import NamedTuple

import numpy as np

from .env import SampleBlock, SampleOutcomes, require_threshold


class Criterion(enum.Enum):
    """Which per-layer exit score the policy thresholds."""

    PRODUCT = "product"            # confidence * (1 - reliability_risk)
    CONFIDENCE = "confidence"      # raw confidence
    RELIABILITY = "reliability"    # 1 - reliability_risk

    # members are singletons compared by identity; Enum's own __hash__ is
    # Python code, and _scorer hashes a member on every decide
    __hash__ = object.__hash__


class ExitDecision(NamedTuple):
    """Outcome of running the exit rule on one sample. A tuple, built once
    per decide: a NamedTuple costs about half a frozen dataclass to build."""

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
    require_threshold(threshold)
    score = _scorer(criterion)
    conf, risk = sample.confidence, sample.reliability_risk
    last = len(conf) - 1
    for pos in range(last):
        s = score(conf[pos], risk[pos])
        if s >= threshold:
            return ExitDecision(pos + 1, s, True)
    return ExitDecision(last + 1, score(conf[last], risk[last]), False)


def exit_at(row, threshold) -> tuple[int, float]:
    """decide's (exit_layer, score_at_exit) read from a row of the exit table.

    The exit is the first layer whose running max clears the threshold,
    found by bisection; there the running max is the layer's own score,
    since every threshold is above 0. When no early layer clears it, and
    for a None threshold, the exit is the final layer.
    """
    pos = len(row) - 1
    if threshold is not None:
        require_threshold(threshold)
        pos = bisect.bisect_left(row, threshold, 0, pos)
    return pos + 1, row[pos]


# rows of an exit table converted to Python floats per step of table_rows
_ROW_CHUNK = 256

# the types of a bool arm, which equals 1 and is never a threshold
_BOOLS = frozenset((bool, np.bool_))


def exit_table(samples, criterion: Criterion = Criterion.PRODUCT, num_layers=None):
    """(T, L) exit table of a SampleBlock or an iterable of samples: row t
    holds the running max of sample t's scores over layers 1..L-1, then its
    final-layer score. The stream must have num_layers layers (if given).

    Where -0.0 and 0.0 tie, the running max keeps the later zero. Its sign
    never shows in an exit: every threshold is above 0, so an entry of zero
    is never an early exit."""
    block = SampleBlock.from_samples(samples)
    if num_layers is not None and block.num_layers != num_layers:
        raise ValueError("stream depth does not match reward_params.num_layers")
    # a copy: the confidence criterion's score is the confidence array itself
    table = np.array(_scorer(criterion)(block.confidence, block.reliability_risk))
    running_max = table[:, :-1]
    np.maximum.accumulate(running_max, axis=1, out=running_max)
    return table


def table_rows(table):
    """The exit table's rows, one list per round, converted to Python floats
    a chunk at a time, lazily."""
    for lo in range(0, len(table), _ROW_CHUNK):
        yield from table[lo:lo + _ROW_CHUNK].tolist()


def table_exits(table, arms):
    """exit_at over every row of an exit table, at one arm or at arms[t] for
    row t. An arm is a threshold, each distinct one checked as exit_at checks
    it, or None (the final layer). Returns the exit layers and the scores at
    exit: a row's first layer whose running max is not below its threshold.
    Per-row arms come as a list, tuple or array of one arm per row."""
    per_row = isinstance(arms, (list, tuple, np.ndarray))
    try:
        distinct = dict.fromkeys(arms if per_row else (arms,))
    except TypeError:  # an unhashable arm, such as a list, is checked with the rest
        distinct = arms
    for arm in distinct:
        if arm is not None:
            require_threshold(arm)
    # a bool equals 1 and dedupes into an equal arm before it; look for one only then
    if per_row and 1 in distinct:
        bad = next((arm for arm in arms if type(arm) in _BOOLS), None)
        if bad is not None:
            require_threshold(bad)
    if per_row and len(arms) != len(table):
        raise ValueError(f"{len(arms)} arms for {len(table)} rows")
    thresholds = np.array(arms, dtype=np.float64)  # None becomes NaN
    # an infinite threshold exits at the final layer (every score is <= 1)
    thresholds[np.isnan(thresholds)] = np.inf
    pos = np.count_nonzero(table[:, :-1] < np.reshape(thresholds, (-1, 1)), axis=1)
    return pos + 1, table[np.arange(len(table)), pos]


def exit_distribution(
    samples, threshold: float, criterion: Criterion = Criterion.PRODUCT
) -> np.ndarray:
    """Empirical exit-layer histogram of the rule over a SampleBlock or an
    iterable of samples.

    Returns an array of length num_layers summing to 1 (within float error).
    """
    require_threshold(threshold)
    table = exit_table(samples, criterion)
    layers, _ = table_exits(table, threshold)
    return np.bincount(layers, minlength=table.shape[1] + 1)[1:] / len(layers)
