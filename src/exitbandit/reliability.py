"""Trainer for the reliability scorer used by the product exit criterion.

The scorer is a single shared linear layer plus sigmoid over the per-layer
features and a normalized depth input. It is trained full-batch with plain
gradient descent on a depth-weighted objective: cross-entropy scaled up by
(1 + score), plus a squared hinge that keeps per-exit coverage from
collapsing below its target.

Coverage (the fraction of rows scored >= 0.5) is non-differentiable, so
training substitutes a steep sigmoid surrogate; reported coverage always
uses the exact indicator. Gradients are analytic and validated against
central finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .env import SampleBlock, require_count, require_finite

SCHEMA_NAME = "reliability-linear"
SCHEMA_VERSION = 1
SURROGATE_SHARPNESS = 50.0
CE_FLOOR = 1e-12


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class ReliabilityModel:
    """Linear scorer: sigmoid(w . [features, layer/num_layers, 1])."""

    weights: tuple[float, ...]
    num_layers: int

    def __post_init__(self):
        require_count("num_layers", self.num_layers, 2)
        if len(self.weights) < 3:
            raise ValueError("weights must cover >=1 feature, depth, bias")
        for w in self.weights:
            require_finite("weight", w)

    @property
    def feature_dim(self) -> int:
        return len(self.weights) - 2

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "num_layers": self.num_layers,
            "weights": list(self.weights),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ReliabilityModel":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("reliability model JSON must be an object")
        if payload.get("schema") != SCHEMA_NAME:
            raise ValueError(f"unknown schema {payload.get('schema')!r}")
        if payload.get("version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported version {payload.get('version')!r}")
        missing = sorted({"num_layers", "weights"} - payload.keys())
        if missing:
            raise ValueError(f"reliability model JSON lacks {missing}")
        if not isinstance(payload["weights"], list):
            raise ValueError("weights must be a list")
        return cls(tuple(payload["weights"]), payload["num_layers"])


@dataclass(frozen=True)
class CoverageTargets:
    """Per-exit floors for the fraction of rows the scorer may trust."""

    c_per_exit: tuple[float, ...]

    def __post_init__(self):
        if len(self.c_per_exit) == 0:
            raise ValueError("empty coverage targets")
        for c in self.c_per_exit:
            if not (0.0 <= c <= 1.0):
                raise ValueError(f"coverage target {c!r} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.c_per_exit)


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.1
    epochs: int = 500
    sharpness: float = SURROGATE_SHARPNESS

    def __post_init__(self):
        require_finite("learning_rate", self.learning_rate)
        require_count("epochs", self.epochs, 1)
        require_finite("sharpness", self.sharpness)
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.sharpness <= 0.0:
            raise ValueError("sharpness must be positive")


@dataclass
class Dataset:
    """Flat per-(sample, layer) rows for full-batch training.

    inputs holds the augmented design matrix [features, layer/L, 1]. Rows are
    grouped by layer (layer_index is non-decreasing over 1..num_layers), so
    each layer's rows are one contiguous slice in layer_rows and per-exit
    means read views, not copies.
    """

    inputs: np.ndarray
    cross_entropy: np.ndarray
    layer_index: np.ndarray
    correct: np.ndarray
    num_layers: int
    layer_rows: list[slice] = field(init=False)
    # objective_gradient's full-length columns, overwritten by every call
    _work: Optional[np.ndarray] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        n = self.inputs.shape[0]
        if n == 0:
            raise ValueError("empty dataset")
        if not (self.cross_entropy.shape == self.layer_index.shape == self.correct.shape == (n,)):
            raise ValueError("misaligned dataset columns")
        if np.any(self.cross_entropy < 0.0):
            raise ValueError("negative cross-entropy")
        if self.layer_index.min() < 1 or self.layer_index.max() > self.num_layers:
            raise ValueError(f"layer_index outside 1..{self.num_layers}")
        if np.any(self.layer_index[1:] < self.layer_index[:-1]):
            raise ValueError("rows must be grouped by layer (non-decreasing layer_index)")
        ends = np.searchsorted(self.layer_index, np.arange(self.num_layers + 1), side="right")
        self.layer_rows = [slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]
        if any(rows.start == rows.stop for rows in self.layer_rows):
            raise ValueError("every layer needs at least one row")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.inputs.shape[1] - 2

    def _work_columns(self) -> np.ndarray:
        """Three float64 columns of len(self) rows, made on first use and
        again whenever the row count changes."""
        if self._work is None or self._work.shape[1] != len(self):
            self._work = np.empty((3, len(self)))
        return self._work


def dataset_from_samples(samples) -> Dataset:
    """One training row per (sample, layer) of a SampleBlock or an iterable
    of samples, grouped by layer.

    Rows run layer by layer, in sample order within each layer; a row is
    [confidence, layer/L, feat, layer/L, 1], the scorer's three features
    plus its depth and bias inputs. The cross-entropy column is the
    simulator's stand-in for a classifier loss: -log(correct_prob) when the
    layer's prediction realized correct, -log(1 - correct_prob) otherwise,
    floored away from log(0).
    """
    block = SampleBlock.from_samples(samples)
    num_layers, n = block.num_layers, len(block)
    correct = block.realized_correct.T.ravel()
    p = np.clip(block.correct_prob.T, CE_FLOOR, 1.0 - CE_FLOOR).ravel()
    # math.log per element: numpy's log may differ in the last ulp
    q = np.where(correct, p, 1.0 - p).tolist()
    ce = -np.fromiter(map(math.log, q), np.float64, len(q))
    layers = np.arange(1, num_layers + 1)
    depth = (layers / num_layers)[:, None]
    inputs = np.empty((num_layers, n, 5))
    inputs[:, :, 0] = block.confidence.T
    inputs[:, :, 1] = depth
    inputs[:, :, 2] = block.feat.T
    inputs[:, :, 3] = depth
    inputs[:, :, 4] = 1.0
    return Dataset(
        inputs=inputs.reshape(-1, 5),
        cross_entropy=ce,
        layer_index=np.repeat(layers, n),
        correct=correct,
        num_layers=num_layers,
    )


def batch_scores(model: ReliabilityModel, dataset: Dataset) -> np.ndarray:
    if dataset.feature_dim != model.feature_dim:
        raise ValueError("dataset feature dim does not match model")
    w = np.asarray(model.weights, dtype=np.float64)
    return _sigmoid(dataset.inputs @ w)


def coverage(model: ReliabilityModel, dataset: Dataset) -> float:
    """Exact fraction of rows scored >= 0.5 (boundary counts as covered)."""
    s = batch_scores(model, dataset)
    return float(np.mean(s >= 0.5))


def per_exit_coverage(model: ReliabilityModel, dataset: Dataset) -> np.ndarray:
    s = batch_scores(model, dataset)
    return np.asarray(
        [float(np.mean(s[rows] >= 0.5)) for rows in dataset.layer_rows]
    )


def hinge_sq(a: float) -> float:
    return max(0.0, a) ** 2


def compute_c(validation: Sequence[Sequence[bool]]) -> CoverageTargets:
    """Per-exit correctness rates of a validation set, used as floors."""
    arr = np.asarray(validation, dtype=bool)
    if arr.size == 0:
        raise ValueError("empty validation set")
    return CoverageTargets(tuple(float(v) for v in arr.mean(axis=0)))


def compute_c_from_samples(samples) -> CoverageTargets:
    """compute_c of the realized-correct column of a SampleBlock or an
    iterable of samples."""
    return compute_c(SampleBlock.from_samples(samples).realized_correct)


def objective(
    weights: np.ndarray,
    dataset: Dataset,
    targets: CoverageTargets,
    sharpness: float = SURROGATE_SHARPNESS,
) -> float:
    loss, _ = objective_gradient(weights, dataset, targets, sharpness)
    return loss


def _sigmoid_in_place(x: np.ndarray) -> None:
    """x <- _sigmoid(x), with the same operations in the same order."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(1.0, x, out=x)
    np.divide(1.0, x, out=x)


def objective_gradient(
    weights: np.ndarray,
    dataset: Dataset,
    targets: CoverageTargets,
    sharpness: float = SURROGATE_SHARPNESS,
) -> tuple[float, np.ndarray]:
    """Training objective and its analytic gradient.

    Per exit i: mean(ce * (1 + g)) + hinge_sq(c_i - smooth coverage), where
    the smooth coverage is mean(sigmoid(sharpness * (g - 0.5))). Exits are
    depth-weighted by i / sum(1..L).

    The full-length columns are written into the dataset's work arrays, so
    a call allocates only per-layer and per-weight arrays. When every layer
    holds the same m rows, each column is read as an (L, m) view.
    """
    if len(targets) != dataset.num_layers:
        raise ValueError("targets length must equal num_layers")
    w = np.asarray(weights, dtype=np.float64)
    ce = dataset.cross_entropy
    # each column takes a second role once its first is spent
    g, g_prime, surrogate = dataset._work_columns()
    np.matmul(dataset.inputs, w, out=g)
    _sigmoid_in_place(g)
    np.subtract(1.0, g, out=g_prime)
    np.multiply(g, g_prime, out=g_prime)
    np.subtract(g, 0.5, out=surrogate)
    np.multiply(sharpness, surrogate, out=surrogate)
    _sigmoid_in_place(surrogate)
    fit_terms = g
    np.add(1.0, fit_terms, out=fit_terms)
    np.multiply(ce, fit_terms, out=fit_terms)

    num_layers = dataset.num_layers
    sizes = [rows.stop - rows.start for rows in dataset.layer_rows]
    m = sizes[0] if sizes.count(sizes[0]) == num_layers else None
    # np.add.reduce over each row of an (L, m) view sums pairwise, as it does
    # over each layer's slice; sum / m is np.mean's arithmetic
    if m is not None:
        fit = np.add.reduce(fit_terms.reshape(num_layers, m), axis=1) / m
        cov = np.add.reduce(surrogate.reshape(num_layers, m), axis=1) / m
    else:
        fit = np.asarray([np.add.reduce(fit_terms[rows]) for rows in dataset.layer_rows]) / sizes
        cov = np.asarray([np.add.reduce(surrogate[rows]) for rows in dataset.layer_rows]) / sizes
    gaps = np.asarray(targets.c_per_exit, dtype=np.float64) - cov

    depth_weights = np.arange(1, num_layers + 1, dtype=np.float64)
    depth_weights /= depth_weights.sum()
    total = 0.0
    for i, (fit_i, gap) in enumerate(zip(fit.tolist(), gaps.tolist())):
        total += depth_weights[i] * (fit_i + hinge_sq(gap))

    # sharpness * s * (1 - s), left to right
    surrogate_prime = fit_terms
    np.multiply(sharpness, surrogate, out=surrogate_prime)
    np.subtract(1.0, surrogate, out=surrogate)
    np.multiply(surrogate_prime, surrogate, out=surrogate_prime)

    grad = np.zeros_like(w)
    if m is None:
        ce_g_prime = np.multiply(ce, g_prime, out=surrogate)
        for i, rows in enumerate(dataset.layer_rows):
            dg = ce_g_prime[rows] / sizes[i]
            if gaps[i] > 0.0:
                # keep the left-to-right product: (sp * g') first changes the bits
                dg = dg - (2.0 * gaps[i] / sizes[i]) * surrogate_prime[rows] * g_prime[rows]
            grad += depth_weights[i] * (dg @ dataset.inputs[rows])
        return total, grad

    # an inactive hinge's coefficient is +0.0, and dg - (+0.0 * sp) * g' is
    # dg bit for bit (sp and g' are >= 0), so one pass serves every layer
    # (a ufunc given the (L, 1) column itself would buffer a full column)
    hinge = surrogate
    hinge.reshape(num_layers, m)[...] = np.where(gaps > 0.0, 2.0 * gaps / m, 0.0)[:, None]
    np.multiply(hinge, surrogate_prime, out=hinge)
    np.multiply(hinge, g_prime, out=hinge)
    dg = g_prime
    np.multiply(ce, dg, out=dg)
    np.divide(dg, m, out=dg)
    np.subtract(dg, hinge, out=dg)
    # one gemv per layer, as dg[rows] @ inputs[rows] issues
    per_layer = np.matmul(dg.reshape(num_layers, 1, m),
                          dataset.inputs.reshape(num_layers, m, -1))
    for i in range(num_layers):
        grad += depth_weights[i] * per_layer[i, 0]
    return total, grad


def train(
    dataset: Dataset,
    targets: CoverageTargets,
    hyperparams: Optional[Hyperparams] = None,
    *,
    initial_weights: Optional[Sequence[float]] = None,
    loss_history: Optional[list[float]] = None,
) -> ReliabilityModel:
    """Full-batch gradient descent on the depth-weighted objective.

    The first epoch runs with all coverage floors at zero so the fit term
    settles before coverage pressure kicks in; remaining epochs use the
    supplied targets. A non-finite loss aborts with a diagnostic.
    """
    if hyperparams is None:
        hyperparams = Hyperparams()
    if len(targets) != dataset.num_layers:
        raise ValueError("targets length must equal num_layers")
    dim = dataset.feature_dim + 2
    if initial_weights is None:
        w = np.zeros(dim, dtype=np.float64)
    else:
        w = np.asarray(initial_weights, dtype=np.float64).copy()
        if w.shape != (dim,):
            raise ValueError(f"initial_weights must have length {dim}")
    warmup = CoverageTargets((0.0,) * dataset.num_layers)
    for epoch in range(hyperparams.epochs):
        active = warmup if epoch == 0 else targets
        loss, grad = objective_gradient(w, dataset, active, hyperparams.sharpness)
        if not math.isfinite(loss):
            raise FloatingPointError(
                f"non-finite loss {loss!r} at epoch {epoch + 1}; "
                f"|w|_max={np.max(np.abs(w)):.3g}, lr={hyperparams.learning_rate}"
            )
        if loss_history is not None:
            loss_history.append(loss)
        w -= hyperparams.learning_rate * grad
    # the work arrays serve the epochs only: drop them before the dataset is
    # scored, which is where a run's memory peaks
    dataset._work = None
    return ReliabilityModel(tuple(float(v) for v in w), dataset.num_layers)


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC (probability a positive outranks a negative, ties 0.5)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # each run of equal scores (a tie block) shares the mean of its 1-based
    # ranks, a half-integer, so the rank sum below is exact
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    sizes = np.diff(np.r_[starts, labels.size])
    ranks = np.repeat(0.5 * (2 * starts + sizes + 1), sizes)
    rank_sum = float(ranks[labels[order]].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)
