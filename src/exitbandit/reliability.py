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

from .env import SampleBlock, require_finite, require_integer

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
        require_integer("num_layers", self.num_layers)
        if self.num_layers < 2:
            raise ValueError("num_layers must be >= 2")
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
        require_integer("epochs", self.epochs)
        require_finite("sharpness", self.sharpness)
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
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
    """
    if len(targets) != dataset.num_layers:
        raise ValueError("targets length must equal num_layers")
    w = np.asarray(weights, dtype=np.float64)
    g = _sigmoid(dataset.inputs @ w)
    g_prime = g * (1.0 - g)
    surrogate = _sigmoid(sharpness * (g - 0.5))
    surrogate_prime = sharpness * surrogate * (1.0 - surrogate)

    depth_weights = np.arange(1, dataset.num_layers + 1, dtype=np.float64)
    depth_weights /= depth_weights.sum()

    ce = dataset.cross_entropy
    fit_terms = ce * (1.0 + g)
    ce_g_prime = ce * g_prime

    total = 0.0
    grad = np.zeros_like(w)
    # float(np.add.reduce(x) / m) is np.mean(x)'s arithmetic, without its overhead
    for i, rows in enumerate(dataset.layer_rows):
        m = rows.stop - rows.start
        fit = float(np.add.reduce(fit_terms[rows]) / m)
        cov = float(np.add.reduce(surrogate[rows]) / m)
        gap = targets.c_per_exit[i] - cov
        total += depth_weights[i] * (fit + hinge_sq(gap))

        dg = ce_g_prime[rows] / m
        if gap > 0.0:
            # keep the left-to-right product: (sp * g') first changes the bits
            dg = dg - (2.0 * gap / m) * surrogate_prime[rows] * g_prime[rows]
        grad += depth_weights[i] * (dg @ dataset.inputs[rows])
    return total, grad


def finite_difference_gradient(
    weights: np.ndarray,
    dataset: Dataset,
    targets: CoverageTargets,
    sharpness: float = SURROGATE_SHARPNESS,
    step: float = 1e-6,
) -> np.ndarray:
    """Central differences of the training objective, for gradient checks."""
    w = np.asarray(weights, dtype=np.float64)
    out = np.zeros_like(w)
    for j in range(len(w)):
        hi = w.copy()
        lo = w.copy()
        hi[j] += step
        lo[j] -= step
        out[j] = (
            objective(hi, dataset, targets, sharpness)
            - objective(lo, dataset, targets, sharpness)
        ) / (2.0 * step)
    return out


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
    return ReliabilityModel(tuple(float(v) for v in w), dataset.num_layers)


def loss_interference_experiment(
    seed: int = 0,
    *,
    num_layers: int = 6,
    n_train: int = 2000,
    n_test: int = 4000,
    epochs: int = 300,
    learning_rate: float = 0.1,
    sharpness: float = SURROGATE_SHARPNESS,
) -> dict[str, float]:
    """Does adding the reliability term disturb the classifier it rides on?

    Builds a small multi-depth binary task (deeper layers see cleaner
    features), then trains the same logistic classifier twice from the same
    init: once on depth-weighted plain cross-entropy, once jointly with a
    reliability scorer under the full objective (ce scaled by 1 + g plus
    the coverage hinge). The scorer's gradient is objective_gradient's on a
    Dataset of the classifier's per-layer rows; only the classifier's
    (1 + g)-scaled gradient is written out here. Returns both deepest-layer
    held-out accuracies and their gap.
    """
    rng = np.random.default_rng(seed)
    true_w = np.asarray([1.5, -1.0])

    def make_split(n):
        z = rng.standard_normal((n, 2))
        y = (z @ true_w > 0.0).astype(np.float64)
        # layer i sees z blurred by (L - i)/(L - 1); the deepest is clean
        xs = []
        for i in range(1, num_layers + 1):
            blur = 0.8 * (num_layers - i) / (num_layers - 1)
            xs.append(z + blur * rng.standard_normal((n, 2)))
        return np.stack(xs), y  # (L, n, 2)

    x_train, y_train = make_split(n_train)
    x_test, y_test = make_split(n_test)

    depth_w = np.arange(1, num_layers + 1, dtype=np.float64)
    depth_w /= depth_w.sum()
    layer_index = np.repeat(np.arange(1, num_layers + 1), n_train)
    # the scorer's design rows [x, layer/L, 1], layer-major as in a Dataset
    g_in = np.column_stack(
        (x_train.reshape(-1, 2), layer_index / num_layers, np.ones(len(layer_index)))
    )
    # objective_gradient reads only the design rows and the cross-entropy
    # column, which each joint epoch refills with the classifier's current loss
    rows = Dataset(g_in, np.zeros(len(layer_index)), layer_index,
                   np.zeros(len(layer_index), dtype=bool), num_layers)
    warmup = CoverageTargets((0.0,) * num_layers)
    targets = CoverageTargets((0.7,) * num_layers)
    eps = 1e-12

    def run(joint: bool):
        v = np.zeros(3)
        wg = np.zeros(4)
        for epoch in range(epochs):
            p = _sigmoid(x_train @ v[:2] + v[2])  # (L, n)
            scale = 1.0
            if joint:
                ce = -(y_train * np.log(np.maximum(p, eps))
                       + (1.0 - y_train) * np.log(np.maximum(1.0 - p, eps)))
                scale = 1.0 + _sigmoid(g_in @ wg).reshape(num_layers, n_train)
                rows.cross_entropy = ce.ravel()
                # the first epoch trains with zero coverage floors, as train does
                _, grad_g = objective_gradient(
                    wg, rows, warmup if epoch == 0 else targets, sharpness)
                wg -= learning_rate * grad_g
            # classifier cross-entropy gradient, scaled by (1 + g) when joint
            coeff = depth_w[:, None] * scale * (p - y_train) / n_train
            grad_v = np.append(np.einsum("ln,lnd->d", coeff, x_train), coeff.sum())
            v -= learning_rate * grad_v
        return v

    def final_accuracy(v):
        logits = x_test[-1] @ v[:2] + v[2]
        return float(np.mean((logits > 0.0) == (y_test > 0.5)))

    acc_plain = final_accuracy(run(joint=False))
    acc_joint = final_accuracy(run(joint=True))
    return {
        "accuracy_plain_ce": acc_plain,
        "accuracy_joint": acc_joint,
        "gap": abs(acc_plain - acc_joint),
    }


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
