"""Test-only companions of the reliability trainer: a central-difference
gradient check and the loss-interference experiment of criterion 8.

Neither runs on any command path; both read the trainer's own objective.
"""

import numpy as np

from exitbandit.reliability import (
    SURROGATE_SHARPNESS,
    CoverageTargets,
    Dataset,
    _sigmoid,
    objective,
    objective_gradient,
)


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
