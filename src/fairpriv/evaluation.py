"""Single-model metrics: utility, group fairness gaps, and the linear attack.

The attack follows the threat model: a multinomial logistic adversary is fit
on (features, task label) pairs from the validation split, standing in for
public labeled data, and scored by balanced accuracy on the test split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import one_hot
from .learncore import Matrix


@dataclass
class MetricTriple:
    utility: float
    fairness_gap: float
    attack_balanced_acc: float


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise ValueError("accuracy over an empty set")
    return float(np.mean(preds == labels))


def tpr(preds, labels, positive_class: int) -> float:
    """P(pred == positive | label == positive)."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {labels.shape}")
    pos = labels == positive_class
    if not np.any(pos):
        raise ValueError(f"no rows with label {positive_class}")
    return float(np.mean(preds[pos] == positive_class))


def group_gap(preds, labels, groups, base_metric: str = "accuracy",
              positive_class: int | None = None) -> float:
    """Max pairwise absolute difference of the base metric across groups.

    base_metric "accuracy" gives the accuracy-parity gap; "tpr" the
    equal-opportunity gap (positive_class defaults to the highest label).
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    groups = np.asarray(groups)
    if base_metric not in ("accuracy", "tpr"):
        raise ValueError(f"unknown base_metric {base_metric!r}")
    if positive_class is None:
        positive_class = int(labels.max()) if labels.size else 1
    values = []
    for g in np.unique(groups):
        mask = groups == g
        if not np.any(mask):
            raise ValueError(f"group {g} is empty")
        if base_metric == "accuracy":
            values.append(accuracy(preds[mask], labels[mask]))
        else:
            if not np.any(labels[mask] == positive_class):
                raise ValueError(f"group {g} has no positive rows for tpr")
            values.append(tpr(preds[mask], labels[mask], positive_class))
    return float(max(values) - min(values))


def balanced_accuracy(preds, labels) -> float:
    """Mean per-class recall; chance level is 1/K regardless of imbalance."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {labels.shape}")
    classes = np.unique(labels)
    k = int(labels.max()) + 1 if labels.size else 0
    if len(classes) < k or preds.size == 0:
        missing = sorted(set(range(k)) - set(classes.tolist()))
        raise ValueError(f"labels missing class(es) {missing or 'all'}")
    recalls = [np.mean(preds[labels == c] == c) for c in classes]
    return float(np.mean(recalls))


# ---------------------------------------------------------------------------
# Attribute-inference attack


@dataclass
class LinearAttacker:
    """Multinomial logistic model over [features, one-hot task label]."""

    weights: Matrix  # (feature_dim + k_y) x k_p
    bias: Matrix  # 1 x k_p
    k_y: int

    def scores(self, features: Matrix, task_labels) -> Matrix:
        z = np.hstack([np.asarray(features, dtype=np.float64),
                       one_hot(task_labels, self.k_y)])
        return z @ self.weights + self.bias

    def predict(self, features: Matrix, task_labels) -> np.ndarray:
        return np.argmax(self.scores(features, task_labels), axis=1)


def inverse_frequency_weights(labels, k: int) -> np.ndarray:
    """w_c = n / (k * n_c); missing classes are an error."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        missing = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"class(es) {missing} absent; cannot reweight")
    return labels.shape[0] / (k * counts.astype(np.float64))


def fit_multinomial_logistic(x: Matrix, labels, k: int, class_weights,
                             iters: int, lr: float) -> tuple[Matrix, Matrix]:
    """Full-batch gradient descent on weighted cross entropy from zero init.

    Deterministic. Returns (weights, bias) after exactly ``iters`` steps; every
    step costs the same, whatever the data. The gradient step is taken on the
    weight-normalized loss, matching the training-loss convention. ``k`` must
    be at least 2, every label in ``[0, k)`` and every class weight finite
    and > 0.

    Each step is the plain update below, computed in place in preallocated
    buffers, with the elementwise work done one column at a time, which is
    faster than numpy's broadcasting and reductions along a length-k axis.
    The softmax row max is exact. The row sum adds the columns left to right,
    numpy's own order for k < 8, so there every iterate is bitwise that of
    ``z.max(axis=1)`` and ``p.sum(axis=1)``; for k >= 8 numpy unrolls its sum
    and the last bits may differ.

    The bias gradient is a ones row times ``dz``. Numpy cannot hand a
    stride-0 operand to BLAS, so its own matmul loop adds each column's rows
    in order from +0.0: the sequential sum of ``dz.sum(axis=0)``, which
    starts from the first row instead. The two differ only when a whole
    column is -0.0. With every class weight > 0, an entry of ``dz`` has the
    sign of ``p - t``, which is never -0.0, so it is -0.0 only if the
    weighting underflows a negative ``p - t`` to zero.

        z = x @ weights + bias;  p = softmax(z)
        dz = (p - target) * row_w / total_w
        weights -= lr * (x.T @ dz);  bias -= lr * dz.sum(axis=0)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    w = np.asarray(class_weights, dtype=np.float64)
    if k < 2:
        raise ValueError(f"k: need at least 2 classes, got {k}")
    if y.ndim != 1 or np.any((y < 0) | (y >= k)):
        raise ValueError(f"labels: must be a 1-D array of class indices in [0, {k})")
    if w.shape != (k,) or not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError(f"class_weights: must be {k} finite numbers > 0")
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"x: must have one row per label ({y.shape[0]}), "
                         f"got shape {x.shape}")
    n, d = x.shape
    total_w = w[y][:, None].sum()
    row_w = np.repeat(w[y][:, None], k, axis=1)
    target = one_hot(y, k)
    weights = np.zeros((d, k))
    bias = np.zeros((1, k))
    z = np.empty((n, k))
    cols = [z[:, c] for c in range(k)]
    rows = np.empty(n)
    grad = np.empty((d, k))
    ones = np.broadcast_to(1.0, (1, n))
    bias_grad = np.empty((1, k))
    for _ in range(iters):
        np.matmul(x, weights, out=z)
        for col, b in zip(cols, bias[0]):
            col += b
        np.maximum(cols[0], cols[1], out=rows)
        for col in cols[2:]:
            np.maximum(rows, col, out=rows)
        for col in cols:
            col -= rows
        np.exp(z, out=z)
        np.add(cols[0], cols[1], out=rows)
        for col in cols[2:]:
            rows += col
        for col in cols:
            col /= rows
        z -= target
        z *= row_w
        z /= total_w
        np.matmul(x.T, z, out=grad)
        grad *= lr
        weights -= grad
        bias -= lr * np.matmul(ones, z, out=bias_grad)
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
        raise FloatingPointError("logistic fit diverged; lower the learning rate")
    return weights, bias


def fit_attacker(val_features: Matrix, val_y, val_yp, iters: int = 2000,
                 lr: float = 1.0, k_y: int | None = None,
                 k_p: int | None = None) -> LinearAttacker:
    """Fit the attack model on validation features, reweighted by class.

    Inverse-frequency loss reweighting keeps the attacker from collapsing to
    a constant prediction under class skew. The fit runs on standardized
    inputs for conditioning and the affine map is folded back into the
    returned weights, so the attacker stays linear in the raw features.
    """
    val_y = np.asarray(val_y, dtype=np.int64)
    val_yp = np.asarray(val_yp, dtype=np.int64)
    if k_y is None:
        k_y = int(val_y.max()) + 1
    if k_p is None:
        k_p = int(val_yp.max()) + 1
    class_weights = inverse_frequency_weights(val_yp, k_p)
    z = np.hstack([np.asarray(val_features, dtype=np.float64), one_hot(val_y, k_y)])
    center = z.mean(axis=0)
    spread = z.std(axis=0)
    spread[spread == 0.0] = 1.0
    weights_std, bias_std = fit_multinomial_logistic(
        (z - center) / spread, val_yp, k_p, class_weights, iters, lr)
    weights = weights_std / spread[:, None]
    bias = bias_std - (center / spread) @ weights_std
    return LinearAttacker(weights, bias, k_y)


def attack_accuracy(attacker: LinearAttacker, test_features: Matrix,
                    test_y, test_yp) -> float:
    """Balanced accuracy of the attacker on held-out (test) features."""
    preds = attacker.predict(test_features, test_y)
    return balanced_accuracy(preds, np.asarray(test_yp, dtype=np.int64))
