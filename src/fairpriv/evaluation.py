"""Single-model metrics: utility, group fairness gaps, and the linear attack.

The attack follows the threat model: a multinomial logistic adversary is fit
on (features, task label) pairs from the validation split, standing in for
public labeled data, and scored by balanced accuracy on the test split. The
attacker is a one-layer :class:`Mlp` over the trained adversaries' input,
[features, one-hot task label], run by the trained nets' forward loop.
"""

from __future__ import annotations

import numpy as np

from .data import class_counts, one_hot
from .learncore import Matrix, Mlp


def class_rates(labels, hits, k: int, name: str) -> np.ndarray:
    """The share of each class's rows in ``labels`` that ``hits`` marks: an
    exact count over an exact count, so each equals ``np.mean`` of that
    class's hits. Checked as :func:`class_counts`."""
    counts = class_counts(labels, k, name)
    return np.bincount(np.asarray(labels, dtype=np.int64), hits, k) / counts


def utility_and_gap(preds, labels, groups, k_groups: int,
                    positive_class: int | None) -> tuple[float, float]:
    """(utility, fairness gap) of predictions against task labels.

    With ``positive_class`` None the utility is accuracy; with a class, the
    TPR of that class, over its rows alone. The gap is the max pairwise
    absolute difference of the same rate across the ``k_groups`` sensitive
    groups. Inputs of different shapes, or a group with no counted row, are errors.
    """
    labels = np.asarray(labels)
    groups = np.asarray(groups, dtype=np.int64)
    if not np.shape(preds) == labels.shape == groups.shape:
        raise ValueError(f"length mismatch: {np.shape(preds)} preds, {labels.shape} y, "
                         f"{groups.shape} y_a")
    hits = np.asarray(preds) == labels
    name = "y_a"
    if positive_class is not None:
        rows = labels == positive_class
        hits, groups = hits[rows], groups[rows]
        name = f"rows with y = {positive_class}: y_a"
    rates = class_rates(groups, hits, k_groups, name)
    return float(np.count_nonzero(hits) / hits.size), float(rates.max() - rates.min())


# ---------------------------------------------------------------------------
# Attribute-inference attack


def _attack_input(features: Matrix, task_labels, k_y: int) -> Matrix:
    """[features, one-hot task label]: the attacker's input, one row per label."""
    return np.hstack([np.asarray(features, dtype=np.float64), one_hot(task_labels, k_y)])


def inverse_frequency_weights(labels, k: int) -> np.ndarray:
    """w_c = n / (k * n_c) for the private labels y_p, checked as :func:`class_counts`."""
    counts = class_counts(labels, k, "y_p")
    return counts.sum() / (k * counts.astype(np.float64))


def fit_multinomial_logistic(x: Matrix, labels, k: int, class_weights,
                             iters: int) -> tuple[Matrix, Matrix]:
    """Full-batch gradient descent on weighted cross entropy from zero init.

    Deterministic. Returns (weights, bias) bitwise equal to those after
    exactly ``iters`` steps, computed with fewer steps once the iterate
    repeats. The gradient step is taken on the weight-normalized loss,
    matching the training-loss convention. ``x`` needs at least one row and
    ``k`` at least 2 classes; every label must lie in ``[0, k)``, every class
    weight be finite and > 0, and ``iters`` be at least 1.

    A step is a pure function of the parameter bytes: every scratch buffer
    is overwritten in each step, and the BLAS products are deterministic
    (importing the package pins BLAS to one thread). So once the parameters
    after step t are byte for byte those after an earlier step t - p, the
    run from there on is a cycle of period p, and ``(iters - t) % p`` more
    steps reach the state of step ``iters``. One saved copy of the parameter
    bytes finds the repeat (Brent's cycle detection, Brent 1980, moving the
    copy once the steps since it exceed an eighth of its step number in
    place of doubling), so the memory does not depend on ``iters``, and a
    cycle that starts at step m with p <= m / 8 is caught within
    m / 8 + p + 1 steps of its start. Comparing bytes keeps -0.0 and +0.0
    apart, and a NaN state repeats only with the same bits. A fit whose
    iterate never repeats runs all ``iters`` steps.

    Each step is the plain update below, computed in place in preallocated
    buffers with the logits held class-major, as a (k, n) array: each
    elementwise step is one call on contiguous rows, faster than numpy's
    broadcasting and reductions along a length-k axis. Both products keep
    the plain update's operands (``x @ weights`` is transposed after the
    product), because BLAS may sum transposed operands in another order. The
    softmax's max and sum over classes reduce the (k, n) array over its
    first axis, which numpy does row by row in class order. The max is
    exact; the sum is the left-to-right one, numpy's own order along a
    length-k axis for k < 8, so there every iterate is bitwise that of
    ``z.max(axis=1)`` and ``p.sum(axis=1)``; for k >= 8 numpy unrolls that
    sum and the last bits may differ.

    The bias gradient is ``dz`` times a ones column. Numpy cannot hand a
    stride-0 operand to BLAS, so its own matmul loop adds each class's
    entries in row order from +0.0: the sequential sum of
    ``dz.sum(axis=0)``, which starts from the first row instead. The two
    differ only when a whole column is -0.0. With every class weight > 0, an
    entry of ``dz`` has the sign of ``p - t``, which is never -0.0, so it is
    -0.0 only if the weighting underflows a negative ``p - t`` to zero.

        z = x @ weights + bias;  p = softmax(z)
        dz = (p - target) * row_w / total_w
        weights -= x.T @ dz;  bias -= dz.sum(axis=0)
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
    if x.shape[0] == 0:
        raise ValueError("x: no rows to fit on")
    if iters < 1:
        raise ValueError(f"iters: must be at least 1, got {iters}")
    n, d = x.shape
    row_w = w[y]
    total_w = row_w[:, None].sum()
    target = np.ascontiguousarray(one_hot(y, k).T)
    params = np.zeros((d + 1, k))
    grads = np.empty((d + 1, k))
    weights, bias, grad_w, grad_b = params[:d], params[d:], grads[:d], grads[d:].T
    zn = np.empty((n, k))
    z = np.empty((k, n))
    rows = np.empty(n)
    ones_col = np.broadcast_to(1.0, (n, 1))

    saved, saved_at = params.tobytes(), 0
    t, end = 0, iters
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports divergence
        while t < end:
            np.matmul(x, weights, out=zn)
            np.add(zn.T, bias.T, out=z)
            np.maximum.reduce(z, axis=0, out=rows)
            z -= rows
            np.exp(z, out=z)
            np.add.reduce(z, axis=0, out=rows)
            z /= rows
            z -= target
            z *= row_w
            z /= total_w
            np.matmul(x.T, z.T, out=grad_w)
            np.matmul(z, ones_col, out=grad_b)
            params -= grads
            t += 1
            state = params.tobytes()
            if state == saved:  # a cycle of period t - saved_at: skip its whole laps
                end = t + (iters - t) % (t - saved_at)
            elif 8 * (t - saved_at) > saved_at:
                saved, saved_at = state, t
    if not np.all(np.isfinite(params)):
        raise FloatingPointError("logistic fit diverged")
    return weights, bias


def fit_attacker(val_features: Matrix, val_y, val_yp, iters: int = 2000, *,
                 k_y: int, k_p: int) -> Mlp:
    """Fit the attack model on validation features, reweighted by class: a
    one-layer :class:`Mlp` from [features, one-hot task label] to k_p logits.

    Inverse-frequency loss reweighting keeps the attacker from collapsing to
    a constant prediction under class skew. The fit runs on standardized
    inputs for conditioning, with a fixed step size of 1.0, and the affine map
    is folded back into the returned weights, so the attacker stays linear in
    the raw features.
    """
    val_yp = np.asarray(val_yp, dtype=np.int64)
    class_weights = inverse_frequency_weights(val_yp, k_p)
    z = _attack_input(val_features, val_y, k_y)
    center = z.mean(axis=0)
    spread = z.std(axis=0)
    spread[spread == 0.0] = 1.0
    weights_std, bias_std = fit_multinomial_logistic(
        (z - center) / spread, val_yp, k_p, class_weights, iters)
    weights = weights_std / spread[:, None]
    bias = bias_std - (center / spread) @ weights_std
    return Mlp([weights], [bias])


def attack_accuracy(attacker: Mlp, test_features: Matrix, test_y, test_yp) -> float:
    """Balanced accuracy of ``attacker``, a net over [features, one-hot task label],
    on held-out (test) features: the mean recall over its k_p output classes, so
    chance level is 1/k_p."""
    width, k_p = attacker.layer_sizes[0], attacker.layer_sizes[-1]
    d = np.shape(test_features)[-1]
    if d >= width:
        raise ValueError(f"features: {d} columns leave none of the attacker's {width} "
                         f"input columns for the task label")
    test_yp = np.asarray(test_yp, dtype=np.int64)
    preds = np.argmax(attacker.apply(_attack_input(test_features, test_y, width - d)), axis=1)
    if preds.shape != test_yp.shape:
        raise ValueError(f"length mismatch: {preds.shape} preds vs {test_yp.shape} y_p")
    return float(np.mean(class_rates(test_yp, preds == test_yp, k_p, "y_p")))
