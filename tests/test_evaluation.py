import functools
import itertools

import numpy as np
import pytest

from fairpriv import evaluation
from fairpriv.evaluation import (LinearAttacker, attack_accuracy, class_counts, class_rates,
                                 fit_attacker, fit_multinomial_logistic,
                                 inverse_frequency_weights, utility_and_gap)
from fairpriv.data import one_hot
from conftest import host_note
from test_learncore import reference_softmax_ce


# The four metric functions that class_rates replaced, kept verbatim as the
# oracle for the new rule.


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
    The groups are those present in ``groups``, so one group alone gives 0.0;
    ``pipeline.run_single`` rejects a test split that lacks a group.
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
        if base_metric == "accuracy":
            values.append(accuracy(preds[mask], labels[mask]))
        else:
            if not np.any(labels[mask] == positive_class):
                raise ValueError(f"group {g} has no positive rows for tpr")
            values.append(tpr(preds[mask], labels[mask], positive_class))
    return float(max(values) - min(values))


def balanced_accuracy(preds, labels, k: int) -> float:
    """Mean per-class recall over the classes ``[0, k)``; chance level is 1/k
    regardless of imbalance. A class with no label row is an error, so is a
    label outside ``[0, k)``."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {labels.shape}")
    if labels.size == 0:
        raise ValueError("balanced accuracy over an empty set")
    if np.any((labels < 0) | (labels >= k)):
        raise ValueError(f"labels outside [0, {k})")
    present = np.unique(labels).tolist()
    if len(present) < k:
        missing = sorted(set(range(k)) - set(present))
        raise ValueError(f"labels missing class(es) {missing}")
    recalls = [np.mean(preds[labels == c] == c) for c in range(k)]
    return float(np.mean(recalls))


def oracle_utility_and_gap(preds, labels, groups, positive_class):
    if positive_class is None:
        return accuracy(preds, labels), group_gap(preds, labels, groups)
    return (tpr(preds, labels, positive_class),
            group_gap(preds, labels, groups, "tpr", positive_class))


def attack_score(preds, labels, k):
    """attack_accuracy of a k-class attacker whose predictions are ``preds``:
    its features are the one-hot predictions, which it reads out unchanged."""
    attacker = LinearAttacker(np.vstack([np.eye(k), np.zeros((2, k))]), np.zeros((1, k)), k_y=2)
    return attack_accuracy(attacker, one_hot(preds, k), np.zeros(len(preds), int), labels)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def labeled_rows(k, k_groups, seed, n=300):
    """Predictions, labels and groups with every (label, group) pair present
    and about 60% of the predictions right."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, n)
    groups = rng.integers(0, k_groups, n)
    labels[:k * k_groups] = np.repeat(np.arange(k), k_groups)
    groups[:k * k_groups] = np.tile(np.arange(k_groups), k)
    preds = np.where(rng.random(n) < 0.6, labels, rng.integers(0, k, n))
    return preds, labels, groups


class TestClassCounts:
    def test_counts(self):
        assert class_counts([2, 0, 2, 1], 3, "y").tolist() == [1, 1, 2]

    def test_missing_class_named(self):
        with pytest.raises(ValueError) as info:
            class_counts([0, 0, 2], 3, "test split: y_p")
        assert str(info.value) == "test split: y_p lacks class(es) [1] of k_p = 3"

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1]])
    def test_label_outside_classes(self, labels):
        with pytest.raises(ValueError, match=r"^y_a has labels outside \[0, 2\)$"):
            class_counts(labels, 2, "y_a")

    def test_empty(self):
        with pytest.raises(ValueError, match=r"^y lacks class\(es\) \[0, 1\] of k_y = 2$"):
            class_counts([], 2, "y")


class TestMatchesOracle:
    @pytest.mark.parametrize("k", range(2, 8))
    @pytest.mark.parametrize("k_groups", [2, 3, 5])
    @pytest.mark.parametrize("positive", [None, 0, "top"])
    def test_utility_and_gap_bitwise(self, k, k_groups, positive):
        positive = k - 1 if positive == "top" else positive
        for seed in range(5):
            preds, labels, groups = labeled_rows(k, k_groups, 10 * k + seed)
            new = utility_and_gap(preds, labels, groups, k_groups, positive)
            old = oracle_utility_and_gap(preds, labels, groups, positive)
            assert all(map(same_bits, new, old)), (seed, new, old)
            assert all(type(v) is float for v in new)  # as the oracle's, so a triple prints alike

    @pytest.mark.parametrize("k", range(2, 8))
    def test_balanced_accuracy_bitwise(self, k):
        for seed in range(5):
            preds, labels, _ = labeled_rows(k, 2, 10 * k + seed)
            assert same_bits(attack_score(preds, labels, k), balanced_accuracy(preds, labels, k))

    @pytest.mark.parametrize("k", range(2, 8))
    def test_attack_accuracy_bitwise(self, k):
        rng = np.random.default_rng(k)
        attacker = LinearAttacker(rng.standard_normal((6, k)), rng.standard_normal((1, k)), k_y=2)
        x, y = rng.standard_normal((400, 4)), rng.integers(0, 2, 400)
        y_p = rng.integers(0, k, 400)
        expected = balanced_accuracy(attacker.predict(x, y), y_p, k)
        got = attack_accuracy(attacker, x, y, y_p)
        assert same_bits(got, expected) and type(got) is float


class TestUtilityAndGap:
    def test_accuracy_counted(self):
        assert utility_and_gap([0, 1, 1, 0], [0, 1, 0, 0], [0, 0, 1, 1], 2, None) == (0.75, 0.5)

    def test_tpr_counts_positive_rows_only(self):
        assert utility_and_gap([1, 1, 0], [1, 1, 0], [0, 1, 1], 2, 1) == (1.0, 0.0)
        assert utility_and_gap([1, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], 2, 1) == (0.75, 0.5)

    def test_identical_groups_zero(self):
        assert utility_and_gap([0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], 2, None)[1] == 0.0

    def test_three_group_max_pairwise(self):
        # accuracies 0.9, 0.8, 0.85 over 20-row groups
        labels = np.zeros(60, dtype=int)
        preds = np.zeros(60, dtype=int)
        groups = np.repeat([0, 1, 2], 20)
        for g, acc in zip(range(3), (0.9, 0.8, 0.85)):
            wrong = int(round((1 - acc) * 20))
            idx = np.flatnonzero(groups == g)[:wrong]
            preds[idx] = 1
        utility, gap = utility_and_gap(preds, labels, groups, 3, None)
        assert utility == pytest.approx(0.85, abs=1e-12)
        assert gap == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("positive", [None, 1])
    def test_relabel_symmetry(self, positive):
        preds, labels, groups = labeled_rows(2, 3, seed=1, n=40)
        assert (utility_and_gap(preds, labels, groups, 3, positive)
                == utility_and_gap(preds, labels, 2 - groups, 3, positive))

    def test_group_without_positives_named(self):
        with pytest.raises(ValueError) as info:
            utility_and_gap([1, 0], [1, 0], [0, 1], 2, 1)
        assert str(info.value) == "rows with y = 1: y_a lacks class(es) [1] of k_a = 2"

    def test_group_without_rows_named(self):
        # The oracle scored this 0.0, "perfectly fair", from the one group present.
        with pytest.raises(ValueError, match=r"^y_a lacks class\(es\) \[1\] of k_a = 2$"):
            utility_and_gap([0, 1], [0, 0], [0, 0], 2, None)
        assert group_gap([0, 1], [0, 0], [0, 0]) == 0.0

    def test_missing_top_class_named(self):
        # Labels without task class 2: the oracle's default positive class was
        # the highest label present, 1, so it scored the TPR gap of class 1.
        preds, labels, groups = [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 1, 1]
        assert group_gap(preds, labels, groups, "tpr") == 0.0
        with pytest.raises(ValueError, match=r"^rows with y = 2: y_a lacks class\(es\) \[0, 1\]"):
            utility_and_gap(preds, labels, groups, 2, 2)

    @pytest.mark.parametrize("positive", [None, 1])
    def test_empty(self, positive):
        with pytest.raises(ValueError, match=r"y_a lacks class\(es\) \[0, 1\]"):
            utility_and_gap([], [], [], 2, positive)

    @pytest.mark.parametrize("groups", [[0, 1, 2], [0, 1, -1]])
    def test_group_outside_classes(self, groups):
        with pytest.raises(ValueError, match=r"^y_a has labels outside \[0, 2\)$"):
            utility_and_gap([0, 1, 0], [0, 1, 1], groups, 2, None)

    @pytest.mark.parametrize("positive", [None, 1])
    @pytest.mark.parametrize("preds, labels, groups", [
        ([0, 1], [0], [0]),
        ([0], [0, 1, 1, 0], [0, 0, 1, 1]),  # broadcasts without the check
        ([0, 1, 1, 0], [0, 1, 1, 0], [0, 1]),
    ])
    def test_length_mismatch(self, preds, labels, groups, positive):
        with pytest.raises(ValueError, match="^length mismatch"):
            utility_and_gap(preds, labels, groups, 2, positive)


class TestClassRates:
    def test_constant_predictor_chance(self):
        labels = np.array([0] * 30 + [1] * 5 + [2] * 15)
        assert attack_score(np.zeros(50, dtype=int), labels, 3) == pytest.approx(1 / 3)

    def test_perfect(self):
        labels = np.array([0, 1, 2, 1])
        assert class_rates(labels, np.ones(4, bool), 3, "y_p").tolist() == [1.0, 1.0, 1.0]

    def test_mean_of_recalls(self):
        labels = np.array([1] * 10 + [0] * 10)
        preds = np.array([1] * 9 + [0] + [0] * 5 + [1] * 5)
        assert class_rates(labels, preds == labels, 2, "y_p").tolist() == [0.5, 0.9]
        assert attack_score(preds, labels, 2) == pytest.approx(0.7)

    def test_missing_class(self):
        with pytest.raises(ValueError, match=r"^y_p lacks class\(es\) \[1\] of k_p = 3$"):
            class_rates([0, 2], [True, False], 3, "y_p")

    def test_missing_top_class_named(self):
        # Inferring the class count from the labels scored this as 0.5 over
        # 2 classes, although class 2 has no row.
        with pytest.raises(ValueError, match=r"^y_p lacks class\(es\) \[2\] of k_p = 3$"):
            attack_score([0, 1, 2, 2], [0, 1, 0, 1], 3)
        assert balanced_accuracy([0, 1, 2, 2], [0, 1, 0, 1], 2) == 0.5

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1]])
    def test_label_outside_classes(self, labels):
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            attack_score([0, 1, 0], labels, 2)

    def test_empty(self):
        with pytest.raises(ValueError, match=r"^y_p lacks class\(es\) \[0, 1\]"):
            class_rates([], [], 2, "y_p")
        with pytest.raises(ValueError, match=r"^y_p lacks class\(es\) \[0, 1\]"):
            attack_score([], [], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            class_rates([0, 1], [True], 2, "y_p")
        with pytest.raises(ValueError, match=r"^length mismatch: \(1,\) preds vs \(2,\) y_p$"):
            attack_score([1], [0, 1], 2)  # one prediction broadcasts without the check

    def test_duplication_invariance(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, 60)
        preds = rng.integers(0, 3, 60)
        ba = attack_score(preds, labels, 3)
        dup = labels == 1
        labels2 = np.concatenate([labels, labels[dup]])
        preds2 = np.concatenate([preds, preds[dup]])
        assert attack_score(preds2, labels2, 3) == pytest.approx(ba, abs=1e-12)


def two_gaussian_features(n, mu, seed, skew=0.5):
    """Features that carry y_p at L2 separation mu; y is independent."""
    rng = np.random.default_rng(seed)
    y_p = (rng.random(n) < skew).astype(int)
    x = rng.standard_normal((n, 4))
    x[:, 0] += mu * y_p
    y = rng.integers(0, 2, n)
    return x, y, y_p


def standardized_attack_problem(x, y, y_p):
    """What fit_attacker hands fit_multinomial_logistic for binary y and y_p:
    the standardized [x, one-hot y], y_p, and its inverse-frequency weights."""
    z = np.hstack([x, one_hot(y, 2)])
    return (z - z.mean(axis=0)) / z.std(axis=0), y_p, inverse_frequency_weights(y_p, 2)


class TestFitAttacker:
    def test_separable_features_fit_tightly(self):
        x, y, y_p = two_gaussian_features(800, mu=6.0, seed=3)
        attacker = fit_attacker(x, y, y_p, iters=2000, k_y=2, k_p=2)
        z = np.hstack([x, one_hot(y, 2)])
        w = inverse_frequency_weights(y_p, 2)
        ce, _ = reference_softmax_ce(z @ attacker.weights + attacker.bias, y_p, w)
        assert ce < 0.05

    def test_independent_features_near_chance(self):
        x, y, y_p = two_gaussian_features(5000, mu=0.0, seed=4)
        attacker = fit_attacker(x[:2500], y[:2500], y_p[:2500], iters=1500, k_y=2, k_p=2)
        ba = attack_accuracy(attacker, x[2500:], y[2500:], y_p[2500:])
        assert abs(ba - 0.5) < 0.05

    def test_skewed_classes_not_constant(self):
        x, y, y_p = two_gaussian_features(1000, mu=6.0, seed=5, skew=0.1)
        attacker = fit_attacker(x, y, y_p, iters=2000, k_y=2, k_p=2)
        preds = attacker.predict(x, y)
        assert len(np.unique(preds)) == 2

    def test_missing_class_rejected(self):
        x = np.random.default_rng(6).standard_normal((10, 3))
        with pytest.raises(ValueError, match=r"^y_p lacks class\(es\) \[1\] of k_p = 2$"):
            fit_attacker(x, np.zeros(10, int), np.zeros(10, int), k_y=2, k_p=2)

    def test_deterministic(self):
        x, y, y_p = two_gaussian_features(300, mu=2.0, seed=7)
        a = fit_attacker(x, y, y_p, iters=500, k_y=2, k_p=2)
        b = fit_attacker(x, y, y_p, iters=500, k_y=2, k_p=2)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_huge_inputs_diverge(self):
        # Inputs scaled by 1e150 still fit; by 1e200 the logits overflow.
        z, y_p, w = standardized_attack_problem(*two_gaussian_features(300, mu=2.0, seed=7))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                      match="^logistic fit diverged$"):
            fit_multinomial_logistic(z * 1e200, y_p, 2, w, 200)


def reference_gd_iterates(x, labels, k, class_weights, lr, class_sum=None):
    """fit_multinomial_logistic as it was before the column-wise, in-place
    loop and the exit on a repeated state: the oracle for its bitwise
    equality. Yields the (weights, bias) buffers after each step, without
    end. ``class_sum(p)``, if given, sums each row of ``p`` in place of
    ``p.sum(axis=1)``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    w = np.asarray(class_weights, dtype=np.float64)
    n, d = x.shape
    row_w = w[y][:, None]
    total_w = row_w.sum()
    target = one_hot(y, k)
    weights = np.zeros((d, k))
    bias = np.zeros((1, k))
    while True:
        z = x @ weights + bias
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= (p.sum(axis=1) if class_sum is None else class_sum(p))[:, None]
        dz = (p - target) * row_w / total_w
        weights -= lr * (x.T @ dz)
        bias -= lr * dz.sum(axis=0, keepdims=True)
        yield weights, bias


def reference_gd_loop(x, labels, k, class_weights, iters, lr, class_sum=None):
    """The oracle's (weights, bias) after exactly ``iters`` steps."""
    iterates = reference_gd_iterates(x, labels, k, class_weights, lr, class_sum)
    return next(itertools.islice(iterates, iters - 1, None))


def left_to_right_sum(p):
    """Each row of ``p`` summed from its first column to its last."""
    return functools.reduce(np.add, p.T)


def first_repeat(x, labels, k, class_weights, iters):
    """(m, p) when the oracle's state after step m + p is that after step m
    (step 0 is the zero init), for the first such m + p <= iters; else None."""
    seen = {}
    iterates = reference_gd_iterates(x, labels, k, class_weights, 1.0)
    states = itertools.chain([(np.zeros((x.shape[1], k)), np.zeros((1, k)))], iterates)
    for t, state in enumerate(itertools.islice(states, iters + 1)):
        key = state_bytes(*state)
        if key in seen:
            return seen[key], t - seen[key]
        seen[key] = t
    return None


class CountingNumpy:
    """Stands in for ``numpy`` in the evaluation module and counts the fit's
    steps: each computes one ``np.exp``."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.steps += 1
        return np.exp(*args, **kwargs)


def counted_fit(monkeypatch, *args):
    """fit_multinomial_logistic(*args) and the number of steps it computed."""
    counter = CountingNumpy()
    with monkeypatch.context() as m:
        m.setattr(evaluation, "np", counter)
        result = fit_multinomial_logistic(*args)
    return result, counter.steps


def uninformative_problem(k, seed, n=120, d=3):
    """Labels independent of x: GD ends in a short cycle of states."""
    x = np.random.default_rng(seed).standard_normal((n, d))
    return x, np.arange(n) % k, np.linspace(0.5, 1.5, k)


def state_bytes(weights, bias):
    return weights.tobytes() + bias.tobytes()


def informative_problem(n, d, k, seed):
    """Standardized features that carry skewed labels, reweighted by inverse
    class frequency: the shape of the attack fit in a benchmark run."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    scores = x[:, :k] * 1.5 + rng.standard_normal((n, k)) + np.linspace(0.0, 1.0, k)
    y = np.argmax(scores, axis=1)
    return (x - x.mean(axis=0)) / x.std(axis=0), y, inverse_frequency_weights(y, k)


class TestFitMultinomialLogistic:
    # (k, data seed): by step 951 the oracle's iterates on these problems
    # cycle with periods 2 to 8, so 2000 and 2001 end on different states.
    PROBLEMS = [(2, 5), (3, 1), (4, 3), (5, 2), (6, 0), (7, 3)]

    @pytest.mark.parametrize("k, seed", PROBLEMS + [(k, 0) for k in range(8, 13)])
    @pytest.mark.parametrize("iters", [1, 2, 3, 2000, 2001])
    def test_bitwise_equal_to_reference_loop(self, k, seed, iters):
        # From 8 classes on numpy unrolls the oracle's p.sum(axis=1), while the
        # fit still adds the classes left to right.
        x, y, w = uninformative_problem(k, seed)
        got = fit_multinomial_logistic(x, y, k, w, iters)
        want = reference_gd_loop(x, y, k, w, iters, 1.0, left_to_right_sum if k >= 8 else None)
        assert state_bytes(*got) == state_bytes(*want)

    @pytest.mark.parametrize("k", [8, 9])
    @pytest.mark.parametrize("iters", [1, 2, 3, 500, 2000])
    def test_many_classes_match_to_last_bits(self, k, iters):
        # numpy's row sum is unrolled from 8 columns on, so only the last
        # bits may differ there.
        x, y, w = uninformative_problem(k, 0)
        got = fit_multinomial_logistic(x, y, k, w, iters)
        want = reference_gd_loop(x, y, k, w, iters, 1.0)
        for g, r in zip(got, want):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    @pytest.mark.parametrize("n, d, k", [(1600, 10, 2), (6000, 20, 3), (1600, 16, 2),
                                         (53, 20, 2)])
    @pytest.mark.parametrize("iters", [1, 2, 2000])
    def test_benchmark_shaped_problems_bitwise(self, n, d, k, iters):
        x, y, w = informative_problem(n, d, k, seed=n + k)
        got = fit_multinomial_logistic(x, y, k, w, iters)
        want = reference_gd_loop(x, y, k, w, iters, 1.0)
        assert state_bytes(*got) == state_bytes(*want)

    @pytest.mark.parametrize("n", [1, 7, 120, 1600, 9000])
    @pytest.mark.parametrize("k", range(2, 10))
    def test_ones_row_matmul_is_a_sequential_column_sum(self, n, k):
        # The bias gradient relies on numpy's own matmul loop for a stride-0
        # operand. Should numpy ever route it through BLAS, the sum order
        # changes and this fails before any result drifts.
        rng = np.random.default_rng(100 * n + k)
        z = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, (n, k))
        got = np.matmul(np.broadcast_to(1.0, (1, n)), z)
        assert got.tobytes() == np.cumsum(z, axis=0)[-1:].tobytes()

    @pytest.mark.parametrize("n", [1, 7, 120, 1600, 9000])
    @pytest.mark.parametrize("k", range(2, 10))
    def test_ones_column_matmul_is_a_sequential_row_sum(self, n, k):
        # The same canary for the class-major loop, whose bias gradient is a
        # (k, n) array times a stride-0 ones column.
        rng = np.random.default_rng(100 * n + k)
        z = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-8, 8, (k, n))
        got = np.matmul(z, np.broadcast_to(1.0, (n, 1)))
        assert got.tobytes() == np.cumsum(z, axis=1)[:, -1:].tobytes()

    # name: (problem, its oracle's first repeat (m, p)). The exit is exact
    # only if it runs the remaining steps modulo p, so periods > 1 matter.
    REPEATING = {
        "fixed point": (2, lambda: informative_problem(200, 4, 2, seed=202), (418, 1)),
        "period 2": (3, lambda: uninformative_problem(3, 1), (317, 2)),
        "period 4": (5, lambda: uninformative_problem(5, 2), (407, 4)),
    }

    @staticmethod
    def repeating_problem(name):
        k, make, repeat = TestFitMultinomialLogistic.REPEATING[name]
        x, y, w = make()
        return x, y, k, w, repeat

    @staticmethod
    def exit_step(monkeypatch, x, y, k, w, period):
        """The step at which the fit sees the repeat: with ``iters`` past it,
        the fit computes that step plus ``(iters - exit) % period`` more, so
        the fewest over ``period`` consecutive ``iters`` is the exit step."""
        return min(counted_fit(monkeypatch, x, y, k, w, iters)[1]
                   for iters in range(3000, 3000 + period))

    @pytest.mark.parametrize("name", list(REPEATING))
    def test_exit_fires_within_an_eighth_of_the_cycle_start(self, monkeypatch, name):
        x, y, k, w, (start, period) = self.repeating_problem(name)
        assert first_repeat(x, y, k, w, 3000) == (start, period), host_note()
        assert period <= start / 8  # where the bound holds
        exit_at = self.exit_step(monkeypatch, x, y, k, w, period)
        assert start + period <= exit_at <= start + start // 8 + period + 1, host_note()

    @pytest.mark.parametrize("name", list(REPEATING))
    def test_bitwise_equal_to_reference_loop_around_the_exit(self, monkeypatch, name):
        x, y, k, w, (_, period) = self.repeating_problem(name)
        exit_at = self.exit_step(monkeypatch, x, y, k, w, period)
        for iters in (exit_at - 1, exit_at, exit_at + 1, exit_at + period - 1,
                      exit_at + period + 1, 2000, 2001):
            got, steps = counted_fit(monkeypatch, x, y, k, w, iters)
            want = reference_gd_loop(x, y, k, w, iters, 1.0)
            assert state_bytes(*got) == state_bytes(*want), host_note(f"iters={iters}")
            assert steps == (iters if iters < exit_at else exit_at + (iters - exit_at) % period), \
                host_note(f"iters={iters}")

    def test_never_repeating_fit_computes_every_step(self, monkeypatch):
        x, y, w = informative_problem(53, 20, 2, seed=55)
        assert first_repeat(x, y, 2, w, 2000) is None
        got, steps = counted_fit(monkeypatch, x, y, 2, w, 2000)
        assert steps == 2000
        assert state_bytes(*got) == state_bytes(*reference_gd_loop(x, y, 2, w, 2000, 1.0))

    def test_diverging_fit_raises_after_its_nan_state_repeats(self, monkeypatch):
        z, y_p, w = standardized_attack_problem(*two_gaussian_features(300, mu=2.0, seed=7))
        counter = CountingNumpy()
        monkeypatch.setattr(evaluation, "np", counter)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="diverged"):
            fit_multinomial_logistic(z * 1e200, y_p, 2, w, 2000)
        assert counter.steps < 2000

    @pytest.mark.parametrize("x_rows, labels, k, class_weights, name", [
        (4, [0, 0, 0, 0], 1, [1.0], "k"),
        (4, [0, 1, 2, 1], 2, [1.0, 1.0], "labels"),
        (4, [0, 1, -1, 1], 2, [1.0, 1.0], "labels"),
        (4, [0, 1, 0, 1], 2, [1.0, 0.0], "class_weights"),
        (4, [0, 1, 0, 1], 2, [1.0, -2.0], "class_weights"),
        (4, [0, 1, 0, 1], 2, [1.0, np.inf], "class_weights"),
        (4, [0, 1, 0, 1], 2, [1.0, np.nan], "class_weights"),
        (4, [0, 1, 0, 1], 2, [1.0, 1.0, 1.0], "class_weights"),
        (5, [0, 1, 0, 1], 2, [1.0, 1.0], "x"),
        (0, [], 2, [1.0, 1.0], "x"),
    ], ids=["one-class", "label-too-high", "label-negative", "zero-weight",
            "negative-weight", "infinite-weight", "nan-weight", "weight-count",
            "row-count", "no-rows"])
    def test_bad_arguments_rejected_by_name(self, x_rows, labels, k, class_weights, name):
        x = np.ones((x_rows, 3))
        with pytest.raises(ValueError, match=f"^{name}:"):
            fit_multinomial_logistic(x, labels, k, class_weights, 1)

    @pytest.mark.parametrize("iters", [0, -3])
    def test_bad_step_settings_rejected_by_name(self, iters):
        # No steps used to return the all-zero attacker.
        with pytest.raises(ValueError, match="^iters:"):
            fit_multinomial_logistic(np.ones((4, 3)), [0, 1, 0, 1], 2, [1.0, 1.0], iters)


class TestAttackAccuracy:
    def test_zero_weight_attacker_is_chance(self):
        attacker = LinearAttacker(np.zeros((6, 3)), np.zeros((1, 3)), k_y=2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((90, 4))
        y = rng.integers(0, 2, 90)
        y_p = np.repeat([0, 1, 2], 30)
        assert attack_accuracy(attacker, x, y, y_p) == pytest.approx(1 / 3)

    def test_class_count_is_the_attackers(self):
        # Test labels without class 2 cannot score a 3-class attacker.
        attacker = LinearAttacker(np.zeros((6, 3)), np.zeros((1, 3)), k_y=2)
        with pytest.raises(ValueError, match=r"^y_p lacks class\(es\) \[2\] of k_p = 3$"):
            attack_accuracy(attacker, np.zeros((4, 4)), np.zeros(4, int), [0, 1, 0, 1])

    def test_separable_near_perfect(self):
        x, y, y_p = two_gaussian_features(2000, mu=6.0, seed=9)
        attacker = fit_attacker(x[:1000], y[:1000], y_p[:1000], iters=2000, k_y=2, k_p=2)
        ba = attack_accuracy(attacker, x[1000:], y[1000:], y_p[1000:])
        assert ba > 0.97

