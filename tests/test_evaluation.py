import itertools

import numpy as np
import pytest

from fairpriv import evaluation
from fairpriv.evaluation import (LinearAttacker, accuracy, attack_accuracy,
                                 balanced_accuracy, fit_attacker,
                                 fit_multinomial_logistic, group_gap,
                                 inverse_frequency_weights, tpr)
from fairpriv.data import one_hot
from fairpriv.learncore import softmax_cross_entropy


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_counted(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])


class TestTpr:
    def test_perfect(self):
        assert tpr([1, 1, 0], [1, 1, 0], positive_class=1) == 1.0

    def test_half(self):
        assert tpr([1, 0], [1, 1], positive_class=1) == 0.5

    def test_no_positives(self):
        with pytest.raises(ValueError):
            tpr([0, 0], [0, 0], positive_class=1)


class TestGroupGap:
    def test_identical_groups_zero(self):
        preds = [0, 1, 0, 1]
        labels = [0, 1, 0, 1]
        assert group_gap(preds, labels, [0, 0, 1, 1]) == 0.0

    def test_three_group_max_pairwise(self):
        # accuracies 0.9, 0.8, 0.85 over 20-row groups
        rng = np.random.default_rng(0)
        labels = np.zeros(60, dtype=int)
        preds = np.zeros(60, dtype=int)
        groups = np.repeat([0, 1, 2], 20)
        for g, acc in zip(range(3), (0.9, 0.8, 0.85)):
            wrong = int(round((1 - acc) * 20))
            idx = np.flatnonzero(groups == g)[:wrong]
            preds[idx] = 1
        gap = group_gap(preds, labels, groups)
        assert gap == pytest.approx(0.1, abs=1e-12)

    def test_two_groups_absolute_difference(self):
        preds = [1, 0, 1, 1]
        labels = [1, 1, 1, 1]
        groups = [0, 0, 1, 1]
        assert group_gap(preds, labels, groups, base_metric="tpr",
                         positive_class=1) == pytest.approx(0.5)

    def test_relabel_symmetry(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 2, 40)
        labels = rng.integers(0, 2, 40)
        groups = rng.integers(0, 3, 40)
        assert group_gap(preds, labels, groups) == group_gap(preds, labels, 2 - groups)

    def test_group_without_positives_named(self):
        with pytest.raises(ValueError, match="group 1"):
            group_gap([1, 0], [1, 0], [0, 1], base_metric="tpr", positive_class=1)


class TestBalancedAccuracy:
    def test_constant_predictor_chance(self):
        labels = np.array([0] * 30 + [1] * 5 + [2] * 15)
        assert balanced_accuracy(np.zeros(50, dtype=int), labels, 3) == pytest.approx(1 / 3)

    def test_perfect(self):
        labels = np.array([0, 1, 2, 1])
        assert balanced_accuracy(labels, labels, 3) == 1.0

    def test_mean_of_recalls(self):
        labels = np.array([1] * 10 + [0] * 10)
        preds = np.array([1] * 9 + [0] + [0] * 5 + [1] * 5)
        assert balanced_accuracy(preds, labels, 2) == pytest.approx(0.7)

    def test_missing_class(self):
        with pytest.raises(ValueError, match=r"missing class\(es\) \[1\]"):
            balanced_accuracy([0, 1], [0, 2], 3)

    def test_missing_top_class_named(self):
        # Inferring the class count from the labels scored this as 0.5 over
        # 2 classes, although class 2 has no row.
        with pytest.raises(ValueError, match=r"missing class\(es\) \[2\]"):
            balanced_accuracy([0, 1, 2, 2], [0, 1, 0, 1], 3)
        assert balanced_accuracy([0, 1, 2, 2], [0, 1, 0, 1], 2) == 0.5

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1]])
    def test_label_outside_classes(self, labels):
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            balanced_accuracy([0, 1, 0], labels, 2)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            balanced_accuracy([], [], 2)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, 60)
        preds = rng.integers(0, 3, 60)
        ba = balanced_accuracy(preds, labels, 3)
        dup = labels == 1
        labels2 = np.concatenate([labels, labels[dup]])
        preds2 = np.concatenate([preds, preds[dup]])
        assert balanced_accuracy(preds2, labels2, 3) == pytest.approx(ba, abs=1e-12)


def two_gaussian_features(n, mu, seed, skew=0.5):
    """Features that carry y_p at L2 separation mu; y is independent."""
    rng = np.random.default_rng(seed)
    y_p = (rng.random(n) < skew).astype(int)
    x = rng.standard_normal((n, 4))
    x[:, 0] += mu * y_p
    y = rng.integers(0, 2, n)
    return x, y, y_p


class TestFitAttacker:
    def test_separable_features_fit_tightly(self):
        x, y, y_p = two_gaussian_features(800, mu=6.0, seed=3)
        attacker = fit_attacker(x, y, y_p, iters=2000, lr=1.0, k_y=2, k_p=2)
        z = np.hstack([x, one_hot(y, 2)])
        w = inverse_frequency_weights(y_p, 2)
        ce, _ = softmax_cross_entropy(z @ attacker.weights + attacker.bias, y_p, w)
        assert ce < 0.05

    def test_independent_features_near_chance(self):
        x, y, y_p = two_gaussian_features(5000, mu=0.0, seed=4)
        attacker = fit_attacker(x[:2500], y[:2500], y_p[:2500], iters=1500, lr=1.0,
                                k_y=2, k_p=2)
        ba = attack_accuracy(attacker, x[2500:], y[2500:], y_p[2500:])
        assert abs(ba - 0.5) < 0.05

    def test_skewed_classes_not_constant(self):
        x, y, y_p = two_gaussian_features(1000, mu=6.0, seed=5, skew=0.1)
        attacker = fit_attacker(x, y, y_p, iters=2000, lr=1.0, k_y=2, k_p=2)
        preds = attacker.predict(x, y)
        assert len(np.unique(preds)) == 2

    def test_missing_class_rejected(self):
        x = np.random.default_rng(6).standard_normal((10, 3))
        with pytest.raises(ValueError, match="absent"):
            fit_attacker(x, np.zeros(10, int), np.zeros(10, int), k_y=2, k_p=2)

    def test_deterministic(self):
        x, y, y_p = two_gaussian_features(300, mu=2.0, seed=7)
        a = fit_attacker(x, y, y_p, iters=500, lr=1.0, k_y=2, k_p=2)
        b = fit_attacker(x, y, y_p, iters=500, lr=1.0, k_y=2, k_p=2)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_huge_learning_rate_diverges(self):
        x, y, y_p = two_gaussian_features(300, mu=2.0, seed=7)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="diverged"):
            fit_attacker(x, y, y_p, iters=200, lr=1e308, k_y=2, k_p=2)


def reference_gd_iterates(x, labels, k, class_weights, lr):
    """fit_multinomial_logistic as it was before the column-wise, in-place
    loop and the exit on a repeated state: the oracle for its bitwise
    equality. Yields the (weights, bias) buffers after each step, without
    end."""
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
        p /= p.sum(axis=1, keepdims=True)
        dz = (p - target) * row_w / total_w
        weights -= lr * (x.T @ dz)
        bias -= lr * dz.sum(axis=0, keepdims=True)
        yield weights, bias


def reference_gd_loop(x, labels, k, class_weights, iters, lr):
    """The oracle's (weights, bias) after exactly ``iters`` steps."""
    return next(itertools.islice(reference_gd_iterates(x, labels, k, class_weights, lr),
                                 iters - 1, None))


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

    @pytest.mark.parametrize("k, seed", PROBLEMS)
    @pytest.mark.parametrize("iters", [1, 2, 3, 2000, 2001])
    def test_bitwise_equal_to_reference_loop(self, k, seed, iters):
        x, y, w = uninformative_problem(k, seed)
        got = fit_multinomial_logistic(x, y, k, w, iters, 1.0)
        want = reference_gd_loop(x, y, k, w, iters, 1.0)
        assert state_bytes(*got) == state_bytes(*want)

    @pytest.mark.parametrize("k", [8, 9])
    @pytest.mark.parametrize("iters", [1, 2, 3, 500, 2000])
    def test_many_classes_match_to_last_bits(self, k, iters):
        # numpy's row sum is unrolled from 8 columns on, so only the last
        # bits may differ there.
        x, y, w = uninformative_problem(k, 0)
        got = fit_multinomial_logistic(x, y, k, w, iters, 1.0)
        want = reference_gd_loop(x, y, k, w, iters, 1.0)
        for g, r in zip(got, want):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    @pytest.mark.parametrize("n, d, k", [(1600, 10, 2), (6000, 20, 3), (1600, 16, 2),
                                         (53, 20, 2)])
    @pytest.mark.parametrize("iters", [1, 2, 2000])
    def test_benchmark_shaped_problems_bitwise(self, n, d, k, iters):
        x, y, w = informative_problem(n, d, k, seed=n + k)
        got = fit_multinomial_logistic(x, y, k, w, iters, 1.0)
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
        return min(counted_fit(monkeypatch, x, y, k, w, iters, 1.0)[1]
                   for iters in range(3000, 3000 + period))

    @pytest.mark.parametrize("name", list(REPEATING))
    def test_exit_fires_within_an_eighth_of_the_cycle_start(self, monkeypatch, name):
        x, y, k, w, (start, period) = self.repeating_problem(name)
        assert first_repeat(x, y, k, w, 3000) == (start, period)
        assert period <= start / 8  # where the bound holds
        exit_at = self.exit_step(monkeypatch, x, y, k, w, period)
        assert start + period <= exit_at <= start + start // 8 + period + 1

    @pytest.mark.parametrize("name", list(REPEATING))
    def test_bitwise_equal_to_reference_loop_around_the_exit(self, monkeypatch, name):
        x, y, k, w, (_, period) = self.repeating_problem(name)
        exit_at = self.exit_step(monkeypatch, x, y, k, w, period)
        for iters in (exit_at - 1, exit_at, exit_at + 1, exit_at + period - 1,
                      exit_at + period + 1, 2000, 2001):
            got, steps = counted_fit(monkeypatch, x, y, k, w, iters, 1.0)
            want = reference_gd_loop(x, y, k, w, iters, 1.0)
            assert state_bytes(*got) == state_bytes(*want), iters
            assert steps == (iters if iters < exit_at
                             else exit_at + (iters - exit_at) % period), iters

    def test_never_repeating_fit_computes_every_step(self, monkeypatch):
        x, y, w = informative_problem(53, 20, 2, seed=55)
        assert first_repeat(x, y, 2, w, 2000) is None
        got, steps = counted_fit(monkeypatch, x, y, 2, w, 2000, 1.0)
        assert steps == 2000
        assert state_bytes(*got) == state_bytes(*reference_gd_loop(x, y, 2, w, 2000, 1.0))

    def test_diverging_fit_raises_after_its_nan_state_repeats(self, monkeypatch):
        x, y, y_p = two_gaussian_features(300, mu=2.0, seed=7)
        counter = CountingNumpy()
        monkeypatch.setattr(evaluation, "np", counter)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="diverged"):
            fit_attacker(x, y, y_p, iters=2000, lr=1e308, k_y=2, k_p=2)
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
            fit_multinomial_logistic(x, labels, k, class_weights, 1, 1.0)

    @pytest.mark.parametrize("iters, lr, name", [
        (1, 0.0, "lr"), (1, -1.0, "lr"), (1, np.nan, "lr"), (1, np.inf, "lr"),
        (0, 1.0, "iters"), (-3, 1.0, "iters"),
    ])
    def test_bad_step_settings_rejected_by_name(self, iters, lr, name):
        # No steps or a zero step used to return the all-zero attacker, and a
        # NaN step to report a divergence.
        with pytest.raises(ValueError, match=f"^{name}:"):
            fit_multinomial_logistic(np.ones((4, 3)), [0, 1, 0, 1], 2, [1.0, 1.0], iters, lr)


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
        with pytest.raises(ValueError, match=r"missing class\(es\) \[2\]"):
            attack_accuracy(attacker, np.zeros((4, 4)), np.zeros(4, int), [0, 1, 0, 1])

    def test_separable_near_perfect(self):
        x, y, y_p = two_gaussian_features(2000, mu=6.0, seed=9)
        attacker = fit_attacker(x[:1000], y[:1000], y_p[:1000], iters=2000, lr=1.0,
                                k_y=2, k_p=2)
        ba = attack_accuracy(attacker, x[1000:], y[1000:], y_p[1000:])
        assert ba > 0.97

