import math

import numpy as np
import pytest

import fairpriv.learncore as lc
from fairpriv.learncore import (AdamState, Mlp, ShapeError, adam_step, mlp_init,
                                softmax_cross_entropy)


def finite_diff(loss_fn, params, h=1e-5):
    """Central-difference gradients of loss_fn() w.r.t. each param array."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        for idx in np.ndindex(*p.shape):
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-6)])


def linear(w):
    """A one-layer net with zero bias: its forward pass is a plain matrix product."""
    w = np.asarray(w, dtype=np.float64)
    return Mlp([w], [np.zeros((1, w.shape[1]))])


def param_grads(net, x, grad_out):
    grads = [np.empty_like(p) for p in net.params()]
    g_in = net.backward(net.forward(x), grad_out, grads)
    return g_in, grads


def ce_grads(mlp, x, y, w):
    """Loss and param grads of the weighted CE of mlp on (x, y)."""
    acts = mlp.forward(x)
    loss, dlogits = softmax_cross_entropy(acts[-1], y, w, grad_scale=1.0)
    grads = [np.empty_like(p) for p in mlp.params()]
    mlp.backward(acts, dlogits, grads)
    return loss, grads


class TestMatmul:
    def test_identity(self):
        m = linear([[1, 2], [3, 4]]).apply(np.eye(2))
        assert np.array_equal(m, [[1, 2], [3, 4]])

    def test_hand_value(self):
        m = linear([[3], [4]]).apply([[1, 2]])
        assert m[0, 0] == 11

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 3))
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.allclose(linear(b).apply(a), expected, atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            linear(np.ones((2, 3))).apply(np.ones((2, 3)))


class TestRelu:
    def relu_net(self, width):
        """Identity hidden layer then identity output: the output is relu(x)."""
        eye = np.eye(width)
        return Mlp([eye, eye.copy()], [np.zeros((1, width)), np.zeros((1, width))])

    def test_values(self):
        assert np.array_equal(self.relu_net(3).apply([[-1.0, 0.0, 2.0]]), [[0, 0, 2]])

    def test_positive_unchanged(self):
        x = np.abs(np.random.default_rng(1).standard_normal((3, 4))) + 0.1
        assert np.array_equal(self.relu_net(4).apply(x), x)

    def test_gradient_mask(self):
        net = self.relu_net(2)
        g_in, _ = param_grads(net, np.array([[-0.5, 0.5]]), np.ones((1, 2)))
        assert np.array_equal(g_in, [[0.0, 1.0]])


def reference_softmax_ce(logits, targets, class_weights=None, grad_scale=None):
    """softmax_cross_entropy as it was before its arithmetic moved into
    lc.encoded_cross_entropy, kept verbatim as the oracle for that kernel."""
    y = np.asarray(targets, dtype=np.int64).reshape(-1)
    n, k = logits.shape
    if n == 0:
        raise ValueError("cross entropy over an empty batch")
    if y.shape[0] != n:
        raise ShapeError(f"targets length {y.shape[0]} != batch size {n}")
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"target index out of range for {k} classes")
    rows = np.arange(n)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    if class_weights is None:
        row_w, total_w = None, float(n)
        loss = -log_probs[rows, y].sum() / total_w
    else:
        w = np.asarray(class_weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != k:
            raise ShapeError(f"class_weights length {w.shape[0]} != class count {k}")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("class weights must be >= 0 and not all zero")
        row_w = w[y]
        total_w = row_w.sum()
        if total_w <= 0.0:
            raise ValueError("total batch weight is zero (every row's class has weight 0)")
        loss = -(row_w * log_probs[rows, y]).sum() / total_w
    if grad_scale is None:
        return float(loss), None
    dlogits = np.exp(log_probs)
    dlogits[rows, y] -= 1.0
    if row_w is not None:
        dlogits = dlogits * row_w[:, None]
    return float(loss), dlogits * (grad_scale / total_w)


class TestWeightedCrossEntropy:
    def test_uniform_binary(self):
        loss, _ = softmax_cross_entropy(np.array([[0.0, 0.0]]), [1], [1.0, 1.0])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_three_class(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 3)), [0, 1, 2, 0], np.ones(3))
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_zero_total_weight(self):
        with pytest.raises(ValueError, match="weight"):
            softmax_cross_entropy(np.array([[0.0, 0.0], [1.0, 2.0]]), [1, 1], [1.0, 0.0])

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="empty"):
            softmax_cross_entropy(np.zeros((0, 2)), [], [1.0, 1.0])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            softmax_cross_entropy(np.array([[0.0, 0.0]]), [2], [1.0, 1.0])

    def test_unit_weights_equal_unweighted_mean(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((10, 4))
        y = rng.integers(0, 4, 10)
        loss, d_weighted = softmax_cross_entropy(logits, y, np.ones(4), grad_scale=0.5)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        plain = -logp[np.arange(10), y].mean()
        assert loss == pytest.approx(plain, abs=0)
        assert softmax_cross_entropy(logits, y)[0] == loss
        assert np.array_equal(softmax_cross_entropy(logits, y, grad_scale=0.5)[1], d_weighted)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((6, 3))
        y = rng.integers(0, 3, 6)
        w = np.array([0.2, 1.0, 3.0])
        a = softmax_cross_entropy(logits, y, w)[0]
        b = softmax_cross_entropy(logits + 123.0, y, w)[0]
        assert a == pytest.approx(b, abs=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((7, 3))
        y = rng.integers(0, 3, 7)
        w = np.array([0.5, 1.0, 2.0])
        _, d = softmax_cross_entropy(logits, y, w, grad_scale=-3.0)
        (fd,) = finite_diff(lambda: -3.0 * softmax_cross_entropy(logits, y, w)[0], [logits])
        assert rel_err(d, fd).max() < 1e-6


class TestEncodedCrossEntropy:
    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("n", [64, 53])  # a full batch and an epoch's last one
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("grad_scale", [None, 1.0, -0.7])
    def test_bytes_equal_reference(self, k, n, weighted, grad_scale):
        rng = np.random.default_rng(100 * k + n)
        logits = 4.0 * rng.standard_normal((n, k))
        y = rng.integers(0, k, n)
        w = rng.uniform(0.1, 3.0, k) if weighted else None
        ref_loss, ref_d = reference_softmax_ce(logits, y, w, grad_scale=grad_scale)

        flat = np.arange(n) * k + y
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        row_w = total_w = None
        if weighted:
            row_w = w[y]
            total_w = row_w.sum()
        before = logits.copy()
        for loss, d in (lc.encoded_cross_entropy(logits, onehot, flat, grad_scale,
                                                 row_w, total_w),
                        softmax_cross_entropy(logits, y, w, grad_scale=grad_scale)):
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            if grad_scale is None:
                assert d is None and ref_d is None
            else:
                assert d.tobytes() == ref_d.tobytes()
        assert np.array_equal(logits, before)  # the kernel leaves its input alone


class TestBackward:
    def test_sum_of_linear_matches_fd(self):
        rng = np.random.default_rng(4)
        net = linear(rng.standard_normal((3, 2)))
        x = rng.standard_normal((4, 3))
        _, grads = param_grads(net, x, np.ones((4, 2)))
        (fd,) = finite_diff(lambda: net.apply(x).sum(), [net.weights[0]])
        assert rel_err(grads[0], fd).max() < 1e-6

    def test_constant_loss_zero_grads(self):
        net = mlp_init([2, 3, 2], seed=5)
        g_in, grads = param_grads(net, np.ones((2, 2)), np.zeros((2, 2)))
        assert not np.any(g_in)
        assert all(not np.any(g) for g in grads)

    def test_two_layer_mlp_ce_matches_fd(self):
        rng = np.random.default_rng(6)
        mlp = mlp_init([4, 6, 3], seed=9)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        w = np.array([1.0, 0.5, 2.0])
        _, grads = ce_grads(mlp, x, y, w)
        fd = finite_diff(lambda: softmax_cross_entropy(mlp.apply(x), y, w)[0], mlp.params())
        for g, g_fd in zip(grads, fd):
            assert rel_err(g, g_fd).max() < 1e-5

    def test_non_scalar_loss_rejected(self):
        # The loss gradient handed to backward must match the net's output.
        net = mlp_init([2, 2], seed=0)
        with pytest.raises(ShapeError):
            net.backward(net.forward(np.ones((2, 2))), np.ones((1, 1)))

    def test_trunk_and_heads_match_fd(self):
        # Two heads on one trunk, one reading extra columns after the trunk
        # output: the trunk sees the sum of the heads' gradients.
        rng = np.random.default_rng(13)
        trunk, head_a, head_b = (mlp_init([5, 6, 3], seed=1), mlp_init([3, 2], seed=2),
                                 mlp_init([5, 4, 2], seed=3))
        x = rng.standard_normal((6, 5))
        extra = rng.standard_normal((6, 2))
        y_a, y_b = rng.integers(0, 2, 6), rng.integers(0, 2, 6)

        def loss_value():
            feats = trunk.apply(x)
            return (softmax_cross_entropy(head_a.apply(feats), y_a)[0]
                    - 0.7 * softmax_cross_entropy(head_b.apply(np.hstack([feats, extra])),
                                                  y_b)[0])

        t_acts = trunk.forward(x)
        a_acts = head_a.forward(t_acts[-1])
        b_acts = head_b.forward(np.hstack([t_acts[-1], extra]))
        _, d_a = softmax_cross_entropy(a_acts[-1], y_a, grad_scale=1.0)
        _, d_b = softmax_cross_entropy(b_acts[-1], y_b, grad_scale=-0.7)
        grads = {id(n): [np.empty_like(p) for p in n.params()]
                 for n in (trunk, head_a, head_b)}
        lc.backward([(head_b, b_acts, d_b, grads[id(head_b)]),
                     (head_a, a_acts, d_a, grads[id(head_a)])],
                    trunk=(trunk, t_acts, grads[id(trunk)]))
        for net in (trunk, head_a, head_b):
            for g, g_fd in zip(grads[id(net)], finite_diff(loss_value, net.params())):
                assert rel_err(g, g_fd).max() < 1e-5


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        net = linear(np.full((2, 2), 3.0))
        state = AdamState([net], lr=0.1)
        adam_step(state)
        assert np.array_equal(net.weights[0], np.full((2, 2), 3.0))
        assert state.step == 1

    def test_first_step_magnitude_near_lr(self):
        net = linear(np.zeros((1, 3)))
        state = AdamState([net], lr=0.01)
        state.net_grads[0][0][:] = [[0.5, -2.0, 10.0]]
        adam_step(state)
        assert np.all(np.abs(np.abs(net.weights[0]) - 0.01) < 1e-7)
        assert np.sign(net.weights[0][0, 0]) == -1  # moves against the gradient

    def test_deterministic(self):
        g = np.random.default_rng(7).standard_normal((3, 3))
        results = []
        for _ in range(2):
            net = linear(np.ones((3, 3)))
            state = AdamState([net], lr=0.05)
            for _ in range(5):
                state.net_grads[0][0][:] = g
                adam_step(state)
            results.append(net.weights[0].copy())
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        # Params become views into one flat buffer; the gradient views
        # mirror their shapes.
        a, b = mlp_init([2, 3], seed=0), mlp_init([3, 4, 1], seed=1)
        before = [p.copy() for p in a.params() + b.params()]
        state = AdamState([a, b], lr=0.1)
        assert state.params.size == sum(p.size for p in before)
        for p, g, orig in zip(a.params() + b.params(), state.net_grads[0] + state.net_grads[1],
                              before):
            assert np.shares_memory(p, state.params) and np.array_equal(p, orig)
            assert g.shape == p.shape and np.shares_memory(g, state.grads)
        with pytest.raises(ValueError):
            state.net_grads[0][0][:] = np.ones((2, 4))


class TestMlpInit:
    def test_same_seed_identical(self):
        a, b = mlp_init([4, 8, 2], seed=13), mlp_init([4, 8, 2], seed=13)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a, b = mlp_init([4, 8, 2], seed=13), mlp_init([4, 8, 2], seed=14)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_shapes(self):
        mlp = mlp_init([4, 8, 2], seed=0)
        assert mlp.weights[0].shape == (4, 8)
        assert mlp.weights[1].shape == (8, 2)
        assert all(np.array_equal(b, np.zeros_like(b)) for b in mlp.biases)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            mlp_init([4], seed=0)
        with pytest.raises(ValueError):
            mlp_init([4, 0, 2], seed=0)


class TestProperties:
    def test_gradients_match_fd_on_random_instances(self):
        # Small version of the acceptance-gate gradient oracle.
        rng = np.random.default_rng(100)
        for trial in range(10):
            n_layers = int(rng.integers(1, 4))
            sizes = [int(rng.integers(2, 17)) for _ in range(n_layers + 1)]
            mlp = mlp_init(sizes, seed=int(rng.integers(0, 1 << 31)))
            x = rng.standard_normal((int(rng.integers(1, 9)), sizes[0]))
            y = rng.integers(0, sizes[-1], x.shape[0])
            w = rng.uniform(0.2, 2.0, sizes[-1])
            _, grads = ce_grads(mlp, x, y, w)
            fd = finite_diff(lambda: softmax_cross_entropy(mlp.apply(x), y, w)[0],
                             mlp.params())
            for g, g_fd in zip(grads, fd):
                assert rel_err(g, g_fd).max() < 1e-5, f"trial {trial} sizes {sizes}"

    def test_forward_deterministic(self):
        x = np.random.default_rng(8).standard_normal((5, 6))
        outs = [mlp_init([6, 10, 3], seed=21).apply(x) for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])

    def test_apply_matches_forward(self):
        rng = np.random.default_rng(9)
        mlp = mlp_init([5, 7, 4], seed=3)
        x = rng.standard_normal((6, 5))
        acts = mlp.forward(x)
        assert np.array_equal(mlp.apply(x), acts[-1])
        assert [a.shape[1] for a in acts] == mlp.layer_sizes

    def test_backward_overwrites_grads(self):
        net = linear(np.ones((2, 1)))
        grads = [np.full((2, 1), 5.0), np.full((1, 1), 5.0)]
        for _ in range(2):
            net.backward(net.forward(np.ones((1, 2))), np.ones((1, 1)), grads)
            assert grads[0][0, 0] == 1.0 and grads[1][0, 0] == 1.0  # no accumulation
