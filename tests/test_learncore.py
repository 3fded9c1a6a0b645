import math

import numpy as np
import pytest

import fairpriv.learncore as lc
from conftest import oracle_mlp_forward
from fairpriv.learncore import AdamState, Mlp, ShapeError, adam_step, mlp_init


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


def planned(net, x):
    """``net`` planned as the training step plans it, with fresh gradient arrays,
    after a forward pass on ``x``: (its NetArrays, its output, its param gradients)."""
    grads = [np.empty_like(p) for p in net.params()]
    arrays = lc.NetArrays(lc.plan_layers(net.params(), grads), x.shape[0])
    w = net.weights[-1]
    out = np.empty((*w.shape[:-2], x.shape[0], w.shape[-1]))
    lc.forward(arrays, x, out)
    return arrays, out, grads


def param_grads(net, x, grad_out):
    """The gradient at ``net``'s input and its param gradients, from ``grad_out`` at its output."""
    arrays, _, grads = planned(net, x)
    return lc.param_grads(arrays, grad_out) @ arrays.layers[0].w_t, grads


def ce_grads(mlp, x, y, w):
    """Loss and param grads of the weighted CE of mlp on (x, y)."""
    arrays, out, grads = planned(mlp, x)
    loss, dlogits = reference_softmax_ce(out, y, w, grad_scale=1.0)
    lc.param_grads(arrays, dlogits)
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
    """The checked softmax cross entropy as it was before its arithmetic moved
    into lc.encoded_cross_entropy, kept verbatim as the oracle for that kernel."""
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


def encoded_ce(logits, y, grad_scale=None):
    """lc.encoded_cross_entropy on plain targets."""
    flat = np.arange(logits.shape[0]) * logits.shape[1] + np.asarray(y)
    return lc.encoded_cross_entropy(logits, flat, grad_scale)


class TestCrossEntropy:
    def test_uniform_binary(self):
        loss, _ = encoded_ce(np.array([[0.0, 0.0]]), [1])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_three_class(self):
        loss, _ = encoded_ce(np.zeros((4, 3)), [0, 1, 2, 0])
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_loss_is_mean_over_rows(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 10, 4))
        y = rng.integers(0, 4, (3, 10))
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        plain = -np.take_along_axis(logp, y[..., None], axis=-1)[..., 0].mean(axis=-1)
        flat = (np.arange(3)[:, None] * 10 + np.arange(10)) * 4 + y
        losses, _ = lc.encoded_cross_entropy(logits, flat)
        for j in range(3):
            assert encoded_ce(logits[j], y[j])[0] == pytest.approx(plain[j], abs=0)
            assert losses[j] == encoded_ce(logits[j], y[j])[0]

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((6, 3))
        y = rng.integers(0, 3, 6)
        a = encoded_ce(logits, y)[0]
        b = encoded_ce(logits + 123.0, y)[0]
        assert a == pytest.approx(b, abs=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((7, 3))
        y = rng.integers(0, 3, 7)
        _, d = encoded_ce(logits, y, grad_scale=-3.0)
        (fd,) = finite_diff(lambda: -3.0 * encoded_ce(logits, y)[0], [logits])
        assert rel_err(d, fd).max() < 1e-6


class TestEncodedCrossEntropy:
    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("n", [64, 53])  # a full batch and an epoch's last one
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("grad_scale", [None, 1.0, -0.7])
    def test_bytes_equal_reference(self, k, n, stacked, grad_scale):
        rng = np.random.default_rng(100 * k + n)
        logits = 4.0 * rng.standard_normal((n, k))
        y = rng.integers(0, k, n)
        ref_loss, ref_d = reference_softmax_ce(logits, y, grad_scale=grad_scale)

        flat = np.arange(n) * k + y
        scale = grad_scale
        if stacked:
            # The same rows as head 1 of three, the other heads on other rows
            # and scales, the indices a view like EpochArrays.batch's.
            logits = np.stack([4.0 * rng.standard_normal((n, k)), logits,
                               4.0 * rng.standard_normal((n, k))])
            ys = np.stack([rng.integers(0, k, n), y, rng.integers(0, k, n)])
            flat = np.empty((3, n + 64), np.int64)[:, :n]
            flat[...] = (np.arange(3)[:, None] * n + np.arange(n)) * k + ys
            if grad_scale is not None:
                scale = np.reshape((0.3, grad_scale, -1.0), (3, 1, 1))
        before, flat_before = logits.copy(), flat.copy()
        loss, d = lc.encoded_cross_entropy(logits, flat, scale)
        if stacked:
            loss, d = loss[1], None if d is None else d[1]
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        if grad_scale is None:
            assert d is None and ref_d is None
        else:
            assert d.tobytes() == ref_d.tobytes()
        # The kernel leaves its inputs alone.
        assert np.array_equal(logits, before) and np.array_equal(flat, flat_before)


def stack_nets(nets):
    """The nets as one stacked net, head j holding nets[j]'s params."""
    stacked = [np.stack(p) for p in zip(*(net.params() for net in nets))]
    return Mlp(stacked[0::2], stacked[1::2])


class TestStackedBytes:
    """A stacked net and a stacked cross entropy give, head by head, the bytes
    of the same calls on each head alone."""

    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("n", [64, 53])  # a full batch and an epoch's last one
    @pytest.mark.parametrize("scales", [None, (1.0, 1.0), (-0.7, -0.7), (-0.7, -0.0),
                                        (-0.0, -0.7), (-0.0, -0.0), (1.0, -0.7, -0.0),
                                        (0.0, 1.0, 1.0)])
    def test_forward_cross_entropy_backward(self, k, n, scales):
        rng = np.random.default_rng(100 * k + n)
        heads = 2 if scales is None else len(scales)
        nets = [mlp_init([10, 32, 32, k], seed) for seed in range(k, k + 20 * heads, 20)]
        stacked = stack_nets(nets)
        x = rng.standard_normal((n, 10))
        y = rng.integers(0, k, (heads, n))
        flat = np.empty((heads, n + 64), np.int64)[:, :n]  # a view like EpochArrays.batch's
        flat[...] = (np.arange(heads)[:, None] * n + np.arange(n)) * k + y
        arrays, logits, grads = planned(stacked, x)
        grad_scale = None if scales is None else np.reshape(scales, (heads, 1, 1))
        losses, d = lc.encoded_cross_entropy(logits, flat, grad_scale)
        if d is not None:
            g_in = lc.param_grads(arrays, d) @ arrays.layers[0].w_t
        for j, net in enumerate(nets):
            acts_j = oracle_mlp_forward(net, x)  # the old forward loop, unstacked
            for a, a_j in zip(arrays.hidden + [logits], acts_j[1:]):
                assert a[j].tobytes() == a_j.tobytes()
            loss_j, d_j = lc.encoded_cross_entropy(acts_j[-1], np.arange(n) * k + y[j],
                                                   None if scales is None else scales[j])
            assert np.float64(losses[j]).tobytes() == np.float64(loss_j).tobytes()
            if scales is None:
                assert d is None and d_j is None
                continue
            assert d[j].tobytes() == d_j.tobytes()
            g_in_j, grads_j = param_grads(net, x, d_j)
            assert g_in[j].tobytes() == g_in_j.tobytes()
            for g, g_j in zip(grads, grads_j):
                assert g[j].tobytes() == g_j.tobytes()

    @pytest.mark.parametrize("scales", [(1.0, -0.7), (-0.0, -0.7), (-0.7, -0.0), (-0.0, -0.0)])
    def test_feature_gradient_sums_the_pair_over_its_head_axis(self, scales):
        # A MAIN step adds the pair's two input-gradient cuts with one add,
        # then the classifier's: the bytes of the pair's gradient summed over
        # its head axis, plus the classifier's, -0.0 included. With both
        # scales -0.0, as at alpha = beta = 0, the pair adds ±0, and the
        # feature gradient equals the classifier's (a zero's sign aside).
        rng = np.random.default_rng(7)
        graph = Graph(mlp_init([6, 16, 8], seed=1), mlp_init([8, 2], seed=2),
                      stack_nets([mlp_init([10, 32, 32, 2], seed) for seed in (3, 4)]), 53)
        graph.forward(rng.standard_normal((53, 6)), rng.standard_normal((53, 2)))
        d = rng.standard_normal((3, 53, 2)) * np.reshape((1.0, *scales), (3, 1, 1))
        lc.backward(graph.step, d, True)
        g_pair, _ = param_grads(graph.pair, graph.adv_in, d[1:])
        g_cls, _ = param_grads(graph.classifier, graph.adv_in[:, :8], d[0])
        assert graph.step.features_grad.tobytes() == (g_pair[..., :8].sum(axis=0)
                                                      + g_cls).tobytes()
        if scales == (-0.0, -0.0):
            assert np.array_equal(graph.step.features_grad, g_cls)


class Graph:
    """The training step's graph, planned for ``n`` rows: a trunk, a classifier
    on its output, and a stacked pair on its output joined with extra columns."""

    def __init__(self, trunk, classifier, pair, n):
        self.main = AdamState([trunk.params(), classifier.params()], lr=0.1)
        self.adv = AdamState([pair.params()], lr=0.1)
        params = self.main.net_params + self.adv.net_params
        # The nets over the buffers' views, as the step sees them.
        self.trunk, self.classifier, self.pair = (Mlp(p[0::2], p[1::2]) for p in params)
        self.step = lc.StepArrays(*map(lc.plan_layers, params,
                                       self.main.net_grads + self.adv.net_grads), n)

    def forward(self, x, extra):
        """The step's forward pass; the (3, n, K) logits."""
        width = self.trunk.weights[-1].shape[-1]
        self.adv_in = np.hstack([np.empty((x.shape[0], width)), extra])
        features = self.adv_in[:, :width]
        lc.forward(self.step.extractor, x, features)
        lc.forward(self.step.classifier, features, self.step.classifier_logits)
        lc.forward(self.step.adversaries, self.adv_in, self.step.adversary_logits)
        return self.step.logits


class TestFusedCrossEntropy:
    """One call over the classifier's logits joined to the adversary pair's
    gives, head by head, the bytes of the two calls apart: the classifier's
    with a number grad scale, and the pair's stacked."""

    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("n", [64, 53])  # a full batch and an epoch's last one
    @pytest.mark.parametrize("phase, scales", [
        ("MAIN", (1.0, -0.7, -2.5)), ("MAIN", (1.0, -0.0, -2.5)), ("MAIN", (1.0, -0.7, -0.0)),
        ("MAIN", (1.0, -0.0, -0.0)), ("ADV", (1.0, 1.0, 1.0)), (None, None)])
    def test_heads_match_separate_calls(self, k, n, phase, scales):
        rng = np.random.default_rng(100 * k + n)
        classifier, pair = 4.0 * rng.standard_normal((n, k)), 4.0 * rng.standard_normal((2, n, k))
        y = rng.integers(0, k, (3, n))
        flat = np.empty((3, n + 64), np.int64)[:, :n]  # a view like EpochArrays.batch's
        flat[...] = (np.arange(3)[:, None] * n + np.arange(n)) * k + y
        losses, d = lc.encoded_cross_entropy(np.concatenate([classifier[None], pair]), flat,
                                             None if scales is None
                                             else np.reshape(scales, (3, 1, 1)))
        loss_c, d_c = lc.encoded_cross_entropy(classifier, np.arange(n) * k + y[0],
                                               scales[0] if phase == "MAIN" else None)
        losses_pair, d_pair = lc.encoded_cross_entropy(pair, flat[1:] - n * k,
                                                       None if scales is None
                                                       else np.reshape(scales[1:], (2, 1, 1)))
        for got, want in zip(losses, [loss_c, *losses_pair]):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        if phase is None:
            assert d is None and d_c is None and d_pair is None
            return
        assert d[1:].tobytes() == d_pair.tobytes()
        if phase == "MAIN":  # ADV leaves the classifier's slice unused
            assert d[0].tobytes() == d_c.tobytes()


class TestPaddedCrossEntropy:
    """Heads whose logits are padded with -inf columns up to a common width
    K <= 7 give, head by head, the losses and dlogits of each head's own call
    on its real columns, and exactly 0 in the padded ones. From 8 columns
    numpy unrolls its row sum, and the last bits may differ."""

    @pytest.mark.parametrize("ks, width", [
        ((2, 3, 2), 3), ((3, 2, 2), 3), ((2, 2, 3), 3), ((4, 7, 5), 7), ((2, 2, 2), 7),
        ((2, 6, 3), 6)])
    @pytest.mark.parametrize("n", [64, 53])  # a full batch and an epoch's last one
    @pytest.mark.parametrize("scales", [None, (1.0, -0.7, -2.5), (1.0, -0.0, -0.7),
                                        (1.0, 1.0, 1.0)])
    def test_heads_match_unpadded_calls(self, ks, width, n, scales):
        rng = np.random.default_rng(sum(ks) + n)
        padded = np.full((3, n, width), -np.inf)
        for j, k in enumerate(ks):
            padded[j, :, :k] = 4.0 * rng.standard_normal((n, k))
        y = np.stack([rng.integers(0, k, n) for k in ks])
        flat = (np.arange(3)[:, None] * n + np.arange(n)) * width + y
        losses, d = lc.encoded_cross_entropy(padded, flat, None if scales is None
                                             else np.reshape(scales, (3, 1, 1)))
        for j, k in enumerate(ks):
            loss_j, d_j = lc.encoded_cross_entropy(np.ascontiguousarray(padded[j, :, :k]),
                                                   np.arange(n) * k + y[j],
                                                   None if scales is None else scales[j])
            assert np.float64(losses[j]).tobytes() == np.float64(loss_j).tobytes()
            if scales is None:
                assert d is None and d_j is None
                continue
            assert d[j, :, :k].tobytes() == d_j.tobytes()
            assert np.all(d[j, :, k:] == 0.0)


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
        fd = finite_diff(lambda: reference_softmax_ce(mlp.apply(x), y, w)[0], mlp.params())
        for g, g_fd in zip(grads, fd):
            assert rel_err(g, g_fd).max() < 1e-5

    @pytest.mark.parametrize("main", [True, False], ids=["MAIN", "ADV"])
    def test_trunk_and_heads_match_fd(self, main):
        # A classifier and a stacked pair on one trunk, the pair reading extra
        # columns after the trunk output: a MAIN step's trunk sees the sum of
        # the heads' gradients; an ADV step gives the pair's own.
        rng = np.random.default_rng(13)
        graph = Graph(mlp_init([5, 6, 3], seed=1), mlp_init([3, 2], seed=2),
                      stack_nets([mlp_init([5, 4, 2], seed) for seed in (3, 4)]), 6)
        x, extra = rng.standard_normal((6, 5)), rng.standard_normal((6, 2))
        y = rng.integers(0, 2, (3, 6))
        scales = (1.0, -0.7, -0.3) if main else (1.0, 1.0, 1.0)

        def loss_value():  # evaluation's path
            feats = graph.trunk.apply(x)
            pair = graph.pair.apply(np.hstack([feats, extra]))
            return sum(s * reference_softmax_ce(logits, t)[0] for s, logits, t
                       in zip(scales, [graph.classifier.apply(feats), *pair], y))

        flat = (np.arange(3)[:, None] * 6 + np.arange(6)) * 2 + y
        _, d = lc.encoded_cross_entropy(graph.forward(x, extra), flat,
                                        np.reshape(scales, (3, 1, 1)))
        lc.backward(graph.step, d, main)
        group = graph.main if main else graph.adv
        nets = (graph.trunk, graph.classifier) if main else (graph.pair,)
        for net, grads in zip(nets, group.net_grads):
            for g, g_fd in zip(grads, finite_diff(loss_value, net.params())):
                assert rel_err(g, g_fd).max() < 1e-5


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        net = linear(np.full((2, 2), 3.0))
        state = AdamState([net.params()], lr=0.1)
        adam_step(state)
        assert np.array_equal(state.net_params[0][0], np.full((2, 2), 3.0))
        assert state.step == 1

    def test_first_step_magnitude_near_lr(self):
        net = linear(np.zeros((1, 3)))
        state = AdamState([net.params()], lr=0.01)
        state.net_grads[0][0][:] = [[0.5, -2.0, 10.0]]
        adam_step(state)
        w = state.net_params[0][0]
        assert np.all(np.abs(np.abs(w) - 0.01) < 1e-7)
        assert np.sign(w[0, 0]) == -1  # moves against the gradient

    def test_deterministic(self):
        g = np.random.default_rng(7).standard_normal((3, 3))
        results = []
        for _ in range(2):
            net = linear(np.ones((3, 3)))
            state = AdamState([net.params()], lr=0.05)
            for _ in range(5):
                state.net_grads[0][0][:] = g
                adam_step(state)
            results.append(state.net_params[0][0].copy())
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        # The params are copied into views of one flat buffer; the gradient
        # views mirror their shapes.
        a, b = mlp_init([2, 3], seed=0), mlp_init([3, 4, 1], seed=1)
        before = [p.copy() for p in a.params() + b.params()]
        state = AdamState([a.params(), b.params()], lr=0.1)
        assert state.params.size == sum(p.size for p in before)
        for p, g, orig in zip(state.net_params[0] + state.net_params[1],
                              state.net_grads[0] + state.net_grads[1], before):
            assert np.shares_memory(p, state.params) and np.array_equal(p, orig)
            assert g.shape == p.shape and np.shares_memory(g, state.grads)
        with pytest.raises(ValueError):
            state.net_grads[0][0][:] = np.ones((2, 4))

    def test_given_arrays_stay_put_while_it_steps(self):
        # The state copies the arrays it is given and leaves them, and the
        # objects holding them, as they are.
        a, b = mlp_init([2, 3], seed=0), mlp_init([3, 4, 1], seed=1)
        given = [a.params(), b.params()]
        before = [p.copy() for net in given for p in net]
        state = AdamState(given, lr=0.1)
        state.grads[:] = np.random.default_rng(2).standard_normal(state.grads.size)
        for _ in range(3):
            adam_step(state)
        assert all(p is q for net, ps in zip((a, b), given) for p, q in zip(net.params(), ps))
        for p, orig in zip([p for net in given for p in net], before):
            assert p.tobytes() == orig.tobytes()
            assert not np.shares_memory(p, state.params)
        assert not np.array_equal(state.params, np.concatenate([p.ravel() for p in before]))


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
            fd = finite_diff(lambda: reference_softmax_ce(mlp.apply(x), y, w)[0],
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
        acts = oracle_mlp_forward(mlp, x)
        assert np.array_equal(mlp.apply(x), acts[-1])
        assert [a.shape[1] for a in acts] == mlp.layer_sizes

    def test_backward_overwrites_grads(self):
        net = linear(np.ones((2, 1)))
        arrays, _, grads = planned(net, np.ones((1, 2)))
        grads[0][:], grads[1][:] = 5.0, 5.0
        for _ in range(2):
            lc.param_grads(arrays, np.ones((1, 1)))
            assert grads[0][0, 0] == 1.0 and grads[1][0, 0] == 1.0  # no accumulation
