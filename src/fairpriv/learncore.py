"""Dense float64 MLPs with an explicit backward pass, softmax cross entropy, and Adam.

Everything here operates on 2-D float64 arrays ("matrices") or stacks of
them. An MLP's :meth:`Mlp.forward` keeps the activations that backward needs;
:func:`backward` runs one training step's backward pass through a trunk net
and the head nets that read its output. Adam updates one flat buffer per
parameter group, and each net's weights and biases are views into it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Matrix = np.ndarray  # 2-D, float64, row-major


class ShapeError(ValueError):
    """Operand dimensions do not agree."""


def as_matrix(data) -> Matrix:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def encoded_cross_entropy(logits: Matrix, flat: np.ndarray, grad_scale: float | None = None,
                          row_w: np.ndarray | None = None,
                          total_w: float | None = None) -> tuple[float, Matrix | None]:
    """Class-weighted softmax cross entropy on pre-encoded targets.

    Returns (loss, dlogits) with loss = (sum_i w_i * -log softmax(logits_i)[y_i])
    / sum_i w_i, stabilized by per-row max subtraction. ``flat`` holds each
    row's index into the flattened (n, k) logits, ``row * k + y_i``.
    ``row_w`` and ``total_w`` are the rows' class weights w_i and their sum,
    None for unit weights (the plain mean). dlogits is the gradient of
    ``grad_scale * loss`` with respect to the logits, or None when no
    grad_scale is given. Nothing is checked.
    Stacked (heads, n, k) logits, with (heads, n) indices into all of them
    and a number or (heads, 1, 1) ``grad_scale``, give a list of per-head losses.
    """
    n, k = logits.shape[-2:]
    # Row max, column by column: exact. Column 1 % k is column 0 again when k == 1.
    m = np.maximum(logits[..., :1], logits[..., 1 % k, None])
    for c in range(2, k):
        np.maximum(m, logits[..., c:c + 1], out=m)
    log_probs = logits - m
    s = np.exp(log_probs).sum(axis=-1, keepdims=True)
    log_probs -= np.log(s, out=s)
    picked = log_probs.take(flat)
    total_w = float(n if row_w is None else total_w)
    sums = (picked if row_w is None else row_w * picked).sum(axis=-1).tolist()
    # Python's -s / total_w makes the IEEE negate and divide numpy would.
    loss = -sums / total_w if logits.ndim == 2 else [-s / total_w for s in sums]
    if grad_scale is None:
        return loss, None
    dlogits = np.exp(log_probs, out=log_probs)
    np.subtract.at(dlogits.reshape(-1), flat, 1.0)  # faster than [flat] -= on a strided flat
    if row_w is not None:
        dlogits *= row_w[..., None]
    dlogits *= grad_scale / total_w
    return loss, dlogits


# ---------------------------------------------------------------------------
# MLPs


class Mlp:
    """Fully connected net, or a stack of them: ReLU on hidden layers, identity on the output."""

    def __init__(self, weights: list[Matrix], biases: list[Matrix]):
        if not weights or len(weights) != len(biases):
            raise ValueError("need one bias per weight matrix, at least one layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if b.shape != (*w.shape[:-2], 1, w.shape[-1]):
                raise ShapeError(f"layer {i}: bias shape {b.shape} != weights {w.shape}, 1 row")
            if i > 0 and weights[i - 1].shape[-1] != w.shape[-2]:
                raise ShapeError(f"layer {i}: input width {w.shape[-2]} != previous output "
                                 f"{weights[i - 1].shape[-1]}")
        self.weights = weights
        self.biases = biases

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[-2]] + [w.shape[-1] for w in self.weights]

    def params(self) -> list[Matrix]:
        """Weights and biases interleaved, first layer first."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]

    def forward(self, x: Matrix) -> list[Matrix]:
        """Activations [x, h_1, ..., output].

        Hidden activations are post-ReLU, which is all backward() needs.
        """
        if x.shape[-1] != self.weights[0].shape[-2]:
            raise ShapeError(f"input width {x.shape[-1]} != layer input width "
                             f"{self.weights[0].shape[-2]}")
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                h = np.maximum(h, 0.0)
            acts.append(h)
        return acts

    def apply(self, x) -> Matrix:
        """The output of a forward pass on a raw matrix."""
        return self.forward(as_matrix(x))[-1]

    def backward(self, acts: list[Matrix], grad_out: Matrix, grads: list[Matrix] | None = None,
                 input_grad: bool = True) -> Matrix | None:
        """Backpropagate ``grad_out``, the loss gradient at this net's output.

        ``acts`` come from forward(). The param gradients are written into
        ``grads`` (params() order) unless it is None. Returns the gradient at
        the net's input, or None when ``input_grad`` is False.
        """
        if grad_out.shape != acts[-1].shape:
            raise ShapeError(f"grad_out {grad_out.shape} != output {acts[-1].shape}")
        g = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            if grads is not None:
                g.sum(axis=-2, keepdims=True, out=grads[2 * i + 1])
                np.matmul(acts[i].swapaxes(-1, -2), g, out=grads[2 * i])
            if i == 0 and not input_grad:
                return None
            g = g @ self.weights[i].swapaxes(-1, -2)
            if i > 0:
                g = g * (acts[i] > 0)  # ReLU gradient is zero at exactly 0
        return g

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def mlp_init(layer_sizes: Sequence[int], seed) -> Mlp:
    """He-style init: weights ~ N(0, 2/fan_in) from a seeded generator, zero biases."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValueError(f"need >=2 positive layer sizes, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        biases.append(np.zeros((1, fan_out)))
    return Mlp(weights, biases)


def backward(heads, trunk=None) -> None:
    """One step's backward pass through head nets and the trunk that feeds them.

    ``heads`` lists (net, acts, grad_out, grads): the activations from
    Mlp.forward, the loss gradient at the net's output, and the arrays that
    receive the net's param gradients (None skips them). With ``trunk`` =
    (net, acts, grads), each head's input gradient is cut to the trunk's
    output width (a head may read extra columns after it) and, for a stacked
    head, summed over its head axis; the cuts are summed in list order, and
    the sum is propagated through the trunk, whose input gradient is not formed.
    """
    width = trunk[0].layer_sizes[-1] if trunk is not None else 0
    g_trunk = None
    for net, acts, grad_out, grads in heads:
        g_in = net.backward(acts, grad_out, grads, input_grad=trunk is not None)
        if trunk is not None:
            g_in = g_in[..., :width]
            if g_in.ndim == 3:
                g_in = g_in.sum(axis=0)
            g_trunk = g_in if g_trunk is None else g_trunk + g_in
    if trunk is not None:
        net, acts, grads = trunk
        net.backward(acts, g_trunk, grads, input_grad=False)


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam over one flat buffer holding the params of ``nets``.

    Building the state moves every net's weights and biases into
    ``params`` and rebinds them as views into it. ``grads`` has the same
    layout; ``net_grads[i]`` holds net i's views into it in params() order,
    ready for Mlp.backward.
    """

    def __init__(self, nets: Sequence[Mlp], lr: float):
        self.lr = lr
        self.step = 0
        arrays = [p for net in nets for p in net.params()]
        self.params = np.concatenate([p.ravel() for p in arrays])
        self.grads = np.zeros_like(self.params)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.tmp = np.empty((2, self.params.size))  # adam_step's scratch
        self.net_grads = []
        offset = 0
        for net in nets:
            views, grads = [], []
            for p in net.params():
                views.append(self.params[offset:offset + p.size].reshape(p.shape))
                grads.append(self.grads[offset:offset + p.size].reshape(p.shape))
                offset += p.size
            net.weights, net.biases = views[0::2], views[1::2]
            self.net_grads.append(grads)


def adam_step(state: AdamState) -> None:
    """One in-place Adam update of ``state.params`` from ``state.grads``.

    The temporaries live in ``state.tmp``; the operations and their order
    are those of ``params -= lr * (m / c1) / (sqrt(v / c2) + eps)``.
    """
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    g, t, u = state.grads, state.tmp[0], state.tmp[1]
    state.m *= ADAM_BETA1
    state.m += np.multiply(g, 1.0 - ADAM_BETA1, out=t)
    state.v *= ADAM_BETA2
    np.multiply(g, g, out=t)
    state.v += np.multiply(t, 1.0 - ADAM_BETA2, out=t)
    m_hat = np.divide(state.m, c1, out=t)
    v_hat = np.divide(state.v, c2, out=u)
    m_hat *= state.lr
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat /= v_hat
    state.params -= m_hat
