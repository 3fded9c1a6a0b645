"""Dense float64 MLPs, softmax cross entropy, Adam, and the training step's backward pass.

Everything here operates on 2-D float64 arrays ("matrices") or stacks of
them. :class:`Mlp` holds a net's weights. The training step is planned once
per run: :func:`plan_layers` gives each layer's views into the Adam buffers,
and :class:`StepArrays` holds, per batch length, every array a step writes.
:func:`forward`, the one forward loop, runs a net into them, and
:func:`backward` runs one step's backward pass through the fixed graph of an
extractor, a classifier and a stacked adversary pair. Adam updates one flat
buffer per parameter group, and hands out each net's params as views into it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

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


def encoded_cross_entropy(logits: Matrix, flat: np.ndarray,
                          grad_scale: float | None = None) -> tuple[float, Matrix | None]:
    """Softmax cross entropy on pre-encoded targets.

    Returns (loss, dlogits) with loss the mean over rows of
    -log softmax(logits_i)[y_i], stabilized by per-row max subtraction.
    ``flat`` holds each row's index into the flattened (n, k) logits,
    ``row * k + y_i``. dlogits is the gradient of ``grad_scale * loss`` with
    respect to the logits, or None when no grad_scale is given. Nothing is
    checked.
    Stacked (heads, n, k) logits, with (heads, n) indices into all of them
    and a number or (heads, 1, 1) ``grad_scale``, give a list of per-head
    losses, each the mean over that head's rows.
    """
    n, k = logits.shape[-2:]
    # Row max, column by column: exact. Column 1 % k is column 0 again when k == 1.
    m = np.maximum(logits[..., :1], logits[..., 1 % k, None])
    for c in range(2, k):
        np.maximum(m, logits[..., c:c + 1], out=m)
    log_probs = logits - m
    s = np.exp(log_probs).sum(axis=-1, keepdims=True)
    log_probs -= np.log(s, out=s)
    rows = float(n)
    sums = log_probs.take(flat).sum(axis=-1).tolist()
    # Python's -s / rows makes the IEEE negate and divide numpy would.
    loss = -sums / rows if logits.ndim == 2 else [-s / rows for s in sums]
    if grad_scale is None:
        return loss, None
    dlogits = np.exp(log_probs, out=log_probs)
    np.subtract.at(dlogits.reshape(-1), flat, 1.0)  # faster than [flat] -= on a strided flat
    dlogits *= grad_scale / rows
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

    def apply(self, x) -> Matrix:
        """The net's output on a raw matrix, through :func:`forward` on arrays it allocates."""
        x = as_matrix(x)
        if x.shape[-1] != self.weights[0].shape[-2]:
            raise ShapeError(f"input width {x.shape[-1]} != layer input width "
                             f"{self.weights[0].shape[-2]}")
        w = self.weights[-1]
        out = np.empty((*w.shape[:-2], x.shape[0], w.shape[-1]))
        params = self.params()
        forward(NetArrays(plan_layers(params, [None] * len(params)), len(x)), x, out)
        return out

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


# ---------------------------------------------------------------------------
# The training step


class Layer(NamedTuple):
    """One dense layer as the training step uses it, planned once per run.

    Every array is a view into an Adam buffer, so Adam's in-place updates
    show through: the weights, the bias, the weights with their last two axes
    swapped, and the two gradient views (None in :meth:`Mlp.apply`'s plan).
    """

    w: Matrix
    b: Matrix
    w_t: Matrix
    grad_w: Matrix
    grad_b: Matrix


def plan_layers(params: list[Matrix], grads: list[Matrix]) -> tuple[Layer, ...]:
    """A net's layers from its ``params`` and gradient views ``grads``, both in params() order."""
    return tuple(Layer(w, b, w.swapaxes(-1, -2), grad_w, grad_b) for w, b, grad_w, grad_b
                 in zip(params[0::2], params[1::2], grads[0::2], grads[1::2]))


class NetArrays:
    """One net's layers and its arrays for batches of ``n`` rows, planned once per length.

    ``hidden[j]`` holds hidden layer j's post-ReLU output, and ``back`` lists,
    last layer first, each layer after the first with the arrays its
    backward pass reads and writes: the transposed input, the input, the
    ReLU mask and the loss gradient at the input. :func:`forward` sets
    ``input_t``, its last input transposed. A stacked net's arrays keep its
    leading head axis.
    """

    def __init__(self, layers: Sequence[Layer], n: int):
        lead = layers[0].w.shape[:-2]
        self.layers = layers
        self.hidden = [np.empty((*lead, n, layer.w.shape[-1])) for layer in layers[:-1]]
        self.back = [(layer, h.swapaxes(-1, -2), h, np.empty(h.shape, dtype=bool),
                      np.empty_like(h)) for layer, h in zip(layers[:0:-1], self.hidden[::-1])]
        self.input_t = None


def forward(net: NetArrays, x: Matrix, out: Matrix) -> None:
    """``x`` through the net: the hidden activations into its arrays, the output into ``out``.

    Each layer is ``h @ w + b``, with the bias added and the ReLU of a
    hidden layer applied in place.
    """
    net.input_t = x.swapaxes(-1, -2)
    h = x
    for layer, a in zip(net.layers, net.hidden):
        np.matmul(h, layer.w, out=a)
        a += layer.b
        np.maximum(a, 0.0, out=a)
        h = a
    np.matmul(h, net.layers[-1].w, out=out)
    out += net.layers[-1].b


def _through(layer: Layer, g: Matrix, h: Matrix, mask: np.ndarray, out: Matrix) -> Matrix:
    """The loss gradient at ``layer``'s input ``h``, a hidden layer's output, from
    ``g`` at the layer's output."""
    np.matmul(g, layer.w_t, out=out)
    np.greater(h, 0.0, out=mask)
    out *= mask  # the ReLU gradient is zero at exactly 0
    return out


def param_grads(net: NetArrays, g: Matrix) -> Matrix:
    """Every layer's param gradients from ``g``, the loss gradient at the net's output.

    Returns the gradient at the first layer's output; the gradient at the
    net's input is not formed.
    """
    for layer, h_t, h, mask, out in net.back:
        np.add.reduce(g, axis=-2, keepdims=True, out=layer.grad_b)
        np.matmul(h_t, g, out=layer.grad_w)
        g = _through(layer, g, h, mask, out)
    first = net.layers[0]
    np.add.reduce(g, axis=-2, keepdims=True, out=first.grad_b)
    np.matmul(net.input_t, g, out=first.grad_w)
    return g


class StepArrays:
    """The arrays of a training step on batches of ``n`` rows, planned once per length.

    The graph is fixed: the extractor's output, the features, feeds the
    classifier and, joined with extra columns, the adversaries, a stacked
    pair of nets. ``logits`` holds the classifier's and the pair's (3, n, K)
    logits. A MAIN step's feature gradient is the pair's input gradient,
    summed over its head axis, plus the classifier's.
    """

    def __init__(self, extractor: Sequence[Layer], classifier: Sequence[Layer],
                 adversaries: Sequence[Layer], n: int):
        self.extractor = NetArrays(extractor, n)
        self.classifier = NetArrays(classifier, n)
        self.adversaries = NetArrays(adversaries, n)
        self.logits = np.empty((3, n, classifier[-1].w.shape[-1]))
        self.classifier_logits, self.adversary_logits = self.logits[0], self.logits[1:]
        width = extractor[-1].w.shape[-1]
        self.features_grad = np.empty((n, width))
        self.classifier_grad = np.empty((n, width))
        self.adversaries_grad = np.empty((2, n, adversaries[0].w.shape[-2]))
        self.adversary_cuts = [self.adversaries_grad[j, :, :width] for j in (0, 1)]


def backward(step: StepArrays, dlogits: np.ndarray, main: bool) -> None:
    """One training step's backward pass, from ``dlogits``, the (3, n, K) loss
    gradient at the logits, into the Adam gradient buffers.

    A ``main`` step backpropagates through the classifier and both
    adversaries into the features, and on through the extractor, whose input
    gradient is not formed; the adversaries get no param gradients. The
    feature gradient is (fairness + privacy) + classifier, in that order,
    which fixes its rounding. An adversary whose coefficient is 0 has its
    dlogits scaled by -0.0, so it adds ±0, which changes no nonzero value.
    Otherwise the adversaries get their param gradients and the pass stops
    at their first layers: the features are frozen for them.
    """
    if not main:
        param_grads(step.adversaries, dlogits[1:])
        return
    g = param_grads(step.classifier, dlogits[0])
    g_pair = dlogits[1:]
    for layer, _, h, mask, out in step.adversaries.back:
        g_pair = _through(layer, g_pair, h, mask, out)
    np.matmul(g_pair, step.adversaries.layers[0].w_t, out=step.adversaries_grad)
    np.add(*step.adversary_cuts, out=step.features_grad)
    np.matmul(g, step.classifier.layers[0].w_t, out=step.classifier_grad)
    step.features_grad += step.classifier_grad
    param_grads(step.extractor, step.features_grad)

# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam over one flat buffer holding a copy of the params of ``nets``.

    Each net is given as its arrays in :meth:`Mlp.params` order, which the
    state copies and leaves as they are. ``grads`` has the layout of
    ``params``; ``net_params[i]`` and ``net_grads[i]`` hold net i's views
    into the two, in the same order, ready for :func:`plan_layers`.
    """

    def __init__(self, nets: Sequence[Sequence[Matrix]], lr: float):
        self.lr = lr
        self.step = 0
        self.shapes = [[p.shape for p in net] for net in nets]
        self.params = np.concatenate([p.ravel() for net in nets for p in net])
        self.grads = np.zeros_like(self.params)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.tmp = np.empty((2, self.params.size))  # adam_step's scratch
        self.net_params = self.views(self.params)
        self.net_grads = self.views(self.grads)

    def views(self, buffer: np.ndarray) -> list[list[Matrix]]:
        """Each net's params() as views into ``buffer``, laid out as ``params``."""
        shapes = [shape for net in self.shapes for shape in net]
        flat = np.split(buffer, np.cumsum([math.prod(s) for s in shapes])[:-1])
        views = iter([p.reshape(shape) for p, shape in zip(flat, shapes)])
        return [[next(views) for _ in net] for net in self.shapes]


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
