"""Min-max training of one (alpha, beta, seed) configuration.

The extractor and classifier minimize the task cross entropy minus
alpha/beta-scaled adversary cross entropies, so the extractor is pushed to
make the sensitive and private attributes hard to read off its features. The
adversaries minimize their own cross entropies against frozen features.
Updates alternate between the two parameter groups every other batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import learncore as lc
from .data import LabeledDataset, _check_fields, _is_int, _is_real
from .learncore import AdamState, Matrix, Mlp

MAIN, ADV = "MAIN", "ADV"


class TrainingDivergedError(RuntimeError):
    """Raised when a loss goes non-finite mid-training."""


@dataclass
class ModelBundle:
    extractor: Mlp  # input dim -> feature_dim
    classifier: Mlp  # feature_dim -> k_y
    fairness_adv: Mlp  # feature_dim + k_y -> k_a
    privacy_adv: Mlp  # feature_dim + k_y -> k_p

    def __post_init__(self):
        feature_dim = self.extractor.layer_sizes[-1]
        k_y = self.classifier.layer_sizes[-1]
        if self.classifier.layer_sizes[0] != feature_dim:
            raise ValueError("classifier input width != extractor output width")
        for name, adv in (("fairness", self.fairness_adv), ("privacy", self.privacy_adv)):
            if adv.layer_sizes[0] != feature_dim + k_y:
                raise ValueError(f"{name} adversary input width must be "
                                 f"feature_dim + k_y = {feature_dim + k_y}")


@dataclass
class TrainConfig:
    """The hyperparameters every run of a sweep shares; a run's key is passed beside it."""

    epochs: int = 40
    batch_size: int = 64
    lr: float = 1e-3
    feature_dim: int = 8
    extractor_hidden: tuple = (32,)
    adversary_hidden: tuple = (32, 32)

    def validate(self) -> None:
        """Check every field's type and range; the ValueError names the field."""
        _check_fields(self, ("epochs", "batch_size", "feature_dim"),
                      lambda v: _is_int(v) and v >= 1, "an integer >= 1")
        _check_fields(self, ("extractor_hidden", "adversary_hidden"),
                      lambda v: (isinstance(v, (list, tuple))
                                 and all(_is_int(w) and w >= 1 for w in v)),
                      "a list of integers >= 1")
        _check_fields(self, ("lr",), lambda v: _is_real(v) and v > 0, "a finite number > 0")


def check_run_key(alpha, beta, seed) -> None:
    """Check one run's key; the ValueError names the argument."""
    key = SimpleNamespace(alpha=alpha, beta=beta, seed=seed)
    _check_fields(key, ("alpha", "beta"), lambda v: _is_real(v) and v >= 0,
                  "a finite number >= 0")
    _check_fields(key, ("seed",), lambda v: _is_int(v) and v >= 0, "an integer >= 0")


@dataclass
class TrainedModel:
    bundle: ModelBundle  # weights at the best-validation epoch
    best_val_loss: float
    history: list  # per-epoch (mean train objective, val loss)


class TrainState:
    """A run's two Adam states, its alpha and beta, and its batch count.

    The Adam states hold the only copy of the training params: ``main`` the
    extractor's and the classifier's, ``adv`` the adversaries'. They copy
    ``bundle``'s arrays, which they leave as they are.
    The classifier's and the adversaries' output layers are padded to
    K = max(k_y, k_a, k_p) columns with zero weights and -inf biases, so all
    three heads' logits share one (n, K) layout: a padded logit's
    probability and gradient are exactly 0, and Adam never moves it. The
    adversaries are stacked on a leading head axis of 2, so each of their
    layers is one matmul.

    The training step is planned here, once per run: ``layers`` holds each
    net's views into the Adam buffers, and ``steps`` the step's arrays for
    each batch length seen (the full batch, an epoch's last one and the
    validation split's, one entry where two are equal), freed with the state.
    """

    def __init__(self, bundle: ModelBundle, cfg: TrainConfig, alpha: float, beta: float):
        heads = (bundle.classifier, bundle.fairness_adv, bundle.privacy_adv)
        self.widths = [net.layer_sizes[-1] for net in heads]
        self.feature_dim = bundle.extractor.layer_sizes[-1]
        params = []
        for net, k in zip(heads, self.widths):
            pad = ((0, 0), (0, max(self.widths) - k))
            *hidden, w, b = net.params()
            params.append(hidden + [np.pad(w, pad), np.pad(b, pad, constant_values=-np.inf)])
        self.main = AdamState([bundle.extractor.params(), params[0]], cfg.lr)
        self.adv = AdamState([[np.stack(p) for p in zip(*params[1:])]], cfg.lr)
        self.alpha, self.beta = alpha, beta
        self.batch_count = 0  # persists across epochs so phases carry over
        # The heads' CE grad scales in each phase, as (3, 1, 1) arrays.
        self.scales = {MAIN: np.array((1.0, -self.alpha, -self.beta)).reshape(3, 1, 1),
                       ADV: np.ones((3, 1, 1))}
        self.layers = tuple(map(lc.plan_layers, self.main.net_params + self.adv.net_params,
                                self.main.net_grads + self.adv.net_grads))
        self.steps = {}  # batch length -> lc.StepArrays

    def step_arrays(self, batch: Batch) -> lc.StepArrays:
        """The step's arrays for batches of ``batch``'s length, planned at the first one.
        ``batch`` must be encoded for this state's K."""
        if batch.k != max(self.widths):  # its targets would count from the wrong K
            raise ValueError(f"batch encoded for K = {batch.k}, the nets have K = "
                             f"{max(self.widths)}")
        step = self.steps.get(len(batch))
        if step is None:
            step = self.steps[len(batch)] = lc.StepArrays(*self.layers, len(batch))
        return step

    def bundle(self, main: np.ndarray, adv: np.ndarray) -> ModelBundle:
        """A bundle of copies of the nets in ``main`` and ``adv``, heads cut to real columns."""
        (extractor, classifier), (adversaries,) = self.main.views(main), self.adv.views(adv)
        nets = []
        for params, head, k in zip((classifier, adversaries, adversaries), ((), 0, 1),
                                   self.widths):  # (): the whole array
            params = [p[head] for p in params]
            params[-2:] = [p[:, :k] for p in params[-2:]]
            nets.append(Mlp(params[0::2], params[1::2]).copy())
        return ModelBundle(Mlp(extractor[0::2], extractor[1::2]).copy(), *nets)


@dataclass
class Forward:
    """One pass of the objective.

    ``step`` holds the pass's activations, and ``dlogits`` the (3, n, K)
    gradients of the phase's loss at the three heads' stacked logits. The
    step's arrays belong to the :class:`TrainState` that made the pass: they
    stay valid until its next pass on a batch of the same length.
    """

    total: float
    ce_c: float
    ce_a: float
    ce_p: float
    step: lc.StepArrays
    dlogits: np.ndarray


@dataclass
class Batch:
    """Rows for one pass of the objective, with their labels pre-encoded.

    ``adv_in`` is the adversaries' input: the pass writes the extractor
    output into its first feature_dim columns, and the rest hold the one-hot
    task label. ``targets`` is the (3, n) flat gather index of y, y_a and
    y_p into the heads' stacked (3, n, K) logits, as
    :func:`learncore.encoded_cross_entropy` takes it, for the K ``k``.
    """

    x: Matrix
    adv_in: Matrix
    targets: np.ndarray
    k: int

    def __len__(self) -> int:
        return self.x.shape[0]


class EpochArrays:
    """A split's rows in one order, encoded once for ``state``'s nets, and its batches as views.

    Built once per split; :meth:`fill` gathers the rows in a new order into
    the same buffers, so ``batches`` (contiguous row slices of
    ``batch_size``) stay valid. The feature width and K = max(k_y, k_a, k_p)
    come from the state: a batch's flat gather index counts from the start
    of its (3, rows, K) logits. Training checks a split's shape here, once:
    the split must be nonempty, and its dim and class counts the nets'.
    """

    def __init__(self, ds: LabeledDataset, state: TrainState, batch_size: int):
        n = len(ds)
        if n == 0:
            raise ValueError("cannot encode an empty split")
        nets = (state.layers[0][0].w.shape[0], *state.widths)
        for field, want in zip(("dim", "k_y", "k_a", "k_p"), nets):
            if (got := getattr(ds, field)) != want:
                raise ValueError(f"{field}: the split has {got}, the nets {want}")
        self.ds = ds
        self.x = np.empty_like(ds.x)
        self.adv_in = np.zeros((n, state.feature_dim + ds.k_y))
        self.labels = np.stack((ds.y, ds.y_a, ds.y_p))
        self.flat = np.empty_like(self.labels)
        rows = np.arange(n)
        start = rows - rows % batch_size  # of each row's batch
        self.k = max(state.widths)
        self.base = ((np.arange(3)[:, None] * np.minimum(n - start, batch_size) + rows - start)
                     * self.k)  # each label's flat index, less the label
        self.batches = [self.batch(slice(i, i + batch_size)) for i in range(0, n, batch_size)]

    def batch(self, rows: slice) -> Batch:
        """A batch of views into the buffers."""
        return Batch(self.x[rows], self.adv_in[rows], self.flat[:, rows], self.k)

    def fill(self, order: np.ndarray) -> None:
        """Gather the rows in ``order``, a permutation of the split's rows."""
        # No index is out of range, and "clip" spares the buffered copy that
        # take makes with out= under the default "raise".
        np.take(self.ds.x, order, axis=0, out=self.x, mode="clip")
        np.take(self.labels, order, axis=1, out=self.flat, mode="clip")  # the labels, for now
        np.equal(self.flat[0, :, None], np.arange(self.ds.k_y), out=self.adv_in[:, -self.ds.k_y:])
        self.flat += self.base


def build_bundle(cfg: TrainConfig, seeds: list, input_dim: int, k_y: int, k_a: int,
                 k_p: int) -> ModelBundle:
    """Networks seeded by ``seeds[0:4]``; the classifier is a linear head on the features."""
    adv_in = cfg.feature_dim + k_y
    return ModelBundle(
        extractor=lc.mlp_init([input_dim, *cfg.extractor_hidden, cfg.feature_dim], seeds[0]),
        classifier=lc.mlp_init([cfg.feature_dim, k_y], seeds[1]),
        fairness_adv=lc.mlp_init([adv_in, *cfg.adversary_hidden, k_a], seeds[2]),
        privacy_adv=lc.mlp_init([adv_in, *cfg.adversary_hidden, k_p], seeds[3]),
    )


def objective(state: TrainState, batch: Batch, phase: str) -> Forward:
    """Forward pass of the min-max objective on one batch, through ``state``'s nets.

    total = ce_c - alpha * ce_a - beta * ce_p, all with unit class weights,
    with the state's alpha and beta. The adversaries see the features
    concatenated with the one-hot task label: the extractor writes its output
    into the batch's ``adv_in``, and the heads write their logits into the
    step's stacked logits. A zero coefficient's term is +0.0 for a finite
    cross entropy, so total == ce_c bitwise at (0, 0). The pass keeps what
    the backward pass of ``phase`` needs: MAIN's loss is total, ADV's is
    ce_a + ce_p. The phase changes no loss value. One cross-entropy call
    serves all three heads.
    """
    step = state.step_arrays(batch)
    features = batch.adv_in[:, :state.feature_dim]
    lc.forward(step.extractor, batch.x, features)
    lc.forward(step.classifier, features, step.classifier_logits)
    lc.forward(step.adversaries, batch.adv_in, step.adversary_logits)
    (ce_c, ce_a, ce_p), dlogits = lc.encoded_cross_entropy(step.logits, batch.targets,
                                                          state.scales[phase])
    total = ce_c - state.alpha * ce_a - state.beta * ce_p
    return Forward(total, ce_c, ce_a, ce_p, step, dlogits)


def alternating_epoch(state: TrainState, arrays: EpochArrays, shuffle_rng: np.random.Generator,
                      epoch: int = 0) -> float:
    """One pass over the data, alternating parameter groups every other batch.

    MAIN phases update only the extractor and classifier on the full
    objective, backpropagated through the classifier and both adversaries;
    ADV phases update only the adversaries on their own cross entropies.
    Every batch runs a backward pass and an Adam step. ``arrays`` holds the
    training split. Returns the mean objective value across batches.
    """
    arrays.fill(shuffle_rng.permutation(len(arrays.ds)))
    totals = []
    for batch in arrays.batches:
        phase = MAIN if state.batch_count % 2 == 0 else ADV
        fwd = objective(state, batch, phase)
        if not (math.isfinite(fwd.total) and math.isfinite(fwd.ce_a + fwd.ce_p)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}, {phase} phase, "
                f"batch {state.batch_count}")
        lc.backward(fwd.step, fwd.dlogits, phase == MAIN)
        lc.adam_step(state.main if phase == MAIN else state.adv)
        totals.append(fwd.total)
        state.batch_count += 1
    return float(np.mean(totals))


def validation_loss(state: TrainState, batch: Batch) -> float:
    """Selection loss on a split given as one batch: the classifier CE on y. Forward
    only, through the step's arrays for the split's length; runs neither adversary."""
    step = state.step_arrays(batch)
    features = batch.adv_in[:, :state.feature_dim]
    lc.forward(step.extractor, batch.x, features)
    lc.forward(step.classifier, features, step.classifier_logits)
    return lc.encoded_cross_entropy(step.classifier_logits, batch.targets[0])[0]


def train(train_data: LabeledDataset, val_data: LabeledDataset, cfg: TrainConfig, *,
          alpha: float, beta: float, seed: int) -> TrainedModel:
    """Run cfg.epochs alternating epochs; keep the best-validation params, bundled at
    the end. The seed's SeedSequence children 0-3 seed the nets, child 4 the shuffling."""
    check_run_key(alpha, beta, seed)
    cfg.validate()
    seeds = np.random.SeedSequence(seed).spawn(5)
    state = TrainState(build_bundle(cfg, seeds, train_data.dim, train_data.k_y, train_data.k_a,
                                    train_data.k_p), cfg, alpha, beta)
    shuffle_rng = np.random.default_rng(seeds[4])
    arrays = EpochArrays(train_data, state, cfg.batch_size)
    val = EpochArrays(val_data, state, len(val_data))  # one batch, in split order
    val.fill(np.arange(len(val_data)))
    best = (np.empty_like(state.main.params), np.empty_like(state.adv.params))
    best_loss = math.inf
    history = []
    for epoch in range(cfg.epochs):
        mean_total = alternating_epoch(state, arrays, shuffle_rng, epoch=epoch)
        val_loss = validation_loss(state, val.batches[0])
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        history.append((mean_total, val_loss))
        if val_loss < best_loss:
            best_loss = val_loss
            np.copyto(best[0], state.main.params)
            np.copyto(best[1], state.adv.params)
    return TrainedModel(bundle=state.bundle(*best), best_val_loss=best_loss, history=history)
