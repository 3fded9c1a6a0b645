"""Min-max training of one (alpha, beta, seed) configuration.

The extractor and classifier minimize the task cross entropy minus
alpha/beta-scaled adversary cross entropies, so the extractor is pushed to
make the sensitive and private attributes hard to read off its features. The
adversaries minimize their own cross entropies against frozen features.
Updates alternate between the two parameter groups every ``switch_period``
batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
    def feature_dim(self) -> int:
        return self.extractor.layer_sizes[-1]

    @property
    def k_y(self) -> int:
        return self.classifier.layer_sizes[-1]

    def main_params(self) -> list[Matrix]:
        return self.extractor.params() + self.classifier.params()

    def adversary_params(self) -> list[Matrix]:
        return self.fairness_adv.params() + self.privacy_adv.params()

    def copy(self) -> "ModelBundle":
        return ModelBundle(self.extractor.copy(), self.classifier.copy(),
                           self.fairness_adv.copy(), self.privacy_adv.copy())


@dataclass
class TrainConfig:
    alpha: float
    beta: float
    seed: int
    epochs: int = 40
    batch_size: int = 64
    lr: float = 1e-3
    feature_dim: int = 8
    extractor_hidden: tuple = (32,)
    adversary_hidden: tuple = (32, 32)
    switch_period: int = 1
    select_by: str = "classifier-ce"  # or "objective"

    def validate(self) -> None:
        """Check every field's type and range; the ValueError names the field."""
        _check_fields(self, ("alpha", "beta"), lambda v: _is_real(v) and v >= 0,
                      "a finite number >= 0")
        _check_fields(self, ("seed",), lambda v: _is_int(v) and v >= 0, "an integer >= 0")
        _check_fields(self, ("epochs", "batch_size", "feature_dim", "switch_period"),
                      lambda v: _is_int(v) and v >= 1, "an integer >= 1")
        _check_fields(self, ("extractor_hidden", "adversary_hidden"),
                      lambda v: (isinstance(v, (list, tuple))
                                 and all(_is_int(w) and w >= 1 for w in v)),
                      "a list of integers >= 1")
        _check_fields(self, ("lr",), lambda v: _is_real(v) and v > 0, "a finite number > 0")
        _check_fields(self, ("select_by",), lambda v: v in ("classifier-ce", "objective"),
                      "'classifier-ce' or 'objective'")


@dataclass
class TrainedModel:
    bundle: ModelBundle  # weights at the best-validation epoch
    best_val_loss: float
    history: list  # per-epoch (mean train objective, val loss)


@dataclass
class OptimizerStates:
    main: AdamState  # extractor + classifier
    adversaries: AdamState  # fairness + privacy adversary
    batch_count: int = 0  # persists across epochs so phases carry over

    @classmethod
    def for_bundle(cls, bundle: ModelBundle, lr: float) -> "OptimizerStates":
        """Fresh Adam states; the bundle's params become views into their buffers."""
        return cls(AdamState([bundle.extractor, bundle.classifier], lr),
                   AdamState([bundle.fairness_adv, bundle.privacy_adv], lr))


@dataclass
class Forward:
    """One pass of the objective.

    ``acts`` holds each net's activations (extractor, classifier, fairness,
    privacy), only their outputs outside a training phase. ``dlogits`` holds
    the gradient of the phase's loss at each head's output (classifier,
    fairness, privacy), None where the loss does not reach the head.
    """

    total: float
    ce_c: float
    ce_a: float
    ce_p: float
    acts: tuple
    dlogits: tuple


@dataclass
class Batch:
    """Rows for one pass of the objective, with their labels pre-encoded.

    ``adv_in`` is the adversaries' input: the pass writes the extractor
    output into its first feature_dim columns, and the rest hold the one-hot
    task label. ``targets`` holds (one-hot rows, flat gather index) for y,
    y_a and y_p, as :func:`learncore.encoded_cross_entropy` takes them.
    """

    x: Matrix
    adv_in: Matrix
    targets: tuple

    def __len__(self) -> int:
        return self.x.shape[0]


class EpochArrays:
    """A split's rows in one order, encoded once, and its batches as views.

    Built once per split; :meth:`fill` gathers the rows in a new order into
    the same buffers, so ``batches`` (contiguous row slices of
    ``batch_size``) stay valid. A batch's flat gather index counts rows from
    the start of its batch. With ``shuffled`` False the rows keep the
    split's order, ``x`` is the split's own matrix, and the labels are
    encoded at once; such arrays must not be filled (see :func:`whole_batch`).
    """

    def __init__(self, ds: LabeledDataset, feature_dim: int, batch_size: int,
                 shuffled: bool = True):
        n = len(ds)
        self.ds = ds
        self.x = np.empty_like(ds.x) if shuffled else ds.x
        self.adv_in = np.zeros((n, feature_dim + ds.k_y))
        in_batch = np.arange(n) % batch_size
        bases = {}
        self.targets = []  # (one-hot rows, flat index, row-in-batch * k) per label
        for onehot in (self.adv_in[:, feature_dim:], np.zeros((n, ds.k_a)),
                       np.zeros((n, ds.k_p))):
            k = onehot.shape[1]
            if k not in bases:
                bases[k] = in_batch * k
            self.targets.append((onehot, np.empty(n, dtype=np.int64), bases[k]))
        self.batches = [self.batch(slice(i, i + batch_size)) for i in range(0, n, batch_size)]
        if not shuffled:
            self._encode_labels(np.arange(n))

    def batch(self, rows: slice) -> Batch:
        """A batch of views into the buffers."""
        return Batch(self.x[rows], self.adv_in[rows],
                     tuple((onehot[rows], flat[rows]) for onehot, flat, _ in self.targets))

    def fill(self, order: np.ndarray) -> None:
        """Gather the rows in ``order``, a permutation of the split's rows."""
        # No index is out of range, and "clip" spares the buffered copy that
        # take makes with out= under the default "raise".
        np.take(self.ds.x, order, axis=0, out=self.x, mode="clip")
        self._encode_labels(order)

    def _encode_labels(self, order: np.ndarray) -> None:
        rows = np.arange(len(order))
        for src, (onehot, flat, base) in zip((self.ds.y, self.ds.y_a, self.ds.y_p),
                                             self.targets):
            np.take(src, order, out=flat, mode="clip")  # the labels, for now
            onehot[...] = 0.0
            onehot[rows, flat] = 1.0
            flat += base


def whole_batch(ds: LabeledDataset, feature_dim: int) -> Batch:
    """All of ``ds`` in its own order as one batch, for features of that width."""
    return EpochArrays(ds, feature_dim, max(len(ds), 1), shuffled=False).batch(slice(None))


def build_bundle(cfg: TrainConfig, input_dim: int, k_y: int, k_a: int, k_p: int) -> ModelBundle:
    """Seeded networks; the classifier is a linear head on the features."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(5)
    adv_in = cfg.feature_dim + k_y
    return ModelBundle(
        extractor=lc.mlp_init([input_dim, *cfg.extractor_hidden, cfg.feature_dim], seeds[0]),
        classifier=lc.mlp_init([cfg.feature_dim, k_y], seeds[1]),
        fairness_adv=lc.mlp_init([adv_in, *cfg.adversary_hidden, k_a], seeds[2]),
        privacy_adv=lc.mlp_init([adv_in, *cfg.adversary_hidden, k_p], seeds[3]),
    )


def shuffle_seed(cfg: TrainConfig) -> np.random.SeedSequence:
    return np.random.SeedSequence(cfg.seed).spawn(5)[4]


def objective(bundle: ModelBundle, batch: Batch, alpha: float, beta: float,
              phase: str | None = None) -> Forward:
    """Forward pass of the min-max objective on one batch.

    total = ce_c - alpha * ce_a - beta * ce_p, all with unit class weights.
    The adversaries see the features concatenated with the one-hot task label.
    When alpha (or beta) is exactly 0 the corresponding term is left out, so
    total == ce_c bitwise at (0, 0). ``phase`` MAIN (loss: total) or ADV
    (loss: ce_a + ce_p) also keeps what that phase's backward pass needs;
    without a phase the pass keeps no activations.
    """
    if len(batch) == 0:
        raise ValueError("objective over an empty batch")
    if phase == MAIN:
        scales = (1.0, -alpha if alpha != 0.0 else None, -beta if beta != 0.0 else None)
    elif phase == ADV:
        scales = (None, 1.0, 1.0)
    else:
        scales = (None, None, None)
    keep = phase is not None
    ext = bundle.extractor.forward(batch.x, keep)
    features = ext[-1]
    batch.adv_in[:, :features.shape[1]] = features
    acts, ces, dlogits = [ext], [], []
    for net, x, (onehot, flat), scale in (
            (bundle.classifier, features, batch.targets[0], scales[0]),
            (bundle.fairness_adv, batch.adv_in, batch.targets[1], scales[1]),
            (bundle.privacy_adv, batch.adv_in, batch.targets[2], scales[2])):
        head = net.forward(x, keep)
        ce, d = lc.encoded_cross_entropy(head[-1], onehot, flat, grad_scale=scale)
        acts.append(head)
        ces.append(ce)
        dlogits.append(d)
    ce_c, ce_a, ce_p = ces
    total = ce_c
    if alpha != 0.0:
        total = total - alpha * ce_a
    if beta != 0.0:
        total = total - beta * ce_p
    return Forward(total, ce_c, ce_a, ce_p, tuple(acts), tuple(dlogits))


def _backward(bundle: ModelBundle, fwd: Forward, states: OptimizerStates, phase: str) -> None:
    """Gradients of the phase's loss into the buffers of the group it updates.

    MAIN backpropagates through the adversaries and the classifier into the
    extractor, without forming adversary weight gradients. The feature
    gradient is (adversaries' sum) + classifier's, in that order, which fixes
    its rounding. ADV stops at the adversaries' first layers: the features
    are frozen for them.
    """
    ext, cls, fair, priv = fwd.acts
    d_c, d_a, d_p = fwd.dlogits
    if phase == MAIN:
        heads = [(net, acts, d, None)
                 for net, acts, d in ((bundle.privacy_adv, priv, d_p),
                                      (bundle.fairness_adv, fair, d_a)) if d is not None]
        heads.append((bundle.classifier, cls, d_c, states.main.net_grads[1]))
        lc.backward(heads, trunk=(bundle.extractor, ext, states.main.net_grads[0]))
    else:
        grads_a, grads_p = states.adversaries.net_grads
        lc.backward([(bundle.fairness_adv, fair, d_a, grads_a),
                     (bundle.privacy_adv, priv, d_p, grads_p)])


def alternating_epoch(bundle: ModelBundle, arrays: EpochArrays, cfg: TrainConfig,
                      states: OptimizerStates, shuffle_rng: np.random.Generator,
                      update_adversaries: bool = True, epoch: int = 0) -> float:
    """One pass over the data, alternating parameter groups every k batches.

    MAIN phases update only the extractor and classifier on the full
    objective; ADV phases update only the adversaries on their own cross
    entropies. With update_adversaries=False the ADV phases do nothing, which
    turns the schedule into plain risk minimization over the same batches.
    ``states`` must have been built for ``bundle``, and ``arrays`` for the
    training split with cfg's batch size. Returns the mean objective value
    across batches.
    """
    n = len(arrays.ds)
    if n == 0:
        raise ValueError("empty training set")
    arrays.fill(shuffle_rng.permutation(n))
    k = cfg.switch_period
    totals = []
    for batch in arrays.batches:
        phase = MAIN if (states.batch_count // k) % 2 == 0 else ADV
        update = phase == MAIN or update_adversaries
        fwd = objective(bundle, batch, cfg.alpha, cfg.beta, phase if update else None)
        if not (math.isfinite(fwd.total) and math.isfinite(fwd.ce_a + fwd.ce_p)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}, {phase} phase, "
                f"batch {states.batch_count}")
        if update:
            _backward(bundle, fwd, states, phase)
            lc.adam_step(states.main if phase == MAIN else states.adversaries)
        totals.append(fwd.total)
        states.batch_count += 1
    return float(np.mean(totals))


def validation_loss(bundle: ModelBundle, val: Batch, cfg: TrainConfig) -> float:
    """Selection loss on a split: classifier CE, or the full objective.

    Forward only; the classifier-CE path runs neither adversary.
    """
    if cfg.select_by == "objective":
        return objective(bundle, val, cfg.alpha, cfg.beta).total
    logits = bundle.classifier.apply(bundle.extractor.apply(val.x))
    return lc.encoded_cross_entropy(logits, *val.targets[0])[0]


def train(train_data: LabeledDataset, val_data: LabeledDataset, cfg: TrainConfig,
          update_adversaries: bool = True) -> TrainedModel:
    """Run cfg.epochs alternating epochs; keep the best-validation snapshot."""
    cfg.validate()
    if len(train_data) == 0 or len(val_data) == 0:
        raise ValueError("train and validation splits must be nonempty")
    bundle = build_bundle(cfg, train_data.dim, train_data.k_y, train_data.k_a,
                          train_data.k_p)
    states = OptimizerStates.for_bundle(bundle, cfg.lr)
    shuffle_rng = np.random.default_rng(shuffle_seed(cfg))
    arrays = EpochArrays(train_data, cfg.feature_dim, cfg.batch_size)
    val = whole_batch(val_data, cfg.feature_dim)
    best_loss = math.inf
    best_bundle = None
    history = []
    for epoch in range(cfg.epochs):
        mean_total = alternating_epoch(bundle, arrays, cfg, states, shuffle_rng,
                                       update_adversaries=update_adversaries, epoch=epoch)
        val_loss = validation_loss(bundle, val, cfg)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        history.append((mean_total, val_loss))
        if val_loss < best_loss:
            best_loss = val_loss
            best_bundle = bundle.copy()
    return TrainedModel(bundle=best_bundle, best_val_loss=best_loss, history=history)
