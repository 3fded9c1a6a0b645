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
from dataclasses import dataclass, field

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


def adversary_nets(bundle: ModelBundle) -> list[Mlp]:
    """The adversary nets training runs, as plain Mlps.

    When k_a == k_p, one net: a copy of the fairness and privacy adversaries
    stacked on a leading head axis of 2, so each layer is one matmul. Else
    the bundle's two adversaries themselves.
    """
    fairness, privacy = bundle.fairness_adv, bundle.privacy_adv
    if fairness.layer_sizes[-1] != privacy.layer_sizes[-1]:
        return [fairness, privacy]
    stacked = [np.stack(p) for p in zip(fairness.params(), privacy.params())]
    return [Mlp(stacked[0::2], stacked[1::2])]


def grad_scales(phase: str | None, alpha: float, beta: float, groups: int) -> list:
    """Per label group (see Batch), the (heads, 1, 1) grad scales of the classifier's and
    the adversaries' CEs in ``phase``: MAIN's (1, -alpha, -beta), ADV's ones."""
    s = np.array((1.0, -alpha, -beta) if phase == MAIN else (1.0, 1.0, 1.0))
    return np.split(s.reshape(3, 1, 1), (1, 2)[:groups - 1]) if phase else [None] * groups


@dataclass
class OptimizerStates:
    """A run's Adam states and the :func:`adversary_nets` it trains."""

    main: AdamState  # extractor + classifier
    adversaries: AdamState  # the params of nets
    nets: list  # the bundle's adversary params are views of theirs
    batch_count: int = 0  # persists across epochs so phases carry over
    scales: dict = field(default_factory=dict)  # grad_scales() by its arguments

    @classmethod
    def for_bundle(cls, bundle: ModelBundle, lr: float) -> "OptimizerStates":
        """Fresh Adam states; the bundle's params become views into their buffers."""
        nets = adversary_nets(bundle)
        main = AdamState([bundle.extractor, bundle.classifier], lr)
        states = cls(main, AdamState(nets, lr), nets)
        if len(nets) == 1:  # the bundle's adversaries become the stack's heads
            for j, net in enumerate((bundle.fairness_adv, bundle.privacy_adv)):
                net.weights = [w[j] for w in nets[0].weights]
                net.biases = [b[j] for b in nets[0].biases]
        return states


@dataclass
class Forward:
    """One pass of the objective.

    ``acts`` holds the activations of the extractor, the classifier and, as
    a list, each of :func:`adversary_nets`, only their outputs outside a
    training phase. ``dlogits`` holds the gradient of the phase's loss at
    the classifier's output and, as a list, at each adversary net's, None
    where the loss does not reach them.
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
    task label. ``targets`` holds one flat gather index per label group, its
    heads stacked, as :func:`learncore.encoded_cross_entropy` takes it: y,
    y_a and y_p as one group when their class counts match, else y alone and
    y_a with y_p when k_a == k_p, else each alone.
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
    ``batch_size``) stay valid. A batch's flat gather index counts from the
    start of its label group's logits for that batch.
    """

    def __init__(self, ds: LabeledDataset, feature_dim: int, batch_size: int):
        n = len(ds)
        self.ds = ds
        self.x = np.empty_like(ds.x)
        self.adv_in = np.zeros((n, feature_dim + ds.k_y))
        self.labels, ks = np.stack((ds.y, ds.y_a, ds.y_p)), (ds.k_y, ds.k_a, ds.k_p)
        self.flat = np.empty_like(self.labels)
        # The (first, end) label rows of each group of Batch.targets.
        self.bounds = (((0, 3),) if ks[0] == ks[1] == ks[2] else ((0, 1), (1, 3)) if ks[1] == ks[2]
                       else ((0, 1), (1, 2), (2, 3)))
        rows = np.arange(n)
        start = rows - rows % batch_size  # of each row's batch
        self.base = np.concatenate([  # each label's flat index, less the label
            (np.arange(hi - lo)[:, None] * np.minimum(n - start, batch_size) + rows - start)
            * ks[lo] for lo, hi in self.bounds])
        self.batches = [self.batch(slice(i, i + batch_size)) for i in range(0, n, batch_size)]

    def batch(self, rows: slice) -> Batch:
        """A batch of views into the buffers."""
        return Batch(self.x[rows], self.adv_in[rows],
                     tuple(self.flat[lo:hi, rows] for lo, hi in self.bounds))

    def fill(self, order: np.ndarray) -> None:
        """Gather the rows in ``order``, a permutation of the split's rows."""
        # No index is out of range, and "clip" spares the buffered copy that
        # take makes with out= under the default "raise".
        np.take(self.ds.x, order, axis=0, out=self.x, mode="clip")
        np.take(self.labels, order, axis=1, out=self.flat, mode="clip")  # the labels, for now
        np.equal(self.flat[0, :, None], np.arange(self.ds.k_y), out=self.adv_in[:, -self.ds.k_y:])
        self.flat += self.base


def whole_batch(ds: LabeledDataset, feature_dim: int) -> Batch:
    """All of ``ds`` in its own order as one batch, for features of that width."""
    arrays = EpochArrays(ds, feature_dim, max(len(ds), 1))
    arrays.fill(np.arange(len(ds)))
    return arrays.batch(slice(None))


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
              phase: str | None = None, states: OptimizerStates | None = None) -> Forward:
    """Forward pass of the min-max objective on one batch.

    total = ce_c - alpha * ce_a - beta * ce_p, all with unit class weights.
    The adversaries see the features concatenated with the one-hot task label.
    When alpha (or beta) is exactly 0 the corresponding term is left out, so
    total == ce_c bitwise at (0, 0). ``phase`` MAIN (loss: total) or ADV
    (loss: ce_a + ce_p) also keeps what that phase's backward pass needs;
    without a phase the pass keeps no activations. The adversaries run as
    the nets of ``states``, the training run's; None runs
    :func:`adversary_nets` of the bundle. One cross-entropy call serves each
    label group of ``batch``. In MAIN the adversary whose coefficient alone
    is 0 has its gradient scaled by -0.0; at (0, 0) none has one.
    """
    if len(batch) == 0:
        raise ValueError("objective over an empty batch")
    nets = states.nets if states else adversary_nets(bundle)
    keep = phase is not None
    ext = bundle.extractor.forward(batch.x, keep)
    features = ext[-1]
    batch.adv_in[:, :features.shape[1]] = features
    cls = bundle.classifier.forward(features, keep)
    adv = [net.forward(batch.adv_in, keep) for net in nets]
    logits = [cls[-1][None]] + [a[-1] if len(nets) == 1 else a[-1][None] for a in adv]
    if len(batch.targets) == 1:
        logits = [np.concatenate(logits)]
    scales = states.scales if states else {}
    key = (phase, alpha, beta, len(logits))
    if key not in scales:
        scales[key] = grad_scales(*key)
    ces, dlogits = [], []
    for z, flat, scale in zip(logits, batch.targets, scales[key]):
        ce, d = lc.encoded_cross_entropy(z, flat, scale)
        ces += ce
        dlogits.append(d)
    ce_c, ce_a, ce_p = ces
    total = ce_c
    if alpha != 0.0:
        total = total - alpha * ce_a
    if beta != 0.0:
        total = total - beta * ce_p
    d_c = dlogits[0][0] if phase == MAIN else None
    d_adv = None
    if phase == ADV or (phase == MAIN and (alpha != 0.0 or beta != 0.0)):
        d_adv = [dlogits[-1][-2:]] if len(nets) == 1 else [d[0] for d in dlogits[1:]]
    return Forward(total, ce_c, ce_a, ce_p, (ext, cls, adv), (d_c, d_adv))


def _backward(bundle: ModelBundle, fwd: Forward, states: OptimizerStates, phase: str) -> None:
    """Gradients of the phase's loss into the buffers of the group it updates.

    MAIN backpropagates through the adversaries and the classifier into the
    extractor, without forming adversary weight gradients. The feature
    gradient is (fairness + privacy) + classifier, in that order, which
    fixes its rounding. ADV stops at the adversaries' first layers: the
    features are frozen for them.
    """
    ext, cls, adv = fwd.acts
    d_c, d_adv = fwd.dlogits
    if phase == ADV:
        lc.backward(list(zip(states.nets, adv, d_adv, states.adversaries.net_grads)))
        return
    heads = list(zip(states.nets, adv, d_adv, (None, None))) if d_adv else []
    heads.append((bundle.classifier, cls, d_c, states.main.net_grads[1]))
    lc.backward(heads, trunk=(bundle.extractor, ext, states.main.net_grads[0]))


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
        fwd = objective(bundle, batch, cfg.alpha, cfg.beta, phase if update else None, states)
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
    return lc.encoded_cross_entropy(logits, val.targets[0][0])[0]  # y is head 0 of its group


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
