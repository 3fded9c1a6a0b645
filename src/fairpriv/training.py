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
from .data import LabeledDataset, one_hot
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
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.switch_period < 1:
            raise ValueError("switch_period must be >= 1")
        if self.batch_size < 1 or self.feature_dim < 1 or self.lr <= 0:
            raise ValueError("batch_size/feature_dim must be >= 1 and lr > 0")
        if self.select_by not in ("classifier-ce", "objective"):
            raise ValueError(f"unknown select_by {self.select_by!r}")


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


def objective(bundle: ModelBundle, batch: LabeledDataset, alpha: float, beta: float,
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
    adv_in = np.hstack([ext[-1], one_hot(batch.y, batch.k_y)])
    acts, ces, dlogits = [ext], [], []
    for net, x, y, scale in ((bundle.classifier, ext[-1], batch.y, scales[0]),
                             (bundle.fairness_adv, adv_in, batch.y_a, scales[1]),
                             (bundle.privacy_adv, adv_in, batch.y_p, scales[2])):
        head = net.forward(x, keep)
        ce, d = lc.softmax_cross_entropy(head[-1], y, grad_scale=scale)
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


def alternating_epoch(bundle: ModelBundle, train_data: LabeledDataset, cfg: TrainConfig,
                      states: OptimizerStates, shuffle_rng: np.random.Generator,
                      update_adversaries: bool = True, epoch: int = 0) -> float:
    """One pass over the data, alternating parameter groups every k batches.

    MAIN phases update only the extractor and classifier on the full
    objective; ADV phases update only the adversaries on their own cross
    entropies. With update_adversaries=False the ADV phases do nothing, which
    turns the schedule into plain risk minimization over the same batches.
    ``states`` must have been built for ``bundle``. Returns the mean
    objective value across batches.
    """
    n = len(train_data)
    if n == 0:
        raise ValueError("empty training set")
    order = shuffle_rng.permutation(n)
    k = cfg.switch_period
    totals = []
    for start in range(0, n, cfg.batch_size):
        batch = train_data.subset(order[start:start + cfg.batch_size])
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


def validation_loss(bundle: ModelBundle, ds: LabeledDataset, cfg: TrainConfig) -> float:
    """Selection loss on a split: classifier CE, or the full objective.

    Forward only; the classifier-CE path runs neither adversary.
    """
    if cfg.select_by == "objective":
        return objective(bundle, ds, cfg.alpha, cfg.beta).total
    logits = bundle.classifier.apply(bundle.extractor.apply(ds.x))
    return lc.softmax_cross_entropy(logits, ds.y)[0]


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
    best_loss = math.inf
    best_bundle = None
    history = []
    for epoch in range(cfg.epochs):
        mean_total = alternating_epoch(bundle, train_data, cfg, states, shuffle_rng,
                                       update_adversaries=update_adversaries, epoch=epoch)
        val_loss = validation_loss(bundle, val_data, cfg)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        history.append((mean_total, val_loss))
        if val_loss < best_loss:
            best_loss = val_loss
            best_bundle = bundle.copy()
    return TrainedModel(bundle=best_bundle, best_val_loss=best_loss, history=history)
