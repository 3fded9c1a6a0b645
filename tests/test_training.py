import contextlib
import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import (MAIN_NETS, NETS, adversary_free, bundle_params, host_note,
                      oracle_mlp_apply, oracle_mlp_forward, reference_config, training_nets)
from fairpriv import learncore as lc
from fairpriv import training
from fairpriv.data import LabeledDataset, SyntheticSpec, generate
from fairpriv.learncore import Mlp, ShapeError
from fairpriv.training import (ADV, MAIN, EpochArrays, ModelBundle, TrainConfig,
                               TrainedModel, TrainingDivergedError, TrainState,
                               alternating_epoch, build_bundle, objective, train)


def toy_dataset(n=200, seed=0, d=6):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.standard_normal((n, d)), rng.integers(0, 2, n),
                          rng.integers(0, 2, n), rng.integers(0, 2, n), 2, 2, 2)


def small_cfg(**kw):
    defaults = dict(epochs=3, batch_size=32, feature_dim=4,
                    extractor_hidden=(8,), adversary_hidden=(8, 8))
    defaults.update(kw)
    return TrainConfig(**defaults)


def init_bundle(cfg, input_dim, ks=(2, 2, 2), seed=0):
    """The nets ``train`` starts a ``seed`` run from, for class counts ``ks``."""
    return build_bundle(cfg, np.random.SeedSequence(seed).spawn(5), input_dim, *ks)


def whole_batch(ds, state):
    """All of ``ds`` in its own order as one batch, encoded for ``state``'s nets."""
    arrays = EpochArrays(ds, state, len(ds))
    arrays.fill(np.arange(len(ds)))
    return arrays.batch(slice(None))


def snapshot(params):
    return [p.copy() for p in params]


def unchanged(params, before):
    return all(np.array_equal(p, b) for p, b in zip(params, before))


def best_buffers(state):
    """The best-epoch snapshot as train takes it: both Adam groups' params copied into buffers."""
    best = (np.empty_like(state.main.params), np.empty_like(state.adv.params))
    np.copyto(best[0], state.main.params)
    np.copyto(best[1], state.adv.params)
    return best


class TestObjective:
    def test_zero_coefficients_reduce_to_task_ce(self):
        ds = toy_dataset()
        bundle = init_bundle(small_cfg(), ds.dim)
        state = TrainState(bundle, small_cfg(), 0.0, 0.0)
        fwd = objective(state, whole_batch(ds, state), MAIN)
        assert fwd.total.hex() == fwd.ce_c.hex()  # not merely close: the same value

    def test_linear_combination(self):
        # Zeroed networks emit uniform logits, so all three CE terms equal ln 2
        # and the total collapses to ln2 * (1 - alpha - beta).
        ds = toy_dataset()
        bundle = init_bundle(small_cfg(), ds.dim)
        for net in (bundle.extractor, bundle.classifier, bundle.fairness_adv,
                    bundle.privacy_adv):
            for p in net.params():
                p[:] = 0.0
        for alpha, beta in [(0.5, 0.25), (2.0, 3.0), (0.0, 1.0)]:
            state = TrainState(bundle, small_cfg(), alpha, beta)
            fwd = objective(state, whole_batch(ds, state), MAIN)
            assert fwd.ce_c == pytest.approx(math.log(2), abs=1e-12)
            assert fwd.total == pytest.approx(
                math.log(2) * (1 - alpha - beta), abs=1e-9)

    def test_decomposition_identity(self):
        ds = toy_dataset(seed=3)
        bundle = init_bundle(small_cfg(), ds.dim, seed=5)
        for alpha, beta in [(0.0, 0.0), (0.01, 10.0), (4.2, 0.3)]:
            state = TrainState(bundle, small_cfg(), alpha, beta)
            fwd = objective(state, whole_batch(ds, state), MAIN)
            expected = fwd.ce_c - alpha * fwd.ce_a - beta * fwd.ce_p
            assert fwd.total == pytest.approx(expected, abs=1e-12)

    def test_fresh_bundle_near_uniform(self):
        # Low-magnitude inputs keep every head's logits near zero, so each
        # cross entropy sits close to the uniform-prediction value ln 2.
        rng = np.random.default_rng(4)
        ds = LabeledDataset(0.1 * rng.standard_normal((512, 6)),
                            rng.integers(0, 2, 512), rng.integers(0, 2, 512),
                            rng.integers(0, 2, 512), 2, 2, 2)
        cfg = TrainConfig()  # default-sized networks
        bundle = init_bundle(cfg, ds.dim, seed=6)
        state = TrainState(bundle, cfg, 1.0, 1.0)
        fwd = objective(state, whole_batch(ds, state), MAIN)
        for ce in (fwd.ce_c, fwd.ce_a, fwd.ce_p):
            assert abs(ce - math.log(2)) < 0.15

    @pytest.mark.parametrize("input_dim, ks, match", [
        (5, (3, 2, 2), "^dim: the split has 6, the nets 5$"),
        # Encoded for its own K of 3, this split once read ce_c 1.93 and ce_a inf
        # through nets with K = 4, and raised nothing.
        (6, (3, 2, 4), "^k_p: the split has 2, the nets 4$")], ids=["dim", "k_p"])
    def test_split_of_other_shape_rejected_when_encoded(self, input_dim, ks, match):
        state = TrainState(init_bundle(small_cfg(), input_dim, ks), small_cfg(), 1.0, 1.0)
        with pytest.raises(ValueError, match=match):
            whole_batch(mixed_dataset((3, 2, 2), 2), state)

    def test_batch_encoded_for_other_nets_rejected(self):
        # These rows, encoded for (3, 2, 2) nets (K = 3), once gave both functions
        # an inf loss through (3, 2, 4) nets (K = 4) and raised nothing: their
        # flat targets counted from the wrong K.
        rows = mixed_dataset((3, 2, 2), 6)
        state = TrainState(init_bundle(small_cfg(), 6, (3, 2, 4)), small_cfg(), 1.0, 1.0)
        other = TrainState(init_bundle(small_cfg(), 6, (3, 2, 2)), small_cfg(), 1.0, 1.0)
        right = whole_batch(dataclasses.replace(rows, k_p=4), state)
        assert training.validation_loss(state, right) == pytest.approx(2.0402, abs=1e-4)
        wrong = whole_batch(rows, other)
        for run in (lambda: training.validation_loss(state, wrong),
                    lambda: objective(state, wrong, MAIN)):
            with pytest.raises(ValueError, match="^batch encoded for K = 3, the nets have K = 4$"):
                run()

    def test_empty_batch_rejected(self):
        ds = toy_dataset().subset([])
        state = TrainState(init_bundle(small_cfg(), 6), small_cfg(), 0.0, 0.0)
        with pytest.raises(ValueError, match="empty"):
            objective(state, whole_batch(ds, state), MAIN)


class TestAlternatingEpoch:
    def _run_one_epoch(self, state, data, cfg):
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(5)[4])  # train's, at seed 0
        arrays = EpochArrays(data, state, cfg.batch_size)
        return alternating_epoch(state, arrays, rng)

    def test_main_phase_leaves_adversaries(self):
        # One batch per epoch: the first epoch is purely a MAIN phase.
        ds = toy_dataset(n=32)
        cfg = small_cfg(batch_size=32)
        state = TrainState(init_bundle(cfg, ds.dim), cfg, 0.0, 0.0)
        adv_before, main_before = state.adv.params.copy(), state.main.params.copy()
        self._run_one_epoch(state, ds, cfg)
        assert np.array_equal(state.adv.params, adv_before)
        assert not np.array_equal(state.main.params, main_before)

    def test_adv_phase_leaves_main(self):
        ds = toy_dataset(n=32)
        cfg = small_cfg(batch_size=32)
        state = TrainState(init_bundle(cfg, ds.dim), cfg, 0.0, 0.0)
        self._run_one_epoch(state, ds, cfg)  # MAIN
        adv_before, main_before = state.adv.params.copy(), state.main.params.copy()
        self._run_one_epoch(state, ds, cfg)  # ADV (counter carried over)
        assert np.array_equal(state.main.params, main_before)
        assert not np.array_equal(state.adv.params, adv_before)

    def test_empty_training_set(self):
        ds = toy_dataset().subset([])
        cfg = small_cfg()
        state = TrainState(init_bundle(cfg, 6), cfg, 0.0, 0.0)
        with pytest.raises(ValueError, match="empty"):
            self._run_one_epoch(state, ds, cfg)


class TestTrain:
    def test_zero_epochs_rejected(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="epochs"):
            train(ds, ds, small_cfg(epochs=0), alpha=0.0, beta=0.0, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("alpha", -0.5), ("alpha", float("nan")), ("alpha", "1"), ("beta", float("inf")),
        ("beta", True), ("seed", -1), ("seed", 1.5), ("seed", True), ("epochs", 2.5),
        ("batch_size", 0), ("lr", "0.001"), ("lr", 0.0), ("feature_dim", 2.0),
        ("extractor_hidden", (0,)), ("adversary_hidden", (8, "8")),
        ("adversary_hidden", 8),
    ])
    def test_bad_field_rejected_before_any_network(self, monkeypatch, field, value):
        # A library call gets the same checks as a loaded config and a CLI run key.
        monkeypatch.setattr(training, "build_bundle",
                            lambda *a: pytest.fail("built a network for a bad config"))
        ds = toy_dataset()
        key, cfg = dict(alpha=0.0, beta=0.0, seed=0), small_cfg()
        if field in key:
            key[field] = value
        else:
            cfg = small_cfg(**{field: value})
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            train(ds, ds, cfg, **key)

    def test_deterministic(self):
        ds = toy_dataset(n=160, seed=8)
        tr, va = ds.subset(np.arange(128)), ds.subset(np.arange(128, 160))
        cfg, key = small_cfg(epochs=4), dict(alpha=0.5, beta=0.5, seed=9)
        a, b = train(tr, va, cfg, **key), train(tr, va, cfg, **key)
        assert a.best_val_loss == b.best_val_loss
        assert a.history == b.history
        for pa, pb in zip(bundle_params(a.bundle, MAIN_NETS), bundle_params(b.bundle, MAIN_NETS)):
            assert np.array_equal(pa, pb)

    def test_erm_reduction_bitwise(self):
        ds = toy_dataset(n=200, seed=10)
        tr, va = ds.subset(np.arange(160)), ds.subset(np.arange(160, 200))
        cfg, key = small_cfg(epochs=5), dict(alpha=0.0, beta=0.0, seed=11)
        full = train(tr, va, cfg, **key)
        with adversary_free():
            erm = train(tr, va, cfg, **key)
        for pa, pb in zip(bundle_params(full.bundle, MAIN_NETS),
                          bundle_params(erm.bundle, MAIN_NETS)):
            assert np.array_equal(pa, pb)
        assert full.best_val_loss == erm.best_val_loss

    def test_separable_data_learns(self):
        ds = generate(SyntheticSpec(n=2000, mu_y=4.0, joint=np.full((2, 2, 2), 0.125),
                                    seed=12))
        tr, va = ds.subset(np.arange(1600)), ds.subset(np.arange(1600, 2000))
        cfg = small_cfg(epochs=20, feature_dim=6, extractor_hidden=(16,))
        trained = train(tr, va, cfg, alpha=0.0, beta=0.0, seed=13)
        feats = trained.bundle.extractor.apply(va.x)
        preds = np.argmax(trained.bundle.classifier.apply(feats), axis=1)
        assert np.mean(preds == va.y) > 0.9

    def test_best_val_loss_is_history_min(self):
        ds = toy_dataset(n=160, seed=14)
        tr, va = ds.subset(np.arange(128)), ds.subset(np.arange(128, 160))
        trained = train(tr, va, small_cfg(epochs=6), alpha=0.0, beta=0.0, seed=15)
        assert trained.best_val_loss == min(v for _, v in trained.history)

    def test_adversarial_pressure_raises_adversary_ce(self):
        # High-leakage sensitive attribute: with alpha=10 the extractor should
        # hide it, leaving the fairness adversary worse off than at baseline.
        ds = generate(SyntheticSpec(n=2000, mu_a=4.0, joint=np.full((2, 2, 2), 0.125),
                                    seed=16))
        tr, va = ds.subset(np.arange(1600)), ds.subset(np.arange(1600, 2000))
        ce_a = {}
        for alpha in (0.0, 10.0):
            cfg = small_cfg(epochs=12, feature_dim=6, extractor_hidden=(16,))
            trained = train(tr, va, cfg, alpha=alpha, beta=0.0, seed=17)
            state = TrainState(trained.bundle, cfg, alpha, 0.0)
            ce_a[alpha] = objective(state, whole_batch(va, state), MAIN).ce_a
        assert ce_a[10.0] > ce_a[0.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_names_epoch(self):
        ds = toy_dataset(n=64, seed=18)
        cfg = small_cfg(epochs=3, lr=1e200)  # overflow to inf-inf = nan
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(ds, ds, cfg, alpha=0.0, beta=0.0, seed=19)

    def test_nonempty_splits_required(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="empty"):
            train(ds.subset([]), ds, small_cfg(), alpha=0.0, beta=0.0, seed=0)

    @pytest.mark.parametrize("field, val_ks, val_dim", [
        ("k_p", (3, 2, 4), 6),  # no width differs: only the class-count check catches it
        ("k_y", (2, 2, 2), 6), ("k_a", (3, 3, 2), 6), ("dim", (3, 2, 2), 5)])
    def test_validation_split_must_match_the_training_split(self, field, val_ks, val_dim):
        tr = mixed_dataset((3, 2, 2), 64)
        va = LabeledDataset(np.random.default_rng(1).standard_normal((2, val_dim)),
                            *(np.arange(2),) * 3, *val_ks)
        with pytest.raises(ValueError, match=f"^{field}: the split has {getattr(va, field)}, "
                                             f"the nets {getattr(tr, field)}$"):
            train(tr, va, small_cfg(), alpha=1.0, beta=1.0, seed=0)


class TestModelBundle:
    def test_adversary_width_checked(self):
        bundle = init_bundle(small_cfg(), 6)
        narrow = init_bundle(small_cfg(feature_dim=5), 6).fairness_adv
        with pytest.raises(ValueError, match="adversary"):
            ModelBundle(extractor=bundle.extractor, classifier=bundle.classifier,
                        fairness_adv=narrow, privacy_adv=bundle.privacy_adv)


def mixed_dataset(ks, n):
    """Random rows whose labels have the class counts ``ks`` = (k_y, k_a, k_p)."""
    rng = np.random.default_rng(0)
    return LabeledDataset(rng.standard_normal((n, 6)),
                          *(rng.integers(0, k, n) for k in ks), *ks)


class TestTrainState:
    """Training runs every class-count combination in one layout: the
    classifier and the adversaries padded to K = max(k_y, k_a, k_p) output
    columns, the adversaries stacked on a head axis of 2."""

    @pytest.mark.parametrize("ks", [(2, 2, 2), (3, 3, 3), (2, 3, 2), (3, 2, 2), (2, 2, 3),
                                    (4, 7, 5)])
    def test_padded_copies(self, ks):
        bundle = init_bundle(small_cfg(), 6, ks)
        state = TrainState(bundle, small_cfg(), 0.0, 0.0)
        _, classifier, adversaries = training_nets(state)
        heads = ((classifier, ()), (adversaries, 0), (adversaries, 1))
        for (padded, j), net, k in zip(heads, (bundle.classifier, bundle.fairness_adv,
                                               bundle.privacy_adv), ks):
            *hidden, w, b = [p[j] for p in padded.params()]
            assert w.shape[1] == max(ks)
            assert all(np.array_equal(p, q)
                       for p, q in zip(hidden + [w[:, :k], b[:, :k]], net.params()))
            assert np.all(w[:, k:] == 0.0) and np.all(b[:, k:] == -np.inf)

    def test_builds_no_net_until_a_bundle_is_cut(self, monkeypatch):
        # The Adam buffers are the only home of the training params.
        bundle = init_bundle(small_cfg(), 6)

        def built(*args):
            pytest.fail("built an Mlp")

        monkeypatch.setattr(lc, "Mlp", built)
        monkeypatch.setattr(training, "Mlp", built)
        state = TrainState(bundle, small_cfg(), 1.0, 1.0)
        objective(state, whole_batch(toy_dataset(), state), MAIN)

    @pytest.mark.parametrize("ks", [(2, 3, 2), (3, 2, 2), (2, 2, 3)])
    def test_padding_stays_put_while_real_params_move(self, ks):
        ds = mixed_dataset(ks, 64)
        cfg = small_cfg(batch_size=32)  # 2 batches: MAIN, then ADV
        state = TrainState(init_bundle(cfg, ds.dim, ks), cfg, 1.0, 1.0)
        extractor, classifier, adversaries = training_nets(state)
        assert all(np.shares_memory(p, state.main.params)
                   for p in extractor.params() + classifier.params())
        assert all(np.shares_memory(p, state.adv.params) for p in adversaries.params())
        before = state.bundle(*best_buffers(state))
        alternating_epoch(state, EpochArrays(ds, state, cfg.batch_size),
                          np.random.default_rng(1))
        assert state.main.step == state.adv.step == 1
        after = state.bundle(*best_buffers(state))
        assert [p.shape for p in bundle_params(after)] == [
            p.shape for p in bundle_params(before)]
        assert not any(np.array_equal(p, b) for p, b in zip(
            bundle_params(after), bundle_params(before)))
        padded = [(classifier.weights[-1], classifier.biases[-1], ks[0])] + [
            (adversaries.weights[-1][j], adversaries.biases[-1][j], k)
            for j, k in enumerate(ks[1:])]
        for w, b, k in padded:
            assert np.all(w[:, k:] == 0.0) and not np.any(np.signbit(w[:, k:]))
            assert np.all(b[:, k:] == -np.inf)

    @pytest.mark.parametrize("ks", [(2, 2, 2), (4, 7, 5)])
    def test_snapshot_and_source_stay_put_while_the_state_trains(self, ks):
        ds = mixed_dataset(ks, 64)
        cfg = small_cfg(batch_size=32)  # 2 batches: MAIN, then ADV
        source = init_bundle(cfg, ds.dim, ks)
        source_before = snapshot(bundle_params(source))
        state = TrainState(source, cfg, 1.0, 1.0)
        best = best_buffers(state)
        best_before = snapshot(best)
        snap = state.bundle(*best)
        snap_before = snapshot(bundle_params(snap))
        assert unchanged(snap_before, source_before)
        alternating_epoch(state, EpochArrays(ds, state, cfg.batch_size),
                          np.random.default_rng(1))
        assert state.main.step == state.adv.step == 1
        assert unchanged(bundle_params(source), source_before)
        assert unchanged(best, best_before)
        assert unchanged(bundle_params(snap), snap_before)
        # The bundle reads the buffers it is given, not the nets as they are now.
        assert unchanged(bundle_params(state.bundle(*best)), snap_before)
        moved = state.bundle(*best_buffers(state))
        main = bundle_params(moved, MAIN_NETS)
        assert not unchanged(main, snap_before[:len(main)])
        assert not unchanged(bundle_params(moved, NETS[2:]), snap_before[len(main):])


class TestCrossEntropyCalls:
    """One cross-entropy call per training step, on the three heads' (3, n, K) logits."""

    @pytest.mark.parametrize("ks", [(2, 2, 2), (3, 3, 3), (3, 2, 2), (2, 3, 2), (2, 2, 3),
                                    (3, 3, 2)])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)])
    def test_one_call_per_step(self, monkeypatch, ks, alpha, beta):
        ds = mixed_dataset(ks, 96)
        cfg = small_cfg()  # 3 batches of 32: MAIN, ADV, MAIN
        state = TrainState(init_bundle(cfg, ds.dim, ks), cfg, alpha, beta)
        arrays = EpochArrays(ds, state, cfg.batch_size)
        real, shapes = training.lc.encoded_cross_entropy, []

        def counted(*args):
            shapes.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(training.lc, "encoded_cross_entropy", counted)
        alternating_epoch(state, arrays, np.random.default_rng(1))
        assert shapes == [(3, 32, max(ks))] * 3


class TestMainStepHeads:
    """Which heads a MAIN step backpropagates: both, at every (alpha, beta), (0, 0) included."""

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                             ids=["zero", "alpha", "beta"])
    def test_heads_backpropagated(self, monkeypatch, alpha, beta):
        ds = toy_dataset(n=32)
        cfg = small_cfg(batch_size=32)  # one batch: a MAIN step
        state = TrainState(init_bundle(cfg, ds.dim), cfg, alpha, beta)
        real, calls = training.lc.backward, []

        def spy(step, dlogits, main):
            # NaN in every array the pass may write: those it wrote are finite.
            adversaries = [grad for *_, grad in step.adversaries.back]
            for a in [state.main.grads, state.adv.grads, *adversaries]:
                a[...] = np.nan
            real(step, dlogits, main)
            written = [name for name, arrays in (("adversaries", adversaries),
                                                 ("classifier", state.main.net_grads[1]))
                       if all(np.isfinite(a).all() for a in arrays)]
            calls.append((main, written, np.isfinite(state.main.net_grads[0][0]).all(),
                          np.isnan(state.adv.grads).all()))

        monkeypatch.setattr(training.lc, "backward", spy)
        alternating_epoch(state, EpochArrays(ds, state, cfg.batch_size),
                          np.random.default_rng(0))
        # A MAIN step: the extractor's param gradients, no adversary param gradient.
        assert calls == [(True, ["adversaries", "classifier"], True, True)]


class OracleState(TrainState):
    """A TrainState that also holds its three training nets as Mlps over its Adam
    buffers, the attributes the oracles below read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.extractor, self.classifier, self.adversaries = training_nets(self)


# ---------------------------------------------------------------------------
# The per-step path that the planned training step replaced, kept verbatim as
# its oracle: Mlp.forward (conftest's oracle_mlp_forward) and Mlp.backward (as
# functions of the net), learncore.backward, training.objective and
# training._backward.


@dataclass
class OracleForward:
    total: float
    ce_c: float
    ce_a: float
    ce_p: float
    acts: tuple
    dlogits: np.ndarray


def oracle_mlp_backward(self, acts, grad_out, grads=None, input_grad=True):
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


def oracle_lc_backward(heads, trunk=None):
    """One step's backward pass through head nets and the trunk that feeds them."""
    width = trunk[0].layer_sizes[-1] if trunk is not None else 0
    g_trunk = None
    for net, acts, grad_out, grads in heads:
        g_in = oracle_mlp_backward(net, acts, grad_out, grads, input_grad=trunk is not None)
        if trunk is not None:
            g_in = g_in[..., :width]
            if g_in.ndim == 3:
                g_in = g_in.sum(axis=0)
            g_trunk = g_in if g_trunk is None else g_trunk + g_in
    if trunk is not None:
        net, acts, grads = trunk
        oracle_mlp_backward(net, acts, g_trunk, grads, input_grad=False)


def oracle_objective(state, batch, phase):
    """Forward pass of the min-max objective on one batch, through ``state``'s nets."""
    if len(batch) == 0:
        raise ValueError("objective over an empty batch")
    ext = oracle_mlp_forward(state.extractor, batch.x)
    features = ext[-1]
    batch.adv_in[:, :features.shape[1]] = features
    cls = oracle_mlp_forward(state.classifier, features)
    adv = oracle_mlp_forward(state.adversaries, batch.adv_in)
    (ce_c, ce_a, ce_p), dlogits = lc.encoded_cross_entropy(
        np.concatenate((cls[-1][None], adv[-1])), batch.targets, state.scales[phase])
    total = ce_c - state.alpha * ce_a - state.beta * ce_p
    return OracleForward(total, ce_c, ce_a, ce_p, (ext, cls, adv), dlogits)


def oracle_backward(state, fwd, phase):
    """Gradients of the phase's loss into the buffers of the group it updates."""
    ext, cls, adv = fwd.acts
    if phase == ADV:
        oracle_lc_backward([(state.adversaries, adv, fwd.dlogits[1:], state.adv.net_grads[0])])
        return
    heads = [(state.adversaries, adv, fwd.dlogits[1:], None)] if state.alpha or state.beta else []
    heads.append((state.classifier, cls, fwd.dlogits[0], state.main.net_grads[1]))
    oracle_lc_backward(heads, trunk=(state.extractor, ext, state.main.net_grads[0]))


def adam_bytes(state):
    """Both Adam states' params, m and v."""
    return [a.tobytes() for group in (state.main, state.adv)
            for a in (group.params, group.m, group.v)]


def losses(fwd):
    return [v.hex() for v in (fwd.total, fwd.ce_c, fwd.ce_a, fwd.ce_p)]


def planned_step(state, batch):
    """One step of alternating_epoch on ``batch``, through the planned step; its losses."""
    phase = MAIN if state.batch_count % 2 == 0 else ADV
    fwd = objective(state, batch, phase)
    lc.backward(fwd.step, fwd.dlogits, phase == MAIN)
    lc.adam_step(state.main if phase == MAIN else state.adv)
    state.batch_count += 1
    return losses(fwd)


class TestStepMatchesOracle:
    """After every step of two epochs, the planned step's losses and both Adam
    states' params, m and v are the oracle's, byte for byte."""

    @pytest.mark.parametrize("n", [45, 33], ids=["last batch 13 rows", "last batch 1 row"])
    @pytest.mark.parametrize("adversary_hidden", [(8,), (32, 32), (8, 8, 8)])
    @pytest.mark.parametrize("extractor_hidden", [(), (32,), (16, 16)])
    @pytest.mark.parametrize("ks", [(2, 2, 2), (2, 3, 2), (2, 10, 6)])
    @pytest.mark.parametrize("alpha, beta, update_adversaries", [
        (0.0, 0.0, True), (0.1, 0.0, True), (0.0, 10.0, True), (10.0, 10.0, True),
        (10.0, 10.0, False)])
    def test_two_epochs_match_oracle(self, alpha, beta, update_adversaries, ks,
                                     extractor_hidden, adversary_hidden, n):
        ds = mixed_dataset(ks, n)
        cfg = small_cfg(epochs=2, batch_size=16, extractor_hidden=extractor_hidden,
                        adversary_hidden=adversary_hidden)
        bundle = init_bundle(cfg, ds.dim, ks)
        new, old, whole = states = [make(bundle, cfg, alpha, beta)
                                    for make in (TrainState, OracleState, TrainState)]
        arrays = [EpochArrays(ds, state, cfg.batch_size) for state in states]
        rng, whole_rng = np.random.default_rng(5), np.random.default_rng(5)
        # Without adversary updates: adversary-free ERM against the oracle's skipped ADV steps.
        with contextlib.nullcontext() if update_adversaries else adversary_free():
            for epoch in range(cfg.epochs):
                order = rng.permutation(n)
                arrays[0].fill(order)
                arrays[1].fill(order)
                for b_new, b_old in zip(arrays[0].batches, arrays[1].batches):
                    phase = MAIN if old.batch_count % 2 == 0 else ADV
                    got = planned_step(new, b_new)
                    ref = oracle_objective(old, b_old, phase)
                    if phase == MAIN or update_adversaries:
                        oracle_backward(old, ref, phase)
                        lc.adam_step(old.main if phase == MAIN else old.adv)
                    old.batch_count += 1
                    assert got == losses(ref), (epoch, old.batch_count)
                    assert adam_bytes(new) == adam_bytes(old), (epoch, old.batch_count)
                # alternating_epoch itself, on a third state, ends each epoch on the same bytes.
                alternating_epoch(whole, arrays[2], whole_rng, epoch=epoch)
                assert adam_bytes(whole) == adam_bytes(old)


class TestStepArrays:
    """A state's step arrays belong to it: states stepped in turn do not share them."""

    def test_two_states_stepped_in_turn_match_each_alone(self):
        ks = (2, 3, 2)
        ds = mixed_dataset(ks, 45)  # batches of 16, 16 and 13 rows
        cfgs = [small_cfg(batch_size=16),
                small_cfg(batch_size=16, extractor_hidden=(16, 16), adversary_hidden=(8,))]
        keys = [(1.0, 0.5), (0.0, 10.0)]

        def fresh(i):
            state = TrainState(init_bundle(cfgs[i], ds.dim, ks, seed=i), cfgs[i], *keys[i])
            arrays = EpochArrays(ds, state, 16)
            arrays.fill(np.random.default_rng(i).permutation(len(ds)))
            return state, arrays

        alone = []
        for i in range(2):
            state, arrays = fresh(i)
            steps = [planned_step(state, batch) for _ in range(2) for batch in arrays.batches]
            alone.append((steps, adam_bytes(state)))
        pair = [fresh(0), fresh(1)]
        together = [[], []]
        for _ in range(2):
            for b0, b1 in zip(pair[0][1].batches, pair[1][1].batches):
                # State 1's pass runs between state 0's pass and its backward.
                phases = [MAIN if s.batch_count % 2 == 0 else ADV for s, _ in pair]
                fwds = [objective(s, b, phase) for (s, _), b, phase in zip(pair, (b0, b1), phases)]
                for (s, _), fwd, phase, steps in zip(pair, fwds, phases, together):
                    lc.backward(fwd.step, fwd.dlogits, phase == MAIN)
                    lc.adam_step(s.main if phase == MAIN else s.adv)
                    s.batch_count += 1
                    steps.append(losses(fwd))
        assert [(t, adam_bytes(s)) for t, (s, _) in zip(together, pair)] == alone


# ---------------------------------------------------------------------------
# The validation pass and best-epoch snapshot that train ran before both went
# through the planned arrays, kept verbatim as their oracle:
# training.validation_loss and TrainState.bundle (as a function of the state),
# over Mlp.apply as it was (conftest's oracle_mlp_apply), and train, which
# bundled the nets at every improving epoch.


def oracle_validation_loss(state, x, flat):
    """Selection loss on a split: the classifier CE on y, given as ``flat`` = row * K + y
    into the (n, K) logits. Forward only; runs neither adversary."""
    logits = oracle_mlp_apply(state.classifier, oracle_mlp_apply(state.extractor, x))
    return lc.encoded_cross_entropy(logits, flat)[0]


def oracle_bundle(self):
    """A bundle of copies of the nets, each head cut to its real columns."""
    nets = []
    for net, head, k in zip((self.classifier, self.adversaries, self.adversaries),
                            ((), 0, 1), self.widths):  # (): the whole array
        params = [p[head] for p in net.params()]
        params[-2:] = [p[:, :k] for p in params[-2:]]
        nets.append(Mlp(params[0::2], params[1::2]).copy())
    return ModelBundle(self.extractor.copy(), *nets)


def oracle_train(train_data, val_data, cfg, *, alpha, beta, seed):
    """Run cfg.epochs alternating epochs; keep the best-validation snapshot. The
    seed's SeedSequence children 0-3 seed the nets, and child 4 the batch shuffling."""
    seeds = np.random.SeedSequence(seed).spawn(5)
    state = OracleState(build_bundle(cfg, seeds, train_data.dim, train_data.k_y, train_data.k_a,
                                     train_data.k_p), cfg, alpha, beta)
    shuffle_rng = np.random.default_rng(seeds[4])
    arrays = EpochArrays(train_data, state, cfg.batch_size)
    val_flat = np.arange(len(val_data)) * max(state.widths) + val_data.y
    best_loss = math.inf
    best_bundle = None
    history = []
    for epoch in range(cfg.epochs):
        mean_total = alternating_epoch(state, arrays, shuffle_rng, epoch=epoch)
        val_loss = oracle_validation_loss(state, val_data.x, val_flat)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        history.append((mean_total, val_loss))
        if val_loss < best_loss:
            best_loss = val_loss
            best_bundle = oracle_bundle(state)
    return TrainedModel(bundle=best_bundle, best_val_loss=best_loss, history=history)


def improving_epochs(history):
    """The epochs whose validation loss beats every earlier one."""
    losses = [val for _, val in history]
    return [i for i, val in enumerate(losses) if val < min(losses[:i], default=math.inf)]


class TestTrainMatchesOracle:
    """train's bundle, best validation loss and history are the oracle's byte for
    byte, and so are the bundle's outputs on the validation rows."""

    @pytest.mark.parametrize("n_val", [30, 16], ids=["own length", "full batch's length"])
    @pytest.mark.parametrize("adversary_hidden", [(8,), (32, 32), (8, 8, 8)])
    @pytest.mark.parametrize("extractor_hidden", [(), (32,), (16, 16)])
    @pytest.mark.parametrize("ks", [(2, 2, 2), (2, 3, 2), (2, 10, 6)])
    @pytest.mark.parametrize("alpha, beta, update_adversaries", [
        (0.0, 0.0, True), (0.1, 0.0, True), (0.0, 10.0, True), (10.0, 10.0, True),
        (10.0, 10.0, False)])
    def test_four_epochs_match_oracle(self, alpha, beta, update_adversaries, ks,
                                      extractor_hidden, adversary_hidden, n_val):
        ds = mixed_dataset(ks, 45 + n_val)  # batches of 16, 16 and 13 rows
        tr, va = ds.subset(np.arange(45)), ds.subset(np.arange(45, 45 + n_val))
        cfg = small_cfg(epochs=4, batch_size=16, extractor_hidden=extractor_hidden,
                        adversary_hidden=adversary_hidden)
        key = dict(alpha=alpha, beta=beta, seed=3)
        with contextlib.nullcontext() if update_adversaries else adversary_free():
            got, ref = train(tr, va, cfg, **key), oracle_train(tr, va, cfg, **key)
        assert ([(p.shape, p.tobytes()) for p in bundle_params(got.bundle)]
                == [(p.shape, p.tobytes()) for p in bundle_params(ref.bundle)])
        assert got.best_val_loss.hex() == ref.best_val_loss.hex()
        assert ([(total.hex(), val.hex()) for total, val in got.history]
                == [(total.hex(), val.hex()) for total, val in ref.history])
        features = got.bundle.extractor.apply(va.x)
        assert features.tobytes() == oracle_mlp_apply(ref.bundle.extractor, va.x).tobytes()
        assert (got.bundle.classifier.apply(features).tobytes()
                == oracle_mlp_apply(ref.bundle.classifier, features).tobytes())

    def test_some_cases_select_an_earlier_epoch(self):
        # The oracle test above is about the snapshot only where the best epoch
        # is not the last: there the bundle's params differ from the nets'.
        ds = mixed_dataset((2, 3, 2), 75)
        tr, va = ds.subset(np.arange(45)), ds.subset(np.arange(45, 75))
        cfg = small_cfg(epochs=4, batch_size=16, adversary_hidden=(32, 32))
        trained = train(tr, va, cfg, alpha=10.0, beta=10.0, seed=3)
        assert improving_epochs(trained.history)[-1] < cfg.epochs - 1


class TestOneBundlePerRun:
    def test_train_bundles_the_nets_once(self, monkeypatch):
        # The best epoch is kept as two buffer copies; the nets are bundled once, at the end.
        from fairpriv.cli import pipeline
        from fairpriv.data import make_splits

        cfg = reference_config()
        train_ds, val_ds, _ = make_splits(pipeline.load_dataset(cfg), cfg.split, 0)
        real, built = TrainState.bundle, []

        def spy(state, *buffers):
            built.append(real(state, *buffers))
            return built[-1]

        monkeypatch.setattr(TrainState, "bundle", spy)
        trained = train(train_ds, val_ds, cfg.train, alpha=1.0, beta=1.0, seed=0)
        assert len(improving_epochs(trained.history)) > 1
        assert len(built) == 1 and built[0] is trained.bundle


class TestGoldenBytes:
    """Trained weights, selection loss and attacker, pinned bitwise.

    The training digests of the (0, 0) and (10, 10) cells were recorded with
    the tape-autodiff engine this package used before the explicit
    forward/backward engine; those of the (0, 10) and (10, 0) cells, where
    exactly one adversary term is on, and every cell's per-epoch history,
    with the engine that still built a dataset, a one-hot and an hstack per
    batch. The attacker digests were recorded with the gradient-descent loop
    that reduced over the class axis and always ran every iteration. Any
    change to the floating-point operations or their order shows up here.
    """

    @staticmethod
    def two_epochs(alpha, beta, seed, **train_fields):
        from conftest import reference_config
        from fairpriv.cli import pipeline
        from fairpriv.data import make_splits

        cfg = reference_config()
        train_ds, val_ds, _ = make_splits(pipeline.load_dataset(cfg), cfg.split, seed)
        tc = dataclasses.replace(cfg.train, **train_fields)
        tc.epochs = 2
        return cfg, val_ds, train(train_ds, val_ds, tc, alpha=alpha, beta=beta, seed=seed)

    @staticmethod
    def toy_run(alpha, beta, k_y=2, k_a=3, k_p=2, **train_fields):
        """A toy run with the given class counts, by default k_a = 3 and k_p = 2."""
        rng = np.random.default_rng(30)
        n = 240
        ds = LabeledDataset(rng.standard_normal((n, 6)), rng.integers(0, k_y, n),
                            rng.integers(0, k_a, n), rng.integers(0, k_p, n), k_y, k_a, k_p)
        tr, va = ds.subset(np.arange(200)), ds.subset(np.arange(200, n))
        return train(tr, va, small_cfg(**train_fields), alpha=alpha, beta=beta, seed=31)

    # Cells on paths the four pinned cells above do not take: one digest over
    # the trained params, the selection loss and the per-epoch history. They
    # were recorded with the engine that ran each adversary as its own net,
    # but for the k_y == k_a != k_p cell, recorded with the engine that
    # stacked the adversaries' hidden layers when k_a != k_p, and the
    # k_y = 3, beta = 0 cell, recorded with the padded-head TrainState engine.
    # The adversary-free cell keeps the name of the train option that ran it
    # when it was recorded.
    CELLS = {
        "update_adversaries=False": lambda: adversary_free()(TestGoldenBytes.two_epochs)(
            10.0, 10.0, 0)[2],
        "k_a != k_p": lambda: TestGoldenBytes.toy_run(1.0, 1.0),
        "k_a != k_p, alpha = 0": lambda: TestGoldenBytes.toy_run(0.0, 2.0),
        "k_a != k_p, no hidden layer": lambda: TestGoldenBytes.toy_run(
            0.5, 0.0, adversary_hidden=()),
        "k_a == k_p, no hidden layer": lambda: TestGoldenBytes.two_epochs(
            0.0, 10.0, 0, adversary_hidden=())[2],
        "k_y = 3, k_a == k_p": lambda: TestGoldenBytes.toy_run(1.0, 1.0, k_y=3, k_a=2),
        "k_y = 3, k_a == k_p, beta = 0": lambda: TestGoldenBytes.toy_run(2.0, 0.0, k_y=3, k_a=2),
        "k_y == k_a != k_p, beta = 0": lambda: TestGoldenBytes.toy_run(1.0, 0.0, k_a=2, k_p=3),
    }

    @pytest.mark.parametrize("cell, digest", [
        ("update_adversaries=False",
         "279c0794b74edf3fe27acb77f10c5a91f5d39cc3cfea5c984771de951daa5918"),
        ("k_a != k_p",
         "d89f8cd6ad1cd1b4b466d1341f73b34bb5ffdea53e4e1e850936baea011ad343"),
        ("k_a != k_p, alpha = 0",
         "0680cc9dc6e5544326179863c679cb81a8a02a8bfb0a5e8f50ec483e9cda4c03"),
        ("k_a != k_p, no hidden layer",
         "aa553af8c5d5d88b55894e4ac07a27c5570ff3ecaf6da59c35f9fd9e7798e95b"),
        ("k_a == k_p, no hidden layer",
         "b6686f9fddfcb60597151144fdaf2afa2703783249acb1e49f41000d8eca594e"),
        ("k_y = 3, k_a == k_p",
         "c1602268b27e20eac6b9f72595fb51093b9be28dbec58394124021f696bd8471"),
        ("k_y = 3, k_a == k_p, beta = 0",
         "3a1a0c3b7b9486a54adad5dff3b243e505b405b6e6590008cdd50e7efde0506b"),
        ("k_y == k_a != k_p, beta = 0",
         "2ea2b7d6bcf92a8e121eeac001db752ac752063b9698a940c92b7f4a91938894"),
    ])
    def test_more_cells_match_recorded_digest(self, cell, digest):
        trained = self.CELLS[cell]()
        h = hashlib.sha256()
        b = trained.bundle
        for net in (b.extractor, b.classifier, b.fairness_adv, b.privacy_adv):
            for p in net.params():
                h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
        h.update(repr([trained.best_val_loss.hex()]
                      + [(total.hex(), val.hex()) for total, val in trained.history]).encode())
        assert h.hexdigest() == digest, host_note()

    def test_saved_model_file_matches_recorded_digest(self, tmp_path):
        # The file format is independent of how training lays out the params.
        from fairpriv.cli.modelio import save_bundle

        _, _, trained = self.two_epochs(10.0, 10.0, 1)
        save_bundle(trained.bundle, tmp_path / "model.bin")
        assert (hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest()
                == "e446ceedf32b29193cbb621bac11b5878b267c572ecba424fa285fda8c6c2682"), host_note()

    # Per-epoch (mean train objective, validation loss) of each pinned cell.
    HISTORY = {
        (0.0, 0.0, 0): [("0x1.064f2de9addaap+1", "0x1.63279b1079014p+0"),
                        ("0x1.e48846193af59p-1", "0x1.5c75c3344facfp-1")],
        (10.0, 10.0, 1): [("-0x1.e072d41ab859bp+3", "0x1.d588a955c063dp+0"),
                          ("-0x1.539790c447701p+3", "0x1.3df60e4df5fc7p+0")],
        (0.0, 10.0, 0): [("-0x1.0e83b272dfa28p+3", "0x1.2f4c9b4a76933p+1"),
                         ("-0x1.86cb991290e6ap+2", "0x1.b9036a02fdc85p+0")],
        (10.0, 0.0, 1): [("-0x1.c470a0c284049p+2", "0x1.8cfd40ffc3aacp+0"),
                         ("-0x1.0ed7243476bebp+2", "0x1.fca9c52e738c5p-1")],
    }

    @pytest.mark.parametrize("alpha, beta, seed, digest, best_val_loss", [
        (0.0, 0.0, 0, "8a2b57b80bddd9dc4a405e15f64b9a34e7ace988f2ce1952b9f1b19be6caec57",
         "0x1.5c75c3344facfp-1"),
        (10.0, 10.0, 1, "3bfff4d8539e8cb0693182942fafb6f3233c2154a1d6294925da07f5f6815f18",
         "0x1.3df60e4df5fc7p+0"),
        (0.0, 10.0, 0, "d010b5726888ea79725d9ae934f86685ac36ef24a4acaae3f9d76b60c75b7bef",
         "0x1.b9036a02fdc85p+0"),
        (10.0, 0.0, 1, "270faf064ef8b91936b5ab8781fc9f27619eb65ebd9a72866f7e793a7736adc2",
         "0x1.fca9c52e738c5p-1"),
    ])
    def test_two_epochs_match_recorded_digest(self, alpha, beta, seed, digest, best_val_loss):
        _, _, trained = self.two_epochs(alpha, beta, seed)
        h = hashlib.sha256()
        b = trained.bundle
        for net in (b.extractor, b.classifier, b.fairness_adv, b.privacy_adv):
            for p in net.params():
                h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
        assert h.hexdigest() == digest, host_note()
        assert trained.best_val_loss.hex() == best_val_loss, host_note()
        assert ([(total.hex(), val.hex()) for total, val in trained.history]
                == self.HISTORY[(alpha, beta, seed)]), host_note()

    @pytest.mark.parametrize("alpha, beta, seed, digest", [
        (0.0, 0.0, 0, "b372bb4b0dcc0b3355ab58fd4f240924a2b165f8d035d89a80aa33d66df3efe3"),
        (10.0, 10.0, 1, "6d7937b99bbe405d51bdb5cc1ddc296ffceeabb01c286aa3b546d4f17789b21d"),
    ])
    def test_attacker_matches_recorded_digest(self, alpha, beta, seed, digest):
        from fairpriv.evaluation import fit_attacker

        cfg, val_ds, trained = self.two_epochs(alpha, beta, seed)
        attacker = fit_attacker(trained.bundle.extractor.apply(val_ds.x), val_ds.y,
                                val_ds.y_p, iters=cfg.attacker_iters,
                                k_y=val_ds.k_y, k_p=val_ds.k_p)
        h = hashlib.sha256()
        for a in (attacker.weights, attacker.bias):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert h.hexdigest() == digest, host_note()
