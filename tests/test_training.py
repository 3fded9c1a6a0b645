import dataclasses
import hashlib
import math

import numpy as np
import pytest

from fairpriv import training
from fairpriv.data import LabeledDataset, SyntheticSpec, generate
from fairpriv.training import (EpochArrays, ModelBundle, OptimizerStates, TrainConfig,
                               TrainingDivergedError, alternating_epoch, build_bundle,
                               objective, shuffle_seed, train, whole_batch)


def toy_dataset(n=200, seed=0, d=6):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.standard_normal((n, d)), rng.integers(0, 2, n),
                          rng.integers(0, 2, n), rng.integers(0, 2, n), 2, 2, 2)


def small_cfg(alpha=0.0, beta=0.0, seed=0, **kw):
    defaults = dict(epochs=3, batch_size=32, feature_dim=4,
                    extractor_hidden=(8,), adversary_hidden=(8, 8))
    defaults.update(kw)
    return TrainConfig(alpha=alpha, beta=beta, seed=seed, **defaults)


def snapshot(params):
    return [p.copy() for p in params]


def unchanged(params, before):
    return all(np.array_equal(p, b) for p, b in zip(params, before))


class TestObjective:
    def test_zero_coefficients_reduce_to_task_ce(self):
        ds = toy_dataset()
        bundle = build_bundle(small_cfg(), ds.dim, 2, 2, 2)
        fwd = objective(bundle, whole_batch(ds, bundle.feature_dim), 0.0, 0.0)
        assert fwd.total is fwd.ce_c  # not merely close: the same value

    def test_linear_combination(self):
        # Zeroed networks emit uniform logits, so all three CE terms equal ln 2
        # and the total collapses to ln2 * (1 - alpha - beta).
        ds = toy_dataset()
        bundle = build_bundle(small_cfg(), ds.dim, 2, 2, 2)
        for net in (bundle.extractor, bundle.classifier, bundle.fairness_adv,
                    bundle.privacy_adv):
            for p in net.params():
                p[:] = 0.0
        for alpha, beta in [(0.5, 0.25), (2.0, 3.0), (0.0, 1.0)]:
            fwd = objective(bundle, whole_batch(ds, bundle.feature_dim), alpha, beta)
            assert fwd.ce_c == pytest.approx(math.log(2), abs=1e-12)
            assert fwd.total == pytest.approx(
                math.log(2) * (1 - alpha - beta), abs=1e-9)

    def test_decomposition_identity(self):
        ds = toy_dataset(seed=3)
        bundle = build_bundle(small_cfg(seed=5), ds.dim, 2, 2, 2)
        for alpha, beta in [(0.0, 0.0), (0.01, 10.0), (4.2, 0.3)]:
            fwd = objective(bundle, whole_batch(ds, bundle.feature_dim), alpha, beta)
            expected = fwd.ce_c - alpha * fwd.ce_a - beta * fwd.ce_p
            assert fwd.total == pytest.approx(expected, abs=1e-12)

    def test_fresh_bundle_near_uniform(self):
        # Low-magnitude inputs keep every head's logits near zero, so each
        # cross entropy sits close to the uniform-prediction value ln 2.
        rng = np.random.default_rng(4)
        ds = LabeledDataset(0.1 * rng.standard_normal((512, 6)),
                            rng.integers(0, 2, 512), rng.integers(0, 2, 512),
                            rng.integers(0, 2, 512), 2, 2, 2)
        cfg = TrainConfig(alpha=1.0, beta=1.0, seed=6)  # default-sized networks
        bundle = build_bundle(cfg, ds.dim, 2, 2, 2)
        fwd = objective(bundle, whole_batch(ds, bundle.feature_dim), 1.0, 1.0)
        for ce in (fwd.ce_c, fwd.ce_a, fwd.ce_p):
            assert abs(ce - math.log(2)) < 0.15

    def test_empty_batch_rejected(self):
        ds = toy_dataset().subset([])
        bundle = build_bundle(small_cfg(), 6, 2, 2, 2)
        with pytest.raises(ValueError):
            objective(bundle, whole_batch(ds, bundle.feature_dim), 0.0, 0.0)


class TestAlternatingEpoch:
    def _run_one_epoch(self, bundle, data, cfg, states):
        rng = np.random.default_rng(shuffle_seed(cfg))
        arrays = EpochArrays(data, cfg.feature_dim, cfg.batch_size)
        return alternating_epoch(bundle, arrays, cfg, states, rng)

    def test_main_phase_leaves_adversaries(self):
        # One batch per epoch: the first epoch is purely a MAIN phase.
        ds = toy_dataset(n=32)
        cfg = small_cfg(batch_size=32)
        bundle = build_bundle(cfg, ds.dim, 2, 2, 2)
        states = OptimizerStates.for_bundle(bundle, cfg.lr)
        adv_before = snapshot(bundle.adversary_params())
        main_before = snapshot(bundle.main_params())
        self._run_one_epoch(bundle, ds, cfg, states)
        assert unchanged(bundle.adversary_params(), adv_before)
        assert not unchanged(bundle.main_params(), main_before)

    def test_adv_phase_leaves_main(self):
        ds = toy_dataset(n=32)
        cfg = small_cfg(batch_size=32)
        bundle = build_bundle(cfg, ds.dim, 2, 2, 2)
        states = OptimizerStates.for_bundle(bundle, cfg.lr)
        self._run_one_epoch(bundle, ds, cfg, states)  # MAIN
        main_before = snapshot(bundle.main_params())
        adv_before = snapshot(bundle.adversary_params())
        self._run_one_epoch(bundle, ds, cfg, states)  # ADV (counter carried over)
        assert unchanged(bundle.main_params(), main_before)
        assert not unchanged(bundle.adversary_params(), adv_before)

    def test_switch_period(self):
        # k=2: batches 0,1 are MAIN; batch 2 is ADV.
        ds = toy_dataset(n=96)
        cfg = small_cfg(batch_size=32, switch_period=2)
        bundle = build_bundle(cfg, ds.dim, 2, 2, 2)
        states = OptimizerStates.for_bundle(bundle, cfg.lr)
        adv_before = snapshot(bundle.adversary_params())
        self._run_one_epoch(bundle, ds, cfg, states)
        assert not unchanged(bundle.adversary_params(), adv_before)
        assert states.batch_count == 3

    def test_empty_training_set(self):
        ds = toy_dataset().subset([])
        cfg = small_cfg()
        bundle = build_bundle(cfg, 6, 2, 2, 2)
        states = OptimizerStates.for_bundle(bundle, cfg.lr)
        with pytest.raises(ValueError, match="empty"):
            self._run_one_epoch(bundle, ds, cfg, states)


class TestTrain:
    def test_zero_epochs_rejected(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="epochs"):
            train(ds, ds, small_cfg(epochs=0))

    @pytest.mark.parametrize("field, value", [
        ("alpha", -0.5), ("alpha", float("nan")), ("alpha", "1"), ("beta", float("inf")),
        ("beta", True), ("seed", -1), ("seed", 1.5), ("seed", True), ("epochs", 2.5),
        ("batch_size", 0), ("lr", "0.001"), ("lr", 0.0), ("feature_dim", 2.0),
        ("extractor_hidden", (0,)), ("adversary_hidden", (8, "8")),
        ("adversary_hidden", 8), ("switch_period", False), ("select_by", "loss"),
    ])
    def test_bad_field_rejected_before_any_network(self, monkeypatch, field, value):
        # A library call gets the same checks as a loaded config.
        monkeypatch.setattr(training, "build_bundle",
                            lambda *a: pytest.fail("built a network for a bad config"))
        ds = toy_dataset()
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            train(ds, ds, small_cfg(**{field: value}))

    def test_deterministic(self):
        ds = toy_dataset(n=160, seed=8)
        tr, va = ds.subset(np.arange(128)), ds.subset(np.arange(128, 160))
        cfg = small_cfg(alpha=0.5, beta=0.5, seed=9, epochs=4)
        a, b = train(tr, va, cfg), train(tr, va, cfg)
        assert a.best_val_loss == b.best_val_loss
        assert a.history == b.history
        for pa, pb in zip(a.bundle.main_params(), b.bundle.main_params()):
            assert np.array_equal(pa, pb)

    def test_erm_reduction_bitwise(self):
        ds = toy_dataset(n=200, seed=10)
        tr, va = ds.subset(np.arange(160)), ds.subset(np.arange(160, 200))
        cfg = small_cfg(seed=11, epochs=5)
        full = train(tr, va, cfg, update_adversaries=True)
        erm = train(tr, va, cfg, update_adversaries=False)
        for pa, pb in zip(full.bundle.main_params(), erm.bundle.main_params()):
            assert np.array_equal(pa, pb)
        assert full.best_val_loss == erm.best_val_loss

    def test_separable_data_learns(self):
        ds = generate(SyntheticSpec(n=2000, mu_y=4.0, joint=np.full((2, 2, 2), 0.125),
                                    seed=12))
        tr, va = ds.subset(np.arange(1600)), ds.subset(np.arange(1600, 2000))
        cfg = small_cfg(seed=13, epochs=20, feature_dim=6, extractor_hidden=(16,))
        trained = train(tr, va, cfg)
        feats = trained.bundle.extractor.apply(va.x)
        preds = np.argmax(trained.bundle.classifier.apply(feats), axis=1)
        assert np.mean(preds == va.y) > 0.9

    def test_best_val_loss_is_history_min(self):
        ds = toy_dataset(n=160, seed=14)
        tr, va = ds.subset(np.arange(128)), ds.subset(np.arange(128, 160))
        trained = train(tr, va, small_cfg(seed=15, epochs=6))
        assert trained.best_val_loss == min(v for _, v in trained.history)

    def test_adversarial_pressure_raises_adversary_ce(self):
        # High-leakage sensitive attribute: with alpha=10 the extractor should
        # hide it, leaving the fairness adversary worse off than at baseline.
        ds = generate(SyntheticSpec(n=2000, mu_a=4.0, joint=np.full((2, 2, 2), 0.125),
                                    seed=16))
        tr, va = ds.subset(np.arange(1600)), ds.subset(np.arange(1600, 2000))
        ce_a = {}
        for alpha in (0.0, 10.0):
            cfg = small_cfg(alpha=alpha, seed=17, epochs=12, feature_dim=6,
                            extractor_hidden=(16,))
            trained = train(tr, va, cfg)
            val = whole_batch(va, trained.bundle.feature_dim)
            ce_a[alpha] = objective(trained.bundle, val, alpha, 0.0).ce_a
        assert ce_a[10.0] > ce_a[0.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_names_epoch(self):
        ds = toy_dataset(n=64, seed=18)
        cfg = small_cfg(seed=19, epochs=3, lr=1e200)  # overflow to inf-inf = nan
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(ds, ds, cfg)

    def test_nonempty_splits_required(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            train(ds.subset([]), ds, small_cfg())


class TestModelBundle:
    def test_adversary_width_checked(self):
        bundle = build_bundle(small_cfg(), 6, 2, 2, 2)
        narrow = build_bundle(small_cfg(feature_dim=5), 6, 2, 2, 2).fairness_adv
        with pytest.raises(ValueError, match="adversary"):
            ModelBundle(extractor=bundle.extractor, classifier=bundle.classifier,
                        fairness_adv=narrow, privacy_adv=bundle.privacy_adv)

    def test_copy_is_deep(self):
        bundle = build_bundle(small_cfg(), 6, 2, 2, 2)
        dup = bundle.copy()
        dup.extractor.weights[0][0, 0] += 1.0
        assert bundle.extractor.weights[0][0, 0] != dup.extractor.weights[0][0, 0]


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
    def two_epochs(alpha, beta, seed):
        from conftest import reference_config
        from fairpriv.cli import pipeline
        from fairpriv.data import make_splits

        cfg = reference_config()
        train_ds, val_ds, _ = make_splits(pipeline.load_dataset(cfg), cfg.split, seed)
        tc = dataclasses.replace(cfg.train, alpha=alpha, beta=beta, seed=seed)
        tc.epochs = 2
        return cfg, val_ds, train(train_ds, val_ds, tc)

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
        assert h.hexdigest() == digest
        assert trained.best_val_loss.hex() == best_val_loss
        assert ([(total.hex(), val.hex()) for total, val in trained.history]
                == self.HISTORY[(alpha, beta, seed)])

    @pytest.mark.parametrize("alpha, beta, seed, digest", [
        (0.0, 0.0, 0, "b372bb4b0dcc0b3355ab58fd4f240924a2b165f8d035d89a80aa33d66df3efe3"),
        (10.0, 10.0, 1, "6d7937b99bbe405d51bdb5cc1ddc296ffceeabb01c286aa3b546d4f17789b21d"),
    ])
    def test_attacker_matches_recorded_digest(self, alpha, beta, seed, digest):
        from fairpriv.evaluation import fit_attacker

        cfg, val_ds, trained = self.two_epochs(alpha, beta, seed)
        attacker = fit_attacker(trained.bundle.extractor.apply(val_ds.x), val_ds.y,
                                val_ds.y_p, iters=cfg.attacker_iters, lr=cfg.attacker_lr,
                                k_y=val_ds.k_y, k_p=val_ds.k_p)
        h = hashlib.sha256()
        for a in (attacker.weights, attacker.bias):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert h.hexdigest() == digest
