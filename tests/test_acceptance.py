"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 3-6 run the full reference synthetic setup (see conftest); the
remaining criteria exercise the numeric core, the analysis layer, and the
end-to-end CLI on a reduced grid.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (MAIN_NETS, adversary_free, bundle_params, median_of, reference_config,
                      training_nets)
from fairpriv.analysis import (CsrWeights, csr, grid_values, group_label, heatmap, normalize,
                               pearson, result_cube)
from fairpriv.cli import main, pipeline
from fairpriv.data import LabeledDataset, make_splits
from fairpriv import learncore
from fairpriv.training import (ADV, MAIN, EpochArrays, TrainConfig, TrainState, build_bundle,
                               objective, train)

CHANCE = 0.5  # binary private label in the reference config


def _pass(n, msg):
    print(f"ACCEPTANCE PASS [{n:>2}] {msg}")


def _random_table(rng, n=None):
    """n (default: 4 to 12) random runs' metrics, one row per run. Each row
    still draws the grid point and val_loss of the record it once was, so the
    trials check the tables they always checked."""
    n = n or int(rng.integers(4, 13))
    rows = []
    for _ in range(n):
        rng.integers(0, 11), rng.integers(0, 11)  # the record's alpha and beta
        rows.append(rng.random(3))
        rng.random()  # its val_loss
    return np.array(rows)


def _widths(rng):
    return tuple(int(w) for w in rng.integers(2, 9, int(rng.integers(0, 3))))


def _min_hidden_preactivation(net, x) -> float:
    """The smallest |pre-activation| of ``net``'s hidden layers on ``x``."""
    hidden, smallest = x, np.inf
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = hidden @ w + b
        smallest = min(smallest, float(np.abs(pre).min()))
        hidden = np.maximum(pre, 0.0)
    return smallest


class TestCriterion1GradientOracle:
    def test_gradients_match_finite_differences(self):
        # The training step's own gradients: random nets, class counts, batch
        # lengths and (alpha, beta), MAIN and ADV steps in turn, each checked
        # against central differences of its phase's loss over every param
        # of the group it updates.
        start = time.monotonic()
        rng = np.random.default_rng(20250811)
        h = 1e-5
        checked = 0
        attempts = 0
        while checked < 50:
            attempts += 1
            assert attempts < 500, "could not build enough kink-free instances"
            ks = tuple(int(k) for k in rng.integers(2, 5, 3))
            n, d = int(rng.integers(1, 9)), int(rng.integers(2, 9))
            cfg = TrainConfig(batch_size=n, feature_dim=int(rng.integers(2, 7)),
                              extractor_hidden=_widths(rng), adversary_hidden=_widths(rng))
            alpha, beta = (float(v) for v in rng.choice([0.0, 0.5, 3.0], 2))
            seeds = np.random.SeedSequence(int(rng.integers(0, 1 << 31))).spawn(5)
            state = TrainState(build_bundle(cfg, seeds, d, *ks), cfg, alpha, beta)
            ds = LabeledDataset(rng.standard_normal((n, d)),
                                *(rng.integers(0, k, n) for k in ks), *ks)
            arrays = EpochArrays(ds, state, n)
            arrays.fill(np.arange(n))
            batch = arrays.batches[0]
            phase = (MAIN, ADV)[checked % 2]

            def loss_value():
                fwd = objective(state, batch, phase)
                return fwd.total if phase == MAIN else fwd.ce_a + fwd.ce_p

            loss_value()  # writes the features into batch.adv_in
            # Central differences are invalid across ReLU kinks; skip instances
            # with a hidden pre-activation close enough to 0 for the +-h probe
            # to cross one.
            extractor, _, adversaries = training_nets(state)
            if min(_min_hidden_preactivation(extractor, batch.x),
                   _min_hidden_preactivation(adversaries, batch.adv_in)) < 1e-4:
                continue

            fwd = objective(state, batch, phase)
            learncore.backward(fwd.step, fwd.dlogits, phase == MAIN)
            group = state.main if phase == MAIN else state.adv
            grad = group.grads.copy()
            params = group.params
            fd = np.zeros_like(params)
            for i in range(params.size):
                orig = params[i]
                params[i] = orig + h
                up = loss_value()
                params[i] = orig - h
                down = loss_value()
                params[i] = orig
                fd[i] = (up - down) / (2.0 * h)
            # The 1e-4 floor keeps finite-difference roundoff (~1e-10
            # absolute) from dominating the ratio on near-zero gradients.
            rel = np.abs(grad - fd) / np.maximum.reduce(
                [np.abs(grad), np.abs(fd), np.full_like(fd, 1e-4)])
            assert rel.max() < 1e-5, f"{phase} step, ks={ks}, {cfg} rel={rel.max():.2e}"
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"gradient oracle took {elapsed:.1f}s"
        _pass(1, f"{checked} random training steps (MAIN and ADV) match central "
                 f"differences (rel err < 1e-5) in {elapsed:.1f}s")


class TestCriterion2ErmReduction:
    def test_bitwise_identical_main_weights(self):
        cfg = reference_config()
        ds = pipeline.load_dataset(cfg)
        train_ds, val_ds, _ = make_splits(ds, cfg.split, seed=0)
        tc = replace(cfg.train, epochs=5)
        key = dict(alpha=0.0, beta=0.0, seed=0)
        full = train(train_ds, val_ds, tc, **key)
        with adversary_free():
            erm = train(train_ds, val_ds, tc, **key)
        for a, b in zip(bundle_params(full.bundle, MAIN_NETS),
                        bundle_params(erm.bundle, MAIN_NETS)):
            assert np.array_equal(a, b)
        assert full.best_val_loss == erm.best_val_loss
        _pass(2, "alpha=beta=0 training is bitwise identical to adversary-free ERM")


class TestCriterion3BaselineLeakage:
    def test_baseline_attack_and_gap(self, reference_runs):
        m_p = median_of(reference_runs, 0.0, 0.0, "attack_balanced_acc")
        m_a = median_of(reference_runs, 0.0, 0.0, "fairness_gap")
        assert m_p >= 0.60, f"baseline attack balanced accuracy {m_p:.3f} < 0.60"
        assert m_a >= 0.05, f"baseline fairness gap {m_a:.3f} < 0.05"
        _pass(3, f"baseline leakage: median M^P={m_p:.3f} (>=0.60), "
                 f"M^A={m_a:.3f} (>=0.05)")


class TestCriterion4PrivacyIntervention:
    def test_beta_10_suppresses_attack(self, reference_runs):
        baseline = median_of(reference_runs, 0.0, 0.0, "attack_balanced_acc")
        intervened = median_of(reference_runs, 0.0, 10.0, "attack_balanced_acc")
        assert intervened <= CHANCE + 0.05, f"M^P {intervened:.3f} > chance+0.05"
        assert baseline - intervened >= 0.05, \
            f"drop {baseline - intervened:.3f} < 0.05"
        _pass(4, f"privacy intervention: median M^P {baseline:.3f} -> "
                 f"{intervened:.3f} (<= {CHANCE + 0.05:.2f}, drop >= 0.05)")


class TestCriterion5FairnessIntervention:
    def test_alpha_10_halves_gap(self, reference_runs):
        baseline = median_of(reference_runs, 0.0, 0.0, "fairness_gap")
        intervened = median_of(reference_runs, 10.0, 0.0, "fairness_gap")
        assert intervened <= 0.5 * baseline, \
            f"gap {intervened:.3f} > half of baseline {baseline:.3f}"
        _pass(5, f"fairness intervention: median M^A {baseline:.3f} -> "
                 f"{intervened:.3f} (<= half)")


class TestCriterion6NullLeak:
    def test_attack_cannot_invent_signal(self):
        cfg = reference_config()
        cfg.data = replace(cfg.data, mu_p=0.0)
        vals = [pipeline.run_single(cfg, 0.0, 0.0, s)[0].attack_balanced_acc
                for s in (0, 1, 2)]
        m_p = float(np.median(vals))
        assert abs(m_p - CHANCE) <= 0.05, f"mu_p=0 attack {m_p:.3f} far from chance"
        _pass(6, f"null leak: mu_p=0 baseline M^P={m_p:.3f} within 0.05 of chance")


class TestCriterion7CsrProperties:
    def test_on_1000_random_tables(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            table = _random_table(rng)
            weights = CsrWeights(*rng.dirichlet(np.ones(3)))
            scores = csr(table, weights)

            # range
            assert all(-1e-9 <= s <= 100.0 + 1e-9 for s in scores)

            # monotonicity: improving run 0 on any axis never lowers it
            for k, improve in ((0, lambda v: min(1.0, v + 0.07)),
                               (1, lambda v: max(0.0, v - 0.07)),
                               (2, lambda v: max(0.0, v - 0.07))):
                improved = table.copy()
                improved[0, k] = improve(table[0, k])
                assert csr(improved, weights)[0] >= scores[0] - 1e-9

            # a run at all three extrema scores exactly 100
            dominant = table.copy()
            dominant[0] = table[:, 0].max(), table[:, 1].min(), table[:, 2].min()
            assert csr(dominant, weights)[0] == pytest.approx(100.0, abs=1e-9)

            # (1, 0, 0) ranking reduces to the raw utility ranking
            pure, utility = csr(table, CsrWeights(1.0, 0.0, 0.0)), table[:, 0]
            for a in range(len(table)):
                for b in range(len(table)):
                    assert np.sign(pure[a] - pure[b]) == np.sign(utility[a] - utility[b])
        _pass(7, "CSR monotonicity/range/extrema/utility-reduction on 1000 tables")


class TestCriterion8Normalization:
    def test_affine_invariance_and_degenerate_rule(self):
        rng = np.random.default_rng(8)
        for trial in range(1000):
            table = _random_table(rng)
            scale_f = rng.uniform(0.1, 10.0)
            shift = rng.uniform(-5.0, 5.0)
            mapped = table.copy()
            mapped[:, 0] = scale_f * table[:, 0] + shift
            n1 = normalize(table)
            n2 = normalize(mapped)
            for v1, v2 in zip(n1[:, 0], n2[:, 0]):
                assert v1 == pytest.approx(v2, abs=1e-9)

            flat = table.copy()
            flat[:, 0] = 0.37
            assert set(normalize(flat)[:, 0]) == {0.5}
        _pass(8, "normalization affine invariance and degenerate rule on 1000 tables")


class TestCriterion9AnalysisOracles:
    def test_pearson_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = rng.standard_normal(int(rng.integers(2, 40)))
            y = rng.standard_normal(x.shape[0])
            dx, dy = x - x.mean(), y - y.mean()
            denom = np.sqrt((dx * dx).sum()) * np.sqrt((dy * dy).sum())
            if denom == 0:
                continue
            direct = float((dx * dy).sum() / denom)
            assert pearson(x, y) == pytest.approx(direct, abs=1e-12)

    def test_heatmap_against_brute_force(self):
        rng = np.random.default_rng(10)
        values = grid_values()
        for _ in range(50):
            seeds = range(int(rng.integers(1, 4)))  # one count for the whole cube
            records = [pipeline.RunRecord(a, b, s, rng.random(), rng.random(), rng.random(), 0.0)
                       for a in values for b in values for s in seeds]
            grid = heatmap(result_cube(records, values, values, seeds), "fairness_gap")
            for i, ga in enumerate(grid.alpha_groups):
                for j, gb in enumerate(grid.beta_groups):
                    cell = [r.fairness_gap for r in records
                            if group_label(r.alpha) == ga and group_label(r.beta) == gb]
                    assert grid.values[i, j] == pytest.approx(np.median(cell), abs=1e-12)

    def test_grid_closed_form_and_group_counts(self):
        values = grid_values()
        assert values[0] == 0.0 and len(values) == 11
        for k in range(10):
            assert abs(values[k + 1] - 10.0 ** (-2.0 + 3.0 * k / 9.0)) < 1e-12
        labels = [group_label(v) for v in values]
        assert (labels.count("B"), labels.count("L"), labels.count("M"),
                labels.count("H")) == (1, 3, 3, 4)
        _pass(9, "pearson/heatmap/grid oracles all agree")


class TestCriterion10EndToEndSweep:
    def test_reduced_sweep_deterministic_and_complete(self, tmp_path):
        cfg = reference_config()
        raw = {
            "data": {"kind": "synthetic", "n": cfg.data.n, "seed": cfg.data.seed,
                     "mu_y": cfg.data.mu_y, "mu_a": cfg.data.mu_a, "mu_p": cfg.data.mu_p,
                     "d_y": cfg.data.d_y, "d_a": cfg.data.d_a, "d_p": cfg.data.d_p,
                     "d_noise": cfg.data.d_noise, "joint": cfg.data.joint.tolist()},
            "split": {"val_fraction": cfg.split.val_fraction,
                      "test_fraction": cfg.split.test_fraction,
                      "train_mode": "exacerbated", "undersample_factor": 0.25,
                      "test_mode": "trio-balanced"},
            "grid": {"alphas": [0.0, 0.1, 10.0], "betas": [0.0, 0.1, 10.0]},
            "seeds": [0, 1],
            "utility_metric": "tpr",
            "output_dir": str(tmp_path / "run1"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))

        start = time.monotonic()
        assert main(["sweep", "--config", str(config_path), "--jobs", "2",
                     "--out", str(tmp_path / "run1")]) == 0
        assert main(["analyze", "--config", str(config_path),
                     "--out", str(tmp_path / "run1")]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"reduced sweep took {elapsed:.0f}s"

        results = (tmp_path / "run1" / "results.csv").read_text().splitlines()
        assert results[0] == ("alpha,beta,seed,utility,fairness_gap,"
                              "attack_balanced_acc,val_loss")
        assert len(results) == 1 + 3 * 3 * 2

        report = json.loads((tmp_path / "run1" / "report.json").read_text())
        fmt = report["single_metrics"]["formatted"]
        for key in ("baseline_utility", "baseline_fairness", "baseline_privacy",
                    "best_utility", "best_fairness", "best_privacy"):
            assert "%" in fmt[key]
        assert fmt["baseline_privacy"].endswith("(50%)")
        corr = report["tradeoffs"]["correlations"]["formatted"]
        assert set(corr) == {"uf", "up", "fp"}
        assert len(report["tradeoffs"]["csr"]) == 3
        for entry in report["tradeoffs"]["csr"]:
            assert entry["formatted"].endswith(f"({entry['alpha_group']}., "
                                               f"{entry['beta_group']}.)")

        # {0, 0.1, 10} populates groups B, M, H per axis: 9 cells per heatmap
        svgs = sorted((tmp_path / "run1").glob("heatmap_*.svg"))
        assert len(svgs) == 3
        for svg_path in svgs:
            svg = svg_path.read_text()
            assert svg.count('class="cell"') == 9
            assert svg.count('class="cell-value"') == 9

        # rerun: byte-identical outputs
        assert main(["sweep", "--config", str(config_path), "--jobs", "2",
                     "--out", str(tmp_path / "run2")]) == 0
        assert main(["analyze", "--config", str(config_path), "--results",
                     str(tmp_path / "run2" / "results.csv"),
                     "--out", str(tmp_path / "run2")]) == 0
        for name in ["results.csv", "report.json", "heatmap_utility.svg",
                     "heatmap_fairness_gap.svg", "heatmap_attack_balanced_acc.svg"]:
            assert ((tmp_path / "run1" / name).read_bytes()
                    == (tmp_path / "run2" / name).read_bytes()), name
        _pass(10, f"18-run reduced sweep + analyze in {elapsed:.0f}s, deterministic, "
                  f"complete outputs")


class TestCriterion11AttackHygiene:
    def test_canary_row_isolation(self, monkeypatch, tmp_path):
        from fairpriv.cli.config import ExperimentConfig, mild_correlation_joint
        from fairpriv.data import SplitSpec, SyntheticSpec

        cfg = ExperimentConfig(
            data=SyntheticSpec(n=1600, joint=mild_correlation_joint(), seed=0),
            split=SplitSpec(train_mode="exacerbated", undersample_factor=0.25,
                            test_mode="trio-balanced"),
            utility_metric="tpr", attacker_iters=500)
        cfg.train.epochs = 4
        cfg.train.extractor_hidden = (16,)
        cfg.train.adversary_hidden = (16, 16)
        base = pipeline.load_dataset(cfg)
        x = base.x.copy()
        canary_idx = 11
        x[canary_idx] = 5e5
        ds = LabeledDataset(x, base.y, base.y_a, base.y_p, base.k_y, base.k_a,
                            base.k_p)
        cfg.dataset = ds  # every run of cfg splits the canary's dataset

        seed = None
        for s in range(40):
            _, val_ds, test_ds = make_splits(ds, cfg.split, s)
            in_test = np.any(np.all(test_ds.x == x[canary_idx], axis=1))
            in_val = np.any(np.all(val_ds.x == x[canary_idx], axis=1))
            if in_test and not in_val:
                seed = s
                break
        assert seed is not None, "no seed put the canary into the test split"

        seen = {}
        real_fit = pipeline.fit_attacker
        real_score = pipeline.attack_accuracy

        def spy_fit(features, y, yp, **kw):
            seen["fit"] = np.asarray(features).copy()
            return real_fit(features, y, yp, **kw)

        def spy_score(attacker, features, y, yp):
            seen["score"] = np.asarray(features).copy()
            return real_score(attacker, features, y, yp)

        monkeypatch.setattr(pipeline, "fit_attacker", spy_fit)
        monkeypatch.setattr(pipeline, "attack_accuracy", spy_score)
        _, trained = pipeline.run_single(cfg, 0.0, 0.0, seed)

        _, val_ds, test_ds = make_splits(ds, cfg.split, seed)
        fit_expected = trained.bundle.extractor.apply(val_ds.x)
        score_expected = trained.bundle.extractor.apply(test_ds.x)
        assert np.array_equal(seen["fit"], fit_expected)
        assert np.array_equal(seen["score"], score_expected)
        pos = np.flatnonzero(np.all(test_ds.x == x[canary_idx], axis=1))[0]
        canary_row = score_expected[pos]
        assert np.any(np.all(seen["score"] == canary_row, axis=1))
        assert not np.any(np.all(seen["fit"] == canary_row, axis=1))
        _pass(11, "attacker fit on validation rows only; canary seen only at scoring")
