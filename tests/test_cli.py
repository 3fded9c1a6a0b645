import json
import os
from pathlib import Path

import numpy as np
import pytest

from fairpriv.analysis import RunRecord, grid_values
from fairpriv.cli import main, pipeline, report
from fairpriv.cli.config import (ConfigError, ExperimentConfig, default_config,
                                 from_dict, load_config, mild_correlation_joint)
from fairpriv.cli.modelio import load_bundle, save_bundle
from fairpriv.data import LabeledDataset, SplitSpec, SyntheticSpec, make_splits
from fairpriv.evaluation import MetricTriple


def small_config(**overrides):
    """A fast end-to-end config: tiny data, short training."""
    cfg = ExperimentConfig(
        data=SyntheticSpec(n=1600, joint=mild_correlation_joint(), seed=0),
        split=SplitSpec(train_mode="exacerbated", undersample_factor=0.25,
                        test_mode="trio-balanced"),
        utility_metric="tpr",
        alphas=[0.0, 1.0], betas=[0.0, 1.0], seeds=[0],
        attacker_iters=800,
    )
    cfg.train.epochs = 6
    cfg.train.extractor_hidden = (16,)
    cfg.train.adversary_hidden = (16, 16)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def config_json(tmp_path, **kw):
    raw = {
        "data": {"kind": "synthetic", "n": 1600, "seed": 0,
                 "joint": mild_correlation_joint().tolist()},
        "split": {"train_mode": "exacerbated", "undersample_factor": 0.25,
                  "test_mode": "trio-balanced"},
        "train": {"epochs": 6, "extractor_hidden": [16], "adversary_hidden": [16, 16]},
        "grid": {"alphas": [0.0, 1.0], "betas": [0.0, 1.0]},
        "seeds": [0],
        "utility_metric": "tpr",
        "attacker_iters": 800,
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_defaults_valid(self):
        cfg = default_config()
        cfg.validate()
        assert len(cfg.alphas) == 11 and len(cfg.seeds) == 3
        assert [tuple(np.round([w.utility, w.fairness, w.privacy], 3))
                for w in cfg.csr_weights] == [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2),
                                              (0.2, 0.2, 0.6)]

    def test_load_round_trip(self, tmp_path):
        path = config_json(tmp_path)
        cfg = load_config(path)
        assert cfg.alphas == [0.0, 1.0]
        assert cfg.split.undersample_factor == 0.25
        assert cfg.train.epochs == 6

    def test_invalid_joint_names_field(self, tmp_path):
        path = config_json(tmp_path, data={"kind": "synthetic", "n": 100,
                                           "joint": [[[0.5, 0.5], [0.5, 0.5]],
                                                     [[0.5, 0.5], [0.5, 0.5]]]})
        with pytest.raises(ConfigError, match="joint"):
            load_config(path)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            from_dict({"banana": 1})

    def test_off_bucket_grid_rejected(self):
        with pytest.raises(ConfigError, match="alphas"):
            from_dict({"grid": {"alphas": [0.07], "betas": [0.0]}})

    def test_csv_data_config(self, tmp_path):
        cfg = from_dict({"data": {"kind": "csv", "path": "feats.csv"}})
        assert cfg.data == "feats.csv"

    @pytest.mark.parametrize("value", [0, -3, 2.0, True, "100"])
    def test_attacker_iters_must_be_positive_int(self, value):
        # 0 iterations used to report an untrained attacker's chance accuracy.
        with pytest.raises(ConfigError, match="attacker_iters"):
            from_dict({"attacker_iters": value})

    @pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf"), "1", False])
    def test_attacker_lr_must_be_finite_positive(self, value):
        with pytest.raises(ConfigError, match="attacker_lr"):
            from_dict({"attacker_lr": value})

    @pytest.mark.parametrize("value", [2, 7, -1, 1.0, "1", True])
    def test_positive_class_must_be_class_index(self, value):
        with pytest.raises(ConfigError, match="positive_class"):
            from_dict({"positive_class": value})
        assert from_dict({"positive_class": 1}).positive_class == 1

    @pytest.mark.parametrize("key", ["csr_over_seed_medians",
                                     "correlations_over_seed_medians"])
    def test_seed_median_flags_must_be_bool(self, key):
        for value in (1, "false", None):
            with pytest.raises(ConfigError, match=key):
                from_dict({key: value})
        assert getattr(from_dict({key: True}), key) is True

    @pytest.mark.parametrize("raw, field", [
        ({"seeds": [0, 1, 0]}, "seeds"),
        ({"grid": {"alphas": [0, 0.0], "betas": [0.0]}}, "alphas"),
        ({"grid": {"alphas": [0.0], "betas": [10.0, 0.1, 10]}}, "betas"),
    ])
    def test_duplicate_grid_values_rejected(self, raw, field):
        # Duplicates used to fail only in analyze, as "missing cells: []".
        with pytest.raises(ConfigError, match=f"{field}: duplicate"):
            from_dict(raw)

    @pytest.mark.parametrize("field, value", [
        ("train.epochs", 2.5),
        ("train.batch_size", 0),
        ("train.feature_dim", 2.0),
        ("train.switch_period", True),
        ("train.extractor_hidden", [0]),
        ("train.adversary_hidden", [32, "8"]),
        ("train.lr", "0.001"),
        ("split.val_fraction", "0.2"),
        ("data.n", "100"),
        ("data.mu_y", "3"),
        ("data.joint", "x"),
        ("data.seed", -2),
        ("seeds", [1.5]),
        ("seeds", [True]),
        ("seeds", ["a"]),
        ("seeds", 3),
        ("seeds", [-1]),
        ("grid.alphas", ["x"]),
        ("csr_weights", [["a", 0, 0]]),
        ("output_dir", 5),
        ("train.alpha", 1.0),
        ("train.dropout", 0.5),
        ("split.shuffle", True),
        ("data.k_z", 2),
    ], ids=lambda v: v.removeprefix("train.") if isinstance(v, str) else None)
    def test_bad_train_field_rejected_at_load(self, tmp_path, capsys, field, value):
        # Each of these used to load and then fail every sweep cell, load as
        # something else (seeds [1.5] as [1]), or escape as a bare TypeError.
        # (IDs drop "train." to stay those of the rows the table began with.)
        path = config_json(tmp_path)
        raw = json.loads(path.read_text())
        *section, key = field.split(".")
        (raw[section[0]] if section else raw)[key] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"^{field}:"):
            load_config(path)
        assert main(["gen-data", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err

    @pytest.mark.parametrize("section, fields", [
        ("split", {"val_fraction": 0.1}),
        ("split", {"test_mode": "as-is"}),
        ("data", {"n": 100}),
        ("data", {"kind": "synthetic", "mu_a": 0.5, "seed": 3}),
        ("data", {"k_a": 3, "joint": np.full((2, 3, 2), 1 / 12).tolist()}),
        ("data", {"joint": None}),
        ("train", {"epochs": 3}),
    ])
    def test_partial_section_keeps_the_other_defaults(self, section, fields):
        # split and data sections used to start from the class defaults: an
        # as-is train split, no undersampling, and a uniform joint.
        cfg, expected = from_dict({section: fields}), default_config()
        for name, value in fields.items():
            if name != "kind":
                setattr(getattr(expected, section), name, value)
        assert np.array_equal(cfg.data.joint, expected.data.joint)
        cfg.data.joint = expected.data.joint
        assert cfg == expected

    @pytest.mark.parametrize("fields", [{"k_a": 3}, {"k_y": 3, "k_p": 3}])
    def test_class_counts_without_joint_rejected(self, fields):
        # The default joint is 2 x 2 x 2, so it cannot silently serve other counts.
        with pytest.raises(ConfigError, match="^data.joint: required"):
            from_dict({"data": fields})

    def test_data_section_without_n_uses_default_n(self):
        # It used to fail with SyntheticSpec's "missing 1 required positional
        # argument: 'n'".
        assert from_dict({"data": {"seed": 4}}).data.n == default_config().data.n

    def test_readme_example_loads_to_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration")[1].split("```json")[1].split("```")[0]
        cfg, default = from_dict(json.loads(block)), default_config()
        assert np.allclose(cfg.data.joint, default.data.joint)
        cfg.data.joint = default.data.joint
        assert cfg == default

    @pytest.mark.parametrize("value", [0, -1e-3, float("nan"), float("inf"), False])
    def test_train_lr_must_be_finite_positive(self, value):
        with pytest.raises(ConfigError, match="train.lr:"):
            from_dict({"train": {"lr": value}})

    def test_cli_invalid_config_exit_code(self, tmp_path, capsys):
        path = config_json(tmp_path, data={"kind": "synthetic", "n": 100,
                                           "joint": np.full((2, 2, 2), 0.2).tolist()})
        rc = main(["gen-data", "--config", str(path)])
        assert rc == 1
        assert "joint" in capsys.readouterr().err


class TestGenData:
    def test_same_seed_identical_bytes(self, tmp_path):
        path = config_json(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["gen-data", "--config", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_row_and_column_counts(self, tmp_path):
        path = config_json(tmp_path)
        out = tmp_path / "d.csv"
        main(["gen-data", "--config", str(path), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 1601
        assert len(lines[0].split(",")) == 20 + 3


class TestTrainCommand:
    def test_record_line_and_model_file(self, tmp_path, capsys):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        rc = main(["train", "--config", str(path), "--alpha", "0", "--beta", "0",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert len(line.split(",")) == 7
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "alpha,beta,seed,utility,fairness_gap,attack_balanced_acc,val_loss"
        assert len(results) == 2

    def test_baseline_shows_leakage(self, tmp_path):
        cfg = small_config()
        record, _ = pipeline.run_single(cfg, 0.0, 0.0, 0)
        assert record.triple.attack_balanced_acc > 0.5
        assert record.triple.fairness_gap > 0.0

    def test_rerun_replaces_row_and_keeps_others(self, tmp_path):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        pipeline.write_results(out / "results.csv", [], {(1.0, 1.0, 0): "RuntimeError: boom"})
        args = ["train", "--config", str(path), "--alpha", "0", "--beta", "0",
                "--seed", "0", "--out", str(out)]
        assert main(args) == 0
        first = (out / "results.csv").read_bytes()
        assert main(args) == 0
        assert (out / "results.csv").read_bytes() == first
        rows = first.decode().splitlines()
        assert len(rows) == 3  # header, the trained cell, the kept ERROR row
        assert rows[1].startswith("0.0,0.0,0,") and rows[2].startswith("1.0,1.0,0,ERROR")

    def test_weight_file_round_trip(self, tmp_path):
        cfg = small_config()
        ds = pipeline.load_dataset(cfg)
        record, trained = pipeline.run_single(cfg, 0.0, 1.0, 0, dataset=ds)
        path = tmp_path / "model.bin"
        save_bundle(trained.bundle, path)
        loaded = load_bundle(path)
        for a, b in zip(trained.bundle.main_params() + trained.bundle.adversary_params(),
                        loaded.main_params() + loaded.adversary_params()):
            assert np.array_equal(a, b)
        _, val_ds, test_ds = make_splits(ds, cfg.split, 0)
        triple = pipeline.evaluate_bundle(loaded, val_ds, test_ds, cfg)
        assert triple == record.triple

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_attacker_reported_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": {"n": 800}, "train": {"epochs": 1},
                                    "attacker_lr": 1e308, "attacker_iters": 50}))
        rc = main(["train", "--config", str(path), "--alpha", "0", "--beta", "0",
                   "--seed", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: attacker_lr:") and "diverged" in err

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_bundle(path)

    def test_csv_backed_config_trains(self, tmp_path):
        # gen-data, then point the experiment at the CSV (the ingestion path
        # for externally computed feature tables).
        gen_path = config_json(tmp_path)
        csv_path = tmp_path / "features.csv"
        assert main(["gen-data", "--config", str(gen_path), "--out", str(csv_path)]) == 0
        cfg = small_config(data=str(csv_path))
        record, _ = pipeline.run_single(cfg, 0.0, 0.0, 0)
        synthetic = pipeline.run_single(small_config(), 0.0, 0.0, 0)[0]
        assert record.triple == synthetic.triple  # CSV round trip is lossless

    def test_csv_positive_class_out_of_range_fails_before_training(self, tmp_path,
                                                                  monkeypatch):
        csv_path = tmp_path / "features.csv"
        assert main(["gen-data", "--config", str(config_json(tmp_path)),
                     "--out", str(csv_path)]) == 0
        cfg = small_config(data=str(csv_path), positive_class=7)
        cfg.validate()  # the CSV's class count is unknown at load

        def no_train(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(pipeline, "train", no_train)
        with pytest.raises(ConfigError, match="positive_class"):
            pipeline.run_single(cfg, 0.0, 0.0, 0)


class TestSweep:
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", str(config_json(tmp_path)), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_small_grid_rows_and_determinism(self, tmp_path):
        path = config_json(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", str(path), "--jobs", "1",
                     "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(path), "--jobs", "1",
                     "--out", str(out2)]) == 0
        rows = (out1 / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header + 2x2 grid x 1 seed
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        path = config_json(tmp_path)
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        main(["sweep", "--config", str(path), "--jobs", "1", "--out", str(out1)])
        main(["sweep", "--config", str(path), "--jobs", "2", "--out", str(out2)])
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_failed_run_markers_and_exit(self, tmp_path, monkeypatch):
        cfg = small_config()
        real = pipeline.run_single

        def flaky(config, alpha, beta, seed, dataset=None):
            if alpha == 1.0 and beta == 0.0:
                raise RuntimeError("boom")
            return real(config, alpha, beta, seed, dataset=dataset)

        monkeypatch.setattr(pipeline, "run_single", flaky)
        records, failures = pipeline.sweep(cfg, jobs=1)
        assert len(records) == 3 and list(failures) == [(1.0, 0.0, 0)]
        results = tmp_path / "results.csv"
        pipeline.write_results(results, records, failures)
        lines = results.read_text().splitlines()
        assert len(lines) == 5
        marker = [l for l in lines if "ERROR" in l]
        assert len(marker) == 1 and marker[0].startswith("1.0,0.0,0")
        loaded, failed = pipeline.load_results(results)
        assert len(loaded) == 3 and failed == [(1.0, 0.0, 0)]

    def test_dead_worker_keeps_finished_runs(self, tmp_path, monkeypatch, capsys):
        path = config_json(tmp_path)
        real = pipeline.run_single
        sweeper = os.getpid()

        def dies(config, alpha, beta, seed, dataset=None):
            if alpha == 1.0 and beta == 0.0:
                if os.getpid() == sweeper:
                    raise RuntimeError("must run in a pool worker")
                os._exit(1)  # the worker process dies, as if killed
            return real(config, alpha, beta, seed, dataset=dataset)

        monkeypatch.setattr(pipeline, "run_single", dies)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--jobs", "2",
                     "--out", str(out)]) == 1
        records, failed = pipeline.load_results(out / "results.csv")
        keys = sorted([r.key for r in records] + failed)
        assert keys == [(a, b, 0) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        assert (1.0, 0.0, 0) in failed
        assert "BrokenProcessPool" in capsys.readouterr().err


def synthetic_records(alphas, betas, seeds, rng):
    records = []
    for a in alphas:
        for b in betas:
            for s in seeds:
                records.append(RunRecord(a, b, s,
                                         MetricTriple(rng.random(), rng.random(),
                                                      rng.random()),
                                         rng.random()))
    return records


class TestAnalyze:
    def test_end_to_end_outputs(self, tmp_path):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--jobs", "2",
                     "--out", str(out)]) == 0
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        fmt = rep["single_metrics"]["formatted"]
        assert fmt["baseline_utility"].endswith("% (TPR)")
        assert fmt["baseline_fairness"].endswith("% (TPR Gap)")
        assert fmt["baseline_privacy"].endswith("(50%)")
        for entry in rep["tradeoffs"]["csr"]:
            assert entry["formatted"].count("%") == 1
            assert entry["alpha_group"] in "BLMH" and entry["beta_group"] in "BLMH"
        assert len(rep["runs"]) == 4
        # reduced grid {0, 1} populates B and H per axis -> 2x2 = 4 cells
        svg = (out / "heatmap_utility.svg").read_text()
        assert svg.count('class="cell"') == 4
        assert svg.count('class="cell-value"') == 4
        assert (out / "tables.txt").exists()

    def test_rerun_byte_identical(self, tmp_path):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        main(["sweep", "--config", str(path), "--jobs", "2", "--out", str(out)])
        main(["analyze", "--config", str(path), "--out", str(out)])
        first = {p.name: p.read_bytes() for p in out.glob("*")
                 if p.suffix in (".json", ".svg", ".txt")}
        main(["analyze", "--config", str(path), "--out", str(out)])
        second = {p.name: p.read_bytes() for p in out.glob("*")
                  if p.suffix in (".json", ".svg", ".txt")}
        assert first == second

    def test_incomplete_results_listed(self, tmp_path):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        cfg = load_config(path)
        records = synthetic_records([0.0], [0.0, 1.0], [0], np.random.default_rng(0))
        pipeline.write_results(out / "results.csv", records)
        rc = main(["analyze", "--config", str(path), "--out", str(out)])
        assert rc == 1

    def test_error_rows_fail_analyze(self, tmp_path, capsys):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        records = synthetic_records([0.0, 1.0], [0.0, 1.0], [0], np.random.default_rng(0))
        pipeline.write_results(out / "results.csv", records[:-1],
                               {(1.0, 1.0, 0): "boom"})
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 1
        assert "ERROR" in capsys.readouterr().err.upper()

    def test_full_grid_heatmap_has_16_cells(self):
        rng = np.random.default_rng(1)
        records = synthetic_records(grid_values(), grid_values(), [0], rng)
        grids = report.build_heatmaps(records)
        assert set(grids) == {"utility", "fairness_gap", "attack_balanced_acc"}
        for grid in grids.values():
            svg = report.heatmap_svg(grid)
            assert svg.count('class="cell"') == 16
            assert svg.count('class="cell-value"') == 16
            for label in "BLMH":
                assert f">{label}</text>" in svg

    def test_table_formats_match_reported_layout(self):
        # Table-style strings: "63.33% (TPR)" and "91.04% (H., H.)".
        records = [
            RunRecord(0.0, 0.0, s, MetricTriple(0.6333, 0.21, 0.7983), 0.3)
            for s in (0, 1, 2)
        ] + [
            RunRecord(10.0, 0.1, s, MetricTriple(0.70, 0.08, 0.6777), 0.3)
            for s in (0, 1, 2)
        ]
        cfg = small_config(utility_metric="tpr")
        rep = report.build_report(records, cfg, k_p=3)
        fmt = rep["single_metrics"]["formatted"]
        assert fmt["baseline_utility"] == "63.33% (TPR)"
        assert fmt["baseline_fairness"] == "21.00% (TPR Gap)"
        assert fmt["baseline_privacy"] == "79.83% (33%)"
        assert fmt["best_utility"] == "70.00%"
        for entry in rep["tradeoffs"]["csr"]:
            score, groups = entry["formatted"].split("% ")
            float(score)
            assert groups == f"({entry['alpha_group']}., {entry['beta_group']}.)"

    def test_dominating_record_scores_100(self):
        records = [RunRecord(0.0, 0.0, 0, MetricTriple(0.9, 0.0, 0.5), 0.1),
                   RunRecord(1.0, 1.0, 0, MetricTriple(0.5, 0.2, 0.9), 0.1)]
        cfg = small_config()
        rep = report.build_report(records, cfg, k_p=2)
        for entry in rep["tradeoffs"]["csr"]:
            assert entry["score"] == pytest.approx(100.0)


class TestAttackHygiene:
    def test_attacker_sees_only_validation_rows(self, monkeypatch):
        """Canary check: fit gets exactly the validation features, scoring
        gets exactly the test features, and the canary row sits only on the
        scoring side."""
        cfg = small_config()
        ds = pipeline.load_dataset(cfg)
        x = ds.x.copy()
        canary_idx = 17
        x[canary_idx] = 1e6  # unmistakable row
        ds = LabeledDataset(x, ds.y, ds.y_a, ds.y_p, ds.k_y, ds.k_a, ds.k_p)

        seed = next(s for s in range(50)
                    if canary_idx in np.flatnonzero(np.isin(
                        np.arange(len(ds)),
                        _test_indices(ds, cfg.split, s))))

        train_ds, val_ds, test_ds = make_splits(ds, cfg.split, seed)
        assert np.any(np.all(test_ds.x == x[canary_idx], axis=1))
        assert not np.any(np.all(val_ds.x == x[canary_idx], axis=1))

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
        _, trained = pipeline.run_single(cfg, 0.0, 0.0, seed, dataset=ds)

        expected_fit = trained.bundle.extractor.apply(val_ds.x)
        expected_score = trained.bundle.extractor.apply(test_ds.x)
        assert np.array_equal(seen["fit"], expected_fit)
        assert np.array_equal(seen["score"], expected_score)
        pos = np.flatnonzero(np.all(test_ds.x == x[canary_idx], axis=1))[0]
        canary_features = expected_score[pos]
        assert np.any(np.all(seen["score"] == canary_features, axis=1))
        assert not np.any(np.all(seen["fit"] == canary_features, axis=1))


def _test_indices(ds, split, seed):
    """Indices of the rows that land in the test split (via feature matching)."""
    _, _, test_ds = make_splits(ds, split, seed)
    idx = []
    for row in test_ds.x:
        matches = np.flatnonzero(np.all(ds.x == row, axis=1))
        idx.extend(matches.tolist())
    return np.unique(idx)
