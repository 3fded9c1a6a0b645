import copy
import csv
import dataclasses
import json
import math
import multiprocessing.connection
import os
import pickle
import re
import shlex
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fairpriv.analysis import METRICS, grid_values, result_cube, seed_medians
from fairpriv.cli import config, main, pipeline, report
from fairpriv.cli.config import (ConfigError, ExperimentConfig, from_dict, load_config,
                                 mild_correlation_joint)
from fairpriv.cli.modelio import MAGIC, VERSION, load_bundle, save_bundle
from fairpriv import cli, data, evaluation
from fairpriv.data import (LabeledDataset, SplitSpec, SyntheticSpec, load_csv,
                          make_splits)
from fairpriv.evaluation import fit_attacker
from fairpriv.learncore import Mlp
from fairpriv.training import ModelBundle, TrainConfig

import test_evaluation as oracle
from test_analysis import cube_of
from test_reference_reports import OUTPUTS as REPORT_FILES
from conftest import bundle_params, src_env


def diverging_fit(x, labels, k, class_weights, iters):
    """Stands in for fit_multinomial_logistic; fails as its non-finite guard does."""
    raise FloatingPointError("logistic fit diverged")


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


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str, text: str | None = None) -> str:
    """The first ```lang block in the ``## heading`` section of ``text`` (README's
    by default); a missing or blank block fails naming the heading."""
    if text is None:
        text = README.read_text(encoding="utf-8")
    section = re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    block = section and re.search(rf"^```{re.escape(lang)}\n(.*?)^```", section[1],
                                  re.M | re.S)
    if not block or not block[1].strip():
        pytest.fail(f"README.md has no ```{lang} block, or a blank one, under '## {heading}'")
    return block[1]


def readme_config() -> dict:
    return json.loads(readme_block("Configuration", "json"))


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
        cfg = ExperimentConfig()
        cfg.validate()
        assert len(cfg.alphas) == 11 and len(cfg.seeds) == 3
        assert cfg.split.train_mode == "exacerbated" and cfg.utility_metric == "tpr"
        assert not hasattr(config, "default_config")  # the class defaults are the defaults

    def test_load_round_trip(self, tmp_path):
        path = config_json(tmp_path)
        cfg = load_config(path)
        assert cfg.alphas == [0.0, 1.0]
        assert cfg.split.undersample_factor == 0.25
        assert cfg.train.epochs == 6

    @pytest.mark.parametrize("content, message", [
        (None, "No such file or directory"),
        (b"\xff\xfe" + '{"seeds": [0]}'.encode("utf-16-le"),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["missing", "not-utf-8"])
    def test_unreadable_config_names_path(self, tmp_path, capsys, content, message):
        # The decode error was printed without the path.
        path = tmp_path / "bad.json"
        if content is not None:
            path.write_bytes(content)
        expected = f"{path}: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            load_config(path)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "out").exists()

    def test_config_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        # The file used to be decoded with the locale's encoding, so under
        # LC_ALL=C a UTF-8 "é" failed as an uncaught UnicodeDecodeError.
        path = tmp_path / "config.json"
        path.write_bytes('{"output_dir": "rés"}'.encode("utf-8"))
        env = dict(src_env(), PYTHONUTF8="0", LC_ALL="C")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from fairpriv.cli.config import load_config; "
             "print(ascii(load_config(sys.argv[1]).output_dir))", str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "'r\\xe9s'\n"

    def test_byte_order_mark_skipped(self, tmp_path):
        # It used to fail as "not valid JSON (Unexpected UTF-8 BOM ...)".
        plain, marked = config_json(tmp_path), tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_config(marked) == load_config(plain)

    @pytest.mark.parametrize("grid", [{"alphas": [-0.0]}, {"alphas": [1.0], "betas": [-0.0]}])
    def test_negative_zero_grid_value_stored_as_zero(self, grid):
        # -0.0 used to reach results.csv and report.json as "-0.0".
        cfg = from_dict({"grid": grid})
        assert [math.copysign(1.0, v) for v in cfg.alphas + cfg.betas] \
            == [1.0] * len(cfg.alphas + cfg.betas)

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
        # A CSV source is its path string; the {"kind": "csv", "path": ...}
        # spelling it once also had fails at load and names the string form.
        path = str(tmp_path / "feats.csv")
        assert main(["gen-data", "--config", str(config_json(tmp_path)), "--out", path]) == 0
        assert from_dict({"data": path}).data == path
        with pytest.raises(ConfigError, match="^" + re.escape(
                "data.kind: must be 'synthetic', got 'csv'; a CSV source is written as "
                "its path string") + "$"):
            from_dict({"data": {"kind": "csv", "path": path}})

    def test_csv_without_fairpriv_header_fails_at_load(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match=f"^data: {re.escape(str(path))}: header "):
            from_dict({"data": str(path)})

    @pytest.mark.parametrize("value", [0, -3, 2.0, True, "100"])
    def test_attacker_iters_must_be_positive_int(self, value):
        # 0 iterations used to report an untrained attacker's chance accuracy.
        with pytest.raises(ConfigError, match="attacker_iters"):
            from_dict({"attacker_iters": value})

    @pytest.mark.parametrize("key", ["attacker_lr", "positive_class", "csr_weights",
                                     "csr_over_seed_medians",
                                     "correlations_over_seed_medians"])
    @pytest.mark.parametrize("value", [1.0, 0.5, 1e308, float("nan"), "1", False, 1, None,
                                       True, [[1, 0, 0]]], ids=repr)
    def test_removed_key_fails_at_load_by_name(self, key, value):
        # The attacker's step size is fixed at 1.0, under "tpr" the utility is
        # the TPR of the highest task class, the report ranks by the three
        # CSR_WEIGHTS, and it always holds both tradeoff views; none of these is
        # a setting any more.
        with pytest.raises(ConfigError, match=rf"^unknown field\(s\): \['{key}'\]$"):
            from_dict({key: value})
        assert key not in {f.name for f in dataclasses.fields(ExperimentConfig)}

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
        ("output_dir", 5),
        ("train.alpha", 1.0),
        ("train.dropout", 0.5),
        ("train.switch_period", 1),  # removed: updates alternate every other batch
        ("train.select_by", "classifier-ce"),  # removed: selection is by classifier CE
        ("split.shuffle", True),
        ("data.k_z", 2),
        ("data.kind", {"kind": "csv", "path": "d.csv"}),
        ("data.d_y", 1),
        ("data", "missing.csv"),
    ], ids=lambda v: (v.removeprefix("train.") if isinstance(v, str)
                      else v["kind"] if isinstance(v, dict) else None))
    def test_bad_train_field_rejected_at_load(self, tmp_path, capsys, field, value):
        # Each of these used to load and then fail every sweep cell, load as
        # something else (seeds [1.5] as [1]), or escape as a bare TypeError. A
        # dict value is the whole data section. (IDs drop "train." to stay those
        # of the rows the table began with.)
        path = config_json(tmp_path)
        raw = json.loads(path.read_text())
        *section, key = field.split(".")
        if isinstance(value, dict):
            raw["data"] = value
        else:
            (raw[section[0]] if section else raw)[key] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"^{field}:"):
            load_config(path)
        assert main(["gen-data", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err

    @pytest.mark.parametrize("value, message", [
        ("abc", "could not convert string to float: 'abc'"),
        ("nan", "x1 must be finite, got nan"),
    ], ids=["non-numeric", "non-finite"])
    def test_bad_csv_feature_fails_at_load(self, tmp_path, capsys, value, message):
        # Config load used to read only the labels, so every run failed instead.
        csv_path = tmp_path / "features.csv"
        data.save_csv(data.generate(SyntheticSpec(n=44, d_noise=0, seed=0)), csv_path)
        lines = csv_path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = value
        lines[3] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        want = f"data: {csv_path}:4: {message}"
        path = config_json(tmp_path, data=str(csv_path))
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            load_config(path)
        assert main(["sweep", "--config", str(path), "--jobs", "1"]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw, message", [
        ({"data": {"n": 30}},
         "split.test_fraction: 0.2 of 30 rows yields 6 test rows, fewer than the 8 trio cells"),
        ({"data": {"n": 800}, "split": {"test_mode": "as-is", "test_fraction": 0.001}},
         "split.test_fraction: 0.001 of 800 rows yields 0 test rows"),
        ({"data": {"n": 800}, "split": {"val_fraction": 0.001}},
         "split.val_fraction: 0.001 of 800 rows yields 0 validation rows"),
        ({"data": "rows30.csv"},
         "split.test_fraction: 0.2 of 30 rows yields 6 test rows, fewer than the 8 trio cells"),
    ], ids=["trio-cells", "no-test-row", "no-validation-row", "csv"])
    def test_split_sizes_checked_at_load(self, tmp_path, monkeypatch, capsys, raw, message):
        # Each used to load and then fail every run of a sweep; the empty
        # validation split as "validation split: y_p lacks class(es) [0, 1]",
        # and the CSV, whose rows were counted only when a run loaded it, as
        # one "FAILED ... ValueError: test_fraction: ..." line per run.
        monkeypatch.chdir(tmp_path)
        data.save_csv(data.generate(SyntheticSpec(n=30)), "rows30.csv")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            from_dict(raw)
        path = config_json(tmp_path, **raw)
        assert main(["sweep", "--config", str(path), "--jobs", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def short_cell_csv(path) -> int:
        """Write a CSV whose trio cell (0, 1, 0) keeps 3 of its rows; its row count."""
        ds = data.generate(SyntheticSpec(n=800, seed=0))
        cell = np.flatnonzero((ds.y == 0) & (ds.y_a == 1) & (ds.y_p == 0))
        data.save_csv(ds.subset(np.setdiff1d(np.arange(len(ds)), cell[3:])), path)
        return len(ds) - len(cell) + 3

    @pytest.mark.parametrize("source", ["small-cell", "zero-cell", "csv"])
    def test_short_trio_cell_fails_at_load(self, tmp_path, monkeypatch, capsys, source):
        # A joint's small cell, or a CSV's, used to load, and then every run of a
        # sweep failed in make_splits; a zero cell failed at load naming data.joint.
        if source == "csv":
            rows = self.short_cell_csv(tmp_path / "short.csv")
            raw, have, need = {"data": str(tmp_path / "short.csv")}, 3, int(0.2 * rows) // 8
        else:
            joint = mild_correlation_joint()
            joint[0, 1, 0] = 0.001 if source == "small-cell" else 0.0
            raw = {"data": {"joint": (joint / joint.sum()).tolist()}}
            have, need = (9 if source == "small-cell" else 0), 200
        message = (f"split.test_mode: cell (y=0, y_a=1, y_p=0) has {have} rows, need {need} "
                   "for a trio-balanced test split")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            from_dict(raw)
        monkeypatch.setattr(pipeline, "run_single", TestSweep.refuse)
        assert main(["sweep", "--config", str(config_json(tmp_path, **raw)), "--jobs", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_field_fails_before_data_work(self, monkeypatch):
        # The missing CSV is not read: train.epochs fails first.
        def no_data(config):
            raise AssertionError("the dataset was built for a bad field")

        monkeypatch.setattr(pipeline, "load_dataset", no_data)
        with pytest.raises(ConfigError, match="^train.epochs: "):
            from_dict({"data": "missing.csv", "train": {"epochs": 0}})

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
        cfg, expected = from_dict({section: fields}), ExperimentConfig()
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
        assert from_dict({"data": {"seed": 4}}).data.n == ExperimentConfig().data.n

    def test_readme_example_loads_to_defaults(self):
        # It lists exactly the keys from_dict accepts: ExperimentConfig's fields,
        # with alphas and betas under grid, and in data, split and train exactly
        # the fields of the types they load into.
        def names(spec):
            return {f.name for f in dataclasses.fields(spec)}

        raw = readme_config()
        assert set(raw) == names(ExperimentConfig) - {"alphas", "betas"} | {"grid"}
        for section, spec, extra in (("data", SyntheticSpec, {"kind"}),
                                     ("split", SplitSpec, set()), ("train", TrainConfig, set())):
            assert set(raw[section]) == names(spec) | extra, section
        cfg, default = from_dict(raw), ExperimentConfig()
        assert np.allclose(cfg.data.joint, default.data.joint)
        cfg.data.joint = default.data.joint
        assert cfg == default

    def test_configs_compare_by_value(self):
        # The joint is nested lists both in ExperimentConfig() and after a load,
        # so == compares values instead of asking an array for its truth value.
        assert from_dict({}) == ExperimentConfig()
        assert from_dict(readme_config()) == from_dict(readme_config())
        assert from_dict({"data": {"joint": None}}) != ExperimentConfig()

    # A valid value for each TrainConfig field, other than its default and
    # than the base run's 2 epochs.
    TRAIN_VALUES = {"epochs": 3, "batch_size": 32, "lr": 0.003, "feature_dim": 6,
                    "extractor_hidden": [16], "adversary_hidden": [16]}

    def test_every_train_field_reaches_the_run(self, tmp_path):
        # A field that loads but that no run reads would leave both unchanged.
        def run(name, fields):
            cfg = from_dict({"data": {"n": 800}, "train": {"epochs": 2, **fields},
                             "attacker_iters": 1})
            record, trained = pipeline.run_single(cfg, 1.0, 1.0, 0)
            save_bundle(trained.bundle, tmp_path / f"{name}.bin")
            return cfg, (tmp_path / f"{name}.bin").read_bytes(), record.val_loss

        assert {field.name for field in dataclasses.fields(TrainConfig)} == set(self.TRAIN_VALUES)
        _, base_bytes, base_loss = run("base", {})
        for field in dataclasses.fields(TrainConfig):
            value = self.TRAIN_VALUES[field.name]
            cfg, model_bytes, val_loss = run(field.name, {field.name: value})
            assert getattr(cfg.train, field.name) != field.default
            assert model_bytes != base_bytes or val_loss != base_loss, field.name

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

    def test_missing_top_class_rejected_before_writing(self, tmp_path, capsys):
        # load_csv would read the file back with k_p = 2, and the attack's
        # chance level would be 1/2 instead of 1/3.
        joint = np.zeros((2, 2, 3))
        joint[..., :2] = 0.125
        path = config_json(tmp_path, data={"kind": "synthetic", "n": 400, "k_p": 3,
                                           "joint": joint.tolist()},
                           split={"test_mode": "as-is"})  # trio-balanced rejects the zeros
        out = tmp_path / "d.csv"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: y_p lacks class(es) [2] of k_p = 3; a dataset CSV takes each class "
            "count from its largest label (at least 2) and needs a row of every class\n")
        assert not out.exists()

    def test_csv_config_has_nothing_to_generate(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        assert main(["gen-data", "--config", str(config_json(tmp_path)),
                     "--out", str(csv_path)]) == 0
        path = config_json(tmp_path, data=str(csv_path))
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "e.csv")]) == 1
        assert capsys.readouterr().err == ("error: data: config points at a CSV; "
                                           "nothing to generate\n")
        assert not (tmp_path / "e.csv").exists()

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
        assert record.attack_balanced_acc > 0.5
        assert record.fairness_gap > 0.0

    def test_rerun_replaces_row_and_keeps_others(self, tmp_path):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        pipeline.write_results(out / "results.csv", {(1.0, 1.0, 0): "RuntimeError: boom"})
        args = ["train", "--config", str(path), "--alpha", "0", "--beta", "0",
                "--seed", "0", "--out", str(out)]
        assert main(args) == 0
        first = (out / "results.csv").read_bytes()
        assert main(args) == 0
        assert (out / "results.csv").read_bytes() == first
        rows = first.decode().splitlines()
        assert len(rows) == 3  # header, the trained cell, the kept ERROR row
        assert rows[1].startswith("0.0,0.0,0,") and rows[2].startswith("1.0,1.0,0,ERROR")

    def test_rerun_replaces_its_own_error_row(self, tmp_path, capsys):
        # The trained key's ERROR row takes the run's values; every other row,
        # another key's ERROR row included, keeps its bytes.
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        records = synthetic_records([0.0, 1.0], [0.0, 1.0], [0], np.random.default_rng(0))
        pipeline.write_results(out / "results.csv", outcomes_of(
            records[1:-1], {(0.0, 0.0, 0): "RuntimeError: boom", (1.0, 1.0, 0): "boom"}))
        before = (out / "results.csv").read_text().splitlines()
        assert before[1] == "0.0,0.0,0,ERROR,ERROR,ERROR,ERROR" and len(before) == 5
        assert main(["train", "--config", str(path), "--alpha", "0", "--beta", "0",
                     "--seed", "0", "--out", str(out)]) == 0
        row = capsys.readouterr().out.splitlines()[0]
        assert row.startswith("0.0,0.0,0,") and "ERROR" not in row
        after = (out / "results.csv").read_text().splitlines()
        assert after == before[:1] + [row] + before[2:]

    def test_negative_zero_key_is_the_zero_key(self, tmp_path):
        # --alpha -0 used to rewrite the sweep's "0.0,0.0,0" row as "-0.0,0.0,0"
        # and save model_a-0_b0_s0.bin.
        path = config_json(tmp_path, grid={"alphas": [0.0], "betas": [0.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--jobs", "1"]) == 0
        swept = (out / "results.csv").read_bytes()
        assert main(["train", "--config", str(path), "--alpha", "-0", "--beta", "-0.0",
                     "--seed", "0"]) == 0
        assert (out / "results.csv").read_bytes() == swept
        assert sorted(p.name for p in out.iterdir()) == ["model_a0_b0_s0.bin", "results.csv"]

    @staticmethod
    def declared_nets(path):
        """Each net's declared layer sizes and float values, read straight from a model file."""
        buf = path.read_bytes()
        offset, nets = 12, []  # past the magic and the version
        for _ in range(4):
            (count,) = struct.unpack_from("<I", buf, offset)
            sizes = list(struct.unpack_from(f"<{count}I", buf, offset + 4))
            offset += 4 * (count + 1)
            n = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
            nets.append((sizes, np.frombuffer(buf, "<f8", n, offset)))
            offset += 8 * n
        assert offset == len(buf)
        return nets

    @pytest.mark.parametrize("data", [
        None, SyntheticSpec(n=1600, k_a=3, seed=0)], ids=["k_a=2", "k_a=3"])
    def test_weight_file_round_trip(self, tmp_path, data):
        # With k_a != k_p training pads the heads' output layers; the file must not show it.
        cfg = small_config(**({"data": data} if data else {}))
        ds = pipeline.load_dataset(cfg)
        record, trained = pipeline.run_single(cfg, 0.0, 1.0, 0)
        path = tmp_path / "model.bin"
        save_bundle(trained.bundle, path)
        b = trained.bundle
        nets = self.declared_nets(path)
        assert [sizes for sizes, _ in nets] == [
            net.layer_sizes for net in (b.extractor, b.classifier, b.fairness_adv, b.privacy_adv)]
        assert [sizes[-1] for sizes, _ in nets[1:]] == [ds.k_y, ds.k_a, ds.k_p]
        assert all(np.all(np.isfinite(values)) for _, values in nets)
        loaded = load_bundle(path)
        for a, b in zip(bundle_params(trained.bundle), bundle_params(loaded)):
            assert np.array_equal(a, b)
        _, val_ds, test_ds = make_splits(ds, cfg.split, 0)
        metrics = pipeline.evaluate_bundle(loaded, val_ds, test_ds, cfg)
        assert metrics == {name: getattr(record, name) for name in METRICS}

    def test_diverged_attacker_reported_without_traceback(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(evaluation, "fit_multinomial_logistic", diverging_fit)
        rc = main(["train", "--config", str(config_json(tmp_path)), "--alpha", "0",
                   "--beta", "0", "--seed", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: logistic fit diverged\n"
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "error: seed: must be an integer >= 0, got -1"),
        ("--alpha", "nan", "error: alpha: must be a finite number >= 0, got nan"),
    ], ids=["seed", "alpha"])
    def test_bad_run_argument_fails_before_data_work(self, tmp_path, capsys, monkeypatch,
                                                     flag, value, message):
        def no_split(ds, split, seed):
            raise AssertionError("the dataset was split for a bad run argument")

        monkeypatch.setattr(pipeline, "make_splits", no_split)
        args = {"--alpha": "0", "--beta": "0", "--seed": "0", flag: value}
        rc = main(["train", "--config", str(config_json(tmp_path)),
                   "--out", str(tmp_path / "out"), *[x for kv in args.items() for x in kv]])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"

    def test_test_split_missing_sensitive_class_fails_before_training(self, monkeypatch):
        # With one sensitive group, the fairness gap would read 0.0, "perfectly fair".
        cfg = small_config()
        train_ds, val_ds, test_ds = make_splits(pipeline.load_dataset(cfg), cfg.split, 0)
        one_group = test_ds.subset(np.flatnonzero(test_ds.y_a == 0))

        def no_train(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(pipeline, "make_splits", lambda *args: (train_ds, val_ds, one_group))
        monkeypatch.setattr(pipeline, "train", no_train)
        with pytest.raises(ValueError) as info:
            pipeline.run_single(cfg, 0.0, 0.0, 0)
        assert str(info.value) == "test split: y_a lacks class(es) [1] of k_a = 2"

    def test_test_split_missing_private_class_fails_in_cli(self, tmp_path, capsys):
        # y_p class 2 has probability 0, so an as-is test split never holds it: the
        # balanced attack accuracy would average 2 recalls against a chance level of 1/3.
        joint = np.zeros((2, 2, 3))
        joint[:, :, :2] = 0.125
        path = config_json(tmp_path, data={"n": 800, "k_p": 3, "joint": joint.tolist()},
                           split={"test_mode": "as-is"})
        rc = main(["train", "--config", str(path), "--alpha", "0", "--beta", "0",
                   "--seed", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: test split: y_p lacks class(es) [2] of k_p = 3\n"
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_validation_split_missing_private_class_fails_before_training(self, monkeypatch):
        # The attacker's reweighting would fail on it, but only after training.
        cfg = small_config()
        train_ds, val_ds, test_ds = make_splits(pipeline.load_dataset(cfg), cfg.split, 0)
        no_class_1 = val_ds.subset(np.flatnonzero(val_ds.y_p != 1))

        def no_train(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(pipeline, "make_splits", lambda *args: (train_ds, no_class_1, test_ds))
        monkeypatch.setattr(pipeline, "train", no_train)
        with pytest.raises(ValueError) as info:
            pipeline.run_single(cfg, 0.0, 0.0, 0)
        assert str(info.value) == "validation split: y_p lacks class(es) [1] of k_p = 2"

    def test_tpr_rows_missing_sensitive_class_fail_before_training(self, monkeypatch):
        # Every row with y = 1 has y_a = 0: the TPR gap has one group, which
        # utility_and_gap used to reject only after training.
        joint = [[[0.25, 0.25], [0.0, 0.25]], [[0.0, 0.25], [0.0, 0.0]]]
        cfg = small_config(data=SyntheticSpec(n=1600, joint=joint, seed=0),
                           split=SplitSpec(test_mode="as-is"))

        def no_train(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(pipeline, "train", no_train)
        with pytest.raises(ValueError) as info:
            pipeline.run_single(cfg, 0.0, 0.0, 0)
        assert str(info.value) == "test split: rows with y = 1: y_a lacks class(es) [1] of k_a = 2"
        cfg.utility_metric = "accuracy"  # counts every row, and both groups have some
        with pytest.raises(AssertionError, match="^train must not run$"):
            pipeline.run_single(cfg, 0.0, 0.0, 0)

    @pytest.mark.parametrize("metric", ["accuracy", "tpr"])
    def test_metrics_match_oracle(self, metric):
        # The metrics before class_rates replaced them, on the trained model's
        # predictions; tpr scores the highest task class.
        cfg = small_config(utility_metric=metric)
        _, val_ds, test_ds = make_splits(pipeline.load_dataset(cfg), cfg.split, 0)
        record, trained = pipeline.run_single(cfg, 1.0, 1.0, 0)
        bundle = trained.bundle
        features = bundle.extractor.apply(test_ds.x)
        preds = np.argmax(bundle.classifier.apply(features), axis=1)
        if metric == "tpr":
            pos = test_ds.k_y - 1
            utility = oracle.tpr(preds, test_ds.y, pos)
        else:
            pos = None
            utility = oracle.accuracy(preds, test_ds.y)
        gap = oracle.group_gap(preds, test_ds.y, test_ds.y_a, metric, pos)
        attacker = fit_attacker(bundle.extractor.apply(val_ds.x), val_ds.y, val_ds.y_p,
                                iters=cfg.attacker_iters, k_y=val_ds.k_y, k_p=val_ds.k_p)
        attack = oracle.balanced_accuracy(attacker.predict(features, test_ds.y), test_ds.y_p,
                                          test_ds.k_p)
        assert (record.utility, record.fairness_gap, record.attack_balanced_acc) == (
            utility, gap, attack)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_bundle(path)

    @pytest.mark.parametrize("sizes, match", [
        ((2 ** 31, 2 ** 31), "truncated model file while reading weights"),  # 2**65 bytes
        ((4, 0), "layer size of 0"),
        ((4,), "model file declares 1 layer sizes, need >= 2"),
    ])
    def test_bad_layer_sizes_rejected_before_reading(self, tmp_path, sizes, match):
        path = tmp_path / "model.bin"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(sizes))
                         + struct.pack(f"<{len(sizes)}I", *sizes) + b"\x00" * 64)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{match}"):
            load_bundle(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda buf: buf + b"\x00", "trailing bytes after bundle"),
        (lambda buf: MAGIC + struct.pack("<I", 2) + buf[12:], "unsupported format version 2"),
        (lambda buf: buf[:10], "truncated model file while reading version"),
    ], ids=["trailing-bytes", "version-2", "truncated-version"])
    def test_bundle_errors_name_path(self, tmp_path, edit, message):
        nets = [Mlp([np.ones((i, o))], [np.ones((1, o))]) for i, o in
                ((3, 2), (2, 2), (4, 2), (4, 2))]  # extractor, classifier, both heads
        path = tmp_path / "model.bin"
        save_bundle(ModelBundle(*nets), path)
        assert load_bundle(path).classifier.layer_sizes == [2, 2]
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
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
        assert record == synthetic  # CSV round trip is lossless

    def test_non_finite_csv_feature_fails_by_name(self, tmp_path, capsys):
        # It used to train into a RuntimeWarning and a non-finite loss at epoch 0;
        # config load now reads the features, and names the source.
        csv_path = tmp_path / "features.csv"
        assert main(["gen-data", "--config", str(config_json(tmp_path)),
                     "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        fields = lines[6].split(",")
        fields[2] = "nan"
        lines[6] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        path = config_json(tmp_path, data=str(csv_path))
        assert main(["train", "--config", str(path), "--alpha", "0", "--beta", "0",
                     "--seed", "0"]) == 1
        assert capsys.readouterr().err == (f"error: data: {csv_path}:7: x2 must be finite, "
                                           "got nan\n")

    def test_csv_missing_class_fails_at_load(self, tmp_path, capsys):
        # Every y_p of 1 becomes 2, so the file's last row still holds a full
        # feature vector while y_p class 1 of k_p = 3 has no row left.
        csv_path = tmp_path / "features.csv"
        gen = config_json(tmp_path, data={"n": 300, "k_p": 3,
                                          "joint": np.full((2, 2, 3), 1 / 12).tolist()})
        assert main(["gen-data", "--config", str(gen), "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join([lines[0]] + [re.sub(",1$", ",2", line)
                                                    for line in lines[1:]]) + "\n")
        path = config_json(tmp_path, data=str(csv_path))
        assert main(["sweep", "--config", str(path), "--jobs", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: data: {csv_path}: y_p lacks class(es) [1] of k_p = 3; a dataset CSV "
            "takes each class count from its largest label (at least 2) and needs a row "
            "of every class\n")
        assert not (tmp_path / "out").exists()  # it failed at load

    def test_malformed_results_file_fails_before_training(self, tmp_path, monkeypatch, capsys):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "results.csv").write_text("not,a,results,file\n")

        def no_train(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(pipeline, "train", no_train)
        assert main(["train", "--config", str(path), "--alpha", "0", "--beta", "0",
                     "--seed", "0", "--out", str(out)]) == 1
        assert "unexpected header ['not', 'a', 'results', 'file']" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["results.csv"]  # no model file
        assert (out / "results.csv").read_text() == "not,a,results,file\n"


class TestResultsFile:
    def test_columns_are_run_record_fields(self):
        assert [f.name for f in dataclasses.fields(pipeline.RunRecord)] == pipeline.RESULTS_HEADER
        assert pipeline.RESULTS_HEADER[3:-1] == list(METRICS)

    def test_byte_order_mark_skipped(self, tmp_path):
        # It used to fail as "unexpected header ['\\ufeffalpha', ...]".
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        records = synthetic_records([0.0, 1.0], [0.0], [0], np.random.default_rng(1))
        pipeline.write_results(plain, outcomes_of(records, {(1.0, 1.0, 0): "RuntimeError: boom"}))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert pipeline.load_results(marked) == pipeline.load_results(plain)
        assert len(records_of(pipeline.load_results(plain))) == 2

    def test_failed_write_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "results.csv"
        old, new = synthetic_records([0.0], [0.0], [0, 1], np.random.default_rng(0))
        pipeline.write_results(path, outcomes_of([old], {(1.0, 1.0, 0): "RuntimeError: boom"}))
        before = path.read_bytes()
        real_writer = csv.writer

        class FullDisk:  # a csv writer whose second row finds the disk full
            def __init__(self, fh):
                self.inner, self.rows = real_writer(fh), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 2:
                    raise OSError(28, "No space left on device")
                return self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", FullDisk)
        with pytest.raises(OSError, match="No space left"):
            pipeline.append_result(path, new)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["results.csv"]

    @pytest.mark.parametrize("column, cell, message", [
        ("seed", "x", "must be an integer, got 'x'"),
        ("alpha", "one", "must be a finite number, got 'one'"),
        ("utility", "", "must be a finite number, got ''"),
        ("fairness_gap", "nan", "must be a finite number, got 'nan'"),
        ("val_loss", "-inf", "must be a finite number, got '-inf'"),
        ("utility", "ERROR", "must be a finite number, got 'ERROR'"),
    ], ids=["seed-x", "alpha-one", "utility-empty", "fairness_gap-nan", "val_loss-inf",
            "utility-ERROR"])
    def test_bad_field_fails_by_name(self, tmp_path, capsys, column, cell, message):
        # A seed "x" used to fail with no file or line; a nan metric loaded,
        # and analyze wrote a report.json that was not JSON before it failed.
        # One ERROR cell among numbers used to load the row as a failed run,
        # which train then rewrote as a whole ERROR row, dropping its numbers.
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        results = out / "results.csv"
        records = synthetic_records([0.0, 1.0], [0.0, 1.0], [0], np.random.default_rng(0))
        pipeline.write_results(results, outcomes_of(records))
        lines = results.read_text().splitlines()
        row = lines[2].split(",")
        row[pipeline.RESULTS_HEADER.index(column)] = cell
        lines[2] = ",".join(row)
        results.write_text("\n".join(lines) + "\n")
        expected = f"{results}:3: {column}: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            pipeline.load_results(results)
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("copied, key", [(2, "alpha=0, beta=0, seed=0"),
                                             (5, "alpha=1, beta=1, seed=0")],
                             ids=["record", "error-row"])
    def test_duplicate_row_names_both_lines(self, tmp_path, capsys, copied, key):
        # A repeated key used to fail as "duplicate record for (0.0, 0.0, 0)",
        # naming neither the file nor a line.
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        results = out / "results.csv"
        records = synthetic_records([0.0, 1.0], [0.0, 1.0], [0], np.random.default_rng(0))
        pipeline.write_results(results, outcomes_of(records[:-1], {(1.0, 1.0, 0): "boom"}))
        lines = results.read_text().splitlines()
        results.write_text("\n".join(lines + [lines[copied - 1]]) + "\n")
        expected = f"{results}:6: duplicate of line {copied} ({key})"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            pipeline.load_results(results)
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("content, message", [
        ("alpha,beta,seed,utility,fairness_gap,attack_balanced_acc,val_loss\n"
         f"0.0,0.0,0,{'1' * 200000},0.1,0.5,0.3\n".encode(),
         "field larger than field limit (131072)"),
        (b"\xff\xfe" + "alpha,beta\n".encode("utf-16-le"),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["huge-field", "not-utf-8"])
    def test_unreadable_file_names_path(self, tmp_path, capsys, content, message):
        # The huge field ended in an uncaught csv traceback, and the decode
        # error was printed without the path.
        out = tmp_path / "out"
        out.mkdir()
        results = tmp_path / "results.csv"
        results.write_bytes(content)
        expected = f"{results}: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            pipeline.load_results(results)
        assert main(["analyze", "--out", str(out), "--results", str(results)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (out / "report.json").exists()

    def test_error_row_key_is_checked(self, tmp_path):
        results = tmp_path / "results.csv"
        pipeline.write_results(results, {(1.0, 0.0, 0): "boom"})
        results.write_text(results.read_text().replace("1.0,0.0,0,", "1.0,0.0,zero,"))
        with pytest.raises(ValueError, match=r":2: seed: must be an integer, got 'zero'$"):
            pipeline.load_results(results)


class TestReadme:
    def test_library_example_runs(self, tmp_path):
        # A drift in the documented imports or in pipeline.run_single fails here.
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", readme_block("Library use", "python")],
            capture_output=True, text=True, env=src_env(), cwd=tmp_path, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_cli_lines_parse(self):
        # Each documented command line parses, and together they show every subcommand.
        parser = cli._build_parser()
        commands = [shlex.split(line) for line in readme_block("CLI", "bash").splitlines()
                    if line.startswith("fairpriv ")]
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README's CLI line does not parse: {shlex.join(argv)}")
        assert {argv[1] for argv in commands} == set(cli._COMMANDS)

    @pytest.mark.parametrize("text", [
        "## Library use\n\nNo code here.\n",
        "## Library use\n\n```python\n\n```\n",
        "## Library use\n\n```bash\nfairpriv sweep\n```\n\n## Next\n\n```python\nx = 1\n```\n",
    ], ids=["no-block", "blank-block", "block-under-next-heading"])
    def test_missing_or_blank_block_fails(self, text):
        # An empty block would run as an empty program and pass.
        with pytest.raises(pytest.fail.Exception, match="'## Library use'"):
            readme_block("Library use", "python", text)


class TestMixedClassCounts:
    """k_y, k_a and k_p all differ, a layout no benchmark workload trains: the
    heads' output layers are padded to max(k_y, k_a, k_p) columns. pyproject's
    filterwarnings makes a warning an error here and in the forked sweep workers."""

    @staticmethod
    def sweep(config_path, out, capsys) -> str:
        assert main(["sweep", "--config", str(config_path), "--out", str(out), "--jobs", "2"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("metric", ["tpr", "accuracy"])  # no benchmark scores accuracy
    def test_sweep_train_csv_and_analyze_agree(self, tmp_path, capsys, metric):
        uniform = [[[1 / 24] * 4] * 2] * 3  # k_y x k_a x k_p
        raw = {"data": {"n": 1200, "k_y": 3, "k_a": 2, "k_p": 4, "joint": uniform},
               "train": {"epochs": 2}, "grid": {"alphas": [0.0, 1.0], "betas": [0.0, 1.0]},
               "seeds": [0], "attacker_iters": 200, "utility_metric": metric}
        config_path, out = tmp_path / "config.json", tmp_path / "out"
        config_path.write_text(json.dumps(raw))
        assert self.sweep(config_path, out, capsys).startswith("4 runs ok, 0 failed -> ")
        swept = (out / "results.csv").read_bytes()
        # The one-cell command rewrites the (1, 1, 0) row in place, with the
        # sweep's bytes, and its model file keeps every head's width.
        assert main(["train", "--config", str(config_path), "--out", str(out),
                     "--alpha", "1", "--beta", "1", "--seed", "0"]) == 0
        assert (out / "results.csv").read_bytes() == swept
        bundle = load_bundle(out / "model_a1_b1_s0.bin")
        assert [net.layer_sizes[-1] for net in (bundle.classifier, bundle.fairness_adv,
                                                bundle.privacy_adv)] == [3, 2, 4]
        # The same rows as a CSV dataset, whose class counts come from its
        # labels: its sweep scores the same TPR class (2 of k_y = 3), byte for byte.
        data_csv, csv_config, csv_out = (tmp_path / name for name in
                                         ("data.csv", "csv_config.json", "csv"))
        assert main(["gen-data", "--config", str(config_path), "--out", str(data_csv)]) == 0
        csv_config.write_text(json.dumps({**raw, "data": str(data_csv)}))
        self.sweep(csv_config, csv_out, capsys)
        assert (csv_out / "results.csv").read_bytes() == swept
        # The CSV config's analyze reads k_p (so the chance level, 1/4) from the
        # CSV's labels: its report, tables and heatmaps are the same bytes.
        for path, where in ((config_path, out), (csv_config, csv_out)):
            assert main(["analyze", "--config", str(path), "--out", str(where)]) == 0
        for name in REPORT_FILES:
            assert (csv_out / name).read_bytes() == (out / name).read_bytes(), name
        # Both tradeoff views, over the runs and over seed medians, with the same keys.
        rep = json.loads((out / "report.json").read_text())
        pooled, medians = rep["tradeoffs"], rep["tradeoffs_over_seed_medians"]
        assert set(pooled) == set(medians)
        assert set(pooled["correlations"]) == set(medians["correlations"])
        assert [e.keys() for e in pooled["csr"]] == [e.keys() for e in medians["csr"]]
        tables = (out / "tables.txt").read_text().splitlines()
        assert "Tradeoffs" in tables and "Tradeoffs over seed medians" in tables

    def test_nine_private_classes(self, tmp_path, capsys):
        # A 9-wide padded head, and the attacker's softmax reducing over more
        # classes than numpy's row sum adds in order.
        uniform = [[[1 / 36] * 9] * 2] * 2  # k_y x k_a x k_p
        config_path, out = tmp_path / "config.json", tmp_path / "out"
        config_path.write_text(json.dumps({
            "data": {"n": 1200, "k_p": 9, "d_p": 9, "joint": uniform}, "train": {"epochs": 2},
            "grid": {"alphas": [1.0], "betas": [1.0]}, "seeds": [0], "attacker_iters": 200}))
        assert self.sweep(config_path, out, capsys).startswith("1 runs ok, 0 failed -> ")
        assert main(["analyze", "--config", str(config_path), "--out", str(out)]) == 0


class TestModuleEntryPoint:
    """``python -m fairpriv`` runs the CLI and passes its exit code on."""

    def run(self, *args):
        return subprocess.run([sys.executable, "-m", "fairpriv", *args],
                              capture_output=True, text=True, env=src_env(), timeout=120)

    def test_help(self):
        proc = self.run("--help")
        assert proc.returncode == 0, proc.stderr
        assert "analyze" in proc.stdout

    def test_usage_error_exits_2(self):
        proc = self.run("sweep", "--jobs", "0")
        assert proc.returncode == 2
        assert "argument --jobs: must be >= 1, got 0" in proc.stderr

    def test_missing_results_exits_1(self, tmp_path):
        proc = self.run("analyze", "--out", str(tmp_path), "--results",
                        str(tmp_path / "missing.csv"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "missing.csv" in proc.stderr


class TestSweep:
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", str(config_json(tmp_path)), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None,
        b"x0,y,y_a,y_p\n1.0,0,0,0\n\xff\xfe,1,1,1\n",
        b"a,b,c\n1,2,3\n",
        b"x0,y,y_a,y_p\n",
        b"x0,y,y_a,y_p\n1.0,0,0,0\n1.0,1,1\n",
        b"x0,y,y_a,y_p\n1.0,0,0,0\n1.0,1,1.5,1\n",
        b"x0,y,y_a,y_p\n1.0,0,0,0\n1.0,1,-1,1\n",
        b"x0,y,y_a,y_p\n1.0,0,0,0\n1.0,1,1,2\n",
    ], ids=["missing", "not-utf-8", "foreign-header", "header-only", "short-row",
            "non-integer-label", "negative-label", "empty-middle-class"])
    def test_missing_csv_fails_once_at_load(self, tmp_path, capsys, content):
        # A missing file used to write an ERROR row for every run, each
        # FileNotFoundError; the others loaded and then failed every run, or
        # (not UTF-8) failed at load without the path. A bad row is named as
        # path:line.
        csv_path = tmp_path / "data.csv"
        if content is not None:
            csv_path.write_bytes(content)
        named = f"data: {re.escape(str(csv_path))}(:[0-9]+)?: [^\n]+"
        with pytest.raises(ConfigError, match=f"^{named}$"):
            from_dict({"data": str(csv_path)})
        path = config_json(tmp_path, data=str(csv_path),
                           grid={"alphas": [0.0], "betas": [0.0, 1.0]})
        assert main(["sweep", "--config", str(path), "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {named}\n", captured.err)
        if content is None:
            assert captured.err == f"error: data: {csv_path}: No such file or directory\n"
        assert not (tmp_path / "out" / "results.csv").exists()

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_markers_and_exit(self, tmp_path, monkeypatch, jobs):
        cfg = small_config()
        real = pipeline.run_single

        def flaky(config, alpha, beta, seed):
            if alpha == 1.0 and beta == 0.0:
                raise RuntimeError("boom")
            return real(config, alpha, beta, seed)

        monkeypatch.setattr(pipeline, "run_single", flaky)
        outcomes = pipeline.sweep(cfg, jobs=jobs)
        failures = failures_of(outcomes)
        assert len(records_of(outcomes)) == 3
        assert failures == {(1.0, 0.0, 0): "RuntimeError: boom"}
        results = tmp_path / "results.csv"
        pipeline.write_results(results, outcomes)
        lines = results.read_text().splitlines()
        assert len(lines) == 5
        marker = [l for l in lines if "ERROR" in l]
        assert len(marker) == 1 and marker[0].startswith("1.0,0.0,0")
        loaded = pipeline.load_results(results)
        assert len(records_of(loaded)) == 3 and list(failures_of(loaded)) == [(1.0, 0.0, 0)]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_dead_worker_keeps_finished_runs(self, tmp_path, monkeypatch, capsys, jobs):
        path = config_json(tmp_path)
        # The worker process dies, as if killed.
        monkeypatch.setattr(pipeline, "run_single",
                            self.crash_on({(1.0, 0.0, 0)}, lambda: os._exit(1)))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--jobs", jobs,
                     "--out", str(out)]) == 1
        loaded = pipeline.load_results(out / "results.csv")
        assert len(records_of(loaded)) == 3 and list(failures_of(loaded)) == [(1.0, 0.0, 0)]
        assert ("  FAILED (alpha=1, beta=0, seed=0): WorkerDied: exit code 1\n"
                in capsys.readouterr().err)

    def test_one_run_grid_runs_in_a_worker(self, monkeypatch):
        cfg = small_config(alphas=[1.0], betas=[0.0])
        monkeypatch.setattr(pipeline, "run_single",
                            self.crash_on({(1.0, 0.0, 0)}, lambda: os._exit(5)))
        assert pipeline.sweep(cfg) == {(1.0, 0.0, 0): "WorkerDied: exit code 5"}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, True])
    def test_bad_jobs_fails_before_any_worker_starts(self, monkeypatch, jobs):
        started = []
        monkeypatch.setattr(pipeline, "run_single", self.refuse)
        monkeypatch.setattr(multiprocessing.Process, "start",
                            lambda worker: started.append(worker))
        with pytest.raises(ValueError, match=r"^jobs: must be an integer >= 1, got "):
            pipeline.sweep(self.two_seed_config(), jobs=jobs)
        assert started == [] and multiprocessing.active_children() == []


    @staticmethod
    def two_seed_config(**overrides):
        cfg = small_config(**{"seeds": [1, 0], **overrides})
        cfg.train.epochs = 2
        cfg.attacker_iters = 200
        return cfg

    @staticmethod
    def results_bytes(path, outcomes):
        pipeline.write_results(path, outcomes)
        return path.read_bytes()

    def per_cell_bytes(self, path, cfg):
        records = [pipeline.run_single(cfg, a, b, s)[0]
                   for a in cfg.alphas for b in cfg.betas for s in cfg.seeds]
        return self.results_bytes(path, outcomes_of(records))

    @staticmethod
    def crash_on(keys, how):
        """A run_single that ends its worker process ``how`` on ``keys``. In the
        sweeping process it raises instead, so such a run fails the test, not pytest."""
        real, sweeper = pipeline.run_single, os.getpid()

        def crashes(config, alpha, beta, seed):
            if (alpha, beta, seed) in keys:
                if os.getpid() == sweeper:
                    raise RuntimeError("must run in a worker")
                how()
            return real(config, alpha, beta, seed)

        return crashes

    @pytest.mark.parametrize("how, message", [
        (lambda: os._exit(9), "WorkerDied: exit code 9"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "WorkerDied: killed by signal 9"),
    ], ids=["exit", "sigkill"])
    def test_dead_worker_fails_only_its_own_run(self, tmp_path, monkeypatch, how, message):
        cfg = self.two_seed_config()
        whole = pipeline.sweep(cfg, jobs=2)
        assert not failures_of(whole) and multiprocessing.active_children() == []
        key = (1.0, 0.0, 0)  # the third of 8 runs
        monkeypatch.setattr(pipeline, "run_single", self.crash_on({key}, how))
        outcomes = pipeline.sweep(cfg, jobs=2)
        assert failures_of(outcomes) == {key: message}
        assert (self.results_bytes(tmp_path / "crashed.csv", outcomes_of(records_of(outcomes)))
                == self.results_bytes(tmp_path / "whole.csv",
                                      {k: r for k, r in whole.items() if k != key}))
        assert multiprocessing.active_children() == []

    def test_sweep_ends_when_every_run_kills_its_worker(self, monkeypatch):
        cfg = self.two_seed_config()
        keys = {(a, b, s) for a in cfg.alphas for b in cfg.betas for s in cfg.seeds}
        monkeypatch.setattr(pipeline, "run_single", self.crash_on(keys, lambda: os._exit(3)))
        outcomes = pipeline.sweep(cfg, jobs=2)
        assert not records_of(outcomes)
        assert outcomes == {key: "WorkerDied: exit code 3" for key in keys}
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_sweep_that_raises(self, monkeypatch):
        def interrupted(conns):
            raise KeyboardInterrupt

        # Each worker holds a run that takes a minute; the sweep must not wait for it.
        monkeypatch.setattr(pipeline, "run_single", lambda *args, **kwargs: time.sleep(60))
        monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            pipeline.sweep(self.two_seed_config(), jobs=2)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30

    def test_shared_splits_match_per_cell_runs(self, tmp_path):
        cfg = self.two_seed_config()
        serial = self.results_bytes(tmp_path / "serial.csv", pipeline.sweep(cfg, jobs=1))
        parallel = self.results_bytes(tmp_path / "par.csv", pipeline.sweep(cfg, jobs=2))
        assert serial == parallel == self.per_cell_bytes(tmp_path / "cells.csv", cfg)
        assert len(serial.decode().splitlines()) == 1 + 8

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runs_split_one_dataset_built_once(self, monkeypatch, jobs):
        # Each run splits the config's one dataset for its seed; no run builds it
        # again, in this process or a worker. The runs go out seed-major.
        cfg = self.two_seed_config()
        sweeper, built, sent = os.getpid(), [], []
        real_generate, real_send = pipeline.generate, multiprocessing.connection.Connection.send

        def counted(spec):
            if os.getpid() != sweeper:
                raise RuntimeError("generated in a worker")
            built.append(spec)
            return real_generate(spec)

        def capture(ds, split, seed):
            raise RuntimeError(f"split {seed} of {'the config' if ds is cfg.dataset else 'a'}"
                               f" dataset")

        def recorded(conn, obj):  # a fork worker records into its own copy
            sent.append(obj)
            real_send(conn, obj)

        monkeypatch.setattr(pipeline, "generate", counted)
        monkeypatch.setattr(pipeline, "make_splits", capture)
        monkeypatch.setattr(multiprocessing.connection.Connection, "send", recorded)
        outcomes = pipeline.sweep(cfg, jobs=jobs)
        assert not records_of(outcomes)
        assert outcomes == {(a, b, s): f"RuntimeError: split {s} of the config dataset"
                            for a in cfg.alphas for b in cfg.betas for s in cfg.seeds}
        assert list(outcomes) == sorted(outcomes, key=lambda k: (k[2], *k[:2]))  # key order
        assert built == [cfg.data]
        assert [seed for _, _, seed in sent] == [0] * 4 + [1] * 4  # seed-major

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_dataset_that_cannot_be_built_fails_the_sweep(self, tmp_path, monkeypatch, jobs):
        # One error before any run starts, whatever jobs is; not one failure per run.
        monkeypatch.setattr(pipeline, "run_single", self.refuse)
        missing = tmp_path / "missing.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(str(missing))}: No such file"):
            pipeline.sweep(self.two_seed_config(data=str(missing)), jobs=jobs)
        assert multiprocessing.active_children() == []

    def test_next_sweep_gets_its_own_data(self, tmp_path):
        # Configs that differ only in data.seed: each sweep splits its own dataset.
        first = self.two_seed_config(seeds=[0])
        second = self.two_seed_config(data=dataclasses.replace(first.data, seed=1))
        first_bytes = self.results_bytes(tmp_path / "a.csv", pipeline.sweep(first, jobs=1))
        second_bytes = self.results_bytes(tmp_path / "b.csv", pipeline.sweep(second, jobs=1))
        assert second_bytes != first_bytes
        assert second_bytes == self.per_cell_bytes(tmp_path / "fresh.csv", second)

    def test_csv_backed_sweep_matches_synthetic(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        assert main(["gen-data", "--config", str(config_json(tmp_path)),
                     "--out", str(csv_path)]) == 0
        from_csv = pipeline.sweep(self.two_seed_config(data=str(csv_path)), jobs=2)
        synthetic = pipeline.sweep(self.two_seed_config(), jobs=2)
        assert (self.results_bytes(tmp_path / "csv.csv", from_csv)
                == self.results_bytes(tmp_path / "syn.csv", synthetic))

    @staticmethod
    def refuse(config, alpha, beta, seed):
        raise RuntimeError(f"not run by {os.getpid()}")

    @classmethod
    def assert_runs_in(cls, monkeypatch, workers, jobs=None):
        """Sweep two_seed_config with every run refused: its 8 runs ran in ``workers``
        worker processes."""
        monkeypatch.setattr(pipeline, "run_single", cls.refuse)
        outcomes = pipeline.sweep(cls.two_seed_config(), jobs=jobs)
        assert not records_of(outcomes) and len(failures_of(outcomes)) == 8
        pids = {int(message.rsplit(" ", 1)[1]) for message in outcomes.values()}
        assert len(pids) == workers and os.getpid() not in pids

    @pytest.mark.parametrize("jobs, workers", [(16, 8), (3, 3)])
    def test_pool_has_at_most_one_worker_per_run(self, monkeypatch, jobs, workers):
        self.assert_runs_in(monkeypatch, workers, jobs)

    @pytest.mark.parametrize("affinity, cpu_count, workers", [
        ({0, 1, 2}, 64, 3),  # an affinity mask or cpuset of 3 cores on a 64-core machine
        ({5}, 64, 1),  # one usable core: one worker
        (None, 5, 5),  # no sched_getaffinity on this platform
    ])
    def test_default_jobs_count_usable_cores(self, monkeypatch, affinity, cpu_count, workers):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        self.assert_runs_in(monkeypatch, workers)

    def test_dataset_is_read_only_and_left_out_of_a_copy(self):
        cfg = from_dict({"data": {"n": 400}, "split": {"test_mode": "as-is"}})
        ds = cfg.dataset
        assert pipeline.load_dataset(cfg) is ds  # built at load, kept
        assert not any(a.flags.writeable for a in (ds.x, ds.y, ds.y_a, ds.y_p))
        with pytest.raises(ValueError, match="read-only"):
            ds.x[0, 0] = 0.0
        # A spawned worker's config, or a copy, builds its own on first use.
        for other in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
            assert other == cfg and not hasattr(other, "dataset")
            rebuilt = pipeline.load_dataset(other)
            assert rebuilt is other.dataset and rebuilt is not ds
            assert all(np.array_equal(getattr(rebuilt, name), getattr(ds, name))
                       for name in ("x", "y", "y_a", "y_p"))
        cfg.data.seed = 1  # a changed source is built again by validate
        cfg.validate()
        assert cfg.dataset is not ds and not np.array_equal(cfg.dataset.x, ds.x)

    @pytest.mark.parametrize("command", [
        ["train", "--alpha", "0", "--beta", "0", "--seed", "0"], ["gen-data"],
        ["sweep", "--jobs", "1"], ["sweep", "--jobs", "2"]], ids=" ".join)
    def test_csv_config_is_read_once_per_command(self, tmp_path, monkeypatch, command):
        # A 3-seed sweep used to read its CSV 4 times with --jobs 1, 7 with --jobs 2.
        csv_path = tmp_path / "features.csv"
        assert main(["gen-data", "--config", str(config_json(tmp_path)),
                     "--out", str(csv_path)]) == 0
        path = config_json(tmp_path, data=str(csv_path), seeds=[0, 1, 2])
        passes = tmp_path / "passes.txt"

        def counted(path):
            with open(passes, "a", encoding="utf-8") as fh:  # a sweep's workers write too
                fh.write(f"{path}\n")
            return load_csv(path)

        def no_train(*args, **kwargs):
            raise ValueError("not trained")

        monkeypatch.setattr(pipeline, "load_csv", counted)
        monkeypatch.setattr(pipeline, "train", no_train)  # every run splits, then stops
        assert main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert passes.read_text(encoding="utf-8").splitlines() == [str(csv_path)]

    def test_diverged_attacker_recorded_as_failed_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluation, "fit_multinomial_logistic", diverging_fit)
        path = config_json(tmp_path, grid={"alphas": [0.0], "betas": [0.0]})
        assert main(["sweep", "--config", str(path), "--jobs", "1",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert ("FAILED (alpha=0, beta=0, seed=0): FloatingPointError: "
                "logistic fit diverged\n") in err
        assert "Traceback" not in err

    def test_cli_import_leaves_process_pool_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, fairpriv.cli; print(json.dumps(list(sys.modules)))"],
            capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert not loaded & {"concurrent.futures", "multiprocessing.connection"}

def outcomes_of(records, failures=None) -> dict:
    """A sweep's outcomes: each record under its key, then each failure's message."""
    return {**{r.key: r for r in records}, **(failures or {})}


def records_of(outcomes: dict) -> list:
    return [o for o in outcomes.values() if isinstance(o, pipeline.RunRecord)]


def failures_of(outcomes: dict) -> dict:
    return {k: o for k, o in outcomes.items() if not isinstance(o, pipeline.RunRecord)}


def synthetic_records(alphas, betas, seeds, rng):
    records = []
    for a in alphas:
        for b in betas:
            for s in seeds:
                records.append(pipeline.RunRecord(a, b, s, rng.random(), rng.random(),
                                                  rng.random(), rng.random()))
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
        pipeline.write_results(out / "results.csv", outcomes_of(records))
        rc = main(["analyze", "--config", str(path), "--out", str(out)])
        assert rc == 1

    def test_error_rows_fail_analyze(self, tmp_path, capsys):
        path = config_json(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        records = synthetic_records([0.0, 1.0], [0.0, 1.0], [0], np.random.default_rng(0))
        pipeline.write_results(out / "results.csv",
                               outcomes_of(records[:-1], {(1.0, 1.0, 0): "boom"}))
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 1
        assert "ERROR" in capsys.readouterr().err.upper()

    def test_csv_backed_analyze_reads_the_csv_once(self, tmp_path, monkeypatch):
        # k_p = 3 in the CSV, so a k_p from anywhere else shows in the report.
        csv_path = tmp_path / "features.csv"
        gen = config_json(tmp_path, data={"n": 300, "k_p": 3,
                                          "joint": np.full((2, 2, 3), 1 / 12).tolist()})
        assert main(["gen-data", "--config", str(gen), "--out", str(csv_path)]) == 0
        path = config_json(tmp_path, data=str(csv_path))
        out = tmp_path / "out"
        out.mkdir()
        cfg = load_config(path)
        pipeline.write_results(out / "results.csv", outcomes_of(synthetic_records(
            cfg.alphas, cfg.betas, cfg.seeds, np.random.default_rng(3))))
        records = records_of(pipeline.load_results(out / "results.csv"))
        cube = result_cube(records, cfg.alphas, cfg.betas, cfg.seeds)
        want = json.dumps(report.build_report(cube, cfg, k_p=load_csv(csv_path).k_p),
                          indent=2, sort_keys=True) + "\n"

        passes = []

        def counted(path):
            passes.append(path)
            return load_csv(path)

        monkeypatch.setattr(pipeline, "load_csv", counted)
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        assert passes == [str(csv_path)]  # config load's, which analyze takes k_p from
        assert (out / "report.json").read_text() == want
        assert json.loads(want)["single_metrics"]["formatted"]["baseline_privacy"].endswith(
            "(33%)")

    def test_full_grid_heatmap_has_16_cells(self):
        rng = np.random.default_rng(1)
        records = synthetic_records(grid_values(), grid_values(), [0], rng)
        grids = report.build_heatmaps(cube_of(records))
        assert set(grids) == {"utility", "fairness_gap", "attack_balanced_acc"}
        for grid in grids.values():
            svg = report.heatmap_svg(grid)
            assert svg.count('class="cell"') == 16
            assert svg.count('class="cell-value"') == 16
            for label in "BLMH":
                assert f">{label}</text>" in svg

    def test_table_formats_match_reported_layout(self):
        # Table-style strings: "63.33% (TPR)" and "91.04% (H., H.)". The
        # grid's two other cells are dominated by (10, 0.1).
        metrics = {(0.0, 0.0): (0.6333, 0.21, 0.7983), (10.0, 0.1): (0.70, 0.08, 0.6777)}
        records = [pipeline.RunRecord(a, b, s, *metrics.get((a, b), (0.65, 0.1, 0.7)), 0.3)
                   for a in (0.0, 10.0) for b in (0.0, 0.1) for s in (0, 1, 2)]
        cfg = small_config(utility_metric="tpr")
        rep = report.build_report(cube_of(records), cfg, k_p=3)
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
        records = [pipeline.RunRecord(a, b, 0, 0.5, 0.2, 0.9, 0.1)
                   for a, b in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0))]
        records.append(pipeline.RunRecord(0.0, 0.0, 0, 0.9, 0.0, 0.5, 0.1))
        cfg = small_config()
        rep = report.build_report(cube_of(records), cfg, k_p=2)
        for entry in rep["tradeoffs"]["csr"]:
            assert entry["score"] == pytest.approx(100.0)

    def test_report_holds_both_tradeoff_views(self):
        records = synthetic_records([0.0, 0.1, 1.0], [0.0, 1.0], [0, 1, 2],
                                    np.random.default_rng(3))
        cfg, cube = small_config(), cube_of(records)
        rep = report.build_report(cube, cfg, k_p=2)
        assert rep["tradeoffs"] == report.tradeoff_table(cube)
        assert rep["tradeoffs_over_seed_medians"] == report.tradeoff_table(seed_medians(cube))
        assert rep["tradeoffs_over_seed_medians"] != rep["tradeoffs"]
        pooled, medians = report.text_tables(rep).split("\nTradeoffs over seed medians\n")
        assert "\nTradeoffs\n" in pooled
        for entry in rep["tradeoffs_over_seed_medians"]["csr"]:
            assert entry["formatted"] in medians

    def test_one_run_grid(self, tmp_path):
        # One (alpha, beta) cell and one seed leave nothing to correlate, but
        # the single-metric table, the run table and the heatmaps need one run.
        path = config_json(tmp_path, grid={"alphas": [0.0], "betas": [0.0]}, seeds=[0])
        out = tmp_path / "out"
        out.mkdir()
        cfg = load_config(path)
        pipeline.write_results(out / "results.csv", outcomes_of(synthetic_records(
            cfg.alphas, cfg.betas, cfg.seeds, np.random.default_rng(7))))
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["tradeoffs"] is None and rep["tradeoffs_over_seed_medians"] is None
        [row] = rep["runs"]
        assert row["normalized"] == {name: 0.5 for name in METRICS}
        assert row["csr"] == pytest.approx({name: 50.0 for name in row["csr"]})
        assert rep["single_metrics"]["baseline"] is not None
        tables = (out / "tables.txt").read_text()
        assert ("\nTradeoffs\n" + "-" * 78 + "\nn/a: fewer than two runs\n") in tables
        assert tables.endswith("Tradeoffs over seed medians\n" + "-" * 78
                               + "\nn/a: fewer than two (alpha, beta) cells\n")
        assert all((out / f"heatmap_{m}.svg").is_file() for m in METRICS)

    def test_one_cell_grid_has_no_seed_median_view(self, tmp_path):
        # Three seeds of one (alpha, beta) cell give one seed-median record,
        # which leaves nothing to normalize or correlate.
        path = config_json(tmp_path, grid={"alphas": [0.0], "betas": [0.0]}, seeds=[0, 1, 2])
        out = tmp_path / "out"
        out.mkdir()
        cfg = load_config(path)
        pipeline.write_results(out / "results.csv", outcomes_of(synthetic_records(
            cfg.alphas, cfg.betas, cfg.seeds, np.random.default_rng(5))))
        records = records_of(pipeline.load_results(out / "results.csv"))
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        pooled = report.tradeoff_table(result_cube(records, cfg.alphas, cfg.betas, cfg.seeds))
        assert rep["tradeoffs"] == json.loads(json.dumps(pooled))
        assert rep["tradeoffs_over_seed_medians"] is None
        tables = (out / "tables.txt").read_text()
        assert tables.endswith("Tradeoffs over seed medians\n" + "-" * 78
                               + "\nn/a: fewer than two (alpha, beta) cells\n")


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
        cfg.dataset = ds  # every run of cfg splits the canary's dataset

        seed = next(s for s in range(50)
                    if canary_idx in np.flatnonzero(np.isin(
                        np.arange(len(ds)),
                        _test_indices(ds, cfg.split, s))))

        _, val_ds, test_ds = make_splits(ds, cfg.split, seed)
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
        _, trained = pipeline.run_single(cfg, 0.0, 0.0, seed)

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
