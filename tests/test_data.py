import re

import numpy as np
import pytest

from fairpriv.cli.config import ConfigError, from_dict
from fairpriv.data import (LabeledDataset, SplitSpec, SyntheticSpec, generate, load_csv,
                           make_splits, one_hot, sample_labels, save_csv)
from fairpriv.evaluation import attack_accuracy, fit_attacker, fit_multinomial_logistic
from fairpriv.learncore import Mlp


def config_load(path):
    """Load a config whose source is the CSV at ``path``; its ``data: `` error, unled."""
    try:
        return from_dict({"data": str(path)})
    except ValueError as exc:
        assert isinstance(exc, ConfigError) and str(exc).startswith("data: "), repr(exc)
        raise ValueError(str(exc).removeprefix("data: ")) from None


def uniform_joint():
    return np.full((2, 2, 2), 0.125)


def raw_feature_attack(ds, n_fit, seed=0):
    """Fit the evaluation attacker on raw features of one half, score the other."""
    fit = ds.subset(np.arange(n_fit))
    held = ds.subset(np.arange(n_fit, len(ds)))
    attacker = fit_attacker(fit.x, fit.y, fit.y_p, iters=1500, k_y=ds.k_y, k_p=ds.k_p)
    return attack_accuracy(attacker, held.x, held.y, held.y_p)


class TestOneHot:
    def test_rows(self):
        assert one_hot([1, 0, 2], 3).tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]

    @pytest.mark.parametrize("labels, bad", [([0, -1, 2], -1), ([1, 3, -2], 3)])
    def test_label_outside_classes_named(self, labels, bad):
        # numpy wraps a negative index: [-1] with k = 2 read as [[0, 1]].
        with pytest.raises(ValueError, match=rf"^labels must lie in \[0, 3\), got {bad}$"):
            one_hot(labels, 3)


class TestSampleLabels:
    def test_point_mass(self):
        joint = np.zeros((2, 2, 2))
        joint[0, 1, 0] = 1.0
        y, y_a, y_p = sample_labels(joint, 50, seed=0)
        assert np.all(y == 0) and np.all(y_a == 1) and np.all(y_p == 0)

    def test_uniform_marginals(self):
        y, y_a, y_p = sample_labels(uniform_joint(), 10000, seed=1)
        for labels in (y, y_a, y_p):
            assert abs(labels.mean() - 0.5) < 0.02

    def test_same_seed_identical(self):
        a = sample_labels(uniform_joint(), 200, seed=5)
        b = sample_labels(uniform_joint(), 200, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_invalid_joint(self):
        bad = np.full((2, 2, 2), 0.2)
        with pytest.raises(ValueError, match="sum"):
            sample_labels(bad, 10, seed=0)


class TestGenerate:
    def test_no_private_signal_gives_chance_attack(self):
        spec = SyntheticSpec(n=5000, mu_p=0.0, joint=uniform_joint(), seed=2)
        ds = generate(spec)
        ba = raw_feature_attack(ds, 2500)
        assert abs(ba - 0.5) < 0.03

    def test_strong_task_signal_linearly_separable(self):
        spec = SyntheticSpec(n=5000, mu_y=4.0, d_y=4, joint=uniform_joint(), seed=3)
        ds = generate(spec)
        mu, sd = ds.x.mean(0), ds.x.std(0)
        fit = slice(0, 2500)
        w, b = fit_multinomial_logistic((ds.x[fit] - mu) / sd, ds.y[fit], 2,
                                        np.ones(2), 1500)
        preds = np.argmax(((ds.x[2500:] - mu) / sd) @ w + b, axis=1)
        assert np.mean(preds == ds.y[2500:]) > 0.95

    def test_noise_only_everything_at_chance(self):
        spec = SyntheticSpec(n=4000, d_y=0, d_a=0, d_p=0, d_noise=6,
                             joint=uniform_joint(), seed=4)
        ds = generate(spec)
        assert ds.dim == 6
        assert abs(raw_feature_attack(ds, 2000) - 0.5) < 0.05

    def test_deterministic(self):
        spec = SyntheticSpec(n=100, joint=uniform_joint(), seed=6)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y_p, b.y_p)

    def test_monotone_leakage(self):
        bas = []
        for mu_p in (0.0, 1.0, 2.0, 4.0):
            spec = SyntheticSpec(n=5000, mu_p=mu_p, joint=uniform_joint(), seed=7)
            bas.append(raw_feature_attack(generate(spec), 2500))
        for lo, hi in zip(bas, bas[1:]):
            assert hi >= lo - 0.02, f"leakage not monotone: {bas}"

    @pytest.mark.parametrize("label", ["y", "a", "p"])
    def test_signal_block_narrower_than_class_count_rejected(self, label):
        # Classes from d on got no signal dimension: at k = 3, d = 2 classes 0
        # and 2 sat 2.12 apart, not mu = 3, and two such classes share a mean.
        narrow = {f"k_{label}": 3, f"d_{label}": 2}
        with pytest.raises(ValueError, match=f"^d_{label}: must be 0 or >= k_{label} = 3 "
                                             f"when mu_{label} > 0, got 2$"):
            generate(SyntheticSpec(n=10, **narrow))
        for fine in ({f"d_{label}": 3}, {f"d_{label}": 0}, {f"mu_{label}": 0.0}):
            assert len(generate(SyntheticSpec(n=10, **{**narrow, **fine}))) == 10

    def test_class_means_are_mu_apart(self):
        ds = generate(SyntheticSpec(n=30000, k_y=3, d_y=3, mu_y=3.0, d_a=0, d_p=0,
                                    d_noise=0, seed=20))
        means = np.array([ds.x[ds.y == c].mean(axis=0) for c in range(3)])
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert abs(np.linalg.norm(means[i] - means[j]) - 3.0) < 0.1

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            generate(SyntheticSpec(n=0, joint=uniform_joint()))
        with pytest.raises(ValueError):
            generate(SyntheticSpec(n=10, d_y=0, d_a=0, d_p=0, d_noise=0,
                                   joint=uniform_joint()))


class TestMakeSplits:
    def test_trio_balanced_exact_counts(self):
        ds = generate(SyntheticSpec(n=3200, joint=uniform_joint(), seed=8))
        split = SplitSpec(val_fraction=0.2, test_fraction=0.2, test_mode="trio-balanced")
        _, _, test = make_splits(ds, split, seed=0)
        assert len(test) == 640
        for y in range(2):
            for a in range(2):
                for p in range(2):
                    cell = np.sum((test.y == y) & (test.y_a == a) & (test.y_p == p))
                    assert cell == 80

    def test_balanced_test_makes_constant_predictor_chance(self):
        ds = generate(SyntheticSpec(n=3200, joint=uniform_joint(), seed=8))
        split = SplitSpec(test_mode="trio-balanced")
        _, _, test = make_splits(ds, split, seed=1)
        # A zero-weight attacker whose bias picks class 0 predicts it everywhere.
        constant = Mlp([np.zeros((test.x.shape[1] + 2, 2))], [np.array([[1.0, 0.0]])])
        assert attack_accuracy(constant, test.x, test.y, test.y_p) == 0.5

    def test_undersample_factor_one_balances_only(self):
        ds = generate(SyntheticSpec(n=2000, joint=uniform_joint(), seed=9))
        split = SplitSpec(train_mode="exacerbated", undersample_factor=1.0)
        train, _, _ = make_splits(ds, split, seed=2)
        counts = np.bincount(train.y)
        assert counts[0] == counts[1]

    def test_undersample_quarter(self):
        ds = generate(SyntheticSpec(n=8000, joint=uniform_joint(), seed=10))
        balanced, _, _ = make_splits(
            ds, SplitSpec(train_mode="exacerbated", undersample_factor=1.0), seed=3)
        reduced, _, _ = make_splits(
            ds, SplitSpec(train_mode="exacerbated", undersample_factor=0.25), seed=3)
        full_cell = np.sum((balanced.y == 1) & (balanced.y_a == 1))
        kept_cell = np.sum((reduced.y == 1) & (reduced.y_a == 1))
        assert kept_cell == int(np.floor(0.25 * full_cell))
        # other cells untouched
        assert (np.sum((reduced.y == 1) & (reduced.y_a == 0))
                == np.sum((balanced.y == 1) & (balanced.y_a == 0)))

    def test_disjoint_and_exhaustive_as_is(self):
        ds = generate(SyntheticSpec(n=500, joint=uniform_joint(), seed=11))
        tagged = LabeledDataset(np.arange(500, dtype=float).reshape(-1, 1) ,
                                ds.y, ds.y_a, ds.y_p, 2, 2, 2)
        train, val, test = make_splits(tagged, SplitSpec(), seed=4)
        ids = np.concatenate([train.x[:, 0], val.x[:, 0], test.x[:, 0]])
        assert len(ids) == 500 and len(np.unique(ids)) == 500

    def test_empty_cell_error_names_cell(self):
        joint = np.zeros((2, 2, 2))
        joint[0, 0, 0] = joint[1, 1, 1] = 0.5
        ds = generate(SyntheticSpec(n=400, joint=joint, seed=12))
        with pytest.raises(ValueError, match=r"y=0, y_a=0, y_p=1"):
            make_splits(ds, SplitSpec(test_mode="trio-balanced"), seed=5)

    def test_deterministic(self):
        ds = generate(SyntheticSpec(n=600, joint=uniform_joint(), seed=13))
        split = SplitSpec(train_mode="exacerbated", undersample_factor=0.5,
                          test_mode="trio-balanced")
        a = make_splits(ds, split, seed=6)
        b = make_splits(ds, split, seed=6)
        for da, db in zip(a, b):
            assert np.array_equal(da.x, db.x)

    @pytest.mark.parametrize("split, message", [
        (SplitSpec(test_mode="trio-balanced"),
         "test_fraction: 0.2 of 30 rows yields 6 test rows, fewer than the 8 trio cells"),
        (SplitSpec(test_fraction=0.01), "test_fraction: 0.01 of 30 rows yields 0 test rows"),
        (SplitSpec(val_fraction=0.01), "val_fraction: 0.01 of 30 rows yields 0 validation rows"),
    ], ids=["trio-cells", "no-test-row", "no-validation-row"])
    def test_too_few_rows_names_fraction(self, split, message):
        ds = generate(SyntheticSpec(n=30, joint=uniform_joint(), seed=15))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_splits(ds, split, seed=0)

    def test_invalid_fractions(self):
        ds = generate(SyntheticSpec(n=100, joint=uniform_joint(), seed=14))
        with pytest.raises(ValueError):
            make_splits(ds, SplitSpec(val_fraction=0.6, test_fraction=0.5), seed=0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = generate(SyntheticSpec(n=50, joint=uniform_joint(), seed=15))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.x, ds.x)
        assert np.array_equal(loaded.y, ds.y)
        assert np.array_equal(loaded.y_a, ds.y_a)
        assert np.array_equal(loaded.y_p, ds.y_p)

    def test_header_names(self, tmp_path):
        ds = LabeledDataset(np.zeros((2, 3)), [0, 1], [1, 0], [0, 1], 2, 2, 2)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "x0,x1,x2,y,y_a,y_p"

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,y,y_a\n1.0,2.0,0,1\n")
        with pytest.raises(ValueError, match="y_a,y_p"):
            load_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y,y_a,y_p\n1.0,0,0,0\noops,1,0,1\n")
        with pytest.raises(ValueError, match=r":3:"):
            load_csv(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y,y_a,y_p\n1.0,0,0\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_csv(path)

    def test_shape_matches_load_csv(self, tmp_path):
        ds = generate(SyntheticSpec(n=240, k_y=3, k_a=2, k_p=4,
                                    joint=np.full((3, 2, 4), 1 / 24), seed=17))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded, built = load_csv(path), config_load(path).dataset
        assert (len(built), (built.k_y, built.k_a, built.k_p)) \
            == (len(loaded), (loaded.k_y, loaded.k_a, loaded.k_p)) == (240, (3, 2, 4))
        for name in ("x", "y", "y_a", "y_p"):
            assert np.array_equal(getattr(built, name), getattr(loaded, name)), name

    def test_byte_order_mark_skipped(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export starts with one; it used to fail
        # as "feature columns must be x0..x0" under a header that looks right.
        ds = generate(SyntheticSpec(n=40, seed=3))
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        save_csv(ds, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain), load_csv(marked)
        for name in ("x", "y", "y_a", "y_p", "k_y", "k_a", "k_p"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        c, d = config_load(marked).dataset, config_load(plain).dataset
        for name in ("x", "y", "y_a", "y_p", "k_y", "k_a", "k_p"):
            assert np.array_equal(getattr(c, name), getattr(a, name)), name
            assert np.array_equal(getattr(d, name), getattr(a, name)), name

    @pytest.mark.parametrize("read", [load_csv, config_load])  # a run's read, config load's
    @pytest.mark.parametrize("text, match", [
        ("", ": empty file"),
        ("x0,y,y_a\n1.0,0,0\n", ": header must end with y,y_a,y_p"),
        ("x1,y,y_a,y_p\n1.0,0,0,0\n", ": feature columns must be x0"),
        ("x0,y,y_a,y_p\n", ": no data rows"),
        ("x0,y,y_a,y_p\n1.0,0,0,0\n1.0,0,0\n", ":3: expected 4 fields"),
        ("x0,y,y_a,y_p\n1.0,0,0,0\n1.0,0,1.5,0\n", ":3: invalid literal"),
        ("x0,y,y_a,y_p\n1.0,0,0,0\n1.0,0,0,-1\n", ":3: y_p must be >= 0"),
        ("x0,y,y_a,y_p\n1.0,0,0,0\n1.0,1,1,2\n1.0,0,0,0\n",
         r": y_p lacks class\(es\) \[1\] of k_p = 3;"),
        ("x0,y,y_a,y_p\n1.0,0,0,0\n1.0,1,0,1\n", r": y_a lacks class\(es\) \[1\] of k_a = 2;"),
        ("x0,y,y_a,y_p\n1.0,0,0,0\n1.0,3,1,1\n1.0,0,0,0\n1.0,0,0,0\n",
         r": y lacks class\(es\) \[1, 2\] of k_y = 4;"),
        ("x0,y,y_a,y_p\n1.0,0,0,0\n1.0,2,1,1\n", r":3: y is 2, but classes 0..2 need a row "
         "each and the file has 2 rows$"),
        *((f"x0,y,y_a,y_p\n0.1,0,0,0\n0.2,1,1,1\n0.3,0,0,{n}\n",
           rf":4: y_p is {n}, but classes 0..{n} need a row each and the file has 3 rows$")
          for n in (10**6, 10**15, 10**20)),
        (f"x0,y,y_a,y_p\n{'1' * 200_000},0,0,0\n", ": field larger than field limit"),
    ], ids=["empty", "label-header", "feature-header", "no-rows", "field-count",
            "fractional-label", "negative-label", "empty-middle-class", "one-class",
            "empty-classes", "label-of-row-count", "label-1e6", "label-1e15", "label-1e20",
            "huge-field"])
    def test_errors_name_file_and_line(self, tmp_path, read, text, match):
        # A label of 1e6 printed every missing class (7.9 MB); 1e15 and 1e20 escaped
        # the CLI's handler as a 7 PiB bincount's MemoryError and an OverflowError.
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(str(path)) + match) as exc:
            read(path)
        assert len(str(exc.value)) < 1024

    @pytest.mark.parametrize("read", [load_csv, config_load])  # a run's read, config load's
    @pytest.mark.parametrize("make, match", [
        (lambda path: None, ": No such file or directory$"),
        (lambda path: path.mkdir(), ": Is a directory$"),
        (lambda path: path.write_bytes(b"x0,y,y_a,y_p\n\xef\x01,0,0,0\n"),
         ": 'utf-8' codec can't decode byte 0xef"),
    ], ids=["missing", "directory", "not-utf-8"])
    def test_unreadable_file_names_path(self, tmp_path, read, make, match):
        path = tmp_path / "bad.csv"
        make(path)
        with pytest.raises(ValueError, match="^" + re.escape(str(path)) + match):
            read(path)

    def test_save_refuses_empty_middle_class(self, tmp_path):
        # load_csv would reject the file: k_p = 3 from label 2, and no row of class 1.
        ds = LabeledDataset(np.zeros((4, 1)), [0, 1, 0, 1], [0, 1, 1, 0], [0, 2, 2, 0], 2, 2, 3)
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match=r"^y_p lacks class\(es\) \[1\] of k_p = 3;"):
            save_csv(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_names_file_line_and_column(self, tmp_path, value):
        # float() parses these; the first bad cell in row order is the one named.
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,x1,y,y_a,y_p\n1.0,2.0,0,0,0\n1.0,{value},1,0,1\n{value},0.5,0,1,1\n")
        want = f"{path}:3: x1 must be finite, got {float(value)}"
        with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
            load_csv(path)
