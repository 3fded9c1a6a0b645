import dataclasses

import numpy as np
import pytest

from fairpriv.analysis import (CSR_WEIGHTS, METRICS, CsrWeights, RunRecord, best_csr,
                               check_grid, csr, grid_values, group_label, heatmap, normalize,
                               pearson, seed_medians, tradeoff_correlations)
from fairpriv.evaluation import MetricTriple


def rec(alpha, beta, seed, u, a, p, val_loss=0.1):
    return RunRecord(alpha, beta, seed, MetricTriple(u, a, p), val_loss)


def random_records(rng, n=12):
    out = []
    grid = grid_values()
    for i in range(n):
        out.append(rec(grid[rng.integers(0, 11)], grid[rng.integers(0, 11)], i,
                       rng.random(), rng.random(), rng.random()))
    return out


class TestMetricTable:
    def test_keys_follow_metric_triple_fields(self):
        assert list(METRICS) == [f.name for f in dataclasses.fields(MetricTriple)]

    def test_weights_are_csr_weight_fields(self):
        assert [m.weight for m in METRICS.values()] == [
            f.name for f in dataclasses.fields(CsrWeights)]

    def test_unknown_metric_named(self):
        with pytest.raises(ValueError, match="unknown metric 'accuracy'"):
            normalize([rec(0.0, 0.0, 0, 0.5, 0.1, 0.5), rec(1.0, 0.0, 0, 0.6, 0.2, 0.5)],
                      "accuracy")


class TestGrid:
    def test_closed_form(self):
        values = grid_values()
        assert len(values) == 11
        assert values[0] == 0.0
        for k in range(10):
            assert values[k + 1] == pytest.approx(10 ** (-2 + 3 * k / 9), abs=1e-12)

    def test_first_nonzero_values(self):
        values = grid_values()
        assert values[1] == pytest.approx(0.01, abs=1e-12)
        assert values[2] == pytest.approx(0.021544, abs=1e-5)
        assert values[3] == pytest.approx(0.046416, abs=1e-5)

    def test_endpoints(self):
        values = grid_values()
        assert values[1] == pytest.approx(0.01) and values[-1] == pytest.approx(10.0)

    def test_group_counts(self):
        labels = [group_label(v) for v in grid_values()]
        assert labels.count("B") == 1
        assert labels.count("L") == 3
        assert labels.count("M") == 3
        assert labels.count("H") == 4


class TestGroupLabel:
    def test_named_buckets(self):
        assert group_label(0.0) == "B"
        assert group_label(grid_values()[5]) == "M"  # 0.21544...
        assert group_label(10.0) == "H"
        assert group_label(0.05) == "L"
        assert group_label(1.0) == "H"

    def test_off_grid_value(self):
        with pytest.raises(ValueError):
            group_label(0.07)
        with pytest.raises(ValueError):
            group_label(20.0)


class TestNormalize:
    def test_endpoints(self):
        records = [rec(0, 0, 0, 0.2, 0, 0), rec(0, 0, 1, 0.9, 0, 0),
                   rec(0, 0, 2, 0.5, 0, 0)]
        n = normalize(records, "utility")
        assert n[(0, 0, 0)] == 0.0 and n[(0, 0, 1)] == 1.0

    def test_linear_map(self):
        records = [rec(0, 0, i, v, 0, 0) for i, v in enumerate((2.0, 4.0, 6.0))]
        n = normalize(records, "utility")
        assert [n[(0, 0, i)] for i in range(3)] == [0.0, 0.5, 1.0]

    def test_degenerate_all_half(self):
        records = [rec(0, 0, i, 0.7, 0, 0) for i in range(4)]
        assert set(normalize(records, "utility").values()) == {0.5}

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.random(6)
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-3, 3)
            r1 = [rec(0, 0, i, v, 0, 0) for i, v in enumerate(vals)]
            r2 = [rec(0, 0, i, a * v + b, 0, 0) for i, v in enumerate(vals)]
            n1 = normalize(r1, "utility")
            n2 = normalize(r2, "utility")
            for key in n1:
                assert n1[key] == pytest.approx(n2[key], abs=1e-9)

    def test_one_record_ties(self):
        # A lone record ties with itself, as in the all-ties case.
        assert normalize([rec(0, 0, 0, 1, 0, 0)], "utility") == {(0, 0, 0): 0.5}

    def test_no_records(self):
        with pytest.raises(ValueError, match="needs >= 1 record"):
            normalize([], "utility")


class TestCsr:
    def test_hand_worked_two_records(self):
        records = [rec(0, 0, 0, 0.5, 0.2, 0.9), rec(0, 0, 1, 1.0, 0.1, 0.6)]
        scores = csr(records, CsrWeights(1 / 3, 1 / 3, 1 / 3))
        assert scores[(0, 0, 0)] == pytest.approx(0.0, abs=1e-12)
        assert scores[(0, 0, 1)] == pytest.approx(100.0, abs=1e-12)

    def test_all_extrema_scores_100(self):
        records = [rec(0, 0, 0, 0.9, 0.0, 0.5), rec(0, 0, 1, 0.5, 0.3, 0.8),
                   rec(0, 0, 2, 0.7, 0.1, 0.6)]
        scores = csr(records, CsrWeights(0.6, 0.2, 0.2))
        assert scores[(0, 0, 0)] == pytest.approx(100.0)

    def test_pure_utility_matches_utility_order(self):
        rng = np.random.default_rng(1)
        records = random_records(rng)
        scores = csr(records, CsrWeights(1.0, 0.0, 0.0))
        for a in records:
            for b in records:
                su, sv = scores[a.key], scores[b.key]
                assert np.sign(su - sv) == np.sign(a.triple.utility - b.triple.utility)

    def test_monotone_in_each_metric(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            records = random_records(rng, n=8)
            w = rng.dirichlet(np.ones(3))
            weights = CsrWeights(*w)
            base = csr(records, weights)[records[0].key]
            improved = [r for r in records]
            t = records[0].triple
            improved[0] = RunRecord(records[0].alpha, records[0].beta, records[0].seed,
                                    MetricTriple(min(1.0, t.utility + 0.1),
                                                 t.fairness_gap, t.attack_balanced_acc),
                                    records[0].val_loss)
            assert csr(improved, weights)[records[0].key] >= base - 1e-9

    def test_range(self):
        rng = np.random.default_rng(3)
        records = random_records(rng)
        scores = csr(records, CsrWeights(0.2, 0.2, 0.6))
        assert all(-1e-9 <= s <= 100 + 1e-9 for s in scores.values())

    def test_report_weightings_weigh_each_goal_0_6_in_turn(self):
        assert [dataclasses.astuple(w) for w in CSR_WEIGHTS] == [
            (0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6)]
        for w in CSR_WEIGHTS:
            w.validate()

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            csr([rec(0, 0, 0, 1, 0, 0), rec(0, 0, 1, 0, 1, 1)],
                CsrWeights(0.5, 0.5, 0.5))


class TestBestCsr:
    def test_dominating_record(self):
        records = [rec(1.0, 0.1, 0, 0.9, 0.0, 0.5), rec(0.0, 0.0, 0, 0.5, 0.3, 0.9)]
        score, top = best_csr(records, CsrWeights(1 / 3, 1 / 3, 1 / 3))
        assert score == pytest.approx(100.0)
        assert top is records[0]

    def test_tie_breaks_to_smaller_alpha(self):
        records = [rec(1.0, 0.0, 0, 0.8, 0.1, 0.5), rec(0.1, 0.0, 0, 0.8, 0.1, 0.5),
                   rec(0.0, 0.0, 0, 0.2, 0.9, 0.9)]
        _, top = best_csr(records, CsrWeights(0.6, 0.2, 0.2))
        assert top is records[1]


class TestPearson:
    def test_perfect_positive(self):
        xs = np.arange(10.0)
        assert pearson(xs, 2 * xs + 3) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = np.arange(10.0)
        assert pearson(xs, -xs) == pytest.approx(-1.0)

    def test_zero_variance_undefined(self):
        assert pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            dx, dy = x - x.mean(), y - y.mean()
            direct = (dx * dy).sum() / np.sqrt((dx ** 2).sum() * (dy ** 2).sum())
            assert pearson(x, y) == pytest.approx(direct, abs=1e-12)

    def test_scale_shift_invariance(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(12), rng.standard_normal(12)
        assert pearson(3 * x + 1, y) == pytest.approx(pearson(x, y), abs=1e-12)


class TestTradeoffCorrelations:
    def test_utility_negation_sign(self):
        # Negation aligns improvement directions: when the gap falls exactly
        # as utility rises (joint improvement), pearson(-u, gap) is +1; when
        # better fairness costs utility, the correlation goes negative.
        records = [rec(0, 0, i, u, 1 - u, 0.5 + 0.01 * i)
                   for i, u in enumerate((0.2, 0.5, 0.9))]
        assert tradeoff_correlations(records)["uf"] == pytest.approx(1.0)
        trading = [rec(0, 0, i, u, u, 0.5 + 0.01 * i)
                   for i, u in enumerate((0.2, 0.5, 0.9))]
        assert tradeoff_correlations(trading)["uf"] == pytest.approx(-1.0)

    def test_constant_metric_undefined(self):
        records = [rec(0, 0, i, u, 0.1 * u, 0.7) for i, u in enumerate((0.2, 0.4, 0.6))]
        assert tradeoff_correlations(records)["up"] is None

    def test_three_record_oracle(self):
        records = [rec(0, 0, 0, 0.5, 0.30, 0.80), rec(0, 0, 1, 0.7, 0.20, 0.75),
                   rec(0, 0, 2, 0.9, 0.25, 0.60)]
        u = np.array([-0.5, -0.7, -0.9])
        f = np.array([0.30, 0.20, 0.25])
        p = np.array([0.80, 0.75, 0.60])

        def direct(a, b):
            da, db = a - a.mean(), b - b.mean()
            return (da * db).sum() / np.sqrt((da ** 2).sum() * (db ** 2).sum())

        out = tradeoff_correlations(records)
        assert out["uf"] == pytest.approx(direct(u, f), abs=1e-12)
        assert out["up"] == pytest.approx(direct(u, p), abs=1e-12)
        assert out["fp"] == pytest.approx(direct(f, p), abs=1e-12)


class TestHeatmap:
    def full_grid_records(self, seeds=(0,)):
        rng = np.random.default_rng(6)
        records = []
        for a in grid_values():
            for b in grid_values():
                for s in seeds:
                    records.append(rec(a, b, s, rng.random(), rng.random(), rng.random()))
        return records

    def test_full_grid_is_4x4(self):
        grid = heatmap(self.full_grid_records(), "utility")
        assert grid.alpha_groups == ["B", "L", "M", "H"]
        assert grid.beta_groups == ["B", "L", "M", "H"]
        assert grid.values.shape == (4, 4)

    def test_single_record_cell_passthrough(self):
        records = [rec(0.0, 0.0, 0, 0.42, 0.1, 0.5), rec(0.0, 10.0, 0, 0.8, 0.1, 0.5),
                   rec(10.0, 0.0, 0, 0.6, 0.1, 0.5), rec(10.0, 10.0, 0, 0.7, 0.1, 0.5)]
        grid = heatmap(records, "utility")
        assert grid.values[0, 0] == 0.42

    def test_median_rules(self):
        base = [rec(0.0, 0.0, s, v, 0.1, 0.5)
                for s, v in enumerate((0.1, 0.3, 0.2))]
        grid = heatmap(base, "utility")
        assert grid.values[0, 0] == pytest.approx(0.2)
        even = [rec(0.0, 0.0, s, v, 0.1, 0.5) for s, v in enumerate((0.1, 0.3))]
        assert heatmap(even, "utility").values[0, 0] == pytest.approx(0.2)

    def test_matches_brute_force_medians(self):
        records = self.full_grid_records(seeds=(0, 1, 2))
        grid = heatmap(records, "attack_balanced_acc")
        for i, ga in enumerate(grid.alpha_groups):
            for j, gb in enumerate(grid.beta_groups):
                cell = [r.triple.attack_balanced_acc for r in records
                        if group_label(r.alpha) == ga and group_label(r.beta) == gb]
                assert grid.values[i, j] == pytest.approx(np.median(cell), abs=1e-12)

    def test_empty_cell_named(self):
        records = [rec(0.0, 0.0, 0, 0.5, 0.1, 0.5), rec(10.0, 10.0, 0, 0.5, 0.1, 0.5)]
        with pytest.raises(ValueError, match=r"alpha=B, beta=H"):
            heatmap(records, "utility")


class TestCheckGrid:
    def test_complete_grid_ok(self):
        records = [rec(a, b, s, 0.5, 0.1, 0.5)
                   for a in (0.0, 1.0) for b in (0.0, 1.0) for s in (0, 1)]
        check_grid(records, [0.0, 1.0], [0.0, 1.0], [0, 1])

    def test_missing_cell_listed(self):
        records = [rec(0.0, 0.0, 0, 0.5, 0.1, 0.5)]
        with pytest.raises(ValueError, match=r"1\.0"):
            check_grid(records, [0.0, 1.0], [0.0], [0])

    def test_extra_cell_listed(self):
        # Used to fail as "incomplete sweep; missing cells: []".
        records = [rec(a, 0.0, 0, 0.5, 0.1, 0.5) for a in (0.0, 1.0)]
        with pytest.raises(ValueError, match=r"outside the grid: \[\(1\.0, 0\.0, 0\)\]"):
            check_grid(records, [0.0], [0.0], [0])

    def test_duplicate_rejected(self):
        records = [rec(0.0, 0.0, 0, 0.5, 0.1, 0.5)] * 2
        with pytest.raises(ValueError, match="duplicate"):
            check_grid(records, [0.0], [0.0], [0])


class TestSeedMedians:
    def test_collapses_seeds(self):
        records = [rec(0.0, 1.0, s, u, 0.1 * s, 0.5)
                   for s, u in enumerate((0.2, 0.9, 0.4))]
        (m,) = seed_medians(records)
        assert m.triple.utility == pytest.approx(0.4)
        assert m.triple.fairness_gap == pytest.approx(0.1)
        assert m.alpha == 0.0 and m.beta == 1.0
