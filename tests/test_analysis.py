import dataclasses

import numpy as np
import pytest

from fairpriv.analysis import (CSR_WEIGHTS, METRICS, CsrWeights, best_csr, csr, grid_values,
                               group_label, heatmap, normalize, pearson, result_cube,
                               seed_medians, tradeoff_correlations)
from fairpriv.cli.pipeline import RunRecord


def rec(alpha, beta, seed, u, a, p, val_loss=0.1):
    return RunRecord(alpha, beta, seed, u, a, p, val_loss)


def cube_of(records):
    """The cube of ``records`` over the axis values they hold."""
    return result_cube(records, *({r.key[i] for r in records} for i in range(3)))


def column(values):
    """One metric's values as a run x metric table: the metric first, the rest 0."""
    return np.column_stack([values, np.zeros((len(values), 2))])


def random_table(rng, n=12):
    return rng.random((n, len(METRICS)))


class TestMetricTable:
    def test_keys_follow_run_record_metric_fields(self):
        assert list(METRICS) == [f.name for f in dataclasses.fields(RunRecord)][3:-1]

    def test_weights_are_csr_weight_fields(self):
        assert [m.weight for m in METRICS.values()] == [
            f.name for f in dataclasses.fields(CsrWeights)]

    def test_unknown_metric_named(self):
        cube = cube_of([rec(0.0, 0.0, 0, 0.5, 0.1, 0.5), rec(1.0, 0.0, 0, 0.6, 0.2, 0.5)])
        with pytest.raises(ValueError, match="unknown metric 'accuracy'"):
            heatmap(cube, "accuracy")


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


class TestResultCube:
    def test_complete_grid_ok(self):
        records = [rec(a, b, s, a + 0.1 * b + 0.01 * s, 0.1, 0.5, val_loss=s)
                   for a in (0.0, 1.0) for b in (0.0, 1.0) for s in (0, 1)]
        cube = result_cube(records, [1.0, 0.0], [0.0, 1.0], [1, 0])
        assert (cube.alphas, cube.betas, cube.seeds) == ((0.0, 1.0), (0.0, 1.0), (0, 1))
        assert cube.values.shape == (2, 2, 2, 3) and cube.val_loss.shape == (2, 2, 2)
        for r in records:
            at = cube.alphas.index(r.alpha), cube.betas.index(r.beta), cube.seeds.index(r.seed)
            assert list(cube.values[at]) == [r.utility, 0.1, 0.5]
            assert cube.val_loss[at] == r.val_loss

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(11)
        grid = grid_values()
        records = [rec(a, b, s, *rng.random(4)) for a in grid for b in grid[:3] for s in (0, 1)]
        shuffled = [records[i] for i in rng.permutation(len(records))]
        want, got = (result_cube(rs, grid, grid[:3], [0, 1]) for rs in (records, shuffled))
        assert (got.alphas, got.betas, got.seeds) == (want.alphas, want.betas, want.seeds)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.val_loss.tobytes() == want.val_loss.tobytes()

    def test_missing_cell_listed(self):
        records = [rec(0.0, 0.0, 0, 0.5, 0.1, 0.5)]
        with pytest.raises(ValueError, match=r"1\.0"):
            result_cube(records, [0.0, 1.0], [0.0], [0])

    def test_extra_cell_listed(self):
        # Used to fail as "incomplete sweep; missing cells: []".
        records = [rec(a, 0.0, 0, 0.5, 0.1, 0.5) for a in (0.0, 1.0)]
        with pytest.raises(ValueError, match=r"outside the grid: \[\(1\.0, 0\.0, 0\)\]"):
            result_cube(records, [0.0], [0.0], [0])

    def test_duplicate_rejected(self):
        records = [rec(0.0, 0.0, 0, 0.5, 0.1, 0.5)] * 2
        with pytest.raises(ValueError, match="duplicate"):
            result_cube(records, [0.0], [0.0], [0])


class TestNormalize:
    def test_endpoints(self):
        n = normalize(column([0.2, 0.9, 0.5]))
        assert n[0, 0] == 0.0 and n[1, 0] == 1.0

    def test_linear_map(self):
        assert list(normalize(column([2.0, 4.0, 6.0]))[:, 0]) == [0.0, 0.5, 1.0]

    def test_degenerate_all_half(self):
        assert set(normalize(column([0.7] * 4)).ravel()) == {0.5}

    def test_each_metric_on_its_own_over_every_axis(self):
        rng = np.random.default_rng(12)
        values = rng.random((2, 3, 2, 3))
        flat = values.reshape(-1, 3)
        want = (flat - flat.min(axis=0)) / (flat.max(axis=0) - flat.min(axis=0))
        assert normalize(values).tobytes() == want.reshape(values.shape).tobytes()

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.random(6)
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-3, 3)
            n1 = normalize(column(vals))
            n2 = normalize(column(a * vals + b))
            assert n1 == pytest.approx(n2, abs=1e-9)

    def test_one_record_ties(self):
        # A lone run ties with itself, as in the all-ties case.
        assert list(normalize(np.array([[1.0, 0.0, 0.0]]))[0]) == [0.5] * 3

    def test_no_records(self):
        with pytest.raises(ValueError, match="needs >= 1 run"):
            normalize(np.empty((0, 3)))


class TestCsr:
    def test_hand_worked_two_records(self):
        scores = csr(np.array([[0.5, 0.2, 0.9], [1.0, 0.1, 0.6]]), CsrWeights(1 / 3, 1 / 3, 1 / 3))
        assert scores[0] == pytest.approx(0.0, abs=1e-12)
        assert scores[1] == pytest.approx(100.0, abs=1e-12)

    def test_all_extrema_scores_100(self):
        values = np.array([[0.9, 0.0, 0.5], [0.5, 0.3, 0.8], [0.7, 0.1, 0.6]])
        assert csr(values, CsrWeights(0.6, 0.2, 0.2))[0] == pytest.approx(100.0)

    def test_one_score_per_run(self):
        values = np.random.default_rng(13).random((2, 3, 4, 3))
        scores = csr(values, CSR_WEIGHTS[0])
        assert scores.shape == (2, 3, 4)
        assert scores.tobytes() == csr(values.reshape(-1, 3), CSR_WEIGHTS[0]).tobytes()

    def test_pure_utility_matches_utility_order(self):
        rng = np.random.default_rng(1)
        values = random_table(rng)
        scores = csr(values, CsrWeights(1.0, 0.0, 0.0))
        for su, ua in zip(scores, values[:, 0]):
            for sv, ub in zip(scores, values[:, 0]):
                assert np.sign(su - sv) == np.sign(ua - ub)

    def test_monotone_in_each_metric(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            values = random_table(rng, n=8)
            w = rng.dirichlet(np.ones(3))
            weights = CsrWeights(*w)
            base = csr(values, weights)[0]
            improved = values.copy()
            improved[0, 0] = min(1.0, values[0, 0] + 0.1)
            assert csr(improved, weights)[0] >= base - 1e-9

    def test_range(self):
        rng = np.random.default_rng(3)
        scores = csr(random_table(rng), CsrWeights(0.2, 0.2, 0.6))
        assert np.all((-1e-9 <= scores) & (scores <= 100 + 1e-9))

    def test_report_weightings_weigh_each_goal_0_6_in_turn(self):
        assert [dataclasses.astuple(w) for w in CSR_WEIGHTS] == [
            (0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6)]
        for w in CSR_WEIGHTS:
            w.validate()

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            csr(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), CsrWeights(0.5, 0.5, 0.5))


class TestBestCsr:
    def test_dominating_record(self):
        cube = cube_of([rec(1.0, 0.1, 0, 0.9, 0.0, 0.5), rec(0.0, 0.1, 0, 0.5, 0.3, 0.9)])
        score, key = best_csr(cube, CsrWeights(1 / 3, 1 / 3, 1 / 3))
        assert score == pytest.approx(100.0)
        assert key == (1.0, 0.1, 0)

    def test_tie_breaks_to_smaller_alpha(self):
        cube = cube_of([rec(1.0, 0.0, 0, 0.8, 0.1, 0.5), rec(0.1, 0.0, 0, 0.8, 0.1, 0.5),
                        rec(0.0, 0.0, 0, 0.2, 0.9, 0.9)])
        _, key = best_csr(cube, CsrWeights(0.6, 0.2, 0.2))
        assert key == (0.1, 0.0, 0)

    def test_full_tie_breaks_to_the_first_key(self):
        cube = cube_of([rec(a, b, s, 0.5, 0.1, 0.5)
                        for a in (1.0, 0.0) for b in (1.0, 0.1) for s in (2, 1)])
        score, key = best_csr(cube, CSR_WEIGHTS[1])
        assert score == pytest.approx(50.0) and key == (0.0, 0.1, 1)


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
        u = np.array([0.2, 0.5, 0.9])
        p = 0.5 + 0.01 * np.arange(3)
        assert tradeoff_correlations(np.column_stack([u, 1 - u, p]))["uf"] == pytest.approx(1.0)
        assert tradeoff_correlations(np.column_stack([u, u, p]))["uf"] == pytest.approx(-1.0)

    def test_constant_metric_undefined(self):
        u = np.array([0.2, 0.4, 0.6])
        assert tradeoff_correlations(np.column_stack([u, 0.1 * u, [0.7] * 3]))["up"] is None

    def test_three_record_oracle(self):
        values = np.array([[0.5, 0.30, 0.80], [0.7, 0.20, 0.75], [0.9, 0.25, 0.60]])
        u = np.array([-0.5, -0.7, -0.9])
        f = np.array([0.30, 0.20, 0.25])
        p = np.array([0.80, 0.75, 0.60])

        def direct(a, b):
            da, db = a - a.mean(), b - b.mean()
            return (da * db).sum() / np.sqrt((da ** 2).sum() * (db ** 2).sum())

        out = tradeoff_correlations(values)
        assert out["uf"] == pytest.approx(direct(u, f), abs=1e-12)
        assert out["up"] == pytest.approx(direct(u, p), abs=1e-12)
        assert out["fp"] == pytest.approx(direct(f, p), abs=1e-12)

    def test_one_run_has_nothing_to_correlate(self):
        with pytest.raises(ValueError, match="need >= 2 runs"):
            tradeoff_correlations(np.ones((1, 1, 1, 3)))


class TestHeatmap:
    def full_grid_cube(self, seeds=(0,)):
        rng = np.random.default_rng(6)
        grid = grid_values()
        return result_cube([rec(a, b, s, rng.random(), rng.random(), rng.random())
                            for a in grid for b in grid for s in seeds], grid, grid, seeds)

    def test_full_grid_is_4x4(self):
        grid = heatmap(self.full_grid_cube(), "utility")
        assert grid.alpha_groups == ["B", "L", "M", "H"]
        assert grid.beta_groups == ["B", "L", "M", "H"]
        assert grid.values.shape == (4, 4)

    def test_only_populated_groups(self):
        cube = cube_of([rec(a, b, 0, 0.5, 0.1, 0.5) for a in (0.0, 0.01, 10.0) for b in (0.2,)])
        grid = heatmap(cube, "utility")
        assert (grid.alpha_groups, grid.beta_groups) == (["B", "L", "H"], ["M"])
        assert grid.values.shape == (3, 1)

    def test_single_record_cell_passthrough(self):
        records = [rec(0.0, 0.0, 0, 0.42, 0.1, 0.5), rec(0.0, 10.0, 0, 0.8, 0.1, 0.5),
                   rec(10.0, 0.0, 0, 0.6, 0.1, 0.5), rec(10.0, 10.0, 0, 0.7, 0.1, 0.5)]
        grid = heatmap(cube_of(records), "utility")
        assert grid.values[0, 0] == 0.42

    def test_median_rules(self):
        base = [rec(0.0, 0.0, s, v, 0.1, 0.5) for s, v in enumerate((0.1, 0.3, 0.2))]
        grid = heatmap(cube_of(base), "utility")
        assert grid.values[0, 0] == pytest.approx(0.2)
        even = [rec(0.0, 0.0, s, v, 0.1, 0.5) for s, v in enumerate((0.1, 0.3))]
        assert heatmap(cube_of(even), "utility").values[0, 0] == pytest.approx(0.2)

    def test_matches_brute_force_medians(self):
        cube = self.full_grid_cube(seeds=(0, 1, 2))
        grid = heatmap(cube, "attack_balanced_acc")
        for i, ga in enumerate(grid.alpha_groups):
            for j, gb in enumerate(grid.beta_groups):
                cell = [cube.values[ia, ib, k, 2]
                        for ia, a in enumerate(cube.alphas) for ib, b in enumerate(cube.betas)
                        for k in range(3) if group_label(a) == ga and group_label(b) == gb]
                assert grid.values[i, j] == pytest.approx(np.median(cell), abs=1e-12)


class TestSeedMedians:
    def test_collapses_seeds(self):
        records = [rec(0.0, 1.0, s, u, 0.1 * s, 0.5, val_loss=u)
                   for s, u in enumerate((0.2, 0.9, 0.4))]
        m = seed_medians(cube_of(records))
        assert (m.alphas, m.betas, m.seeds) == ((0.0,), (1.0,), ("median",))
        assert m.values.shape == (1, 1, 1, 3) and m.val_loss.shape == (1, 1, 1)
        assert m.values[0, 0, 0, 0] == pytest.approx(0.4)
        assert m.values[0, 0, 0, 1] == pytest.approx(0.1)
        assert m.val_loss[0, 0, 0] == pytest.approx(0.4)

    def test_each_cell_on_its_own(self):
        rng = np.random.default_rng(14)
        records = [rec(a, b, s, *rng.random(4)) for a in (0.0, 1.0) for b in (0.0, 0.1)
                   for s in range(4)]
        cube, m = cube_of(records), seed_medians(cube_of(records))
        for i, j in np.ndindex(2, 2):
            for k, name in enumerate(METRICS):
                cell = [getattr(r, name) for r in records
                        if (r.alpha, r.beta) == (cube.alphas[i], cube.betas[j])]
                assert m.values[i, j, 0, k] == np.median(cell)
