"""Unit tests for the benchmark's arithmetic.

    python3 -m pytest perfbench
"""

import math

import pytest

import metrics

HEADER = "alpha,beta,seed,utility,fairness_gap,attack_balanced_acc,val_loss\n"
ROWS = ("0.0,0.0,0,0.625,0.125,0.75,0.5\n"
        "0.0,10.0,0,0.5,0.25,0.5,0.625\n")


def span(sid, name, start, end, parent=None, attrs=None):
    return (sid, name, start, end, parent, None, attrs)


class TestTailRule:
    def test_percentile_leaves_ten_samples_above_and_is_the_highest(self):
        for n in range(20, 600):
            q = metrics.tail_percentile(n)
            assert n - math.ceil(q * n / 100) >= 10
            assert q == 99 or n - math.ceil((q + 1) * n / 100) < 10

    @pytest.mark.parametrize("n, q", [(1, 50), (10, 50), (19, 50), (20, 50), (21, 52),
                                      (40, 75), (100, 90), (1000, 99), (5000, 99)])
    def test_known_values(self, n, q):
        assert metrics.tail_percentile(n) == q

    def test_tail_latency_on_1_to_100(self):
        value, q, n = metrics.tail_latency(range(100, 0, -1))
        assert (value, q, n) == (90, 90, 100)

    def test_few_samples_fall_back_to_the_median(self):
        assert metrics.tail_latency([4.0, 1.0, 2.0, 3.0]) == (2.5, 50, 4)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            metrics.tail_latency([])


class TestSelfTime:
    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [span("p:0", "sweep", 0.0, 10.0),
                 span("w1:0", "run", 1.0, 3.0, "p:0"),
                 span("w2:0", "run", 2.0, 5.0, "p:0"),
                 span("w1:1", "run", 8.0, 12.0, "p:0")]
        selfs = metrics.self_times(spans)
        assert selfs["p:0"] == pytest.approx(10.0 - 4.0 - 2.0)
        assert selfs["w1:1"] == pytest.approx(4.0)

    def test_nested_chain(self):
        spans = [span("1:0", "train", 0.0, 4.0),
                 span("1:1", "objective", 0.5, 1.5, "1:0"),
                 span("1:2", "backward", 1.5, 2.0, "1:0")]
        assert metrics.self_times(spans)["1:0"] == pytest.approx(2.5)
        summary = metrics.span_summary(spans)
        assert summary["train"] == {"count": 1, "total_s": 4.0, "self_s": 2.5}
        assert list(summary) == ["backward", "objective", "train"]


class TestSweepRatios:
    def test_parallel_efficiency(self):
        assert metrics.parallel_efficiency([2.0] * 4, 4.0, 2) == pytest.approx(1.0)
        assert metrics.parallel_efficiency([1.0, 1.0], 2.0, 2) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            metrics.parallel_efficiency([1.0], 0.0, 2)

    def test_cpu_per_run(self):
        assert metrics.cpu_per_run(10.0, 4) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            metrics.cpu_per_run(1.0, 0)

    def test_layer_metrics_read_the_sweep_span(self):
        spans = [span("p:0", "pipeline.sweep", 0.0, 5.0, attrs={"jobs": 2, "cpu_s": 12.0}),
                 span("w:0", "pipeline.run_single", 0.0, 4.0, "p:0"),
                 span("w:1", "training.train", 0.5, 3.0, "w:0"),
                 span("w:2", "training.objective", 0.5, 0.502, "w:1"),
                 span("w:3", "training.val_pass", 1.0, 1.1, "w:1"),
                 span("w:4", "training.objective", 1.0, 1.1, "w:3"),
                 span("v:0", "pipeline.run_single", 0.0, 4.0, "p:0")]
        m = metrics.layer_metrics(spans, [], traced_wall_s=5.5, untraced_wall_s=5.0)
        assert m["pipeline.parallel_efficiency"] == pytest.approx(8.0 / 10.0)
        assert m["pipeline.cpu_per_run_s"] == pytest.approx(6.0)
        assert m["training.steps"] == 1  # the val-pass objective is not a step
        assert m["training.forward_ms"] == pytest.approx(2.0)
        assert m["trace_overhead_share"] == pytest.approx(0.1)
        assert set(m) == set(metrics.LAYER_UNITS)


class TestResultsDeviation:
    def test_identical_is_zero(self):
        assert metrics.results_max_abs_dev(HEADER + ROWS, HEADER + ROWS) == 0.0

    def test_largest_cell_difference(self):
        changed = ROWS.replace("0.625,0.125", "0.5,0.125").replace(",0.625\n", ",0.6251\n")
        dev = metrics.results_max_abs_dev(HEADER + changed, HEADER + ROWS)
        assert dev == pytest.approx(0.125)

    def test_missing_row_error_row_or_other_header_is_infinite(self):
        first, second = ROWS.splitlines(keepends=True)
        assert metrics.results_max_abs_dev(HEADER + first, HEADER + ROWS) == math.inf
        error = "0.0,10.0,0,ERROR,ERROR,ERROR,ERROR\n"
        assert metrics.results_max_abs_dev(HEADER + first + error, HEADER + ROWS) == math.inf
        other = HEADER.replace("val_loss", "loss")
        assert metrics.results_max_abs_dev(other + ROWS, HEADER + ROWS) == math.inf

    def test_duplicate_rows_are_rejected(self):
        first = ROWS.splitlines(keepends=True)[0]
        with pytest.raises(ValueError):
            metrics.parse_results(HEADER + first + first)
