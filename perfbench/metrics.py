"""The benchmark's arithmetic: latency percentiles, span self time, sweep
ratios, result deviations and the per-layer metrics of a traced pass.

Pure standard library, so the benchmark process itself never imports numpy
or fairpriv. A span is a tuple ``(id, name, start, end, parent_id, run_id,
attrs)`` with times in seconds from ``time.perf_counter`` (one system-wide
monotonic clock on Linux, so spans from different processes line up).
"""

from __future__ import annotations

import csv
import io
import math
import statistics

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least TAIL_BEYOND of n samples above it.

    With nearest-rank percentiles, percentile q sits at rank ceil(q * n / 100),
    which leaves n - rank samples above it. The result is never below 50:
    with fewer than 2 * TAIL_BEYOND samples no percentile above the median
    qualifies, and the tail is reported as the median.
    """
    if n < 1:
        raise ValueError("no samples")
    q = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 0
    return max(50, q)


def tail_latency(samples) -> tuple[float, int, int]:
    """(value, percentile, sample count) for the tail rule of tail_percentile."""
    xs = sorted(samples)
    q = tail_percentile(len(xs))
    if q == 50:
        return statistics.median(xs), q, len(xs)
    rank = math.ceil(q * len(xs) / 100)
    return xs[rank - 1], q, len(xs)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap each other (pool workers under one sweep span), so
    the covered part is the union of their intervals, not their sum.
    """
    children = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - union_length(children.get(sid, ()), start, end)
            for sid, _, start, end, _, _, _ in spans}


def span_summary(spans) -> dict:
    """Span name -> {count, total_s, self_s}, sorted by name."""
    selfs = self_times(spans)
    out = {}
    for sid, name, start, end, _, _, _ in spans:
        row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return dict(sorted(out.items()))


def parallel_efficiency(run_seconds, sweep_wall_s: float, jobs: int) -> float:
    """Summed run time over the time the jobs' cores were held by the sweep."""
    if sweep_wall_s <= 0 or jobs < 1:
        raise ValueError("sweep wall time and jobs must be positive")
    return sum(run_seconds) / (sweep_wall_s * jobs)


def cpu_per_run(cpu_seconds: float, runs: int) -> float:
    """User+sys CPU of the sweeping process and its workers, per finished run."""
    if runs < 1:
        raise ValueError("no runs")
    return cpu_seconds / runs


def parse_results(text: str) -> tuple[list, dict]:
    """results.csv text -> (header, {(alpha, beta, seed): [field, ...]})."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty results file")
    table = {}
    for row in rows[1:]:
        key = (float(row[0]), float(row[1]), int(row[2]))
        if key in table:
            raise ValueError(f"duplicate row for {key}")
        table[key] = row[3:]
    return rows[0], table


def results_max_abs_dev(text: str, reference_text: str) -> float:
    """Largest |difference| over every run and metric column from a reference.

    A missing or extra run, a different header, or a non-numeric cell (an
    ERROR row) makes the deviation infinite.
    """
    header, table = parse_results(text)
    ref_header, ref_table = parse_results(reference_text)
    if header != ref_header or set(table) != set(ref_table):
        return math.inf
    dev = 0.0
    for key, fields in table.items():
        ref_fields = ref_table[key]
        if len(fields) != len(ref_fields):
            return math.inf
        for got, want in zip(fields, ref_fields):
            try:
                d = abs(float(got) - float(want))
            except ValueError:
                return math.inf
            if not math.isfinite(d):
                return math.inf
            dev = max(dev, d)
    return dev


def _durations(spans, name, parent_names=None, by_id=None):
    out = []
    for _, n, start, end, parent, _, _ in spans:
        if n != name:
            continue
        if parent_names is not None:
            parent_span = by_id.get(parent)
            if parent_span is None or parent_span[1] not in parent_names:
                continue
        out.append(end - start)
    return out


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


# Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "data.generate_s": "s", "data.make_splits_s": "s", "config.load_s": "s",
    "training.forward_ms": "ms", "training.backward_ms": "ms", "training.adam_ms": "ms",
    "training.steps": "count", "training.val_pass_ms": "ms", "training.train_s": "s",
    "evaluation.fit_attacker_s": "s", "evaluation.evaluate_bundle_s": "s",
    "pipeline.run_single_s": "s", "pipeline.sweep_s": "s",
    "pipeline.parallel_efficiency": "ratio", "pipeline.cpu_per_run_s": "s",
    "report.build_report_s": "s", "report.heatmaps_s": "s",
    "pipeline.write_results_s": "s", "trace_overhead_share": "share",
}


def layer_metrics(spans, setup_spans, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``spans`` come from the traced pass (sweep plus analyze); ``setup_spans``
    from the traced set-up processes. Per-call times are medians, except the
    per-step training times, which are means over all steps. A layer that
    left no span reads 0.
    """
    both = list(setup_spans) + list(spans)
    by_id = {s[0]: s for s in spans}
    steps = _durations(spans, "training.objective", {"training.train"}, by_id)
    runs = _durations(spans, "pipeline.run_single")
    sweeps = [s for s in spans if s[1] == "pipeline.sweep"]
    m = {
        "data.generate_s": _median(_durations(both, "data.generate")),
        "data.make_splits_s": _median(_durations(both, "data.make_splits")),
        "config.load_s": _median(_durations(both, "config.load")),
        "training.forward_ms": 1e3 * _mean(steps),
        "training.backward_ms": 1e3 * _mean(_durations(spans, "learncore.backward")),
        "training.adam_ms": 1e3 * _mean(_durations(spans, "learncore.adam_step")),
        "training.steps": len(steps),
        "training.val_pass_ms": 1e3 * _mean(_durations(spans, "training.val_pass")),
        "training.train_s": _median(_durations(spans, "training.train")),
        "evaluation.fit_attacker_s": _median(_durations(spans, "evaluation.fit_attacker")),
        "evaluation.evaluate_bundle_s":
            _median(_durations(spans, "evaluation.evaluate_bundle")),
        "pipeline.run_single_s": _median(runs),
        "pipeline.sweep_s": 0.0, "pipeline.parallel_efficiency": 0.0,
        "pipeline.cpu_per_run_s": 0.0,
        "report.build_report_s": sum(_durations(spans, "report.build_report")),
        "report.heatmaps_s": sum(_durations(spans, "report.build_heatmaps"))
                             + sum(_durations(spans, "report.heatmap_svg")),
        "pipeline.write_results_s": sum(_durations(spans, "pipeline.write_results")),
        "trace_overhead_share": (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    }
    if len(sweeps) == 1 and runs:
        _, _, start, end, _, _, attrs = sweeps[0]
        m["pipeline.sweep_s"] = end - start
        m["pipeline.parallel_efficiency"] = parallel_efficiency(runs, end - start,
                                                                attrs["jobs"])
        m["pipeline.cpu_per_run_s"] = cpu_per_run(attrs["cpu_s"], len(runs))
    return m
