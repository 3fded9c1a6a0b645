"""Sweep-level analytics over trained-run records.

Covers min-max normalization of each metric across the sweep, the
conjunctive soft ranking (CSR) that scores every run under a preference
weighting, pairwise tradeoff correlations with utility negated to align
improvement directions, and grouped-median heatmaps over regularization
strength buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_fields, _is_real
from .evaluation import MetricTriple

GROUP_ORDER = ("B", "L", "M", "H")

# Regularization-strength buckets: Baseline, Low, Medium, High.
_GROUP_RANGES = (("L", 0.01, 0.05), ("M", 0.1, 0.5), ("H", 1.0, 10.0))

METRICS = {
    "utility": lambda r: r.triple.utility,
    "fairness_gap": lambda r: r.triple.fairness_gap,
    "attack_balanced_acc": lambda r: r.triple.attack_balanced_acc,
}


@dataclass
class RunRecord:
    alpha: float
    beta: float
    seed: int
    triple: MetricTriple
    val_loss: float

    @property
    def key(self) -> tuple:
        return (self.alpha, self.beta, self.seed)


@dataclass
class SweepResult:
    records: list
    alphas: list
    betas: list
    seeds: list

    def validate(self) -> None:
        """Require exactly one record per (alpha, beta, seed) grid point."""
        seen = set()
        for r in self.records:
            if r.key in seen:
                raise ValueError(f"duplicate record for {r.key}")
            seen.add(r.key)
        grid = {(a, b, s) for a in self.alphas for b in self.betas for s in self.seeds}
        missing, extra = sorted(grid - seen), sorted(seen - grid)
        if missing or extra:
            raise ValueError(f"records do not match the grid; missing cells: {missing[:20]}, "
                             f"cells outside the grid: {extra[:20]}")


@dataclass
class CsrWeights:
    utility: float
    fairness: float
    privacy: float

    def validate(self) -> None:
        _check_fields(self, ("utility", "fairness", "privacy"),
                      lambda v: _is_real(v) and v >= 0, "a finite number >= 0")
        total = self.utility + self.fairness + self.privacy
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"utility + fairness + privacy: must sum to 1, got {total}")


@dataclass
class HeatmapGrid:
    metric: str
    alpha_groups: list
    beta_groups: list
    values: np.ndarray  # len(alpha_groups) x len(beta_groups), group medians


def grid_values() -> list[float]:
    """Zero plus ten logarithmic steps from 1e-2 to 10."""
    return [0.0] + [10.0 ** (-2.0 + 3.0 * k / 9.0) for k in range(10)]


def group_label(v: float) -> str:
    """Bucket a regularization strength into B/L/M/H; off-grid values error."""
    if v == 0.0:
        return "B"
    for label, lo, hi in _GROUP_RANGES:
        if lo * (1 - 1e-9) <= v <= hi * (1 + 1e-9):
            return label
    raise ValueError(f"{v} falls outside every regularization group")


def _metric_fn(metric: str):
    try:
        return METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}")


def normalize(records, metric: str) -> dict:
    """Min-max normalize a metric over all records: worst -> 0, best -> 1.

    Keyed by (alpha, beta, seed). If every record ties, all values are 0.5.
    """
    if len(records) < 2:
        raise ValueError("normalization needs >= 2 records")
    fn = _metric_fn(metric)
    values = np.array([fn(r) for r in records])
    lo, hi = values.min(), values.max()
    if hi == lo:
        return {r.key: 0.5 for r in records}
    return {r.key: float((fn(r) - lo) / (hi - lo)) for r in records}


def csr(records, weights: CsrWeights) -> dict:
    """Conjunctive soft ranking in [0, 100] per record.

    Convex combination of the normalized metrics, with the fairness gap and
    attack accuracy flipped so that higher is better for all three terms.
    """
    weights.validate()
    n_u = normalize(records, "utility")
    n_a = normalize(records, "fairness_gap")
    n_p = normalize(records, "attack_balanced_acc")
    return {
        r.key: 100.0 * (weights.utility * n_u[r.key]
                        + weights.fairness * (1.0 - n_a[r.key])
                        + weights.privacy * (1.0 - n_p[r.key]))
        for r in records
    }


@dataclass
class CsrBest:
    score: float
    alpha: float
    beta: float
    seed: int
    alpha_group: str
    beta_group: str


def best_csr(records, weights: CsrWeights) -> CsrBest:
    """Top-scoring record; ties resolve to smaller alpha, then beta, then seed."""
    scores = csr(records, weights)
    best = max(records, key=lambda r: (scores[r.key], -r.alpha, -r.beta, -r.seed))
    return CsrBest(scores[best.key], best.alpha, best.beta, best.seed,
                   group_label(best.alpha), group_label(best.beta))


def pearson(xs, ys) -> float | None:
    """Sample Pearson correlation; None when either side has zero variance."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("pearson needs >= 2 points")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None  # constant arguments leave the correlation undefined
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt((dx * dx).sum())
    sy = np.sqrt((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        return None
    return float((dx * dy).sum() / (sx * sy))


def tradeoff_correlations(records) -> dict:
    """Pairwise metric correlations, utility negated to align directions.

    Keys: "uf" (utility/fairness), "up" (utility/privacy), "fp"
    (fairness/privacy). Values may be None when a metric is constant.
    """
    if len(records) < 2:
        raise ValueError("correlations need >= 2 records")
    u = [-r.triple.utility for r in records]
    f = [r.triple.fairness_gap for r in records]
    p = [r.triple.attack_balanced_acc for r in records]
    return {"uf": pearson(u, f), "up": pearson(u, p), "fp": pearson(f, p)}


def seed_medians(records) -> list:
    """Collapse seeds: one record per (alpha, beta) holding per-metric medians."""
    by_ab = {}
    for r in records:
        by_ab.setdefault((r.alpha, r.beta), []).append(r)
    out = []
    for (a, b), rs in sorted(by_ab.items()):
        triple = MetricTriple(
            utility=float(np.median([x.triple.utility for x in rs])),
            fairness_gap=float(np.median([x.triple.fairness_gap for x in rs])),
            attack_balanced_acc=float(np.median([x.triple.attack_balanced_acc for x in rs])),
        )
        out.append(RunRecord(a, b, seed=-1, triple=triple,
                             val_loss=float(np.median([x.val_loss for x in rs]))))
    return out


def heatmap(records, metric: str) -> HeatmapGrid:
    """Median of a metric per (alpha-group, beta-group) cell.

    The grid covers the groups actually present in the records (the full
    sweep populates all four per axis); any empty cell in that cover is an
    error naming the cell.
    """
    fn = _metric_fn(metric)
    a_groups = [g for g in GROUP_ORDER if any(group_label(r.alpha) == g for r in records)]
    b_groups = [g for g in GROUP_ORDER if any(group_label(r.beta) == g for r in records)]
    values = np.zeros((len(a_groups), len(b_groups)))
    for i, ga in enumerate(a_groups):
        for j, gb in enumerate(b_groups):
            cell = [fn(r) for r in records
                    if group_label(r.alpha) == ga and group_label(r.beta) == gb]
            if not cell:
                raise ValueError(f"heatmap cell (alpha={ga}, beta={gb}) is empty")
            values[i, j] = np.median(cell)
    return HeatmapGrid(metric=metric, alpha_groups=a_groups, beta_groups=b_groups,
                       values=values)
