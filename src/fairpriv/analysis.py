"""Sweep-level analytics over a complete result cube.

``result_cube`` reads a sweep's records once into an (alpha, beta, seed,
metric) array. On it: min-max normalization of each metric across the runs,
the conjunctive soft ranking (CSR) that scores every run under a preference
weighting, pairwise tradeoff correlations with utility negated to align
improvement directions, seed medians, and grouped-median heatmaps over
regularization strength buckets. Each takes its runs in key order, so no
result depends on the order of the records.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .data import _check_fields, _is_real

GROUP_ORDER = ("B", "L", "M", "H")

# Regularization-strength buckets: Baseline, Low, Medium, High.
_GROUP_RANGES = (("L", 0.01, 0.05), ("M", 0.1, 0.5), ("H", 1.0, 10.0))


@dataclass(frozen=True)
class Metric:
    higher_is_better: bool
    weight: str  # the CsrWeights field that weighs it
    letter: str  # its letter in tradeoff_correlations' keys


# The per-run metrics, keyed by their RunRecord fields (results.csv's metric
# columns) in field order; a cube's last axis follows this order.
METRICS = {
    "utility": Metric(higher_is_better=True, weight="utility", letter="u"),
    "fairness_gap": Metric(higher_is_better=False, weight="fairness", letter="f"),
    "attack_balanced_acc": Metric(higher_is_better=False, weight="privacy", letter="p"),
}


@dataclass(frozen=True)
class ResultCube:
    """A complete sweep: run (alphas[i], betas[j], seeds[k]) has metric values
    ``values[i, j, k]`` (in METRICS order) and ``val_loss[i, j, k]``. The axes
    are sorted, so C order is the runs' key order."""
    alphas: tuple
    betas: tuple
    seeds: tuple
    values: np.ndarray  # (alphas, betas, seeds, METRICS)
    val_loss: np.ndarray  # (alphas, betas, seeds)


def result_cube(records, alphas, betas, seeds) -> ResultCube:
    """The cube of ``records``, which must hold exactly one record per (alpha,
    beta, seed) grid point, in any order."""
    seen = set()
    for r in records:
        if r.key in seen:
            raise ValueError(f"duplicate record for {r.key}")
        seen.add(r.key)
    axes = tuple(tuple(sorted(axis)) for axis in (alphas, betas, seeds))
    grid = set(product(*axes))
    missing, extra = sorted(grid - seen), sorted(seen - grid)
    if missing or extra:
        raise ValueError(f"records do not match the grid; missing cells: {missing[:20]}, "
                         f"cells outside the grid: {extra[:20]}")
    runs = sorted(records, key=lambda r: r.key)  # the grid's C order
    shape = tuple(map(len, axes))
    values = np.array([[getattr(r, name) for name in METRICS] for r in runs],
                      dtype=np.float64).reshape(*shape, len(METRICS))
    val_loss = np.array([r.val_loss for r in runs], dtype=np.float64).reshape(shape)
    return ResultCube(*axes, values=values, val_loss=val_loss)


@dataclass(frozen=True)
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


# The report's preference weightings: each goal weighed 0.6 in turn.
CSR_WEIGHTS = (CsrWeights(0.6, 0.2, 0.2), CsrWeights(0.2, 0.6, 0.2), CsrWeights(0.2, 0.2, 0.6))


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


def _runs(values: np.ndarray) -> np.ndarray:
    """``values`` as one row per run, one column per metric."""
    return np.asarray(values, dtype=np.float64).reshape(-1, len(METRICS))


def normalize(values: np.ndarray) -> np.ndarray:
    """Min-max normalize each metric (the last axis) over all runs: lowest -> 0,
    highest -> 1. A metric on which every run ties, a lone run included, is 0.5."""
    runs = _runs(values)
    if not len(runs):
        raise ValueError("normalization needs >= 1 run")
    lo, hi = runs.min(axis=0), runs.max(axis=0)
    return np.divide(values - lo, hi - lo, out=np.full(np.shape(values), 0.5), where=hi > lo)


def csr(values: np.ndarray, weights: CsrWeights) -> np.ndarray:
    """Conjunctive soft ranking in [0, 100] per run (``values`` without its last axis).

    Convex combination of the normalized metrics, with the lower-is-better
    ones flipped so that higher is better for every term.
    """
    weights.validate()
    norm, total = normalize(values), 0.0
    for k, m in enumerate(METRICS.values()):  # terms add left to right in METRICS order
        total = total + getattr(weights, m.weight) * (
            norm[..., k] if m.higher_is_better else 1.0 - norm[..., k])
    return 100.0 * total


def best_csr(cube: ResultCube, weights: CsrWeights) -> tuple[float, tuple]:
    """(score, (alpha, beta, seed)) of the top-scoring run; ties resolve to the
    first in key order: smaller alpha, then beta, then seed."""
    scores = csr(cube.values, weights)
    i, j, k = np.unravel_index(np.argmax(scores), scores.shape)
    return float(scores[i, j, k]), (cube.alphas[i], cube.betas[j], cube.seeds[k])


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


def tradeoff_correlations(values: np.ndarray) -> dict:
    """Pairwise metric correlations over all runs, utility negated to align directions.

    Keys: "uf" (utility/fairness), "up" (utility/privacy), "fp"
    (fairness/privacy). Values may be None when a metric is constant.
    """
    columns = np.ascontiguousarray(_runs(values).T)  # each metric's runs, in key order
    if columns.shape[1] < 2:
        raise ValueError("correlations need >= 2 runs")
    series = {m.letter: -col if m.higher_is_better else col
              for m, col in zip(METRICS.values(), columns)}
    return {a + b: pearson(xs, ys) for (a, xs), (b, ys) in combinations(series.items(), 2)}


def seed_medians(cube: ResultCube) -> ResultCube:
    """Collapse seeds: one run per (alpha, beta) holding per-metric medians, on a
    seed axis of one entry, "median"."""
    return ResultCube(cube.alphas, cube.betas, ("median",),
                      values=np.median(cube.values, axis=2, keepdims=True),
                      val_loss=np.median(cube.val_loss, axis=2, keepdims=True))


def heatmap(cube: ResultCube, metric: str) -> HeatmapGrid:
    """Median of a metric per (alpha-group, beta-group) cell, over the groups
    the cube's axes populate (the full sweep populates all four per axis)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}")
    values = cube.values[..., list(METRICS).index(metric)]
    a_labels = np.array([group_label(v) for v in cube.alphas])
    b_labels = np.array([group_label(v) for v in cube.betas])
    a_groups = [g for g in GROUP_ORDER if g in a_labels]
    b_groups = [g for g in GROUP_ORDER if g in b_labels]
    medians = [[np.median(values[a_labels == ga][:, b_labels == gb]) for gb in b_groups]
               for ga in a_groups]
    return HeatmapGrid(metric=metric, alpha_groups=a_groups, beta_groups=b_groups,
                       values=np.array(medians, dtype=np.float64))
