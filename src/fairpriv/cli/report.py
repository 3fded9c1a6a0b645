"""Report tables and SVG heatmaps from sweep results.

The JSON report carries four sections: single-metric baseline/best values,
tradeoff statistics (correlations plus the best conjunctive-soft-ranking
configuration per preference weighting) over the runs and over seed medians,
and the full per-run table with normalized columns and CSR scores.
"""

from __future__ import annotations

import numpy as np

from ..analysis import (CSR_WEIGHTS, METRICS, HeatmapGrid, ResultCube, best_csr, csr,
                        group_label, heatmap, normalize, seed_medians, tradeoff_correlations)


def fmt_pct(v: float) -> str:
    return f"{100.0 * v:.2f}%"


def single_metric_table(cube: ResultCube, utility_metric: str, k_p: int) -> dict:
    """Baseline (no intervention, median over seeds) and best single metrics."""
    util_name = "Acc." if utility_metric == "accuracy" else "TPR"
    chance = 1.0 / k_p
    out = {
        "utility_metric": util_name,
        "chance_level": chance,
        "best": {name: float((np.max if m.higher_is_better else np.min)(cube.values[..., k]))
                 for k, (name, m) in enumerate(METRICS.items())},
        "baseline": None,
    }
    out["formatted"] = {f"best_{m.weight}": fmt_pct(out["best"][name])
                        for name, m in METRICS.items()}
    if 0.0 in cube.alphas and 0.0 in cube.betas:
        base = cube.values[cube.alphas.index(0.0), cube.betas.index(0.0)]
        out["baseline"] = dict(zip(METRICS, map(float, np.median(base, axis=0))))
        out["formatted"].update({
            "baseline_utility": f"{fmt_pct(out['baseline']['utility'])} ({util_name})",
            "baseline_fairness": f"{fmt_pct(out['baseline']['fairness_gap'])} ({util_name} Gap)",
            "baseline_privacy": (f"{fmt_pct(out['baseline']['attack_balanced_acc'])} "
                                 f"({100.0 * chance:.0f}%)"),
        })
    return out


def _fmt_corr(v: float | None) -> str:
    return "undefined" if v is None else f"{v:.2f}"


def tradeoff_table(cube: ResultCube) -> dict | None:
    """Correlations and best CSR per weighting of CSR_WEIGHTS; None below two
    runs, which leave nothing to correlate."""
    if cube.val_loss.size < 2:
        return None
    corr = tradeoff_correlations(cube.values)
    entries = []
    for w in CSR_WEIGHTS:
        score, (alpha, beta, _) = best_csr(cube, w)
        a_group, b_group = group_label(alpha), group_label(beta)
        entries.append({
            "weights": [w.utility, w.fairness, w.privacy],
            "score": score,
            "alpha": alpha,
            "beta": beta,
            "alpha_group": a_group,
            "beta_group": b_group,
            "formatted": f"{score:.2f}% ({a_group}., {b_group}.)",
        })
    return {
        "correlations": {**corr, "formatted": {k: _fmt_corr(v) for k, v in corr.items()}},
        "csr": entries,
    }


def run_table(cube: ResultCube) -> list:
    """Per-run rows in key order, with group labels, normalized metrics, and CSR
    scores under CSR_WEIGHTS."""
    norm = normalize(cube.values)
    scores = {f"{w.utility:g}/{w.fairness:g}/{w.privacy:g}": csr(cube.values, w)
              for w in CSR_WEIGHTS}
    rows, axes = [], (cube.alphas, cube.betas, cube.seeds)
    for at in np.ndindex(cube.val_loss.shape):
        alpha, beta, seed = (axis[i] for axis, i in zip(axes, at))
        rows.append({
            "alpha": alpha, "beta": beta, "seed": seed,
            "alpha_group": group_label(alpha), "beta_group": group_label(beta),
            **dict(zip(METRICS, map(float, cube.values[at]))),
            "val_loss": float(cube.val_loss[at]),
            "normalized": dict(zip(METRICS, map(float, norm[at]))),
            "csr": {name: float(s[at]) for name, s in scores.items()},
        })
    return rows


def build_report(cube: ResultCube, config, k_p: int) -> dict:
    return {
        "single_metrics": single_metric_table(cube, config.utility_metric, k_p),
        "tradeoffs": tradeoff_table(cube),
        "tradeoffs_over_seed_medians": tradeoff_table(seed_medians(cube)),
        "runs": run_table(cube),
    }


def _columns(title: str, header: list, values: list) -> list:
    """A titled block: header and value rows, every column as wide as the widest cell + 2."""
    width = max(len(s) for s in header + values) + 2
    return [title, "-" * 78, "".join(h.ljust(width) for h in header),
            "".join(v.ljust(width) for v in values)]


def _tradeoff_lines(title: str, td: dict | None, unit: str) -> list:
    if td is None:
        return [title, "-" * 78, f"n/a: fewer than two {unit}"]
    corr = td["correlations"]["formatted"]
    header = ["U./F. Corr.", "U./P. Corr.", "F./P. Corr."] + [
        "CSR(" + ", ".join(f"{w:g}" for w in e["weights"]) + ")" for e in td["csr"]]
    values = [corr["uf"], corr["up"], corr["fp"]] + [e["formatted"] for e in td["csr"]]
    return _columns(title, header, values)


def text_tables(report: dict) -> str:
    """Terminal-friendly rendering of the single-metric and both tradeoff tables."""
    f = report["single_metrics"]["formatted"]
    cells = [(kind, m.weight) for kind in ("baseline", "best") for m in METRICS.values()]
    lines = _columns("Single metrics", [f"{k.title()} {w.title()}" for k, w in cells],
                     [f.get(f"{k}_{w}", "n/a") for k, w in cells])
    lines += ["", *_tradeoff_lines("Tradeoffs", report["tradeoffs"], "runs")]
    lines += ["", *_tradeoff_lines("Tradeoffs over seed medians",
                                   report["tradeoffs_over_seed_medians"],
                                   "(alpha, beta) cells")]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG heatmaps

_LOW_RGB = (247, 251, 255)
_HIGH_RGB = (8, 48, 107)
_CELL = 64  # a heatmap cell's side, in px


def _cell_color(t: float) -> str:
    rgb = [round(lo + t * (hi - lo)) for lo, hi in zip(_LOW_RGB, _HIGH_RGB)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def heatmap_svg(grid: HeatmapGrid) -> str:
    """Render a grouped-median heatmap: one rect + one value label per cell."""
    left, top, right, bottom = 88, 64, 24, 16
    n_rows, n_cols = len(grid.alpha_groups), len(grid.beta_groups)
    width = left + _CELL * n_cols + right
    height = top + _CELL * n_rows + bottom
    vmin = float(grid.values.min())
    vmax = float(grid.values.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text class="title" x="{width / 2:g}" y="20" text-anchor="middle" '
        f'font-size="15">{grid.metric}</text>',
        f'<text class="axis" x="{left + _CELL * n_cols / 2:g}" y="40" '
        f'text-anchor="middle">beta group</text>',
        f'<text class="axis" x="14" y="{top + _CELL * n_rows / 2:g}" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{top + _CELL * n_rows / 2:g})">alpha group</text>',
    ]
    for j, gb in enumerate(grid.beta_groups):
        parts.append(f'<text class="tick" x="{left + _CELL * j + _CELL / 2:g}" y="58" '
                     f'text-anchor="middle">{gb}</text>')
    for i, ga in enumerate(grid.alpha_groups):
        parts.append(f'<text class="tick" x="{left - 10}" '
                     f'y="{top + _CELL * i + _CELL / 2 + 4:g}" text-anchor="end">{ga}</text>')
        for j in range(n_cols):
            v = float(grid.values[i, j])
            t = 0.5 if vmax == vmin else (v - vmin) / (vmax - vmin)
            x, y = left + _CELL * j, top + _CELL * i
            parts.append(f'<rect class="cell" x="{x}" y="{y}" width="{_CELL}" '
                         f'height="{_CELL}" fill="{_cell_color(t)}" stroke="#ffffff"/>')
            ink = "#ffffff" if t > 0.55 else "#1a1a1a"
            parts.append(f'<text class="cell-value" x="{x + _CELL / 2:g}" '
                         f'y="{y + _CELL / 2 + 4:g}" text-anchor="middle" '
                         f'fill="{ink}">{v:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_heatmaps(cube: ResultCube) -> dict[str, HeatmapGrid]:
    return {m: heatmap(cube, m) for m in METRICS}
