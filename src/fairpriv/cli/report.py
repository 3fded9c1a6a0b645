"""Report tables and SVG heatmaps from sweep results.

The JSON report carries three sections: single-metric baseline/best values,
tradeoff statistics (correlations plus the best conjunctive-soft-ranking
configuration per preference weighting), and the full per-run table with
normalized columns and CSR scores.
"""

from __future__ import annotations

import numpy as np

from ..analysis import (METRICS, HeatmapGrid, best_csr, csr, group_label, heatmap,
                        normalize, seed_medians, tradeoff_correlations)


def fmt_pct(v: float) -> str:
    return f"{100.0 * v:.2f}%"


def _median(values) -> float:
    return float(np.median(values))


def single_metric_table(records, utility_metric: str, k_p: int) -> dict:
    """Baseline (no intervention, median over seeds) and best single metrics."""
    util_name = "Acc." if utility_metric == "accuracy" else "TPR"
    chance = 1.0 / k_p
    out = {
        "utility_metric": util_name,
        "chance_level": chance,
        "best": {
            "utility": max(r.triple.utility for r in records),
            "fairness_gap": min(r.triple.fairness_gap for r in records),
            "attack_balanced_acc": min(r.triple.attack_balanced_acc for r in records),
        },
    }
    base = [r for r in records if r.alpha == 0.0 and r.beta == 0.0]
    if base:
        out["baseline"] = {
            "utility": _median([r.triple.utility for r in base]),
            "fairness_gap": _median([r.triple.fairness_gap for r in base]),
            "attack_balanced_acc": _median([r.triple.attack_balanced_acc for r in base]),
        }
        out["formatted"] = {
            "baseline_utility": f"{fmt_pct(out['baseline']['utility'])} ({util_name})",
            "baseline_fairness": f"{fmt_pct(out['baseline']['fairness_gap'])} ({util_name} Gap)",
            "baseline_privacy": (f"{fmt_pct(out['baseline']['attack_balanced_acc'])} "
                                 f"({100.0 * chance:.0f}%)"),
        }
    else:
        out["baseline"] = None
        out["formatted"] = {}
    out["formatted"].update({
        "best_utility": fmt_pct(out["best"]["utility"]),
        "best_fairness": fmt_pct(out["best"]["fairness_gap"]),
        "best_privacy": fmt_pct(out["best"]["attack_balanced_acc"]),
    })
    return out


def _fmt_corr(v: float | None) -> str:
    return "undefined" if v is None else f"{v:.2f}"


def tradeoff_table(records, csr_weights, correlations_over_seed_medians: bool = False,
                   csr_over_seed_medians: bool = False) -> dict:
    corr_records = seed_medians(records) if correlations_over_seed_medians else records
    csr_records = seed_medians(records) if csr_over_seed_medians else records
    corr = tradeoff_correlations(corr_records)
    entries = []
    for w in csr_weights:
        top = best_csr(csr_records, w)
        entries.append({
            "weights": [w.utility, w.fairness, w.privacy],
            "score": top.score,
            "alpha": top.alpha,
            "beta": top.beta,
            "alpha_group": top.alpha_group,
            "beta_group": top.beta_group,
            "formatted": f"{top.score:.2f}% ({top.alpha_group}., {top.beta_group}.)",
        })
    return {
        "correlations": {
            "uf": corr["uf"], "up": corr["up"], "fp": corr["fp"],
            "formatted": {k: _fmt_corr(corr[k]) for k in ("uf", "up", "fp")},
        },
        "csr": entries,
    }


def run_table(records, csr_weights) -> list:
    """Per-run rows with group labels, normalized metrics, and CSR scores."""
    n_u = normalize(records, "utility")
    n_a = normalize(records, "fairness_gap")
    n_p = normalize(records, "attack_balanced_acc")
    scores = {f"{w.utility:g}/{w.fairness:g}/{w.privacy:g}": csr(records, w)
              for w in csr_weights}
    rows = []
    for r in sorted(records, key=lambda r: r.key):
        rows.append({
            "alpha": r.alpha, "beta": r.beta, "seed": r.seed,
            "alpha_group": group_label(r.alpha), "beta_group": group_label(r.beta),
            "utility": r.triple.utility, "fairness_gap": r.triple.fairness_gap,
            "attack_balanced_acc": r.triple.attack_balanced_acc, "val_loss": r.val_loss,
            "normalized": {"utility": n_u[r.key], "fairness_gap": n_a[r.key],
                           "attack_balanced_acc": n_p[r.key]},
            "csr": {name: s[r.key] for name, s in scores.items()},
        })
    return rows


def build_report(records, config, k_p: int) -> dict:
    return {
        "single_metrics": single_metric_table(records, config.utility_metric, k_p),
        "tradeoffs": tradeoff_table(
            records, config.csr_weights,
            correlations_over_seed_medians=config.correlations_over_seed_medians,
            csr_over_seed_medians=config.csr_over_seed_medians),
        "runs": run_table(records, config.csr_weights),
    }


def text_tables(report: dict) -> str:
    """Terminal-friendly rendering of the two report tables."""
    sm = report["single_metrics"]
    f = dict(sm["formatted"])
    lines = ["Single metrics", "-" * 78]
    header = ["Baseline Utility", "Baseline Fairness", "Baseline Privacy",
              "Best Utility", "Best Fairness", "Best Privacy"]
    values = [f.get("baseline_utility", "n/a"), f.get("baseline_fairness", "n/a"),
              f.get("baseline_privacy", "n/a"), f["best_utility"], f["best_fairness"],
              f["best_privacy"]]
    width = max(len(s) for s in header + values) + 2
    lines.append("".join(h.ljust(width) for h in header))
    lines.append("".join(v.ljust(width) for v in values))
    td = report["tradeoffs"]
    lines += ["", "Tradeoffs", "-" * 78]
    corr = td["correlations"]["formatted"]
    header2 = ["U./F. Corr.", "U./P. Corr.", "F./P. Corr."] + [
        "CSR(" + ", ".join(f"{w:g}" for w in e["weights"]) + ")" for e in td["csr"]]
    values2 = [corr["uf"], corr["up"], corr["fp"]] + [e["formatted"] for e in td["csr"]]
    width2 = max(len(s) for s in header2 + values2) + 2
    lines.append("".join(h.ljust(width2) for h in header2))
    lines.append("".join(v.ljust(width2) for v in values2))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG heatmaps

_LOW_RGB = (247, 251, 255)
_HIGH_RGB = (8, 48, 107)


def _cell_color(t: float) -> str:
    rgb = [round(lo + t * (hi - lo)) for lo, hi in zip(_LOW_RGB, _HIGH_RGB)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def heatmap_svg(grid: HeatmapGrid, cell: int = 64) -> str:
    """Render a grouped-median heatmap: one rect + one value label per cell."""
    left, top, right, bottom = 88, 64, 24, 16
    n_rows, n_cols = len(grid.alpha_groups), len(grid.beta_groups)
    width = left + cell * n_cols + right
    height = top + cell * n_rows + bottom
    vmin = float(grid.values.min())
    vmax = float(grid.values.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text class="title" x="{width / 2:g}" y="20" text-anchor="middle" '
        f'font-size="15">{grid.metric}</text>',
        f'<text class="axis" x="{left + cell * n_cols / 2:g}" y="40" '
        f'text-anchor="middle">beta group</text>',
        f'<text class="axis" x="14" y="{top + cell * n_rows / 2:g}" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{top + cell * n_rows / 2:g})">alpha group</text>',
    ]
    for j, gb in enumerate(grid.beta_groups):
        parts.append(f'<text class="tick" x="{left + cell * j + cell / 2:g}" y="58" '
                     f'text-anchor="middle">{gb}</text>')
    for i, ga in enumerate(grid.alpha_groups):
        parts.append(f'<text class="tick" x="{left - 10}" '
                     f'y="{top + cell * i + cell / 2 + 4:g}" text-anchor="end">{ga}</text>')
        for j in range(n_cols):
            v = float(grid.values[i, j])
            t = 0.5 if vmax == vmin else (v - vmin) / (vmax - vmin)
            x, y = left + cell * j, top + cell * i
            parts.append(f'<rect class="cell" x="{x}" y="{y}" width="{cell}" '
                         f'height="{cell}" fill="{_cell_color(t)}" stroke="#ffffff"/>')
            ink = "#ffffff" if t > 0.55 else "#1a1a1a"
            parts.append(f'<text class="cell-value" x="{x + cell / 2:g}" '
                         f'y="{y + cell / 2 + 4:g}" text-anchor="middle" '
                         f'fill="{ink}">{v:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_heatmaps(records) -> dict[str, HeatmapGrid]:
    return {m: heatmap(records, m) for m in METRICS}
