"""Command line interface: gen-data, train, sweep, and analyze."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..analysis import result_cube
from ..data import save_csv
from ..training import TrainingDivergedError
from . import pipeline, report
from .config import ConfigError, ExperimentConfig, from_dict, load_config
from .modelio import save_bundle


def _load(args) -> ExperimentConfig:
    return from_dict({}) if args.config is None else load_config(args.config)


def _out_dir(args, config: ExperimentConfig) -> Path:
    out = Path(args.out if args.out else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    config = _load(args)
    if isinstance(config.data, str):
        raise ConfigError("data: config points at a CSV; nothing to generate")
    ds = pipeline.load_dataset(config)
    path = Path(args.out) if args.out else _out_dir(args, config) / "data.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(ds, path)
    print(f"wrote {len(ds)} rows x {ds.dim} features to {path}")
    return 0


def cmd_train(args) -> int:
    config = _load(args)
    out = _out_dir(args, config)
    results_path = out / "results.csv"
    if results_path.exists() and results_path.stat().st_size > 0:
        pipeline.load_results(results_path)  # a malformed file fails before training
    record, trained = pipeline.run_single(config, args.alpha, args.beta, args.seed)
    model_path = out / f"model_a{args.alpha:g}_b{args.beta:g}_s{args.seed}.bin"
    save_bundle(trained.bundle, model_path)
    pipeline.append_result(results_path, record)
    print(",".join(pipeline.record_row(record)))
    print(f"model -> {model_path}")
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    out = _out_dir(args, config)
    outcomes = pipeline.sweep(config, jobs=args.jobs)
    results_path = out / "results.csv"
    pipeline.write_results(results_path, outcomes)
    failures = {k: o for k, o in outcomes.items() if not isinstance(o, pipeline.RunRecord)}
    print(f"{len(outcomes) - len(failures)} runs ok, {len(failures)} failed -> {results_path}")
    for key, msg in sorted(failures.items()):
        print(f"  FAILED (alpha={key[0]:g}, beta={key[1]:g}, seed={key[2]}): {msg}",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_analyze(args) -> int:
    config = _load(args)
    out = _out_dir(args, config)
    results_path = Path(args.results) if args.results else out / "results.csv"
    outcomes = pipeline.load_results(results_path)
    if failed := [k for k, o in outcomes.items() if not isinstance(o, pipeline.RunRecord)]:
        raise ValueError(f"{results_path}: error-marker rows for cells {failed}")
    cube = result_cube(outcomes.values(), config.alphas, config.betas, config.seeds)
    rep = report.build_report(cube, config, k_p=pipeline.load_dataset(config).k_p)
    report_path = out / "report.json"
    report_path.write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")
    tables_path = out / "tables.txt"
    tables_path.write_text(report.text_tables(rep))
    print(f"report -> {report_path}")
    print(f"tables -> {tables_path}")
    for metric, grid in report.build_heatmaps(cube).items():
        svg_path = out / f"heatmap_{metric}.svg"
        svg_path.write_text(report.heatmap_svg(grid))
        print(f"heatmap -> {svg_path}")
    return 0


def grid_float(text: str) -> float:
    """``float(text)``, with -0 read as 0.0, as ``from_dict`` stores the grid."""
    return float(text) + 0.0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairpriv",
        description="Train classifiers with fairness and privacy adversaries, sweep "
                    "the regularization grid, and analyze the tradeoffs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON (defaults built in)")
        p.add_argument("--out", help="output directory or file (command dependent)")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    common(p)

    p = sub.add_parser("train", help="train and evaluate one configuration")
    common(p)
    p.add_argument("--alpha", type=grid_float, required=True)
    p.add_argument("--beta", type=grid_float, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sweep", help="run the full (alpha, beta) x seeds grid")
    common(p)
    p.add_argument("--jobs", type=positive_int, default=None,
                   help="parallel runs (default: the cores this process may use)")

    p = sub.add_parser("analyze", help="emit report tables and heatmaps from results")
    common(p)
    p.add_argument("--results", help="results CSV (default: <out>/results.csv)")
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError, TrainingDivergedError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
