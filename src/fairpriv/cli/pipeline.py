"""Run orchestration: one configuration end to end, and the full sweep.

The attack protocol is enforced structurally here: the attacker is fit on
validation-split features only and scored on test-split features only.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..analysis import RunRecord
from ..data import LabeledDataset, generate, load_csv, make_splits
from ..evaluation import (MetricTriple, accuracy, attack_accuracy, fit_attacker,
                          group_gap, tpr)
from ..training import TrainedModel, train
from .config import ConfigError, ExperimentConfig

RESULTS_HEADER = ["alpha", "beta", "seed", "utility", "fairness_gap",
                  "attack_balanced_acc", "val_loss"]
ERROR_MARKER = "ERROR"


def load_dataset(config: ExperimentConfig) -> LabeledDataset:
    if isinstance(config.data, str):
        return load_csv(config.data)
    return generate(config.data)


def evaluate_bundle(bundle, val_ds: LabeledDataset, test_ds: LabeledDataset,
                    config: ExperimentConfig) -> MetricTriple:
    """Utility and fairness gap on test; attack fit on val, scored on test."""
    val_features = bundle.extractor.apply(val_ds.x)
    attacker = fit_attacker(val_features, val_ds.y, val_ds.y_p,
                            iters=config.attacker_iters, lr=config.attacker_lr,
                            k_y=val_ds.k_y, k_p=val_ds.k_p)
    test_features = bundle.extractor.apply(test_ds.x)
    m_p = attack_accuracy(attacker, test_features, test_ds.y, test_ds.y_p)

    preds = np.argmax(bundle.classifier.apply(test_features), axis=1)
    positive = config.positive_class
    if positive is None:
        positive = test_ds.k_y - 1
    if config.utility_metric == "tpr":
        m_u = tpr(preds, test_ds.y, positive)
    else:
        m_u = accuracy(preds, test_ds.y)
    m_a = group_gap(preds, test_ds.y, test_ds.y_a, base_metric=config.utility_metric,
                    positive_class=positive)
    return MetricTriple(utility=m_u, fairness_gap=m_a, attack_balanced_acc=m_p)


def run_single(config: ExperimentConfig, alpha: float, beta: float, seed: int,
               dataset: LabeledDataset | None = None) -> tuple[RunRecord, TrainedModel]:
    """Train and evaluate one (alpha, beta, seed) configuration."""
    ds = dataset if dataset is not None else load_dataset(config)
    if config.positive_class is not None and config.positive_class >= ds.k_y:
        # Config load checks this for synthetic data; a CSV's k_y is known only now.
        raise ConfigError(f"positive_class: must be a task class index in "
                          f"[0, {ds.k_y}), got {config.positive_class!r}")
    train_ds, val_ds, test_ds = make_splits(ds, config.split, seed)
    del ds, dataset  # only the splits are used from here on; a sweep's copy is freed
    trained = train(train_ds, val_ds,
                    dataclasses.replace(config.train, alpha=alpha, beta=beta, seed=seed))
    triple = evaluate_bundle(trained.bundle, val_ds, test_ds, config)
    record = RunRecord(alpha=alpha, beta=beta, seed=seed, triple=triple,
                       val_loss=trained.best_val_loss)
    return record, trained


def _sweep_entry(args) -> tuple[tuple, object]:
    config, alpha, beta, seed = args
    try:
        record, _ = run_single(config, alpha, beta, seed)
        return (alpha, beta, seed), record
    except Exception as exc:  # a failed run must not sink the sweep
        return (alpha, beta, seed), f"{type(exc).__name__}: {exc}"


def sweep(config: ExperimentConfig, jobs: int | None = None
          ) -> tuple[list[RunRecord], dict]:
    """Run the whole (alpha, beta, seed) grid.

    Returns (records sorted by key, failures keyed by (alpha, beta, seed)).
    Runs are independent; jobs > 1 fans them out over processes without
    affecting the output order. Outcomes are collected as runs finish, so a
    worker that dies fails only the runs the broken pool could not finish.
    """
    combos = [(config, a, b, s)
              for a in sorted(config.alphas) for b in sorted(config.betas)
              for s in sorted(config.seeds)]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(combos) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_sweep_entry, combo): combo[1:] for combo in combos}
            outcomes = []
            for future in as_completed(futures):
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as exc:
                    outcomes.append((futures[future], f"{type(exc).__name__}: {exc}"))
    else:
        outcomes = [_sweep_entry(c) for c in combos]
    records, failures = [], {}
    for key, outcome in outcomes:
        if isinstance(outcome, RunRecord):
            records.append(outcome)
        else:
            failures[key] = outcome
    records.sort(key=lambda r: r.key)
    return records, failures


def record_row(record: RunRecord) -> list:
    return [repr(float(record.alpha)), repr(float(record.beta)), str(int(record.seed)),
            repr(float(record.triple.utility)), repr(float(record.triple.fairness_gap)),
            repr(float(record.triple.attack_balanced_acc)), repr(float(record.val_loss))]


def write_results(path, records: list, failures: dict | None = None) -> None:
    failures = failures or {}
    rows = {r.key: record_row(r) for r in records}
    for key in failures:
        rows[key] = [repr(float(key[0])), repr(float(key[1])), str(int(key[2])),
                     ERROR_MARKER, ERROR_MARKER, ERROR_MARKER, ERROR_MARKER]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for key in sorted(rows):
            writer.writerow(rows[key])


def append_result(path, record: RunRecord) -> None:
    """Add one run to a results CSV, replacing any earlier row for its key."""
    records, failed = [], []
    if os.path.exists(path) and os.path.getsize(path) > 0:
        records, failed = load_results(path)
    records = [r for r in records if r.key != record.key] + [record]
    write_results(path, records, {key: ERROR_MARKER for key in failed if key != record.key})


def load_results(path) -> tuple[list[RunRecord], list[tuple]]:
    """Read a results CSV; returns (records, keys of error-marker rows)."""
    records, failed = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULTS_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RESULTS_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(RESULTS_HEADER)} fields")
            key = (float(row[0]), float(row[1]), int(row[2]))
            if ERROR_MARKER in row[3:]:
                failed.append(key)
                continue
            triple = MetricTriple(utility=float(row[3]), fairness_gap=float(row[4]),
                                  attack_balanced_acc=float(row[5]))
            records.append(RunRecord(*key, triple=triple, val_loss=float(row[6])))
    return records, failed
