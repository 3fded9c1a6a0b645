"""Run orchestration: one configuration end to end, and the full sweep.

The attack protocol is enforced structurally here: the attacker is fit on
validation-split features only and scored on test-split features only.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from ..analysis import METRICS, RunRecord
from ..data import (LabeledDataset, _errors_naming, class_counts, generate, load_csv,
                    make_splits)
from ..evaluation import MetricTriple, attack_accuracy, fit_attacker, utility_and_gap
from ..training import TrainedModel, check_run_key, train
from .config import ExperimentConfig

RESULTS_HEADER = ["alpha", "beta", "seed", *METRICS, "val_loss"]
ERROR_MARKER = "ERROR"
_FAILED_CELLS = [ERROR_MARKER] * (len(RESULTS_HEADER) - 3)  # a failed run's metric cells


def load_dataset(config: ExperimentConfig) -> LabeledDataset:
    """The config's dataset, read-only, built from ``config.data`` on first use and kept
    as ``config.dataset``; ``ExperimentConfig.validate`` builds it anew."""
    ds = getattr(config, "dataset", None)
    if ds is None:
        ds = load_csv(config.data) if isinstance(config.data, str) else generate(config.data)
        for arr in (ds.x, ds.y, ds.y_a, ds.y_p):
            arr.flags.writeable = False  # every run of the command splits it
        config.dataset = ds
    return ds


def evaluate_bundle(bundle, val_ds: LabeledDataset, test_ds: LabeledDataset,
                    config: ExperimentConfig) -> MetricTriple:
    """Utility and fairness gap on test; attack fit on val, scored on test."""
    val_features = bundle.extractor.apply(val_ds.x)
    attacker = fit_attacker(val_features, val_ds.y, val_ds.y_p, iters=config.attacker_iters,
                            k_y=val_ds.k_y, k_p=val_ds.k_p)
    test_features = bundle.extractor.apply(test_ds.x)
    m_p = attack_accuracy(attacker, test_features, test_ds.y, test_ds.y_p)

    preds = np.argmax(bundle.classifier.apply(test_features), axis=1)
    positive = test_ds.k_y - 1 if config.utility_metric == "tpr" else None  # None: accuracy
    m_u, m_a = utility_and_gap(preds, test_ds.y, test_ds.y_a, test_ds.k_a, positive)
    return MetricTriple(utility=m_u, fairness_gap=m_a, attack_balanced_acc=m_p)


def run_single(config: ExperimentConfig, alpha: float, beta: float, seed: int
               ) -> tuple[RunRecord, TrainedModel]:
    """Train and evaluate one (alpha, beta, seed) configuration on ``make_splits``'s
    split of ``load_dataset(config)`` for ``seed``. A test split that lacks a class
    of y_a or y_p (under "tpr", of y_a among its rows of task class k_y - 1), or a
    validation split that lacks a class of y_p, fails before training, not after
    it, where the metrics or the attacker's reweighting would fail on it."""
    check_run_key(alpha, beta, seed)  # a bad argument fails before any data work
    config.train.validate()
    train_ds, val_ds, test_ds = make_splits(load_dataset(config), config.split, seed)
    class_counts(test_ds.y_a, test_ds.k_a, "test split: y_a")
    if config.utility_metric == "tpr":
        top = test_ds.k_y - 1
        class_counts(test_ds.y_a[test_ds.y == top], test_ds.k_a,
                     f"test split: rows with y = {top}: y_a")
    class_counts(test_ds.y_p, test_ds.k_p, "test split: y_p")
    class_counts(val_ds.y_p, val_ds.k_p, "validation split: y_p")
    trained = train(train_ds, val_ds, config.train, alpha=alpha, beta=beta, seed=seed)
    triple = evaluate_bundle(trained.bundle, val_ds, test_ds, config)
    record = RunRecord(alpha=alpha, beta=beta, seed=seed, triple=triple,
                       val_loss=trained.best_val_loss)
    return record, trained


def _serve(conn, config: ExperimentConfig) -> None:
    """A sweep worker: answer each key it receives with its run's record, or its error
    as ``"Type: message"``, until its pipe ends. A thread ends it the moment the
    sweeping process, its parent, ends, even mid-run."""
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()  # the sweeping process, under any start method
    threading.Thread(target=lambda: (parent.join(), os._exit(1)), daemon=True).start()
    try:
        while True:
            key = conn.recv()
            try:
                outcome = run_single(config, *key)[0]
            except Exception as exc:  # a failed run must not sink the sweep
                outcome = f"{type(exc).__name__}: {exc}"
            conn.send(outcome)
    except (EOFError, OSError):  # OSError: a reset (an answer went unread), a broken pipe
        pass


def _worker_outcomes(config: ExperimentConfig, keys: list, jobs: int) -> dict:
    """Each key's outcome, from up to ``jobs`` worker processes (this process runs no
    key) that each hold one key at a time and get the next, in key order, with their
    answer. A worker that dies fails the key it held, and a fresh worker takes the keys
    left; every start after the first ``jobs`` follows such a death, so at most
    ``jobs + len(keys)`` start.
    A worker ends with its pipe, whose other end only the sweeping process holds:
    closed when no key is left or that process ends (which ends a busy one, too).
    All have ended when this returns."""
    import multiprocessing
    from multiprocessing.connection import wait

    outcomes, todo, held, workers = {}, keys[::-1], {}, []  # held: pipe -> (worker, key)

    def give(conn, worker):
        if not todo:  # closing the pipe ends the worker
            return conn.close()
        key = todo.pop()
        held[conn] = worker, key
        try:
            conn.send(key)
        except OSError:  # the worker died; wait() sees its pipe's end
            pass

    try:
        while todo or held:
            while todo and len(held) < jobs:
                conn, child = multiprocessing.Pipe()  # each fork, this worker too, closes its conn
                multiprocessing.util.register_after_fork(conn, type(conn).close)
                worker = multiprocessing.Process(target=_serve, args=(child, config))
                worker.start()
                workers.append(worker)
                child.close()
                give(conn, worker)
            for conn in wait(list(held)):
                worker, key = held.pop(conn)
                try:
                    outcomes[key] = conn.recv()
                except (EOFError, ConnectionResetError):  # reset: its key was still unread
                    worker.join()
                    code = worker.exitcode
                    outcomes[key] = "WorkerDied: " + (
                        f"killed by signal {-code}" if code < 0 else f"exit code {code}")
                    conn.close()
                else:
                    give(conn, worker)
    except BaseException:  # a run may take minutes; end every worker, busy or not
        for worker in workers:
            worker.kill()
        raise
    finally:
        for worker in workers:
            worker.join()
    return outcomes


def sweep(config: ExperimentConfig, jobs: int | None = None
          ) -> tuple[list[RunRecord], dict]:
    """Run the whole (alpha, beta, seed) grid.

    Returns (records sorted by key, failures keyed by (alpha, beta, seed)).
    Each run splits the config's one dataset, built before any run. Every run goes
    to one of at most ``jobs`` (an integer >= 1; default: the cores this process may
    use) worker processes, ``jobs=1`` included; each worker is given the config once,
    as its argument (under spawn or forkserver, without its dataset). The output does
    not depend on jobs. A worker that dies fails only the run it held, as
    ``WorkerDied: exit code N`` (``killed by signal N``), and a fresh worker takes the
    runs left. No worker outlives the sweeping process, even one killed.
    """
    keys = [(a, b, s) for s in sorted(config.seeds)
            for a in sorted(config.alphas) for b in sorted(config.betas)]
    if jobs is None:  # the cores this process may use
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    if type(jobs) is not int or jobs < 1:  # 0 would start no worker and wait for ever
        raise ValueError(f"jobs: must be an integer >= 1, got {jobs!r}")
    load_dataset(config)  # once, here: a fork worker shares it
    records, failures = [], {}
    for key, outcome in _worker_outcomes(config, keys, jobs).items():
        if isinstance(outcome, RunRecord):
            records.append(outcome)
        else:
            failures[key] = outcome
    records.sort(key=lambda r: r.key)
    return records, failures


def _key_cells(key: tuple) -> list:
    return [repr(float(key[0])), repr(float(key[1])), str(int(key[2]))]


def record_row(record: RunRecord) -> list:
    values = [getattr(record.triple, name) for name in METRICS] + [record.val_loss]
    return _key_cells(record.key) + [repr(float(v)) for v in values]


def write_results(path, records: list, failures: dict | None = None) -> None:
    """Replace ``path`` whole: a write that fails part-way leaves the old file as it was."""
    rows = {r.key: record_row(r) for r in records}
    for key in failures or {}:
        rows[key] = _key_cells(key) + _FAILED_CELLS
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    fh = open(tmp, "w", newline="", encoding="utf-8")
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(RESULTS_HEADER)
            for key in sorted(rows):
                writer.writerow(rows[key])
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def append_result(path, record: RunRecord) -> None:
    """Add one run to a results CSV, replacing any earlier row for its key."""
    records, failed = [], []
    if os.path.exists(path) and os.path.getsize(path) > 0:
        records, failed = load_results(path)
    records = [r for r in records if r.key != record.key] + [record]
    write_results(path, records, {key: ERROR_MARKER for key in failed if key != record.key})


def _number(cell: str, where: str, integer: bool = False) -> float | int:
    """``cell`` as an int, or a finite float; a ValueError names ``where`` if it is not."""
    try:
        value = int(cell) if integer else float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: must be {'an integer' if integer else 'a finite number'}, "
                         f"got {cell!r}")
    return value


def load_results(path) -> tuple[list[RunRecord], list[tuple]]:
    """Read a results CSV; returns (records, keys of error-marker rows).

    A failed run has ``ERROR`` in all four metric cells. Any other field that does not
    parse, or is not finite, fails as ``path:line: field: ...``; a second row for a key,
    ``ERROR`` rows included, as ``path:line: duplicate of line ...``; a file that cannot
    be read (missing, not UTF-8, rejected by the csv module) as ``path: ...``.
    """
    records, failed, lines = [], [], {}  # lines: each key's first line
    with _errors_naming(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULTS_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RESULTS_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(RESULTS_HEADER)} fields")
            cells = row[:3] if row[3:] == _FAILED_CELLS else row  # a failed run: its key
            values = [_number(cell, f"{path}:{lineno}: {name}", name == "seed")
                      for name, cell in zip(RESULTS_HEADER, cells)]
            alpha, beta, seed = key = tuple(values[:3])
            if key in lines:
                raise ValueError(f"{path}:{lineno}: duplicate of line {lines[key]} "
                                 f"(alpha={alpha:g}, beta={beta:g}, seed={seed})")
            lines[key] = lineno
            if len(values) == 3:
                failed.append(key)
                continue
            triple = MetricTriple(*values[3:-1])  # METRICS is in field order
            records.append(RunRecord(*key, triple=triple, val_loss=values[-1]))
    return records, failed
