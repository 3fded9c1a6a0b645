"""The benchmark's per-layer spans still see every training step.

perfbench/tracing.py wraps fairpriv functions by module attribute and
reports a name it cannot find only on stderr. A renamed function, or a step
that no longer goes through the wrapped attribute (a call that goes around it),
would silently drop or merge the spans that ``--trace 1`` turns into per-layer
times.
"""

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from fairpriv.cli import pipeline
from fairpriv.cli.config import DEFAULT_JOINT, load_config
from fairpriv.data import make_splits

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]

# Installs the benchmark's wrappers, runs the CLI, writes the spans.
TRACED_CLI = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer(sys.argv[2])
tracing.install(tracer, layers=True)
from fairpriv.cli import main
rc = main(sys.argv[3:])
tracer.flush()
sys.exit(rc)
"""


def traced_cli(tmp_path, *argv) -> list:
    """Run ``fairpriv *argv`` traced; the spans of all its processes."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CLI, str(ROOT / "perfbench" / "tracing.py"),
         str(tmp_path / "spans"), *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "not recorded" not in proc.stderr, proc.stderr
    return [s for f in (tmp_path / "spans").glob("spans-*.json")
            for s in json.loads(f.read_text())]


def small_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "data": {"n": 800, "joint": DEFAULT_JOINT},
        "train": {"epochs": 1, "extractor_hidden": [8], "adversary_hidden": [8, 8]},
        "attacker_iters": 20, **fields}))
    return path


def test_one_span_per_step_and_update(tmp_path):
    path = small_config(tmp_path)
    spans = traced_cli(tmp_path, "train", "--config", str(path), "--alpha", "1",
                       "--beta", "0", "--seed", "0")
    counts = Counter(name for _, name, *_ in spans)
    # The command builds its dataset once, inside config load, and its run splits it.
    names = {span_id: name for span_id, name, *_ in spans}
    assert counts["config.load"] == counts["data.generate"] == 1
    assert [names.get(parent) for _, name, _, _, parent, *_ in spans
            if name == "data.generate"] == ["config.load"]
    assert counts["data.make_splits"] == 1

    cfg = load_config(path)
    train_ds, _, _ = make_splits(pipeline.load_dataset(cfg), cfg.split, 0)
    batches = math.ceil(len(train_ds) / cfg.train.batch_size) * cfg.train.epochs
    assert batches > 2  # both phases run
    # The CLI trains with adversary updates on, so every batch updates.
    assert counts["training.objective"] == batches
    assert counts["learncore.backward"] == counts["learncore.adam_step"] == batches
    assert counts["training.train"] == counts["pipeline.run_single"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_pool_worker_runs_are_children_of_the_sweep(tmp_path, jobs):
    # Forked workers keep the wrappers and the open sweep span, so each run's
    # span names it as parent; parallel efficiency, CPU per run and run times read these.
    path = small_config(tmp_path, grid={"alphas": [0.0, 1.0], "betas": [0.0, 1.0]},
                        seeds=[0])
    spans = traced_cli(tmp_path, "sweep", "--config", str(path), "--jobs", str(jobs))
    [(sweep_id, _, _, _, _, _, attrs)] = [s for s in spans if s[1] == "pipeline.sweep"]
    runs = [s for s in spans if s[1] == "pipeline.run_single"]
    assert [parent for _, _, _, _, parent, *_ in runs] == [sweep_id] * 4
    # Span ids are "<pid>:<index>": workers, not the sweeping process, ran every
    # run. Which of two workers takes which run is up to the scheduler.
    sweep_pid = sweep_id.split(":")[0]
    workers = {run[0].split(":")[0] for run in runs}
    assert sweep_pid not in workers and 1 <= len(workers) <= jobs, (sweep_pid, workers)
    assert attrs["jobs"] == jobs and attrs["cpu_s"] > 0
