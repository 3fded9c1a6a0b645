"""The benchmark's per-layer spans still see every training step.

perfbench/tracing.py wraps fairpriv functions by module attribute and
reports a name it cannot find only on stderr. A renamed function, or a step
that no longer goes through the wrapped attribute (a call that goes around it),
would silently drop or merge the spans that ``--trace 1`` turns into per-layer
times.
"""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from fairpriv.cli import pipeline
from fairpriv.cli.config import load_config, mild_correlation_joint
from fairpriv.data import make_splits

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


def test_one_span_per_step_and_update(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "data": {"n": 800, "joint": mild_correlation_joint().tolist()},
        "train": {"epochs": 1, "extractor_hidden": [8], "adversary_hidden": [8, 8]},
        "attacker_iters": 20,
    }))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CLI, str(ROOT / "perfbench" / "tracing.py"),
         str(tmp_path / "spans"), "train", "--config", str(path), "--alpha", "1",
         "--beta", "0", "--seed", "0", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "not recorded" not in proc.stderr, proc.stderr
    spans = [s for f in (tmp_path / "spans").glob("spans-*.json")
             for s in json.loads(f.read_text())]
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
