"""Sweeps under the spawn and forkserver start methods.

A fork pool worker gets the sweeping process's config as the same object,
dataset included. A spawn or forkserver worker gets a pickled copy, which
``ExperimentConfig.__getstate__`` leaves without its dataset, so the worker
builds the dataset on its first run (Python 3.14 makes forkserver the Linux
default). Each sweep runs in its own process group, killed whole if it
outlives its timeout.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Sets the start method given as its first argument, then runs the CLI.
SCRIPT = """
import multiprocessing
import sys

from fairpriv.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    sys.exit(main(sys.argv[2:]))
"""

GRID = {"grid": {"alphas": [0.0, 1.0], "betas": [0.0, 1.0]}, "seeds": [0]}


def run_group(args, timeout, stdin=None):
    """Run ``args`` in a new process group; (exit code, stderr). On a timeout the
    whole group, pool workers included, is killed and the test fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        _, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{args[2:]} did not exit within {timeout} s")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # any process of the group still left
    except ProcessLookupError:
        pass
    return proc.returncode, err


def test_spawn_and_forkserver_sweeps_match_fork(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **GRID, "data": {"n": 800}, "attacker_iters": 100,
        "train": {"epochs": 2, "extractor_hidden": [8], "adversary_hidden": [8, 8]}}))
    script = tmp_path / "sweep.py"
    script.write_text(SCRIPT)
    results = {}
    for method in ("fork", "spawn", "forkserver"):
        out = tmp_path / method
        rc, err = run_group([sys.executable, str(script), method, "sweep", "--config",
                             str(config), "--jobs", "2", "--out", str(out)], timeout=300)
        assert rc == 0, err
        results[method] = (out / "results.csv").read_bytes()
    assert len(results["fork"].splitlines()) == 1 + 4
    assert results["spawn"] == results["fork"] and results["forkserver"] == results["fork"]


def test_spawn_workers_that_die_at_start_fail_every_run(tmp_path):
    # Fed on stdin, the script has no file a spawned worker could import as
    # __main__, so each worker dies while it starts. A config pickled with its
    # 8000-row dataset used to leave this pool waiting on its workers forever.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**GRID, "train": {"epochs": 1}, "attacker_iters": 50}))
    start = time.monotonic()
    rc, err = run_group([sys.executable, "-", "spawn", "sweep", "--config", str(config),
                         "--jobs", "2", "--out", str(tmp_path / "out")], timeout=60,
                        stdin=SCRIPT)
    assert time.monotonic() - start < 60
    assert rc == 1, err
    failed = [line for line in err.splitlines() if line.startswith("  FAILED ")]
    assert len(failed) == 4, err
    assert all(": BrokenProcessPool: " in line for line in failed), err
