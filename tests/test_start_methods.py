"""Sweeps under the spawn and forkserver start methods.

A fork worker gets the sweeping process's config as the same object,
dataset included. A spawn or forkserver worker gets a pickled copy, which
``ExperimentConfig.__getstate__`` leaves without its dataset, so the worker
builds the dataset on its first run (Python 3.14 makes forkserver the Linux
default). Each sweep runs under ``-W error`` in its own process group, killed
whole if it outlives its timeout.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fairpriv.cli import main

from conftest import src_env

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

# SCRIPT, with the run (1, 0, 0) ending its worker process. The wrap is at top
# level, so a spawn or forkserver worker, which imports the script afresh, has it too.
CRASH_SCRIPT = """
import os

from fairpriv.cli import pipeline

real_run_single = pipeline.run_single


def crashes(config, alpha, beta, seed):
    if (alpha, beta, seed) == (1.0, 0.0, 0):
        os._exit(9)
    return real_run_single(config, alpha, beta, seed)


pipeline.run_single = crashes
""" + SCRIPT

# SCRIPT, with each run marking the working directory as it starts and then
# taking SLOW_RUN_S seconds longer, so a worker holds it while the test kills the sweep.
SLOW_SCRIPT = """
import os
import time
from pathlib import Path

from fairpriv.cli import pipeline

real_run_single = pipeline.run_single


def slow(config, alpha, beta, seed):
    Path("running").touch()
    time.sleep(float(os.environ["SLOW_RUN_S"]))
    return real_run_single(config, alpha, beta, seed)


pipeline.run_single = slow
""" + SCRIPT


def run_group(args, timeout, stdin=None):
    """Run ``args`` in a new process group; (exit code, stderr). On a timeout the
    whole group, sweep workers included, is killed and the test fails."""
    proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=src_env(),
                            start_new_session=True)
    try:
        _, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{args[1:]} did not exit within {timeout} s")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # any process of the group still left
    except ProcessLookupError:
        pass
    return proc.returncode, err


def live_processes(session):
    """The pids of the processes in ``session`` that have not exited (zombies excluded)."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:  # it exited while we looked
            continue
        state, _, _, sid = stat.rsplit(")", 1)[1].split()[:4]
        if int(sid) == session and state != "Z":
            pids.append(int(pid))
    return pids


def test_spawn_and_forkserver_sweeps_match_fork(tmp_path):
    raw = {**GRID, "data": {"n": 800}, "attacker_iters": 100,
           "train": {"epochs": 2, "extractor_hidden": [8], "adversary_hidden": [8, 8]}}
    config, csv_config = tmp_path / "config.json", tmp_path / "csv_config.json"
    config.write_text(json.dumps(raw))
    # The same rows as a CSV source: a forkserver worker reads the CSV itself.
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "data.csv")]) == 0
    csv_config.write_text(json.dumps({**raw, "data": str(tmp_path / "data.csv")}))
    script = tmp_path / "sweep.py"
    script.write_text(SCRIPT)
    results = {}
    for method, path in (("fork", config), ("spawn", config), ("forkserver", config),
                         ("forkserver", csv_config)):
        out = tmp_path / f"{method}-{path.stem}"
        rc, err = run_group([sys.executable, "-W", "error", str(script), method, "sweep",
                             "--config", str(path), "--jobs", "2", "--out", str(out)],
                            timeout=300)
        assert rc == 0, err
        results[out.name] = (out / "results.csv").read_bytes()
    assert len(results["fork-config"].splitlines()) == 1 + 4
    assert [name for name, data in results.items() if data != results["fork-config"]] == []


def test_spawn_workers_that_die_at_start_fail_every_run(tmp_path):
    # Fed on stdin, the script has no file a spawned worker could import as
    # __main__, so each worker dies while it starts. A config pickled with its
    # 8000-row dataset used to leave the sweep waiting on its workers forever.
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
    assert all(line.endswith(": WorkerDied: exit code 1") for line in failed), err


def test_dead_worker_fails_only_its_own_run_under_each_start_method(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **GRID, "data": {"n": 800}, "attacker_iters": 100,
        "train": {"epochs": 2, "extractor_hidden": [8], "adversary_hidden": [8, 8]}}))
    assert main(["sweep", "--config", str(config), "--jobs", "1",
                 "--out", str(tmp_path / "whole")]) == 0
    crashed = "1.0,0.0,0,"
    whole = (tmp_path / "whole" / "results.csv").read_text().splitlines()
    script = tmp_path / "crash.py"
    script.write_text(CRASH_SCRIPT)
    for method in ("fork", "spawn", "forkserver"):
        out = tmp_path / method
        rc, err = run_group([sys.executable, "-W", "error", str(script), method, "sweep",
                             "--config", str(config), "--jobs", "2", "--out", str(out)],
                            timeout=300)
        assert rc == 1, err
        assert [line for line in err.splitlines() if line.startswith("  FAILED ")] == [
            "  FAILED (alpha=1, beta=0, seed=0): WorkerDied: exit code 9"], err
        rows = (out / "results.csv").read_text().splitlines()
        assert [row for row in rows if not row.startswith(crashed)] == [
            row for row in whole if not row.startswith(crashed)]
        assert crashed + "ERROR,ERROR,ERROR,ERROR" in rows


def kill_sweep_mid_run(tmp_path, method, run_s, deadline_s):
    """SIGKILL a sweeping process once a worker holds a run that sleeps ``run_s`` seconds
    first; fail unless every process of its session has ended ``deadline_s`` seconds later."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **GRID, "data": {"n": 800}, "attacker_iters": 100,
        "train": {"epochs": 2, "extractor_hidden": [8], "adversary_hidden": [8, 8]}}))
    script = tmp_path / "slow.py"
    script.write_text(SLOW_SCRIPT)
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen([sys.executable, "-W", "error", str(script), method, "sweep",
                                 "--config", str(config), "--jobs", "2",
                                 "--out", str(tmp_path / "out")],
                                stdout=subprocess.DEVNULL, stderr=err,
                                env={**src_env(), "SLOW_RUN_S": str(run_s)},
                                cwd=tmp_path, start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while not (tmp_path / "running").exists():
            assert proc.poll() is None, (tmp_path / "stderr").read_text()
            assert time.monotonic() < deadline, "no worker took a run within 120 s"
            time.sleep(0.05)
        proc.kill()  # the sweeping process only
        proc.wait()
        deadline = time.monotonic() + deadline_s
        while live_processes(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert live_processes(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_no_worker_outlives_a_killed_sweep(tmp_path, method):
    # Kill -9 the sweeping process while a worker holds a run: every worker
    # exits with it, whether it is mid-run or waiting on its pipe.
    kill_sweep_mid_run(tmp_path, method, run_s=1, deadline_s=20)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_a_killed_sweep_ends_a_worker_mid_run(tmp_path, method):
    # A worker that only read its pipe between runs would sleep out its 30 s run.
    kill_sweep_mid_run(tmp_path, method, run_s=30, deadline_s=5)
