"""fairpriv benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the fairpriv sources are taken from
``src/`` next to this directory and nothing is installed. Every workload is
the user's ``fairpriv sweep`` then ``fairpriv analyze`` over a config that
this script generates from the workload seed; see README.md in this
directory for the workloads, the metrics and what each layer should move.

With --trace 0 the script repeats the workload while --seconds have not
passed (at least once) and reports the end-to-end metrics. With --trace 1 it
makes one untraced and one traced pass and reports the per-layer metrics.
The last line of stdout is the JSON result; the exit code is 1 when the
correctness check fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracing  # noqa: E402

WORK = ROOT / ".perfbench_work"
LAUNCH = HERE / "launch.py"
REFERENCE = HERE / "reference"

INPUT_SETS = 8  # seed % INPUT_SETS picks the inputs; reference results exist for each
SETUP_REPEATS = 7
DEV_BOUND = 1e-6  # results_max_abs_dev above this fails the correctness check
DEADLINE_S = 170.0  # stop starting work after this; a run must end within 180 s
HEATMAPS = ("utility", "fairness_gap", "attack_balanced_acc")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The acceptance reference setup (tests/conftest.py::reference_config):
# 8k rows, exacerbated train split, trio-balanced test split, tpr utility.
JOINT = [[[0.105, 0.07], [0.195, 0.13]], [[0.13, 0.195], [0.07, 0.105]]]

# jobs None means one per usable core, as `--jobs $(nproc)`.
WORKLOADS = {
    "sweep_reduced": {"alphas": [0.0, 0.1, 10.0], "betas": [0.0, 0.1, 10.0],
                      "seeds": 2, "epochs": 40, "jobs": None},
    "train_serial": {"alphas": [0.0, 0.1], "betas": [0.0, 10.0],
                     "seeds": 1, "epochs": 40, "jobs": 1},
    "attack_short": {"alphas": [0.0, 0.1, 10.0], "betas": [0.0, 0.1, 10.0],
                     "seeds": 1, "epochs": 2, "jobs": 1},
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "runs_per_s": "1/s", "run_p50_s": "s",
                    "run_tail_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make_config(workload: str, seed: int) -> tuple[dict, int]:
    """The fairpriv config for a workload seed, and its input-set index."""
    w = WORKLOADS[workload]
    k = seed % INPUT_SETS
    raw = {
        "data": {"kind": "synthetic", "n": 8000, "seed": k, "d_y": 4, "d_a": 4, "d_p": 4,
                 "d_noise": 8, "mu_y": 3.0, "mu_a": 2.0, "mu_p": 2.0, "joint": JOINT},
        "split": {"val_fraction": 0.2, "test_fraction": 0.2, "train_mode": "exacerbated",
                  "undersample_factor": 0.25, "test_mode": "trio-balanced"},
        "train": {"epochs": w["epochs"]},
        "grid": {"alphas": w["alphas"], "betas": w["betas"]},
        "seeds": [w["seeds"] * k + i for i in range(w["seeds"])],
        "utility_metric": "tpr",
    }
    return raw, k


def grid_keys(raw: dict) -> set:
    return {(float(a), float(b), int(s)) for a in raw["grid"]["alphas"]
            for b in raw["grid"]["betas"] for s in raw["seeds"]}


def reference_path(workload: str, k: int) -> Path:
    return REFERENCE / workload / f"inputs-{k}.csv"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list, log: Path, deadline: float) -> tuple[int, str]:
    """Run a child in its own process group; kill the group at the deadline."""
    with open(log, "w") as err:
        proc = subprocess.Popen([sys.executable, str(LAUNCH), *map(str, args)], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{args[0]} step passed the time limit; see {log}") from None
        finally:
            try:  # stray members of the group, if any
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return proc.returncode, out


def run_setup(cfg_path: Path, trace_dir: Path | None, log: Path, deadline: float) -> dict:
    args = ["setup", cfg_path] + ([trace_dir] if trace_dir else [])
    rc, out = run_child(args, log, deadline)
    if rc != 0:
        raise BenchError(f"set-up failed (exit {rc}); see {log}")
    return json.loads(out.strip().splitlines()[-1])


def run_unit(unit_dir: Path, cfg_path: Path, jobs: int, level: str, deadline: float) -> dict:
    """One pass: `fairpriv sweep` then `fairpriv analyze`, timed from outside."""
    out, trace = unit_dir / "out", unit_dir / "trace"
    unit_dir.mkdir(parents=True)
    start = time.perf_counter()
    sweep_rc, _ = run_child(["cli", trace, level, "sweep", "--config", cfg_path,
                             "--jobs", jobs, "--out", out], unit_dir / "sweep.log", deadline)
    analyze_rc = None
    if sweep_rc == 0:
        analyze_rc, _ = run_child(["cli", trace, level, "analyze", "--config", cfg_path,
                                   "--out", out], unit_dir / "analyze.log", deadline)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "sweep_rc": sweep_rc, "analyze_rc": analyze_rc, "out": out,
            "spans": tracing.read_spans(trace)}


def check_unit(unit: dict, expected: set, reference_text: str) -> tuple[dict, int, float, bytes]:
    """(failed checks, failed runs, deviation from reference, results bytes)."""
    problems = {}
    if unit["sweep_rc"] != 0:
        problems["sweep_exit"] = unit["sweep_rc"]
    results = unit["out"] / "results.csv"
    if not results.is_file():
        problems["results_csv"] = "missing"
        return problems, len(expected), float("inf"), b""
    data = results.read_bytes()
    text = data.decode()
    try:
        _, table = metrics.parse_results(text)
    except (ValueError, IndexError):
        problems["results_csv"] = "unreadable"
        return problems, len(expected), float("inf"), data
    errors = sum(1 for fields in table.values() if "ERROR" in fields)
    missing = len(expected - set(table))
    if set(table) != expected:
        problems["grid_complete"] = f"{len(table)} rows, {missing} of {len(expected)} missing"
    if errors:
        problems["error_rows"] = errors
    if unit["analyze_rc"] != 0:
        problems["analyze_exit"] = unit["analyze_rc"]
    try:
        report = json.loads((unit["out"] / "report.json").read_text())
        if not isinstance(report, dict) or not report:
            problems["report_json"] = "empty"
    except (OSError, ValueError):
        problems["report_json"] = "missing or unreadable"
    absent = [m for m in HEATMAPS if not (unit["out"] / f"heatmap_{m}.svg").is_file()]
    if absent:
        problems["heatmaps"] = f"missing {absent}"
    dev = metrics.results_max_abs_dev(text, reference_text)
    if not dev <= DEV_BOUND:
        problems["results_max_abs_dev"] = f"{dev!r} > {DEV_BOUND}"
    return problems, errors + missing, dev, data


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(setup_stamp: dict) -> dict:
    return {"nproc": nproc(), "cpu_count": os.cpu_count(), **setup_stamp,
            "git_commit": git_commit(), "source_sha256": source_sha256(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def run_durations(spans) -> list:
    return [end - start for _, name, start, end, _, _, _ in spans
            if name == "pipeline.run_single"]


def end_to_end(setups, units, attempted, failed) -> tuple[dict, str]:
    durations = [d for u in units for d in run_durations(u["spans"])]
    finished = attempted - failed
    if len(durations) < finished:
        raise BenchError(f"{len(durations)} run timings for {finished} finished runs")
    if not durations:
        raise BenchError("no run finished, so no run latency")
    tail, q, n = metrics.tail_latency(durations)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "runs_per_s": finished / sum(u["wall_s"] for u in units),
        "run_p50_s": statistics.median(durations),
        "run_tail_s": tail,
        "peak_rss_mb": peak_kb / 1024,
    }
    note = f"run_tail_s is p{q} of {n} runs (median when fewer than 20 runs)"
    return values, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairpriv" / "cli" / "__init__.py").is_file():
        raise BenchError(f"no fairpriv sources under {ROOT / 'src'}")
    raw, k = make_config(args.workload, args.seed)
    ref = reference_path(args.workload, k)
    if not ref.is_file():
        raise BenchError(f"no reference results at {ref}")
    reference_text = ref.read_text()
    jobs = WORKLOADS[args.workload]["jobs"] or nproc()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(raw, indent=1))
    deadline = time.perf_counter() + DEADLINE_S
    print(f"workload {args.workload} seed {args.seed}: input set {k} "
          f"(data seed {raw['data']['seed']}, grid seeds {raw['seeds']}), "
          f"{len(grid_keys(raw))} runs per pass, jobs {jobs}, trace {args.trace}")

    setup_trace = work / "setup-trace" if args.trace else None
    setups = [run_setup(cfg_path, setup_trace, work / f"setup-{i}.log", deadline)
              for i in range(SETUP_REPEATS)]
    if args.trace:
        units = [run_unit(work / f"pass-{i}", cfg_path, jobs, level, deadline)
                 for i, level in enumerate(("runs", "layers"))]
    else:
        units, started = [], time.perf_counter()
        while not units or (time.perf_counter() - started < args.seconds
                            and time.perf_counter() + units[-1]["wall_s"] <= deadline):
            units.append(run_unit(work / f"pass-{len(units)}", cfg_path, jobs, "runs",
                                  deadline))

    expected = grid_keys(raw)
    problems, failed, devs, outputs = {}, 0, [], []
    for i, unit in enumerate(units):
        unit_problems, unit_failed, dev, data = check_unit(unit, expected, reference_text)
        problems.update({f"pass-{i}.{key}": v for key, v in unit_problems.items()})
        failed += unit_failed
        devs.append(dev)
        outputs.append(data)
    if len(set(outputs)) > 1:
        problems["repeats_identical"] = "results.csv differs between passes of one seed"
    attempted = len(expected) * len(units)
    correct = not problems

    info = stamp(setups[0]["stamp"])
    print("stamp " + json.dumps(info, sort_keys=True))
    print(f"{len(units)} pass(es), {attempted} runs attempted, {failed} failed; "
          f"failed_share {failed / attempted:.6g} (share, lower is better); "
          f"results_max_abs_dev {max(devs):.6g} (abs, lower is better, bound {DEV_BOUND:g})")
    summary = None
    if args.trace:
        setup_spans = tracing.read_spans(setup_trace)
        values = metrics.layer_metrics(units[1]["spans"], setup_spans,
                                       units[1]["wall_s"], units[0]["wall_s"])
        units_of = metrics.LAYER_UNITS
        summary = metrics.span_summary(units[1]["spans"])
        print(f"{'span':28s} {'count':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in summary.items():
            print(f"{name:28s} {row['count']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    else:
        values, note = end_to_end(setups, units, attempted, failed)
        units_of = END_TO_END_UNITS
        print(note)
    for name, value in values.items():
        print(f"{name:30s} {value:.6g} {units_of[name]}")
    print("correctness: " + ("ok" if correct else json.dumps(problems, sort_keys=True)))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units_of[name]}
                          for name, value in values.items()}}
    (work / "result.json").write_text(json.dumps(
        {**result, "stamp": info, "problems": problems, "failed_share": failed / attempted,
         "results_max_abs_dev": max(devs), "setup_runs_s": [s["setup_s"] for s in setups],
         "pass_walls_s": [u["wall_s"] for u in units],
         "span_summary": summary}, indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
