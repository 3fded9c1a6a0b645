"""Paired benchmark runs of two commits, summarized in one BENCH_<label>.json.

    python bench/pairs.py --parent REV --change REV --workload W [--workload W ...]
                          --pairs N --seconds S --label L

Each commit is exported with ``git archive`` into a temporary directory
outside the checkout. An exported tree, unlike a ``git worktree``, leaves
the repository's metadata as it was, and a stopped run leaves nothing to
prune. The export's own, unchanged ``perfbench/run.py`` runs there, the two
sides in turn, with the side that goes first alternating from pair to pair.
Pair i runs perfbench seed i on both sides, so the pairs rotate through the
input sets. Every run's ``result.json`` is kept in the BENCH file, with the
sha256 of each pass's ``results.csv``. The file also names the host class
that ran, ``fairpriv.hostinfo.host_class()`` of the change's tree (for
example ``SkylakeX/X86_V4``): the OpenBLAS kernel and numpy SIMD level,
where perfbench's stamp gives only OpenBLAS's build config.

For each end-to-end metric of the change's ``BENCHMARK.json`` the file gives
the per-pair values, each side's median and quartiles, the change/parent
ratio of the medians and of each pair, and the number of pairs the change
wins (ties count for neither side). ``gain_shown`` applies the claim rule:
the change wins at least nine pairs in ten, and the medians differ by more
than the distance between the parent's quartiles. Beside it, and not part of
the rule, ``hl_ratio`` and ``hl_ci95`` give the Hodges-Lehmann estimate of the
ratio and its exact Wilcoxon signed-rank 95 % interval (``null`` below 6
pairs), from the per-pair log ratios. Each workload's
``same_results`` says whether, in every pair, every pass of both sides
wrote the same ``results.csv`` bytes (pairs run different input sets, so
their bytes differ). The file is written to the root of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900  # perfbench stops starting work after 170 s


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """The tree of ``commit`` written out under ``dest``."""
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")


def host_class(tree: Path) -> str:
    """``fairpriv.hostinfo.host_class()`` as ``tree``'s source computes it. It runs in
    a child process: importing fairpriv here would set OPENBLAS_NUM_THREADS, and
    every perfbench run started after would inherit it."""
    code = "from fairpriv.hostinfo import host_class; print(host_class())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return proc.stdout.strip()


def read_run(tree: Path, workload: str) -> dict:
    """The result.json that perfbench left in ``tree``, and its passes' results.csv sha256."""
    work = tree / ".perfbench_work" / workload
    passes = sorted(work.glob("pass-*"), key=lambda p: int(p.name.split("-")[1]))
    return {"results_sha256": [hashlib.sha256((p / "out" / "results.csv").read_bytes()).hexdigest()
                               for p in passes],
            "result": json.loads((work / "result.json").read_text())}


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return read_run(tree, workload)


def pair_count(text: str) -> int:
    """``--pairs``: an integer >= 1, since each metric's summary needs a pair."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair ``i`` in the order they run: the parent first in even pairs."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def same_results(runs: list) -> bool:
    """Whether, in each pair of ``runs``, every pass of both sides wrote one results.csv
    digest; the sides may run different numbers of passes."""
    return all(len({sha for side in SIDES for sha in run[side]["results_sha256"]}) == 1
               for run in runs)


def hodges_lehmann(ratios: list) -> tuple[float, list | None]:
    """The change/parent ratio that ``ratios``, one per pair, estimate: exp of the
    median of the Walsh averages of their logs (Hodges & Lehmann 1963), and the exp of
    the exact Wilcoxon signed-rank 95 % interval on those averages (ties not corrected
    for). The interval is None below 6 pairs, where even the smallest and the largest
    Walsh average leave a two-sided tail above 5 %."""
    logs = [math.log(r) for r in ratios]
    walsh = sorted((a + b) / 2 for i, a in enumerate(logs) for b in logs[i:])
    counts = [1]  # counts[w]: the sign patterns of ranks 1..n whose positive ranks sum to w
    for rank in range(1, len(logs) + 1):
        counts = [c + (counts[w - rank] if w >= rank else 0)
                  for w, c in enumerate(counts + [0] * rank)]
    cut = tail = 0  # cut: the averages left out at each end, the most with a tail <= 2.5 %
    while 40 * (tail := tail + counts[cut]) <= 2 ** len(logs):
        cut += 1
    interval = [math.exp(walsh[cut - 1]), math.exp(walsh[-cut])] if cut else None
    return math.exp(statistics.median(walsh)), interval


def summarize(runs: list, end_to_end: list) -> dict:
    """Each metric's per-pair values and their summary, from ``runs``: one
    {"parent": run, "change": run} per pair, each run as read_run gives it."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [run[side]["result"]["metrics"][name]["value"] for run in runs]
                  for side in SIDES}
        row = {"unit": spec["unit"], "better": spec["better"], **values}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            row.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3,
                        f"{side}_iqr": q3 - q1})
        pairs = list(zip(values["parent"], values["change"]))
        row["ratio"] = row["change_median"] / row["parent_median"]
        row["pair_ratios"] = [c / p for p, c in pairs]
        row["hl_ratio"], row["hl_ci95"] = hodges_lehmann(row["pair_ratios"])
        row["change_wins"] = sum(c < p if lower else c > p for p, c in pairs)
        row["gain_shown"] = (10 * row["change_wins"] >= 9 * len(pairs)
                             and abs(row["change_median"] - row["parent_median"])
                             > row["parent_iqr"])
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=pair_count, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    commits = {side: git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}")
               for side in SIDES}
    bench = {"label": args.label, **commits, "pairs": args.pairs, "seconds": args.seconds,
             "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="fairpriv-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        bench["host_class"] = host_class(trees["change"])
        end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                run = {"pair": i, "seed": i, "first": pair_order(i)[0]}
                for side in pair_order(i):
                    run[side] = run_side(trees[side], workload, i, args.seconds)
                    value = run[side]["result"]["metrics"]
                    print(f"{workload} pair {i} {side}: " + ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in value.items()), flush=True)
                runs.append(run)
            bench["workloads"][workload] = {"same_results": same_results(runs),
                                            "metrics": summarize(runs, end_to_end),
                                            "runs": runs}
    bench["stamp"] = next(iter(bench["workloads"].values()))["runs"][0]["change"]["result"]["stamp"]
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    for workload, data in bench["workloads"].items():
        print(f"{workload:14s} same_results {data['same_results']}")
        for name, row in data["metrics"].items():
            interval = ("-".join(f"{v:.3f}" for v in row["hl_ci95"]) if row["hl_ci95"]
                        else "none")
            print(f"{workload:14s} {name:12s} ratio {row['ratio']:.4f}, change wins "
                  f"{row['change_wins']}/{args.pairs}, gain shown {row['gain_shown']}, "
                  f"HL {row['hl_ratio']:.3f} (95 % {interval})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
