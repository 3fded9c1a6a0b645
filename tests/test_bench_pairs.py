"""bench/pairs.py's arithmetic, on hand-built perfbench result.json files."""

import hashlib
import importlib.util
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairpriv.hostinfo import host_class

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = [{"name": "run_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def fake_tree(tmp_path, name, run_p50_s, runs_per_s, csvs=(b"a,b\n",)):
    """A checkout in which perfbench left a result.json and one results.csv per pass."""
    work = tmp_path / name / ".perfbench_work" / "w"
    for i, data in enumerate(csvs):
        (work / f"pass-{i}" / "out").mkdir(parents=True)
        (work / f"pass-{i}" / "out" / "results.csv").write_bytes(data)
    (work / "result.json").write_text(json.dumps({"metrics": {
        "run_p50_s": {"value": run_p50_s, "unit": "s"},
        "runs_per_s": {"value": runs_per_s, "unit": "1/s"}}, "stamp": {"nproc": 2}}))
    return tmp_path / name


def runs_of(tmp_path, parent, change):
    """One run per pair from (run_p50_s, runs_per_s) values of each side."""
    return [{side: pairs.read_run(fake_tree(tmp_path, f"{side}{i}", *values), "w")
             for side, values in (("parent", p), ("change", c))}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_read_run_keeps_result_and_hashes_passes_in_order(tmp_path):
    csvs = [f"pass {i}\n".encode() for i in range(12)]  # pass-10 sorts after pass-9
    run = pairs.read_run(fake_tree(tmp_path, "t", 1.0, 2.0, csvs), "w")
    assert run["results_sha256"] == [hashlib.sha256(c).hexdigest() for c in csvs]
    assert run["result"]["metrics"]["run_p50_s"]["value"] == 1.0
    assert run["result"]["stamp"] == {"nproc": 2}


def test_same_results_compares_each_pairs_digests_as_a_set(tmp_path):
    # Each pair runs its own input set. Within a pair both sides write equal
    # bytes, one side in more passes: the same results.
    runs = [{side: pairs.read_run(fake_tree(tmp_path, f"{side}{i}", 1.0, 1.0,
                                            [f"pair {i}\n".encode()] * n), "w")
             for side, n in (("parent", 16), ("change", 20))} for i in range(2)]
    assert pairs.same_results(runs)
    # One pass of one pair writes other bytes.
    runs[1]["change"] = pairs.read_run(fake_tree(tmp_path, "odd", 1.0, 1.0,
                                                 [b"pair 1\n"] * 19 + [b"other\n"]), "w")
    assert not pairs.same_results(runs)


def test_medians_quartiles_ratios_and_wins(tmp_path):
    parent = [(10.0, 1.0), (12.0, 1.0), (11.0, 2.0), (13.0, 1.0)]
    change = [(9.0, 2.0), (12.0, 1.0), (10.0, 1.0), (11.0, 3.0)]
    summary = pairs.summarize(runs_of(tmp_path, parent, change), END_TO_END)
    p50 = summary["run_p50_s"]
    assert p50["parent"] == [10.0, 12.0, 11.0, 13.0] and p50["change"] == [9.0, 12.0, 10.0, 11.0]
    # Inclusive quartiles of 10, 11, 12, 13: 10.75, 11.5, 12.25.
    assert (p50["parent_q1"], p50["parent_median"], p50["parent_q3"]) == (10.75, 11.5, 12.25)
    assert p50["parent_iqr"] == 1.5
    assert p50["change_median"] == 10.5
    assert p50["ratio"] == 10.5 / 11.5
    assert p50["pair_ratios"] == [0.9, 1.0, 10.0 / 11.0, 11.0 / 13.0]
    assert p50["change_wins"] == 3  # the tie counts for neither side
    assert not p50["gain_shown"]  # 3 of 4 is short of nine in ten
    per_s = summary["runs_per_s"]
    assert per_s["better"] == "higher" and per_s["unit"] == "1/s"
    assert per_s["change_wins"] == 2  # higher wins: pairs 0 and 3; pair 2 is a loss


PARENT = [9.0, 9.2, 9.4, 9.6, 9.8, 10.0, 10.2, 10.4, 10.6, 10.8]  # quartiles 9.45 and 10.35


@pytest.mark.parametrize("change, shown", [
    ([8.0] * 10, True),  # every pair, by more than the parent's IQR
    ([8.0] * 9 + [11.0], True),  # nine pairs in ten
    ([8.0] * 8 + [11.0] * 2, False),  # eight in ten
    ([p - 0.1 for p in PARENT], False),  # every pair, but by less than the parent's IQR
], ids=["all", "nine", "eight", "within IQR"])
def test_gain_shown_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr(
        tmp_path, change, shown):
    runs = runs_of(tmp_path, [(p, 1.0) for p in PARENT], [(c, 1.0) for c in change])
    row = pairs.summarize(runs, END_TO_END)["run_p50_s"]
    assert row["parent_iqr"] == pytest.approx(0.9)
    assert row["gain_shown"] is shown


def test_one_pair_has_no_spread(tmp_path):
    row = pairs.summarize(runs_of(tmp_path, [(2.0, 1.0)], [(1.0, 1.0)]), END_TO_END)["run_p50_s"]
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (2.0, 2.0, 2.0)
    assert row["ratio"] == 0.5 and row["change_wins"] == 1 and row["gain_shown"]
    assert row["hl_ratio"] == 0.5 and row["hl_ci95"] is None


def brute_hodges_lehmann(ratios):
    """The estimate and the 95 % interval from every Walsh average and every sign
    pattern of the ranks."""
    logs = [math.log(r) for r in ratios]
    n = len(logs)
    walsh = sorted((logs[i] + logs[j]) / 2
                   for i, j in itertools.combinations_with_replacement(range(n), 2))
    sums = [sum(rank for rank, positive in zip(range(1, n + 1), signs) if positive)
            for signs in itertools.product((False, True), repeat=n)]
    # The most averages cut from each end with P(W+ < cut) <= 2.5 % under the null.
    cut = max(c for c in range(len(walsh) + 1) if 40 * sum(w < c for w in sums) <= 2 ** n)
    interval = None if cut == 0 else [math.exp(walsh[cut - 1]), math.exp(walsh[len(walsh) - cut])]
    return math.exp(float(np.median(walsh))), interval


@pytest.mark.parametrize("ratios", [
    [0.9, 1.1, 0.8, 1.05, 0.95, 0.85],
    [1.2, 1.1, 1.3, 1.15, 1.25, 1.05, 0.98],
    list(np.random.default_rng(0).lognormal(-0.1, 0.14, 10)),
    list(np.random.default_rng(1).lognormal(0.0, 0.05, 13)),
], ids=["6", "7", "10", "13"])
def test_hodges_lehmann_matches_brute_force(tmp_path, ratios):
    estimate, interval = pairs.hodges_lehmann(ratios)
    want_estimate, want_interval = brute_hodges_lehmann(ratios)
    assert estimate == pytest.approx(want_estimate, rel=1e-12)
    assert interval == pytest.approx(want_interval, rel=1e-12)
    assert interval[0] <= estimate <= interval[1]
    # summarize reports them for each metric, from its pair ratios.
    row = pairs.summarize(runs_of(tmp_path, [(1.0, 1.0)] * len(ratios),
                                  [(r, 1.0) for r in ratios]), END_TO_END)["run_p50_s"]
    assert (row["hl_ratio"], row["hl_ci95"]) == (estimate, interval)


@pytest.mark.parametrize("n", range(1, 6))
def test_no_interval_below_six_pairs(n):
    assert pairs.hodges_lehmann([0.9] * n) == (pytest.approx(0.9), None)
    assert brute_hodges_lehmann([0.9] * n)[1] is None


@pytest.mark.parametrize("label, workload, metric, estimate, interval", [
    ("training_step", "sweep_reduced", "run_p50_s", 0.887, [0.795, 0.979]),
    # An A/A, one commit against itself, whose interval excludes 1: the
    # interval is reported, but it is not a claim rule.
    ("aa_passes", "attack_short", "wall_s", 0.942, [0.899, 0.984]),
])
def test_committed_bench_files(label, workload, metric, estimate, interval):
    bench = json.loads((ROOT / f"BENCH_{label}.json").read_text())
    row = bench["workloads"][workload]["metrics"][metric]
    got_estimate, got_interval = pairs.hodges_lehmann(row["pair_ratios"])
    assert round(got_estimate, 3) == estimate
    assert [round(v, 3) for v in got_interval] == interval


@pytest.mark.parametrize("count", ["0", "-1"])
def test_fewer_than_one_pair_rejected_before_any_export(monkeypatch, capsys, count):
    # No pair leaves each metric's summary without data: the arguments are
    # rejected before either tree is exported.
    monkeypatch.setattr(pairs, "export", lambda *a: pytest.fail("exported a tree"))
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "attack_short",
                    "--pairs", count, "--seconds", "0", "--label", "none"])
    assert exc.value.code == 2
    assert "--pairs: must be at least 1" in capsys.readouterr().err


def test_sides_alternate_which_goes_first():
    assert [pairs.pair_order(i)[0] for i in range(4)] == ["parent", "change"] * 2
    assert all(sorted(pairs.pair_order(i)) == ["change", "parent"] for i in range(4))


def test_host_class_of_a_tree_is_this_process_host_class():
    assert pairs.host_class(ROOT) == host_class()


def test_host_class_leaves_fairpriv_out_of_the_runner():
    # The runner's environment is every perfbench run's: importing fairpriv
    # there would set OPENBLAS_NUM_THREADS for them all.
    code = "\n".join([
        "import importlib.util, sys",
        f"spec = importlib.util.spec_from_file_location('pairs', {str(spec.origin)!r})",
        "pairs = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(pairs)",
        f"pairs.host_class(pairs.Path({str(ROOT)!r}))",
        "print('fairpriv' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_compile_tree_writes_bytecode_that_python_would_not(tmp_path, monkeypatch):
    # Python reads bytecode that exists even under PYTHONDONTWRITEBYTECODE=1,
    # so a compiled tree's runs do not compile their sources.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("X = 1\n")
    pairs.compile_tree(tmp_path)
    assert len(list((tmp_path / "pkg" / "__pycache__").glob("mod.*.pyc"))) == 1


def test_main_compiles_both_trees_first_and_records_the_timing_env(tmp_path, monkeypatch):
    def export(commit, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
        (dest / "mod.py").write_text("X = 1\n")

    runs = []

    def run_side(tree, workload, seed, seconds):
        compiled = [(tree.parent / side / "__pycache__").is_dir() for side in pairs.SIDES]
        assert compiled == [True, True], "a run started before both trees were compiled"
        runs.append(tree.name)
        return pairs.read_run(fake_tree(tmp_path, f"run{len(runs)}", 1.0, 2.0), "w")

    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "git", lambda *args: "c0ffee")
    monkeypatch.setattr(pairs, "export", export)
    monkeypatch.setattr(pairs, "host_class", lambda tree: "Fake/X86_V1")
    monkeypatch.setattr(pairs, "run_side", run_side)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert pairs.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "w",
                       "--pairs", "2", "--seconds", "0", "--label", "fake"]) == 0
    assert runs == ["parent", "change", "change", "parent"]
    bench = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert bench["env"] == {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
                            "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
