"""Output bytes on the benchmark's committed reference results.

Each of the 16 reference result files is analyzed under the config that
perfbench/run.py builds for it; one sha256 over report.json, tables.txt and
the three heatmaps pins every byte the report path writes, and a shuffled copy
of the file must write the same bytes. Each attack_short input set is also
swept again, and must write its reference file's bytes (the benchmark's own
check allows a deviation of 1e-6). The paper's three directions (acceptance
criteria 3-5) are checked on each recorded input set of the reduced sweep.
The perfbench files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from fairpriv.cli import main, pipeline

from conftest import host_note

ROOT = Path(__file__).resolve().parents[1]
OUTPUTS = ("report.json", "tables.txt", "heatmap_utility.svg", "heatmap_fairness_gap.svg",
           "heatmap_attack_balanced_acc.svg")


@cache
def _perfbench_run():
    """perfbench/run.py as a module, leaving sys.path as it was."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


# Recorded once report.json and tables.txt held the tradeoffs over seed
# medians beside the tradeoffs over the runs.
RECORDED = {
    ("sweep_reduced", 0): "bcebe9461de7ad7893421ac27be88098d3ff70bf7cf75467c24e3d28659e8003",
    ("sweep_reduced", 1): "672097e04f3ea62d607757efc526bdcf471684332f2a10c5a47600f9ec3f4d53",
    ("sweep_reduced", 2): "c145d2f0b230104238b6850536998f207303e451fccb7adf9f49ef89ba62efad",
    ("sweep_reduced", 3): "abf59248f0d78247b0f21235064007f590afd777cee347aaf8c7d6b1a06a8b29",
    ("sweep_reduced", 4): "82f6efb2515c8598843824470a81029c370adb55249a1dc95a2570a53e13d472",
    ("sweep_reduced", 5): "2a329803f5cc22d478ee771ba2b7556347cc94cab689f78e9abf92439ba75086",
    ("sweep_reduced", 6): "634bf68ef3daef2f44048930164277fea3378edf9e7723d81d62921e5f756260",
    ("sweep_reduced", 7): "acb293ad7995fdb996e34c266ed13d0fa8fa1564fdd47b1ba9129f2fa1d7bd8c",
    ("attack_short", 0): "0c373c05310f2aff0f1fc2b62535bb240cb34f81f26ac3a558451f7f830b5fdf",
    ("attack_short", 1): "f1fcb8993dc70b5c593891c4309c7a33347dea782020660f7220e063bea9de99",
    ("attack_short", 2): "ba0979f692a7c3ad11386cf67014efe5f55079a534ede17e619ff87cddcf6457",
    ("attack_short", 3): "0a179239c919f607b3d9fa10d3c9bbd0216f410a7a41eaecf3bd523d36b59f0c",
    ("attack_short", 4): "594a2134d1aab4745df8bfa7f83bdadebe30339cffdce6563e32836bb9d87c1d",
    ("attack_short", 5): "521194ecaf99f7839c0ddfda29d0c690559a5c34d792834d357ef2b430d7d654",
    ("attack_short", 6): "8b182cbfe820c719d556d86c988134345416d30bb52de442ec7f8468c8c66982",
    ("attack_short", 7): "aa6a86c53fb597e833765e28574dffcc64aa8460ea994a3734ccbf1ff1f59290",
}


def reference_results(workload: str, k: int) -> Path:
    return ROOT / "perfbench" / "reference" / workload / f"inputs-{k}.csv"


def analyze_digest(workload: str, k: int, tmp_path: Path, results: Path | None = None) -> str:
    """The digest of analyze's outputs for input set ``k``, on ``results`` (by
    default, its reference results)."""
    raw, _ = _perfbench_run().make_config(workload, k)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    results = results or reference_results(workload, k)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(config), "--results", str(results),
                 "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for name in OUTPUTS:
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", ["sweep_reduced", "attack_short"])
@pytest.mark.parametrize("k", range(8))
def test_analyze_matches_recorded_digest(workload, k, tmp_path):
    assert analyze_digest(workload, k, tmp_path) == RECORDED[workload, k]


@pytest.mark.parametrize("workload", ["sweep_reduced", "attack_short"])
@pytest.mark.parametrize("k", range(8))
def test_analyze_ignores_row_order(workload, k, tmp_path):
    # The same runs in a shuffled row order write the same bytes: every sum
    # takes the runs in key order, not in file order.
    header, *rows = reference_results(workload, k).read_text().splitlines(keepends=True)
    shuffled = [rows[i] for i in np.random.default_rng(k).permutation(len(rows))]
    assert shuffled != rows
    results = tmp_path / "shuffled.csv"
    results.write_text(header + "".join(shuffled))
    assert analyze_digest(workload, k, tmp_path, results) == RECORDED[workload, k]


@pytest.mark.parametrize("k", range(8))
def test_attack_short_sweep_matches_reference(k, tmp_path):
    # attack_short is where the attacker fit shows; one input set alone misses a
    # change that moves only some cells. results.csv shows the fit only through
    # attack_balanced_acc, a ratio of counts, so a fit that flips no test
    # prediction keeps these bytes (one stopped at half its steps does);
    # TestGoldenBytes pins the fit's own bytes.
    raw, _ = _perfbench_run().make_config("attack_short", k)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--jobs", "1", "--out", str(out)]) == 0
    reference = reference_results("attack_short", k)
    assert (out / "results.csv").read_bytes() == reference.read_bytes(), host_note(
        f"results.csv differs from {reference.relative_to(ROOT)}")


@pytest.mark.parametrize("k", range(8))
def test_paper_directions_hold_on_recorded_input_set(k):
    # Acceptance criteria 3-5 and their thresholds, on data seed k's recorded
    # cells at grid seeds 2k and 2k + 1 (their median), training nothing.
    records = list(pipeline.load_results(reference_results("sweep_reduced", k)).values())
    assert pipeline.ERROR_MARKER not in records and {r.seed for r in records} == {2 * k, 2 * k + 1}

    def median(alpha, beta, metric):
        return float(np.median([getattr(r, metric) for r in records
                                if (r.alpha, r.beta) == (alpha, beta)]))

    attack, gap = median(0.0, 0.0, "attack_balanced_acc"), median(0.0, 0.0, "fairness_gap")
    assert attack >= 0.60 and gap >= 0.05, (attack, gap)  # criterion 3
    private = median(0.0, 10.0, "attack_balanced_acc")  # criterion 4, chance 0.5
    assert private <= 0.55 and attack - private >= 0.05, (attack, private)
    fair = median(10.0, 0.0, "fairness_gap")  # criterion 5
    assert fair <= 0.5 * gap, (gap, fair)
