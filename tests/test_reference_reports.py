"""`fairpriv analyze` output bytes on the benchmark's committed reference results.

Each of the 16 reference result files is analyzed under the config that
perfbench/run.py builds for it; one sha256 over report.json, tables.txt and
the three heatmaps pins every byte the report path writes. The perfbench
files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from fairpriv.cli import main

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


# Recorded before the metric table replaced the per-metric code in analysis,
# report and pipeline.
RECORDED = {
    ("sweep_reduced", 0): "cff9befdfb7497ca67b299be479118996231afa0152ad766f80306f745e18a27",
    ("sweep_reduced", 1): "407d9b3df02bd73c220a9cfdaa217cf6e864d59a088053757c7bf14e273fdfea",
    ("sweep_reduced", 2): "2ee932b8c210ba5e6cfe2977245aaa1a1b51c5e27840808687263c5b88ffe17a",
    ("sweep_reduced", 3): "ed1fa85ebd42b1edc5d2984899871882bc4704b06ed40fe97f6e40023264f8b8",
    ("sweep_reduced", 4): "7853e7d5363b092790aff81dad8c9f870cf863a52e21b800b1a4e5ca3c4ee1d5",
    ("sweep_reduced", 5): "c4fa7dbd75ea30566557ecc8ea4180d379ce12cb4c9b9777b3e8789b8da60a88",
    ("sweep_reduced", 6): "4199b9022965be5ce603ef47c3df1b17dadc6b68a81a0231b2fe8989b76c45c3",
    ("sweep_reduced", 7): "9107941eaac910ad42d515e087a27e5396e107d6781081fdad510846d89ad347",
    ("attack_short", 0): "d13cb5a8fe02d858e37251cc230d181827c18e2019257847e18e068f03d0d6e9",
    ("attack_short", 1): "4af1db6be0327f7e3283b56eca031882a5ea3b8cc301e1d3d41d3371ba9e9ac4",
    ("attack_short", 2): "f8ae3c8578de5aec02f339644825cb5538317c9d5b45b279b32289a1c0039024",
    ("attack_short", 3): "799b7bb2d47e98c62a3be9860d1bd60ac64b98653c33494e8d97e400c83de41c",
    ("attack_short", 4): "a43fa8b1ab7766f7b63c678c4c789b79bdb661c43e769269d68ce66dafe31b43",
    ("attack_short", 5): "ec5709c5d73d33f563f9e99df974c70ead874922fe65a9457b640521bca1532c",
    ("attack_short", 6): "0e5a00201b93ef56c678a564087cb550101001bec17d1380bb1ad505d89f0d54",
    ("attack_short", 7): "c9d46c80a81547e673014561cdaf0317cfadc9501756d4cde7bb1b8b312dfef6",
}


def analyze_digest(workload: str, k: int, tmp_path: Path) -> str:
    raw, _ = _perfbench_run().make_config(workload, k)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    results = ROOT / "perfbench" / "reference" / workload / f"inputs-{k}.csv"
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
