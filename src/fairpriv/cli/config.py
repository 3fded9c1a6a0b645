"""Experiment configuration: JSON schema, defaults, validation."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..analysis import CsrWeights, grid_values, group_label
from ..data import SplitSpec, SyntheticSpec, _check_fields, _is_int, _is_real
from ..training import TrainConfig


class ConfigError(ValueError):
    """Bad experiment configuration; the message names the offending field."""


@dataclass
class ExperimentConfig:
    data: SyntheticSpec | str  # a generator spec, or a path to a feature CSV
    split: SplitSpec = field(default_factory=SplitSpec)
    # alpha, beta and seed stay 0 here; each run sets them from the grid and seeds.
    train: TrainConfig = field(default_factory=lambda: TrainConfig(alpha=0.0, beta=0.0, seed=0))
    alphas: list = field(default_factory=grid_values)
    betas: list = field(default_factory=grid_values)
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    csr_weights: list = field(default_factory=lambda: [
        CsrWeights(0.6, 0.2, 0.2), CsrWeights(0.2, 0.6, 0.2), CsrWeights(0.2, 0.2, 0.6)])
    utility_metric: str = "accuracy"  # or "tpr"
    positive_class: int | None = None  # tpr positive class; default highest index
    attacker_iters: int = 2000
    attacker_lr: float = 1.0
    output_dir: str = "results"
    csr_over_seed_medians: bool = False
    correlations_over_seed_medians: bool = False

    def validate(self) -> None:
        """Check every section's fields; the ConfigError names ``section.field``."""
        checks = [("data.", self.data.validate)] if isinstance(self.data, SyntheticSpec) else []
        checks += [("split.", self.split.validate), ("train.", self.train.validate)]
        checks += [("csr_weights: ", w.validate) for w in self.csr_weights]
        checks.append(("", self._validate_top_level))
        for prefix, check in checks:
            try:
                check()
            except ValueError as exc:
                raise ConfigError(f"{prefix}{exc}") from None

    def _validate_top_level(self) -> None:
        _check_fields(self, ("seeds",),
                      lambda v: (isinstance(v, list) and len(v) > 0
                                 and all(_is_int(s) and s >= 0 for s in v)),
                      "a nonempty list of integers >= 0")
        for name in ("alphas", "betas"):
            vals = getattr(self, name)
            if not (isinstance(vals, list) and vals and all(_is_real(v) for v in vals)):
                raise ValueError(f"grid.{name}: must be a nonempty list of numbers, "
                                 f"got {vals!r}")
            for v in vals:
                try:
                    group_label(v)
                except ValueError as exc:
                    raise ValueError(f"grid.{name}: {exc}") from None
        for name, vals in (("seeds", self.seeds), ("grid.alphas", self.alphas),
                           ("grid.betas", self.betas)):
            dups = sorted({v for v in vals if vals.count(v) > 1})
            if dups:
                raise ValueError(f"{name}: duplicate value(s) {dups}")
        _check_fields(self, ("utility_metric",), lambda v: v in ("accuracy", "tpr"),
                      "'accuracy' or 'tpr'")
        _check_fields(self, ("attacker_iters",), lambda v: _is_int(v) and v >= 1,
                      "an integer >= 1")
        _check_fields(self, ("attacker_lr",), lambda v: _is_real(v) and v > 0,
                      "a finite number > 0")
        if self.positive_class is not None:
            # A CSV's class count is known only once it is read.
            k_y = self.data.k_y if isinstance(self.data, SyntheticSpec) else math.inf
            _check_fields(self, ("positive_class",), lambda v: _is_int(v) and 0 <= v < k_y,
                          f"a task class index in [0, {k_y})")
        _check_fields(self, ("output_dir",), lambda v: isinstance(v, str), "a string")
        _check_fields(self, ("csr_over_seed_medians", "correlations_over_seed_medians"),
                      lambda v: isinstance(v, bool), "true or false")


def default_config() -> ExperimentConfig:
    """Synthetic-data defaults mirroring the documented quickstart.

    The sensitive label leans away from the task label (delta_a < 0), which
    together with the exacerbated train split makes the trained baseline
    carry a visible fairness gap; the private label leans mildly toward it.
    """
    return ExperimentConfig(data=SyntheticSpec(n=8000,
                                               joint=mild_correlation_joint(-0.15, 0.10)),
                            split=SplitSpec(train_mode="exacerbated",
                                            undersample_factor=0.25,
                                            test_mode="trio-balanced"),
                            utility_metric="tpr")


def mild_correlation_joint(delta_a: float = -0.15, delta_p: float = 0.10) -> np.ndarray:
    """Binary joint where y_a leans toward y by delta_a and y_p by delta_p."""
    joint = np.zeros((2, 2, 2))
    for y in range(2):
        for a in range(2):
            for p in range(2):
                pa = 0.5 + delta_a if a == y else 0.5 - delta_a
                pp = 0.5 + delta_p if p == y else 0.5 - delta_p
                joint[y, a, p] = 0.5 * pa * pp
    return joint


def _parse_data(raw) -> SyntheticSpec | str:
    if isinstance(raw, str):
        return raw
    if not isinstance(raw, dict):
        raise ConfigError("data: expected a CSV path string or a synthetic-spec object")
    kind = raw.get("kind", "synthetic")
    if kind == "csv":
        if "path" not in raw:
            raise ConfigError("data.path: required for kind 'csv'")
        return str(raw["path"])
    if kind != "synthetic":
        raise ConfigError(f"data.kind: unknown value {kind!r}")
    try:
        return SyntheticSpec(**{k: v for k, v in raw.items() if k != "kind"})
    except TypeError as exc:
        raise ConfigError(f"data: {exc}") from None


def from_dict(raw: dict) -> ExperimentConfig:
    cfg = default_config()
    plain = ("seeds", "utility_metric", "positive_class", "attacker_iters", "attacker_lr",
             "output_dir", "csr_over_seed_medians", "correlations_over_seed_medians")
    unknown = set(raw) - {"data", "split", "train", "grid", "csr_weights", *plain}
    if unknown:
        raise ConfigError(f"unknown field(s): {sorted(unknown)}")
    for name in ("split", "train"):
        if not isinstance(raw.get(name, {}), dict):
            raise ConfigError(f"{name}: expected an object, got {raw[name]!r}")
    if "data" in raw:
        cfg.data = _parse_data(raw["data"])
    if "split" in raw:
        try:
            cfg.split = SplitSpec(**raw["split"])
        except TypeError as exc:
            raise ConfigError(f"split: {exc}") from None
    if "train" in raw:
        train = dict(raw["train"])
        for name in ("alpha", "beta", "seed"):
            if name in train:
                raise ConfigError(f"train.{name}: set per run by the grid and seeds, "
                                  f"not in the train section")
        for name in ("extractor_hidden", "adversary_hidden"):
            if isinstance(train.get(name), list):
                train[name] = tuple(train[name])
        try:
            cfg.train = dataclasses.replace(cfg.train, **train)
        except TypeError as exc:
            raise ConfigError(f"train: {exc}") from None
    grid = raw.get("grid", "default")
    if grid != "default":
        if not isinstance(grid, dict) or set(grid) - {"alphas", "betas"}:
            raise ConfigError("grid: expected \"default\" or {alphas: [...], betas: [...]}")
        cfg.alphas = grid.get("alphas", grid_values())
        cfg.betas = grid.get("betas", grid_values())
    if "csr_weights" in raw:
        try:
            cfg.csr_weights = [CsrWeights(*w) for w in raw["csr_weights"]]
        except TypeError:
            raise ConfigError(f"csr_weights: must be a list of [utility, fairness, privacy] "
                              f"triples, got {raw['csr_weights']!r}") from None
    for key in plain:
        if key in raw:
            setattr(cfg, key, raw[key])
    cfg.validate()
    # Checked as written; stored as floats, so report.json prints 1.0 whether the
    # file wrote 1 or 1.0.
    cfg.alphas = [float(v) for v in cfg.alphas]
    cfg.betas = [float(v) for v in cfg.betas]
    cfg.csr_weights = [CsrWeights(*map(float, dataclasses.astuple(w)))
                       for w in cfg.csr_weights]
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return from_dict(raw)
