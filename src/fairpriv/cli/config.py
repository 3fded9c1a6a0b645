"""Experiment configuration: JSON schema, defaults, validation."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..analysis import CsrWeights, grid_values, group_label
from ..data import SplitSpec, SyntheticSpec
from ..training import TrainConfig


class ConfigError(ValueError):
    """Bad experiment configuration; the message names the offending field."""


@dataclass
class TrainSettings:
    """TrainConfig minus the swept (alpha, beta, seed)."""

    epochs: int = 40
    batch_size: int = 64
    lr: float = 1e-3
    feature_dim: int = 8
    extractor_hidden: tuple = (32,)
    adversary_hidden: tuple = (32, 32)
    switch_period: int = 1
    select_by: str = "classifier-ce"

    def to_config(self, alpha: float, beta: float, seed: int) -> TrainConfig:
        return TrainConfig(alpha=alpha, beta=beta, seed=seed, epochs=self.epochs,
                           batch_size=self.batch_size, lr=self.lr,
                           feature_dim=self.feature_dim,
                           extractor_hidden=tuple(self.extractor_hidden),
                           adversary_hidden=tuple(self.adversary_hidden),
                           switch_period=self.switch_period, select_by=self.select_by)


@dataclass
class ExperimentConfig:
    data: SyntheticSpec | str  # a generator spec, or a path to a feature CSV
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainSettings = field(default_factory=TrainSettings)
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
        if isinstance(self.data, SyntheticSpec):
            try:
                self.data.validate()
            except ValueError as exc:
                raise ConfigError(f"data: {exc}") from None
        try:
            self.split.validate()
        except ValueError as exc:
            raise ConfigError(f"split: {exc}") from None
        try:
            self.train.to_config(0.0, 0.0, 0).validate()
        except ValueError as exc:
            raise ConfigError(f"train: {exc}") from None
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        if self.utility_metric not in ("accuracy", "tpr"):
            raise ConfigError(f"utility_metric: unknown value {self.utility_metric!r}")
        for name, vals in (("alphas", self.alphas), ("betas", self.betas)):
            if not vals:
                raise ConfigError(f"{name}: grid must be nonempty")
            for v in vals:
                try:
                    group_label(v)
                except ValueError as exc:
                    raise ConfigError(f"{name}: {exc}") from None
        for w in self.csr_weights:
            try:
                w.validate()
            except ValueError as exc:
                raise ConfigError(f"csr_weights: {exc}") from None
        for name, vals in (("seeds", self.seeds), ("alphas", self.alphas),
                           ("betas", self.betas)):
            dups = sorted({v for v in vals if vals.count(v) > 1})
            if dups:
                raise ConfigError(f"{name}: duplicate value(s) {dups}")
        if not _is_int(self.attacker_iters) or self.attacker_iters < 1:
            raise ConfigError(f"attacker_iters: must be an integer >= 1, "
                              f"got {self.attacker_iters!r}")
        if not (isinstance(self.attacker_lr, numbers.Real)
                and not isinstance(self.attacker_lr, bool)
                and math.isfinite(self.attacker_lr) and self.attacker_lr > 0):
            raise ConfigError(f"attacker_lr: must be a finite number > 0, "
                              f"got {self.attacker_lr!r}")
        if self.positive_class is not None:
            # A CSV's class count is known only once it is read.
            k_y = self.data.k_y if isinstance(self.data, SyntheticSpec) else math.inf
            if not _is_int(self.positive_class) or not 0 <= self.positive_class < k_y:
                raise ConfigError(f"positive_class: must be a task class index in "
                                  f"[0, {k_y}), got {self.positive_class!r}")
        for name in ("csr_over_seed_medians", "correlations_over_seed_medians"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name}: must be true or false, "
                                  f"got {getattr(self, name)!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


def _take(section: dict, key: str, default):
    return section[key] if key in section else default


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
    fields = {k: v for k, v in raw.items() if k != "kind"}
    joint = fields.pop("joint", None)
    if joint is not None:
        fields["joint"] = np.asarray(joint, dtype=np.float64)
    try:
        return SyntheticSpec(**fields)
    except TypeError as exc:
        raise ConfigError(f"data: {exc}") from None


def from_dict(raw: dict) -> ExperimentConfig:
    cfg = default_config()
    known = {"data", "split", "train", "grid", "seeds", "csr_weights", "utility_metric",
             "positive_class", "attacker_iters", "attacker_lr", "output_dir",
             "csr_over_seed_medians", "correlations_over_seed_medians"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown field(s): {sorted(unknown)}")
    if "data" in raw:
        cfg.data = _parse_data(raw["data"])
    if "split" in raw:
        try:
            cfg.split = SplitSpec(**raw["split"])
        except TypeError as exc:
            raise ConfigError(f"split: {exc}") from None
    if "train" in raw:
        try:
            cfg.train = TrainSettings(**raw["train"])
        except TypeError as exc:
            raise ConfigError(f"train: {exc}") from None
    grid = raw.get("grid", "default")
    if grid != "default":
        if not isinstance(grid, dict) or set(grid) - {"alphas", "betas"}:
            raise ConfigError("grid: expected \"default\" or {alphas: [...], betas: [...]}")
        cfg.alphas = [float(v) for v in _take(grid, "alphas", grid_values())]
        cfg.betas = [float(v) for v in _take(grid, "betas", grid_values())]
    if "seeds" in raw:
        cfg.seeds = [int(s) for s in raw["seeds"]]
    if "csr_weights" in raw:
        try:
            cfg.csr_weights = [CsrWeights(*map(float, w)) for w in raw["csr_weights"]]
        except TypeError as exc:
            raise ConfigError(f"csr_weights: {exc}") from None
    for key in ("utility_metric", "positive_class", "attacker_iters", "attacker_lr",
                "output_dir", "csr_over_seed_medians", "correlations_over_seed_medians"):
        if key in raw:
            setattr(cfg, key, raw[key])
    cfg.validate()
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
