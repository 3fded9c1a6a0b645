"""Experiment configuration: JSON schema, defaults, validation."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from ..analysis import grid_values, group_label
from ..data import (SplitSpec, SyntheticSpec, _check_fields, _errors_naming, _is_int,
                    _is_real, split_rows)
from ..training import TrainConfig


class ConfigError(ValueError):
    """Bad experiment configuration; the message names the offending field."""


# The default joint over (y, y_a, y_p): given y, y_a = y with probability 0.35 and,
# independently, y_p = y with probability 0.6.
DEFAULT_JOINT = (((0.105, 0.07), (0.195, 0.13)), ((0.13, 0.195), (0.07, 0.105)))


@dataclass
class ExperimentConfig:
    """``ExperimentConfig()`` is the documented default experiment. In its joint,
    ``DEFAULT_JOINT``, the sensitive label leans away from the task label, which with
    the exacerbated train split gives the trained baseline a visible fairness gap;
    the private label leans mildly toward the task label."""

    data: SyntheticSpec | str = field(default_factory=lambda: SyntheticSpec(  # or a CSV path
        n=8000, joint=np.array(DEFAULT_JOINT).tolist()))
    split: SplitSpec = field(default_factory=lambda: SplitSpec(
        train_mode="exacerbated", undersample_factor=0.25, test_mode="trio-balanced"))
    train: TrainConfig = field(default_factory=TrainConfig)
    alphas: list = field(default_factory=grid_values)
    betas: list = field(default_factory=grid_values)
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    utility_metric: str = "tpr"  # the TPR of the highest task class, or "accuracy"
    attacker_iters: int = 2000
    output_dir: str = "results"

    def validate(self) -> None:
        """Check every section's fields, then build the dataset anew with
        ``pipeline.load_dataset``, as the command's runs take it, and the split over its
        rows; the ConfigError names ``section.field``, or ``data`` and the CSV's path.
        Run it again after ``data`` changes, or runs split the old data."""
        if isinstance(self.data, SyntheticSpec):
            _as_config_error("data.", self.data.validate)
        _as_config_error("split.", self.split.validate)
        _as_config_error("train.", self.train.validate)
        _as_config_error("", self._validate_top_level)
        from .pipeline import load_dataset  # pipeline imports this module
        self.__dict__.pop("dataset", None)
        ds = _as_config_error("data: ", load_dataset, self)
        _as_config_error("split.", split_rows, self.split, ds)

    def __getstate__(self) -> dict:
        """Without ``dataset``: a copied config builds its own on first use, and a spawn or
        forkserver sweep worker's pickled config receives the sweep's over its pipe."""
        return {k: v for k, v in self.__dict__.items() if k != "dataset"}

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
        _check_fields(self, ("output_dir",), lambda v: isinstance(v, str), "a string")


def _as_config_error(prefix: str, check, *args):
    """``check(*args)``; a ValueError from it is raised as a ConfigError led by ``prefix``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _replace(section: str, spec, fields: dict):
    """``spec`` with ``fields`` set; an unknown field fails naming ``section.field``."""
    unknown = sorted(set(fields) - {f.name for f in dataclasses.fields(spec)})
    if unknown:
        raise ConfigError(f"{section}.{unknown[0]}: unknown field")
    return dataclasses.replace(spec, **fields)


def _parse_data(raw, default: SyntheticSpec) -> SyntheticSpec | str:
    if isinstance(raw, str):
        return raw
    if not isinstance(raw, dict):
        raise ConfigError("data: expected a CSV path string or a synthetic-spec object")
    kind = raw.get("kind", "synthetic")
    if kind != "synthetic":
        raise ConfigError(f"data.kind: must be 'synthetic', got {kind!r}; a CSV source "
                          "is written as its path string")
    spec = _replace("data", default, {k: v for k, v in raw.items() if k != "kind"})
    if "joint" not in raw and (spec.k_y, spec.k_a, spec.k_p) != np.shape(default.joint):
        raise ConfigError(f"data.joint: required when k_y, k_a or k_p change the default "
                          f"joint's shape {np.shape(default.joint)}")
    return spec


def from_dict(raw: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    plain = ("seeds", "utility_metric", "attacker_iters", "output_dir")
    unknown = set(raw) - {"data", "split", "train", "grid", *plain}
    if unknown:
        raise ConfigError(f"unknown field(s): {sorted(unknown)}")
    for name in ("split", "train"):
        if not isinstance(raw.get(name, {}), dict):
            raise ConfigError(f"{name}: expected an object, got {raw[name]!r}")
    if "data" in raw:
        cfg.data = _parse_data(raw["data"], cfg.data)
    if "split" in raw:
        cfg.split = _replace("split", cfg.split, raw["split"])
    if "train" in raw:
        train = dict(raw["train"])
        for name in ("extractor_hidden", "adversary_hidden"):
            if isinstance(train.get(name), list):
                train[name] = tuple(train[name])
        cfg.train = _replace("train", cfg.train, train)
    grid = raw.get("grid", "default")
    if grid != "default":
        if not isinstance(grid, dict) or set(grid) - {"alphas", "betas"}:
            raise ConfigError("grid: expected \"default\" or {alphas: [...], betas: [...]}")
        cfg.alphas = grid.get("alphas", grid_values())
        cfg.betas = grid.get("betas", grid_values())
    for key in plain:
        if key in raw:
            setattr(cfg, key, raw[key])
    cfg.validate()
    # Checked as written; stored as floats, so report.json prints 1.0 whether the
    # file wrote 1 or 1.0 (and 0.0 for -0.0), and a joint as nested lists, as
    # ExperimentConfig() holds it.
    if isinstance(cfg.data, SyntheticSpec) and cfg.data.joint is not None:
        cfg.data.joint = np.asarray(cfg.data.joint, float).tolist()
    cfg.alphas = [float(v) + 0.0 for v in cfg.alphas]
    cfg.betas = [float(v) + 0.0 for v in cfg.betas]
    return cfg


def load_config(path) -> ExperimentConfig:
    """The config in the UTF-8 JSON file ``path``, a leading byte-order mark skipped;
    a read, decode or JSON error starts with ``path``."""
    try:
        with _errors_naming(path), open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return from_dict(raw)
