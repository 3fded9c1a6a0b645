"""Synthetic datasets with tunable label leakage, splits, and CSV I/O.

Each row carries a feature vector plus three categorical labels: the task
label, a sensitive group label, and a private attribute. The synthetic
generator plants an independently tunable Gaussian signal block per label so
leakage into the features can be dialed up or down attribute by attribute.
"""

from __future__ import annotations

import csv
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .learncore import Matrix


@dataclass
class LabeledDataset:
    """Feature matrix plus task (y), sensitive (y_a), and private (y_p) labels."""

    x: Matrix
    y: np.ndarray
    y_a: np.ndarray
    y_p: np.ndarray
    k_y: int
    k_a: int
    k_p: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.y_a = np.asarray(self.y_a, dtype=np.int64)
        self.y_p = np.asarray(self.y_p, dtype=np.int64)
        n = self.x.shape[0]
        for name, labels, k in (("y", self.y, self.k_y), ("y_a", self.y_a, self.k_a),
                                ("y_p", self.y_p, self.k_p)):
            if labels.shape != (n,):
                raise ValueError(f"{name} has length {labels.shape}, expected ({n},)")
            if k < 2:
                raise ValueError(f"class count for {name} must be >= 2, got {k}")
            if labels.size and (labels.min() < 0 or labels.max() >= k):
                raise ValueError(f"{name} contains an index outside [0, {k})")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.x[idx], self.y[idx], self.y_a[idx], self.y_p[idx],
                              self.k_y, self.k_a, self.k_p)


@dataclass
class SyntheticSpec:
    """Parameters for the block-Gaussian generator.

    Features are four concatenated blocks: one signaling the task label with
    separation mu_y, one signaling the sensitive label (mu_a), one signaling
    the private label (mu_p), and pure noise. Within a block of width d for a
    K-class label, dimension c < K carries the mean bump for class c; with
    mu > 0, d must be 0 or >= K. ``joint`` is a k_y x k_a x k_p probability
    table for the label triple; None means uniform.
    """

    n: int
    d_y: int = 4
    d_a: int = 4
    d_p: int = 4
    d_noise: int = 8
    k_y: int = 2
    k_a: int = 2
    k_p: int = 2
    mu_y: float = 3.0
    mu_a: float = 2.0
    mu_p: float = 2.0
    joint: list | np.ndarray | None = None
    seed: int = 0

    def validate(self) -> None:
        _check_fields(self, ("n",), lambda v: _is_int(v) and v >= 1, "an integer >= 1")
        _check_fields(self, ("d_y", "d_a", "d_p", "d_noise", "seed"),
                      lambda v: _is_int(v) and v >= 0, "an integer >= 0")
        _check_fields(self, ("k_y", "k_a", "k_p"), lambda v: _is_int(v) and v >= 2,
                      "an integer >= 2")
        _check_fields(self, ("mu_y", "mu_a", "mu_p"), lambda v: _is_real(v) and v >= 0,
                      "a finite number >= 0")
        for label in ("y", "a", "p"):
            d, k = getattr(self, f"d_{label}"), getattr(self, f"k_{label}")
            if getattr(self, f"mu_{label}") > 0 and 0 < d < k:
                raise ValueError(f"d_{label}: must be 0 or >= k_{label} = {k} when "
                                 f"mu_{label} > 0, got {d}")
        if self.dim < 1:
            raise ValueError(f"d_y + d_a + d_p + d_noise: must be >= 1, got {self.dim}")
        if self.joint is not None:
            _check_joint(self.joint, (self.k_y, self.k_a, self.k_p))

    @property
    def dim(self) -> int:
        return self.d_y + self.d_a + self.d_p + self.d_noise


@dataclass
class SplitSpec:
    """How to carve train/val/test.

    train_mode "exacerbated" first balances the task-label marginal, then
    keeps only ``undersample_factor`` of the rows in the cell where both the
    task and sensitive labels take their highest index. test_mode
    "trio-balanced" equalizes counts over every (y, y_a, y_p) cell, dropping
    surplus rows.
    """

    val_fraction: float = 0.2
    test_fraction: float = 0.2
    train_mode: str = "as-is"  # or "exacerbated"
    undersample_factor: float = 1.0
    test_mode: str = "as-is"  # or "trio-balanced"

    def validate(self) -> None:
        _check_fields(self, ("val_fraction", "test_fraction"),
                      lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)")
        if self.val_fraction + self.test_fraction >= 1.0:
            raise ValueError(f"val_fraction + test_fraction: must be < 1, got "
                             f"{self.val_fraction + self.test_fraction}")
        _check_fields(self, ("train_mode",), lambda v: v in ("as-is", "exacerbated"),
                      "'as-is' or 'exacerbated'")
        _check_fields(self, ("test_mode",), lambda v: v in ("as-is", "trio-balanced"),
                      "'as-is' or 'trio-balanced'")
        _check_fields(self, ("undersample_factor",), lambda v: _is_real(v) and 0 < v <= 1,
                      "a number in (0, 1]")


def _is_int(value) -> bool:
    """An integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite real number, not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_fields(spec, names, ok, rule: str) -> None:
    """Raise ``ValueError("<name>: must be <rule>, got <value>")`` for the first
    field of ``spec`` among ``names`` whose value fails ``ok``."""
    for name in names:
        value = getattr(spec, name)
        if not ok(value):
            raise ValueError(f"{name}: must be {rule}, got {value!r}")


def _check_joint(joint, shape: tuple[int, int, int]) -> None:
    try:
        table = np.asarray(joint)
    except ValueError:  # ragged nesting
        table = None
    if table is None or table.dtype.kind not in "iuf":
        raise ValueError(f"joint: must be a table of numbers, got {joint!r}")
    if table.shape != shape:
        raise ValueError(f"joint: shape {table.shape} != class counts {shape}")
    if not np.all(table >= 0):
        raise ValueError("joint: probabilities must be >= 0")
    total = float(table.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint: probabilities sum to {total}, expected 1")


def one_hot(labels: np.ndarray, k: int) -> Matrix:
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def class_counts(labels, k: int, name: str) -> np.ndarray:
    """Rows of each class ``[0, k)`` in ``labels``. A label outside that
    range, or a class with no row, is an error naming ``name``, which ends in
    the label's name (y, y_a or y_p; its class count is k_y, k_a or k_p)."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels < 0) | (labels >= k)):
        raise ValueError(f"{name} has labels outside [0, {k})")
    counts = np.bincount(labels, minlength=k)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        shown = (str(missing.tolist()) if missing.size <= 5 else
                 f"[{', '.join(map(str, missing[:5].tolist()))}, ...] ({missing.size} in all)")
        raise ValueError(f"{name} lacks class(es) {shown} of k_{name[-1]} = {k}")
    return counts


def sample_labels(joint: np.ndarray, n: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n i.i.d. label triples from a categorical joint table."""
    joint = np.asarray(joint, dtype=np.float64)
    if joint.ndim != 3:
        raise ValueError("joint must be a 3-D table over (y, y_a, y_p)")
    _check_joint(joint, joint.shape)
    rng = np.random.default_rng(seed)
    flat = rng.choice(joint.size, size=n, p=joint.ravel() / joint.sum())
    y, y_a, y_p = np.unravel_index(flat, joint.shape)
    return y.astype(np.int64), y_a.astype(np.int64), y_p.astype(np.int64)


def _signal_block(labels: np.ndarray, k: int, mu: float, d: int,
                  rng: np.random.Generator) -> Matrix:
    # Class c gets a mean bump of mu/sqrt(2) in dimension c, so the L2
    # distance between any two class means is exactly mu (SyntheticSpec
    # keeps d >= k when mu > 0); dims beyond the class count stay zero-mean.
    block = rng.standard_normal((labels.shape[0], d))
    bump = mu / np.sqrt(2.0)
    for c in range(min(k, d)):
        block[labels == c, c] += bump
    return block


def generate(spec: SyntheticSpec) -> LabeledDataset:
    """Sample a dataset from a SyntheticSpec (deterministic given spec.seed)."""
    spec.validate()
    joint = spec.joint
    if joint is None:
        k = (spec.k_y, spec.k_a, spec.k_p)
        joint = np.full(k, 1.0 / math.prod(k))
    seeds = np.random.SeedSequence(spec.seed).spawn(5)
    y, y_a, y_p = sample_labels(joint, spec.n, seeds[0])
    blocks = [
        _signal_block(y, spec.k_y, spec.mu_y, spec.d_y, np.random.default_rng(seeds[1])),
        _signal_block(y_a, spec.k_a, spec.mu_a, spec.d_a, np.random.default_rng(seeds[2])),
        _signal_block(y_p, spec.k_p, spec.mu_p, spec.d_p, np.random.default_rng(seeds[3])),
        np.random.default_rng(seeds[4]).standard_normal((spec.n, spec.d_noise)),
    ]
    x = np.hstack([b for b in blocks if b.shape[1] > 0])
    return LabeledDataset(x, y, y_a, y_p, spec.k_y, spec.k_a, spec.k_p)


def split_rows(split: SplitSpec, ds: LabeledDataset) -> tuple[int, int, int, np.ndarray]:
    """(test rows, validation rows, test rows per trio cell or 0, each row's (y, y_a, y_p)
    cell index in C order) of ``split``, checked, over ``ds``'s rows. Too few test rows
    (one per cell when "trio-balanced") or no validation row fails naming the fraction, a
    cell short of its test rows test_mode."""
    split.validate()
    n, shape = len(ds), (ds.k_y, ds.k_a, ds.k_p)
    cells = math.prod(shape)
    trio = split.test_mode == "trio-balanced"
    test, val = int(split.test_fraction * n), int(split.val_fraction * n)
    if test < (cells if trio else 1):
        raise ValueError(f"test_fraction: {split.test_fraction} of {n} rows yields {test} "
                         "test rows" + (f", fewer than the {cells} trio cells" if trio else ""))
    if val == 0:
        raise ValueError(f"val_fraction: {split.val_fraction} of {n} rows yields 0 "
                         "validation rows")
    per_cell = test // cells if trio else 0
    cell = np.ravel_multi_index((ds.y, ds.y_a, ds.y_p), shape)
    rows = np.bincount(cell, minlength=cells)
    short = np.flatnonzero(rows < per_cell)
    if short.size:
        y, y_a, y_p = np.unravel_index(short[0], shape)
        raise ValueError(f"test_mode: cell (y={y}, y_a={y_a}, y_p={y_p}) has {rows[short[0]]} "
                         f"rows, need {per_cell} for a trio-balanced test split")
    return test, val, per_cell, cell


def make_splits(ds: LabeledDataset, split: SplitSpec, seed) \
        -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Carve disjoint (train, val, test) index sets per the split spec."""
    rng = np.random.default_rng(seed)
    n = len(ds)
    test_target, val_target, per_cell, cell = split_rows(split, ds)

    if split.test_mode == "trio-balanced":
        test_idx = np.concatenate([rng.permutation(np.flatnonzero(cell == c))[:per_cell]
                                   for c in range(ds.k_y * ds.k_a * ds.k_p)])
    else:
        test_idx = rng.permutation(n)[:test_target]

    held = np.zeros(n, dtype=bool)
    held[test_idx] = True
    remaining = rng.permutation(np.flatnonzero(~held))
    val_idx = remaining[:val_target]
    train_idx = remaining[val_target:]

    if split.train_mode == "exacerbated":
        train_idx = _exacerbate(ds, train_idx, split.undersample_factor, rng)

    return (ds.subset(np.sort(train_idx)), ds.subset(np.sort(val_idx)),
            ds.subset(np.sort(test_idx)))


def _exacerbate(ds: LabeledDataset, idx: np.ndarray, factor: float,
                rng: np.random.Generator) -> np.ndarray:
    # Balance the task-label marginal by undersampling larger classes.
    per_class = [np.flatnonzero(ds.y[idx] == c) for c in range(ds.k_y)]
    counts = [len(p) for p in per_class]
    if min(counts) == 0:
        empty = counts.index(0)
        raise ValueError(f"cell (y={empty}) is empty; cannot balance the task label")
    m = min(counts)
    kept = np.concatenate([idx[rng.permutation(p)[:m]] for p in per_class])
    # Suppress the cell where task and sensitive labels both take their
    # highest index, keeping only `factor` of its rows.
    top = np.flatnonzero((ds.y[kept] == ds.k_y - 1) & (ds.y_a[kept] == ds.k_a - 1))
    keep_n = int(np.floor(factor * len(top)))
    dropped = rng.permutation(top)[keep_n:]
    return np.delete(kept, dropped)


# ---------------------------------------------------------------------------
# CSV interchange (also the ingestion path for externally computed features)

_LABELS = ("y", "y_a", "y_p")


def _class_counts(where: str, columns, least=(2, 2, 2)) -> tuple[int, int, int]:
    """The y, y_a and y_p class counts: one more than each column's largest label,
    and at least ``least``. A class with no row is an error starting with ``where``,
    so every CSV that loads, or that :func:`save_csv` writes, keeps all its classes."""
    if not len(columns[0]):
        raise ValueError(f"{where}no data rows")
    try:
        return tuple(len(class_counts(column, max(k, int(column.max()) + 1), name))
                     for column, k, name in zip(columns, least, _LABELS))
    except ValueError as exc:
        raise ValueError(f"{where}{exc}; a dataset CSV takes each class count from its "
                         "largest label (at least 2) and needs a row of every class") from None


def save_csv(ds: LabeledDataset, path) -> None:
    """Write ``ds`` as a CSV that :func:`load_csv` reads back with its class counts."""
    _class_counts("", (ds.y, ds.y_a, ds.y_p), (ds.k_y, ds.k_a, ds.k_p))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(ds.dim)] + list(_LABELS))
        for i in range(len(ds)):
            writer.writerow([repr(float(v)) for v in ds.x[i]]
                            + [int(ds.y[i]), int(ds.y_a[i]), int(ds.y_p[i])])


@contextmanager
def _errors_naming(path):
    """Raise a read, decode or csv error as a ValueError that starts with ``path``."""
    try:
        yield
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def load_csv(path) -> LabeledDataset:
    """A dataset CSV, its header checked, then each row's field count, labels (integers
    >= 0) and features (floats) in that order, then that every label is below the row
    count, that every feature is finite and that every class up to each label's largest
    has a row. Every error names the path, and a bad row's its line."""
    xs, labels = [], []
    with _errors_naming(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if len(header) < 4 or header[-3:] != list(_LABELS):
            raise ValueError(f"{path}: header must end with y,y_a,y_p, got {header[-3:]}")
        d = len(header) - 3
        if header[:d] != [f"x{j}" for j in range(d)]:
            raise ValueError(f"{path}: feature columns must be x0..x{d - 1}")
        for line, row in enumerate(reader, start=2):
            if len(row) != d + 3:
                raise ValueError(f"{path}:{line}: expected {d + 3} fields, got {len(row)}")
            try:
                row_labels = tuple(map(int, row[d:]))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
            for name, label in zip(_LABELS, row_labels):
                if label < 0:
                    raise ValueError(f"{path}:{line}: {name} must be >= 0, got {label}")
            try:
                xs.append([float(v) for v in row[:d]])
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
            labels.append(row_labels)
    # Classes 0..label each need a row, so a label of at least the row count never
    # loads; rejected here, before it sizes an array.
    for line, row_labels in enumerate(labels, start=2):
        for name, label in zip(_LABELS, row_labels):
            if label >= len(labels):
                raise ValueError(f"{path}:{line}: {name} is {label}, but classes 0..{label} "
                                 f"need a row each and the file has {len(labels)} rows")
    x, columns = np.array(xs), np.array(labels, dtype=np.int64).reshape(-1, 3).T
    if not np.isfinite(x).all():  # float() parses "nan" and "inf"
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"{path}:{i + 2}: x{j} must be finite, got {x[i, j]}")
    k_y, k_a, k_p = _class_counts(f"{path}: ", columns)
    return LabeledDataset(x, *columns, k_y=k_y, k_a=k_a, k_p=k_p)
