"""Adversarial training and tradeoff analysis for fairness and attribute privacy.

Train a classifier alongside two conditional adversaries (one per attribute),
sweep the adversary strengths over a grid, and evaluate every model on task
utility, group fairness gap, and resistance to a linear attribute-inference
attack.
"""

import os as _os

# BLAS runs single-threaded unless the user chose a thread count: the matrices
# are at most a few thousand rows by tens of columns, and each forked sweep
# worker would otherwise start its own full OpenBLAS thread pool. This has to
# run before anything imports numpy.
if not any(name in _os.environ
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .data import SplitSpec, SyntheticSpec, generate, make_splits  # noqa: E402
from .evaluation import attack_accuracy, fit_attacker  # noqa: E402
from .training import TrainConfig, train  # noqa: E402

__version__ = "0.1.0"
