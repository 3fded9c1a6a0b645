import os
from pathlib import Path

import numpy as np
import pytest

from fairpriv.cli.config import ExperimentConfig, mild_correlation_joint
from fairpriv.data import SplitSpec, SyntheticSpec, make_splits
from fairpriv.hostinfo import host_class


def reference_config() -> ExperimentConfig:
    """The synthetic reference setup used by the acceptance suite.

    Pinned explicitly rather than via ``ExperimentConfig()``'s defaults so the
    acceptance tests do not drift with library defaults.
    """
    return ExperimentConfig(
        data=SyntheticSpec(n=8000, d_y=4, d_a=4, d_p=4, d_noise=8,
                           mu_y=3.0, mu_a=2.0, mu_p=2.0,
                           joint=mild_correlation_joint(-0.15, 0.10), seed=0),
        split=SplitSpec(val_fraction=0.2, test_fraction=0.2,
                        train_mode="exacerbated", undersample_factor=0.25,
                        test_mode="trio-balanced"),
        utility_metric="tpr",
    )


@pytest.fixture(scope="session")
def reference_runs():
    """Trained reference runs shared across acceptance criteria.

    Keys: (alpha, beta, seed) -> MetricTriple for the three intervention
    points at seeds 0..2.
    """
    from fairpriv.cli import pipeline

    cfg = reference_config()
    ds = pipeline.load_dataset(cfg)
    out = {}
    for seed in (0, 1, 2):
        splits = make_splits(ds, cfg.split, seed)
        for alpha, beta in [(0.0, 0.0), (0.0, 10.0), (10.0, 0.0)]:
            record, _ = pipeline.run_single(cfg, alpha, beta, seed, splits=splits)
            out[(alpha, beta, seed)] = record.triple
    return out


def median_of(runs, alpha, beta, field):
    vals = [getattr(runs[(alpha, beta, s)], field) for s in (0, 1, 2)]
    return float(np.median(vals))


NETS = ("extractor", "classifier", "fairness_adv", "privacy_adv")
MAIN_NETS = NETS[:2]


def bundle_params(bundle, nets=NETS) -> list:
    """The params of ``bundle``'s nets named in ``nets``, net by net in that order."""
    return [p for name in nets for p in getattr(bundle, name).params()]


# The host class that recorded every pinned byte: the TestGoldenBytes digests,
# the REPEATING cycle problems and perfbench/reference/.
PINNING_HOST = "SkylakeX/X86_V4"


def host_note(*detail) -> str:
    """A pinned-bytes failure message: ``detail``, led by both host classes when they differ."""
    host = host_class()
    lead = [] if host == PINNING_HOST else [f"pinned on {PINNING_HOST}, running on {host}"]
    return "; ".join(lead + [str(d) for d in detail])


SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """This environment with the package's sources first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
