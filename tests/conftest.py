import contextlib
import os
from pathlib import Path

import numpy as np
import pytest

from fairpriv import learncore
from fairpriv.cli.config import DEFAULT_JOINT, ExperimentConfig
from fairpriv.data import SplitSpec, SyntheticSpec
from fairpriv.hostinfo import host_class
from fairpriv.learncore import Mlp, ShapeError, as_matrix


def reference_config() -> ExperimentConfig:
    """The synthetic reference setup used by the acceptance suite.

    Pinned explicitly rather than via ``ExperimentConfig()``'s defaults so the
    acceptance tests do not drift with library defaults.
    """
    return ExperimentConfig(
        data=SyntheticSpec(n=8000, d_y=4, d_a=4, d_p=4, d_noise=8,
                           mu_y=3.0, mu_a=2.0, mu_p=2.0,
                           joint=np.array(DEFAULT_JOINT), seed=0),
        split=SplitSpec(val_fraction=0.2, test_fraction=0.2,
                        train_mode="exacerbated", undersample_factor=0.25,
                        test_mode="trio-balanced"),
        utility_metric="tpr",
    )


@pytest.fixture(scope="session")
def reference_runs():
    """Trained reference runs shared across acceptance criteria.

    Keys: (alpha, beta, seed) -> RunRecord for the three intervention
    points at seeds 0..2.
    """
    from fairpriv.cli import pipeline

    cfg = reference_config()
    out = {}
    for seed in (0, 1, 2):
        for alpha, beta in [(0.0, 0.0), (0.0, 10.0), (10.0, 0.0)]:
            record, _ = pipeline.run_single(cfg, alpha, beta, seed)
            out[(alpha, beta, seed)] = record
    return out


def median_of(runs, alpha, beta, field):
    vals = [getattr(runs[(alpha, beta, s)], field) for s in (0, 1, 2)]
    return float(np.median(vals))


NETS = ("extractor", "classifier", "fairness_adv", "privacy_adv")
MAIN_NETS = NETS[:2]


def bundle_params(bundle, nets=NETS) -> list:
    """The params of ``bundle``'s nets named in ``nets``, net by net in that order."""
    return [p for name in nets for p in getattr(bundle, name).params()]


def training_nets(state) -> tuple:
    """A TrainState's extractor, classifier and stacked adversaries as Mlps over
    its live ``net_params`` views into the Adam buffers."""
    return tuple(Mlp(p[0::2], p[1::2]) for p in state.main.net_params + state.adv.net_params)


@contextlib.contextmanager
def adversary_free():
    """Adversary-free ERM (empirical risk minimization: training with no adversary)
    inside the block, or as a decorator around a call.

    ADV passes compute no gradient: ``learncore.backward`` returns at once
    when ``main`` is false. The adversaries' gradient buffer then stays +0, so
    their Adam steps move no byte of their params, m or v, and every MAIN
    step sees the adversaries as initialized.
    """
    real = learncore.backward

    def backward(step, dlogits, main):
        if main:
            real(step, dlogits, main)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learncore, "backward", backward)
        yield


# The host class that recorded every pinned byte: the TestGoldenBytes digests,
# the REPEATING cycle problems and perfbench/reference/. Each test that compares
# them reports through host_note and carries the pinned_bytes marker.
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


# Mlp.forward and Mlp.apply as they were before learncore.forward became the
# package's one forward loop, kept verbatim (as functions of the net) as the
# oracle for that loop, for Mlp.apply and for the validation pass.
def oracle_mlp_forward(self, x):
    """Activations [x, h_1, ..., output], hidden ones post-ReLU."""
    if x.shape[-1] != self.weights[0].shape[-2]:
        raise ShapeError(f"input width {x.shape[-1]} != layer input width "
                         f"{self.weights[0].shape[-2]}")
    acts = [x]
    h = x
    last = len(self.weights) - 1
    for i, (w, b) in enumerate(zip(self.weights, self.biases)):
        h = h @ w + b
        if i != last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return acts


def oracle_mlp_apply(self, x):
    """The output of a forward pass on a raw matrix."""
    return oracle_mlp_forward(self, as_matrix(x))[-1]
