"""Self-describing binary persistence for trained model bundles.

Layout: 8 magic bytes, u32 format version, then the four networks in fixed
order (extractor, classifier, fairness adversary, privacy adversary). Each
network is a u32 layer-size count, that many u32 sizes, then per layer the
weight matrix followed by the bias row as little-endian float64.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..learncore import Mlp
from ..training import ModelBundle

MAGIC = b"FPRVBNDL"
VERSION = 1


def save_bundle(bundle: ModelBundle, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for net in (bundle.extractor, bundle.classifier,
                    bundle.fairness_adv, bundle.privacy_adv):
            sizes = net.layer_sizes
            fh.write(struct.pack("<I", len(sizes)))
            fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
            for w, b in zip(net.weights, net.biases):
                fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    """``n`` bytes; a count past the end of the file fails before any read."""
    buf = fh.read(n) if n <= os.fstat(fh.fileno()).st_size - fh.tell() else b""
    if len(buf) != n:
        raise ValueError(f"truncated model file while reading {what}")
    return buf


def _read_net(fh) -> Mlp:
    (n_sizes,) = struct.unpack("<I", _read_exact(fh, 4, "layer count"))
    if n_sizes < 2:
        raise ValueError(f"model file declares {n_sizes} layer sizes, need >= 2")
    sizes = struct.unpack(f"<{n_sizes}I", _read_exact(fh, 4 * n_sizes, "layer sizes"))
    if 0 in sizes:
        raise ValueError(f"model file declares a layer size of 0: {list(sizes)}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        wbuf = _read_exact(fh, 8 * fan_in * fan_out, "weights")
        bbuf = _read_exact(fh, 8 * fan_out, "biases")
        weights.append(np.frombuffer(wbuf, dtype="<f8").reshape(fan_in, fan_out).copy())
        biases.append(np.frombuffer(bbuf, dtype="<f8").reshape(1, fan_out).copy())
    return Mlp(weights, biases)


def load_bundle(path) -> ModelBundle:
    """The bundle in ``path``; every error in its contents starts with ``path``."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise ValueError(f"not a model bundle (bad magic {magic!r})")
            (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
            if version != VERSION:
                raise ValueError(f"unsupported format version {version}")
            nets = [_read_net(fh) for _ in range(4)]
            if fh.read(1):
                raise ValueError("trailing bytes after bundle")
        return ModelBundle(*nets)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
