"""The model file that ``train`` writes; README's "File formats" documents it, and the
package has no reader for it.

Layout: 8 magic bytes, u32 format version, then the four networks in fixed
order (extractor, classifier, fairness adversary, privacy adversary). Each
network is a u32 layer-size count, that many u32 sizes, then per layer the
weight matrix followed by the bias row as little-endian float64.
"""

from __future__ import annotations

import struct

import numpy as np

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

