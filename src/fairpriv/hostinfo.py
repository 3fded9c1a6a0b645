"""The host class: the OpenBLAS kernel and numpy SIMD level this process runs.

Both choose the bits of BLAS products and of np.exp and np.log, so two hosts
of one class give the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np


@functools.cache
def host_class() -> str:
    """This process's host class, "<OpenBLAS core>/<numpy SIMD level>", e.g. "SkylakeX/X86_V4".

    The core is the kernel set OpenBLAS picked at load ("unknown" without the
    wheel's bundled OpenBLAS); the level is the highest x86-64 dispatch target
    numpy enables (or its highest enabled target on another architecture).
    A part that cannot be read is "unknown"; this never raises.
    """
    core = "unknown"
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"):
        try:
            corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = (corename() or b"unknown").decode(errors="replace")
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2 keeps them elsewhere
        return f"{core}/unknown"
    enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    levels = [t for t in enabled if t.startswith("X86_V")] or enabled or ["baseline"]
    return f"{core}/{levels[-1]}"
