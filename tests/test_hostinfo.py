import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairpriv import hostinfo

SRC = str(Path(__file__).resolve().parents[1] / "src")


def host_class_under(**env) -> str:
    """``host_class()`` in a fresh interpreter with ``env`` added to this one's environment."""
    code = "from fairpriv.hostinfo import host_class; print(host_class())"
    run_env = {**os.environ, **env, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code], env=run_env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_coretype_sets_the_core():
    if hostinfo.host_class().startswith("unknown/"):
        pytest.skip("numpy's wheel OpenBLAS is not loaded here")
    assert host_class_under(OPENBLAS_CORETYPE="Haswell").split("/")[0] == "Haswell"


def test_disabled_avx512_lowers_the_level():
    if hostinfo.host_class().split("/")[1] != "X86_V4":
        pytest.skip("numpy's X86_V4 loops are not enabled here")
    level = host_class_under(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert level.split("/")[1] not in ("X86_V4", "unknown")


def test_unreadable_core_is_unknown(monkeypatch):
    def no_library(*args, **kwargs):
        raise OSError("cannot load")

    monkeypatch.setattr(hostinfo.ctypes, "CDLL", no_library)
    assert hostinfo.host_class.__wrapped__().startswith("unknown/")
