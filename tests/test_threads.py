"""Importing fairpriv pins BLAS to one thread unless the user chose a count."""

import json
import os
import subprocess
import sys

import pytest

from conftest import src_env

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import json, os
import fairpriv
import numpy as np
a = np.random.default_rng(0).standard_normal((300, 300))
a @ a
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "env": {k: os.environ.get(k) for k in %r}}))
""" % (THREAD_VARS,)


def probe(**env_vars):
    env = {k: v for k, v in src_env().items() if k not in THREAD_VARS}
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_pins_one_blas_thread():
    result = probe()
    assert result["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert result["threads"] == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_user_thread_count_left_alone():
    result = probe(OMP_NUM_THREADS="2")
    assert result["env"] == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2",
                             "MKL_NUM_THREADS": None}
