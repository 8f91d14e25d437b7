"""Decisions that do not depend on the host setup.

A fit is bit-identical only on one (CPU, numpy, BLAS) setup: another BLAS
kernel or SIMD loop moves the last bits of the costs. The indicator counts
and the classification built on them must not move. Each run is its own
subprocess, because OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES are read
once, when numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logperiodic

# The OpenBLAS core in use and the AVX512-level numpy dispatch targets this CPU runs.
_PROBE = """
import ctypes, glob, json, os
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
core = None
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "lib*openblas*")
for path in glob.glob(libs):
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                 "openblas_get_corename"):
        get = getattr(ctypes.CDLL(path), name, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            core = get().decode()
            break
targets = [t for t in __cpu_dispatch__
           if __cpu_features__.get(t) and (t.startswith("AVX512") or t == "X86_V4")]
print(json.dumps({"core": core, "avx512": targets}))
"""

# A seeded bubble (tc 10 steps past the series end), three endpoints of a
# 5-window scheme, and the daily-threshold classification of their peak.
_SCAN = """
import json
from logperiodic import (LpplsParams, SearchConfig, SynthSpec, WindowScheme, classify, generate,
                         peak_ci, scan)
c = 0.9 * 0.5 * 0.8 / 8.0
params = LpplsParams(tc=430.0, m=0.5, omega=8.0, A=8.0, B=-0.8, C1=0.6 * c, C2=0.8 * c)
series = generate(SynthSpec(params=params, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4))
points = scan(series, 399, 419, 10, WindowScheme(120, 40, 20),
              SearchConfig(max_evaluations=1200, restarts=3), base_seed=7, workers=1)
peak, _ = peak_ci(points, (399, 419))
print(json.dumps({"counts": [[p.t2, p.windows_qualified_pos, p.windows_qualified_neg]
                             for p in points],
                  "class": classify(peak, 0.05).value}))
"""


def _run(code, settings):
    src = str(Path(logperiodic.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for key in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(key, None)
    env.update(settings)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_counts_and_classification_do_not_depend_on_blas_or_simd_dispatch():
    default = _run(_PROBE, {})
    other_setup = {"OPENBLAS_CORETYPE": "Haswell"}
    if default["avx512"]:
        other_setup["NPY_DISABLE_CPU_FEATURES"] = " ".join(default["avx512"])
    other = _run(_PROBE, other_setup)
    if other == default:
        pytest.skip("neither OPENBLAS_CORETYPE=Haswell nor disabling the AVX512 targets "
                    f"changes the dispatch on this host ({default})")
    results = [_run(_SCAN, settings) for settings in ({}, other_setup)]
    assert results[0]["counts"][-1][1] > 0  # the scan qualifies windows, so counts can move
    assert results[0] == results[1]
