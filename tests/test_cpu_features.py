"""The cross-host contract: which artifacts stay the same bytes when numpy
runs other SIMD loops.

numpy picks its loops from the CPU's features, and some of them (``pow``,
``expm1``, ...) differ in the last bit between levels.  A run promises its
sign files, ``acf.csv``, ``lengths_hist.csv`` and ``metaorders.npy`` byte for
byte on every host, and ``theory.csv`` to about 1e-14 relative.  The check
runs each config once in this process and once in a fresh interpreter with
numpy's AVX-512 loops turned off (``NPY_DISABLE_CPU_FEATURES``), which plays
a host without them.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

import lmfsim
from lmfsim.config import ExperimentConfig
from lmfsim.runner import run_simulate

SRC = Path(lmfsim.__file__).resolve().parent.parent
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
PROMISED = ("acf.csv", "lengths_hist.csv", "metaorders.npy")


def _group(count, mass, law):
    return {"count": count, "intensity": {"rule": "equal", "mass": mass}, "law": law}


CONFIGS = {
    # ten Pareto splitters plus a noise trader, on the dense grid to lag 2000
    "pareto-dense": {
        "steps": 400_000, "seed": 1, "max_lag": 2000, "replicas": 1,
        "groups": [_group(10, 0.85, {"kind": "pareto", "alpha": 1.5}),
                   _group(1, 0.15, {"kind": "degenerate"})],
        "theory_grid": "dense", "save_signs": True,
    },
    # the README config
    "readme-exp": {
        "steps": 400_000, "seed": 11_000, "max_lag": 600, "replicas": 4,
        "groups": [_group(10, 1.0, {"kind": "exponential", "decay_length": 5.0})],
        "save_signs": True,
    },
}

RUN = """
import json, sys
from lmfsim.config import ExperimentConfig
from lmfsim.runner import run_simulate
run_simulate(ExperimentConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2])
"""


def _theory(path):
    """``theory.csv`` as (header and kind column, lags, values)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    table = np.array([r[:2] for r in rows[1:]], dtype=np.float64)
    return [rows[0]] + [r[2] for r in rows[1:]], table[:, 0], table[:, 1]


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy reports no AVX-512 (X86_V4) loops here, so "
                           "turning them off changes nothing")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_without_avx512_loops(name, tmp_path):
    config = CONFIGS[name]
    here, there = tmp_path / "here", tmp_path / "there"
    run_simulate(ExperimentConfig.from_dict(config), here)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", RUN, json.dumps(config), str(there)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    signs = sorted(p.name for p in here.glob("signs_r*.bin"))
    assert len(signs) == config["replicas"]
    for file in signs + list(PROMISED):
        assert (here / file).read_bytes() == (there / file).read_bytes(), file
    (text, lags, values), (text2, lags2, values2) = (
        _theory(d / "theory.csv") for d in (here, there))
    assert text2 == text and np.array_equal(lags2, lags)
    np.testing.assert_allclose(values2, values, rtol=1e-14, atol=0.0)
