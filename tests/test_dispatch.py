"""Output bytes hold per numpy build and SIMD dispatch path; decisions are portable.

numpy picks its SIMD loops at run time, and ``NPY_DISABLE_CPU_FEATURES``
narrows that pick for one process.  A heat roundtrip, a span roundtrip and
a noise sweep run through the CLI in a child process with every active
dispatch target disabled.  Their exit codes and every decision or config
column of ``table.csv`` must match this process's run, and each float
column must agree within the tolerance stated for it below: the floats'
last bits belong to the dispatch path.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynsamp
from dynsamp import cli

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:                 # numpy < 2 keeps it under numpy.core
    from numpy.core import _multiarray_umath as umath

ACTIVE = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]

CONFIGS = {
    "roundtrip": {"filter": {"kind": "heat", "L": 560, "t": 0.5},
                  "m": 5, "n": 7, "omega": [1, 2], "L": 560, "seed": 11},
    "sis_roundtrip": {"generator": {"kind": "bspline", "order": 3},
                      "line_filter": {"kind": "gaussian", "alpha": 2.0},
                      "m": 3, "n": 0, "L": 72, "seed": 5},
    "noise_sweep": {"filter": {"kind": "raised_cosine", "L": 72, "p": 1.0},
                    "m": 3, "n": 3, "omega": [1], "L": 72, "grid": 720,
                    "sigmas": [1e-4, 1e-3, 1e-2], "trials": 200, "seed": 42},
}
# (rtol, atol) per float column.  rel_error is rounding noise for the heat
# roundtrip (about 3e-13, which moved 0.2% on AVX-512 against AVX2) and the
# P-aliasing floor for the span one (1.6e-7, which moved 1e-8 relative); the
# noise sweep's Monte Carlo means, bounds and ratios are real values, which
# moved up to 2e-14 relative.
FLOAT_TOL = {"rel_error": (1e-6, 1e-12), "mean_error": (1e-9, 0.0),
             "bound": (1e-9, 0.0), "ratio": (1e-9, 0.0)}

# The child runs each CLI argument list once the targets are off, and prints
# null when this numpy did not honour the variable.
CHILD = f"""
import json, sys
import {umath.__name__} as umath
from dynsamp import cli
if any(umath.__cpu_features__[t] for t in sys.argv[1].split(",")):
    print("null")
else:
    print(json.dumps([cli.main(args) for args in json.loads(sys.argv[2])]))
"""


def cli_args(tmp_path, side):
    """One argument list per mode, each writing to tmp_path / side / mode."""
    args = []
    for mode, config in CONFIGS.items():
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(config))
        args.append([mode, "--config", str(path), "--out", str(tmp_path / side / mode)])
    return args


def table(path):
    with open(path / "table.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.skipif(not ACTIVE, reason="the numpy build dispatches no SIMD target here")
def test_decisions_survive_a_narrowed_dispatch(tmp_path):
    expected = [cli.main(args) for args in cli_args(tmp_path, "default")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": ",".join(ACTIVE),
           "PYTHONPATH": os.pathsep.join([str(Path(dynsamp.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", CHILD, ",".join(ACTIVE),
                           json.dumps(cli_args(tmp_path, "narrow"))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout)
    if codes is None:
        pytest.skip("this numpy keeps its dispatch targets under NPY_DISABLE_CPU_FEATURES")
    assert codes == expected == [0, 0, 0]
    for mode in CONFIGS:
        default, narrow = table(tmp_path / "default" / mode), table(tmp_path / "narrow" / mode)
        assert [list(row) for row in default] == [list(row) for row in narrow]
        for ours, theirs in zip(default, narrow):
            for column, value in ours.items():
                if column in FLOAT_TOL:
                    rtol, atol = FLOAT_TOL[column]
                    assert float(theirs[column]) == pytest.approx(float(value), rel=rtol,
                                                                  abs=atol), column
                else:
                    assert theirs[column] == value, column
