"""Package-level properties of ``import tthjb``."""

import os
import subprocess
import sys


def test_import_does_not_load_scipy_linalg():
    # scipy.linalg raises peak memory and start-up time of every command;
    # the package uses numpy.linalg and scipy.special only.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tthjb; print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
