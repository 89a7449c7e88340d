"""Import cost: loading the package and its CLI pulls in only the scipy
submodules it uses. ``scipy.stats`` alone costs about as much as the rest of
the import; ``scipy.optimize`` is loaded on demand by
``benchmarks._constrained_minimum``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_skips_scipy_stats_and_optimize():
    code = ("import sys\n"
            "import evoclust.cli\n"
            "import evoclust\n"
            "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize')"
            " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == ""
