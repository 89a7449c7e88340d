"""Import cost: each subcommand loads only the scipy subpackages it calls.

The package root re-exports nothing, and no module imports scipy at its top:
each scipy import sits in the function that calls it. So ``import
evoclust.cli`` loads no scipy module, and a subcommand loads only what its
run reaches: ``scipy.special`` for the normal tail of a signed-rank test over
more than ``stats.EXACT_LIMIT`` pairs and ``scipy.spatial`` for the
clustering distances; ``fca-reduce`` loads none, since the lattice's order,
covers and width are plain numpy. ``scipy.stats`` is never loaded, and
``scipy.optimize`` only by ``benchmarks._constrained_minimum``, which a
``bench-opt --range`` run calls when a function's known minimum lies outside
the range. Each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evoclust.datasets import save_points
from evoclust.fca import FormalContext, write_cxt
from evoclust.stats import EXACT_LIMIT

SRC = Path(__file__).resolve().parent.parent / "src"

# runs one CLI call, then prints the scipy modules it left loaded
RUN = ("import json, sys\n"
       "from evoclust import cli\n"
       "code = cli.main(sys.argv[1:])\n"
       "print(json.dumps(sorted(m for m in sys.modules\n"
       "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
       "sys.exit(code)\n")


def _python(code, *argv):
    """Standard output of ``code`` run in a fresh interpreter on these sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


def _scipy_loaded(*argv):
    return json.loads(_python(RUN, *argv).strip().splitlines()[-1])


def _has(modules, package):
    return any(m == package or m.startswith(package + ".") for m in modules)


def _bench_json(path, n_pairs):
    """A bench-opt result with n_pairs paired runs of bsa and de on F14, every
    difference in iterations nonzero."""
    def runs(step):
        return [{"seed": i, "succeeded": True, "iterations_to_success": 10 + step * (i + 1),
                 "best_value": 0.0, "run_time_s": 0.0} for i in range(n_pairs)]
    detail = [{"function": "F14", "algo": algo, "dim": 2, "reference_min": 0.0,
               "runs": runs(step)} for algo, step in (("bsa", 1), ("de", 2))]
    path.write_text(json.dumps({"detail": detail}))
    return path


def test_package_import_skips_scipy_stats_and_optimize():
    """The package and its CLI import no scipy module at all."""
    code = ("import sys\n"
            "import evoclust, evoclust.cli\n"
            "print(' '.join(m for m in sys.modules if m.startswith('scipy')))\n")
    assert _python(code).strip() == ""


def test_clusterer_import_skips_the_optimizer_toolkit():
    """ECA* takes its boundary redraw from ``rng``, not from ``optimizers``."""
    code = ("import sys\n"
            "import evoclust.ecastar\n"
            "print(' '.join(m for m in ('evoclust.optimizers', 'evoclust.benchmarks')\n"
            "               if m in sys.modules))\n")
    assert _python(code).strip() == ""


def test_bench_opt_loads_no_scipy():
    assert _scipy_loaded("bench-opt", "--algo", "bsa,de", "--fn", "F14",
                         "--runs", "2", "--iters", "5") == []


def test_bench_opt_range_may_load_only_scipy_optimize():
    # Schwefel's minimum lies outside R1, so the range's minimum is searched
    loaded = _scipy_loaded("bench-opt", "--fn", "F16", "--range", "R1",
                           "--runs", "1", "--iters", "2")
    assert _has(loaded, "scipy.optimize")
    assert not _has(loaded, "scipy.stats")


# 25, the earlier limit, stays as a size below the boundary
@pytest.mark.parametrize("n_pairs", sorted({25, EXACT_LIMIT, EXACT_LIMIT + 5}))
def test_report_loads_scipy_special_only_past_the_exact_limit(tmp_path, n_pairs):
    loaded = _scipy_loaded("report", "--in", str(_bench_json(tmp_path / "b.json", n_pairs)),
                           "--compare", "bsa,de")
    if n_pairs <= EXACT_LIMIT:
        assert loaded == []
    else:
        assert _has(loaded, "scipy.special")
        for package in ("scipy.spatial", "scipy.sparse", "scipy.stats", "scipy.optimize"):
            assert not _has(loaded, package), package


def test_fca_reduce_loads_no_scipy(tmp_path):
    ctx = FormalContext(["cat", "dog", "carp"], ["fur", "pelt", "swims"],
                        [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    write_cxt(ctx, tmp_path / "c.cxt")
    (tmp_path / "t.tsv").write_text("syn\tfur\tpelt\ncat\tanimal\ndog\tanimal\n")
    loaded = _scipy_loaded("fca-reduce", "--ctx", str(tmp_path / "c.cxt"),
                           "--tax", str(tmp_path / "t.tsv"))
    assert loaded == []


def test_cluster_loads_neither_stats_nor_optimize(tmp_path):
    g = np.random.Generator(np.random.PCG64(0))
    points = np.concatenate([g.normal(size=(20, 2)), g.normal(size=(20, 2)) + 8.0])
    save_points(tmp_path / "p.txt", points)
    for algo in (["--algo", "eca-star"], ["--algo", "km++", "--k", "2"]):
        loaded = _scipy_loaded("cluster", "--data", str(tmp_path / "p.txt"),
                               "--runs", "1", *algo)
        for package in ("scipy.stats", "scipy.optimize"):
            assert not _has(loaded, package), (algo, package)
