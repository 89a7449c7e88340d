"""Tests of the benchmark itself: span arithmetic, metric names, output
checks, and a smoke run of every workload.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from evoclust import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _span(name, start, end, parent=None, value=None):
    return spans.Span(name, start, end, parent, value)


def test_self_time_subtracts_children_once():
    root = _span("r", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)  # overlaps a: 1..6 is covered once
    grandchild = _span("g", 1.5, 2.0, a)
    late = _span("l", 9.0, 12.0, root)  # only 9..10 lies inside root
    own = spans.self_times([root, a, b, grandchild, late])
    assert own[id(root)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[id(a)] == pytest.approx(3.0 - 0.5)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(grandchild)] == pytest.approx(0.5)


def test_layer_metrics_attribute_spans_to_their_run():
    main = _span("cli.main", 0.0, 10.0, value=0)
    run = _span("optimizers.run_optimizer", 1.0, 9.0, main, ("abc", 4))
    evals = [_span("benchmarks.evaluate_batch", 1.0 + i, 1.5 + i, run, 1) for i in range(6)]
    outside = _span("benchmarks.evaluate_batch", 9.5, 9.6, main, 30)
    m = spans.layer_metrics([main, run, *evals, outside])
    assert m["optimizers.abc.iters"] == 4
    assert m["optimizers.abc.evals_per_iter"] == pytest.approx(6 / 4)
    assert m["optimizers.abc.self_s"] == pytest.approx(8.0 - 3.0)
    assert m["benchmarks.evaluate_batch.rows_per_call"] == pytest.approx(36 / 7)
    assert m["cli.main.calls"] == 1 and m["cli.main.failed"] == 0


def test_metric_names_are_well_formed_and_declared():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    emitted = (set(spans.layer_metrics([])) | set(workloads.PROTOCOL)
               | {"trace.overhead_s", "suite_s", "machine.cal_s", "setup.wall_s"})
    assert emitted == set(PER_LAYER)
    assert "setup_s" in END_TO_END


def test_manifest_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(MANIFEST["workloads"]) == set(workloads.WORKLOADS)
    assert MANIFEST["default_seed"] != MANIFEST["heldout_seed"]
    for row in MANIFEST["predictions"]:
        for metric in row["metrics"]:
            expanded = [metric.replace("<algo>", a) for a in spans.ALGOS]
            assert all(m in PER_LAYER for m in expanded), metric


def _brute_signed_rank_p(x, y):
    d = [a - b for a, b in zip(x, y) if a != b]
    mags = sorted(abs(v) for v in d)
    rank = {m: sum(i + 1 for i, v in enumerate(mags) if v == m) / mags.count(m) for m in mags}
    w = sum(rank[abs(v)] for v in d if v > 0)
    sums = [sum(rank[abs(v)] for v, s in zip(d, signs) if s)
            for signs in itertools.product((0, 1), repeat=len(d))]
    return min(1.0, 2 * min(sum(s <= w for s in sums), sum(s >= w for s in sums)) / len(sums))


@pytest.mark.parametrize("x, y", [
    ([3, 5, 9, 2, 7], [1, 5, 4, 6, 2]),
    ([1, 2, 3, 4, 5, 6], [2, 3, 4, 5, 6, 7]),
    ([10, 20, 20, 5, 8, 1, 4], [12, 18, 22, 5, 9, 3, 4]),
])
def test_exact_p_matches_enumeration(x, y):
    assert workloads.exact_signed_rank_p(x, y) == pytest.approx(_brute_signed_rank_p(x, y))


def test_bench_check_flags_a_bad_row(tmp_path, capsys):
    call = workloads.Call("bench", [], ["bench.json"], dict(runs=3, iters=15, tol=1e-6))
    assert cli.main(["bench-opt", "--algo", "bsa,de", "--fn", "F14", "--runs", "3",
                     "--iters", "15", "--seed", "2", "--out", str(tmp_path / "bench.csv")]) == 0
    capsys.readouterr()
    problems, facts = workloads.check(call, tmp_path)
    assert problems == [] and facts["runs"] == 6
    data = json.loads((tmp_path / "bench.json").read_text())
    data["stats"][0]["n_failure"] += 1
    data["pairwise"][0]["p_value"] = 1.5
    (tmp_path / "bench.json").write_text(json.dumps(data))
    problems, _ = workloads.check(call, tmp_path)
    assert len(problems) >= 2


def test_fca_check_flags_a_grown_axis(tmp_path):
    inc = workloads.planted_context(workloads._sub_rng(0, 2, 0), 6, 5)
    workloads.write_cxt(tmp_path / "red.cxt", inc, "red")
    report = {"reduced_shape": [6, 5], "quality": 0.9,
              "trace": [[1, "object", "obj0", "obj1", "obj0", "similar"]]}
    (tmp_path / "rep.json").write_text(json.dumps(report))
    call = workloads.Call("fca", [], ["rep.json", "red.cxt"], dict(floor=0.8, shape=(6, 5)))
    problems, facts = workloads.check(call, tmp_path)
    assert any("object" in p for p in problems) and facts["held"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_layers():
    done = _run(ROOT, "--workload", "opt-protocol", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == PER_LAYER
    assert result["correct"] and result["attempted"] == 4  # untraced and traced pass
    assert metrics["optimizers.abc.iters"] > 0 and metrics["fca.build_lattice.calls"] == 0
    assert metrics["cli.main.calls"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", "opt-protocol", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
