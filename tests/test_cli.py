"""End-to-end command-line runs, in process via main(argv)."""

import dataclasses
import json
import os
import threading
import time
import warnings

import numpy as np
import pytest

from evoclust import benchmarks, cli, optimizers, reports
from evoclust.datasets import gaussian_blobs, save_points
from evoclust.ecastar import EcaParams
from evoclust.fca import FormalContext, build_lattice, read_cxt, write_cxt
from evoclust.optimizers import ALGORITHMS, OptimizerConfig
from evoclust.reducer import ReduceParams
from evoclust.reports import scrub_timing
from evoclust.rng import RngStream
from evoclust.stats import EXACT_LIMIT


@pytest.fixture
def blob_file(tmp_path):
    rng = RngStream(2)
    ds = gaussian_blobs(rng, centers=[(0, 0), (9, 9)], spread=0.3,
                        points_per_cluster=30)
    data = tmp_path / "blobs.txt"
    save_points(data, ds.points)
    gt = tmp_path / "gt.txt"
    save_points(gt, ds.true_centroids)
    return data, gt


def _err(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err.strip().splitlines()[-1])


def test_bench_list(capsys):
    assert cli.main(["bench-opt", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "id,name,low,up,dimension_rule,global_min,hardness_pct"
    assert len(out) == 17
    assert any(line.startswith("F14,") for line in out)


def test_bench_list_human_prints_the_catalog(capsys):
    assert cli.main(["bench-opt", "--list", "--human"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 17
    assert any(line.startswith("F14,") and "E+" in line for line in out)


@pytest.mark.parametrize("extra,named", [
    (["--pop", "0"], "--pop"),
    (["--fn", "F99"], "--fn"),
    (["--human", "--seed", "3", "--algo", "bsa"], "--algo, --seed"),
    (["--out", "x.csv", "--iters", "5", "--dim", "2", "--range", "R1"],
     "--dim, --iters, --out, --range"),
    (["--runs", "2", "--tol", "1e-3"], "--runs, --tol")])
def test_bench_list_rejects_every_other_flag(tmp_path, monkeypatch, capsys, extra, named):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["bench-opt", "--list", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "usage" and err["message"].endswith("got " + named)
    assert list(tmp_path.iterdir()) == []


def test_bench_run_writes_reports(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench-opt", "--algo", "bsa,de", "--fn", "F14",
                   "--dim", "2", "--runs", "2", "--iters", "60",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "F14 bsa:" in stdout and "F14 de:" in stdout
    for name in ("bench.csv", "bench_pairwise.csv", "bench_ratio.csv",
                 "bench.json"):
        assert (tmp_path / name).exists(), name
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["config"]["functions"] == ["F14"]
    assert {r["algo"] for r in payload["stats"]} == {"bsa", "de"}
    assert payload["pairwise"][0]["algo_a"] == "bsa"
    assert len(payload["detail"][0]["runs"]) == 2
    header = (tmp_path / "bench.csv").read_text().splitlines()[0]
    assert header.startswith("function,name,algo,dim,reference_min")


def test_bench_repeated_algorithms_run_once(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench-opt", "--algo", "bsa,de,BSA,bsa", "--fn", "F14,F14",
                     "--runs", "2", "--iters", "20", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["config"]["algos"] == ["bsa", "de"]
    assert [r["algo"] for r in payload["stats"]] == ["bsa", "de"]
    assert [(r["algo_a"], r["algo_b"]) for r in payload["pairwise"]] == [("bsa", "de")]
    assert (cli.main(["bench-opt", "--algo", "all,abc", "--fn", "F14", "--runs", "1",
                      "--iters", "5", "--out", str(out)]) == 0)
    capsys.readouterr()
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["config"]["algos"] == ["bsa", "de", "pso", "abc", "ff"]


@pytest.mark.parametrize("flag", ["--algo", "--fn"])
def test_bench_empty_list_exits_1(tmp_path, capsys, flag):
    out = tmp_path / "bench.csv"
    argv = ["bench-opt", "--runs", "1", "--iters", "5", "--out", str(out), flag, ","]
    assert cli.main(argv) == 1
    err = _err(capsys)
    assert err["error"] == "ValueError"
    assert "requested" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_bench_unknown_algorithm_exits_1_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("evoclust.reports.run_repetitions",
                        lambda *a, **k: pytest.fail("ran before the algorithm check"))
    argv = ["bench-opt", "--algo", "bsa,xyz", "--out", str(tmp_path / "bench.csv")]
    assert cli.main(argv) == 1
    err = _err(capsys)
    assert err["error"] == "ValueError" and "'xyz'" in err["message"]


@pytest.fixture
def bench_json(tmp_path, capsys):
    """A 3-run bsa-vs-de bench-opt JSON on F14."""
    assert cli.main(["bench-opt", "--algo", "bsa,de", "--fn", "F14", "--runs", "3",
                     "--iters", "80", "--seed", "1", "--out", str(tmp_path / "b.csv")]) == 0
    capsys.readouterr()
    return tmp_path / "b.json"


@pytest.mark.parametrize("command", ["bench-opt", "cluster", "report"])
def test_an_out_that_is_its_own_json_path_is_refused_before_any_run(
        blob_file, bench_json, tmp_path, capsys, monkeypatch, command):
    """The JSON lands at ``--out`` with the suffix .json; an ``--out`` that
    ends in .json is that path itself, the main CSV's, and is refused before
    anything runs or is written."""
    for name in ("run_repetitions", "load_dataset"):
        monkeypatch.setattr(f"evoclust.reports.{name}",
                            lambda *a, **k: pytest.fail("ran before the --out check"))
    data, _ = blob_file
    argv = {"bench-opt": ["bench-opt", "--algo", "bsa", "--fn", "F14", "--runs", "2"],
            "cluster": ["cluster", "--algo", "km", "--k", "2", "--data", str(data)],
            "report": ["report", "--in", str(bench_json), "--compare", "bsa,de"]}[command]
    assert cli.main(argv + ["--out", str(tmp_path / "out" / "r.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ValueError"
    assert not (tmp_path / "out").exists()


def test_report_compares_from_bench_json(bench_json, tmp_path, capsys):
    rc = cli.main(["report", "--in", str(bench_json),
                   "--compare", "bsa,de", "--metric", "value",
                   "--out", str(tmp_path / "cmp.csv")])
    assert rc == 0
    assert "F14: winner" in capsys.readouterr().out
    cmp_payload = json.loads((tmp_path / "cmp.json").read_text())
    row = cmp_payload["comparison"][0]
    assert row["n_pairs"] == 3
    assert row["exact"] is True
    assert row["winner"] in ("bsa", "de", "tie")
    header = (tmp_path / "cmp.csv").read_text().splitlines()[0].split(",")
    assert header[header.index("p_value") + 1] == "exact"


# 25 and 26 straddle the earlier limit of 25 and now both sit on the exact path
@pytest.mark.parametrize("n_pairs", sorted({25, 26, EXACT_LIMIT, EXACT_LIMIT + 1}))
def test_report_says_whether_its_p_is_exact(tmp_path, capsys, n_pairs):
    # every difference is nonzero, so the exact enumeration ends at the limit
    def runs(step):
        return [{"succeeded": True, "iterations_to_success": 10 + step * (i + 1),
                 "best_value": 0.0} for i in range(n_pairs)]
    never = [{"succeeded": False, "iterations_to_success": None, "best_value": 0.0}]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"detail": [
        {"function": "F1", "algo": "bsa", "runs": runs(1)},
        {"function": "F1", "algo": "de", "runs": runs(2)},
        {"function": "F2", "algo": "bsa", "runs": never},
        {"function": "F2", "algo": "de", "runs": never}]}))
    assert cli.main(["report", "--in", str(path), "--compare", "bsa,de",
                     "--out", str(tmp_path / "cmp.csv")]) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "cmp.json").read_text())["comparison"]
    assert rows[0]["exact"] is (n_pairs <= EXACT_LIMIT)
    assert rows[1]["winner"] == "NC" and rows[1]["exact"] is None
    csv_rows = [line.split(",") for line in
                (tmp_path / "cmp.csv").read_text().splitlines()[1:]]
    assert csv_rows[0][7] == str(n_pairs <= EXACT_LIMIT)
    assert csv_rows[1][7] == ""


@pytest.mark.parametrize("alpha", ["7", "nan", "0", "1", "-0.5"])
def test_report_rejects_alpha_outside_unit_interval(bench_json, tmp_path, capsys, alpha):
    rc = cli.main(["report", "--in", str(bench_json), "--compare", "bsa,de",
                   "--metric", "value", "--alpha", alpha,
                   "--out", str(tmp_path / "cmp.csv")])
    assert rc == 1
    err = _err(capsys)
    assert err["error"] == "ValueError" and "alpha must lie in (0, 1)" in err["message"]
    assert not (tmp_path / "cmp.json").exists()


@pytest.mark.parametrize("pair,named", [("bsa,bsa", "'bsa' twice"),
                                        ("DE,de", "'de' twice"),
                                        ("bsa,pso", "no runs of 'pso'"),
                                        ("ff,abc", "no runs of 'ff', 'abc'")])
def test_report_rejects_a_pair_the_input_cannot_compare(bench_json, tmp_path, capsys,
                                                        pair, named):
    rc = cli.main(["report", "--in", str(bench_json), "--compare", pair,
                   "--out", str(tmp_path / "cmp.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and named in err["message"]
    assert not (tmp_path / "cmp.json").exists()


@pytest.mark.parametrize("text", ["[]", '{"detail": [1, 2]}', '{"detail": "x"}'])
def test_report_rejects_json_that_is_not_a_bench_result(tmp_path, capsys, text):
    path = tmp_path / "odd.json"
    path.write_text(text)
    assert cli.main(["report", "--in", str(path), "--compare", "bsa,de"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert str(path) in err["message"] and "not a bench-opt result" in err["message"]


@pytest.mark.parametrize("detail,named", [
    ([{"function": "F1", "algo": "bsa", "runs": 5},
      {"function": "F1", "algo": "de", "runs": 5}], "detail block 0 (F1, bsa)"),
    ([{"algo": "bsa", "runs": []}], "detail block 0 has no string 'function'"),
    ([{"function": "F1", "algo": "bsa", "runs": []},
      {"function": "F1", "runs": []}], "detail block 1 has no string 'algo'"),
    ([{"function": "F1", "algo": "bsa", "runs": [{"succeeded": True}]}],
     "'succeeded' and a number under 'iterations_to_success'"),
    ([{"function": "F1", "algo": "bsa", "runs": [{"iterations_to_success": 3}]}],
     "'succeeded' and a number under 'iterations_to_success'"),
    ([{"function": "F1", "algo": "bsa",
       "runs": [{"succeeded": True, "iterations_to_success": None}]}],
     "'iterations_to_success'"),
])
def test_report_rejects_malformed_detail_blocks(tmp_path, capsys, detail, named):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"detail": detail}))
    assert cli.main(["report", "--in", str(path), "--compare", "bsa,de"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert str(path) in err["message"] and named in err["message"]


def test_report_checks_only_the_keys_its_metric_reads(tmp_path, capsys):
    # a failed run needs no iteration count, and --metric value reads only
    # best_value
    runs = [{"succeeded": False, "iterations_to_success": None, "best_value": 1.0},
            {"succeeded": True, "iterations_to_success": 4, "best_value": 0.5}]
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"detail": [
        {"function": "F1", "algo": "bsa", "runs": runs},
        {"function": "F1", "algo": "de", "runs": runs}]}))
    assert cli.main(["report", "--in", str(path), "--compare", "bsa,de"]) == 0
    value_only = [{"best_value": 1.0}, {"best_value": 2.0}]
    path.write_text(json.dumps({"detail": [
        {"function": "F1", "algo": "bsa", "runs": value_only},
        {"function": "F1", "algo": "de", "runs": value_only}]}))
    assert cli.main(["report", "--in", str(path), "--compare", "bsa,de",
                     "--metric", "value"]) == 0
    assert cli.main(["report", "--in", str(path), "--compare", "bsa,de"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_cluster_rejects_fewer_than_one_run(blob_file, tmp_path, capsys, runs):
    data, gt = blob_file
    out = tmp_path / "clu.csv"
    rc = cli.main(["cluster", "--data", str(data), "--gt", str(gt),
                   "--runs", runs, "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": "runs must be >= 1"}
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_cluster_eca_star(blob_file, tmp_path, capsys):
    data, gt = blob_file
    out = tmp_path / "clu.csv"
    rc = cli.main(["cluster", "--data", str(data), "--gt", str(gt),
                   "--runs", "2", "--seed", "4", "--out", str(out)])
    assert rc == 0
    assert "k_mean=2.0" in capsys.readouterr().out
    payload = json.loads((tmp_path / "clu.json").read_text())
    assert payload["summary"]["ci_mean"] == 0.0
    assert payload["summary"]["k_mean"] == 2.0
    assert len(payload["detail"]) == 2
    assert "run_time_s" in payload["detail"][0]


def test_cluster_without_gt_leaves_truth_columns_null(blob_file, tmp_path):
    data, _ = blob_file
    out = tmp_path / "ng.csv"
    assert cli.main(["cluster", "--data", str(data), "--runs", "1",
                     "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "ng.json").read_text())
    assert payload["summary"]["ci_mean"] is None
    assert payload["summary"]["sse_mean"] is not None
    assert "ci" not in payload["detail"][0]


def test_cluster_kmeans_variants(blob_file, tmp_path, capsys):
    data, gt = blob_file
    for algo in ("km", "km++"):
        rc = cli.main(["cluster", "--algo", algo, "--data", str(data),
                       "--gt", str(gt), "--k", "2", "--runs", "2",
                       "--seed", "0"])
        assert rc == 0
        assert "sse_mean=" in capsys.readouterr().out


def test_cluster_rejects_options_of_the_other_algorithm(blob_file, tmp_path, capsys):
    data, gt = blob_file
    base = ["cluster", "--data", str(data), "--gt", str(gt), "--runs", "1",
            "--out", str(tmp_path / "x.csv")]
    for extra, named in ((["--algo", "eca-star", "--k", "7"], ["--k"]),
                         (["--algo", "km", "--k", "2", "--cycles", "3",
                           "--levy-alpha", "1.5"], ["--cycles", "--levy-alpha"]),
                         (["--algo", "km++", "--k", "2", "--ranks", "2"], ["--ranks"]),
                         (["--algo", "km", "--k", "2", "--density", "0.01"],
                          ["--density"])):
        assert cli.main(base + extra) == 1
        err = _err(capsys)
        assert err["error"] == "ValueError"
        assert all(flag in err["message"] for flag in named), err["message"]
    assert not (tmp_path / "x.csv").exists()


def test_cluster_config_records_only_the_options_read(blob_file, tmp_path):
    data, gt = blob_file
    base = ["cluster", "--data", str(data), "--gt", str(gt), "--runs", "1"]
    assert cli.main(base + ["--out", str(tmp_path / "e.csv"), "--cycles", "7"]) == 0
    config = json.loads((tmp_path / "e.json").read_text())["config"]
    assert "k" not in config
    assert {key: config[key] for key in ("ranks", "cycles", "density_threshold",
                                         "levy_alpha")} == {
        "ranks": 2, "cycles": 7, "density_threshold": 0.01, "levy_alpha": 1.001}
    assert cli.main(base + ["--out", str(tmp_path / "k.csv"), "--algo", "km++",
                            "--k", "2"]) == 0
    config = json.loads((tmp_path / "k.json").read_text())["config"]
    assert config["k"] == 2
    assert not {"ranks", "cycles", "density_threshold", "levy_alpha"} & config.keys()


def test_cluster_km_requires_k(blob_file, capsys):
    data, _ = blob_file
    rc = cli.main(["cluster", "--algo", "km", "--data", str(data),
                   "--runs", "1"])
    assert rc == 1
    err = _err(capsys)
    assert err["error"] == "ValueError"
    assert "--k" in err["message"]


def test_cluster_same_seed_reports_identical(blob_file, tmp_path):
    data, gt = blob_file
    out = tmp_path / "det.csv"
    args = ["cluster", "--data", str(data), "--gt", str(gt),
            "--runs", "2", "--seed", "9", "--out", str(out)]
    assert cli.main(args) == 0
    first = json.loads((tmp_path / "det.json").read_text())
    assert cli.main(args) == 0
    second = json.loads((tmp_path / "det.json").read_text())
    assert scrub_timing(first) == scrub_timing(second)


def _toy_fca(tmp_path):
    ctx = FormalContext(["o1", "o2", "o3"], ["car", "automobile", "wheel"],
                        np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=bool),
                        name="toy")
    write_cxt(ctx, tmp_path / "toy.cxt")
    (tmp_path / "lex.tsv").write_text("syn\tcar\tautomobile\n")
    return str(tmp_path / "toy.cxt"), str(tmp_path / "lex.tsv")


def test_fca_reduce_end_to_end(tmp_path, capsys):
    ctx, tax = _toy_fca(tmp_path)
    rc = cli.main(["fca-reduce", "--ctx", ctx, "--tax", tax,
                   "--out", str(tmp_path / "red.cxt"),
                   "--report", str(tmp_path / "rep.json")])
    assert rc == 0
    assert "merges" in capsys.readouterr().out
    reduced = read_cxt(tmp_path / "red.cxt")
    assert reduced.attributes == ("automobile", "wheel") and reduced.name == "toy"
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["original_shape"] == [3, 3]
    assert report["reduced_shape"] == [3, 2]
    assert report["trace"][0][5] == "similar"
    assert report["reduced"]["n_concepts"] <= report["original"]["n_concepts"]
    assert 0.0 <= report["quality"] <= 1.0


def test_fca_reduce_report_holds_the_invariants_of_both_contexts(tmp_path, capsys):
    # the 70 x 9 context and lexicon of CI's console-script step
    inc = np.random.default_rng(1).random((70, 9)) < 0.4
    ctx = FormalContext([f"o{i}" for i in range(70)], [f"a{j}" for j in range(9)], inc,
                        name="ctx70")
    write_cxt(ctx, tmp_path / "ctx70.cxt")
    (tmp_path / "lex70.tsv").write_text("syn\ta0\ta1\na2\ta3\n")
    assert cli.main(["fca-reduce", "--ctx", str(tmp_path / "ctx70.cxt"),
                     "--tax", str(tmp_path / "lex70.tsv"),
                     "--out", str(tmp_path / "red70.cxt"),
                     "--report", str(tmp_path / "red70.json")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "red70.json").read_text())
    reduced = read_cxt(tmp_path / "red70.cxt")
    assert report["original"] == build_lattice(read_cxt(tmp_path / "ctx70.cxt")).invariants
    assert report["reduced"] == build_lattice(reduced).invariants
    assert report["original"] != report["reduced"]
    assert list(reduced.shape) == report["reduced_shape"] == [70, 7]
    o, d = report["original"], report["reduced"]
    quality = sum(min(o[k], d[k]) / max(o[k], d[k]) if max(o[k], d[k]) else 1.0
                  for k in ("n_concepts", "n_edges", "height", "width")) / 4
    assert abs(quality - report["quality"]) <= 1e-12


@pytest.mark.parametrize("counts, line", [("-1\n2", 3), ("1\n-2", 4)])
def test_fca_reduce_rejects_negative_counts(tmp_path, capsys, counts, line):
    ctx_path = tmp_path / "neg.cxt"
    ctx_path.write_text(f"B\nx\n{counts}\na\nb\n")
    tax_path = tmp_path / "lex.tsv"
    tax_path.write_text("syn\ta\tb\n")
    rc = cli.main(["fca-reduce", "--ctx", str(ctx_path), "--tax", str(tax_path),
                   "--out", str(tmp_path / "red.cxt"),
                   "--report", str(tmp_path / "rep.json")])
    assert rc == 1
    err = _err(capsys)
    assert err["error"] == "ValueError"
    assert f"{ctx_path}:{line}:" in err["message"]
    assert "count must be >= 0" in err["message"]
    assert not (tmp_path / "red.cxt").exists()
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("routed", [False, True])
def test_fca_reduce_refuses_out_and_report_on_one_path(tmp_path, capsys, monkeypatch,
                                                      routed):
    """Two spellings of one path, or a relative ``--out`` that
    $EVOCLUST_OUT_DIR routes onto ``--report``, are refused before anything
    is written."""
    ctx, tax = _toy_fca(tmp_path)
    target = tmp_path / "routed" / "same.out"
    if routed:
        monkeypatch.setenv("EVOCLUST_OUT_DIR", str(tmp_path / "routed"))
        out = "same.out"
    else:
        monkeypatch.delenv("EVOCLUST_OUT_DIR", raising=False)
        out = str(tmp_path / "routed" / "sub" / ".." / "same.out")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["fca-reduce", "--ctx", ctx, "--tax", tax, "--out", out,
                     "--report", str(target)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ValueError"
    assert sorted(tmp_path.rglob("*")) == before


def test_fca_reduce_missing_context_names_the_path(tmp_path, capsys):
    tax_path = tmp_path / "lex.tsv"
    tax_path.write_text("syn\ta\tb\n")
    missing = tmp_path / "missing.cxt"
    rc = cli.main(["fca-reduce", "--ctx", str(missing), "--tax", str(tax_path),
                   "--report", str(tmp_path / "rep.json")])
    assert rc == 1
    err = _err(capsys)
    assert err["error"] == "FileNotFoundError"
    assert str(missing) in err["message"]
    assert not (tmp_path / "rep.json").exists()


def test_out_dir_env_routes_cli_outputs(blob_file, tmp_path, monkeypatch):
    data, _ = blob_file
    monkeypatch.setenv("EVOCLUST_OUT_DIR", str(tmp_path / "routed"))
    assert cli.main(["cluster", "--data", str(data), "--runs", "1",
                     "--out", "rel/c.csv"]) == 0
    assert (tmp_path / "routed" / "rel" / "c.csv").exists()
    assert (tmp_path / "routed" / "rel" / "c.json").exists()


def test_usage_errors_exit_2(capsys):
    assert cli.main(["bench-opt", "--range", "R9"]) == 2
    assert _err(capsys)["error"] == "usage"
    assert cli.main(["cluster"]) == 2  # --data is required
    assert _err(capsys)["error"] == "usage"
    assert cli.main(["nonsense"]) == 2
    assert cli.main(["report", "--in", "x.json", "--compare", "bsa"]) == 2
    assert "exactly two" in _err(capsys)["message"]


def _option(command, flag):
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[command]._actions if flag in a.option_strings)


def test_option_choices_come_from_their_tables():
    assert _option("bench-opt", "--range").choices == ["default", *reports.RANGES]
    assert _option("report", "--metric").choices == list(reports.METRIC_KEYS)
    assert f"({','.join(ALGORITHMS)})" in _option("bench-opt", "--algo").help
    range_help = _option("bench-opt", "--range").help
    for name, (low, up) in reports.RANGES.items():
        assert f"{name}=[{low:g},{up:g}]" in range_help


def test_one_parser_serves_every_call_of_a_process(blob_file, tmp_path, capsys):
    data, gt = blob_file
    calls = [["cluster", "--algo", "km", "--data", str(data), "--k", "two"],
             ["cluster", "--algo", "km++", "--data", str(data), "--gt", str(gt),
              "--k", "2", "--runs", "2", "--out", str(tmp_path / "c.csv")],
             ["bench-opt", "--algo", "bsa,de", "--fn", "F14", "--runs", "2",
              "--iters", "10", "--out", str(tmp_path / "b.csv")]]

    def run(argv):
        for f in tmp_path.glob("*.json"):
            f.unlink()
        rc = cli.main(argv)
        captured = capsys.readouterr()
        written = {f.name: scrub_timing(json.loads(f.read_text()))
                   for f in sorted(tmp_path.glob("*.json"))}
        return rc, captured.out, captured.err, written

    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert shared[0][0] == 2 and json.loads(shared[0][2])["error"] == "usage"
    assert [r[0] for r in shared[1:]] == [0, 0]
    for argv, result in zip(calls, shared):
        cli._build_parser.cache_clear()
        assert run(argv) == result, argv


def test_runtime_errors_exit_1(tmp_path, capsys):
    assert cli.main(["bench-opt", "--fn", "F99", "--runs", "1",
                     "--iters", "5"]) == 1
    assert _err(capsys)["error"] == "KeyError"
    assert cli.main(["cluster", "--data", str(tmp_path / "missing.txt"),
                     "--runs", "1"]) == 1
    err = _err(capsys)
    assert err["error"] in ("OSError", "FileNotFoundError")


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_cluster_rejects_non_finite_points(blob_file, tmp_path, capsys, bad):
    data, gt = blob_file
    lines = data.read_text().splitlines()
    lines[4] = f"{bad} 1.0"
    data.write_text("\n".join(lines) + "\n")
    for algo in ("eca-star", "km++"):
        argv = ["cluster", "--algo", algo, "--data", str(data), "--gt", str(gt),
                "--runs", "1", "--out", str(tmp_path / "q.csv")]
        if algo == "km++":
            argv += ["--k", "2"]
        assert cli.main(argv) == 1
        err = _err(capsys)
        assert err["error"] == "ValueError"
        assert f"{data}:5: non-finite" in err["message"]
    assert not (tmp_path / "q.csv").exists()


def test_cluster_rejects_points_whose_squared_distances_overflow(tmp_path, capsys):
    data = tmp_path / "wide.txt"
    data.write_text("0 0\n1e308 1e308\n-1e308 -1e308\n")
    for algo in (["eca-star"], ["km", "--k", "2"]):
        argv = ["cluster", "--algo", *algo, "--data", str(data), "--runs", "1",
                "--out", str(tmp_path / "q.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValueError"
        assert f"{data}: coordinates span too wide" in json.loads(err[0])["message"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["wide.txt"]


def test_cluster_rejects_points_whose_squared_distance_sums_overflow(tmp_path, capsys):
    # every squared distance fits in a float, but their sum over 100 points
    # does not: the load refuses the file before any SSE or k-means++ weight
    # total can overflow
    rng = np.random.Generator(np.random.PCG64(3))
    data = tmp_path / "wide.txt"
    save_points(data, rng.uniform(-4.5e153, 4.5e153, size=(100, 2)))
    for algo in (["km", "--k", "1"], ["km++", "--k", "2"]):
        argv = ["cluster", "--algo", *algo, "--data", str(data), "--runs", "1",
                "--out", str(tmp_path / "q.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValueError"
        assert f"{data}: coordinates span too wide" in json.loads(err[0])["message"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["wide.txt"]


def test_cluster_refuses_a_non_finite_result_at_write_time(blob_file, tmp_path, capsys,
                                                           monkeypatch):
    # strict JSON refuses a non-finite number before the JSON file is opened
    real = reports.quality_report
    monkeypatch.setattr(reports, "quality_report",
                        lambda *a, **kw: dataclasses.replace(real(*a, **kw), sse=float("inf")))
    data, _ = blob_file
    assert cli.main(["cluster", "--algo", "km", "--k", "2", "--data", str(data),
                     "--runs", "1", "--out", str(tmp_path / "q.csv")]) == 1
    err = _err(capsys)
    assert err["error"] == "ValueError" and "not JSON compliant" in err["message"]
    assert not (tmp_path / "q.json").exists()


# ------------------------------------------------ edge-case sweep
# every subcommand on degenerate, malformed and overflowing inputs: whatever
# the outcome, the exit code is 0, 1 or 2, a failure is one JSON error line on
# stderr, and every JSON file written is strict JSON

def _write_sweep_inputs(root):
    (root / "wide.txt").write_text("0 0\n1e308 1e308\n-1e308 -1e308\n")
    rng = np.random.Generator(np.random.PCG64(3))
    save_points(root / "wider.txt", rng.uniform(-4.5e153, 4.5e153, size=(100, 2)))
    ds = gaussian_blobs(RngStream(2), centers=[(0, 0), (9, 9)], spread=0.3,
                        points_per_cluster=20)
    save_points(root / "blobs.txt", ds.points)
    save_points(root / "gt3.txt", np.ones((2, 3)))  # 3-D centroids, 2-D points
    (root / "labels.txt").write_text("0\n1\n0\n")  # 3 labels, 40 points
    (root / "one.txt").write_text("5 5\n")
    (root / "three.txt").write_text("0 0\n1 1\n2 2\n")
    (root / "same.txt").write_text("1 1\n" * 12)
    lines = (root / "blobs.txt").read_text().splitlines()
    lines[3] = "nan 1.0"
    (root / "nan.txt").write_text("\n".join(lines) + "\n")
    for name, incidence in (("empty", np.zeros((0, 0))), ("no_objects", np.zeros((0, 3))),
                            ("no_attributes", np.zeros((3, 0))),
                            ("no_crosses", np.zeros((3, 3))), ("full", np.ones((3, 3)))):
        n_obj, n_att = incidence.shape
        ctx = FormalContext([f"o{i}" for i in range(n_obj)],
                            [f"a{j}" for j in range(n_att)], incidence, name=name)
        write_cxt(ctx, root / f"{name}.cxt")
    (root / "lex.tsv").write_text("syn\ta0\ta1\n")


def _cluster(algo, data, *extra):
    return ["cluster", "--algo", *algo.split(), "--data", data, "--runs", "1",
            "--out", "c.csv", *extra]


def _fca(ctx):
    return ["fca-reduce", "--ctx", ctx, "--tax", "lex.tsv", "--out", "red.cxt",
            "--report", "red.json"]


_SWEEP = {  # case: the calls, in order, and each call's exit code
    **{f"span-1e308-{algo}": ([_cluster(algo, "wide.txt")], [1])
       for algo in ("eca-star", "km --k 2", "km++ --k 2")},
    **{f"span-4.5e153-{algo}": ([_cluster(algo, "wider.txt")], [1])
       for algo in ("eca-star", "km --k 1", "km++ --k 2")},
    **{f"gt-of-another-dimension-{algo}": ([_cluster(algo, "blobs.txt", "--gt", "gt3.txt")], [1])
       for algo in ("eca-star", "km++ --k 2")},
    **{f"label-count-mismatch-{algo}": (
        [_cluster(algo, "blobs.txt", "--labels", "labels.txt")], [1])
       for algo in ("eca-star", "km --k 2")},
    "one-point-eca-star": ([_cluster("eca-star", "one.txt")], [0]),
    "one-point-km-k1": ([_cluster("km --k 1", "one.txt")], [0]),
    "one-point-km-k2": ([_cluster("km --k 2", "one.txt")], [1]),
    "k-above-n-km": ([_cluster("km --k 5", "three.txt")], [1]),
    "k-above-n-km++": ([_cluster("km++ --k 5", "three.txt")], [1]),
    **{f"identical-points-{algo}": ([_cluster(algo, "same.txt")], [0])
       for algo in ("eca-star", "km --k 2", "km++ --k 2")},
    **{f"nan-{algo}": ([_cluster(algo, "nan.txt")], [1]) for algo in ("eca-star", "km++ --k 2")},
    "empty-context": ([_fca("empty.cxt")], [1]),
    "context-without-objects": ([_fca("no_objects.cxt")], [1]),
    "context-without-attributes": ([_fca("no_attributes.cxt")], [1]),
    "context-without-crosses": ([_fca("no_crosses.cxt")], [0]),
    "context-of-one-concept": ([_fca("full.cxt")], [0]),
    "no-iterations-then-report": (
        [["bench-opt", "--algo", "bsa,de", "--fn", "F14", "--runs", "1", "--iters", "0",
          "--out", "b.csv"],
         ["report", "--in", "b.json", "--compare", "bsa,de", "--out", "r.csv"]], [0, 0]),
    "population-too-small": (
        [["bench-opt", "--algo", "de", "--fn", "F1", "--dim", "1", "--runs", "1",
          "--iters", "3", "--pop", "1", "--out", "b.csv"]], [1]),
    **{f"tolerance-{tol}": (
        [["bench-opt", "--algo", "bsa", "--fn", "F14", "--runs", "2", "--iters", "5",
          "--tol", tol, "--out", "t.csv"]], [1]) for tol in ("nan", "inf")},
    "report-on-a-missing-file": ([["report", "--in", "b.json", "--compare", "bsa,de"]], [1]),
    "report-on-one-algorithm": ([["report", "--in", "b.json", "--compare", "bsa"]], [2]),
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("case", sorted(_SWEEP))
def test_edge_case_sweep_exits_cleanly_and_writes_strict_json(tmp_path, monkeypatch,
                                                              capsys, case):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EVOCLUST_OUT_DIR", raising=False)
    _write_sweep_inputs(tmp_path)
    inputs = set(tmp_path.rglob("*"))
    calls, codes = _SWEEP[case]
    for argv, code in zip(calls, codes):
        rc = cli.main(argv)
        assert rc in (0, 1, 2)
        err = capsys.readouterr().err.splitlines()
        if rc:
            assert len(err) == 1, err
            assert set(json.loads(err[0])) == {"error", "message"}
        assert rc == code, (argv, err)
    written = list(tmp_path.rglob("*.json"))
    assert bool(written) == (0 in codes)  # a failed call writes no JSON
    if 0 not in codes:  # nor any other file
        assert set(tmp_path.rglob("*")) == inputs
    for path in written:
        json.loads(path.read_text(), parse_constant=_refuse_constant)


# ------------------------------------------------ defaults and keywords
# each setting is declared once, where the suite reads it: a flag that is not
# given is absent, so the params record's (or the suite's) default applies

def test_bench_defaults_are_optimizer_config_defaults(tmp_path, capsys, monkeypatch):
    real = reports.run_repetitions

    def one_short_run(algo, fn, config, seed, **kwargs):
        # the suite records the config it was given; one 1-iteration run per
        # cell keeps the 16-function default cheap
        return real(algo, fn, dataclasses.replace(config, runs=1, max_iterations=1),
                    seed, **kwargs)

    monkeypatch.setattr(reports, "run_repetitions", one_short_run)
    assert cli.main(["bench-opt", "--out", str(tmp_path / "b.csv")]) == 0
    capsys.readouterr()
    config = json.loads((tmp_path / "b.json").read_text())["config"]
    want = OptimizerConfig()
    assert {key: config[key] for key in ("population_size", "max_iterations",
                                         "runs", "tolerance")} == {
        "population_size": want.population_size, "max_iterations": want.max_iterations,
        "runs": want.runs, "tolerance": want.success_tolerance}
    assert (config["algos"], config["dim"], config["range"], config["seed"]) == (
        ["bsa"], 2, "default", 0)
    assert config["functions"] == list(benchmarks.CATALOG)


def test_cluster_defaults_are_eca_params_defaults(blob_file, tmp_path, capsys):
    data, _ = blob_file
    assert cli.main(["cluster", "--data", str(data), "--out", str(tmp_path / "c.csv")]) == 0
    capsys.readouterr()
    config = json.loads((tmp_path / "c.json").read_text())["config"]
    want = EcaParams()
    assert {key: config[key] for key in ("ranks", "cycles", "density_threshold",
                                         "levy_alpha")} == {
        "ranks": want.social_ranks, "cycles": want.max_cycles,
        "density_threshold": want.density_threshold, "levy_alpha": want.levy_alpha}
    assert (config["algo"], config["runs"], config["seed"]) == ("eca-star", 30, 0)


def test_fca_reduce_defaults_are_reduce_params_defaults(tmp_path, capsys):
    ctx, tax = _toy_fca(tmp_path)
    assert cli.main(["fca-reduce", "--ctx", ctx, "--tax", tax,
                     "--report", str(tmp_path / "rep.json")]) == 0
    capsys.readouterr()
    config = json.loads((tmp_path / "rep.json").read_text())["config"]
    want = ReduceParams()
    assert config == {"ctx": ctx, "tax": tax,
                      "hyper_depth": want.hypernym_depth, "hypo_depth": want.hyponym_depth,
                      "iters": want.max_iterations, "quality_floor": want.quality_floor}


def test_suites_reject_unknown_keywords(blob_file, tmp_path, monkeypatch):
    # the JSON config keys are not keywords: a misnamed setting must fail,
    # never fall back to the default
    monkeypatch.setattr(reports, "run_repetitions",
                        lambda *a, **k: pytest.fail("ran with an unknown keyword"))
    with pytest.raises(TypeError, match="tolerance"):
        reports.run_bench_suite(functions=["F14"], tolerance=1e-3)
    data, _ = blob_file
    for extra in ({"density": 0.02}, {"algo": "km", "k": 2, "kk": 3}):
        with pytest.raises(TypeError, match="density|kk"):
            reports.run_cluster_suite(data=str(data), runs=1, **extra)
    ctx, tax = _toy_fca(tmp_path)
    with pytest.raises(TypeError, match="hyper_depth"):
        reports.run_fca_suite(ctx, tax, hyper_depth=2)


# ------------------------------------------------------ cells on workers
# bench-opt runs its (function, algorithm) cells on every usable CPU, this
# process and forked children; these tests claim two CPUs, so that the
# children are forked on any machine

OPT_PROTOCOL = ["--algo", "all", "--fn", "F1,F7,F11,F14", "--dim", "10", "--pop", "30",
                "--tol", "1e-06", "--runs", "3", "--iters", "25"]


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert reports._worker_count(5) == 2


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bench_outputs(tmp_path, name, argv, capsys):
    """A bench-opt call's scrubbed JSON and its CSVs, the stats CSV without
    its wall-clock column."""
    out = tmp_path / name / "b.csv"
    assert cli.main(["bench-opt", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    texts = {p.name: p.read_text() for p in sorted(out.parent.iterdir())}
    payload = scrub_timing(json.loads(texts.pop("b.json")))
    stats = [row.split(",") for row in texts.pop("b.csv").splitlines()]
    assert stats[0][-1] == "mean_exec_time_s"
    return payload, [row[:-1] for row in stats], texts


@pytest.mark.parametrize("argv", [
    ["--algo", "all", "--fn", "F14,F1", "--runs", "4", "--iters", "40", "--tol", "1e-3"],
    OPT_PROTOCOL], ids=["F14-F1", "opt-protocol"])
@pytest.mark.parametrize("seed", ["1", "1009"])
def test_pooled_and_serial_suites_write_the_same_bytes(tmp_path, monkeypatch, capsys,
                                                       two_cpus, argv, seed):
    pooled = _bench_outputs(tmp_path, "pooled", [*argv, "--seed", seed], capsys)
    _no_child_left()
    monkeypatch.setattr(reports, "_worker_count", lambda cells: 1)
    serial = _bench_outputs(tmp_path, "serial", [*argv, "--seed", seed], capsys)
    assert pooled == serial
    assert [(b["function"], b["algo"]) for b in pooled[0]["detail"]] == [
        (f, a) for f in pooled[0]["config"]["functions"] for a in ALGORITHMS]


def _where_cells_run(monkeypatch, tmp_path):
    """Have every cell log the pid that runs it, with its function and
    algorithm, to a file, the cells of this process after a pause, so that a
    child claims some of them; returns a reader of the log as it stands."""
    parent, log = os.getpid(), tmp_path / "cells.log"
    real = reports.run_repetitions

    def logged(algo, fn, *args, **kwargs):
        if os.getpid() == parent:
            time.sleep(0.2)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {fn.id} {algo}\n")
        return real(algo, fn, *args, **kwargs)

    monkeypatch.setattr(reports, "run_repetitions", logged)
    return lambda: [(int(pid), fid, algo)
                    for pid, fid, algo in map(str.split, log.read_text().splitlines())]


@pytest.mark.parametrize("name,value", [("STOP_ON_SUCCESS", False), ("ABC_LIMIT", 0)])
def test_patched_optimizer_constants_reach_the_workers(tmp_path, monkeypatch, two_cpus,
                                                       name, value):
    argv = dict(algos=["bsa", "abc", "de"], functions=["F14"], runs=3,
                max_iterations=30, success_tolerance=1e-3, seed=2)
    plain = scrub_timing(reports.run_bench_suite(**argv))
    monkeypatch.setattr(optimizers, name, value)
    where = _where_cells_run(monkeypatch, tmp_path)
    pooled = scrub_timing(reports.run_bench_suite(**argv))
    _no_child_left()
    in_child = {(fid, algo) for pid, fid, algo in where() if pid != os.getpid()}
    assert ("F14", "abc") in in_child  # the cell both constants change
    monkeypatch.setattr(reports, "_worker_count", lambda cells: 1)
    assert pooled == scrub_timing(reports.run_bench_suite(**argv))
    moved = {(b["function"], b["algo"]) for b, p in zip(pooled["detail"], plain["detail"])
             if b != p}
    assert ("F14", "abc") in moved


def test_a_cell_that_raises_in_a_worker_fails_the_call_cleanly(tmp_path, monkeypatch,
                                                               capsys, two_cpus):
    parent = os.getpid()
    where = _where_cells_run(monkeypatch, tmp_path)
    logged = reports.run_repetitions

    def fails_in_a_child(algo, fn, *args, **kwargs):
        result = logged(algo, fn, *args, **kwargs)
        if os.getpid() != parent:
            raise ValueError(f"no {algo} on {fn.id} here")
        return result

    monkeypatch.setattr(reports, "run_repetitions", fails_in_a_child)
    out = tmp_path / "out" / "b.csv"
    argv = ["bench-opt", "--algo", "bsa,de", "--fn", "F14,F1", "--runs", "2",
            "--iters", "5", "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError" and err["message"] in (
        "no de on F14 here", "no bsa on F1 here", "no de on F1 here")
    assert {pid == parent for pid, _, _ in where()} == {True, False}
    assert not out.parent.exists()
    _no_child_left()


def _raise(item):
    if item == "keyboard":
        raise KeyboardInterrupt("stopped")
    if item == "local":
        class Local(Exception):  # no pickle can find this class by name
            pass
        raise Local("not importable")
    if isinstance(item, int) and item % 3 == 2:
        raise KeyError(f"item {item}")
    return item


@pytest.mark.parametrize("items,raised,message", [
    ([0, 1, 2, 3, 4, 5, 6, 7, 8], KeyError, "'item 2'"),
    ([0, "keyboard", 1], KeyboardInterrupt, "stopped"),
    ([0, "local"], RuntimeError, "Local: not importable")])
def test_the_first_failing_item_raises_with_its_type_and_message(monkeypatch, two_cpus,
                                                                 items, raised, message):
    parent = os.getpid()

    def task(item):
        if os.getpid() == parent:  # a child claims every item but the first
            time.sleep(0.2)
        return _raise(item)

    with pytest.raises(raised) as info:
        reports._pooled_map(task, items)
    assert str(info.value) == message
    _no_child_left()
    assert reports._pooled_map(task, [0, 1, 3, 4]) == [0, 1, 3, 4]
    _no_child_left()


def test_a_worker_that_dies_fails_the_call(two_cpus):
    parent = os.getpid()

    def task(item):
        if os.getpid() != parent:
            os._exit(3)  # as a worker killed mid-cell
        time.sleep(0.2)
        return item

    with pytest.raises(ChildProcessError, match="ended without its results"):
        reports._pooled_map(task, [0, 1, 2])
    _no_child_left()


def _claims_pipe(n):
    claims, claims_in = os.pipe()
    os.write(claims_in, b"".join(i.to_bytes(4, "little") for i in range(n)))
    os.close(claims_in)
    return claims


def test_a_child_claims_nothing_once_its_parent_has_died():
    ran = []
    for parent, want in ((os.getppid(), [10, 11, 12]), (-1, [])):
        claims = _claims_pipe(3)
        try:
            done = reports._claim(ran.append, [10, 11, 12], claims, parent)
        finally:
            os.close(claims)
        assert sorted(done) == list(range(len(want))) and ran == want
        ran.clear()


def _fork_refused():
    pytest.fail("forked")


@pytest.mark.parametrize("case", ["one-cell", "one-cpu", "no-fork", "a-second-thread"])
def test_bench_forks_nothing_where_it_runs_serially(tmp_path, monkeypatch, capsys, case):
    argv = ["bench-opt", "--algo", "bsa,de", "--fn", "F14", "--runs", "2", "--iters", "5"]
    if case == "one-cell":
        argv[2] = "bsa"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    elif case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _fork_refused)
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    if case == "a-second-thread":
        waiter.start()
    try:
        assert cli.main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    finally:
        release.set()
        if case == "a-second-thread":
            waiter.join(30)
            assert not waiter.is_alive()
    capsys.readouterr()
    assert (tmp_path / "b.json").exists()
