"""End-to-end command-line runs, in process via main(argv)."""

import dataclasses
import json

import numpy as np
import pytest

from evoclust import benchmarks, cli, reports
from evoclust.datasets import gaussian_blobs, save_points
from evoclust.ecastar import EcaParams
from evoclust.fca import FormalContext, read_cxt, write_cxt
from evoclust.optimizers import OptimizerConfig
from evoclust.reducer import ReduceParams
from evoclust.reports import scrub_timing
from evoclust.rng import RngStream


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


def test_report_compares_from_bench_json(bench_json, tmp_path, capsys):
    rc = cli.main(["report", "--in", str(bench_json),
                   "--compare", "bsa,de", "--metric", "value",
                   "--out", str(tmp_path / "cmp.csv")])
    assert rc == 0
    assert "F14: winner" in capsys.readouterr().out
    cmp_payload = json.loads((tmp_path / "cmp.json").read_text())
    row = cmp_payload["comparison"][0]
    assert row["n_pairs"] == 3
    assert row["winner"] in ("bsa", "de", "tie")


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
                        np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=bool))
    write_cxt(ctx, tmp_path / "toy.cxt", name="toy")
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
    assert reduced.attributes == ("automobile", "wheel")
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["original_shape"] == [3, 3]
    assert report["reduced_shape"] == [3, 2]
    assert report["trace"][0][5] == "similar"
    assert report["reduced"]["n_concepts"] <= report["original"]["n_concepts"]
    assert 0.0 <= report["quality"] <= 1.0


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
