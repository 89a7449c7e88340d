"""Experiment harnesses and report emission.

Machine JSON carries full precision plus the resolved config and seed, so any
artifact can be reproduced from its own header. CSVs mirror the JSON rows:
the default flavor keeps full-precision floats (lossless re-parse), the
human flavor rounds to 4 significant digits in scientific notation.
Wall-clock fields always end in ``_time_s`` so they can be scrubbed before
byte-comparing reports.
"""

import csv
import json
import os
import time
from pathlib import Path

import numpy as np

from . import benchmarks, fca, optimizers, reducer
from .datasets import load_dataset
from .ecastar import EcaParams, run_eca_star
from .kmeans import KmConfig, kmeans
from .metrics import quality_report
from .optimizers import ALGORITHMS, OptimizerConfig, run_repetitions
from .stats import check_alpha, success_ratio, summarize, wilcoxon_signed_rank

RANGES = {"R1": (-5.0, 5.0), "R2": (-250.0, 250.0), "R3": (-500.0, 500.0)}
OUT_DIR_ENV = "EVOCLUST_OUT_DIR"
SIG_DIGITS = 4  # significant digits of the human CSV flavor


def fmt_full(value):
    """Full-precision text that re-parses to the identical float; None is
    empty and a bool its name."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def fmt_sig(value):
    """Scientific notation with ``SIG_DIGITS`` significant digits: 1.092E+02;
    None and a bool as ``fmt_full`` writes them."""
    if value is None or isinstance(value, bool):
        return fmt_full(value)
    return f"{float(value):.{SIG_DIGITS - 1}E}"


def scrub_timing(obj):
    """Recursively drop every key ending in ``_time_s``."""
    if isinstance(obj, dict):
        return {k: scrub_timing(v) for k, v in obj.items()
                if not str(k).endswith("_time_s")}
    if isinstance(obj, list):
        return [scrub_timing(v) for v in obj]
    return obj


def _routed(path):
    """Where an output path lands: a relative path in $EVOCLUST_OUT_DIR when
    it is set (joining an absolute path keeps it as it is)."""
    return Path(os.environ.get(OUT_DIR_ENV) or "", path)


def resolve_out(path):
    """The routed output path, its directory made."""
    path = _routed(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path, payload):
    """Write strict JSON: a NaN or infinite value raises ValueError before
    the file is opened, since RFC 8259 has no token for it."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    path = resolve_out(path)
    path.write_text(text)
    return path


def write_csv(path, header, rows, human=False):
    """One CSV; floats full-precision by default, 4 significant digits when
    human formatting is requested."""
    path = resolve_out(path)
    fmt = fmt_sig if human else fmt_full
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else fmt(v) for v in row])
    return path


def _check_tables_out(out):
    """Refuse, before a suite runs, an ``out`` that ends in .json: the JSON
    that ``_write_tables`` writes beside the CSV at ``out`` would replace it."""
    if out and Path(out).suffix == ".json":
        raise ValueError(f"out {str(out)!r} ends in .json, so the JSON written beside "
                         "the CSV would overwrite it; give the CSV path")


def _write_tables(payload, out, tables, human=False):
    """Set ``payload["written"]``. With an ``out`` path, first write each
    CSV table, given as key -> (name tag, header, rows), to ``out`` with the
    tag added to its stem, then the payload as JSON beside ``out``."""
    written = {}
    if out:
        out = Path(out)
        for key, (tag, header, rows) in tables.items():
            path = out.with_name(out.stem + tag + out.suffix) if tag else out
            written[key] = str(write_csv(path, header, rows, human))
        written["json"] = str(write_json(out.with_suffix(".json"), payload))
    payload["written"] = written
    return payload


# ------------------------------------------------------------ bench suite

def _first_seen(items, what):
    """``items`` once each, in first-seen order; an empty list is an error."""
    items = list(dict.fromkeys(items))
    if not items:
        raise ValueError(f"no {what} requested")
    return items


def _bench_functions(names):
    requested = []
    for n in names:
        if str(n).lower() == "all":
            requested.extend(benchmarks.CATALOG)
        else:
            requested.append(benchmarks.get_function(n).id)
    return _first_seen(requested, "functions")


def _bench_algos(names):
    requested = []
    for a in names:
        a = str(a).strip().lower()
        if a == "all":
            requested.extend(ALGORITHMS)
        elif a in ALGORITHMS:
            requested.append(a)
        else:
            raise ValueError(f"unknown algorithm: {a!r} (expected one of {ALGORITHMS})")
    return _first_seen(requested, "algorithms")


def _usable_dim(fn, dim):
    return 2 if fn.dimension_rule == "fixed-2" else dim


def run_bench_suite(algos=("bsa",), functions=("all",), dim=2,
                    range_name="default", seed=0, out=None, human=False,
                    **settings):
    """Optimize every requested function with every requested algorithm and
    aggregate stats, pairwise rank tests, and the success/failure table.
    ``settings`` are ``OptimizerConfig`` fields (population_size,
    max_iterations, runs, success_tolerance)."""
    opt = OptimizerConfig(**settings)
    _check_tables_out(out)
    bounds = None if range_name == "default" else RANGES[range_name]
    fn_ids = _bench_functions(functions)
    algos = _bench_algos(algos)
    suite_start = time.perf_counter()

    stats_rows = []
    runs_payload = []
    runs_by = {}
    success_counts = {a: {} for a in algos}
    for fid in fn_ids:
        fn = benchmarks.get_function(fid)
        for algo in algos:
            results = run_repetitions(algo, fn, opt, seed, dim=_usable_dim(fn, dim),
                                      bounds=bounds)
            it_stats = summarize(results, metric="iters")
            val_stats = summarize(results, metric="value")
            success_counts[algo][fid] = it_stats.n_success
            stats_rows.append([
                fid, fn.name, algo, results[0].dim,
                results[0].reference_min,
                it_stats.n_success, it_stats.n_failure,
                it_stats.mean, it_stats.sd, it_stats.best, it_stats.worst,
                val_stats.mean, val_stats.sd, val_stats.best, val_stats.worst,
                it_stats.mean_exec_time,
            ])
            runs = [{"seed": r.seed, "succeeded": r.succeeded,
                     "iterations_to_success": r.iterations_to_success,
                     "best_value": r.best_value, "run_time_s": r.wall_time}
                    for r in results]
            runs_by[(fid, algo)] = runs
            runs_payload.append({
                "function": fid, "algo": algo, "dim": results[0].dim,
                "reference_min": results[0].reference_min, "runs": runs,
            })

    pair_rows = [_pairwise_row(fid, a, b, runs_by[(fid, a)], runs_by[(fid, b)])
                 for fid in fn_ids
                 for i, a in enumerate(algos) for b in algos[i + 1:]]

    ratio = success_ratio(success_counts)
    ratio_rows = [[algo, solved, failed] for algo, (solved, failed) in ratio.items()]

    payload = {
        "config": {
            "algos": list(algos), "functions": list(fn_ids), "dim": dim,
            "range": range_name, "runs": opt.runs, "seed": seed,
            "population_size": opt.population_size,
            "max_iterations": opt.max_iterations,
            "tolerance": opt.success_tolerance,
            "stop_on_success": optimizers.STOP_ON_SUCCESS,
        },
        "stats": [dict(zip(STATS_HEADER, row)) for row in stats_rows],
        "pairwise": [dict(zip(PAIR_HEADER, row)) for row in pair_rows],
        "success_ratio": [dict(zip(RATIO_HEADER, row)) for row in ratio_rows],
        "detail": runs_payload,
        "suite_time_s": time.perf_counter() - suite_start,
    }
    return _write_tables(payload, out, {
        "csv": ("", STATS_HEADER, stats_rows),
        "pairwise_csv": ("_pairwise", PAIR_HEADER, pair_rows),
        "ratio_csv": ("_ratio", RATIO_HEADER, ratio_rows)}, human)


# report metric -> the run key it compares
METRIC_KEYS = {"iters": "iterations_to_success", "value": "best_value"}


def _pairwise_row(fid, algo_a, algo_b, runs_a, runs_b, metric="iters", alpha=0.05):
    """One PAIR_HEADER row: the Wilcoxon signed-rank test on two algorithms'
    paired runs (detail dicts) of one function. For ``iters`` only the pairs
    where both runs succeeded count; no pair left gives an "NC" row. The p
    is exact up to ``stats.EXACT_LIMIT`` nonzero differences and the normal
    approximation above it; the ``exact`` column says which (None on an "NC"
    row)."""
    key = METRIC_KEYS[metric]
    xs, ys = [], []
    for run_a, run_b in zip(runs_a, runs_b):
        if metric == "iters" and not (run_a["succeeded"] and run_b["succeeded"]):
            continue
        xs.append(float(run_a[key]))
        ys.append(float(run_b[key]))
    if not xs:
        return [fid, algo_a, algo_b, 0, None, None, None, None, "NC"]
    w = wilcoxon_signed_rank(xs, ys, alpha=alpha)
    winner = {"A": algo_a, "B": algo_b, "tie": "tie"}[w.winner]
    return [fid, algo_a, algo_b, len(xs), w.r_plus, w.r_minus, w.p_value,
            w.exact, winner]


STATS_HEADER = ["function", "name", "algo", "dim", "reference_min",
                "n_success", "n_failure",
                "iters_mean", "iters_sd", "iters_best", "iters_worst",
                "value_mean", "value_sd", "value_best", "value_worst",
                "mean_exec_time_s"]
PAIR_HEADER = ["function", "algo_a", "algo_b", "n_pairs", "r_plus", "r_minus",
               "p_value", "exact", "winner"]
RATIO_HEADER = ["algo", "solved", "failed"]


# ---------------------------------------------------------- cluster suite

CLUSTER_HEADER = ["dataset", "algo", "runs", "k_mean",
                  "ci_mean", "csi_mean", "nmi_mean",
                  "sse_mean", "nmse_mean", "eps_ratio_mean", "mean_exec_time_s"]


# ECA* options: suite keyword -> (EcaParams field, CLI flag); km/km++ read k
ECA_OPTIONS = {"ranks": ("social_ranks", "--ranks"),
               "cycles": ("max_cycles", "--cycles"),
               "density_threshold": ("density_threshold", "--density"),
               "levy_alpha": ("levy_alpha", "--levy-alpha")}


def _algo_options(algo, given):
    """The options that algo reads, by suite keyword, from those ``given``,
    with ECA*'s defaults filled in from ``EcaParams``. An unknown keyword is
    a TypeError, and a given option of the other algorithm a ValueError, so
    the config never records a setting that no run read."""
    unknown = sorted(given.keys() - ECA_OPTIONS.keys() - {"k"})
    if unknown:
        raise TypeError(f"run_cluster_suite() got unexpected keyword "
                        f"arguments: {', '.join(unknown)}")
    if algo == "eca-star":
        if "k" in given:
            raise ValueError("eca-star finds the cluster count itself and "
                             "does not read --k")
        defaults = EcaParams()
        return {name: given.get(name, getattr(defaults, param))
                for name, (param, _) in ECA_OPTIONS.items()}
    if algo in ("km", "km++"):
        flags = [flag for name, (_, flag) in ECA_OPTIONS.items() if name in given]
        if flags:
            raise ValueError(f"{algo} does not read {', '.join(flags)}")
        if "k" not in given:
            raise ValueError("k-means needs --k")
        return {"k": given["k"]}
    raise ValueError(f"unknown clustering algorithm: {algo!r}")


def _cluster_once(algo, dataset, options, seed, memo):
    start = time.perf_counter()
    if algo == "eca-star":
        params = EcaParams(**{param: options[name]
                              for name, (param, _) in ECA_OPTIONS.items()}, seed=seed)
        clustering, report = run_eca_star(dataset, params, memo=memo)
    else:
        km_cfg = KmConfig(k=options["k"], seed=seed,
                          init="plusplus" if algo == "km++" else "random")
        clustering = kmeans(dataset, km_cfg)
        report = quality_report(dataset, clustering,
                                gt_centroids=dataset.true_centroids,
                                gt_labels=dataset.true_labels)
    return clustering, report, time.perf_counter() - start


def run_cluster_suite(data, algo="eca-star", gt=None, labels=None, runs=30,
                      seed=0, out=None, human=False, **options):
    """Repeated clustering runs on one dataset; emits the per-algorithm
    average quality row plus per-run detail. ``options`` are km/km++'s
    ``k`` or ECA*'s ``ECA_OPTIONS``; the config records only the options
    that the algorithm reads."""
    algo = algo.lower()
    options = _algo_options(algo, options)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    _check_tables_out(out)
    dataset = load_dataset(data, centroids_path=gt, labels_path=labels)
    # ECA*'s start partitions, cohesions and column sort orders of this
    # dataset's points: every run starts from the same partition, so later
    # runs reuse what earlier ones computed
    memo = {}
    per_run = []
    for i in range(runs):
        clustering, report, elapsed = _cluster_once(algo, dataset, options,
                                                    seed + i, memo)
        per_run.append((clustering, report, elapsed))

    def mean_of(attr):
        vals = [getattr(r, attr) for _, r, _ in per_run]
        if any(v is None for v in vals):
            return None
        return float(np.mean(vals))

    has_gt = dataset.true_centroids is not None or dataset.true_labels is not None
    row = [dataset.name, algo, runs,
           float(np.mean([c.centroids.shape[0] for c, _, _ in per_run])),
           mean_of("ci") if has_gt else None,
           mean_of("csi") if has_gt else None,
           mean_of("nmi") if has_gt else None,
           mean_of("sse"), mean_of("nmse"), mean_of("eps_ratio"),
           float(np.mean([t for _, _, t in per_run]))]

    detail = []
    for i, (clustering, report, elapsed) in enumerate(per_run):
        entry = {"seed": seed + i, "k": int(clustering.centroids.shape[0]),
                 "sse": report.sse, "nmse": report.nmse,
                 "eps_ratio": report.eps_ratio, "run_time_s": elapsed}
        if report.ci is not None:
            entry.update({"ci": report.ci, "csi": report.csi, "nmi": report.nmi})
        detail.append(entry)

    payload = {
        "config": {
            "algo": algo, "data": str(data),
            "gt": str(gt) if gt else None,
            "labels": str(labels) if labels else None,
            **options, "runs": runs, "seed": seed,
        },
        "summary": dict(zip(CLUSTER_HEADER, row)),
        "detail": detail,
    }
    return _write_tables(payload, out, {"csv": ("", CLUSTER_HEADER, [row])}, human)


# -------------------------------------------------------------- fca suite

def run_fca_suite(ctx, tax, out=None, report=None, **settings):
    """Reduce one context against a taxonomy; emits the reduced context and
    a report with both lattices' invariants, the quality, and the trace.
    ``settings`` are ``ReduceParams`` fields. ``out`` and ``report`` must
    not land on one path."""
    if out and report and _routed(out).resolve() == _routed(report).resolve():
        raise ValueError(f"out and report both land on {str(_routed(out))!r}; "
                         "give them different paths")
    context = fca.read_cxt(ctx)
    taxonomy = reducer.load_taxonomy(tax)
    params = reducer.ReduceParams(**settings)
    start = time.perf_counter()
    reduced, trace, lat_orig, lat_red = reducer.reduce_context(context, taxonomy, params)
    elapsed = time.perf_counter() - start
    payload = {
        "config": {
            "ctx": str(ctx), "tax": str(tax),
            "hyper_depth": params.hypernym_depth, "hypo_depth": params.hyponym_depth,
            "iters": params.max_iterations, "quality_floor": params.quality_floor,
        },
        "original": lat_orig.invariants,
        "reduced": lat_red.invariants,
        "original_shape": list(context.shape),
        "reduced_shape": list(reduced.shape),
        "quality": fca.lattice_quality(lat_orig, lat_red),
        "trace": [list(e) for e in trace],
        "reduce_time_s": elapsed,
    }
    written = {}
    if out:
        out = resolve_out(out)
        fca.write_cxt(reduced, out)
        written["cxt"] = str(out)
    if report:
        written["report"] = str(write_json(report, payload))
    payload["written"] = written
    return payload


# ------------------------------------------------------------- comparison

def _readable_run(run, metric):
    """Whether a run object holds a number under the key ``metric`` compares
    (for ``iters``, also ``succeeded``, and the number only if it is true)."""
    key = METRIC_KEYS[metric]
    if not isinstance(run, dict) or key not in run:
        return False
    if metric == "iters":
        if "succeeded" not in run:
            return False
        if not run["succeeded"]:
            return True
    return isinstance(run[key], (int, float))


def run_report(in_path, compare, metric="iters", alpha=0.05, out=None):
    """Paired rank test between two algorithms from a bench-suite JSON.

    The input must be a JSON object whose ``detail`` is a list of blocks,
    each with a string ``function`` and ``algo`` and a list of run objects
    holding what ``metric`` compares; both algorithms must differ and have
    runs in it, and ``alpha`` must lie in (0, 1)."""
    check_alpha(alpha)
    _check_tables_out(out)
    data = json.loads(Path(in_path).read_text())
    detail = data.get("detail", []) if isinstance(data, dict) else None
    if not (isinstance(detail, list) and all(isinstance(b, dict) for b in detail)):
        raise ValueError(f"{in_path}: not a bench-opt result (expected an object "
                         "whose 'detail' is a list of objects)")
    for i, block in enumerate(detail):
        for name in ("function", "algo"):
            if not isinstance(block.get(name), str):
                raise ValueError(f"{in_path}: detail block {i} has no string {name!r}")
        runs = block.get("runs")
        if not (isinstance(runs, list) and all(_readable_run(r, metric) for r in runs)):
            flag = "'succeeded' and " if metric == "iters" else ""
            raise ValueError(f"{in_path}: detail block {i} ({block['function']}, "
                             f"{block['algo']}): 'runs' is not a list of run objects "
                             f"with {flag}a number under {METRIC_KEYS[metric]!r}")
    algo_a, algo_b = [a.strip().lower() for a in compare]
    if algo_a == algo_b:
        raise ValueError(f"compare names {algo_a!r} twice; name two algorithms")
    by_fn = {}
    for block in detail:
        by_fn.setdefault(block["function"], {})[block["algo"]] = block["runs"]
    recorded = set().union(*by_fn.values())
    missing = [a for a in (algo_a, algo_b) if a not in recorded]
    if missing:
        raise ValueError(f"{in_path}: no runs of {', '.join(map(repr, missing))} "
                         f"(recorded: {', '.join(sorted(recorded)) or 'none'})")
    rows = [_pairwise_row(fid, algo_a, algo_b, algos[algo_a], algos[algo_b],
                          metric, alpha)
            for fid, algos in sorted(by_fn.items())
            if algo_a in algos and algo_b in algos]
    payload = {
        "config": {"in": str(in_path), "compare": [algo_a, algo_b],
                   "metric": metric, "alpha": alpha},
        "comparison": [dict(zip(PAIR_HEADER, row)) for row in rows],
    }
    return _write_tables(payload, out, {"csv": ("", PAIR_HEADER, rows)})
