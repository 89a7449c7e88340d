"""Command-line front end: bench-opt, cluster, fca-reduce, and report.

Every failure path prints one JSON object {"error", "message"} to stderr and
exits nonzero, so wrappers never have to scrape tracebacks.
"""

import argparse
import functools
import json
import sys

from . import benchmarks
from .ecastar import EcaParams
from .reports import (BenchConfig, ClusterConfig, FcaConfig, fmt_full, fmt_sig,
                      run_bench_suite, run_cluster_suite, run_fca_suite,
                      run_report)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse variant that raises instead of printing usage + exiting."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


@functools.cache  # parse_args keeps no state: one parser serves every main call
def _build_parser():
    parser = _Parser(prog="evoclust",
                     description="Optimization benchmarks, evolutionary "
                                 "clustering, and formal-context reduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-opt", parents=[], help="benchmark optimizers",
                       description="Run optimizers over the benchmark catalog.")
    p.add_argument("--list", action="store_true", help="print the function catalog and exit")
    p.add_argument("--algo", default="bsa",
                   help="comma-separated algorithms (bsa,de,pso,abc,ff) or 'all'")
    p.add_argument("--fn", default="all", help="function id/name, comma list, or 'all'")
    p.add_argument("--dim", type=int, default=2, help="dimension for scalable functions")
    p.add_argument("--range", dest="range_name", default="default",
                   choices=["default", "R1", "R2", "R3"],
                   help="search range override (R1=[-5,5], R2=[-250,250], R3=[-500,500])")
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--pop", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path; a JSON lands alongside")
    p.add_argument("--human", action="store_true",
                   help="4-significant-digit scientific notation in CSVs")

    p = sub.add_parser("cluster", help="run a clustering algorithm",
                       description="Cluster a dataset repeatedly and report quality.")
    p.add_argument("--algo", default="eca-star", choices=["eca-star", "km", "km++"])
    p.add_argument("--data", required=True, help="points file (one point per line)")
    p.add_argument("--gt", default=None, help="ground-truth centroid file")
    p.add_argument("--labels", default=None, help="ground-truth label file")
    # km/km++ read only --k and eca-star only the next four; giving either
    # algorithm an option of the other is an error
    p.add_argument("--k", type=int, default=None, help="cluster count for km/km++")
    p.add_argument("--ranks", type=int, default=None,
                   help="eca-star: social rank count S "
                        f"(default {EcaParams.social_ranks})")
    p.add_argument("--cycles", type=int, default=None,
                   help=f"eca-star: cycle cap (default {EcaParams.max_cycles})")
    p.add_argument("--density", type=float, default=None,
                   help="eca-star: low-density merge threshold "
                        f"(default {EcaParams.density_threshold})")
    p.add_argument("--levy-alpha", type=float, default=None,
                   help="eca-star: Levy stability index "
                        f"(default {EcaParams.levy_alpha})")
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--human", action="store_true")

    p = sub.add_parser("fca-reduce", help="reduce a formal context",
                       description="Merge synonymous/related rows and columns "
                                   "of a formal context under a taxonomy.")
    p.add_argument("--ctx", required=True, help="context file (Burmeister .cxt)")
    p.add_argument("--tax", required=True, help="taxonomy TSV")
    p.add_argument("--hyper-depth", type=int, default=4)
    p.add_argument("--hypo-depth", type=int, default=4)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--quality-floor", type=float, default=0.8)
    p.add_argument("--out", default=None, help="reduced context path (.cxt)")
    p.add_argument("--report", default=None, help="invariants report path (.json)")

    p = sub.add_parser("report", help="compare algorithms from a results JSON",
                       description="Paired signed-rank comparison between two "
                                   "algorithms recorded in a bench-opt JSON.")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--compare", required=True, help="two algorithms, e.g. bsa,de")
    p.add_argument("--metric", default="iters", choices=["iters", "value"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", default=None)

    return parser


def _print_written(payload):
    if payload["written"]:
        print("written: " + ", ".join(sorted(set(payload["written"].values()))))


def _catalog_csv(human):
    fmt = fmt_sig if human else fmt_full
    lines = ["id,name,low,up,dimension_rule,global_min,hardness_pct"]
    for row in benchmarks.catalog_rows():
        fid, name, low, up, rule, gmin, hardness = row
        lines.append(",".join([fid, name, fmt(low), fmt(up), rule,
                               fmt(gmin), fmt(hardness)]))
    return "\n".join(lines)


def _cmd_bench(args):
    if args.list:
        print(_catalog_csv(args.human))
        return
    config = BenchConfig(
        algos=[a for a in args.algo.split(",") if a],
        functions=[f for f in args.fn.split(",") if f],
        dim=args.dim, range_name=args.range_name, runs=args.runs,
        seed=args.seed, population_size=args.pop, max_iterations=args.iters,
        tolerance=args.tol, out=args.out, human=args.human)
    payload = run_bench_suite(config)
    for row in payload["stats"]:
        print(f"{row['function']} {row['algo']}: "
              f"{row['n_success']}/{config.runs} solved, "
              f"mean iters {row['iters_mean']}")
    _print_written(payload)


def _cmd_cluster(args):
    config = ClusterConfig(algo=args.algo, data=args.data, gt=args.gt,
                           labels=args.labels, k=args.k, ranks=args.ranks,
                           cycles=args.cycles, density_threshold=args.density,
                           levy_alpha=args.levy_alpha, runs=args.runs,
                           seed=args.seed, out=args.out, human=args.human)
    payload = run_cluster_suite(config)
    summary = payload["summary"]
    parts = [f"{summary['dataset']} {summary['algo']}:",
             f"k_mean={summary['k_mean']}", f"sse_mean={summary['sse_mean']}"]
    if summary.get("ci_mean") is not None:
        parts.append(f"ci_mean={summary['ci_mean']}")
    print(" ".join(parts))
    _print_written(payload)


def _cmd_fca(args):
    config = FcaConfig(ctx=args.ctx, tax=args.tax, hyper_depth=args.hyper_depth,
                       hypo_depth=args.hypo_depth, iters=args.iters,
                       quality_floor=args.quality_floor, out=args.out,
                       report=args.report)
    payload = run_fca_suite(config)
    print(f"{payload['original_shape']} -> {payload['reduced_shape']}, "
          f"concepts {payload['original']['n_concepts']} -> "
          f"{payload['reduced']['n_concepts']}, quality {payload['quality']:.4f}, "
          f"{len(payload['trace'])} merges")
    _print_written(payload)


def _cmd_report(args):
    compare = [c for c in args.compare.split(",") if c]
    if len(compare) != 2:
        raise CliError("--compare needs exactly two algorithms, e.g. bsa,de")
    payload = run_report(args.in_path, compare, metric=args.metric,
                         alpha=args.alpha, out=args.out)
    for row in payload["comparison"]:
        print(f"{row['function']}: winner {row['winner']} "
              f"(p={row['p_value']}, n={row['n_pairs']})")
    _print_written(payload)


_COMMANDS = {"bench-opt": _cmd_bench, "cluster": _cmd_cluster,
             "fca-reduce": _cmd_fca, "report": _cmd_report}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        _COMMANDS[args.command](args)
        return 0
    except CliError as exc:
        _emit_error("usage", exc)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _emit_error(type(exc).__name__, exc)
        return 1


def _emit_error(kind, exc):
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
