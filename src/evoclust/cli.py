"""Command-line front end: bench-opt, cluster, fca-reduce, and report.

Each option's dest is the keyword its suite in ``reports`` reads, and an
option not given is absent from the namespace, so the suite's own defaults
apply: every setting is declared once, where it is read.

Every failure path prints one JSON object {"error", "message"} to stderr and
exits nonzero, so wrappers never have to scrape tracebacks.
"""

import argparse
import functools
import json
import sys

from . import benchmarks
from .ecastar import EcaParams
from .optimizers import ALGORITHMS
from .reports import (METRIC_KEYS, RANGES, fmt_full, fmt_sig, run_bench_suite,
                      run_cluster_suite, run_fca_suite, run_report)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse variant that raises instead of printing usage + exiting."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _comma_list(text):
    return [item for item in text.split(",") if item]


@functools.cache  # parse_args keeps no state: one parser serves every main call
def _build_parser():
    parser = _Parser(prog="evoclust",
                     description="Optimization benchmarks, evolutionary "
                                 "clustering, and formal-context reduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)

    # a dest other than the flag's name keeps the flag's name as metavar, so
    # that --help reads as before
    p = add_parser("bench-opt", help="benchmark optimizers",
                   description="Run optimizers over the benchmark catalog.")
    p.add_argument("--list", action="store_true", help="print the function catalog and exit")
    p.add_argument("--algo", dest="algos", metavar="ALGO", type=_comma_list,
                   help=f"comma-separated algorithms ({','.join(ALGORITHMS)}) or 'all'")
    p.add_argument("--fn", dest="functions", metavar="FN", type=_comma_list,
                   help="function id/name, comma list, or 'all'")
    p.add_argument("--dim", type=int, help="dimension for scalable functions")
    bounds = ", ".join(f"{name}=[{low:g},{up:g}]" for name, (low, up) in RANGES.items())
    p.add_argument("--range", dest="range_name", choices=["default", *RANGES],
                   help=f"search range override ({bounds})")
    p.add_argument("--runs", type=int)
    p.add_argument("--iters", dest="max_iterations", metavar="ITERS", type=int)
    p.add_argument("--pop", dest="population_size", metavar="POP", type=int)
    p.add_argument("--tol", dest="success_tolerance", metavar="TOL", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV path; a JSON lands alongside")
    p.add_argument("--human", action="store_true",
                   help="4-significant-digit scientific notation in CSVs")

    p = add_parser("cluster", help="run a clustering algorithm",
                   description="Cluster a dataset repeatedly and report quality.")
    p.add_argument("--algo", choices=["eca-star", "km", "km++"])
    p.add_argument("--data", required=True, help="points file (one point per line)")
    p.add_argument("--gt", help="ground-truth centroid file")
    p.add_argument("--labels", help="ground-truth label file")
    # km/km++ read only --k and eca-star only the next four; giving either
    # algorithm an option of the other is an error
    p.add_argument("--k", type=int, help="cluster count for km/km++")
    p.add_argument("--ranks", type=int,
                   help="eca-star: social rank count S "
                        f"(default {EcaParams.social_ranks})")
    p.add_argument("--cycles", type=int,
                   help=f"eca-star: cycle cap (default {EcaParams.max_cycles})")
    p.add_argument("--density", dest="density_threshold", metavar="DENSITY", type=float,
                   help="eca-star: low-density merge threshold "
                        f"(default {EcaParams.density_threshold})")
    p.add_argument("--levy-alpha", type=float,
                   help="eca-star: Levy stability index "
                        f"(default {EcaParams.levy_alpha})")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--human", action="store_true")

    p = add_parser("fca-reduce", help="reduce a formal context",
                   description="Merge synonymous/related rows and columns "
                               "of a formal context under a taxonomy.")
    p.add_argument("--ctx", required=True, help="context file (Burmeister .cxt)")
    p.add_argument("--tax", required=True, help="taxonomy TSV")
    p.add_argument("--hyper-depth", dest="hypernym_depth", metavar="HYPER_DEPTH", type=int)
    p.add_argument("--hypo-depth", dest="hyponym_depth", metavar="HYPO_DEPTH", type=int)
    p.add_argument("--iters", dest="max_iterations", metavar="ITERS", type=int)
    p.add_argument("--quality-floor", type=float)
    p.add_argument("--out", help="reduced context path (.cxt)")
    p.add_argument("--report", help="invariants report path (.json)")

    p = add_parser("report", help="compare algorithms from a results JSON",
                   description="Paired signed-rank comparison between two "
                               "algorithms recorded in a bench-opt JSON.")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--compare", required=True, type=_comma_list,
                   help="two algorithms, e.g. bsa,de")
    p.add_argument("--metric", choices=list(METRIC_KEYS))
    p.add_argument("--alpha", type=float)
    p.add_argument("--out")

    return parser


def _flags(command, dests):
    """The flags, sorted, that set the given dests of one subcommand."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return sorted(a.option_strings[0] for a in sub.choices[command]._actions
                  if a.dest in dests)


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


# each _cmd_* looks its suite up by module-global name when it runs, so a
# tracer that swaps the name in this module sees the call

def _cmd_bench(settings):
    if settings.pop("list", False):
        human = settings.pop("human", False)
        if settings:  # only the flags given are in settings
            raise CliError("evoclust bench-opt: --list takes no option but --human; got "
                           + ", ".join(_flags("bench-opt", settings)))
        print(_catalog_csv(human))
        return
    payload = run_bench_suite(**settings)
    for row in payload["stats"]:
        print(f"{row['function']} {row['algo']}: "
              f"{row['n_success']}/{payload['config']['runs']} solved, "
              f"mean iters {row['iters_mean']}")
    _print_written(payload)


def _cmd_cluster(settings):
    payload = run_cluster_suite(**settings)
    summary = payload["summary"]
    parts = [f"{summary['dataset']} {summary['algo']}:",
             f"k_mean={summary['k_mean']}", f"sse_mean={summary['sse_mean']}"]
    if summary.get("ci_mean") is not None:
        parts.append(f"ci_mean={summary['ci_mean']}")
    print(" ".join(parts))
    _print_written(payload)


def _cmd_fca(settings):
    payload = run_fca_suite(**settings)
    print(f"{payload['original_shape']} -> {payload['reduced_shape']}, "
          f"concepts {payload['original']['n_concepts']} -> "
          f"{payload['reduced']['n_concepts']}, quality {payload['quality']:.4f}, "
          f"{len(payload['trace'])} merges")
    _print_written(payload)


def _cmd_report(settings):
    if len(settings["compare"]) != 2:
        raise CliError("--compare needs exactly two algorithms, e.g. bsa,de")
    payload = run_report(**settings)
    for row in payload["comparison"]:
        print(f"{row['function']}: winner {row['winner']} "
              f"(p={row['p_value']}, n={row['n_pairs']})")
    _print_written(payload)


_COMMANDS = {"bench-opt": _cmd_bench, "cluster": _cmd_cluster,
             "fca-reduce": _cmd_fca, "report": _cmd_report}


def main(argv=None):
    try:
        settings = vars(_build_parser().parse_args(argv))
        _COMMANDS[settings.pop("command")](settings)
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
