"""Per-layer tracing of evoclust from outside the package.

``installed(tracer)`` swaps each function in ``TRACED`` for a wrapper that
records one span per call (name, start, end, parent span, and an optional
measured value such as rows evaluated), in every evoclust module that binds
the function. A module that imports a function by name holds its own
reference, so ``ecastar.intra_cluster``, ``ecastar.boundary_control``,
``optimizers.permute`` and ``reducer.build_lattice`` are covered too. Spans
stay in memory; ``layer_metrics`` turns one pass's spans into the per-layer
metrics. The originals are restored on exit.
"""

import functools
import statistics
import sys
import time
from contextlib import contextmanager

ALGOS = ("bsa", "de", "pso", "abc", "ff")


def _rows(args, kwargs, result):
    return len(result)


def _run_optimizer(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    iters = result.iterations_to_success if result.succeeded else config.max_iterations
    return (result.algo, iters)


def _pairs(args, kwargs, result):
    n = len(args[0] if args else kwargs["points"])
    return n * (n - 1) // 2


def _max_cycles(args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return params.max_cycles


def _concepts(args, kwargs, result):
    return len(result.concepts)


def _merges(args, kwargs, result):
    return len(result[1])


def _returned(args, kwargs, result):
    return result


# span name (module.function) -> what to record from the call, if anything
TRACED = {
    "cli.main": _returned,
    "benchmarks.evaluate_batch": _rows,
    "optimizers.run_optimizer": _run_optimizer,
    "optimizers.bsa_crossover": None,
    "optimizers.boundary_control": None,
    "rng.permute": None,
    "stats.wilcoxon_signed_rank": None,
    "reports.run_bench_suite": None,
    "reports.run_report": None,
    "reports.run_cluster_suite": None,
    "reports.run_fca_suite": None,
    "ecastar.run_eca_star": _max_cycles,
    "ecastar.init_assign": None,
    "ecastar.clustering_one": None,
    "ecastar.mut_over": None,
    "ecastar.clustering_two": None,
    "measures.intra_cluster": _pairs,
    "measures.pairwise_min_distance": None,
    "measures.solution_inter": None,
    "measures.assign_nearest": None,
    "metrics.quality_report": None,
    "kmeans.kmeans": None,
    "datasets.load_dataset": None,
    "fca.read_cxt": None,
    "fca.derive_concepts": None,
    "fca.build_lattice": _concepts,
    "fca.hasse_edges": None,
    "fca.invariants": None,
    "fca._transitive_closure": None,
    "fca._girth": None,
    "fca.lattice_quality": None,
    "reducer.reduce_context": _merges,
    "reducer.classify_pair": None,
    "reducer.enumerate_pairs": None,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "value")

    def __init__(self, name, start, end=0.0, parent=None, value=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.value = parent, value

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one caller thread at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.value = measure(args, kwargs, result)
            return result
        return wrapper


@contextmanager
def installed(tracer):
    """Trace every function in TRACED for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "evoclust" or n.startswith("evoclust.")]
    swaps = []
    try:
        for name, measure in TRACED.items():
            module, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"evoclust.{module}"], attr)
            wrapper = tracer.wrap(name, original, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        swaps.append((m, key, original))
        yield tracer
    finally:
        for m, key, original in reversed(swaps):
            setattr(m, key, original)


def self_times(spans):
    """Span -> its duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.duration - covered
    return out


def _ancestor(span, name):
    span = span.parent
    while span is not None and span.name != name:
        span = span.parent
    return span


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    own = self_times(spans)
    by = {name: [] for name in TRACED}
    for s in spans:
        by[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by[name])

    def self_total(name):
        return sum(own[id(s)] for s in by[name])

    m = {}
    evals = by["benchmarks.evaluate_batch"]
    rows = sum(s.value for s in evals)
    m["benchmarks.evaluate_batch.calls"] = len(evals)
    m["benchmarks.evaluate_batch.rows_per_call"] = rows / len(evals) if evals else 0.0
    m["benchmarks.evaluate_batch.self_s"] = self_total("benchmarks.evaluate_batch")

    iters = dict.fromkeys(ALGOS, 0)
    self_s = dict.fromkeys(ALGOS, 0.0)
    for s in by["optimizers.run_optimizer"]:
        algo, n = s.value
        iters[algo] += n
        self_s[algo] += own[id(s)]
    evaluated = dict.fromkeys(ALGOS, 0)
    for s in evals:
        run = _ancestor(s, "optimizers.run_optimizer")
        if run is not None:
            evaluated[run.value[0]] += s.value
    for algo in ALGOS:
        m[f"optimizers.{algo}.iters"] = iters[algo]
        m[f"optimizers.{algo}.self_s"] = self_s[algo]
        m[f"optimizers.{algo}.evals_per_iter"] = (
            evaluated[algo] / iters[algo] if iters[algo] else 0.0)
    m["optimizers.bsa_crossover.s"] = total("optimizers.bsa_crossover")
    m["optimizers.boundary_control.s"] = total("optimizers.boundary_control")
    m["rng.permute.calls"] = len(by["rng.permute"])
    m["stats.wilcoxon_signed_rank.calls"] = len(by["stats.wilcoxon_signed_rank"])
    m["stats.wilcoxon_signed_rank.s"] = total("stats.wilcoxon_signed_rank")
    m["reports.run_bench_suite.self_s"] = self_total("reports.run_bench_suite")
    m["reports.run_report.s"] = total("reports.run_report")
    m["reports.run_cluster_suite.self_s"] = self_total("reports.run_cluster_suite")
    m["reports.run_fca_suite.self_s"] = self_total("reports.run_fca_suite")

    runs = by["ecastar.run_eca_star"]
    cycles = {id(r): 0 for r in runs}
    for s in by["ecastar.clustering_one"]:
        run = _ancestor(s, "ecastar.run_eca_star")
        if run is not None:
            cycles[id(run)] += 1
    m["ecastar.cycles"] = sum(cycles.values())
    m["ecastar.cycle_cap_frac"] = (
        sum(cycles[id(r)] >= r.value for r in runs) / len(runs) if runs else 0.0)
    m["ecastar.init_assign.s"] = total("ecastar.init_assign")
    m["ecastar.clustering_one.self_s"] = self_total("ecastar.clustering_one")
    m["ecastar.mut_over.s"] = total("ecastar.mut_over")
    m["ecastar.clustering_two.self_s"] = self_total("ecastar.clustering_two")

    intra = by["measures.intra_cluster"]
    m["measures.intra_cluster.calls"] = len(intra)
    m["measures.intra_cluster.s"] = total("measures.intra_cluster")
    m["measures.intra_cluster.pairs"] = sum(s.value for s in intra)
    m["measures.intra_cluster.peak_pairs"] = max((s.value for s in intra), default=0)
    m["measures.pairwise_min_distance.s"] = total("measures.pairwise_min_distance")
    m["measures.solution_inter.calls"] = len(by["measures.solution_inter"])
    m["measures.solution_inter.s"] = total("measures.solution_inter")
    m["measures.assign_nearest.s"] = total("measures.assign_nearest")
    m["metrics.quality_report.s"] = total("metrics.quality_report")
    m["kmeans.kmeans.s"] = total("kmeans.kmeans")
    m["datasets.load_dataset.s"] = total("datasets.load_dataset")

    lattices = by["fca.build_lattice"]
    m["fca.read_cxt.s"] = total("fca.read_cxt")
    m["fca.derive_concepts.s"] = total("fca.derive_concepts")
    m["fca.build_lattice.calls"] = len(lattices)
    m["fca.concepts"] = sum(s.value for s in lattices)
    m["fca.hasse_edges.s"] = total("fca.hasse_edges")
    m["fca.invariants.calls"] = len(by["fca.invariants"])
    m["fca.invariants.self_s"] = self_total("fca.invariants")
    m["fca._transitive_closure.s"] = total("fca._transitive_closure")
    m["fca._girth.s"] = total("fca._girth")
    m["fca.lattice_quality.calls"] = len(by["fca.lattice_quality"])

    merges = sum(s.value for s in by["reducer.reduce_context"])
    classified = len(by["reducer.classify_pair"])
    m["reducer.reduce_context.self_s"] = self_total("reducer.reduce_context")
    # reduce_context enumerates the attribute pairs, then the object pairs,
    # once per pass
    m["reducer.passes"] = sum(
        _ancestor(s, "reducer.reduce_context") is not None
        for s in by["reducer.enumerate_pairs"]) // 2
    m["reducer.merges"] = merges
    m["reducer.classify_pair.calls"] = classified
    m["reducer.merge_yield"] = merges / classified if classified else 0.0
    m["reducer.build_lattice.calls"] = sum(
        _ancestor(s, "reducer.reduce_context") is not None for s in lattices)

    mains = by["cli.main"]
    m["cli.main.calls"] = len(mains)
    m["cli.main.failed"] = sum(s.value != 0 for s in mains)
    return m


def median_metrics(per_pass):
    """Metric-wise median over passes; counts and ratios repeat exactly from
    pass to pass, so their median is the count."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
