"""The four benchmark workloads: their inputs, their CLI calls and the checks
on every output.

Each workload turns a workload seed into input files (``generate``) and a
list of ``Call``s (``calls``). The benchmark runs the calls through
``evoclust.cli.main`` in one process, one after another, and hands every
call's output files to ``check``, which returns the problems it found and the
facts the protocol metrics are made of. The program only ever sees the files
written here.
"""

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evoclust.datasets import gaussian_blobs, save_points
from evoclust.fca import read_cxt
from evoclust.reports import scrub_timing
from evoclust.rng import RngStream

ALGOS = ("bsa", "de", "pso", "abc", "ff")
# protocol metrics: each protocol's wall time, optimizer throughput and
# success shares, measured on untraced passes and reported with the
# per-layer metrics
PROTOCOL = (["opt.suite_s"] + [f"opt.{a}.iters_per_s" for a in ALGOS]
            + ["opt.solved_frac", "eca.suite_s", "eca.ci0_frac", "kmpp.suite_s",
               "fca.reduce_s", "fca.floor_held_frac"])
EXACT_LIMIT = 25  # n' at or below which the signed-rank p-value must be exact

# opt-protocol: two fixed-2 functions (run at D = 2) and two scalable ones
# (run at --dim 10), the paper's pop 30 and tol 1e-6, stop-on-success. Runs
# seldom succeed within 25 iterations, so one seed's work is close to
# another's.
OPT_FUNCTIONS = "F1,F7,F11,F14"
OPT_DIM, OPT_POP, OPT_TOL, OPT_RUNS, OPT_ITERS = 10, 30, 1e-6, 3, 25

# cluster-blobs: one large-N four-blob set that the default 2x2 percentile
# grid fits (kernel-bound), and two many-cluster sets that no grid fits
# (loop-bound). On the latter a run's time depends on whether k collapses
# early, so their cycles are capped, and the scattered centres stay fixed, to
# keep one seed's work near another's.
BIG_N_PER_BLOB = 2000
GRID_CENTRES = [(10.0 * i, 10.0 * j) for i in range(4) for j in range(4)]
SCATTER_K, SCATTER_BOX, SCATTER_GAP = 15, 100.0, 15.0
SCATTER_LAYOUT_SEED = 0  # one fixed layout, as in the S-sets; points vary by seed
MANY_CYCLES = 8

# fca-*: planted contexts in a band of concept counts, so that one seed's
# lattices cost about what another's do; context i is reduced at floor
# i mod len(floors). The reducer removes up to about a quarter of the
# concepts, so fca-large's band keeps the original and the reduced lattice
# above fca.EXACT_WIDTH_LIMIT (512): a reduced lattice below it would add the
# exact-width path and half again the time.
FCA_SMALL = dict(shape=(30, 20), band=(230, 250), contexts=4, floors=(0.8, 0.95))
FCA_LARGE = dict(shape=(52, 23), band=(730, 770), contexts=1, floors=(0.8,))
TAXONOMY_TSV = ("syn\tatt0\tatt1\nsyn\tobj0\tobj1\nsyn\tobj2\tobj3\n"
                "att2\tshade\natt3\tshade\nobj4\tstone\nobj5\tstone\n")


@dataclass
class Call:
    """One ``evoclust.cli.main`` invocation and what its outputs mean."""

    kind: str  # bench, report, eca, kmpp or fca
    argv: list
    outputs: list  # JSON and .cxt files the call writes, compared across passes
    meta: dict = field(default_factory=dict)


# ------------------------------------------------------------ generation

def _sub_rng(seed, *path):
    """A numpy generator for one input, derived from the workload seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *path])))


def _write_labels(path, labels):
    Path(path).write_text("".join(f"{int(v)}\n" for v in labels))


def _scattered_centres(rng):
    """SCATTER_K centres uniform in the box, at least SCATTER_GAP apart."""
    centres = []
    while len(centres) < SCATTER_K:
        c = rng.uniform(0.0, SCATTER_BOX, 2)
        if all(math.dist(c, o) >= SCATTER_GAP for o in centres):
            centres.append(c)
    return np.array(centres)


def _gen_cluster(seed, d):
    rng = _sub_rng(seed, 1)
    sets = [dict(name="big", centres=[(0, 0), (10, 0), (0, 10), (10, 10)], sigma=1.0,
                 per_blob=BIG_N_PER_BLOB, ranks=2, cycles=50, eca_runs=3, km_runs=3),
            dict(name="grid", centres=GRID_CENTRES, sigma=1.0, per_blob=60,
                 ranks=5, cycles=MANY_CYCLES, eca_runs=4, km_runs=3),
            dict(name="scatter", centres=_scattered_centres(_sub_rng(SCATTER_LAYOUT_SEED, 3)),
                 sigma=2.0, per_blob=60, ranks=8, cycles=MANY_CYCLES, eca_runs=3, km_runs=3)]
    for s in sets:
        ds = gaussian_blobs(RngStream(int(rng.integers(2**63))), s.pop("centres"),
                            s.pop("sigma"), s.pop("per_blob"))
        save_points(d / f"{s['name']}.txt", ds.points)
        save_points(d / f"{s['name']}_gt.txt", ds.true_centroids)
        _write_labels(d / f"{s['name']}_labels.txt", ds.true_labels)
        s["k"] = len(ds.true_centroids)
    return dict(sets=sets, algo_seed=int(rng.integers(2**31)))


def planted_context(rng, n_obj, n_att, p=0.3, eps=0.15):
    """Random incidence with planted near-duplicate lines: attribute columns
    1 and 3 echo 0 and 2, object rows 1, 3 and 5 echo 0, 2 and 4, each with
    an eps share of flipped cells. TAXONOMY_TSV names those pairs synonyms
    or siblings."""
    inc = rng.random((n_obj, n_att)) < p
    inc[:, 1] = inc[:, 0] ^ (rng.random(n_obj) < eps)
    inc[:, 3] = inc[:, 2] ^ (rng.random(n_obj) < eps)
    for a, b in ((0, 1), (2, 3), (4, 5)):
        inc[b] = inc[a] ^ (rng.random(n_att) < eps)
    return inc


def count_concepts(inc):
    """Number of formal concepts: every intent is the full attribute set or
    an intersection of object rows."""
    full = (1 << inc.shape[1]) - 1
    intents = {full}
    for row in inc:
        r = sum(1 << int(j) for j in np.flatnonzero(row))
        intents |= {i & r for i in intents}
    return len(intents)


def write_cxt(path, inc, name):
    n_obj, n_att = inc.shape
    lines = ["B", name, str(n_obj), str(n_att)]
    lines += [f"obj{i}" for i in range(n_obj)] + [f"att{j}" for j in range(n_att)]
    lines += ["".join("X" if v else "." for v in row) for row in inc]
    Path(path).write_text("\n".join(lines) + "\n")


def _gen_fca(spec):
    def generate(seed, d):
        lo, hi = spec["band"]
        contexts, k = [], 0
        while len(contexts) < spec["contexts"]:
            inc = planted_context(_sub_rng(seed, 2, k), *spec["shape"])
            k += 1
            n = count_concepts(inc)
            if lo <= n <= hi:
                name = f"ctx{len(contexts)}"
                write_cxt(d / f"{name}.cxt", inc, name)
                contexts.append(dict(name=name, concepts=n))
        (d / "taxonomy.tsv").write_text(TAXONOMY_TSV)
        return dict(contexts=contexts)
    return generate


def _gen_opt(seed, d):
    return dict(opt_seed=int(_sub_rng(seed, 0).integers(2**31)))


# ------------------------------------------------------------------ calls

def _calls_opt(inputs, d, out):
    bench = out / "bench.csv"
    return [
        Call("bench", ["bench-opt", "--algo", "all", "--fn", OPT_FUNCTIONS,
                       "--dim", str(OPT_DIM), "--pop", str(OPT_POP),
                       "--tol", repr(OPT_TOL), "--runs", str(OPT_RUNS),
                       "--iters", str(OPT_ITERS), "--seed", str(inputs["opt_seed"]),
                       "--out", str(bench)],
             ["bench.json"],
             dict(runs=OPT_RUNS, iters=OPT_ITERS, tol=OPT_TOL)),
        # best values pair every run, so the exact test sees n' = OPT_RUNS
        Call("report", ["report", "--in", str(out / "bench.json"), "--compare", "bsa,de",
                        "--metric", "value", "--out", str(out / "cmp.csv")],
             ["cmp.json"], dict(metric="value")),
    ]


def _calls_cluster(inputs, d, out):
    calls = []
    for s in inputs["sets"]:
        files = ["--data", str(d / f"{s['name']}.txt"),
                 "--gt", str(d / f"{s['name']}_gt.txt"),
                 "--labels", str(d / f"{s['name']}_labels.txt"),
                 "--seed", str(inputs["algo_seed"])]
        stem = f"{s['name']}_eca"
        calls.append(Call("eca", ["cluster", "--algo", "eca-star", "--ranks", str(s["ranks"]),
                                  "--cycles", str(s["cycles"]),
                                  "--runs", str(s["eca_runs"]), *files,
                                  "--out", str(out / f"{stem}.csv")],
                          [f"{stem}.json"], dict(runs=s["eca_runs"])))
        stem = f"{s['name']}_kmpp"
        calls.append(Call("kmpp", ["cluster", "--algo", "km++", "--k", str(s["k"]),
                                   "--runs", str(s["km_runs"]), *files,
                                   "--out", str(out / f"{stem}.csv")],
                          [f"{stem}.json"], dict(runs=s["km_runs"])))
    return calls


def _calls_fca(spec):
    def calls(inputs, d, out):
        result = []
        for i, c in enumerate(inputs["contexts"]):
            floor = spec["floors"][i % len(spec["floors"])]
            stem = f"{c['name']}_floor{floor}"
            result.append(Call(
                "fca", ["fca-reduce", "--ctx", str(d / f"{c['name']}.cxt"),
                        "--tax", str(d / "taxonomy.tsv"),
                        "--quality-floor", repr(floor),
                        "--out", str(out / f"{stem}.cxt"),
                        "--report", str(out / f"{stem}.json")],
                [f"{stem}.json", f"{stem}.cxt"],
                dict(floor=floor, shape=tuple(spec["shape"]))))
        return result
    return calls


@dataclass
class Workload:
    name: str
    generate: object  # (seed, input dir) -> inputs dict
    calls: object  # (inputs, input dir, output dir) -> [Call]


WORKLOADS = {w.name: w for w in (
    Workload("opt-protocol", _gen_opt, _calls_opt),
    Workload("cluster-blobs", _gen_cluster, _calls_cluster),
    Workload("fca-small", _gen_fca(FCA_SMALL), _calls_fca(FCA_SMALL)),
    Workload("fca-large", _gen_fca(FCA_LARGE), _calls_fca(FCA_LARGE)),
)}


# ----------------------------------------------------------------- checks

def exact_signed_rank_p(x, y):
    """Exact two-sided Wilcoxon signed-rank p-value with average ranks for
    ties, by enumerating the null distribution of twice the positive rank
    sum. Written independently of evoclust.stats to check it."""
    d = [a - b for a, b in zip(x, y) if a != b]
    if not d:
        return 1.0
    mags = sorted(abs(v) for v in d)
    doubled = {}
    i = 0
    while i < len(mags):  # tied magnitudes share the average rank
        j = i
        while j < len(mags) and mags[j] == mags[i]:
            j += 1
        doubled[mags[i]] = i + j + 1  # 2 * mean of ranks i+1 .. j
        i = j
    ranks = [doubled[abs(v)] for v in d]
    w = sum(r for r, v in zip(ranks, d) if v > 0)
    dist = {0: 1}
    for r in ranks:
        nxt = dict(dist)
        for s, c in dist.items():
            nxt[s + r] = nxt.get(s + r, 0) + c
        dist = nxt
    le = sum(c for s, c in dist.items() if s <= w)
    ge = sum(c for s, c in dist.items() if s >= w)
    return min(1.0, 2.0 * min(le, ge) / 2 ** len(d))


def _check_pairs(rows, runs_by, problems, label, metric="iters"):
    """p in [0, 1], and equal to the exact p whenever n' <= EXACT_LIMIT.
    Rows pair iterations to success of runs that both succeeded, or the best
    values of every run."""
    for row in rows:
        p = row["p_value"]
        if p is None:
            if row["n_pairs"] != 0:
                problems.append(f"{label} {row['function']}: p missing with pairs")
            continue
        if not 0.0 <= p <= 1.0:
            problems.append(f"{label} {row['function']}: p={p} outside [0, 1]")
        ra = runs_by[(row["function"], row["algo_a"])]
        rb = runs_by[(row["function"], row["algo_b"])]
        xs, ys = [], []
        for a, b in zip(ra, rb):
            if metric == "value":
                xs.append(a["best_value"])
                ys.append(b["best_value"])
            elif a["succeeded"] and b["succeeded"]:
                xs.append(float(a["iterations_to_success"]))
                ys.append(float(b["iterations_to_success"]))
        if len(xs) != row["n_pairs"]:
            problems.append(f"{label} {row['function']}: n_pairs {row['n_pairs']} != {len(xs)}")
        elif sum(a != b for a, b in zip(xs, ys)) <= EXACT_LIMIT:
            want = exact_signed_rank_p(xs, ys)
            if not math.isclose(p, want, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{label} {row['function']}: p={p}, exact {want}")


def _load(path):
    return json.loads(Path(path).read_text())


def _check_bench(call, out):
    data = _load(out / "bench.json")
    meta = call.meta
    problems, facts = [], {f"{a}.{k}": 0.0 for a in ALGOS for k in ("iters", "run_s")}
    facts.update(solved=0, runs=0)
    for row in data["stats"]:
        if row["n_success"] + row["n_failure"] != meta["runs"]:
            problems.append(f"bench {row['function']} {row['algo']}: "
                            f"{row['n_success']}+{row['n_failure']} != {meta['runs']} runs")
    runs_by = {}
    for block in data["detail"]:
        runs_by[(block["function"], block["algo"])] = block["runs"]
        for r in block["runs"]:
            gap = abs(r["best_value"] - block["reference_min"])
            if r["succeeded"] != (gap <= meta["tol"]):
                problems.append(f"bench {block['function']} {block['algo']} seed {r['seed']}: "
                                f"succeeded={r['succeeded']} at gap {gap}")
            iters = r["iterations_to_success"] if r["succeeded"] else meta["iters"]
            facts[f"{block['algo']}.iters"] += iters
            facts[f"{block['algo']}.run_s"] += r["run_time_s"]
            facts["solved"] += r["succeeded"]
            facts["runs"] += 1
    _check_pairs(data["pairwise"], runs_by, problems, "bench")
    return problems, facts


def _check_report(call, out):
    data = _load(out / "cmp.json")
    bench = _load(out / "bench.json")
    runs_by = {(b["function"], b["algo"]): b["runs"] for b in bench["detail"]}
    problems = []
    _check_pairs(data["comparison"], runs_by, problems, "report", call.meta["metric"])
    return problems, {}


def _check_cluster(call, out):
    data = _load(out / call.outputs[0])
    problems = []
    if len(data["detail"]) != call.meta["runs"]:
        problems.append(f"{call.outputs[0]}: {len(data['detail'])} runs, "
                        f"expected {call.meta['runs']}")
    for r in data["detail"]:
        if r["k"] < 1:
            problems.append(f"{call.outputs[0]} seed {r['seed']}: k={r['k']}")
        if r.get("ci") is None:
            problems.append(f"{call.outputs[0]} seed {r['seed']}: no centroid index")
    return problems, {"runs": len(data["detail"]),
                      "ci0": sum(r.get("ci") == 0 for r in data["detail"])}


def _check_fca(call, out):
    report = _load(out / call.outputs[0])
    problems = []
    reduced = read_cxt(out / call.outputs[1])
    if list(reduced.shape) != report["reduced_shape"]:
        problems.append(f"{call.outputs[1]}: shape {reduced.shape} "
                        f"!= reported {report['reduced_shape']}")
    for axis, before, after in (("object", call.meta["shape"][0], reduced.shape[0]),
                                ("attribute", call.meta["shape"][1], reduced.shape[1])):
        events = sum(1 for ev in report["trace"] if ev[1] == axis)
        removed = before - after
        if not events <= removed <= 2 * events:
            problems.append(f"{call.outputs[1]} {axis}: {removed} removed "
                            f"for {events} merges")
    return problems, {"held": report["quality"] >= call.meta["floor"]}


CHECKS = {"bench": _check_bench, "report": _check_report, "eca": _check_cluster,
          "kmpp": _check_cluster, "fca": _check_fca}


def check(call, out):
    """(problems, facts) for one call's outputs in directory ``out``."""
    try:
        return CHECKS[call.kind](call, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{call.argv[0]}: unreadable output ({type(exc).__name__}: {exc})"], {}


def scrubbed(call, out):
    """The call's outputs with wall-clock keys dropped, for byte comparison."""
    texts = []
    for name in call.outputs:
        text = (out / name).read_text()
        if name.endswith(".json"):
            payload = scrub_timing(json.loads(text))
            text = json.dumps(_strip_paths(payload, out), sort_keys=True)
        texts.append(text)
    return texts


def _strip_paths(obj, out):
    """Output paths differ between passes by their directory; drop it."""
    prefix = str(out) + "/"
    if isinstance(obj, dict):
        return {k: _strip_paths(v, out) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strip_paths(v, out) for v in obj]
    if isinstance(obj, str) and obj.startswith(prefix):
        return obj[len(prefix):]
    return obj


def protocol_metrics(kinds, call_s, facts_by_pass):
    """The protocol metrics from the calls' kinds, each call's median time
    and every pass's per-call facts; 0 where the workload does not run that
    protocol. Outputs repeat exactly from pass to pass, so counts come from
    the first pass; optimizer time is each algorithm's median over passes."""
    m = dict.fromkeys(PROTOCOL, 0.0)
    suite = {"bench": "opt.suite_s", "report": "opt.suite_s", "eca": "eca.suite_s",
             "kmpp": "kmpp.suite_s", "fca": "fca.reduce_s"}
    for kind, elapsed in zip(kinds, call_s):
        m[suite[kind]] += elapsed
    first = [(k, f) for k, f in zip(kinds, facts_by_pass[0]) if f]
    bench = [f for k, f in first if k == "bench"]
    for a in ALGOS:
        run_s = statistics.median(
            sum(f[f"{a}.run_s"] for k, f in zip(kinds, facts) if k == "bench" and f)
            for facts in facts_by_pass)
        m[f"opt.{a}.iters_per_s"] = sum(f[f"{a}.iters"] for f in bench) / run_s if run_s else 0.0
    runs = sum(f["runs"] for f in bench)
    m["opt.solved_frac"] = sum(f["solved"] for f in bench) / runs if runs else 0.0
    eca = [f for k, f in first if k == "eca"]
    eca_runs = sum(f["runs"] for f in eca)
    m["eca.ci0_frac"] = sum(f["ci0"] for f in eca) / eca_runs if eca_runs else 0.0
    fca = [f for k, f in first if k == "fca"]
    m["fca.floor_held_frac"] = sum(f["held"] for f in fca) / len(fca) if fca else 0.0
    return m
