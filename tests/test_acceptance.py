"""Acceptance gate: ten end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines; each test also stands alone under plain pytest.
"""

import itertools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr
from conftest import check_reduction_faithful, concept_tuples

from evoclust import cli, metrics
from evoclust.benchmarks import CATALOG
from evoclust.datasets import gaussian_blobs, load_dataset, save_points
from evoclust.ecastar import EcaParams, run_eca_star
from evoclust.fca import (FormalContext, build_lattice, derive_concepts,
                          hasse_edges, invariants, lattice_quality,
                          _transitive_closure)
from evoclust.kmeans import KmConfig, kmeans
from evoclust.measures import Clustering
from evoclust.metrics import csi, eps_ratio, nmi, nmse, sse
from evoclust.optimizers import OptimizerConfig, run_repetitions
from evoclust.reducer import ReduceParams, Taxonomy, reduce_context
from evoclust.reports import scrub_timing
from evoclust.rng import RngStream
from evoclust.stats import wilcoxon_signed_rank


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException as exc:
        tag = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        print(f"criterion {num:2d} {tag}  {desc}")
        raise
    print(f"criterion {num:2d} PASS  {desc}")


def _four_blobs():
    """200 points in four isotropic clusters, centers 20 sigma apart."""
    return gaussian_blobs(RngStream(2024),
                          centers=[(0, 0), (10, 0), (0, 10), (10, 10)],
                          spread=0.5, points_per_cluster=50)


def test_criterion_01_sphere_success_rate():
    with criterion(1, "dual-population search solves the 2-D sphere"):
        cfg = OptimizerConfig(population_size=30, max_iterations=2000, runs=30)
        start = time.perf_counter()
        results = run_repetitions("bsa", "F14", cfg, base_seed=0, dim=2,
                                  bounds=(-1.0, 1.0))
        elapsed = time.perf_counter() - start
        n_success = sum(r.succeeded for r in results)
        assert n_success >= 28, f"only {n_success}/30 runs reached 1e-6"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_hardness_gradient():
    # the full 2000-iteration budget solves every function at D=2 on [-5,5],
    # flattening the gradient, so the budget is trimmed to 300 iterations
    # where per-function success counts still spread out
    with criterion(2, "success counts track the catalog hardness gradient"):
        cfg = OptimizerConfig(population_size=30, max_iterations=300, runs=30)
        start = time.perf_counter()
        ids = sorted(CATALOG)
        successes = []
        for fid in ids:
            results = run_repetitions("bsa", CATALOG[fid], cfg, base_seed=0,
                                      dim=2, bounds=(-5.0, 5.0))
            successes.append(sum(r.succeeded for r in results))
        elapsed = time.perf_counter() - start
        rho, _ = spearmanr(successes, [CATALOG[i].hardness_pct for i in ids])
        assert rho > 0.4, f"spearman rho {rho:.3f}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def _oracle_signed_rank_p(x, y):
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = d[d != 0]
    n = d.size
    if n == 0:
        return 1.0, 0.0, 0.0
    order = np.argsort(np.abs(d), kind="stable")
    absd = np.abs(d)[order]
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and absd[j] == absd[i]:
            j += 1
        ranks[i:j] = (i + j + 1) / 2.0
        i = j
    signs = np.sign(d)[order]
    r_plus = float(ranks[signs > 0].sum())
    count_le = count_ge = 0
    for mask in range(1 << n):
        w = sum(ranks[k] for k in range(n) if mask >> k & 1)
        if w <= r_plus + 1e-12:
            count_le += 1
        if w >= r_plus - 1e-12:
            count_ge += 1
    p = min(1.0, 2.0 * min(count_le, count_ge) / (1 << n))
    return p, r_plus, float(ranks.sum() - r_plus)


def test_criterion_03_signed_rank_exactness():
    with criterion(3, "exact signed-rank p equals full enumeration"):
        rng = np.random.Generator(np.random.PCG64(7))
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 13))
            x = rng.integers(0, 6, size=n) * 0.5
            y = rng.integers(0, 6, size=n) * 0.5
            if np.all(x == y):
                continue
            got = wilcoxon_signed_rank(x, y)
            want_p, want_rp, want_rm = _oracle_signed_rank_p(x, y)
            assert got.exact
            assert abs(got.p_value - want_p) <= 1e-12
            assert got.r_plus == want_rp and got.r_minus == want_rm
            checked += 1
        for _ in range(10_000):
            n = int(rng.integers(1, 40))
            x = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            y = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            w = wilcoxon_signed_rank(x, y)
            expect = w.n_nonzero * (w.n_nonzero + 1) / 2.0
            assert abs(w.r_plus + w.r_minus - expect) < 1e-9


def test_criterion_04_cluster_recovery():
    with criterion(4, "evolutionary clustering recovers four gaussians"):
        ds = _four_blobs()
        start = time.perf_counter()
        hits = 0
        for seed in range(30):
            _, report = run_eca_star(ds, EcaParams(seed=seed))
            if report.ci == 0 and report.csi >= 0.95:
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits >= 27, f"only {hits}/30 runs hit CI=0, CSI>=0.95"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_sse_competitive_with_seeded_kmeans():
    with criterion(5, "mean SSE within 1.1x of k-means++"):
        ds = _four_blobs()
        eca_sse = []
        for seed in range(30):
            _, report = run_eca_star(ds, EcaParams(seed=seed))
            eca_sse.append(report.sse)
        km_sse = [sse(ds, kmeans(ds, KmConfig(k=4, seed=s, init="plusplus")))
                  for s in range(30)]
        ratio = float(np.mean(eca_sse)) / float(np.mean(km_sse))
        assert ratio <= 1.1, f"mean SSE ratio {ratio:.3f}"


def _s1_files():
    root = Path(__file__).resolve().parent.parent
    pts = os.environ.get("EVOCLUST_S1", root / "data" / "s1.txt")
    gt = os.environ.get("EVOCLUST_S1_GT", root / "data" / "s1-gt.txt")
    return Path(pts), Path(gt)


def test_criterion_06_s1_benchmark_if_present():
    with criterion(6, "S1 benchmark recovery (optional file)"):
        pts_path, gt_path = _s1_files()
        if not (pts_path.exists() and gt_path.exists()):
            pytest.skip("S1 data not supplied (data/s1.txt, data/s1-gt.txt "
                        "or EVOCLUST_S1/EVOCLUST_S1_GT)")
        ds = load_dataset(pts_path, centroids_path=gt_path)
        # 15 targets need at least 16 initial classes: 4 ranks on 2-D data
        hits = 0
        for seed in range(30):
            _, report = run_eca_star(ds, EcaParams(social_ranks=4, seed=seed))
            if report.ci == 0:
                hits += 1
        assert hits >= 20, f"only {hits}/30 runs reached CI=0"


def test_criterion_07_metric_identities(monkeypatch):
    with criterion(7, "quality-metric identities and agreement scores"):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(10_000):
            s = float(rng.uniform(0, 1e6))
            n = int(rng.integers(1, 1000))
            d = int(rng.integers(1, 50))
            opt = float(rng.uniform(1e-6, 10))
            tol = 1e-12 * max(1.0, abs(s))
            assert abs(nmse(s, n, d) * n * d - s) <= tol
            monkeypatch.setattr(metrics, "SSE_OPT", opt)
            assert abs(eps_ratio(s) * opt + opt - s) <= tol
        labels = rng.integers(0, 4, size=60)
        pts = rng.normal(size=(60, 3))
        cents = np.vstack([pts[labels == j].mean(axis=0) for j in range(4)])
        clust = Clustering(assignment=labels, centroids=cents)
        assert csi(clust, clust) == 1.0
        assert abs(nmi(labels, labels) - 1.0) <= 1e-9
        assert abs(nmi([0, 0, 1, 1], [0, 1, 0, 1])) <= 1e-12


def _brute_concepts(ctx):
    n_obj, n_att = ctx.shape
    row_masks = ctx.row_masks()
    full = (1 << n_att) - 1
    seen = set()
    for mask in range(1 << n_att):
        extent = tuple(i for i in range(n_obj)
                       if row_masks[i] & mask == mask)
        intent = full
        for i in extent:
            intent &= row_masks[i]
        seen.add((extent, tuple(j for j in range(n_att) if intent >> j & 1)))
    return sorted(seen, key=lambda c: (len(c[0]), c[0]))


def _max_antichain(concepts):
    ext = [set(c.extent) for c in concepts]
    best = 1
    for r in range(2, len(concepts) + 1):
        found = False
        for combo in itertools.combinations(range(len(concepts)), r):
            if all(not (ext[i] <= ext[j] or ext[j] <= ext[i])
                   for i, j in itertools.combinations(combo, 2)):
                found = True
                break
        if found:
            best = r
        else:
            break
    return best


def test_criterion_08_concept_enumeration_exact():
    with criterion(8, "concept enumeration matches power-set closure"):
        rng = np.random.Generator(np.random.PCG64(13))
        dilworth_checked = 0
        for _ in range(200):
            n_obj = int(rng.integers(1, 11))
            n_att = int(rng.integers(1, 11))
            inc = rng.random((n_obj, n_att)) < rng.uniform(0.15, 0.85)
            ctx = FormalContext([f"o{i}" for i in range(n_obj)],
                                [f"a{j}" for j in range(n_att)], inc)
            concepts = derive_concepts(ctx)
            tuples = concept_tuples(concepts)
            assert [(c.extent, c.intent) for c in tuples] == _brute_concepts(ctx)
            edges = hasse_edges(concepts)
            reach = _transitive_closure(len(concepts), edges)
            ext = [set(c.extent) for c in tuples]
            for i in range(len(concepts)):
                for j in range(len(concepts)):
                    assert reach[i, j] == (i != j and ext[i] < ext[j])
            if len(concepts) <= 12:
                assert invariants(concepts)["width"] == _max_antichain(tuples)
                dilworth_checked += 1
        assert dilworth_checked >= 20  # enough small lattices were drawn


def _planted_context(seed):
    """30x20 random context; 20% of the labels on each axis carry planted
    synonym or sibling-hypernym structure as near-duplicate lines."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_obj, n_att, p, eps = 30, 20, 0.3, 0.15
    inc = rng.random((n_obj, n_att)) < p
    inc[:, 1] = inc[:, 0] ^ (rng.random(n_obj) < eps)
    inc[:, 3] = inc[:, 2] ^ (rng.random(n_obj) < eps)
    for a, b in ((0, 1), (2, 3), (4, 5)):
        inc[b] = inc[a] ^ (rng.random(n_att) < eps)
    ctx = FormalContext([f"obj{i}" for i in range(n_obj)],
                        [f"att{j}" for j in range(n_att)], inc, name="planted")
    tax = Taxonomy(
        parent_map={"att2": {"shade"}, "att3": {"shade"},
                    "obj4": {"stone"}, "obj5": {"stone"}},
        synsets=[{"att0", "att1"}, {"obj0", "obj1"}, {"obj2", "obj3"}])
    return ctx, tax


def test_criterion_09_reduction_behavior():
    with criterion(9, "planted-structure reduction lands in range"):
        start = time.perf_counter()
        reductions, qualities = [], []
        for seed in range(50):
            ctx, tax = _planted_context(seed)
            n_orig = len(derive_concepts(ctx))
            reduced, trace, _, _ = reduce_context(ctx, tax, ReduceParams())
            n_red = len(derive_concepts(reduced))
            reductions.append((n_orig - n_red) / n_orig * 100.0)
            qualities.append(lattice_quality(build_lattice(ctx),
                                             build_lattice(reduced)))
            check_reduction_faithful(ctx, reduced, trace)
            for axis, before, after in (
                    ("object", 30, len(reduced.objects)),
                    ("attribute", 20, len(reduced.attributes))):
                events = sum(1 for ev in trace if ev.axis == axis)
                removed = before - after
                assert events <= removed <= 2 * events  # never grows
        elapsed = time.perf_counter() - start
        mean_red = float(np.mean(reductions))
        mean_q = float(np.mean(qualities))
        assert 10.0 <= mean_red <= 25.0, f"mean reduction {mean_red:.1f}%"
        assert mean_q >= 0.8, f"mean quality {mean_q:.3f}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _canonical(path):
    payload = json.loads(Path(path).read_text())
    return json.dumps(scrub_timing(payload), sort_keys=True)


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    with criterion(10, "reruns with one seed emit identical machine JSON"):
        ds = _four_blobs()
        data = tmp_path / "pts.txt"
        save_points(data, ds.points)
        gt = tmp_path / "gt.txt"
        save_points(gt, ds.true_centroids)
        ctx, tax = _planted_context(0)
        from evoclust.fca import write_cxt
        write_cxt(ctx, tmp_path / "c.cxt")
        tax_lines = ["syn\tatt0\tatt1", "syn\tobj0\tobj1", "syn\tobj2\tobj3",
                     "att2\tshade", "att3\tshade",
                     "obj4\tstone", "obj5\tstone"]
        (tmp_path / "t.tsv").write_text("\n".join(tax_lines) + "\n")

        pairs = []
        for tag in ("x", "y"):
            d = tmp_path / tag
            d.mkdir()
            assert cli.main(["bench-opt", "--algo", "bsa,de", "--fn", "F14",
                             "--runs", "2", "--iters", "60", "--seed", "3",
                             "--out", str(d / "bench.csv")]) == 0
            assert cli.main(["cluster", "--data", str(data), "--gt", str(gt),
                             "--runs", "2", "--seed", "5",
                             "--out", str(d / "clu.csv")]) == 0
            assert cli.main(["fca-reduce", "--ctx", str(tmp_path / "c.cxt"),
                             "--tax", str(tmp_path / "t.tsv"),
                             "--out", str(d / "red.cxt"),
                             "--report", str(d / "fca.json")]) == 0
            # the rerun must see identical inputs, so both report calls read
            # the first pass's bench JSON
            assert cli.main(["report", "--in", str(tmp_path / "x" / "bench.json"),
                             "--compare", "bsa,de", "--metric", "value",
                             "--out", str(d / "cmp.csv")]) == 0
            pairs.append({name: _canonical(d / name)
                          for name in ("bench.json", "clu.json", "fca.json",
                                       "cmp.json")})
        capsys.readouterr()
        for name in pairs[0]:
            assert pairs[0][name] == pairs[1][name], f"{name} differs"
        assert (tmp_path / "x" / "red.cxt").read_text() \
            == (tmp_path / "y" / "red.cxt").read_text()
